"""Masking-rate schedules evaluated at any training step.

Four schedule families are supported: constant, linear, cosine, and a
single step halfway through training. A schedule is a pure function of the
step index, so the logged rate trace of a run can be checked against the
closed form exactly.

Canonical string forms ("linear-0.3-0.15", "constant-0.15", ...) are used
in config files, CLI flags, and metrics logs; ``parse_schedule`` inverts
``schedule_name``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SCHEDULE_KINDS = ("constant", "linear", "cosine", "step")


class ScheduleError(ValueError):
    """Raised for invalid schedule specs, strings, or step indices."""


@dataclass(frozen=True)
class ScheduleSpec:
    """A masking-rate schedule, evaluable at any step in [0, total_steps].

    The "step" kind holds ``initial_rate`` for the first half of training
    and ``final_rate`` from step ``total_steps // 2`` on; its two rates,
    like those of "linear" and "cosine", may be any two rates in [0, 1].
    Every invariant is checked when the spec is built; an invalid one
    raises ``ScheduleError`` listing all of its problems.
    """

    kind: str
    initial_rate: float
    final_rate: float
    total_steps: int

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        problems: list[str] = []
        if self.total_steps < 1:
            problems.append("total_steps must be >= 1")
        for label, rate in (("initial_rate", self.initial_rate), ("final_rate", self.final_rate)):
            if not (0.0 <= rate <= 1.0):
                problems.append(f"{label} out of [0,1]: {rate!r}")
        if self.kind == "constant" and self.initial_rate != self.final_rate:
            problems.append("constant schedule requires initial_rate == final_rate")
        if problems:
            raise ScheduleError("; ".join(problems))


def masking_rate(spec: ScheduleSpec, t: float) -> float:
    """Masking rate at step ``t``, by closed form:

    constant: initial_rate
    linear:   initial_rate + (t/T) * (final_rate - initial_rate)
    cosine:   initial_rate + (final_rate - initial_rate)/2 * (1 + cos((1 - t/T) * pi))
    step:     initial_rate for t < T // 2, final_rate from T // 2 on
    """
    total = spec.total_steps
    if not (0 <= t <= total):
        raise ScheduleError(f"step out of range: t={t!r} not in [0, {total}]")
    if spec.kind == "constant":
        return spec.initial_rate
    if spec.kind == "linear":
        return spec.initial_rate + (t / total) * (spec.final_rate - spec.initial_rate)
    if spec.kind == "cosine":
        return spec.initial_rate + ((spec.final_rate - spec.initial_rate) / 2) * (
            1 + math.cos((1 - t / total) * math.pi)
        )
    return spec.initial_rate if t < total // 2 else spec.final_rate


def schedule_name(spec: ScheduleSpec) -> str:
    """Canonical string: "constant-0.15", "linear-0.3-0.15", etc.

    Rates are rendered with ``repr`` so parsing the name recovers the
    exact float.
    """
    if spec.kind == "constant":
        return f"constant-{spec.initial_rate!r}"
    return f"{spec.kind}-{spec.initial_rate!r}-{spec.final_rate!r}"


def parse_schedule(name: str, total_steps: int) -> ScheduleSpec:
    """Parse a canonical schedule string into a ScheduleSpec."""
    parts = name.strip().split("-")
    kind = parts[0]
    if kind not in SCHEDULE_KINDS:
        raise ScheduleError(f"unknown schedule kind in {name!r}")
    try:
        rates = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise ScheduleError(f"malformed schedule string {name!r}: {exc}") from None
    if kind == "constant":
        if len(rates) != 1:
            raise ScheduleError(f"constant schedule takes one rate, got {name!r}")
        return ScheduleSpec(kind, rates[0], rates[0], total_steps)
    if len(rates) != 2:
        raise ScheduleError(f"{kind} schedule takes two rates, got {name!r}")
    return ScheduleSpec(kind, rates[0], rates[1], total_steps)
