"""Masking-rate schedules evaluated at any training step.

Four schedule families are supported: constant, linear, cosine, and
step-wise decay. A schedule is a pure function of the step index, so the
logged rate trace of a run can be checked against the closed form exactly.

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

    ``decay_steps`` and ``decay_factor`` apply to the "step" kind only:
    the rate starts at ``initial_rate`` and is multiplied by
    ``decay_factor`` once for each decay step that has been reached.
    Every invariant is checked when the spec is built; an invalid one
    raises ``ScheduleError`` listing all of its problems.
    """

    kind: str
    initial_rate: float
    final_rate: float
    total_steps: int
    decay_steps: tuple[int, ...] = ()
    decay_factor: float = 1.0

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
        if self.kind == "step":
            if self.initial_rate <= 0:
                problems.append("step schedule requires initial_rate > 0")
            if not (0.0 < self.decay_factor <= 1.0):
                problems.append(f"decay_factor out of (0,1]: {self.decay_factor!r}")
            if list(self.decay_steps) != sorted(set(self.decay_steps)):
                problems.append("decay_steps must be strictly increasing")
            if any(not (0 <= s < self.total_steps) for s in self.decay_steps):
                problems.append("decay_steps must lie in [0, total_steps)")
            implied = self.initial_rate * self.decay_factor ** len(self.decay_steps)
            if not math.isclose(implied, self.final_rate, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(
                    "final_rate inconsistent with decay_factor applied over decay_steps"
                )
        elif self.decay_steps or self.decay_factor != 1.0:
            problems.append(f"decay settings only apply to the step kind, not {self.kind!r}")
        if problems:
            raise ScheduleError("; ".join(problems))


def step_halfway(initial_rate: float, final_rate: float, total_steps: int) -> ScheduleSpec:
    """Step schedule with a single decay halfway through training.

    The decay factor is final_rate / initial_rate so the rate lands on
    final_rate after the one decay.
    """
    if initial_rate <= 0:
        raise ScheduleError("step schedule requires initial_rate > 0")
    return ScheduleSpec(
        kind="step",
        initial_rate=initial_rate,
        final_rate=final_rate,
        total_steps=total_steps,
        decay_steps=(total_steps // 2,),
        decay_factor=final_rate / initial_rate,
    )


def masking_rate(spec: ScheduleSpec, t: float) -> float:
    """Masking rate at step ``t``, by closed form:

    constant: initial_rate
    linear:   initial_rate + (t/T) * (final_rate - initial_rate)
    cosine:   initial_rate + (final_rate - initial_rate)/2 * (1 + cos((1 - t/T) * pi))
    step:     initial_rate * decay_factor ** #{decay steps <= t}
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
    n_applied = sum(1 for s in spec.decay_steps if s <= t)
    return spec.initial_rate * spec.decay_factor**n_applied


def schedule_name(spec: ScheduleSpec) -> str:
    """Canonical string: "constant-0.15", "linear-0.3-0.15", etc.

    Rates are rendered with ``repr`` so parsing the name recovers the
    exact float. For step schedules the name carries only the endpoint
    rates; only the single-halfway-decay form round-trips through
    ``parse_schedule``.
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
    if kind == "step":
        return step_halfway(rates[0], rates[1], total_steps)
    return ScheduleSpec(kind, rates[0], rates[1], total_steps)
