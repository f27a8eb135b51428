"""Significance machinery: one-sided Welch t-tests with Hochberg step-up.

The comparison protocol: within one task, the schedule with the best mean is
the reference; every other schedule is tested one-sided for being worse, the
pairwise p-values are Hochberg-corrected across that task, and the schedules
whose null is retained form the "parity set" (the bold entries of a results
table). Higher metric values are treated as better. The Student-t CDF is
scipy's ``stdtr``, the function ``scipy.stats.t.cdf`` evaluates.

``parity_table`` takes the ``compare`` samples, ``{task: {schedule:
[values]}}``, exactly as JSON-loaded, and raises ``ValueError`` unless it
names at least one task, each task has at least 2 schedules and each
schedule at least 2 finite numbers (a bool is not a number). It returns
the report that ``masksched compare`` prints as JSON and
``format_parity_text`` renders:

    {"alpha": alpha,
     "tasks": {task: {"best": schedule with the highest mean,
                      "means": {schedule: mean},
                      "p_values": {other schedule: one-sided p vs best},
                      "rejected": sorted schedules worse than best,
                      "parity": sorted best + retained schedules}}}
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from scipy.special import stdtr


def welch_statistic(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Welch's t statistic for mean(x) - mean(y), with Satterthwaite df."""
    if len(x) < 2 or len(y) < 2:
        raise ValueError("need at least 2 values per sample")
    nx, ny = len(x), len(y)
    mx = math.fsum(x) / nx
    my = math.fsum(y) / ny
    vx = math.fsum((v - mx) ** 2 for v in x) / (nx - 1)
    vy = math.fsum((v - my) ** 2 for v in y) / (ny - 1)
    se2 = vx / nx + vy / ny
    if se2 == 0.0:
        return math.copysign(math.inf, mx - my) if mx != my else 0.0, float("nan")
    t = (mx - my) / math.sqrt(se2)
    # Satterthwaite df from scale-free ratios (immune to variance underflow)
    ra = (vx / nx) / se2
    rb = (vy / ny) / se2
    df = 1.0 / (ra**2 / (nx - 1) + rb**2 / (ny - 1))
    return t, df


def one_sided_t(x: Sequence[float], y: Sequence[float]) -> float:
    """p-value for the alternative "x is worse than y": P(T <= t_obs)."""
    t, df = welch_statistic(x, y)
    if math.isnan(df):
        if t == 0.0:
            warnings.warn(
                "zero variance in both samples with equal means; p = 0.5 by convention",
                stacklevel=2,
            )
            return 0.5
        return 0.0 if t < 0 else 1.0
    return float(stdtr(df, t))


def hochberg(pvals: list[float], alpha: float = 0.05) -> set[int]:
    """Hochberg step-up: indices of rejected hypotheses.

    Sort p ascending as p_(1) <= ... <= p_(m) and find the largest k with
    p_(k) <= alpha / (m - k + 1); the k smallest p-values are rejected.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if any(not (0.0 <= p <= 1.0) for p in pvals):
        raise ValueError("p-values must be in [0, 1]")
    m = len(pvals)
    if m == 0:
        return set()
    order = sorted(range(m), key=lambda i: (pvals[i], i))
    best_k = 0
    for k in range(1, m + 1):
        if pvals[order[k - 1]] <= alpha / (m - k + 1):
            best_k = k
    return {order[i] for i in range(best_k)}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def parity_table(samples: dict, alpha: float = 0.05) -> dict:
    """Best-vs-rest one-sided tests per task, Hochberg-corrected per task.

    ``samples`` is the ``compare`` JSON document as loaded; the result is
    the report that ``compare`` prints (see the module docstring).
    """
    if not (samples and isinstance(samples, dict)) or not all(
        isinstance(s, dict) for s in samples.values()
    ):
        raise ValueError("samples must be a non-empty JSON object {task: {schedule: [values]}}")
    tasks = {}
    for task, by_schedule in samples.items():
        if len(by_schedule) < 2:
            raise ValueError(f"task {task!r} needs at least 2 schedules")
        for schedule, values in by_schedule.items():
            if not (isinstance(values, list) and len(values) >= 2 and all(map(_is_number, values))):
                raise ValueError(
                    f"task {task!r}, schedule {schedule!r}: need a list of at least "
                    f"2 finite numbers, got {values!r}"
                )
        means = {name: math.fsum(values) / len(values) for name, values in by_schedule.items()}
        best = min(means, key=lambda name: (-means[name], name))
        others = sorted(name for name in by_schedule if name != best)
        pvals = [one_sided_t(by_schedule[name], by_schedule[best]) for name in others]
        rejected = sorted(others[i] for i in hochberg(pvals, alpha))
        tasks[task] = {
            "best": best,
            "means": means,
            "p_values": dict(zip(others, pvals)),
            "rejected": rejected,
            "parity": sorted(set(by_schedule) - set(rejected)),
        }
    return {"alpha": alpha, "tasks": tasks}


def format_parity_text(report: dict) -> str:
    """Plain-text table; '*' marks parity with the task's best schedule."""
    tasks = sorted(report["tasks"])
    schedules = sorted({name for t in tasks for name in report["tasks"][t]["means"]})
    name_width = max([len("task")] + [len(t) for t in tasks])
    col_width = max([12] + [len(s) + 1 for s in schedules])
    lines = [
        " | ".join(["task".ljust(name_width)] + [s.rjust(col_width) for s in schedules])
    ]
    lines.append("-+-".join(["-" * name_width] + ["-" * col_width for _ in schedules]))
    for task in tasks:
        cmp = report["tasks"][task]
        cells = []
        for s in schedules:
            if s not in cmp["means"]:
                cells.append("-".rjust(col_width))
                continue
            mark = "*" if s in cmp["parity"] else " "
            cells.append(f"{mark}{cmp['means'][s]:.4f}".rjust(col_width))
        lines.append(" | ".join([task.ljust(name_width)] + cells))
    lines.append("* = no significant difference from the task's best mean "
                 f"(one-sided Welch t, Hochberg-corrected, alpha={report['alpha']:g})")
    return "\n".join(lines)
