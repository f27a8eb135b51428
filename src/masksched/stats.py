"""Significance machinery: one-sided Welch t-tests with Hochberg step-up.

The comparison protocol: within one task, the schedule with the best mean is
the reference; every other schedule is tested one-sided for being worse, the
pairwise p-values are Hochberg-corrected across that task, and the schedules
whose null is retained form the "parity set" (the bold entries of a results
table). Higher metric values are treated as better. The Student-t CDF is
scipy's ``stdtr``, the function ``scipy.stats.t.cdf`` evaluates.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

from scipy.special import stdtr


@dataclass(frozen=True)
class SampleSet:
    schedule: str
    task: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("need at least 2 values per sample set")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("sample values must be finite")

    @property
    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values)


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


@dataclass
class TaskComparison:
    best: str
    means: dict[str, float]
    p_values: dict[str, float]
    rejected: set[str]
    parity: list[str]


@dataclass
class SignificanceReport:
    alpha: float
    tasks: dict[str, TaskComparison] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "tasks": {
                task: {
                    "best": cmp.best,
                    "means": {k: cmp.means[k] for k in sorted(cmp.means)},
                    "p_values": {k: cmp.p_values[k] for k in sorted(cmp.p_values)},
                    "rejected": sorted(cmp.rejected),
                    "parity": cmp.parity,
                }
                for task, cmp in sorted(self.tasks.items())
            },
        }


def parity_table(samples: list[SampleSet], alpha: float = 0.05) -> SignificanceReport:
    """Best-vs-rest one-sided tests per task, Hochberg-corrected per task."""
    by_task: dict[str, dict[str, SampleSet]] = {}
    for s in samples:
        if s.schedule in by_task.setdefault(s.task, {}):
            raise ValueError(f"duplicate schedule {s.schedule!r} for task {s.task!r}")
        by_task[s.task][s.schedule] = s
    report = SignificanceReport(alpha=alpha)
    for task, sets in by_task.items():
        if len(sets) < 2:
            raise ValueError(f"task {task!r} needs at least 2 schedules")
        means = {name: s.mean for name, s in sets.items()}
        best = min(means, key=lambda name: (-means[name], name))
        others = sorted(name for name in sets if name != best)
        pvals = [one_sided_t(sets[name].values, sets[best].values) for name in others]
        rejected_idx = hochberg(pvals, alpha)
        rejected = {others[i] for i in rejected_idx}
        parity = [best] + [name for name in others if name not in rejected]
        report.tasks[task] = TaskComparison(
            best=best,
            means=means,
            p_values=dict(zip(others, pvals)),
            rejected=rejected,
            parity=sorted(parity),
        )
    return report


def format_parity_text(report: SignificanceReport) -> str:
    """Plain-text table; '*' marks parity with the task's best schedule."""
    tasks = sorted(report.tasks)
    schedules = sorted({name for t in tasks for name in report.tasks[t].means})
    name_width = max([len("task")] + [len(t) for t in tasks])
    col_width = max([12] + [len(s) + 1 for s in schedules])
    lines = [
        " | ".join(["task".ljust(name_width)] + [s.rjust(col_width) for s in schedules])
    ]
    lines.append("-+-".join(["-" * name_width] + ["-" * col_width for _ in schedules]))
    for task in tasks:
        cmp = report.tasks[task]
        cells = []
        for s in schedules:
            if s not in cmp.means:
                cells.append("-".rjust(col_width))
                continue
            mark = "*" if s in cmp.parity else " "
            cells.append(f"{mark}{cmp.means[s]:.4f}".rjust(col_width))
        lines.append(" | ".join([task.ljust(name_width)] + cells))
    lines.append("* = no significant difference from the task's best mean "
                 f"(one-sided Welch t, Hochberg-corrected, alpha={report.alpha:g})")
    return "\n".join(lines)


def samples_from_json(doc: dict) -> list[SampleSet]:
    """Parse {task: {schedule: [values]}} into SampleSets."""
    out = []
    for task, by_schedule in doc.items():
        for schedule, values in by_schedule.items():
            out.append(SampleSet(schedule=schedule, task=task, values=tuple(values)))
    return out


def report_json_text(report: SignificanceReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)
