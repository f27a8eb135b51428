"""Training-speedup analysis: saturating-curve regression and crossovers.

Step-vs-quality points (higher is better) are fit with the saturating form

    f(t) = c1 - c2 * exp(-(c3 * t) ** c4),   c2, c3, c4 > 0,

which rises monotonically from c1 - c2 at t = 0 toward the asymptote c1.
Solving f(t) = target ("crossover") for a fast schedule at the baseline's
best value, then dividing the baseline's total steps by that crossover step,
yields the training speedup.

Series files are CSV with header ``step,value[,schedule]``; plots are
standalone SVG 1.1, byte-deterministic for identical input.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np
from scipy.optimize import minimize

_RSS_REL_TOL = 1e-12


@dataclass
class RegressionFit:
    c1: float
    c2: float
    c3: float
    c4: float
    rss: float
    converged: bool
    degenerate: bool = False

    def __call__(self, t) -> np.ndarray | float:
        return speedup_model(t, self.c1, self.c2, self.c3, self.c4)

    def to_json(self) -> dict:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "c4": self.c4,
            "rss": self.rss,
            "converged": self.converged,
            "degenerate": self.degenerate,
        }


def speedup_model(t, c1: float, c2: float, c3: float, c4: float):
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
        value = c1 - c2 * np.exp(-((c3 * t) ** c4))
    return float(value) if value.ndim == 0 else value


def fit_speedup_curve(
    steps,
    values,
    n_starts: int = 8,
    max_rounds: int = 16,
    rng_seed: int = 0,
) -> RegressionFit:
    """Least-squares fit by multi-start Nelder-Mead simplex descent.

    c2, c3, c4 are log-parameterized to enforce positivity. Starting point
    per the initialization recipe: c1 above the max value, c2 spanning the
    value range, c3 at the reciprocal median step, c4 = 1. Convergence is
    declared when a full restart round improves the RSS by less than 1e-12
    relative; points are sorted internally so the fit is invariant to input
    order.
    """
    steps = np.asarray(steps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if steps.shape != values.shape or steps.ndim != 1:
        raise ValueError("steps and values must be 1-d arrays of equal length")
    if np.unique(steps).size < 4:
        raise ValueError("need at least 4 points with distinct steps (4 free parameters)")
    if (steps < 0).any():
        raise ValueError("steps must be >= 0")
    order = np.lexsort((values, steps))
    steps, values = steps[order], values[order]

    vmax, vmin = float(values.max()), float(values.min())
    vrange = vmax - vmin
    if vrange <= 1e-9 * max(1.0, abs(vmax)):
        mean = float(values.mean())
        rss = float(((values - mean) ** 2).sum())
        return RegressionFit(
            c1=mean,
            c2=0.0,
            c3=1.0 / float(np.median(steps[steps > 0])) if (steps > 0).any() else 1.0,
            c4=1.0,
            rss=rss,
            converged=True,
            degenerate=True,
        )

    def rss_of(theta: np.ndarray) -> float:
        c1, u2, u3, u4 = theta
        with np.errstate(over="ignore", invalid="ignore"):
            resid = values - (c1 - math.exp(u2) * np.exp(-((math.exp(u3) * steps) ** math.exp(u4))))
        if not np.isfinite(resid).all():
            return math.inf
        return float((resid * resid).sum())

    median_step = float(np.median(steps[steps > 0])) if (steps > 0).any() else 1.0
    theta0 = np.array(
        [vmax + 0.05 * vrange, math.log(vrange), math.log(1.0 / median_step), 0.0]
    )
    rng = np.random.default_rng(rng_seed)

    def polish(theta: np.ndarray):
        res = minimize(
            rss_of,
            theta,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-16, "maxfev": 20_000, "maxiter": 20_000},
        )
        return res.x, float(res.fun)

    best_theta, best_rss = polish(theta0)
    converged = False
    for round_idx in range(max_rounds):
        prev = best_rss
        scale = 0.5**round_idx
        for _ in range(n_starts):
            start = best_theta + rng.normal(0.0, scale, size=4) * np.array(
                [0.2 * vrange, 1.0, 1.0, 0.5]
            )
            theta, rss = polish(start)
            if rss < best_rss:
                best_theta, best_rss = theta, rss
        best_theta, best_rss = polish(best_theta)
        if prev - best_rss <= _RSS_REL_TOL * max(prev, 1e-300):
            converged = True
            break

    c1, u2, u3, u4 = best_theta
    return RegressionFit(
        c1=float(c1),
        c2=math.exp(u2),
        c3=math.exp(u3),
        c4=math.exp(u4),
        rss=best_rss,
        converged=converged,
    )


def crossover_step(fit: RegressionFit, target: float, rel_tol: float = 1e-10) -> float | None:
    """The unique t with f(t) == target, or None when the target is unreachable.

    Targets at or above the asymptote c1 are unreachable; targets at or
    below f(0) = c1 - c2 return 0. Solved by bisection on the strictly
    increasing curve.
    """
    if not fit.converged:
        raise ValueError("cannot solve crossover on a non-converged fit")
    if target >= fit.c1:
        return None
    if fit.degenerate or target <= fit.c1 - fit.c2:
        return 0.0
    hi = 1.0 / fit.c3
    while fit(hi) < target:
        hi *= 2.0
    lo = 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if fit(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def speedup_from_steps(baseline_total_steps: float, crossover: float) -> float:
    """Speedup ratio: the baseline's full duration over the crossover step."""
    if crossover <= 0:
        return math.inf
    return baseline_total_steps / crossover


def load_series_csv(path: str, default_name: str | None = None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read ``step,value[,schedule]`` rows into per-schedule arrays."""
    rows: dict[str, list[tuple[float, float]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"step", "value"}.issubset(reader.fieldnames):
            raise ValueError(f"{path}: series CSV must have 'step' and 'value' columns")
        has_name = "schedule" in reader.fieldnames
        for row in reader:
            name = row["schedule"] if has_name else (default_name or "series")
            rows.setdefault(name, []).append((float(row["step"]), float(row["value"])))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    out = {}
    for name, pairs in rows.items():
        pairs.sort()
        steps = np.array([p[0] for p in pairs])
        values = np.array([p[1] for p in pairs])
        out[name] = (steps, values)
    return out


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720.0, 480.0
_ML, _MR, _MT, _MB = 70.0, 20.0, 20.0, 50.0


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def emit_plot(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    fits: dict[str, RegressionFit] | None = None,
    path: str = "plot.svg",
    crossovers: dict[str, float] | None = None,
    n_curve_points: int = 200,
) -> None:
    """Standalone SVG: raw points per series, fitted curves, crossover markers."""
    if not series:
        raise ValueError("need at least one series to plot")
    fits = fits or {}
    crossovers = crossovers or {}
    all_x = np.concatenate([s for s, _ in series.values()])
    all_y = np.concatenate([v for _, v in series.values()])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_fmt(_W)}" height="{_fmt(_H)}">',
        f'<rect x="0" y="0" width="{_fmt(_W)}" height="{_fmt(_H)}" fill="white"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(_W - _MR)}" y2="{_fmt(_H - _MB)}" stroke="black"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" x2="{_fmt(_ML)}" y2="{_fmt(_H - _MB)}" stroke="black"/>',
    ]
    for i in range(5):
        frac = i / 4
        xt = x_lo + frac * (x_hi - x_lo)
        yt = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{_fmt(sx(xt))}" y="{_fmt(_H - _MB + 18)}" font-size="11" text-anchor="middle">{_fmt(xt)}</text>'
        )
        parts.append(
            f'<text x="{_fmt(_ML - 6)}" y="{_fmt(sy(yt) + 4)}" font-size="11" text-anchor="end">{_fmt(yt)}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(sx(xt))}" y1="{_fmt(_H - _MB)}" x2="{_fmt(sx(xt))}" y2="{_fmt(_H - _MB + 4)}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{_fmt(_ML - 4)}" y1="{_fmt(sy(yt))}" x2="{_fmt(_ML)}" y2="{_fmt(sy(yt))}" stroke="black"/>'
        )

    names = sorted(series)
    colors = {name: _PALETTE[i % len(_PALETTE)] for i, name in enumerate(names)}
    for name in names:
        steps, values = series[name]
        circles = "".join(
            f'<circle cx="{_fmt(sx(float(x)))}" cy="{_fmt(sy(float(y)))}" r="3"/>'
            for x, y in zip(steps, values)
        )
        parts.append(f'<g class="series" fill="{colors[name]}">{circles}</g>')
    for name in sorted(fits):
        fit = fits[name]
        color = colors.get(name, _PALETTE[(len(names) + sorted(fits).index(name)) % len(_PALETTE)])
        grid = np.linspace(x_lo, x_hi, n_curve_points)
        curve = fit(grid)
        d = "M " + " L ".join(f"{_fmt(sx(float(x)))} {_fmt(sy(float(y)))}" for x, y in zip(grid, curve))
        parts.append(f'<path class="fit" d="{d}" stroke="{color}" fill="none" stroke-width="1.5"/>')
    for name in sorted(crossovers):
        x = crossovers[name]
        parts.append(
            f'<line class="crossover" x1="{_fmt(sx(x))}" y1="{_fmt(_MT)}" x2="{_fmt(sx(x))}" '
            f'y2="{_fmt(_H - _MB)}" stroke="#555555" stroke-dasharray="4 3"/>'
        )
    for i, name in enumerate(names):
        y = _MT + 14 + 16 * i
        parts.append(f'<rect x="{_fmt(_W - _MR - 160)}" y="{_fmt(y - 9)}" width="10" height="10" fill="{colors[name]}"/>')
        parts.append(
            f'<text x="{_fmt(_W - _MR - 146)}" y="{_fmt(y)}" font-size="12">{escape(name)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
