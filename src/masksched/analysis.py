"""Training-speedup analysis: saturating-curve regression and crossovers.

Step-vs-quality points (higher is better) are fit with the saturating form

    f(t) = c1 - c2 * exp(-(c3 * t) ** c4),   c2, c3, c4 > 0,

which rises monotonically from c1 - c2 at t = 0 toward the asymptote c1.
The fit is Levenberg-Marquardt least squares from three data-derived starts
that differ only in c4, keeping the best; ``converged`` is the solver's
status for that start. Solving f(t) = target
("crossover") by the closed-form inverse for a fast schedule at the
baseline's best value, then dividing the baseline's total steps by that
crossover step, yields the training speedup.

Series files are CSV with header ``step,value[,schedule]``; plots are
standalone SVG 1.1, byte-deterministic for identical input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np
from scipy.optimize import least_squares

from .data import atomic_write, read_table


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


def speedup_model(t, c1: float, c2: float, c3: float, c4: float):
    t = np.asarray(t, dtype=np.float64)
    # (c3 * t) ** c4 in log space, so runaway fits (c3 near the float64
    # limit, c4 << 1) stay finite where c3 * t would overflow; t = 0 gives
    # log 0 = -inf and f(0) = c1 - c2.
    with np.errstate(divide="ignore", over="ignore"):
        value = c1 - c2 * np.exp(-np.exp(c4 * (np.log(c3) + np.log(t))))
    return float(value) if value.ndim == 0 else value


# ln c4 at the starts of the fit: a single start from c4 = 1 can stop at a
# worse local minimum on short noisy series.
_START_LOG_SHAPES = (0.0, math.log(0.5), math.log(2.0))


def fit_speedup_curve(steps, values) -> RegressionFit:
    """Least-squares fit by Levenberg-Marquardt from data-derived starts.

    c2, c3, c4 are log-parameterized to enforce positivity. Every start sets
    c1 above the max value, c2 to the value range and c3 to the reciprocal
    median step; c4 is 1, 0.5 or 2. The result is the converged solve with
    the lowest RSS, else the non-converged one with the lowest finite RSS.
    ``converged`` is that solve's status (``least_squares(...).success``)
    and is False when its final RSS is not finite. Points are sorted
    internally so the fit is invariant to input order.
    """
    steps = np.asarray(steps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if steps.shape != values.shape or steps.ndim != 1:
        raise ValueError("steps and values must be 1-d arrays of equal length")
    if not (np.isfinite(steps).all() and np.isfinite(values).all()):
        raise ValueError("steps and values must be finite")
    if np.unique(steps).size < 4:
        raise ValueError("need at least 4 points with distinct steps (4 free parameters)")
    if (steps < 0).any():
        raise ValueError("steps must be >= 0")
    order = np.lexsort((values, steps))
    steps, values = steps[order], values[order]

    vmax, vmin = float(values.max()), float(values.min())
    vrange = vmax - vmin
    median_step = float(np.median(steps[steps > 0])) if (steps > 0).any() else 1.0
    if vrange <= 1e-9 * max(1.0, abs(vmax)):
        mean = float(values.mean())
        rss = float(((values - mean) ** 2).sum())
        return RegressionFit(
            c1=mean,
            c2=0.0,
            c3=1.0 / median_step,
            c4=1.0,
            rss=rss,
            converged=True,
            degenerate=True,
        )

    def residuals(theta: np.ndarray) -> np.ndarray:
        c1, u2, u3, u4 = theta
        # An overflowing trial step yields inf/nan residuals or the model's
        # limiting value instead of raising.
        with np.errstate(over="ignore", invalid="ignore"):
            return values - speedup_model(steps, c1, *np.exp([u2, u3, u4]))

    theta0 = [vmax + 0.05 * vrange, math.log(vrange), math.log(1.0 / median_step)]

    def solve(start_u4: float) -> RegressionFit:
        # Series whose best fit runs off toward c2, c3 -> inf, c4 -> 0 (a
        # power law in the limit) need several thousand evaluations to meet
        # the default tolerances, far above scipy's default cap of 100 per
        # parameter.
        result = least_squares(residuals, theta0 + [start_u4], method="lm", max_nfev=20_000)
        rss = float(result.fun @ result.fun)
        c1, u2, u3, u4 = result.x
        with np.errstate(over="ignore"):
            c2, c3, c4 = np.exp([u2, u3, u4])
        return RegressionFit(
            c1=float(c1),
            c2=float(c2),
            c3=float(c3),
            c4=float(c4),
            rss=rss,
            converged=bool(result.success) and math.isfinite(rss),
        )

    return min(
        (solve(u4) for u4 in _START_LOG_SHAPES),
        key=lambda fit: (not fit.converged, fit.rss if math.isfinite(fit.rss) else math.inf),
    )


def crossover_step(fit: RegressionFit, target: float) -> float | None:
    """The unique t with f(t) == target, or None when the target is unreachable.

    Targets at or above the asymptote c1 are unreachable; targets at or
    below f(0) = c1 - c2 return 0. Otherwise the closed-form inverse
    t = ln(c2 / (c1 - target)) ** (1 / c4) / c3, evaluated as
    (ln(c2 / (c1 - target)) / c3 ** c4) ** (1 / c4) = (t ** c4) ** (1 / c4)
    so that fits with c3 >> 1 and c4 << 1 overflow no intermediate.
    """
    if not fit.converged:
        raise ValueError("cannot solve crossover on a non-converged fit")
    if target >= fit.c1:
        return None
    if target <= fit.c1 - fit.c2:
        return 0.0
    return (math.log(fit.c2 / (fit.c1 - target)) / fit.c3**fit.c4) ** (1.0 / fit.c4)


def speedup_from_steps(baseline_total_steps: float, crossover: float) -> float:
    """Speedup ratio: the baseline's full duration over the crossover step."""
    if crossover <= 0:
        return math.inf
    return baseline_total_steps / crossover


def load_series_csv(path: str, default_name: str | None = None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read ``step,value[,schedule]`` rows into per-schedule arrays."""
    rows: dict[str, list[tuple[float, float]]] = {}
    for line, cells in read_table(path, ("step", "value"), optional=("schedule",)):
        try:
            point = (float(cells["step"]), float(cells["value"]))
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
        rows.setdefault(cells.get("schedule", default_name or "series"), []).append(point)
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
_CURVE_POINTS = 200


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def emit_plot(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    fits: dict[str, RegressionFit] | None,
    path: str,
    crossovers: dict[str, float] | None = None,
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
        grid = np.linspace(x_lo, x_hi, _CURVE_POINTS)
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
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
