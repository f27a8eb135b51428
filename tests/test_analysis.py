import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masksched.analysis import (
    RegressionFit,
    crossover_step,
    emit_plot,
    fit_speedup_curve,
    load_series_csv,
    speedup_from_steps,
    speedup_model,
)

from fit_series import LOCAL_MIN_SERIES, OVERFLOW_STEPS, OVERFLOW_VALUES

TRUE = (0.85, 0.4, 5e-5, 1.2)
STEPS = np.array([5000.0, 10000.0, 20000.0, 30000.0, 40000.0, 50000.0, 60000.0, 70000.0])


def synthetic_values(noise=0.0, seed=0):
    values = speedup_model(STEPS, *TRUE)
    if noise:
        values = values + np.random.default_rng(seed).normal(0.0, noise, size=STEPS.size)
    return values


class TestFit:
    def test_noiseless_recovery(self):
        fit = fit_speedup_curve(STEPS, synthetic_values())
        assert fit.converged
        assert fit.rss < 1e-12
        for got, want in zip((fit.c1, fit.c2, fit.c3, fit.c4), TRUE):
            assert abs(got - want) / want < 0.01

    def test_constant_data_degenerate(self):
        fit = fit_speedup_curve(STEPS, np.full(STEPS.size, 0.7))
        assert fit.degenerate
        assert fit.c2 == 0.0
        assert np.abs(fit(STEPS) - 0.7).max() < 1e-6

    def test_noisy_fit_stays_close(self):
        fit = fit_speedup_curve(STEPS, synthetic_values(noise=1e-3, seed=7))
        truth = speedup_model(STEPS, *TRUE)
        assert np.abs(fit(STEPS) - truth).max() < 3e-3

    def test_too_few_distinct_steps_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_speedup_curve([1.0, 1.0, 2.0, 3.0], [0.1, 0.1, 0.2, 0.3])

    @pytest.mark.parametrize(
        "steps, values",
        [
            ([1.0, 2.0, 3.0, 4.0, math.inf], [0.1, 0.2, 0.3, 0.35, 0.4]),
            ([1.0, 2.0, 3.0, 4.0, 5.0], [0.1, 0.2, math.nan, 0.35, 0.4]),
        ],
        ids=["infinite-step", "nan-value"],
    )
    def test_non_finite_input_rejected(self, steps, values):
        with pytest.raises(ValueError, match="must be finite"):
            fit_speedup_curve(steps, values)

    def test_invariant_to_point_order(self):
        values = synthetic_values(noise=5e-4, seed=3)
        fit1 = fit_speedup_curve(STEPS, values)
        perm = np.random.default_rng(0).permutation(STEPS.size)
        fit2 = fit_speedup_curve(STEPS[perm], values[perm])
        assert fit1 == fit2

    def test_overflowing_trial_step_does_not_raise(self):
        fit = fit_speedup_curve(OVERFLOW_STEPS, OVERFLOW_VALUES)
        assert fit.converged
        assert math.isfinite(fit.rss)
        assert fit.rss < ((np.array(OVERFLOW_VALUES) - np.mean(OVERFLOW_VALUES)) ** 2).sum()
        # c3 * t overflows inside the data range; f and its inverse must not
        for t_star in OVERFLOW_STEPS:
            back = crossover_step(fit, fit(t_star))
            assert abs(back - t_star) / t_star < 1e-6

    @pytest.mark.parametrize("true_params,steps,values", LOCAL_MIN_SERIES)
    def test_short_noisy_series_escapes_local_minimum(self, true_params, steps, values):
        fit = fit_speedup_curve(steps, values)
        true_rss = float(((np.array(values) - speedup_model(steps, *true_params)) ** 2).sum())
        assert fit.converged
        assert fit.rss <= true_rss

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_rss_at_most_true_parameters(self, data):
        c1 = data.draw(st.floats(0.3, 0.95))
        c2 = data.draw(st.floats(0.05, c1))
        c4 = data.draw(st.floats(0.4, 3.0))
        grid = data.draw(st.lists(st.integers(1, 10**6), min_size=4, max_size=13, unique=True))
        steps = np.sort(np.array(grid, dtype=np.float64))
        c3 = math.exp(data.draw(st.floats(-1.0, 1.0))) / float(np.median(steps))
        noise = data.draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        truth = speedup_model(steps, c1, c2, c3, c4)
        values = truth + noise * rng.standard_normal(steps.size)
        true_rss = float(((values - truth) ** 2).sum())
        fit = fit_speedup_curve(steps, values)
        assert fit.rss <= true_rss * (1 + 1e-9) + 1e-24

    def test_fitted_curve_is_monotone(self):
        # strictly increasing wherever the increment is representable in
        # float64 (far beyond the data, c2*exp(...) is absorbed below one
        # ulp of c1 and the sampled curve goes flat)
        fit = fit_speedup_curve(STEPS, synthetic_values())
        grid = np.linspace(1.0, 2e5, 5000)
        curve = fit(grid)
        assert (np.diff(curve) > 0).all()
        assert curve.max() < fit.c1


class TestCrossover:
    def test_closed_form_when_shape_is_one(self):
        fit = RegressionFit(c1=0.9, c2=0.3, c3=2e-4, c4=1.0, rss=0.0, converged=True)
        target = 0.9 - 0.3 * math.exp(-1.0)
        t = crossover_step(fit, target)
        assert abs(t - 1.0 / 2e-4) / (1.0 / 2e-4) < 1e-9

    def test_asymptote_unreachable(self):
        fit = RegressionFit(c1=0.9, c2=0.3, c3=2e-4, c4=1.0, rss=0.0, converged=True)
        assert crossover_step(fit, 0.9) is None
        assert crossover_step(fit, 0.95) is None

    def test_below_start_returns_zero(self):
        fit = RegressionFit(c1=0.9, c2=0.3, c3=2e-4, c4=1.0, rss=0.0, converged=True)
        assert crossover_step(fit, 0.5) == 0.0

    def test_forward_then_invert(self):
        fit = fit_speedup_curve(STEPS, synthetic_values())
        target = fit(30_000.0)
        t = crossover_step(fit, target)
        assert abs(t - 30_000.0) / 30_000.0 < 1e-4

    def test_round_trip_over_data_range(self):
        fit = fit_speedup_curve(STEPS, synthetic_values())
        for t_star in (5000.0, 12_345.0, 42_000.0, 70_000.0):
            back = crossover_step(fit, fit(t_star))
            assert abs(back - t_star) / t_star < 1e-6

    def test_runaway_fit_does_not_overflow(self):
        # A fit of OVERFLOW_*: for targets near c1, c3 * t and
        # ln(c2 / (c1 - target)) ** (1 / c4) = c3 * t exceed the float64
        # range inside the data.
        c1, c2 = 0.8024991223447999, 1.0835306248092685e198
        c3, c4 = 2.488366414704157e302, 0.008653616856188756
        fit = RegressionFit(c1, c2, c3, c4, rss=0.0, converged=True)
        for target in (0.79, 0.8024, 0.80249):
            t = crossover_step(fit, target)
            assert OVERFLOW_STEPS[0] < t < 2 * OVERFLOW_STEPS[-1]
            assert abs(fit(t) - target) < 1e-12

    def test_non_converged_fit_rejected(self):
        fit = RegressionFit(0.9, 0.3, 2e-4, 1.0, rss=1.0, converged=False)
        with pytest.raises(ValueError, match="non-converged"):
            crossover_step(fit, 0.8)


class TestSpeedup:
    def test_headline_ratios(self):
        assert abs(speedup_from_steps(70_000, 37_037) - 1.89) < 0.005
        assert abs(speedup_from_steps(70_000, 42_424) - 1.65) < 0.005

    def test_crossover_at_total_is_unity(self):
        assert speedup_from_steps(70_000, 70_000) == 1.0

    def test_self_comparison_is_unity(self):
        fit = fit_speedup_curve(STEPS, synthetic_values())
        total = float(STEPS[-1])
        ratio = speedup_from_steps(total, crossover_step(fit, fit(total)))
        assert abs(ratio - 1.0) < 1e-5


class TestPlotAndCsv:
    def test_points_only_svg_is_well_formed(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot({"s": (STEPS, synthetic_values())}, None, str(path))
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_structure_two_series_two_fits(self, tmp_path):
        path = tmp_path / "p.svg"
        fit = fit_speedup_curve(STEPS, synthetic_values())
        series = {
            "a": (STEPS, synthetic_values()),
            "b": (STEPS, synthetic_values() - 0.01),
        }
        emit_plot(series, {"a": fit, "b": fit}, str(path))
        text = path.read_text()
        assert text.count('class="series"') == 2
        assert text.count('class="fit"') == 2

    def test_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        fit = fit_speedup_curve(STEPS, synthetic_values())
        for p in (p1, p2):
            emit_plot(
                {"s": (STEPS, synthetic_values())},
                {"s": fit},
                str(p),
                crossovers={"s": 30_000.0},
            )
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "step,value,schedule\n10,0.5,a\n20,0.6,a\n10,0.4,b\n20,0.7,b\n"
        )
        series = load_series_csv(str(path))
        assert set(series) == {"a", "b"}
        np.testing.assert_array_equal(series["a"][0], [10.0, 20.0])
        np.testing.assert_array_equal(series["b"][1], [0.4, 0.7])

    def test_csv_without_schedule_column(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("step,value\n1,0.1\n2,0.2\n")
        series = load_series_csv(str(path), default_name="one")
        assert set(series) == {"one"}

    def test_csv_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="step"):
            load_series_csv(str(path))
