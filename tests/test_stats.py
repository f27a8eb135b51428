import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from masksched.stats import (
    format_parity_text,
    hochberg,
    one_sided_t,
    parity_table,
    welch_statistic,
)


class TestTCdf:
    def test_matches_scipy_everywhere(self):
        # one_sided_t is scipy's Student-t CDF at the Welch (t, df), bit for
        # bit, also deep in the tails of strongly separated samples
        rng = np.random.default_rng(0)
        for shift in (0.0, 0.5, 5.0, 50.0, -50.0):
            for _ in range(40):
                x = rng.normal(0.0, rng.uniform(0.1, 3.0), size=int(rng.integers(2, 12)))
                y = rng.normal(shift, rng.uniform(0.1, 3.0), size=int(rng.integers(2, 12)))
                t, df = welch_statistic(tuple(x), tuple(y))
                assert one_sided_t(tuple(x), tuple(y)) == scipy_stats.t.cdf(t, df), (t, df)

    def test_symmetry_at_zero(self):
        # equal means, unequal spreads: t = 0 at a non-integer df
        t, df = welch_statistic((1.0, 2.0, 3.0), (0.0, 2.0, 4.0))
        assert t == 0.0 and df != round(df)
        assert one_sided_t((1.0, 2.0, 3.0), (0.0, 2.0, 4.0)) == 0.5


class TestOneSidedT:
    def test_identical_samples_give_half(self):
        assert one_sided_t((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.5

    def test_extreme_separation(self):
        p = one_sided_t((1.0, 2.0, 3.0), (101.0, 102.0, 103.0))
        assert p < 1e-6

    def test_matches_scipy_welch_one_sided(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.normal(83.8, 0.3, size=int(rng.integers(2, 9)))
            y = rng.normal(84.2, 0.2, size=int(rng.integers(2, 9)))
            ours = one_sided_t(tuple(x), tuple(y))
            ref = scipy_stats.ttest_ind(x, y, equal_var=False, alternative="less").pvalue
            assert abs(ours - ref) < 1e-9

    def test_pinned_worked_example(self):
        # frozen from an external statistics package (Welch, one-sided "less")
        x = (83.7, 83.9, 83.6)
        y = (84.2, 84.4, 84.3)
        p = one_sided_t(x, y)
        ref = scipy_stats.ttest_ind(x, y, equal_var=False, alternative="less").pvalue
        assert abs(p - ref) < 1e-9
        assert p == pytest.approx(0.004365514615796582, abs=1e-9)

    def test_zero_variance_equal_means_flagged(self):
        with pytest.warns(UserWarning, match="zero variance"):
            p = one_sided_t((2.0, 2.0), (2.0, 2.0))
        assert p == 0.5

    def test_zero_variance_different_means(self):
        assert one_sided_t((1.0, 1.0), (2.0, 2.0)) == 0.0
        assert one_sided_t((3.0, 3.0), (2.0, 2.0)) == 1.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            one_sided_t((1.0,), (2.0, 3.0))

    def test_nearly_identical_samples_need_no_warning(self):
        # Why welch_statistic is kept rather than replaced by scipy's
        # ttest_ind(equal_var=False, alternative="less"): on this pair scipy
        # 1.17 warns of catastrophic cancellation in its moment calculation,
        # and this suite turns warnings into errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = one_sided_t((1.0, 1.0 + 1e-15), (1.0, 1.0))
        assert 0.0 < p < 1.0

    @settings(max_examples=50)
    @given(
        x=st.lists(st.floats(-10, 10), min_size=2, max_size=8),
        y=st.lists(st.floats(-10, 10), min_size=2, max_size=8),
    )
    def test_antisymmetry(self, x, y):
        x, y = tuple(x), tuple(y)
        _, df = welch_statistic(x, y)
        if math.isnan(df):
            return
        assert abs(one_sided_t(x, y) + one_sided_t(y, x) - 1.0) < 1e-9


class TestHochberg:
    def test_single_small_p_rejected(self):
        assert hochberg([0.01], 0.05) == {0}

    def test_all_equal_p_rejected_together(self):
        assert hochberg([0.04, 0.04, 0.04], 0.05) == {0, 1, 2}

    def test_worked_all_retained_case(self):
        # p_(3)=0.9 > 0.05; p_(2)=0.04 > 0.025; p_(1)=0.03 > 0.0167
        assert hochberg([0.03, 0.04, 0.9], 0.05) == set()

    def test_step_up_can_rescue_smaller_ps(self):
        # p_(2)=0.04 <= 0.05/1 rejects both
        assert hochberg([0.04, 0.012], 0.05) == {0, 1}

    def test_empty_list(self):
        assert hochberg([], 0.05) == set()

    def test_alpha_one_like_rejects_all(self):
        assert hochberg([0.1, 0.5, 0.98], 0.999) == {0, 1, 2}

    def test_all_p_one_rejects_none(self):
        assert hochberg([1.0, 1.0], 0.05) == set()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hochberg([0.5], alpha=0.0)
        with pytest.raises(ValueError):
            hochberg([1.5], alpha=0.05)

    @settings(max_examples=200)
    @given(
        pvals=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        which=st.integers(0, 7),
        factor=st.floats(0.0, 1.0),
    )
    def test_monotone_in_pvalues(self, pvals, which, factor):
        which %= len(pvals)
        lowered = list(pvals)
        lowered[which] = pvals[which] * factor
        before = hochberg(pvals, 0.05)
        after = hochberg(lowered, 0.05)
        assert before <= after


class TestParityTable:
    def test_identical_sets_share_parity(self):
        report = parity_table({"task": {"s1": [1.0, 2.0, 3.0], "s2": [1.0, 2.0, 3.0]}})
        cmp = report["tasks"]["task"]
        assert cmp["parity"] == ["s1", "s2"]
        assert cmp["best"] in cmp["parity"]

    def test_dominating_schedule_is_singleton(self):
        rng = np.random.default_rng(3)
        samples = {
            "big": rng.normal(100.0, 0.01, 5).tolist(),
            "low1": rng.normal(1.0, 0.01, 5).tolist(),
            "low2": rng.normal(2.0, 0.01, 5).tolist(),
        }
        report = parity_table({"task": samples})
        assert report["tasks"]["task"]["parity"] == ["big"]
        assert report["tasks"]["task"]["rejected"] == ["low1", "low2"]

    def test_matches_independent_protocol(self):
        # desk-generated spreads around the headline means; the expected
        # parity pattern is recomputed here with scipy + a literal step-up
        rng = np.random.default_rng(11)
        means = {"lin": 84.29, "con3": 84.12, "con15": 83.83}
        values = {k: rng.normal(m, 0.08, 5).tolist() for k, m in means.items()}
        report = parity_table({"avg": values}, alpha=0.05)

        best = max(values, key=lambda k: np.mean(values[k]))
        others = sorted(k for k in values if k != best)
        pv = [
            scipy_stats.ttest_ind(
                values[k], values[best], equal_var=False, alternative="less"
            ).pvalue
            for k in others
        ]
        order = sorted(range(len(pv)), key=lambda i: pv[i])
        k_best = 0
        m = len(pv)
        for k in range(1, m + 1):
            if pv[order[k - 1]] <= 0.05 / (m - k + 1):
                k_best = k
        expected_rejected = {others[order[i]] for i in range(k_best)}
        expected_parity = sorted({best} | (set(others) - expected_rejected))
        assert report["tasks"]["avg"]["parity"] == expected_parity
        assert report["tasks"]["avg"]["rejected"] == sorted(expected_rejected)

    def test_invariant_to_input_order(self):
        rng = np.random.default_rng(5)
        samples = {f"s{i}": rng.normal(80 + i * 0.1, 0.2, 5).tolist() for i in range(4)}
        r1 = parity_table({"t": samples})
        r2 = parity_table({"t": dict(reversed(samples.items()))})
        assert r1 == r2

    def test_text_table_marks_parity(self):
        samples = {"t": {"good": [5.0, 5.1, 5.2], "bad": [1.0, 1.1, 1.2]}}
        text = format_parity_text(parity_table(samples))
        assert "*" in text
        row = [l for l in text.splitlines() if l.startswith("t ")][0]
        assert "*5.1000" in row
        assert "*1.1000" not in row

    def test_integer_samples_match_float_samples(self):
        as_ints = parity_table({"taskA": {"s1": [1, 2], "s2": [2, 3]}})
        as_floats = parity_table({"taskA": {"s1": [1.0, 2.0], "s2": [2.0, 3.0]}})
        assert as_ints == as_floats

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([1, 2], "JSON object"),
            ({"glue": [1, 2, 3]}, "JSON object"),
            ({"glue": {"a": [1.0, 2.0]}}, "at least 2 schedules"),
            ({"glue": {"a": 5, "b": [1, 2]}}, "'a'"),
            ({"glue": {"a": ["x", "y"], "b": [1, 2]}}, "'a'"),
            ({"glue": {"a": [1.0], "b": [1, 2]}}, "'a'"),
            ({"glue": {"a": [1.0, math.nan], "b": [1, 2]}}, "'a'"),
            ({"glue": {"a": [True, 1.0], "b": [1, 2]}}, "'a'"),
            ({}, "non-empty JSON object"),
        ],
    )
    def test_malformed_samples_raise(self, samples, message):
        with pytest.raises(ValueError, match=message):
            parity_table(samples)
