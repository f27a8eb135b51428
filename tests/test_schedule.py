import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masksched.schedule import (
    ScheduleError,
    ScheduleSpec,
    masking_rate,
    parse_schedule,
    schedule_name,
    step_halfway,
)

T = 70_000


def linear(pi, pf, total):
    return ScheduleSpec("linear", pi, pf, total)


def cosine(pi, pf, total):
    return ScheduleSpec("cosine", pi, pf, total)


class TestClosedForms:
    def test_linear_endpoints(self):
        spec = linear(0.3, 0.15, T)
        assert masking_rate(spec, 0) == 0.3
        assert masking_rate(spec, T) == 0.15

    def test_linear_midpoint(self):
        assert masking_rate(linear(0.3, 0.15, T), T / 2) == pytest.approx(0.225, abs=1e-15)

    def test_cosine_endpoints_and_midpoint(self):
        spec = cosine(0.3, 0.15, T)
        assert abs(masking_rate(spec, 0) - 0.3) < 1e-15
        assert abs(masking_rate(spec, T / 2) - 0.225) < 1e-15
        assert abs(masking_rate(spec, T) - 0.15) < 1e-15

    def test_step_halfway_decays_once(self):
        spec = step_halfway(0.3, 0.15, T)
        assert masking_rate(spec, T // 2 - 1) == 0.3
        assert masking_rate(spec, T // 2) == 0.15
        assert masking_rate(spec, T) == 0.15

    def test_constant(self):
        spec = ScheduleSpec("constant", 0.15, 0.15, T)
        assert masking_rate(spec, 12345) == 0.15

    def test_step_general_form_applies_each_decay(self):
        spec = ScheduleSpec(
            "step", 0.4, 0.4 * 0.5**3, 100, decay_steps=(10, 50, 90), decay_factor=0.5
        )
        assert masking_rate(spec, 9) == 0.4
        assert masking_rate(spec, 10) == 0.2
        assert masking_rate(spec, 50) == 0.1
        assert masking_rate(spec, 99) == 0.05

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ScheduleError, match="out of range"):
            masking_rate(linear(0.3, 0.15, T), T + 1)
        with pytest.raises(ScheduleError, match="out of range"):
            masking_rate(linear(0.3, 0.15, T), -1)


class TestValidate:
    """A spec checks its invariants when it is built."""

    def test_valid_constant(self):
        assert ScheduleSpec("constant", 0.15, 0.15, T).final_rate == 0.15

    def test_constant_with_unequal_rates(self):
        with pytest.raises(ScheduleError, match="initial_rate == final_rate"):
            ScheduleSpec("constant", 0.15, 0.3, T)

    def test_rate_out_of_unit_interval(self):
        with pytest.raises(ScheduleError, match=r"initial_rate out of \[0,1\]: 1.2"):
            linear(1.2, 0.15, T)

    def test_invalid_spec_rejected_on_evaluation(self):
        # the spec cannot be built, so it never reaches masking_rate
        with pytest.raises(ScheduleError):
            masking_rate(ScheduleSpec("constant", 0.15, 0.3, T), 0)

    def test_every_problem_listed(self):
        with pytest.raises(ScheduleError) as info:
            ScheduleSpec("linear", 1.5, -0.1, 0)
        assert str(info.value) == (
            "total_steps must be >= 1; initial_rate out of [0,1]: 1.5; "
            "final_rate out of [0,1]: -0.1"
        )


class TestNames:
    def test_paper_style_names(self):
        assert schedule_name(linear(0.3, 0.15, T)) == "linear-0.3-0.15"
        assert schedule_name(ScheduleSpec("constant", 0.4, 0.4, T)) == "constant-0.4"
        assert schedule_name(cosine(0.3, 0.15, T)) == "cosine-0.3-0.15"
        assert schedule_name(step_halfway(0.3, 0.15, T)) == "step-0.3-0.15"

    def test_round_trip(self):
        for name in ("linear-0.3-0.15", "cosine-0.3-0.15", "constant-0.15", "step-0.3-0.15"):
            assert schedule_name(parse_schedule(name, T)) == name

    def test_parse_recovers_spec(self):
        for spec in (linear(0.3, 0.15, T), cosine(0.15, 0.3, T), step_halfway(0.3, 0.15, T)):
            assert parse_schedule(schedule_name(spec), T) == spec

    def test_malformed_strings_rejected(self):
        for bad in ("linear-0.3", "warp-0.1-0.2", "linear-a-b", "constant-0.1-0.2"):
            with pytest.raises(ScheduleError):
                parse_schedule(bad, T)


rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestProperties:
    @settings(max_examples=50)
    @given(pi=rates, pf=rates, kind=st.sampled_from(["linear", "cosine"]))
    def test_monotone_between_endpoints(self, pi, pf, kind):
        spec = ScheduleSpec(kind, pi, pf, 1000)
        values = [masking_rate(spec, t) for t in range(0, 1001, 10)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        if pf >= pi:
            assert all(d >= -1e-15 for d in diffs)
        else:
            assert all(d <= 1e-15 for d in diffs)

    @settings(max_examples=50)
    @given(pi=rates, pf=rates)
    def test_linear_cosine_agree_at_three_points(self, pi, pf):
        lin = ScheduleSpec("linear", pi, pf, 1000)
        cos = ScheduleSpec("cosine", pi, pf, 1000)
        for t in (0, 500, 1000):
            assert abs(masking_rate(lin, t) - masking_rate(cos, t)) < 1e-15

    def test_step_is_piecewise_constant_with_expected_jumps(self):
        spec = ScheduleSpec(
            "step", 0.4, 0.4 * 0.25, 200, decay_steps=(40, 120), decay_factor=0.5
        )
        values = [masking_rate(spec, t) for t in range(201)]
        jumps = [t for t in range(1, 201) if values[t] != values[t - 1]]
        assert jumps == [40, 120]

    def test_pure_function(self):
        spec = linear(0.3, 0.15, T)
        assert masking_rate(spec, 777) == masking_rate(spec, 777)
        assert math.isclose(
            masking_rate(spec, 777), 0.3 + (777 / T) * (0.15 - 0.3), rel_tol=0, abs_tol=0
        )
