import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "scripts" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

SPEC = {
    "end_to_end": [
        {"name": "train_tokens_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
        {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.24},
    ]
}


class TestSummarize:
    def test_gain(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [b + 10 for b in base]
        result = bench_ab.summarize(base, change, "higher", 0.24)
        assert result["verdict"] == "gain"
        assert (result["change_wins"], result["base_wins"], result["ties"]) == (10, 0, 0)

    def test_regression(self):
        result = bench_ab.summarize([10.0] * 5, [12.0] * 5, "lower", 0.1)
        assert result["verdict"] == "regression"
        assert (result["change_wins"], result["base_wins"]) == (0, 5)

    def test_unresolved_when_spread_exceeds_bound(self):
        base = [60, 80, 100, 120, 140]
        result = bench_ab.summarize(base, base[::-1], "higher", 0.1)
        assert result["verdict"] == "unresolved"

    def test_within_bound(self):
        base = [100, 100.5, 99.5, 100, 100]
        change = [101, 100, 100, 100.5, 99]
        result = bench_ab.summarize(base, change, "lower", 0.24)
        assert result["verdict"] == "within bound"

    def test_equal_pairs_are_ties(self):
        result = bench_ab.summarize([1.0, 2.0, 3.0], [1.0, 2.0, 4.0], "higher", 0.24)
        assert (result["change_wins"], result["base_wins"], result["ties"]) == (1, 0, 2)


def _runs(change_correct):
    runs = []
    for pair, ok in enumerate(change_correct):
        side = {
            "correct": True,
            "metrics": {
                "train_tokens_per_s": {"value": 1000.0 + pair},
                "step_ms_p50": {"value": 10.0 - pair / 10},
            },
        }
        runs.append(
            {"pair": pair, "first": "base", "base": side, "change": dict(side, correct=ok)}
        )
    return runs


def test_fewer_than_ten_pairs_exit_2_before_any_git_work(monkeypatch, tmp_path):
    def no_git(*args):
        raise AssertionError("git called")

    monkeypatch.setattr(bench_ab, "_git", no_git)
    monkeypatch.setattr(bench_ab, "_unpack", no_git)
    argv = ["HEAD", "--workload", "toy-train", "--pairs", "6", "--out", str(tmp_path / "b.json")]
    with pytest.raises(SystemExit) as info:
        bench_ab.main(argv)
    assert info.value.code == 2
    assert not (tmp_path / "b.json").exists()


class TestSummarizeRuns:
    def test_correct_runs_keep_their_verdicts(self):
        report = bench_ab.summarize_runs(_runs([True] * 5), SPEC)
        assert report["correct"] == {"base": True, "change": True}
        assert {m["verdict"] for m in report["metrics"].values()} == {"within bound"}

    @pytest.mark.parametrize("failed_side", ["base", "change"])
    def test_one_incorrect_run_marks_every_verdict(self, failed_side):
        runs = _runs([True] * 5)
        runs[3][failed_side] = dict(runs[3][failed_side], correct=False)
        report = bench_ab.summarize_runs(runs, SPEC)
        assert not report["correct"][failed_side]
        assert set(report["metrics"]) == {"train_tokens_per_s", "step_ms_p50"}
        assert {m["verdict"] for m in report["metrics"].values()} == {"incorrect"}

    def test_each_run_records_both_sides_train_runs(self):
        runs = _runs([True] * 3)
        for r in runs:
            r["base"] = dict(r["base"], info={"train_runs": 2})
            r["change"] = dict(r["change"], info={"train_runs": 3})
        runs[1]["change"] = dict(runs[1]["change"], info={})
        report = bench_ab.summarize_runs(runs, SPEC)
        assert [r["train_runs"] for r in report["runs"]] == [
            {"base": 2, "change": 3},
            {"base": 2, "change": None},
            {"base": 2, "change": 3},
        ]
