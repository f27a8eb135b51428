"""The benchmark's own tests, at self-check sizes (a few seconds in all)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from masksched import data, trainer
from perfbench import pipeline, run
from perfbench.spans import Span, Tracer
from perfbench.workloads import (
    C06_FINAL_EVAL_LOSS,
    PINNED_EVAL_LOSS,
    WORKLOADS,
    corpus_lines,
    minimal_pairs,
    tiny,
)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reports_every_declared_metric(tmp_path, name, traced):
    metrics, tally, info, tracer = pipeline.run_workload(
        tiny(WORKLOADS[name]), 3, str(tmp_path), 0.0, traced
    )
    assert tally.failed == 0, tally.problems
    declared = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    assert (tracer is not None) == traced
    if traced:
        assert all(s.end >= s.start for s in tracer.spans)


def test_self_check_command(tmp_path, capsys):
    assert run.main(["--self-check", "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert (tmp_path / "score-seed0-trace1" / "spans.jsonl").is_file()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(run.ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "toy-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_c06_band_check():
    assert pipeline.check_c06_band(5.3, C06_FINAL_EVAL_LOSS) == []
    assert len(pipeline.check_c06_band(6.0, 1.06 * C06_FINAL_EVAL_LOSS)) == 1  # outside 5%
    assert len(pipeline.check_c06_band(4.5, C06_FINAL_EVAL_LOSS)) == 1  # dropped < 20%


def test_self_time_subtracts_direct_children():
    tr = Tracer("t")
    tr.spans = [
        Span(0, "outer", 0.0, 10.0, None, "t"),
        Span(1, "child", 1.0, 4.0, 0, "t"),
        Span(2, "child", 5.0, 6.0, 0, "t"),
        Span(3, "grandchild", 1.5, 2.0, 1, "t"),
    ]
    assert tr.self_times() == [6.0, 2.5, 1.0, 0.5]
    assert tr.summary()["child"]["calls"] == 2


def test_span_records_errors_and_nesting():
    tr = Tracer("t")
    with pytest.raises(ValueError):
        with tr.span("outer"):
            tr.call("inner", int, "not a number")
    assert [(s.name, s.parent, s.error) for s in tr.spans] == [
        ("outer", None, True),
        ("inner", 0, True),
    ]
    assert tr.summary()["inner"]["errors"] == 1


def test_minimal_pairs_are_seeded_adjacent_swaps_of_fixed_lengths():
    spec = WORKLOADS["score"]
    draws = {}
    for seed in (0, 1):
        lines = corpus_lines(tiny(spec), seed)
        pairs = minimal_pairs(tiny(spec), seed, lines)
        assert pairs == minimal_pairs(tiny(spec), seed, lines)
        for _, _, good, bad in pairs:
            g, b = good.split(), bad.split()
            diff = [j for j in range(len(g)) if g[j] != b[j]]
            assert good in lines and len(diff) == 2 and diff[1] == diff[0] + 1
            assert sorted(g) == sorted(b)
        draws[seed] = [len(good.split()) for _, _, good, _ in pairs]
    assert draws[0] == draws[1]


def test_masking_check_flags_changed_statistics():
    spec = tiny(WORKLOADS["medium-train"])
    lines = corpus_lines(spec, 0)
    vocab = data.build_vocab(lines, spec.vocab_size)
    dataset = data.encode_corpus(vocab, lines, spec.max_seq_len)
    tc = spec.train_config(0)
    records = trainer.train(spec.model_config(0, vocab.size), tc, dataset, vocab).metrics.records
    assert pipeline.check_masking(records, dataset, tc) == []
    more = [dataclasses.replace(r, masked=2 * r.masked, loss_positions=2 * r.masked) for r in records]
    assert len(pipeline.check_masking(more, dataset, tc)) == 1
    fewer_targets = [dataclasses.replace(r, loss_positions=r.loss_positions - 1) for r in records]
    assert len(pipeline.check_masking(fewer_targets, dataset, tc)) == 1


def test_pinned_eval_loss_check_fails_a_moved_loss(tmp_path, monkeypatch):
    spec = tiny(WORKLOADS["score"])
    monkeypatch.setitem(pipeline.PINNED_EVAL_LOSS, spec, PINNED_EVAL_LOSS[spec] * (1 + 1e-3))
    _, tally, _, _ = pipeline.run_workload(spec, 0, str(tmp_path), 0.0, False)
    assert tally.failed == 1 and "pinned" in tally.problems[0]
