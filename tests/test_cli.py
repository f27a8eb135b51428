import ctypes
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from masksched import data
from masksched.cli import (
    _JSON_TYPES,
    _SECTIONS,
    RunConfig,
    _fields,
    build_configs,
    main,
    parse_run_config,
)
from masksched.data import synthetic_zipf_corpus
from masksched.trainer import train

from fit_series import OVERFLOW_STEPS, OVERFLOW_VALUES
from pinned_reports import COMPARE_STDOUT, GRADCHECK_STDOUT, SPEEDUP_STDOUT, SPEEDUP_SVG_SHA256


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.txt"
    lines = synthetic_zipf_corpus(60, n_word_types=25, seed=3, min_len=4, max_len=8)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_config(corpus, out_dir, **train_overrides):
    train = {
        "total_steps": 8,
        "batch_size": 4,
        "schedule": "constant-0.15",
        "seed": 3,
        "eval_every": 4,
        "checkpoint_every": 4,
    }
    train.update(train_overrides)
    return {
        "corpus": corpus,
        "vocab_size": 30,
        "model": {"n_layers": 1, "n_heads": 2, "d_model": 8, "d_ff": 16, "max_seq_len": 10},
        "train": train,
        "eval": {"masking_rate": 0.15, "seed": 5, "n_batches": 2},
        "out_dir": out_dir,
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestTrainCommand:
    def test_happy_path_populates_run_dir(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, run_config(corpus_path, str(out)))
        assert main(["train", cfg]) == 0
        assert (out / "config.json").exists()
        assert (out / "vocab.txt").exists()
        assert (out / "metrics.jsonl").exists()
        assert (out / "checkpoints" / "step-8.ckpt").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 8

    def test_malformed_schedule_exits_2(self, corpus_path, tmp_path, capsys):
        doc = run_config(corpus_path, str(tmp_path / "run"), schedule="linear-0.3")
        cfg = write_config(tmp_path, doc)
        assert main(["train", cfg]) == 2
        assert "schedule" in capsys.readouterr().err

    def test_unknown_key_rejected(self, corpus_path, tmp_path, capsys):
        doc = run_config(corpus_path, str(tmp_path / "run"))
        doc["model"]["dropout"] = 0.1
        cfg = write_config(tmp_path, doc)
        assert main(["train", cfg]) == 2
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("grad_clip", -1.0),
            ("peak_lr", -1e-3),
            ("eval_every", -4),
            ("checkpoint_every", -4),
            # wrong JSON types
            ("batch_size", "8"),
            ("warmup_fraction", "0.1"),
            ("total_steps", 4.0),
            ("eval_every", 1.5),
            ("min_masked", 0.5),
            ("min_masked", 3),
            ("seed", True),
            ("schedule", 0.15),
        ],
    )
    def test_out_of_range_train_value_exits_2(self, corpus_path, tmp_path, capsys, key, value):
        doc = run_config(corpus_path, str(tmp_path / "run"), **{key: value})
        assert main(["train", write_config(tmp_path, doc)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("model", "n_layers", 2.5, "model section: n_layers must be int, got 2.5"),
            ("eval", "n_batches", 2.0, "eval section: n_batches must be int, got 2.0"),
            (None, "out_dir", 5, "run config: out_dir must be str, got 5"),
            (None, "model", [], "run config: model must be dict, got []"),
        ],
    )
    def test_wrong_type_value_outside_train_exits_2(
        self, corpus_path, tmp_path, capsys, section, key, value, message
    ):
        doc = run_config(corpus_path, str(tmp_path / "run"))
        (doc if section is None else doc[section])[key] = value
        assert main(["train", write_config(tmp_path, doc)]) == 2
        assert message in capsys.readouterr().err

    def test_config_error_names_its_own_section(self, corpus_path, tmp_path, capsys):
        doc = run_config(corpus_path, str(tmp_path / "run"))
        doc["eval"]["masking_rate"] = 1.5
        assert main(["train", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "masking_rate" in err and "train section" not in err

    def test_duplicate_key_exits_2(self, corpus_path, tmp_path, capsys):
        text = json.dumps(run_config(corpus_path, str(tmp_path / "run")))
        text = text.replace('"seed": 3', '"seed": 1, "seed": 3')
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        assert main(["train", str(path)]) == 2
        assert "duplicate key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        assert main(["train", write_config(tmp_path, 5)]) == 2
        assert "run config must be a JSON object, got 5" in capsys.readouterr().err

    def test_null_optional_and_int_float_values_accepted(self, corpus_path, tmp_path):
        doc = run_config(corpus_path, str(tmp_path / "run"), grad_clip=None, peak_lr=1)
        doc["eval"]["masking_rate"] = 0
        assert main(["train", write_config(tmp_path, doc)]) == 0

    def test_every_run_config_key_has_a_json_type(self):
        for classes, drop in [((RunConfig,), ()), *_SECTIONS.values()]:
            for key, f in _fields(*classes, drop=drop).items():
                assert f.type.partition(" | ")[0] in _JSON_TYPES, key

    def test_configs_checked_before_the_corpus_is_read(self, tmp_path, capsys):
        doc = run_config(str(tmp_path / "missing.txt"), str(tmp_path / "run"))
        doc["model"]["n_layers"] = 0
        assert main(["train", write_config(tmp_path, doc)]) == 2
        assert "n_layers" in capsys.readouterr().err

    def test_negative_stop_after_exits_2(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, run_config(corpus_path, str(out)))
        assert main(["train", cfg, "--stop-after", "-5"]) == 2
        assert "stop_after must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        # nothing was written, so the corrected command needs no --force
        assert main(["train", cfg]) == 0

    def test_existing_dir_refused_without_force(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, run_config(corpus_path, str(out)))
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["train", cfg]) == 2
        assert "force" in capsys.readouterr().err
        assert main(["train", cfg, "--force"]) == 0

    def test_force_replaces_the_earlier_runs_checkpoints(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        doc = run_config(corpus_path, str(out), total_steps=6, checkpoint_every=3)
        assert main(["train", write_config(tmp_path, doc)]) == 0
        doc = run_config(corpus_path, str(out), total_steps=4, checkpoint_every=2)
        assert main(["train", write_config(tmp_path, doc), "--force"]) == 0
        assert sorted(os.listdir(out / "checkpoints")) == ["step-2.ckpt", "step-4.ckpt"]

    def test_vocab_size_below_six_exits_2_before_the_corpus_is_read(self, tmp_path, capsys):
        doc = run_config(str(tmp_path / "missing.txt"), str(tmp_path / "run"))
        doc["vocab_size"] = 5
        assert main(["train", write_config(tmp_path, doc)]) == 2
        assert "vocab_size must exceed the special-token count" in capsys.readouterr().err

    def split_run(self, corpus_path, tmp_path, resume_corpus):
        """Train 2 of 8 steps on ``corpus_path``, then resume from step 2
        with a config that names ``resume_corpus``; returns the exit code."""
        out = tmp_path / "run"
        cfg = write_config(tmp_path, run_config(corpus_path, str(out)))
        assert main(["train", cfg, "--stop-after", "2"]) == 0
        resume = write_config(tmp_path, run_config(resume_corpus, str(out)), "resume.json")
        return main(["train", resume, "--resume", str(out / "checkpoints" / "step-2.ckpt")])

    def test_resume_on_the_same_corpus_finishes_the_run(self, corpus_path, tmp_path, capsys):
        assert self.split_run(corpus_path, tmp_path, corpus_path) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["steps"] == 8

    def test_resume_on_a_corpus_with_another_vocabulary_exits_2(
        self, corpus_path, tmp_path, capsys
    ):
        # the same word counts under other names: same vocab size, other tokens
        other = tmp_path / "other.txt"
        other.write_text(Path(corpus_path).read_text(encoding="utf-8").replace("w", "x"))
        assert self.split_run(corpus_path, tmp_path, str(other)) == 2
        assert "differs from" in capsys.readouterr().err
        out = tmp_path / "run"
        assert "x000" not in (out / "vocab.txt").read_text(encoding="utf-8")
        assert json.loads((out / "config.json").read_text())["corpus"] == corpus_path

    def test_config_round_trip(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        doc = run_config(corpus_path, str(out))
        cfg = write_config(tmp_path, doc)
        assert main(["train", cfg]) == 0
        written = json.loads((out / "config.json").read_text())
        assert parse_run_config(written) == parse_run_config(doc)


@pytest.fixture(scope="module")
def trained(corpus_path, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("evalrun")
    out = tmp / "run"
    cfg = write_config(tmp, run_config(corpus_path, str(out)))
    assert main(["train", cfg]) == 0
    return str(out / "checkpoints" / "step-8.ckpt")


class TestEvalCommand:

    def test_mlm_loss_json(self, trained, corpus_path, capsys):
        assert (
            main(
                ["eval", "--checkpoint", trained, "--corpus", corpus_path, "--rate", "0.15", "--seed", "1"]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert "mean_loss" in report
        assert report["rate"] == 0.15

    def test_pairs_mode(self, trained, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "pair_id\tsuper_task\tsentence_good\tsentence_bad\n"
            "1\ta\tw000 w001\tw000 w024\n"
            "2\tb\tw001\tw024\n",
            encoding="utf-8",
        )
        assert main(["eval", "--checkpoint", trained, "--pairs", str(pairs)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["super_tasks"]) == {"a", "b"}
        assert report["n_pairs"] == 2

    def test_library_run_dir_evaluates_without_vocab(self, corpus_path, tmp_path, capsys):
        run = tmp_path / "run"
        model_cfg, train_cfg = build_configs(parse_run_config(run_config(corpus_path, str(run))))
        lines = data.load_corpus(corpus_path)
        vocab = data.build_vocab(lines, model_cfg.vocab_size)
        model_cfg = dataclasses.replace(model_cfg, vocab_size=vocab.size)
        dataset = data.encode_corpus(vocab, lines, model_cfg.max_seq_len)
        train(model_cfg, train_cfg, dataset, vocab, out_dir=str(run))
        assert data.load_vocab(str(run / "vocab.txt")) == vocab
        ckpt = str(run / "checkpoints" / "step-4.ckpt")
        assert main(["eval", "--checkpoint", ckpt, "--corpus", corpus_path]) == 0
        assert json.loads(capsys.readouterr().out)["step"] == 4

    @pytest.mark.parametrize("task", [[], ["--corpus", "c.txt", "--pairs", "p.tsv"]])
    def test_not_exactly_one_of_corpus_and_pairs_exits_2(self, trained, task, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--checkpoint", trained, *task])
        assert info.value.code == 2
        assert "--corpus" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["3\tb\tw001", "3\tb\tw001\t"])
    def test_short_pairs_row_exits_2(self, trained, tmp_path, capsys, row):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "pair_id\tsuper_task\tsentence_good\tsentence_bad\n"
            f"1\ta\tw000 w001\tw000 w024\n{row}\n",
            encoding="utf-8",
        )
        assert main(["eval", "--checkpoint", trained, "--pairs", str(pairs)]) == 2
        assert f"{pairs}, line 3: missing or empty ['sentence_bad']" in capsys.readouterr().err

    def test_pairs_row_with_an_extra_cell_exits_2(self, trained, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "pair_id\tsuper_task\tsentence_good\tsentence_bad\n"
            "1\ta\tw000 w001\tw000 w024\n2\tb\tw001\tw024\textra\n",
            encoding="utf-8",
        )
        assert main(["eval", "--checkpoint", trained, "--pairs", str(pairs)]) == 2
        assert f"{pairs}, line 3: more cells than the 4 header columns" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_bad_batch_size_exits_2(self, trained, corpus_path, capsys, size):
        code = main(
            ["eval", "--checkpoint", trained, "--corpus", corpus_path, "--batch-size", size]
        )
        assert code == 2
        assert "batch_size must be >= 1" in capsys.readouterr().err

    def test_bad_rate_exits_2(self, trained, corpus_path, capsys):
        code = main(
            ["eval", "--checkpoint", trained, "--corpus", corpus_path, "--rate", "1.5"]
        )
        assert code == 2
        assert "rate" in capsys.readouterr().err


COMPARE_SAMPLES = {
    "glue": {
        "linear-0.3-0.15": [84.2, 84.3, 84.35],
        "constant-0.3": [84.1, 84.15, 84.12],
        "constant-0.15": [83.8, 83.85, 83.8],
    }
}


class TestCompareCommand:
    def test_report_and_table(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(COMPARE_SAMPLES), encoding="utf-8")
        assert main(["compare", str(path), "--alpha", "0.05"]) == 0
        out = capsys.readouterr().out
        json_part = out.split("\n\n")[0]
        report = json.loads(json_part)
        assert report["tasks"]["glue"]["best"] == "linear-0.3-0.15"
        assert "*" in out

    def test_single_schedule_exits_2(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"glue": {"only": [1.0, 2.0]}}), encoding="utf-8")
        assert main(["compare", str(path)]) == 2

    def test_stdout_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(COMPARE_SAMPLES), encoding="utf-8")
        assert main(["compare", str(path), "--alpha", "0.05"]) == 0
        assert capsys.readouterr().out == COMPARE_STDOUT

    @pytest.mark.parametrize(
        "samples",
        [
            '[1, 2]',
            '{"glue": [1, 2, 3]}',
            '{"glue": {"a": 5, "b": [1, 2]}}',
            '{"glue": {"a": ["x", "y"], "b": [1, 2]}}',
            '{"glue": {"a": [true, 1], "b": [1, 2]}}',
        ],
    )
    def test_malformed_samples_exit_2(self, tmp_path, capsys, samples):
        path = tmp_path / "samples.json"
        path.write_text(samples, encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_samples_without_tasks_exit_2(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        assert "non-empty JSON object" in capsys.readouterr().err

    def test_duplicate_schedule_exits_2(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text('{"glue": {"a": [1, 2], "b": [3, 4], "a": [5, 6]}}', encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        assert "duplicate key 'a'" in capsys.readouterr().err


class TestSpeedupCommand:
    def write_series(self, tmp_path):
        import numpy as np

        from masksched.analysis import speedup_model

        steps = np.arange(1, 9) * 10_000.0
        rows = ["step,value,schedule"]
        for name, params in (
            ("fast", (0.86, 0.4, 8e-5, 1.1)),
            ("base", (0.85, 0.4, 5e-5, 1.2)),
        ):
            for s in steps:
                rows.append(f"{s:g},{speedup_model(s, *params):.10f},{name}")
        path = tmp_path / "series.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(path)

    def test_fits_and_speedup(self, tmp_path, capsys):
        path = self.write_series(tmp_path)
        svg = tmp_path / "plot.svg"
        assert main(["speedup", path, "--baseline", "base", "--plot", str(svg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["series"]) == {"fast", "base"}
        assert report["series"]["fast"]["speedup"] > 1.0
        assert svg.exists()

    def test_stdout_and_plot_are_pinned(self, tmp_path, capsys):
        path = self.write_series(tmp_path)
        svg = tmp_path / "plot.svg"
        assert main(["speedup", path, "--baseline", "base", "--plot", str(svg)]) == 0
        assert capsys.readouterr().out == SPEEDUP_STDOUT
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == SPEEDUP_SVG_SHA256

    @pytest.mark.parametrize(
        "row, column", [("3,,s", "value"), ("3,0.3", "schedule"), (",0.3,s", "step")]
    )
    def test_short_row_exits_2(self, tmp_path, capsys, row, column):
        path = tmp_path / "short.csv"
        path.write_text(f"step,value,schedule\n1,0.1,s\n2,0.2,s\n{row}\n", encoding="utf-8")
        assert main(["speedup", str(path), "--baseline", "s"]) == 2
        assert f"{path}, line 4: missing or empty ['{column}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("3,0.3,s,extra", "more cells than the 3 header columns"),
            ("3,abc,s", "could not convert string to float: 'abc'"),
        ],
    )
    def test_bad_row_exits_2_naming_file_and_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"step,value,schedule\n1,0.1,s\n2,0.2,s\n{row}\n", encoding="utf-8")
        assert main(["speedup", str(path), "--baseline", "s"]) == 2
        assert f"{path}, line 4: {message}" in capsys.readouterr().err

    def test_overflowing_fit_exits_0(self, tmp_path, capsys):
        rows = ["step,value"] + [f"{s!r},{v!r}" for s, v in zip(OVERFLOW_STEPS, OVERFLOW_VALUES)]
        path = tmp_path / "plateau.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["speedup", str(path), "--baseline", "plateau"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert math.isfinite(report["series"]["plateau"]["fit"]["rss"])

    def test_crossover_at_step_0_prints_strict_json(self, tmp_path, capsys):
        from masksched.analysis import speedup_model

        steps = np.arange(1, 9) * 10_000.0
        base = ["step,value"] + [f"{s:g},{speedup_model(s, 0.71, 0.4, 5e-5, 1.2):.10f}" for s in steps]
        flat = ["step,value"] + [f"{s:g},0.9" for s in steps]
        (tmp_path / "base.csv").write_text("\n".join(base) + "\n", encoding="utf-8")
        (tmp_path / "flat.csv").write_text("\n".join(flat) + "\n", encoding="utf-8")
        paths = [str(tmp_path / "base.csv"), str(tmp_path / "flat.csv")]
        assert main(["speedup", *paths, "--baseline", "base"]) == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["baseline_best"] < 0.9
        assert report["series"]["flat"]["crossover_step"] == 0.0
        assert report["series"]["flat"]["speedup"] is None

    def test_unknown_baseline_exits_2(self, tmp_path, capsys):
        path = self.write_series(tmp_path)
        assert main(["speedup", path, "--baseline", "nope"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"step,value\n1,0.1\n2,0.2\n3,{bad}\n4,0.35\n5,0.4\n", encoding="utf-8")
        assert main(["speedup", str(path), "--baseline", "bad"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_short_series_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("step,value\n1,0.1\n2,0.2\n3,0.3\n", encoding="utf-8")
        assert main(["speedup", str(path), "--baseline", "short"]) == 2


class TestGradcheckCommand:
    def test_default_tiny_config_passes(self, capsys):
        assert main(["gradcheck", "--coords", "60"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["worst_rel_err"] < 1e-5

    def test_stdout_is_pinned(self, capsys):
        assert main(["gradcheck", "--coords", "60"]) == 0
        assert capsys.readouterr().out == GRADCHECK_STDOUT

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--coords", "-5", "n_coords must be >= 0"),
            ("--h", "0", "h and tol must be finite and > 0"),
            ("--h", "nan", "h and tol must be finite and > 0"),
            ("--tol", "0", "h and tol must be finite and > 0"),
        ],
    )
    def test_bad_input_exits_2(self, flag, value, message, capsys):
        assert main(["gradcheck", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestVocabCommand:
    def test_writes_vocab_file(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        assert main(["vocab", "--corpus", corpus_path, "--max-size", "20", "--out", str(out)]) == 0
        assert out.exists()
        report = json.loads(capsys.readouterr().out)
        assert report["size"] == 20


class TestTimingsFlag:
    def test_wall_ms_opt_in(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, run_config(corpus_path, str(out), total_steps=3))
        assert main(["train", cfg]) == 0
        plain = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert all("wall_ms" not in r for r in plain)
        assert main(["train", cfg, "--force", "--timings"]) == 0
        timed = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert all("wall_ms" in r and r["wall_ms"] >= 0 for r in timed)


class TestCrossProcessDeterminism:
    def test_separate_processes_produce_identical_runs(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, run_config(corpus_path, str(out), total_steps=6))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        snapshots = []
        for attempt in range(2):
            cmd = [sys.executable, "-m", "masksched.cli", "train", cfg]
            if attempt:
                cmd.append("--force")
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            files = {
                rel: (out / rel).read_bytes()
                for rel in ("metrics.jsonl", "vocab.txt", "checkpoints/step-6.ckpt")
            }
            snapshots.append((proc.stdout, files))
        assert snapshots[0] == snapshots[1]


def _has_openblas_thread_setter() -> bool:
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return False
    return hasattr(lib, "scipy_openblas_set_num_threads64_")


class TestBlasThreadCount:
    @pytest.mark.skipif(
        not _has_openblas_thread_setter(), reason="numpy's BLAS has no thread setter"
    )
    def test_medium_shape_train_bytes_do_not_depend_on_it(self, tmp_path):
        # At V = 2000 a threaded OpenBLAS splits the MLM head's backward
        # product d @ W.T by thread count, which changes every gradient
        # below the head unless the CLI pins BLAS to one thread.
        lines = synthetic_zipf_corpus(400, n_word_types=1995, seed=0, min_len=20, max_len=62)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        doc = run_config(str(corpus), str(out), total_steps=3, checkpoint_every=3, eval_every=0)
        doc["vocab_size"] = 2000
        doc["model"] = {"n_layers": 1, "n_heads": 4, "d_model": 128, "d_ff": 512, "max_seq_len": 64}
        doc["train"]["batch_size"] = 8
        cfg = write_config(tmp_path, doc)
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
            cmd = [sys.executable, "-m", "masksched.cli", "train", cfg, "--force"]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            runs.append(
                {rel: (out / rel).read_bytes() for rel in ("metrics.jsonl", "checkpoints/step-3.ckpt")}
            )
        assert runs[0] == runs[1]


class TestScheduleComparisonPipeline:
    def test_script_outputs_feed_compare_and_speedup(self, tmp_path, capsys):
        script = Path(__file__).parents[1] / "scripts" / "run_schedule_comparison.py"
        out = tmp_path / "cmp"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        cmd = [
            sys.executable, str(script), "--out", str(out),
            "--steps", "16", "--seeds", "0", "1", "--lines", "80", "--eval-every", "4",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

        assert main(["compare", str(out / "final_losses.json")]) == 0
        report = json.loads(capsys.readouterr().out.split("\n\n")[0])
        assert set(report["tasks"]["eval_loss"]["means"]) == {
            "constant-0.15", "constant-0.3", "linear-0.3-0.15"
        }

        svg = tmp_path / "speedup.svg"
        args = ["speedup", str(out / "eval_series.csv"), "--baseline", "constant-0.15"]
        assert main(args + ["--plot", str(svg)]) == 0
        speedup = json.loads(capsys.readouterr().out)
        assert speedup["baseline"] == "constant-0.15"
        assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"

        # each run dir is one `masksched eval` reads without --vocab
        ckpt = out / "linear-0.3-0.15" / "seed1" / "checkpoints" / "step-16.ckpt"
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("w000 w001 w002 w003\n", encoding="utf-8")
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 0
        assert json.loads(capsys.readouterr().out)["step"] == 16
