import dataclasses
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from masksched.cli import (
    _EVAL_KEYS,
    _JSON_TYPES,
    _MODEL_KEYS,
    _TRAIN_KEYS,
    RunConfig,
    _field_names,
    main,
)
from masksched.corruption import CorruptionConfig
from masksched.data import synthetic_zipf_corpus
from masksched.evaluate import EvalConfig
from masksched.model import ModelConfig
from masksched.trainer import TrainConfig

from fit_series import OVERFLOW_STEPS, OVERFLOW_VALUES


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
            ("eval_every", -4),
            ("checkpoint_every", -4),
            # wrong JSON types
            ("batch_size", "8"),
            ("warmup_fraction", "0.1"),
            ("total_steps", 4.0),
            ("eval_every", 1.5),
            ("min_masked", 0.5),
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

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        assert main(["train", write_config(tmp_path, 5)]) == 2
        assert "run config must be a JSON object, got 5" in capsys.readouterr().err

    def test_null_optional_and_int_float_values_accepted(self, corpus_path, tmp_path):
        doc = run_config(corpus_path, str(tmp_path / "run"), grad_clip=None, peak_lr=1)
        doc["eval"]["masking_rate"] = 0
        assert main(["train", write_config(tmp_path, doc)]) == 0

    def test_every_run_config_key_has_a_json_type(self):
        for section, classes in (
            (_field_names(RunConfig), [RunConfig]),
            (_MODEL_KEYS, [ModelConfig]),
            (_TRAIN_KEYS, [TrainConfig, CorruptionConfig]),
            (_EVAL_KEYS, [EvalConfig]),
        ):
            types = {f.name: f.type for cls in classes for f in dataclasses.fields(cls)}
            for key in section:
                assert types[key].partition(" | ")[0] in _JSON_TYPES, key

    def test_negative_stop_after_exits_2(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, run_config(corpus_path, str(out)))
        assert main(["train", cfg, "--stop-after", "-5"]) == 2
        assert "stop_after must be >= 0" in capsys.readouterr().err
        assert not (out / "checkpoints").exists()

    def test_existing_dir_refused_without_force(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, run_config(corpus_path, str(out)))
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["train", cfg]) == 2
        assert "force" in capsys.readouterr().err
        assert main(["train", cfg, "--force"]) == 0

    def test_config_round_trip(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        doc = run_config(corpus_path, str(out))
        cfg = write_config(tmp_path, doc)
        assert main(["train", cfg]) == 0
        written = json.loads((out / "config.json").read_text())
        from masksched.cli import parse_run_config

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


class TestCompareCommand:
    def test_report_and_table(self, tmp_path, capsys):
        samples = {
            "glue": {
                "linear-0.3-0.15": [84.2, 84.3, 84.35],
                "constant-0.3": [84.1, 84.15, 84.12],
                "constant-0.15": [83.8, 83.85, 83.8],
            }
        }
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(samples), encoding="utf-8")
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

    def test_overflowing_fit_exits_0(self, tmp_path, capsys):
        rows = ["step,value"] + [f"{s!r},{v!r}" for s, v in zip(OVERFLOW_STEPS, OVERFLOW_VALUES)]
        path = tmp_path / "plateau.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["speedup", str(path), "--baseline", "plateau"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert math.isfinite(report["series"]["plateau"]["fit"]["rss"])

    def test_unknown_baseline_exits_2(self, tmp_path, capsys):
        path = self.write_series(tmp_path)
        assert main(["speedup", path, "--baseline", "nope"]) == 2

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
