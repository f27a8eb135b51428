import dataclasses
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from masksched import evaluate, model, trainer
from masksched.corruption import CorruptionConfig, round_half_up
from masksched.data import Vocab, build_vocab, encode_corpus, synthetic_zipf_corpus
from masksched.evaluate import EvalConfig, eval_mlm
from masksched.model import ModelConfig, init_params, tensor_arena
from masksched.schedule import parse_schedule
from masksched.trainer import (
    CHECKPOINT_FORMAT,
    OptState,
    TrainConfig,
    TrainingDiverged,
    adamw_step,
    batch_indices,
    clip_gradients,
    init_opt_state,
    load_training_checkpoint,
    lr_at,
    save_training_checkpoint,
    train,
)

from oracles import ref_adamw_step

MODEL = ModelConfig(
    n_layers=1, n_heads=2, d_model=16, d_ff=32, vocab_size=40, max_seq_len=12, init_seed=1
)
MEDIUM = ModelConfig(n_layers=4, n_heads=4, d_model=128, d_ff=512, vocab_size=2000, max_seq_len=64)


@pytest.fixture(scope="module")
def toy():
    lines = synthetic_zipf_corpus(120, n_word_types=35, seed=2, min_len=4, max_len=9)
    vocab = build_vocab(lines, max_size=40)
    dataset = encode_corpus(vocab, lines, MODEL.max_seq_len)
    return vocab, dataset


def config(total_steps=30, schedule="constant-0.15", **kw):
    defaults = dict(
        total_steps=total_steps,
        batch_size=8,
        schedule=parse_schedule(schedule, max(total_steps, 1)),
        seed=5,
        eval=EvalConfig(masking_rate=0.15, seed=11, n_batches=2),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def arena(**tensors):
    """The given arrays copied into one ``tensor_arena``, in keyword order."""
    _, views = tensor_arena({name: np.shape(t) for name, t in tensors.items()})
    for name, view in views.items():
        view[...] = tensors[name]
    return views


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("grad_clip", -1.0),
            ("grad_clip", 0.0),
            ("grad_clip", math.nan),
            ("grad_clip", math.inf),
            ("eval_every", -1),
            ("checkpoint_every", -1),
        ],
    )
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            config(**{field: value})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"peak_lr": -1e-3, "final_lr": -2e-3}, "peak_lr must be finite and > 0"),
            ({"peak_lr": math.nan}, "peak_lr must be finite and > 0"),
            ({"final_lr": -2e-3}, "final_lr must be finite and >= 0"),
            ({"beta1": -0.5}, r"beta1 must be in \[0, 1\)"),
            ({"beta2": 1.0}, r"beta2 must be in \[0, 1\)"),
            ({"eps": -1.0}, "eps must be > 0"),
            ({"weight_decay": -0.1}, "weight_decay must be >= 0"),
            # an infinite eps zeroes every AdamW update
            ({"eps": math.inf}, "eps must be > 0"),
            ({"weight_decay": math.inf}, "weight_decay must be >= 0"),
        ],
        ids=[
            "negative-peak-lr", "nan-peak-lr", "final-lr", "beta1", "beta2", "eps", "weight-decay",
            "inf-eps", "inf-weight-decay",
        ],
    )
    def test_bad_optimizer_value_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            config(**change)

    @pytest.mark.parametrize(
        "valid, change, message",
        [
            (MODEL, {"n_heads": 3}, "d_model must be divisible by n_heads"),
            (config().schedule, {"final_rate": 0.3}, "requires initial_rate == final_rate"),
            (CorruptionConfig(), {"objective": "bert"}, "unknown objective 'bert'"),
            (CorruptionConfig(), {"min_masked": 3}, "min_masked must be 0 or 1, got 3"),
            (EvalConfig(), {"n_batches": 0}, "n_batches must be >= 1"),
            (config(), {"total_steps": 7}, "schedule.total_steps must equal total_steps"),
        ],
        ids=["model", "schedule", "corruption", "min-masked", "eval", "train"],
    )
    def test_replace_checks_again(self, valid, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(valid, **change)


class TestLrSchedule:
    CFG = config(total_steps=1000)

    def test_starts_at_zero(self):
        assert lr_at(self.CFG, 0) == 0.0

    def test_peak_at_warmup_end(self):
        assert lr_at(self.CFG, 0.06 * 1000) == pytest.approx(5e-4, rel=1e-12)

    def test_final_value(self):
        assert lr_at(self.CFG, 1000) == pytest.approx(1e-5, rel=1e-12)

    def test_monotone_after_warmup(self):
        values = [lr_at(self.CFG, t) for t in range(60, 1001)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(self.CFG, 1001)


class TestAdamW:
    def test_zero_gradient_no_decay_is_identity(self):
        cfg = config(weight_decay=0.0)
        params = arena(w=[1.0, -2.0, 3.0])
        opt = init_opt_state(params)
        adamw_step(params, arena(w=np.zeros(3)), opt, lr=0.1, config=cfg)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_single_step_matches_hand_execution(self):
        cfg = config()
        params = arena(w=[1.0])
        opt = init_opt_state(params)
        adamw_step(params, arena(w=[1.0]), opt, lr=0.1, config=cfg)
        # independent hand-executed update: m-hat = v-hat = 1 at step 1
        m_hat = 1.0
        v_hat = 1.0
        expected = 1.0 - 0.1 * (m_hat / (math.sqrt(v_hat) + 1e-6) + 1e-5 * 1.0)
        assert abs(params["w"][0] - expected) < 1e-12

    def test_pure_decay_is_geometric(self):
        cfg = config(weight_decay=0.01)
        params = arena(w=[2.0, -4.0])
        opt = init_opt_state(params)
        lr = 0.5
        for step in range(3):
            adamw_step(params, arena(w=np.zeros(2)), opt, lr, cfg)
        np.testing.assert_allclose(
            params["w"], np.array([2.0, -4.0]) * (1 - lr * 0.01) ** 3, rtol=1e-12
        )

    def test_layernorm_parameters_skip_decay(self):
        cfg = config(weight_decay=0.5)
        params = arena(**{"ln1.scale": [1.0], "ln1.shift": [0.5]})
        opt = init_opt_state(params)
        adamw_step(params, arena(**{k: np.zeros(1) for k in params}), opt, 0.1, cfg)
        assert params["ln1.scale"][0] == 1.0
        assert params["ln1.shift"][0] == 0.5

    def test_nonfinite_gradient_diverges(self):
        cfg = config()
        params = arena(w=[1.0])
        opt = init_opt_state(params)
        with pytest.raises(TrainingDiverged):
            adamw_step(params, arena(w=[math.nan]), opt, 0.1, cfg)


class TestAdamWOracle:
    SMALL = ModelConfig(
        n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, init_seed=5
    )

    @staticmethod
    def random_grads(params, rng, in_arena=True):
        """Normal draws with exact 0.0 and -0.0 entries mixed in, as one
        ``tensor_arena`` (what ``model.backward`` returns) or separate arrays."""
        if in_arena:
            _, grads = tensor_arena({name: t.shape for name, t in params.items()})
        else:
            grads = {name: np.empty(t.shape) for name, t in params.items()}
        for g in grads.values():
            g[...] = rng.normal(0.0, 1.0, size=g.shape)
            pick = rng.random(g.shape)
            g[pick < 0.1] = 0.0
            g[pick > 0.9] = -0.0
        return grads

    @classmethod
    def five_steps_match_reference(cls, params, opt, in_arena=True):
        cfg = config(weight_decay=0.01)
        ref = {name: t.copy() for name, t in params.items()}
        ref_m = {name: np.zeros_like(t) for name, t in params.items()}
        ref_v = {name: np.zeros_like(t) for name, t in params.items()}
        rng = np.random.default_rng(3)
        for step in range(1, 6):
            grads = cls.random_grads(params, rng, in_arena)
            if not in_arena:
                grads = arena(**grads)
            lr = 0.01 * step
            adamw_step(params, grads, opt, lr, cfg)
            ref_adamw_step(ref, grads, ref_m, ref_v, step, lr, cfg)
        assert opt.step == 5
        n = opt.params.size
        for got, want in ((opt.params, ref), (opt.moments[:n], ref_m), (opt.moments[n:], ref_v)):
            flat = np.concatenate([want[name].ravel() for name in params])
            np.testing.assert_array_equal(got, flat)
            assert (np.signbit(got) == np.signbit(flat)).all()

    # 97 cuts blocks across tensors and decay-mask boundaries; in_arena=False
    # draws separate arrays and copies them into an arena, as a caller that
    # does not hold ``model.backward`` output must before ``adamw_step``
    @pytest.mark.parametrize("in_arena", [True, False])
    @pytest.mark.parametrize("block", [None, 97])
    def test_five_steps_match_per_tensor_reference_bitwise(self, block, in_arena, monkeypatch):
        if block is not None:
            monkeypatch.setattr(trainer, "_ADAMW_BLOCK", block)
        params = init_params(self.SMALL)
        opt = init_opt_state(params)
        assert len(opt._halves) == 1
        self.five_steps_match_reference(params, opt, in_arena)

    @pytest.fixture
    def split(self, monkeypatch):
        """AdamW on SMALL in two halves, the second on the worker."""
        monkeypatch.setattr(trainer, "_ADAMW_BLOCK", 97)
        monkeypatch.setattr(trainer, "_ADAMW_SPLIT", 1)
        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)

    def test_split_halves_match_per_tensor_reference_bitwise(self, split):
        params = init_params(self.SMALL)
        opt = init_opt_state(params)
        (lo0, hi0, *_), (lo1, hi1, *_) = opt._halves
        assert (lo0, hi0, hi1) == (0, lo1, opt.params.size) and lo1 % 97 == 0
        assert abs(lo1 - hi1 / 2) < 97
        self.five_steps_match_reference(params, opt)

    # a non-finite entry in both halves names the first half's tensor
    @pytest.mark.parametrize("names", [["tok_emb", "rts_head.b"], ["rts_head.b"]])
    def test_split_nonfinite_gradient_names_the_lowest_entry(self, names, split):
        params = init_params(self.SMALL)
        opt = init_opt_state(params)
        grads = self.random_grads(params, np.random.default_rng(4))
        for name in names:
            grads[name].flat[-1] = math.inf
        message = rf"^diverged at step 0: non-finite gradient in {names[0]}$"
        with pytest.raises(TrainingDiverged, match=message):
            adamw_step(params, grads, opt, 0.01, config())

    @pytest.mark.parametrize("name", ["tok_emb", "layer1.ff.w1", "rts_head.b"])
    def test_nonfinite_gradient_names_tensor_and_step(self, name, monkeypatch):
        monkeypatch.setattr(trainer, "_ADAMW_BLOCK", 97)
        cfg = config()
        params = init_params(self.SMALL)
        opt = init_opt_state(params)
        rng = np.random.default_rng(4)
        for _ in range(2):
            adamw_step(params, self.random_grads(params, rng), opt, 0.01, cfg)
        grads = self.random_grads(params, rng)
        grads[name].flat[-1] = math.nan
        message = rf"^diverged at step 2: non-finite gradient in {name}$"
        with pytest.raises(TrainingDiverged, match=message):
            adamw_step(params, grads, opt, 0.01, cfg)

    def test_params_not_viewing_the_state_are_rejected(self):
        params = init_params(self.SMALL)
        opt = init_opt_state(params)
        copied = {name: t.copy() for name, t in params.items()}
        with pytest.raises(ValueError, match="parameter buffer"):
            adamw_step(copied, copied, opt, 0.01, config())

    def test_state_of_non_arena_params_rejected(self):
        params = {name: t.copy() for name, t in init_params(self.SMALL).items()}
        with pytest.raises(ValueError, match="tensor_arena"):
            OptState(params)

    @pytest.mark.parametrize("layout", ["separate", "reordered"])
    def test_non_arena_grads_rejected(self, layout):
        params = init_params(self.SMALL)
        opt = init_opt_state(params)
        before = opt.params.copy()
        grads = self.random_grads(params, np.random.default_rng(5))
        if layout == "separate":
            grads = {name: g.copy() for name, g in grads.items()}
        else:
            grads = arena(**dict(reversed(grads.items())))
        with pytest.raises(ValueError, match="grads are not a tensor arena"):
            adamw_step(params, grads, opt, 0.01, config())
        assert opt.step == 0
        np.testing.assert_array_equal(opt.params, before)

    def test_step_allocates_no_whole_buffer_temporary(self):
        params = init_params(MEDIUM)
        opt = init_opt_state(params)
        buffer, grads = tensor_arena({name: t.shape for name, t in params.items()})
        buffer[:] = np.random.default_rng(0).normal(size=opt.params.size)
        cfg = config(weight_decay=0.01)
        adamw_step(params, grads, opt, 0.01, cfg)
        tracemalloc.start()
        try:
            adamw_step(params, grads, opt, 0.01, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a whole-buffer float64 temporary would be opt.params.nbytes (~10.5 MB)
        assert peak < opt.params.nbytes / 20, peak


class TestGradClip:
    @staticmethod
    def grads():
        rng = np.random.default_rng(7)
        return arena(w=rng.normal(size=(6, 5)), b=rng.normal(size=5), s=rng.normal(size=1))

    @staticmethod
    def norm(grads):
        return float(np.linalg.norm(np.concatenate([g.ravel() for g in grads.values()])))

    def test_returns_pre_clip_norm(self):
        grads = self.grads()
        before = self.norm(grads)
        assert clip_gradients(grads, before / 10) == pytest.approx(before, rel=1e-12, abs=0)

    def test_binding_cap_sets_global_norm_to_cap(self):
        grads = self.grads()
        cap = self.norm(grads) / 7
        clip_gradients(grads, cap)
        assert self.norm(grads) == pytest.approx(cap, rel=1e-12, abs=0)

    def test_gradients_under_cap_left_bit_identical(self):
        grads = self.grads()
        before = {name: g.copy() for name, g in grads.items()}
        clip_gradients(grads, self.norm(grads) * 1.5)
        for name, g in grads.items():
            assert g.tobytes() == before[name].tobytes()

    def test_binding_cap_run_reruns_byte_identical(self, toy, tmp_path, monkeypatch):
        vocab, dataset = toy
        cap = 1e-3
        seen = []

        def recording_clip(grads, max_norm):
            seen.append(clip_gradients(grads, max_norm))
            return seen[-1]

        monkeypatch.setattr(trainer, "clip_gradients", recording_clip)
        dirs = tmp_path / "r1", tmp_path / "r2", tmp_path / "unclipped"
        for d, clip in zip(dirs, (cap, cap, None)):
            train(MODEL, config(total_steps=10, grad_clip=clip), dataset, vocab, out_dir=str(d))
        assert len(seen) == 20 and min(seen) > cap  # the cap binds at every step
        for rel in ("metrics.jsonl", "checkpoints/step-10.ckpt"):
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()
        assert (dirs[0] / "metrics.jsonl").read_bytes() != (dirs[2] / "metrics.jsonl").read_bytes()


class TestBatchIndices:
    def test_epoch_covers_dataset(self):
        seen = []
        for step in range(5):  # 40 // 8 = 5 batches per epoch
            seen.extend(batch_indices(40, 8, seed=3, step=step).tolist())
        assert sorted(seen) == list(range(40))

    def test_next_epoch_reshuffles(self):
        first = [batch_indices(40, 8, 3, s).tolist() for s in range(5)]
        second = [batch_indices(40, 8, 3, s).tolist() for s in range(5, 10)]
        assert first != second
        assert sorted(sum(second, [])) == list(range(40))


class TestTrainLoop:
    def test_zero_steps_immediate_return(self, toy, tmp_path):
        vocab, dataset = toy
        result = train(MODEL, config(total_steps=0), dataset, vocab, out_dir=str(tmp_path))
        assert result.metrics.records == []
        init = init_params(MODEL)
        for name, tensor in init.items():
            np.testing.assert_array_equal(result.params[name], tensor)
        assert (tmp_path / "checkpoints" / "step-0.ckpt").exists()

    def test_negative_stop_after_rejected(self, toy, tmp_path):
        vocab, dataset = toy
        with pytest.raises(ValueError, match="stop_after must be >= 0"):
            train(MODEL, config(total_steps=8), dataset, vocab, out_dir=str(tmp_path), stop_after=-5)
        assert not (tmp_path / "checkpoints").exists()

    def test_deterministic_rerun(self, toy, tmp_path):
        vocab, dataset = toy
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        cfg = config(total_steps=12, eval_every=6, checkpoint_every=6)
        train(MODEL, cfg, dataset, vocab, out_dir=str(d1))
        train(MODEL, cfg, dataset, vocab, out_dir=str(d2))
        assert (d1 / "metrics.jsonl").read_bytes() == (d2 / "metrics.jsonl").read_bytes()
        assert (d1 / "checkpoints" / "step-12.ckpt").read_bytes() == (
            d2 / "checkpoints" / "step-12.ckpt"
        ).read_bytes()

    def test_rate_trace_matches_schedule_exactly(self, toy):
        vocab, dataset = toy
        cfg = config(total_steps=20, schedule="linear-0.3-0.15")
        result = train(MODEL, cfg, dataset, vocab)
        from masksched.schedule import masking_rate

        for record in result.metrics.records:
            assert record.rate == masking_rate(cfg.schedule, record.step)

    def test_loss_decreases_on_toy_run(self, toy):
        vocab, dataset = toy
        cfg = config(total_steps=150, eval_every=150)
        result = train(MODEL, cfg, dataset, vocab)
        first = result.metrics.records[0]
        last = result.metrics.records[-1]
        assert first.eval_loss is not None and last.eval_loss is not None
        assert last.eval_loss < first.eval_loss

    def test_resume_is_bit_identical(self, toy, tmp_path):
        vocab, dataset = toy
        cfg = config(total_steps=16, checkpoint_every=8, eval_every=8)
        full_dir = tmp_path / "full"
        split_dir = tmp_path / "split"
        train(MODEL, cfg, dataset, vocab, out_dir=str(full_dir))
        train(MODEL, cfg, dataset, vocab, out_dir=str(split_dir), stop_after=8)
        train(
            MODEL,
            cfg,
            dataset,
            vocab,
            out_dir=str(split_dir),
            resume_from=str(split_dir / "checkpoints" / "step-8.ckpt"),
        )
        assert (full_dir / "checkpoints" / "step-16.ckpt").read_bytes() == (
            split_dir / "checkpoints" / "step-16.ckpt"
        ).read_bytes()
        assert (full_dir / "metrics.jsonl").read_bytes() == (
            split_dir / "metrics.jsonl"
        ).read_bytes()

    def test_resume_from_older_checkpoint_rewrites_later_records(self, toy, tmp_path):
        vocab, dataset = toy
        cfg = config(total_steps=20, checkpoint_every=5, eval_every=5)
        full_dir = tmp_path / "full"
        rerun_dir = tmp_path / "rerun"
        torn_dir = tmp_path / "torn"
        train(MODEL, cfg, dataset, vocab, out_dir=str(full_dir))
        train(MODEL, cfg, dataset, vocab, out_dir=str(rerun_dir))
        train(MODEL, cfg, dataset, vocab, out_dir=str(torn_dir), stop_after=12)
        with open(torn_dir / "metrics.jsonl", "ab") as fh:
            fh.write(b'{"eval_loss":')  # a write cut off by a crash
        for run_dir in (rerun_dir, torn_dir):
            train(
                MODEL,
                cfg,
                dataset,
                vocab,
                out_dir=str(run_dir),
                resume_from=str(run_dir / "checkpoints" / "step-10.ckpt"),
            )
            assert (run_dir / "metrics.jsonl").read_bytes() == (
                full_dir / "metrics.jsonl"
            ).read_bytes()

    def test_resume_with_altered_config_rejected(self, toy, tmp_path):
        vocab, dataset = toy
        cfg = config(total_steps=8, checkpoint_every=4)
        train(MODEL, cfg, dataset, vocab, out_dir=str(tmp_path / "run"))
        ckpt = str(tmp_path / "run" / "checkpoints" / "step-4.ckpt")
        altered = config(total_steps=8, checkpoint_every=4, batch_size=4)
        with pytest.raises(ValueError, match="config mismatch"):
            train(MODEL, altered, dataset, vocab, resume_from=ckpt)

    def test_resume_with_another_vocabulary_rejected_before_any_write(self, toy, tmp_path):
        vocab, dataset = toy
        cfg = config(total_steps=4, checkpoint_every=2)
        run = tmp_path / "run"
        train(MODEL, cfg, dataset, vocab, out_dir=str(run))
        before = {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}
        assert {p.relative_to(run).as_posix() for p in before} == {
            "vocab.txt", "metrics.jsonl", "checkpoints/step-2.ckpt", "checkpoints/step-4.ckpt"
        }
        tokens = list(vocab.tokens)
        tokens[-2:] = tokens[-1], tokens[-2]  # the same size, two ids swapped
        with pytest.raises(ValueError, match="differs from"):
            train(
                MODEL,
                cfg,
                dataset,
                Vocab(tuple(tokens)),
                out_dir=str(run),
                resume_from=str(run / "checkpoints" / "step-2.ckpt"),
            )
        after = {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}
        assert after == before

    def test_resume_from_final_step_is_noop(self, toy, tmp_path):
        vocab, dataset = toy
        cfg = config(total_steps=6, checkpoint_every=6)
        result = train(MODEL, cfg, dataset, vocab, out_dir=str(tmp_path / "run"))
        ckpt = str(tmp_path / "run" / "checkpoints" / "step-6.ckpt")
        resumed = train(MODEL, cfg, dataset, vocab, resume_from=ckpt)
        assert resumed.metrics.records == []
        for name in result.params:
            np.testing.assert_array_equal(resumed.params[name], result.params[name])

    def test_subset_mode_counters(self, toy):
        vocab, dataset = toy
        cfg = config(
            total_steps=25,
            schedule="linear-0.3-0.15",
            corruption=CorruptionConfig(subset_loss_fraction=0.15),
        )
        result = train(MODEL, cfg, dataset, vocab)
        for record in result.metrics.records:
            assert record.loss_positions <= round_half_up(0.15 * record.maskable)
            assert record.masked <= record.maskable

    def test_rts_objective_runs(self, toy):
        vocab, dataset = toy
        cfg = config(
            total_steps=10,
            schedule="linear-0.3-0.15",
            corruption=CorruptionConfig(objective="rts"),
        )
        result = train(MODEL, cfg, dataset, vocab)
        assert all(math.isfinite(r.loss) for r in result.metrics.records)
        # every maskable position is labeled under RTS
        assert all(r.loss_positions == r.maskable for r in result.metrics.records)

    def test_metrics_jsonl_schema(self, toy, tmp_path):
        vocab, dataset = toy
        cfg = config(total_steps=4, eval_every=2)
        train(MODEL, cfg, dataset, vocab, out_dir=str(tmp_path))
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert set(record) <= {"step", "rate", "lr", "loss", "eval_loss"}
            assert record["step"] == i
        assert "eval_loss" in json.loads(lines[0])
        assert "eval_loss" in json.loads(lines[-1])

    def test_every_step_evaluates_once(self, toy, monkeypatch):
        vocab, dataset = toy
        calls = []

        def counting_eval(*args, **kwargs):
            calls.append(None)
            return eval_mlm(*args, **kwargs)

        monkeypatch.setattr(evaluate, "eval_mlm", counting_eval)
        result = train(MODEL, config(total_steps=4, eval_every=1), dataset, vocab)
        assert len(calls) == 4
        assert all(r.eval_loss is not None for r in result.metrics.records)

    def test_each_step_reuses_the_last_gradient_arena(self, toy, monkeypatch):
        vocab, dataset = toy
        outs, returned = [], []
        backward = model.backward

        def recording(*args, out=None):
            outs.append(out)
            result = backward(*args, out=out)
            returned.append(result[1])
            return result

        monkeypatch.setattr(model, "backward", recording)
        train(MODEL, config(total_steps=3), dataset, vocab)
        assert outs[0] is None
        assert outs[1] is returned[0] and outs[2] is returned[1] is returned[0]

    def test_toy_shape_run_starts_no_thread(self, monkeypatch):
        # the c06 shape (L2 d32 ff64 V200 S16 B16): every batch, the
        # evaluation's included, is one shard, and AdamW runs as one half
        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(model, "_worker", None)
        lines = synthetic_zipf_corpus(200, seed=0)
        vocab = build_vocab(lines, max_size=200)
        mc = ModelConfig(
            n_layers=2, n_heads=2, d_model=32, d_ff=64, vocab_size=vocab.size, max_seq_len=16
        )
        cfg = config(total_steps=3, batch_size=16, eval_every=1)
        train(mc, cfg, encode_corpus(vocab, lines, mc.max_seq_len), vocab)
        assert model._worker is None

    def test_no_masked_position_names_the_rate(self, toy):
        vocab, dataset = toy
        cfg = config(
            total_steps=4, schedule="constant-0.0", corruption=CorruptionConfig(min_masked=0)
        )
        # every row has maskable tokens, but rate 0 and no forced mask leave none masked
        message = r"^diverged at step 0: loss undefined: no position masked at rate 0\.0$"
        with pytest.raises(TrainingDiverged, match=message):
            train(MODEL, cfg, dataset, vocab)


class TestCheckpointContents:
    def test_checkpoint_holds_optimizer_state(self, toy, tmp_path):
        vocab, dataset = toy
        cfg = config(total_steps=4, checkpoint_every=2)
        full, split = tmp_path / "full", tmp_path / "split"
        result = train(MODEL, cfg, dataset, vocab, out_dir=str(full))
        assert result.step == 4
        header, params, opt = load_training_checkpoint(str(full / "checkpoints" / "step-2.ckpt"))
        assert header["step"] == opt.step == 2
        assert header["train"]["schedule_name"] == "constant-0.15"
        assert header["train"]["schedule"]["kind"] == "constant"
        _, final_params, _ = load_training_checkpoint(str(full / "checkpoints" / "step-4.ckpt"))
        for name in result.params:
            np.testing.assert_array_equal(final_params[name], result.params[name])
        # the moments are the run's: a run resumed from step 2 writes the
        # uninterrupted run's step-4 bytes (moments included), and one
        # resumed from zeroed moments ends elsewhere
        shutil.copytree(full, split)
        (split / "checkpoints" / "step-4.ckpt").unlink()
        resume = str(split / "checkpoints" / "step-2.ckpt")
        train(MODEL, cfg, dataset, vocab, out_dir=str(split), resume_from=resume)
        assert (split / "checkpoints" / "step-4.ckpt").read_bytes() == (
            full / "checkpoints" / "step-4.ckpt"
        ).read_bytes()
        assert opt.moments.any()
        opt.moments[:] = 0.0
        save_training_checkpoint(resume, MODEL, cfg, 2, params, opt)
        zeroed = train(MODEL, cfg, dataset, vocab, resume_from=resume)
        assert any(not np.array_equal(zeroed.params[n], result.params[n]) for n in result.params)

    def test_crash_right_after_a_checkpoint_loses_no_metrics(self, toy, tmp_path):
        # a process killed as soon as step-4.ckpt is written has put every
        # record before step 4 on disk, so resuming from that checkpoint
        # gives the uninterrupted run's metrics
        vocab, dataset = toy
        cfg = config(total_steps=8, checkpoint_every=2, eval_every=2)
        full, crashed = tmp_path / "full", tmp_path / "crashed"
        train(MODEL, cfg, dataset, vocab, out_dir=str(full))
        job = tmp_path / "job.pkl"
        job.write_bytes(pickle.dumps((MODEL, cfg, dataset, vocab)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        cmd = [sys.executable, "-c", _CRASH_AFTER_STEP_4, str(job), str(crashed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 3, proc.stderr
        ckpt = crashed / "checkpoints" / "step-4.ckpt"
        assert sorted(p.name for p in ckpt.parent.iterdir()) == ["step-2.ckpt", "step-4.ckpt"]
        train(MODEL, cfg, dataset, vocab, out_dir=str(crashed), resume_from=str(ckpt))
        assert (crashed / "metrics.jsonl").read_bytes() == (full / "metrics.jsonl").read_bytes()


# Trains the pickled (model config, train config, dataset, vocab) job in the
# given run dir and ends the process, unflushed buffers and all, as soon as
# step-4.ckpt is written.
_CRASH_AFTER_STEP_4 = """
import os, pickle, sys
from masksched import trainer

save = trainer.save_training_checkpoint

def save_then_crash(path, *args):
    save(path, *args)
    if path.endswith("step-4.ckpt"):
        os._exit(3)

trainer.save_training_checkpoint = save_then_crash
with open(sys.argv[1], "rb") as fh:
    job = pickle.load(fh)
trainer.train(*job, out_dir=sys.argv[2])
"""


class TestCheckpointBuffers:
    @pytest.fixture
    def ckpt(self, toy, tmp_path):
        vocab, dataset = toy
        train(MODEL, config(total_steps=4), dataset, vocab, out_dir=str(tmp_path))
        return tmp_path / "checkpoints" / "step-4.ckpt"

    def test_params_and_moments_share_no_memory(self, ckpt):
        _, params, opt = load_training_checkpoint(str(ckpt))
        assert not np.shares_memory(opt.params, opt.moments)
        for tensor in params.values():
            assert np.shares_memory(tensor, opt.params)

    def test_save_load_save_is_byte_identical(self, ckpt, tmp_path):
        header, params, opt = load_training_checkpoint(str(ckpt))
        again = tmp_path / "again.ckpt"
        cfg = config(total_steps=4)
        save_training_checkpoint(str(again), MODEL, cfg, header["step"], params, opt)
        assert again.read_bytes() == ckpt.read_bytes()

    def test_truncated_checkpoint_rejected(self, ckpt):
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_training_checkpoint(str(ckpt))

    def test_checkpoint_without_optimizer_state_rejected(self, tmp_path):
        params = init_params(MODEL)
        manifest = [[name, list(t.shape)] for name, t in params.items()]
        header = {"format": CHECKPOINT_FORMAT, "step": 0, "tensors": manifest}
        path = tmp_path / "params-only.ckpt"
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for tensor in params.values():
                fh.write(tensor.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="params, opt.m and opt.v"):
            load_training_checkpoint(str(path))


class TestCheckpointIO:
    CFG = config(total_steps=4)

    def save(self, path, params, opt, step=3, model_config=MODEL):
        save_training_checkpoint(str(path), model_config, self.CFG, step, params, opt)

    def test_round_trip_bytes(self, tmp_path):
        params = init_params(MODEL)
        opt = init_opt_state(params)
        opt.moments[:] = np.random.default_rng(0).normal(size=opt.moments.size)
        path = tmp_path / "a.ckpt"
        self.save(path, params, opt)
        header, tensors, loaded = load_training_checkpoint(str(path))
        assert header["step"] == 3
        for name in params:
            np.testing.assert_array_equal(params[name], tensors[name])
        np.testing.assert_array_equal(loaded.moments, opt.moments)
        path2 = tmp_path / "b.ckpt"
        self.save(path2, tensors, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_params(MODEL)
        path = tmp_path / "a.ckpt"
        self.save(path, params, init_opt_state(params))
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_training_checkpoint(str(path))

    def test_other_format_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b'{"format":"masksched-ckpt-v0","step":0,"tensors":[]}\n')
        with pytest.raises(ValueError, match="not a masksched-ckpt-v1 checkpoint"):
            load_training_checkpoint(str(path))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        params = init_params(MODEL)
        opt = init_opt_state(params)
        path = tmp_path / "a.ckpt"
        self.save(path, params, opt)
        before = path.read_bytes()
        # the moment buffer cannot be written as float64, so the save fails
        # after the header and the parameter buffer are out
        opt.moments = np.array(["not a number"])
        with pytest.raises(ValueError):
            self.save(path, params, opt)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]

    def test_params_not_viewing_the_state_are_rejected(self, tmp_path):
        params = init_params(MODEL)
        opt = init_opt_state(params)
        copied = {name: t.copy() for name, t in params.items()}
        with pytest.raises(ValueError, match="parameter buffer"):
            self.save(tmp_path / "a.ckpt", copied, opt)
        assert list(tmp_path.iterdir()) == []

    def test_save_copies_no_buffer(self, tmp_path):
        params = init_params(MEDIUM)
        opt = init_opt_state(params)
        path = tmp_path / "medium.ckpt"
        self.save(path, params, opt, model_config=MEDIUM)
        tracemalloc.start()
        try:
            self.save(path, params, opt, model_config=MEDIUM)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copy of the largest tensor alone (tok_emb, mlm_head.w) is ~2 MB
        assert peak < opt.params.nbytes / 20, peak
