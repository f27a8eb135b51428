"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings. Expected values marked "pinned" were computed once from
the reference implementation run or an external oracle and frozen here.
"""

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

from masksched import model
from masksched.cli import main as cli_main
from masksched.corruption import (
    CorruptionConfig,
    corrupt_batch,
    maskable_indices,
    round_half_up,
)
from masksched.data import (
    CLS_ID,
    N_SPECIALS,
    PAD_ID,
    SEP_ID,
    build_vocab,
    encode_corpus,
    synthetic_zipf_corpus,
)
from masksched.evaluate import EvalConfig, pll
from masksched.model import ModelConfig, grad_check, init_params
from masksched.analysis import (
    crossover_step,
    fit_speedup_curve,
    speedup_from_steps,
    speedup_model,
)
from masksched.schedule import ScheduleSpec, masking_rate, parse_schedule
from masksched.stats import hochberg, one_sided_t
from masksched.trainer import TrainConfig, train

from oracles import ref_forward_tiny, ref_mlm_loss, ref_pll, ref_rts_loss


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = perf_counter()
    yield
    elapsed = perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"
    print(f"\ncriterion {number:2d} ({name}): PASS  [{elapsed:.1f}s]")


# ---------------------------------------------------------------- criterion 1


def test_c01_schedule_exactness():
    with criterion(1, "schedule exactness", 1.0):
        total = 70_000
        ts = np.unique(
            np.concatenate(
                [
                    np.linspace(0, total, 10_000).astype(np.int64),
                    [0, total // 2 - 1, total // 2, total],
                ]
            )
        )
        specs = {
            "constant-0.15": ScheduleSpec("constant", 0.15, 0.15, total),
            "linear-0.3-0.15": ScheduleSpec("linear", 0.3, 0.15, total),
            "linear-0.15-0.3": ScheduleSpec("linear", 0.15, 0.3, total),
            "cosine-0.3-0.15": ScheduleSpec("cosine", 0.3, 0.15, total),
            "step-0.3-0.15": ScheduleSpec("step", 0.3, 0.15, total),
        }

        def closed_form(name, t):
            if name == "constant-0.15":
                return 0.15
            if name == "linear-0.3-0.15":
                return 0.3 + (t / total) * (0.15 - 0.3)
            if name == "linear-0.15-0.3":
                return 0.15 + (t / total) * (0.3 - 0.15)
            if name == "cosine-0.3-0.15":
                return 0.3 + ((0.15 - 0.3) / 2) * (1 + math.cos((1 - t / total) * math.pi))
            return 0.3 if t < total // 2 else 0.3 * (0.15 / 0.3)

        for name, spec in specs.items():
            for t in ts:
                t = int(t)
                assert masking_rate(spec, t) == closed_form(name, t), (name, t)

        lin = specs["linear-0.3-0.15"]
        cos = specs["cosine-0.3-0.15"]
        for t in (0, total // 2, total):
            assert abs(masking_rate(lin, t) - masking_rate(cos, t)) <= 1e-15


# ---------------------------------------------------------------- criterion 2


def test_c02_corruption_statistics():
    with criterion(2, "corruption statistics", 30.0):
        rate = 0.3
        vocab_size = 200
        n_seq, body = 3500, 1000
        rng_ids = np.random.default_rng(2024)
        total_maskable = n_seq * body
        masked = 0
        to_mask_tok = 0
        random_visible = 0
        kept_visible = 0
        special_violations = 0
        cfg = CorruptionConfig()
        from masksched.data import MASK_ID

        for i in range(n_seq):
            ids = np.concatenate(
                [
                    [CLS_ID],
                    rng_ids.integers(N_SPECIALS, vocab_size, size=body),
                    [SEP_ID, PAD_ID, PAD_ID],
                ]
            ).astype(np.int64)
            (out,), _, _ = corrupt_batch(
                [ids], rate, vocab_size, [np.random.default_rng((77, i))], cfg
            )
            masked += out.mask_set.size
            specials = np.array([0, body + 1, body + 2, body + 3])
            special_violations += int(np.isin(specials, out.mask_set).sum())
            special_violations += int((out.corrupted[specials] != ids[specials]).sum())
            changed = out.corrupted[out.mask_set] != ids[out.mask_set]
            is_mask_tok = out.corrupted[out.mask_set] == MASK_ID
            to_mask_tok += int(is_mask_tok.sum())
            random_visible += int((changed & ~is_mask_tok).sum())
            kept_visible += int((~changed).sum())
            untouched = np.setdiff1d(np.arange(len(ids)), out.mask_set)
            assert (out.corrupted[untouched] == ids[untouched]).all()

        assert masked >= 1_000_000
        assert special_violations == 0
        sigma_rate = math.sqrt(rate * (1 - rate) / total_maskable)
        assert abs(masked / total_maskable - rate) < 4 * sigma_rate

        # a uniform random replacement can collide with the original token,
        # so fold the collision mass (0.1 / #non-specials) into the
        # observable expectations for "changed to random" and "unchanged"
        collide = 1.0 / (vocab_size - N_SPECIALS)
        checks = (
            (to_mask_tok, 0.8),
            (random_visible, 0.1 * (1 - collide)),
            (kept_visible, 0.1 + 0.1 * collide),
        )
        for count, p in checks:
            sigma = math.sqrt(p * (1 - p) / masked)
            assert abs(count / masked - p) < 4 * sigma, (count / masked, p)


# ---------------------------------------------------------------- criterion 3

SMALL_MODEL = ModelConfig(
    n_layers=1, n_heads=2, d_model=16, d_ff=32, vocab_size=100, max_seq_len=16, init_seed=0
)


@pytest.fixture(scope="module")
def small_toy():
    lines = synthetic_zipf_corpus(600, n_word_types=95, seed=5, min_len=8, max_len=14)
    vocab = build_vocab(lines, max_size=100)
    dataset = encode_corpus(vocab, lines, SMALL_MODEL.max_seq_len)
    return vocab, dataset


def test_c03_subset_loss_ablation(small_toy):
    with criterion(3, "subset-loss ablation", 120.0):
        vocab, dataset = small_toy
        steps = 400
        cfg = TrainConfig(
            total_steps=steps,
            batch_size=16,
            schedule=parse_schedule("linear-0.3-0.15", steps),
            corruption=CorruptionConfig(subset_loss_fraction=0.15),
            seed=2,
            eval=EvalConfig(masking_rate=0.15, seed=9, n_batches=2),
        )
        result = train(SMALL_MODEL, cfg, dataset, vocab)
        assert len(result.metrics.records) == steps
        for record in result.metrics.records:
            assert record.loss_positions <= round_half_up(0.15 * record.maskable)
            r = masking_rate(cfg.schedule, record.step)
            sigma = math.sqrt(r * (1 - r) / record.maskable)
            assert abs(record.masked / record.maskable - r) < 4 * sigma, record.step


# ---------------------------------------------------------------- criterion 4


def test_c04_gradient_check():
    with criterion(4, "gradient check", 120.0):
        config = ModelConfig(
            n_layers=1, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, init_seed=0
        )
        report = grad_check(config, seed=0, n_coords=200, h=1e-4, tol=1e-5)
        assert report.n_coords >= 200
        assert report.passed, f"worst {report.worst_rel_err:.3e} in {report.worst_tensor}"
        assert report.worst_rel_err < 1e-5


# ---------------------------------------------------------------- criterion 5


def _random_tiny_config(rng) -> ModelConfig:
    d_model = int(rng.choice([4, 8]))
    return ModelConfig(
        n_layers=1,
        n_heads=int(rng.choice([1, 2])),
        d_model=d_model,
        d_ff=int(rng.integers(4, 13)),
        vocab_size=int(rng.integers(7, 17)),
        max_seq_len=8,
        init_seed=int(rng.integers(0, 2**31)),
    )


def _random_tiny_batch(config, rng, batch=None, length=None):
    batch = batch or int(rng.integers(1, 4))
    length = length or int(rng.integers(3, config.max_seq_len + 1))
    ids = rng.integers(N_SPECIALS, config.vocab_size, size=(batch, length))
    ids[:, 0] = CLS_ID
    ids[:, -1] = SEP_ID
    real = np.ones((batch, length), dtype=bool)
    return ids, real


def test_c05_oracle_equivalence():
    with criterion(5, "oracle equivalence", 120.0):
        rng = np.random.default_rng(31337)

        for _ in range(50):  # forward
            config = _random_tiny_config(rng)
            params = init_params(config)
            ids, real = _random_tiny_batch(config, rng)
            out = model.forward(params, config, ids, real, heads=("mlm", "rts"))
            ref_mlm, ref_rts = ref_forward_tiny(params, config, ids, real, heads=("mlm", "rts"))
            assert np.abs(out.mlm_logits - ref_mlm).max() < 1e-10
            assert np.abs(out.rts_logits - ref_rts).max() < 1e-10

        for _ in range(50):  # MLM loss on raw logits
            batch, length, vocab = int(rng.integers(1, 4)), int(rng.integers(2, 8)), int(rng.integers(5, 20))
            logits = rng.normal(size=(batch, length, vocab)) * 3
            k = int(rng.integers(1, batch * length + 1))
            rows = rng.integers(0, batch, size=k)
            cols = rng.integers(0, length, size=k)
            labels = rng.integers(0, vocab, size=k)
            ours, _ = model.mlm_loss_grad(logits[rows, cols], labels)
            assert abs(ours - ref_mlm_loss(logits, labels, rows, cols)) < 1e-10

        for _ in range(50):  # RTS loss on raw logits
            batch, length = int(rng.integers(1, 4)), int(rng.integers(2, 8))
            logits = rng.normal(size=(batch, length)) * 3
            k = int(rng.integers(1, batch * length + 1))
            rows = rng.integers(0, batch, size=k)
            cols = rng.integers(0, length, size=k)
            flags = rng.integers(0, 2, size=k)
            ours, _ = model.rts_loss_grad(logits[rows, cols], flags)
            assert abs(ours - ref_rts_loss(logits, flags, rows, cols)) < 1e-10

        from masksched.data import MASK_ID

        for _ in range(50):  # pll
            config = _random_tiny_config(rng)
            params = init_params(config)
            ids, _ = _random_tiny_batch(config, rng, batch=1)
            sentence = ids[0]
            ours = pll(params, config, sentence)
            ref = ref_pll(params, config, sentence, MASK_ID, N_SPECIALS)
            assert abs(ours - ref) < 1e-10


# ---------------------------------------------------------------- criterion 6

# pinned from the first reference run of this exact configuration
PINNED_FINAL_EVAL_LOSS = 4.068128334118537


def _c6_setup():
    lines = synthetic_zipf_corpus(2000, n_word_types=195, seed=0)
    vocab = build_vocab(lines, max_size=200)
    model_cfg = ModelConfig(
        n_layers=2, n_heads=2, d_model=32, d_ff=64,
        vocab_size=vocab.size, max_seq_len=16, init_seed=0,
    )
    dataset = encode_corpus(vocab, lines, model_cfg.max_seq_len)
    train_cfg = TrainConfig(
        total_steps=2000,
        batch_size=16,
        schedule=parse_schedule("constant-0.15", 2000),
        seed=7,
        eval_every=500,
        checkpoint_every=1000,
        eval=EvalConfig(masking_rate=0.15, seed=1234, n_batches=8),
    )
    return vocab, dataset, model_cfg, train_cfg


def test_c06_desk_scale_training(tmp_path):
    with criterion(6, "desk-scale training", 900.0):
        vocab, dataset, model_cfg, train_cfg = _c6_setup()
        assert vocab.size == 200 and len(dataset) == 2000

        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_split = tmp_path / "split"
        res_a = train(model_cfg, train_cfg, dataset, vocab, out_dir=str(run_a))
        train(model_cfg, train_cfg, dataset, vocab, out_dir=str(run_b))
        train(model_cfg, train_cfg, dataset, vocab, out_dir=str(run_split), stop_after=1000)
        train(
            model_cfg,
            train_cfg,
            dataset,
            vocab,
            out_dir=str(run_split),
            resume_from=str(run_split / "checkpoints" / "step-1000.ckpt"),
        )

        initial = res_a.metrics.records[0].eval_loss
        final = res_a.metrics.records[-1].eval_loss
        assert initial is not None and final is not None
        assert final <= 0.8 * initial, (initial, final)
        assert abs(final - PINNED_FINAL_EVAL_LOSS) <= 0.05 * PINNED_FINAL_EVAL_LOSS

        for rel in ("metrics.jsonl", "checkpoints/step-2000.ckpt"):
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
            assert (run_a / rel).read_bytes() == (run_split / rel).read_bytes(), rel


# ---------------------------------------------------------------- criterion 7


def test_c07_statistics():
    with criterion(7, "significance statistics", 10.0):
        # hand-executed step-up worked examples
        assert hochberg([0.01], 0.05) == {0}
        assert hochberg([0.04, 0.04, 0.04], 0.05) == {0, 1, 2}
        assert hochberg([0.03, 0.04, 0.9], 0.05) == set()

        rng = np.random.default_rng(606)
        for _ in range(20):
            x = rng.normal(rng.uniform(80, 90), rng.uniform(0.05, 0.5), size=int(rng.integers(2, 10)))
            y = rng.normal(rng.uniform(80, 90), rng.uniform(0.05, 0.5), size=int(rng.integers(2, 10)))
            ours = one_sided_t(tuple(x), tuple(y))
            ref = scipy_stats.ttest_ind(x, y, equal_var=False, alternative="less").pvalue
            assert abs(ours - ref) < 1e-9

        for _ in range(1000):
            m = int(rng.integers(1, 9))
            pvals = rng.uniform(0, 1, size=m).tolist()
            which = int(rng.integers(0, m))
            lowered = list(pvals)
            lowered[which] *= rng.uniform(0, 1)
            assert hochberg(pvals, 0.05) <= hochberg(lowered, 0.05)


# ---------------------------------------------------------------- criterion 8


def test_c08_speedup_regression():
    with criterion(8, "speedup regression", 30.0):
        true = (0.85, 0.4, 5e-5, 1.2)
        steps = np.array([5000.0, 10000.0, 20000.0, 30000.0, 40000.0, 50000.0, 60000.0, 70000.0])
        values = speedup_model(steps, *true)
        fit = fit_speedup_curve(steps, values)
        assert fit.converged
        assert fit.rss < 1e-12
        for got, want in zip((fit.c1, fit.c2, fit.c3, fit.c4), true):
            assert abs(got - want) / want < 0.01

        for t_star in (7500.0, 30_000.0, 65_000.0):
            back = crossover_step(fit, fit(t_star))
            assert abs(back - t_star) / t_star < 1e-6

        assert abs(speedup_from_steps(70_000, 37_037) - 1.89) < 0.005
        assert abs(speedup_from_steps(70_000, 42_424) - 1.65) < 0.005


# ---------------------------------------------------------------- criterion 9


def test_c09_rts_objective(small_toy):
    with criterion(9, "RTS objective", 300.0):
        vocab, dataset = small_toy
        steps = 300
        cfg = TrainConfig(
            total_steps=steps,
            batch_size=16,
            schedule=parse_schedule("linear-0.3-0.15", steps),
            corruption=CorruptionConfig(objective="rts"),
            seed=4,
            eval=EvalConfig(masking_rate=0.15, seed=9, n_batches=2),
        )
        result = train(SMALL_MODEL, cfg, dataset, vocab)
        assert len(result.metrics.records) == steps
        for record in result.metrics.records:
            assert math.isfinite(record.loss)
            r = masking_rate(cfg.schedule, record.step)
            sigma = math.sqrt(r * (1 - r) / record.maskable)
            assert abs(record.masked / record.maskable - r) < 4 * sigma, record.step

        # an uninformative classifier (all-zero weights -> logit 0) scores ln 2
        zero = {name: np.zeros(shape) for name, shape in model.param_shapes(SMALL_MODEL).items()}
        for name in zero:
            if name.endswith(".scale"):
                zero[name][:] = 1.0
        ids = dataset[0][None, :]
        cols = maskable_indices(dataset[0])
        rows = np.zeros(cols.size, dtype=np.int64)
        flags = np.ones(cols.size, dtype=np.int64)
        real = np.ones_like(ids, dtype=bool)
        loss = model.loss(zero, SMALL_MODEL, ids, real, {"rts": (flags, rows, cols)})
        assert abs(loss - math.log(2.0)) < 1e-9


# --------------------------------------------------------------- criterion 10


def _snapshot(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            path = os.path.join(base, f)
            out[os.path.relpath(path, root)] = Path(path).read_bytes()
    return out


def test_c10_cli_determinism(tmp_path, capsys):
    with criterion(10, "CLI determinism sweep", 1200.0):
        corpus = tmp_path / "corpus.txt"
        lines = synthetic_zipf_corpus(200, n_word_types=60, seed=8, min_len=5, max_len=10)
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

        # train (twice into the same dir, --force on the rerun)
        run_dir = tmp_path / "run"
        config = {
            "corpus": str(corpus),
            "vocab_size": 65,
            "model": {"n_layers": 1, "n_heads": 2, "d_model": 16, "d_ff": 32, "max_seq_len": 12},
            "train": {
                "total_steps": 40,
                "batch_size": 8,
                "schedule": "linear-0.3-0.15",
                "seed": 1,
                "eval_every": 20,
                "checkpoint_every": 20,
            },
            "eval": {"masking_rate": 0.15, "seed": 2, "n_batches": 2},
            "out_dir": str(run_dir),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["train", str(cfg_path)]) == 0
        out1 = capsys.readouterr().out
        snap1 = _snapshot(run_dir)
        assert cli_main(["train", str(cfg_path), "--force"]) == 0
        out2 = capsys.readouterr().out
        snap2 = _snapshot(run_dir)
        assert out1 == out2
        assert snap1.keys() == snap2.keys()
        for rel in snap1:
            assert snap1[rel] == snap2[rel], rel

        ckpt = str(run_dir / "checkpoints" / "step-40.ckpt")

        # eval: MLM loss and minimal pairs
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "pair_id\tsuper_task\tsentence_good\tsentence_bad\n"
            "1\ta\tw000 w001\tw000 w059\n"
            "2\tb\tw001 w002\tw058 w059\n",
            encoding="utf-8",
        )
        evals = []
        for _ in range(2):
            assert cli_main(["eval", "--checkpoint", ckpt, "--corpus", str(corpus), "--seed", "3"]) == 0
            evals.append(capsys.readouterr().out)
        assert evals[0] == evals[1]
        pair_outs = []
        for _ in range(2):
            assert cli_main(["eval", "--checkpoint", ckpt, "--pairs", str(pairs)]) == 0
            pair_outs.append(capsys.readouterr().out)
        assert pair_outs[0] == pair_outs[1]

        # compare
        samples = tmp_path / "samples.json"
        samples.write_text(
            json.dumps(
                {
                    "glue": {
                        "linear-0.3-0.15": [84.2, 84.31, 84.27],
                        "constant-0.3": [84.1, 84.14, 84.09],
                        "constant-0.15": [83.8, 83.86, 83.82],
                    }
                }
            ),
            encoding="utf-8",
        )
        compare_outs = []
        for _ in range(2):
            assert cli_main(["compare", str(samples)]) == 0
            compare_outs.append(capsys.readouterr().out)
        assert compare_outs[0] == compare_outs[1]

        # speedup with SVG plot
        series = tmp_path / "series.csv"
        rows = ["step,value,schedule"]
        grid = np.arange(1, 9) * 10_000.0
        for name, params in (("fast", (0.86, 0.4, 8e-5, 1.1)), ("base", (0.85, 0.4, 5e-5, 1.2))):
            for s in grid:
                rows.append(f"{s:g},{speedup_model(s, *params):.10f},{name}")
        series.write_text("\n".join(rows) + "\n", encoding="utf-8")
        svg_bytes = []
        speedup_outs = []
        for i in range(2):
            svg = tmp_path / f"plot{i}.svg"
            assert cli_main(["speedup", str(series), "--baseline", "base", "--plot", str(svg)]) == 0
            speedup_outs.append(capsys.readouterr().out)
            svg_bytes.append(svg.read_bytes())
        assert speedup_outs[0] == speedup_outs[1]
        assert svg_bytes[0] == svg_bytes[1]

        # gradcheck
        grad_outs = []
        for _ in range(2):
            assert cli_main(["gradcheck", "--coords", "40"]) == 0
            grad_outs.append(capsys.readouterr().out)
        assert grad_outs[0] == grad_outs[1]

        # vocab
        vocab_bytes = []
        vocab_outs = []
        for i in range(2):
            out = tmp_path / f"vocab{i}.txt"
            assert cli_main(["vocab", "--corpus", str(corpus), "--max-size", "30", "--out", str(out)]) == 0
            vocab_outs.append(capsys.readouterr().out.replace(f"vocab{i}.txt", "vocab.txt"))
            vocab_bytes.append(out.read_bytes())
        assert vocab_outs[0] == vocab_outs[1]
        assert vocab_bytes[0] == vocab_bytes[1]
