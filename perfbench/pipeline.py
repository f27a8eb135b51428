"""One workload run: set-up, training, scoring, output checks and metrics.

The untraced run calls ``trainer.train`` and ``evaluate.minimal_pair_accuracy``
directly and yields the end-to-end metrics. The traced run first does the
same untraced calls as a reference, then replays both loops through the same
public calls with a span around each, and fails unless the replay reproduces
the reference bit for bit (per-step losses, metrics.jsonl, the checkpoint,
eval loss, mask digest and pair accuracy). The replay traces every other
training step; the gap between the median traced and untraced step is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from masksched import data, evaluate, model, trainer
from masksched.corruption import maskable_indices
from masksched.schedule import masking_rate

from perfbench.spans import Tracer
from perfbench.workloads import (
    C06_BAND,
    C06_FINAL_EVAL_LOSS,
    C06_MIN_DROP,
    EVAL_BATCH_SIZE,
    MIN_CYCLES,
    SETUP_REPEATS,
    PINNED_EVAL_LOSS,
    PINNED_RTOL,
    Spec,
    corpus_lines,
    minimal_pairs,
)

PLL_TOLERANCE = 1e-10
# Band of the realized masking count around its expectation, in standard
# deviations (the acceptance suite's c03 uses the same band per step).
MASKING_SIGMAS = 4.0


class _NoTrace:
    """Tracer stand-in for untraced code: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


@dataclass
class Tally:
    """Units attempted (steps, eval passes, scored pairs, output checks) and
    the ones that raised, were non-finite or failed their check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, n_units: int, n_bad: int = 0, what: str = "") -> None:
        self.attempted += n_units
        self.failed += n_bad
        if n_bad:
            self.problems.append(f"{what}: {n_bad} of {n_units} failed")

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


@dataclass
class Inputs:
    corpus_path: str
    pairs_path: str


def write_inputs(spec: Spec, seed: int, work: str) -> Inputs:
    lines = corpus_lines(spec, seed)
    corpus_path = os.path.join(work, "corpus.txt")
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    pairs_path = os.path.join(work, "pairs.tsv")
    with open(pairs_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("pair_id\tsuper_task\tsentence_good\tsentence_bad\n")
        for row in minimal_pairs(spec, seed, lines):
            fh.write("\t".join(row) + "\n")
    return Inputs(corpus_path, pairs_path)


def setup_train(spec: Spec, inputs: Inputs, tr=_NoTrace):
    lines = tr.call("data.load_corpus", data.load_corpus, inputs.corpus_path)
    vocab = tr.call("data.build_vocab", data.build_vocab, lines, spec.vocab_size)
    dataset = tr.call("data.encode_corpus", data.encode_corpus, vocab, lines, spec.max_seq_len)
    return vocab, dataset


def setup_score(inputs: Inputs, run_dir: str, ckpt: str, tr=_NoTrace):
    """What ``masksched eval`` loads: checkpoint, vocab, corpus and pairs."""
    header, params, _ = tr.call("trainer.ckpt_load", trainer.load_training_checkpoint, ckpt)
    mc = model.ModelConfig(**header["model"])
    vocab = tr.call("data.load_vocab", data.load_vocab, os.path.join(run_dir, "vocab.txt"))
    if vocab.size != mc.vocab_size:
        raise ValueError("vocab file does not match the checkpoint")
    lines = tr.call("data.load_corpus", data.load_corpus, inputs.corpus_path)
    dataset = tr.call("data.encode_corpus", data.encode_corpus, vocab, lines, mc.max_seq_len)
    pairs = tr.call("evaluate.load_minimal_pairs", evaluate.load_minimal_pairs, inputs.pairs_path)
    return params, mc, vocab, dataset, pairs


def step_tokens(dataset: list[np.ndarray], tc: trainer.TrainConfig) -> int:
    """Real (non-pad) tokens the training loop consumes over a whole run."""
    lengths = np.array([len(s) for s in dataset])
    return int(
        sum(
            lengths[trainer.batch_indices(len(dataset), tc.batch_size, tc.seed, t)].sum()
            for t in range(tc.total_steps)
        )
    )


def eval_tokens(dataset: list[np.ndarray], cfg: evaluate.EvalConfig, batch_size: int) -> int:
    return sum(len(s) for _, seqs in evaluate.eval_batches(dataset, cfg, batch_size) for s in seqs)


def independent_pll(params, mc: model.ModelConfig, ids: np.ndarray) -> float:
    """PLL one position at a time: mask it, forward that single row, log-softmax."""
    total = 0.0
    for pos in maskable_indices(ids):
        row = ids.copy()
        row[pos] = data.MASK_ID
        out = model.forward(params, mc, row[None, :], np.ones((1, ids.size), dtype=bool))
        total += float(model.log_softmax(out.mlm_logits[0, pos])[ids[pos]])
    return total


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _sha256(path: str) -> str:
    return hashlib.sha256(_read(path)).hexdigest()[:16]


def _record_key(r: trainer.MetricsRecord) -> tuple:
    return (r.step, r.rate, r.lr, r.loss, r.eval_loss)


def _percentiles(values_ms: list[float]) -> tuple[float, float]:
    arr = np.asarray(values_ms)
    return float(np.median(arr)), float(np.percentile(arr, 90))


def _check_records(tally: Tally, records: list[trainer.MetricsRecord], what: str) -> None:
    bad_steps = sum(not math.isfinite(r.loss) for r in records)
    tally.count(len(records), bad_steps, f"{what}: non-finite step loss")
    evals = [r.eval_loss for r in records if r.eval_loss is not None]
    tally.count(len(evals), sum(not math.isfinite(v) for v in evals), f"{what}: non-finite eval loss")


def check_c06_band(initial: float, final: float) -> list[str]:
    """c06's acceptance bounds on the default-seed toy run."""
    problems = []
    if not abs(final - C06_FINAL_EVAL_LOSS) <= C06_BAND * C06_FINAL_EVAL_LOSS:
        problems.append(f"c06 final eval loss {final!r} outside 5% of {C06_FINAL_EVAL_LOSS!r}")
    if not final <= C06_MIN_DROP * initial:
        problems.append(f"c06 final eval loss {final!r} > 0.8 x initial {initial!r}")
    return problems


def check_masking(
    records: list[trainer.MetricsRecord], dataset: list[np.ndarray], tc: trainer.TrainConfig
) -> list[str]:
    """A run's realized masking against what its schedule asks.

    Each maskable position is masked with the step's rate, and a sequence
    whose draw comes out empty gets one forced mask (``min_masked``). So a
    sequence with n maskable positions at rate r, with q = (1 - r)**n, has
    mean n*r + q and variance n*r*(1 - r) + q - 2*n*r*q - q**2 masks. The
    run's total must lie within MASKING_SIGMAS standard deviations of the
    summed mean, and every loss position must be a masked one.
    """
    maskable = np.array([maskable_indices(s).size for s in dataset], dtype=float)
    forced = tc.corruption.min_masked >= 1
    mean = var = 0.0
    for r in records:
        n = maskable[trainer.batch_indices(len(dataset), tc.batch_size, tc.seed, r.step)]
        q = (1.0 - r.rate) ** n if forced else 0.0 * n
        mean += float((n * r.rate + q).sum())
        var += float((n * r.rate * (1.0 - r.rate) + q - 2.0 * n * r.rate * q - q * q).sum())
    z = (sum(r.masked for r in records) - mean) / math.sqrt(var)
    problems = []
    if not abs(z) <= MASKING_SIGMAS:
        problems.append(f"realized masking is {z:.2f} sigma from the schedule's")
    if any(r.loss_positions != r.masked for r in records):
        problems.append("loss positions differ from masked positions")
    return problems


def cache_nbytes(obj) -> int:
    """Summed nbytes of every array in a (nested) ForwardOutput.cache."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(cache_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(cache_nbytes(v) for v in obj)
    return 0


def matmul_flops(mc: model.ModelConfig, batch: int, length: int) -> float:
    """Matmul FLOPs of one forward plus backward; backward costs two forwards."""
    d, tokens = mc.d_model, batch * length
    per_layer = 2 * tokens * d * (4 * d + 2 * mc.d_ff) + 4 * batch * length * length * d
    forward = mc.n_layers * per_layer + 2 * tokens * d * mc.vocab_size
    return 3.0 * forward


@dataclass
class Counters:
    """Work counts the traced run takes at the same boundaries as its spans."""

    masked: int = 0
    maskable: int = 0
    loss_positions: int = 0
    head_positions: int = 0
    flops: float = 0.0
    cache_bytes: list[int] = field(default_factory=list)
    ckpt_bytes: list[int] = field(default_factory=list)
    pll_rows: int = 0
    pll_head_positions: int = 0
    # (step, wall time) of the replay's warm steps without a mid-run eval,
    # for the steps run under the tracer and for those run without it.
    traced_steps: list[tuple[int, float]] = field(default_factory=list)
    plain_steps: list[tuple[int, float]] = field(default_factory=list)


def replay_train(
    tr: Tracer,
    counters: Counters,
    mc: model.ModelConfig,
    tc: trainer.TrainConfig,
    dataset: list[np.ndarray],
    vocab: data.Vocab,
    out_dir: str,
    warmup_steps: int,
) -> trainer.TrainResult:
    """``trainer.train``'s loop (fresh run, mlm objective, no clipping or loss
    subset) through the same public calls, with a span around each call.

    Each step also times one extra ``model.forward`` on the step's batch, so
    the backward pass's own time is backward minus forward. Only even steps
    run under the tracer; odd steps do the same calls untraced, so the two
    interleaved sets of step times give the tracing overhead free of
    warm-up and drift (see ``tracing_overhead_pct``).
    """
    if tc.objective != "mlm" or tc.corruption.subset_loss_fraction is not None or tc.grad_clip:
        raise ValueError("the replay covers the mlm objective without clipping or loss subsets")
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir)
    metrics = trainer.RunMetrics()
    final_ckpt = None
    with open(os.path.join(out_dir, "metrics.jsonl"), "wb") as fh, tr.span("trainer.train"):
        params = model.init_params(mc)
        opt = trainer.init_opt_state(params)
        total = tc.total_steps
        for t in range(total):
            st = tr if t % 2 == 0 else _NoTrace
            t0 = time.perf_counter()
            with st.span("trainer.step"):
                rate = masking_rate(tc.schedule, t)
                record = trainer.MetricsRecord(step=t, rate=rate, lr=trainer.lr_at(tc, t), loss=math.nan)
                if tc.eval_every and t % tc.eval_every == 0:
                    record.eval_loss = st.call(
                        "evaluate.eval_mlm", evaluate.eval_mlm, params, mc, dataset, tc.eval, tc.batch_size
                    )
                idx = st.call("data.batch_indices", trainer.batch_indices, len(dataset), tc.batch_size, tc.seed, t)
                seqs = [dataset[int(i)] for i in idx]
                outcomes, ids, real = st.call(
                    "corruption.corrupt_batch", trainer.corrupt_batch,
                    seqs, rate, vocab.size, tc.seed, t, tc.corruption,
                )
                labels, rows, cols = st.call("trainer.collate_targets", trainer.collate_targets, outcomes)
                maskable_total = sum(maskable_indices(s).size for s in seqs)
                probe = st.call("model.forward", model.forward, params, mc, ids, real, heads=("mlm",))
                counters.cache_bytes.append(cache_nbytes(probe.cache))
                del probe
                loss, grads = st.call(
                    "model.backward", model.backward, params, mc, ids, real, {"mlm": (labels, rows, cols)}
                )
                st.call("trainer.adamw_step", trainer.adamw_step, params, grads, opt, record.lr, tc)
                record.loss = loss
                record.masked = sum(o.mask_set.size for o in outcomes if o is not None)
                record.maskable = maskable_total
                record.loss_positions = labels.size
                if t == total - 1:
                    record.eval_loss = st.call(
                        "evaluate.eval_mlm", evaluate.eval_mlm, params, mc, dataset, tc.eval, tc.batch_size
                    )
            if t >= warmup_steps and record.eval_loss is None:
                (counters.plain_steps if st is _NoTrace else counters.traced_steps).append(
                    (t, time.perf_counter() - t0)
                )
            if st is tr:
                counters.flops += matmul_flops(mc, *ids.shape)
            metrics.append(record)
            fh.write((record.to_json() + "\n").encode("utf-8"))
            counters.masked += record.masked
            counters.maskable += record.maskable
            counters.loss_positions += record.loss_positions
            counters.head_positions += ids.size
            done = t + 1
            if (tc.checkpoint_every and done % tc.checkpoint_every == 0) or done == total:
                final_ckpt = os.path.join(ckpt_dir, f"step-{done}.ckpt")
                tr.call("trainer.ckpt_save", trainer.save_training_checkpoint, final_ckpt, mc, tc, done, params, opt)
                counters.ckpt_bytes.append(os.path.getsize(final_ckpt))
    return trainer.TrainResult(params, opt, metrics, final_ckpt)


def replay_pair_accuracy(tr: Tracer, counters: Counters, params, mc, vocab, pairs) -> dict:
    """``evaluate.minimal_pair_accuracy`` with a span around each ``evaluate.pll``."""
    correct: dict[str, int] = {}
    totals: dict[str, int] = {}
    for pair in pairs:
        scores = []
        for sentence in (pair.sentence_good, pair.sentence_bad):
            ids = data.encode(vocab, sentence, mc.max_seq_len)
            scores.append(tr.call("evaluate.pll", evaluate.pll, params, mc, ids))
            rows = maskable_indices(ids).size
            counters.pll_rows += rows
            counters.pll_head_positions += rows * ids.size
        totals[pair.super_task] = totals.get(pair.super_task, 0) + 1
        if scores[0] > scores[1]:
            correct[pair.super_task] = correct.get(pair.super_task, 0) + 1
    per_task = {task: correct.get(task, 0) / totals[task] for task in sorted(totals)}
    return {"super_tasks": per_task, "overall": sum(per_task.values()) / len(per_task)}


# ---------------------------------------------------------------- one run


def run_workload(
    spec: Spec, seed: int, work: str, seconds: float, traced: bool
) -> tuple[dict[str, tuple[float, str]], Tally, dict, Tracer | None]:
    """One benchmark run. Returns (metrics, tally, report info, tracer).

    Untraced, the metrics are the end-to-end ones. Traced, they are the
    per-layer ones, and the traced loops are checked against the untraced
    reference runs that precede them.
    """
    tally = Tally()
    tr = Tracer(f"{spec.name}-seed{seed}") if traced else None
    counters = Counters()
    inputs = write_inputs(spec, seed, work)

    # Set-up is timed at many points of the run, between the timed phases,
    # and reported as a median: a set-up takes a fraction of a second, and
    # this machine's speed wanders on a scale of seconds.
    setup_s: dict[str, list[float]] = {"setup.train": [], "setup.score": []}
    st = tr or _NoTrace

    def timed_setup(name, fn):
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with st.span(name):
                result = fn(st)
            setup_s[name].append(time.perf_counter() - t0)
        return result

    def resample_setup():
        timed_setup("setup.train", lambda t: setup_train(spec, inputs, t))
        timed_setup("setup.score", lambda t: setup_score(inputs, run_dirs[0], first.final_checkpoint, t))

    vocab, dataset = timed_setup("setup.train", lambda t: setup_train(spec, inputs, t))
    mc = spec.model_config(seed, vocab.size)
    tc = spec.train_config(seed)
    ecfg = spec.eval_config(seed)

    def score_round(ctx, traced_round: bool):
        params, smc, svocab, sdataset, pairs = ctx
        t0 = time.perf_counter()
        if traced_round:
            with tr.span("score.round"):
                loss, digest = tr.call(
                    "evaluate.eval_mlm", evaluate.eval_mlm,
                    params, smc, sdataset, ecfg, EVAL_BATCH_SIZE, return_mask_digest=True,
                )
                t1 = time.perf_counter()
                report = replay_pair_accuracy(tr, counters, params, smc, svocab, pairs)
        else:
            loss, digest = evaluate.eval_mlm(
                params, smc, sdataset, ecfg, EVAL_BATCH_SIZE, return_mask_digest=True
            )
            t1 = time.perf_counter()
            report = evaluate.minimal_pair_accuracy(params, smc, svocab, pairs)
        t2 = time.perf_counter()
        tally.check(math.isfinite(loss), "non-finite eval_mlm loss")
        in_range = 0.0 <= report["overall"] <= 1.0
        tally.count(len(pairs), 0 if in_range else len(pairs), "pair accuracy out of [0, 1]")
        return (loss, digest, report), t1 - t0, t2 - t1

    # Cycles of one training run plus scoring rounds on the first run's
    # checkpoint, repeated while another cycle fits in ``seconds``, so both
    # phases are sampled across the whole run rather than in one stretch.
    deadline = time.perf_counter() + seconds
    walls, steps_ms, run_dirs, rounds, eval_s, pll_s, cycle_s = [], [], [], [], [], [], []
    ctx = None
    while not cycle_s or (
        not traced
        and (len(cycle_s) < MIN_CYCLES or time.perf_counter() + np.mean(cycle_s) <= deadline)
    ):
        c0 = time.perf_counter()
        out_dir = os.path.join(work, f"train-{len(run_dirs)}")
        res = trainer.train(mc, tc, dataset, vocab, out_dir=out_dir)
        walls.append(time.perf_counter() - c0)
        run_dirs.append(out_dir)
        _check_records(tally, res.metrics.records, f"train run {len(run_dirs)}")
        steps_ms.extend(r.wall_ms for r in res.metrics.records[spec.warmup_steps :])
        if ctx is None:
            first = res
            data.save_vocab(vocab, os.path.join(out_dir, "vocab.txt"))
            ctx = timed_setup("setup.score", lambda t: setup_score(inputs, out_dir, res.final_checkpoint, t))
        else:
            resample_setup()
        for _ in range(spec.score_rounds):
            result, t_eval, t_pll = score_round(ctx, False)
            rounds.append(result)
            eval_s.append(t_eval)
            pll_s.append(t_pll)
            resample_setup()
        cycle_s.append(time.perf_counter() - c0)

    records = first.metrics.records
    final_rel = os.path.relpath(first.final_checkpoint, run_dirs[0])
    if traced:
        replay_dir = os.path.join(work, "replay")
        replayed = replay_train(tr, counters, mc, tc, dataset, vocab, replay_dir, spec.warmup_steps)
        tally.check(
            [_record_key(r) for r in replayed.metrics.records] == [_record_key(r) for r in records],
            "traced replay's per-step records are not bit-equal to trainer.train's",
        )
        run_dirs.append(replay_dir)
        for _ in range(spec.score_rounds):
            rounds.append(score_round(ctx, True)[0])
    for other in run_dirs[1:]:
        for rel in ("metrics.jsonl", final_rel):
            same = _read(os.path.join(run_dirs[0], rel)) == _read(os.path.join(other, rel))
            tally.check(same, f"{rel} differs between {run_dirs[0]} and {other}")
    if spec.is_c06(seed):
        problems = check_c06_band(records[0].eval_loss, records[-1].eval_loss)
        tally.check(not problems, "; ".join(problems))
    problems = check_masking(records, dataset, tc)
    tally.check(not problems, "; ".join(problems))
    pinned = PINNED_EVAL_LOSS.get(spec) if seed == 0 else None
    if pinned is not None:
        tally.check(
            abs(rounds[0][0] - pinned) <= PINNED_RTOL * pinned,
            f"eval_loss_end {rounds[0][0]!r} differs from the pinned seed-0 value {pinned!r}",
        )
    tally.check(
        all(r == rounds[0] for r in rounds),
        "eval_mlm loss, mask digest or pair accuracy differs between scoring rounds",
    )
    params, smc, svocab, sdataset, pairs = ctx
    reloaded = evaluate.eval_mlm(params, smc, sdataset, tc.eval, tc.batch_size)
    tally.check(reloaded == records[-1].eval_loss, "the loaded checkpoint does not reproduce the final eval loss")
    for sentence in (pairs[0].sentence_good, pairs[0].sentence_bad):
        ids = data.encode(svocab, sentence, smc.max_seq_len)
        gap = abs(evaluate.pll(params, smc, ids) - independent_pll(params, smc, ids))
        tally.check(gap <= PLL_TOLERANCE, f"PLL differs from the one-row recomputation by {gap!r}")

    info = {
        "train_runs": len(walls),
        "setup_samples": len(setup_s["setup.score"]),
        "step_samples": len(steps_ms),
        "score_rounds": len(rounds),
        "pairs_per_round": len(pairs),
        "pair_accuracy": rounds[0][2]["overall"],
        "artifacts_sha256": {rel: _sha256(os.path.join(run_dirs[0], rel)) for rel in ("metrics.jsonl", final_rel)},
    }
    if traced:
        info["overhead_step_samples"] = [len(counters.traced_steps), len(counters.plain_steps)]
        overhead_pct = tracing_overhead_pct(counters, records)
        return layer_metrics(tr, counters, overhead_pct), tally, info, tr

    p50, p90 = _percentiles(steps_ms)
    metrics = {
        "setup_s": (sum(float(np.median(v)) for v in setup_s.values()), "s"),
        "train_tokens_per_s": (step_tokens(dataset, tc) / float(np.median(walls)), "1/s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_p90": (p90, "ms"),
        "eval_loss_end": (rounds[0][0], "nats"),
        "eval_tokens_per_s": (
            eval_tokens(sdataset, ecfg, EVAL_BATCH_SIZE) * len(eval_s) / sum(eval_s), "1/s"
        ),
        "pll_pairs_per_s": (len(pairs) * len(pll_s) / sum(pll_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, tally, info, None


# Spans whose busy time is a per-layer metric, as <name>_ms and <name>_ms_p90.
TIMED_SPANS = (
    "data.build_vocab",
    "data.encode_corpus",
    "data.batch_indices",
    "corruption.corrupt_batch",
    "trainer.collate_targets",
    "trainer.adamw_step",
    "trainer.ckpt_save",
    "trainer.ckpt_load",
    "trainer.step",
    "model.forward",
    "model.backward",
    "evaluate.eval_mlm",
    "evaluate.pll",
)


def tracing_overhead_pct(counters: Counters, records: list[trainer.MetricsRecord]) -> float:
    """Median traced replay step over median untraced one, minus 1, in %.

    Each replay step's time is first divided by the same step's ``wall_ms``
    in the untraced ``trainer.train`` run, which did the same work on the
    same batch, so batch-to-batch differences in length cancel out.
    """
    reference_s = {r.step: r.wall_ms / 1000.0 for r in records}

    def ratio(steps: list[tuple[int, float]]) -> float:
        return float(np.median([s / reference_s[t] for t, s in steps]))

    return 100.0 * (ratio(counters.traced_steps) / ratio(counters.plain_steps) - 1.0)


def layer_metrics(tr: Tracer, counters: Counters, overhead_pct: float) -> dict[str, tuple[float, str]]:
    summary = tr.summary()
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED_SPANS:
        out[f"{name}_ms"] = (summary[name]["busy_ms_p50"], "ms")
        out[f"{name}_ms_p90"] = (summary[name]["busy_ms_p90"], "ms")
    forward = tr.named("model.forward")
    backward = tr.named("model.backward")
    backward_self = [(b.duration - f.duration) * 1000.0 for f, b in zip(forward, backward)]
    out["model.backward_self_ms"] = (float(np.median(backward_self)), "ms")
    out["trainer.step_self_ms"] = (summary["trainer.step"]["self_ms_p50"], "ms")
    fwd_bwd_s = sum(b.duration for b in backward)
    out["model.gflops_per_s"] = (counters.flops / fwd_bwd_s / 1e9, "GFLOP/s")
    out["model.head_useful_ratio"] = (counters.loss_positions / counters.head_positions, "ratio")
    out["model.head_useful_ratio_pll"] = (counters.pll_rows / counters.pll_head_positions, "ratio")
    out["model.forward_cache_mb"] = (float(np.median(counters.cache_bytes)) / 2**20, "MB")
    out["corruption.realized_rate"] = (counters.masked / counters.maskable, "ratio")
    out["corruption.loss_positions"] = (float(counters.loss_positions), "count")
    out["trainer.ckpt_bytes"] = (float(np.median(counters.ckpt_bytes)), "bytes")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
