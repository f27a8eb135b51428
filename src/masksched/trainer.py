"""The pretraining loop: scheduled corruption, AdamW, warmup+decay LR, logging.

Every source of randomness is derived functionally from (seed, step, row)
through ``data.counter_rng``, so a run is bit-reproducible and a
checkpoint-resume split produces exactly the same bytes as an uninterrupted
run. The optimizer state
is stored in the checkpoint alongside the parameters.

Parameters and gradients are flat float64 buffers with per-tensor views
(``model.tensor_arena``); ``OptState`` keeps the parameter buffer and a
separate [m | v] buffer of the AdamW moments, and ``adamw_step`` updates
them block by block; dicts that are not such views are rejected.

This module owns the checkpoint format, which is those two buffers behind
one header line:

    checkpoint := header-line + params + moments
    header-line: one JSON object (compact, sorted keys) terminated by \\n,
        with {"format", "step", "model", "train", "rng", "tensors"}, where
        "tensors" lists the [name, shape] pairs of the parameters, then of
        "opt.m." + name, then of "opt.v." + name, each in param_shapes order.
    params, moments: ``OptState.params``, then ``OptState.moments``, as
        little-endian float64; that is every tensor in "tensors" order.

``train`` owns its run directory: vocab.txt, metrics.jsonl and
checkpoints/step-N.ckpt; the CLI adds config.json. Metrics records are
JSON lines with keys {step, rate, lr, loss, eval_loss?, wall_ms?}; wall_ms
is written only with timing logging on, so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import corruption, evaluate, model
from .corruption import CorruptionConfig, MaskOutcome, collate_targets, restrict_loss_budget
from .data import Vocab, atomic_write, counter_rng, epoch_permutation, load_vocab, save_vocab
from .evaluate import EvalConfig
from .model import ModelConfig, Params
from .schedule import ScheduleSpec, masking_rate, schedule_name

CHECKPOINT_FORMAT = "masksched-ckpt-v1"


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, reason: str):
        super().__init__(f"diverged at step {step}: {reason}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    """Optimization defaults follow the BERT-style recipe this toolkit targets.

    An invalid config raises ``ValueError`` when built; the nested schedule,
    corruption and eval configs check themselves.
    """

    total_steps: int
    batch_size: int
    schedule: ScheduleSpec
    corruption: CorruptionConfig = CorruptionConfig()
    peak_lr: float = 5e-4
    final_lr: float = 1e-5
    warmup_fraction: float = 0.06
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-6
    weight_decay: float = 1e-5
    grad_clip: float | None = None
    seed: int = 0
    eval_every: int = 0
    checkpoint_every: int = 0
    eval: EvalConfig = EvalConfig()

    @property
    def objective(self) -> str:
        return self.corruption.objective

    def __post_init__(self) -> None:
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 < self.warmup_fraction < 1):
            raise ValueError("warmup_fraction must be in (0, 1)")
        if not (math.isfinite(self.peak_lr) and self.peak_lr > 0):
            raise ValueError("peak_lr must be finite and > 0")
        if not (math.isfinite(self.final_lr) and self.final_lr >= 0):
            raise ValueError("final_lr must be finite and >= 0")
        if self.final_lr > self.peak_lr:
            raise ValueError("final_lr must not exceed peak_lr")
        for name in ("beta1", "beta2"):
            if not (0 <= getattr(self, name) < 1):
                raise ValueError(f"{name} must be in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be > 0 and finite")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be >= 0 and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.grad_clip is not None and not (math.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ValueError("grad_clip must be > 0 and finite")
        if self.eval_every < 0 or self.checkpoint_every < 0:
            raise ValueError("eval_every and checkpoint_every must be >= 0")
        # zero-step runs never evaluate the schedule
        if self.total_steps > 0 and self.schedule.total_steps != self.total_steps:
            raise ValueError("schedule.total_steps must equal total_steps")


# Elements per block of the AdamW walk over the flat buffers: each block's
# temporaries live in two preallocated scratch rows of this length.
_ADAMW_BLOCK = 32_768


class OptState:
    """AdamW state for one params dict, over flat float64 buffers.

    ``params`` is the parameter buffer the params dict's entries view (see
    ``model.tensor_arena``). ``moments`` is a separate [m | v] buffer of 2N
    floats, each half laid out like the parameters. The moments live apart
    from the parameters so that a caller that keeps the params and drops the
    state (evaluation) frees them.
    """

    def __init__(self, params: Params, step: int = 0):
        buffer = model.arena_buffer(params)
        if buffer is None:
            raise ValueError("params are not views of one model.tensor_arena buffer")
        self.params = buffer
        self.moments = np.zeros(2 * buffer.size)
        self.step = step
        self._decay = np.concatenate(
            [np.full(tensor.size, not model.is_layer_norm(name)) for name, tensor in params.items()]
        )
        self._scratch = np.empty((2, min(_ADAMW_BLOCK, buffer.size)))
        self._finite = np.empty(self._scratch.shape[1], dtype=bool)


@dataclass
class MetricsRecord:
    step: int
    rate: float
    lr: float
    loss: float
    eval_loss: float | None = None
    wall_ms: float | None = None
    masked: int = 0
    maskable: int = 0
    loss_positions: int = 0

    def to_json(self, with_timings: bool = False) -> str:
        out: dict = {"step": self.step, "rate": self.rate, "lr": self.lr, "loss": self.loss}
        if self.eval_loss is not None:
            out["eval_loss"] = self.eval_loss
        if with_timings and self.wall_ms is not None:
            out["wall_ms"] = self.wall_ms
        return json.dumps(out)


@dataclass
class RunMetrics:
    records: list[MetricsRecord] = field(default_factory=list)

    def append(self, record: MetricsRecord) -> None:
        if self.records and record.step <= self.records[-1].step:
            raise ValueError("metrics steps must be strictly increasing")
        self.records.append(record)


@dataclass
class TrainResult:
    """A finished (part of a) run: the final params, the optimizer step they
    were reached at, the metrics and the last checkpoint written. The AdamW
    moments are not kept; they live in the checkpoint."""

    params: Params
    step: int
    metrics: RunMetrics
    final_checkpoint: str | None = None


def lr_at(config: TrainConfig, t: float) -> float:
    """Linear warmup from 0 to peak over the warmup fraction, then linear decay."""
    total = config.total_steps
    if not (0 <= t <= total):
        raise ValueError(f"step out of range: {t!r}")
    warm = config.warmup_fraction * total
    if t <= warm:
        return config.peak_lr * (t / warm)
    return config.peak_lr + (t - warm) / (total - warm) * (config.final_lr - config.peak_lr)


def init_opt_state(params: Params) -> OptState:
    """Zeroed AdamW state for ``params``, a ``model.tensor_arena`` dict."""
    return OptState(params)


def adamw_step(
    params: Params,
    grads: Params,
    opt: OptState,
    lr: float,
    config: TrainConfig,
) -> None:
    """One bias-corrected decoupled-weight-decay update, in place.

    The update walks the flat parameter, gradient and moment buffers
    ``_ADAMW_BLOCK`` elements at a time with ``out=`` ufuncs into the
    state's scratch, so no temporary grows with the model. Per element it
    runs the same float operations in the same order as a per-tensor
    update, so the result is the same to the bit; entries that are not
    decayed skip the decay add through ``where=``. ``grads`` must be a
    ``model.tensor_arena`` dict with the params' names and shapes in the
    params' order, as ``model.backward`` returns.
    """
    if model.arena_buffer(params) is not opt.params:
        raise ValueError("params do not view the optimizer's parameter buffer")
    g = model.arena_buffer(grads)
    if g is None or [(k, t.shape) for k, t in grads.items()] != [
        (k, t.shape) for k, t in params.items()
    ]:
        raise ValueError("grads are not a tensor arena laid out like the params")
    opt.step += 1
    t = opt.step
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    theta = opt.params
    n = theta.size
    m, v = opt.moments[:n], opt.moments[n:]
    for lo in range(0, n, _ADAMW_BLOCK):
        hi = min(lo + _ADAMW_BLOCK, n)
        gb, mb, vb, tb = g[lo:hi], m[lo:hi], v[lo:hi], theta[lo:hi]
        a, u = opt._scratch[0, : hi - lo], opt._scratch[1, : hi - lo]
        finite = np.isfinite(gb, out=opt._finite[: hi - lo])
        if not finite.all():
            ends = np.cumsum([tensor.size for tensor in params.values()])
            name = list(params)[np.searchsorted(ends, lo + np.argmin(finite), side="right")]
            raise TrainingDiverged(t - 1, f"non-finite gradient in {name}")
        np.multiply(gb, 1.0 - b1, out=a)
        mb *= b1
        mb += a
        np.multiply(gb, 1.0 - b2, out=a)
        a *= gb
        vb *= b2
        vb += a
        np.divide(vb, bc2, out=a)
        np.sqrt(a, out=a)
        a += config.eps
        np.divide(mb, bc1, out=u)
        u /= a
        if config.weight_decay:
            np.multiply(tb, config.weight_decay, out=a)
            np.add(u, a, out=u, where=opt._decay[lo:hi])
        u *= lr
        tb -= u


def clip_gradients(grads: Params, max_norm: float) -> float:
    """Scale gradients to a global L2 norm cap; returns the pre-clip norm.

    ``grads`` must be a ``model.tensor_arena`` dict, as ``model.backward``
    returns; the norm is one dot product over its buffer.
    """
    g = model.arena_buffer(grads)
    if g is None:
        raise ValueError("grads are not a tensor arena")
    total = math.sqrt(float(g @ g))
    if total > max_norm and total > 0:
        g *= max_norm / total
    return total


def batch_indices(n_sequences: int, batch_size: int, seed: int, step: int) -> np.ndarray:
    """Dataset rows for one step; the dataset is cycled epoch by epoch."""
    per_epoch = math.ceil(n_sequences / batch_size)
    epoch, slot = divmod(step, per_epoch)
    order = epoch_permutation(n_sequences, seed, epoch)
    return order[slot * batch_size : (slot + 1) * batch_size]


def corrupt_batch(
    seqs: list[np.ndarray],
    rate: float,
    vocab_size: int,
    seed: int,
    step: int,
    config: CorruptionConfig,
) -> tuple[list[MaskOutcome], np.ndarray, np.ndarray]:
    """``corruption.corrupt_batch`` with the per-(seed, step, row) generators."""
    rngs = [counter_rng(seed, "corruption", step, row) for row in range(len(seqs))]
    return corruption.corrupt_batch(seqs, rate, vocab_size, rngs, config)


def _config_header(model_config: ModelConfig, train_config: TrainConfig) -> dict:
    # the schedule is stored as its field dict, total_steps included; the
    # canonical name rides along for display
    cfg = dataclasses.asdict(train_config)
    cfg["schedule_name"] = schedule_name(train_config.schedule)
    return {
        "model": dataclasses.asdict(model_config),
        "train": cfg,
        "rng": {"scheme": "stateless-counter", "seed": train_config.seed},
    }


def _manifest(shapes: dict[str, tuple[int, ...]]) -> list:
    """The checkpoint's "tensors" list for parameters of these shapes."""
    return [
        [prefix + name, list(shape)]
        for prefix in ("", "opt.m.", "opt.v.")
        for name, shape in shapes.items()
    ]


def save_training_checkpoint(
    path: str,
    model_config: ModelConfig,
    train_config: TrainConfig,
    step: int,
    params: Params,
    opt: OptState,
) -> None:
    """Write ``opt``'s buffers, which ``params`` must view, atomically.

    Each buffer goes out in one write, with no copy on a little-endian host.
    """
    if model.arena_buffer(params) is not opt.params:
        raise ValueError("params do not view the optimizer's parameter buffer")
    header = _config_header(model_config, train_config)
    header["format"] = CHECKPOINT_FORMAT
    header["step"] = step
    header["tensors"] = _manifest({name: tensor.shape for name, tensor in params.items()})
    line = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    with atomic_write(path) as fh:
        fh.write(line.encode("utf-8"))
        for buffer in (opt.params, opt.moments):
            fh.write(buffer.astype("<f8", copy=False))


def load_training_checkpoint(path: str) -> tuple[dict, Params, OptState]:
    """Header, params and optimizer state of a training checkpoint.

    The payload is read straight into the state's parameter buffer, which
    the returned params view, and then into its moment buffer.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint: {path}")
        shapes = {
            name: tuple(shape) for name, shape in header["tensors"] if not name.startswith("opt.")
        }
        if header["tensors"] != _manifest(shapes):
            raise ValueError(f"tensors are not params, opt.m and opt.v in order: {path}")
        _, params = model.tensor_arena(shapes)
        opt = OptState(params, step=header["step"])
        for buffer in (opt.params, opt.moments):
            if fh.readinto(buffer) != buffer.nbytes:
                raise ValueError(f"truncated checkpoint: {path}")
            if not np.little_endian:
                buffer.byteswap(inplace=True)
        if fh.read(1):
            raise ValueError(f"trailing bytes after the last tensor: {path}")
    return header, params, opt


def _headers_match(header: dict, model_config: ModelConfig, train_config: TrainConfig) -> bool:
    want = _config_header(model_config, train_config)
    have = {"model": header.get("model"), "train": header.get("train"), "rng": header.get("rng")}
    return json.loads(json.dumps(want)) == have


def _cut_metrics(path: str, step: int) -> None:
    """Keep only the metrics records of steps before ``step``.

    A run resumed from the checkpoint of ``step`` logs every later step
    again, so the records a longer earlier run wrote after that point go.
    A torn last line (no newline) goes too. The file is replaced atomically.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        lines = fh.readlines()
    keep = [
        line for line in lines if line.endswith(b"\n") and json.loads(line)["step"] < step
    ]
    if len(keep) == len(lines):
        return
    with atomic_write(path) as fh:
        fh.writelines(keep)


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    dataset: list[np.ndarray],
    vocab: Vocab,
    out_dir: str | None = None,
    resume_from: str | None = None,
    stop_after: int | None = None,
    log_timings: bool = False,
) -> TrainResult:
    """Run (part of) a training job in ``out_dir``, which it owns.

    ``stop_after`` ends the loop early at the given step so a run can be
    split and resumed. The run always ends by checkpointing its last step,
    and evaluates after its last step only at the configured total. A fresh
    run writes ``vocab.txt``, starts the metrics afresh and removes an
    earlier run's checkpoints; a resumed run raises ``ValueError`` before
    it touches a file if ``vocab`` differs from ``vocab.txt``. The metrics
    written so far are flushed and fsynced before each checkpoint. The
    result holds the final params and step but not the optimizer moments,
    which only the checkpoint keeps.
    """
    if stop_after is not None and stop_after < 0:
        raise ValueError("stop_after must be >= 0")
    if model_config.vocab_size != vocab.size:
        raise ValueError("model vocab_size does not match the vocabulary")
    if not dataset:
        raise ValueError("empty dataset")
    total = train_config.total_steps
    stop = total if stop_after is None else min(stop_after, total)

    if resume_from is not None:
        header, params, opt = load_training_checkpoint(resume_from)
        if not _headers_match(header, model_config, train_config):
            raise ValueError("config mismatch between checkpoint and requested run")
    else:
        params = model.init_params(model_config)
        opt = init_opt_state(params)

    metrics = RunMetrics()
    metrics_fh = None
    ckpt_dir = None
    if out_dir is not None:
        vocab_path = os.path.join(out_dir, "vocab.txt")
        if resume_from is not None and load_vocab(vocab_path) != vocab:
            raise ValueError(f"the given vocabulary differs from {vocab_path!r}")
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        if resume_from is not None:
            _cut_metrics(metrics_path, opt.step)
        else:
            save_vocab(vocab, vocab_path)
            for path in glob.glob(os.path.join(glob.escape(ckpt_dir), "step-*.ckpt")):
                os.remove(path)
        metrics_fh = open(metrics_path, "ab" if resume_from is not None else "wb")

    def run_eval(p: Params) -> float:
        return evaluate.eval_mlm(
            p, model_config, dataset, train_config.eval, train_config.batch_size
        )

    def save_step_checkpoint(step: int) -> str | None:
        if ckpt_dir is None:
            return None
        # every record before the checkpoint reaches the disk first: a run
        # resumed from it keeps them and logs only the later steps again
        metrics_fh.flush()
        os.fsync(metrics_fh.fileno())
        path = os.path.join(ckpt_dir, f"step-{step}.ckpt")
        save_training_checkpoint(path, model_config, train_config, step, params, opt)
        return path

    try:
        eval_every, checkpoint_every = train_config.eval_every, train_config.checkpoint_every
        for t in range(opt.step, stop):
            t0 = time.perf_counter()
            rate = masking_rate(train_config.schedule, t)
            record = MetricsRecord(step=t, rate=rate, lr=lr_at(train_config, t), loss=math.nan)
            # the last step evaluates once, after its update
            if eval_every and t % eval_every == 0 and t != total - 1:
                record.eval_loss = run_eval(params)

            idx = batch_indices(len(dataset), train_config.batch_size, train_config.seed, t)
            seqs = [dataset[int(i)] for i in idx]
            outcomes, ids, real = corrupt_batch(
                seqs, rate, vocab.size, train_config.seed, t, train_config.corruption
            )
            labels, rows, cols = collate_targets(outcomes)
            if labels.size == 0:
                raise TrainingDiverged(t, f"loss undefined: no position masked at rate {rate!r}")
            maskable_total = sum(o.maskable for o in outcomes)
            fraction = train_config.corruption.subset_loss_fraction
            if fraction is not None:
                labels, rows, cols = restrict_loss_budget(
                    labels,
                    rows,
                    cols,
                    maskable_total,
                    fraction,
                    counter_rng(train_config.seed, "loss_subset", t),
                )
            loss, grads = model.backward(
                params, model_config, ids, real, {train_config.objective: (labels, rows, cols)}
            )
            if not math.isfinite(loss):
                raise TrainingDiverged(t, f"non-finite loss {loss!r}")
            if train_config.grad_clip is not None:
                clip_gradients(grads, train_config.grad_clip)
            adamw_step(params, grads, opt, record.lr, train_config)

            record.loss = loss
            record.masked = sum(o.mask_set.size for o in outcomes)
            record.maskable = maskable_total
            record.loss_positions = labels.size
            if t == total - 1:
                record.eval_loss = run_eval(params)
            record.wall_ms = (time.perf_counter() - t0) * 1000.0
            metrics.append(record)
            if metrics_fh is not None:
                metrics_fh.write((record.to_json(log_timings) + "\n").encode("utf-8"))

            done = t + 1
            if checkpoint_every and done % checkpoint_every == 0 and done < stop:
                save_step_checkpoint(done)
        final_ckpt = save_step_checkpoint(opt.step)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    return TrainResult(params, opt.step, metrics, final_ckpt)
