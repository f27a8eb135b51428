"""Fixed-rate MLM evaluation, pseudo-log-likelihood, minimal-pair accuracy.

Evaluation masks are derived from the eval seed alone, so two checkpoints
scored with the same EvalConfig see identical masks and their losses are
directly comparable. Sentence scoring replaces one position at a time with
[MASK] (no 80/10/10 here) and sums the masked-token log-likelihoods.

Minimal-pair files are UTF-8 TSV with a header row and columns
pair_id, super_task, sentence_good, sentence_bad.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from . import model
from .corruption import collate_targets, corrupt_batch, maskable_indices
from .data import MASK_ID, Vocab, counter_rng, encode, read_table
from .model import ModelConfig, Params


@dataclass(frozen=True)
class EvalConfig:
    """Fixed evaluation masking; an invalid config raises ``ValueError`` when built."""

    masking_rate: float = 0.15
    seed: int = 0
    n_batches: int = 8

    def __post_init__(self) -> None:
        if not (0.0 <= self.masking_rate <= 1.0):
            raise ValueError("eval masking_rate out of [0,1]")
        if self.n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        if self.seed < 0:
            raise ValueError("eval seed must be >= 0")


@dataclass(frozen=True)
class MinimalPair:
    pair_id: str
    super_task: str
    sentence_good: str
    sentence_bad: str


def eval_batches(dataset: list[np.ndarray], cfg: EvalConfig, batch_size: int):
    """First n_batches of the dataset in natural order (masks vary, data does not)."""
    n = min(cfg.n_batches * batch_size, len(dataset))
    for b, start in enumerate(range(0, n, batch_size)):
        yield b, dataset[start : start + batch_size]


def eval_mlm(
    params: Params,
    config: ModelConfig,
    dataset: list[np.ndarray],
    cfg: EvalConfig = EvalConfig(),
    batch_size: int = 16,
    return_mask_digest: bool = False,
):
    """Mean of per-batch mean NLL under fixed-seed corruption; no updates.

    With ``return_mask_digest`` the SHA-256 over all sampled mask indices is
    returned too, to let callers assert that two evaluations saw the same
    masks.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not dataset:
        raise ValueError("empty evaluation set")
    digest = hashlib.sha256()
    batch_losses = []
    for b, seqs in eval_batches(dataset, cfg, batch_size):
        rngs = [counter_rng(cfg.seed, "eval", b, r) for r in range(len(seqs))]
        outcomes, ids, real = corrupt_batch(seqs, cfg.masking_rate, config.vocab_size, rngs)
        for r, o in enumerate(outcomes):
            if o.loss_set.size:
                digest.update(np.asarray([r], dtype=np.int64).tobytes())
                digest.update(o.mask_set.astype(np.int64).tobytes())
        labels, rows, cols = collate_targets(outcomes)
        if labels.size == 0:
            continue
        batch_losses.append(model.loss(params, config, ids, real, {"mlm": (labels, rows, cols)}))
    if not batch_losses:
        raise ValueError("empty evaluation set: no maskable positions")
    mean_loss = float(np.mean(batch_losses))
    if return_mask_digest:
        return mean_loss, digest.hexdigest()
    return mean_loss


def pll(params: Params, config: ModelConfig, ids: np.ndarray) -> float:
    """Pseudo-log-likelihood: mask each non-special position in turn and sum
    the log-likelihood of the hidden token. One batched forward covers all
    positions (rows are independent); the head scores only row i's masked
    position."""
    ids = np.asarray(ids, dtype=np.int64)
    positions = maskable_indices(ids)
    if positions.size == 0:
        raise ValueError("sentence has no scoreable tokens")
    rows = np.arange(positions.size)
    batch = np.tile(ids, (positions.size, 1))
    batch[rows, positions] = MASK_ID
    real = np.ones_like(batch, dtype=bool)
    out = model.forward(params, config, batch, real, heads=("mlm",), positions=(rows, positions))
    logp = model.log_softmax(out.mlm_logits)
    return float(logp[rows, ids[positions]].sum())


def load_minimal_pairs(path: str) -> list[MinimalPair]:
    columns = [f.name for f in fields(MinimalPair)]
    return [MinimalPair(**cells) for _, cells in read_table(path, columns, delimiter="\t")]


def minimal_pair_accuracy(
    params: Params,
    config: ModelConfig,
    vocab: Vocab,
    pairs: list[MinimalPair],
) -> dict:
    """Per-super-task accuracy plus their unweighted mean.

    A pair is correct iff the grammatical sentence scores strictly higher;
    ties count as incorrect.
    """
    if not pairs:
        raise ValueError("no minimal pairs given")
    correct: dict[str, int] = {}
    totals: dict[str, int] = {}
    for pair in pairs:
        good = encode(vocab, pair.sentence_good, config.max_seq_len)
        bad = encode(vocab, pair.sentence_bad, config.max_seq_len)
        score_good = pll(params, config, good)
        score_bad = pll(params, config, bad)
        totals[pair.super_task] = totals.get(pair.super_task, 0) + 1
        if score_good > score_bad:
            correct[pair.super_task] = correct.get(pair.super_task, 0) + 1
    per_task = {
        task: correct.get(task, 0) / totals[task] for task in sorted(totals)
    }
    overall = sum(per_task.values()) / len(per_task)
    return {"super_tasks": per_task, "overall": overall}
