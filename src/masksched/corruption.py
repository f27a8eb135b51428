"""Token corruption: BERT-style 80/10/10 masking and RTS, per row and per batch.

All randomness flows through caller-owned numpy Generators, one per
sequence, so a batch's bytes do not depend on how its rows are processed.
Special tokens (ids 0..4) are never masked, substituted, or labeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MASK_ID, N_SPECIALS, pad_batch


@dataclass(frozen=True)
class CorruptionConfig:
    """How training examples are corrupted.

    ``subset_loss_fraction`` enables the ablation where masking follows the
    schedule but the loss is restricted to a fixed fraction of the batch's
    maskable tokens (the trainer draws that subset for the whole batch).
    ``min_masked = 1`` force-includes one maskable index when the Bernoulli
    draw comes up empty, so the per-example loss is always defined.
    An invalid config raises ``ValueError`` when it is built.
    """

    objective: str = "mlm"
    replace_mask_frac: float = 0.8
    replace_random_frac: float = 0.1
    keep_frac: float = 0.1
    subset_loss_fraction: float | None = None
    min_masked: int = 1

    def __post_init__(self) -> None:
        if self.objective not in ("mlm", "rts"):
            raise ValueError(f"unknown objective {self.objective!r}")
        total = math.fsum(
            (self.replace_mask_frac, self.replace_random_frac, self.keep_frac)
        )
        if total != 1.0:
            raise ValueError("replacement fractions must sum to 1.0 exactly")
        if self.subset_loss_fraction is not None and not (0 < self.subset_loss_fraction <= 1):
            raise ValueError("subset_loss_fraction must be in (0, 1]")
        if self.min_masked < 0:
            raise ValueError("min_masked must be >= 0")


@dataclass
class MaskOutcome:
    """One corrupted sequence.

    For MLM, ``labels`` holds the original ids at ``loss_set`` positions.
    For RTS, ``loss_set`` is every maskable position and ``labels`` holds a
    0/1 substitution flag per position. ``maskable`` counts the row's
    maskable positions; ``apply_bert_corruption``, which sees only the mask
    set, leaves it None and ``corrupt_sequence`` fills it in.
    """

    corrupted: np.ndarray
    mask_set: np.ndarray
    loss_set: np.ndarray
    labels: np.ndarray
    maskable: int | None = None


def maskable_indices(ids: np.ndarray) -> np.ndarray:
    """Positions eligible for corruption: everything but the special ids."""
    return np.flatnonzero(ids >= N_SPECIALS)


def round_half_up(x: float) -> int:
    """round() with half-up ties, used for loss-subset sizing."""
    return int(math.floor(x + 0.5))


def sample_mask(
    maskable: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    min_masked: int = 1,
) -> np.ndarray:
    """Include each maskable index independently with probability ``rate``.

    An empty draw with ``min_masked >= 1`` force-includes one uniformly
    random maskable index (resampling the whole mask would bias the
    realized rate further).
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"rate out of [0,1]: {rate!r}")
    maskable = np.asarray(maskable, dtype=np.int64)
    if maskable.size == 0:
        if rate > 0:
            raise ValueError("nothing to mask: no maskable positions")
        return np.empty(0, dtype=np.int64)
    chosen = maskable[rng.random(maskable.size) < rate]
    if chosen.size == 0 and min_masked >= 1:
        chosen = maskable[[rng.integers(maskable.size)]]
    return np.sort(chosen)


def apply_bert_corruption(
    ids: np.ndarray,
    mask_set: np.ndarray,
    vocab_size: int,
    rng: np.random.Generator,
    config: CorruptionConfig = CorruptionConfig(),
) -> MaskOutcome:
    """80/10/10 corruption of the masked positions, sampled i.i.d. per token.

    ``mask_set`` must be sorted ascending, as ``sample_mask`` returns it.
    Random replacements draw uniformly over non-special ids and may equal
    the original token (standard BERT behavior).
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask_set = np.asarray(mask_set, dtype=np.int64)
    corrupted = ids.copy()
    k = mask_set.size
    if k:
        u = rng.random(k)
        to_mask = u < config.replace_mask_frac
        to_random = (~to_mask) & (u < config.replace_mask_frac + config.replace_random_frac)
        corrupted[mask_set[to_mask]] = MASK_ID
        n_random = int(to_random.sum())
        if n_random:
            corrupted[mask_set[to_random]] = rng.integers(
                N_SPECIALS, vocab_size, size=n_random
            )
    return MaskOutcome(
        corrupted=corrupted,
        mask_set=mask_set,
        loss_set=mask_set,
        labels=ids[mask_set],
    )


def apply_rts(
    ids: np.ndarray,
    rate: float,
    vocab_size: int,
    rng: np.random.Generator,
) -> MaskOutcome:
    """Random-token substitution: flip each maskable token with prob ``rate``.

    Substitutes draw uniformly over non-special ids *different from the
    original* (the 0/1 label must be well-defined), and every maskable
    position is labeled.
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"rate out of [0,1]: {rate!r}")
    if vocab_size - N_SPECIALS < 2:
        raise ValueError("cannot substitute: need at least 2 non-special tokens")
    ids = np.asarray(ids, dtype=np.int64)
    maskable = maskable_indices(ids)
    corrupted = ids.copy()
    flags = np.zeros(maskable.size, dtype=np.int64)
    if maskable.size:
        hit = rng.random(maskable.size) < rate
        flags[hit] = 1
        positions = maskable[hit]
        if positions.size:
            # Draw over vocab_size - 1 non-special ids and skip past the
            # original, giving a uniform draw over the ids != original.
            draws = rng.integers(N_SPECIALS, vocab_size - 1, size=positions.size)
            draws = draws + (draws >= ids[positions])
            corrupted[positions] = draws
    return MaskOutcome(
        corrupted=corrupted,
        mask_set=np.sort(maskable[flags == 1]),
        loss_set=maskable,
        labels=flags,
        maskable=maskable.size,
    )


def corrupt_sequence(
    ids: np.ndarray,
    rate: float,
    vocab_size: int,
    rng: np.random.Generator,
    config: CorruptionConfig = CorruptionConfig(),
) -> MaskOutcome | None:
    """Corrupt one sequence per the configured objective.

    Returns None when the sequence has no maskable positions (such rows
    contribute context but no loss terms).
    """
    ids = np.asarray(ids, dtype=np.int64)
    maskable = maskable_indices(ids)
    if maskable.size == 0:
        return None
    if config.objective == "rts":
        return apply_rts(ids, rate, vocab_size, rng)
    mask_set = sample_mask(maskable, rate, rng, config.min_masked)
    outcome = apply_bert_corruption(ids, mask_set, vocab_size, rng, config)
    outcome.maskable = maskable.size
    return outcome


def corrupt_batch(
    seqs: list[np.ndarray],
    rate: float,
    vocab_size: int,
    rngs: list[np.random.Generator],
    config: CorruptionConfig = CorruptionConfig(),
) -> tuple[list[MaskOutcome | None], np.ndarray, np.ndarray]:
    """Corrupt row i with ``rngs[i]`` and right-pad the result.

    Returns the per-row outcomes and the padded (ids, real_mask); rows with
    nothing to mask enter the batch unchanged.
    """
    outcomes = [
        corrupt_sequence(seq, rate, vocab_size, rng, config)
        for seq, rng in zip(seqs, rngs, strict=True)
    ]
    ids, real = pad_batch([seq if o is None else o.corrupted for seq, o in zip(seqs, outcomes)])
    return outcomes, ids, real


def collate_targets(outcomes: list[MaskOutcome | None]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-sequence loss sets into (labels, rows, cols) arrays."""
    labels: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for row, outcome in enumerate(outcomes):
        if outcome is None or outcome.loss_set.size == 0:
            continue
        labels.append(outcome.labels)
        rows.append(np.full(outcome.loss_set.size, row, dtype=np.int64))
        cols.append(outcome.loss_set)
    if not labels:
        return (np.empty(0, dtype=np.int64),) * 3
    return np.concatenate(labels), np.concatenate(rows), np.concatenate(cols)
