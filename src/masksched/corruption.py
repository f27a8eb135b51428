"""Token corruption: BERT-style 80/10/10 masking and RTS, one path per batch.

``corrupt_batch`` is the one entry point. It checks the batch's rate once,
allocates the padded batch, then runs one row step per sequence: copy the
sequence into its batch row, select each maskable position with
probability ``rate``, then mask (MLM) or substitute (RTS) the selection in
that row. All randomness flows through caller-owned numpy Generators, one
per sequence, so a batch's bytes do not depend on how its rows are
processed. Special tokens (ids 0..4) are never masked, substituted, or
labeled. The loss-subset ablation's policy lives here too: the config
field, its check and ``restrict_loss_budget``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MASK_ID, N_SPECIALS, PAD_ID

# BERT's fixed split of the selected MLM positions: this share becomes
# [MASK], the next share a uniform non-special id, and the rest stays.
_MASK_FRAC = 0.8
_RANDOM_FRAC = 0.1


@dataclass(frozen=True)
class CorruptionConfig:
    """How training examples are corrupted.

    The MLM split of the selected positions is BERT's 80/10/10 and is not
    configurable; the masking rate comes from the schedule.
    ``subset_loss_fraction`` enables the ablation where masking follows the
    schedule but the loss is restricted to a fixed fraction of the batch's
    maskable tokens (``restrict_loss_budget`` draws that subset for the
    whole batch); it applies to the MLM objective only.
    ``min_masked`` is 0 or 1: with 1, one maskable index is force-included
    when the Bernoulli draw comes up empty, so the per-example loss is
    always defined. An invalid config raises ``ValueError`` when it is built.
    """

    objective: str = "mlm"
    subset_loss_fraction: float | None = None
    min_masked: int = 1

    def __post_init__(self) -> None:
        if self.objective not in ("mlm", "rts"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.subset_loss_fraction is not None and not (0 < self.subset_loss_fraction <= 1):
            raise ValueError("subset_loss_fraction must be in (0, 1]")
        if self.subset_loss_fraction is not None and self.objective != "mlm":
            raise ValueError("subset_loss_fraction requires the mlm objective")
        if self.min_masked not in (0, 1):
            raise ValueError(f"min_masked must be 0 or 1, got {self.min_masked!r}")


@dataclass
class MaskOutcome:
    """One corrupted sequence, as ``corrupt_batch`` returns it per row.

    For MLM, ``mask_set`` and ``loss_set`` are the masked positions and
    ``labels`` holds the original ids there. For RTS, ``mask_set`` is the
    substituted positions, ``loss_set`` is every maskable position and
    ``labels`` holds a 0/1 substitution flag per position. ``maskable``
    counts the row's maskable positions. Position arrays are ascending.
    ``corrupted`` is a view of the row's slice of the padded batch, not a
    copy. A row with nothing to mask gets the empty outcome: its unchanged
    batch row as ``corrupted``, empty index arrays and ``maskable == 0``.
    """

    corrupted: np.ndarray
    mask_set: np.ndarray
    loss_set: np.ndarray
    labels: np.ndarray
    maskable: int


def maskable_indices(ids: np.ndarray) -> np.ndarray:
    """Positions eligible for corruption: everything but the special ids."""
    return np.flatnonzero(ids >= N_SPECIALS)


def round_half_up(x: float) -> int:
    """round() with half-up ties, used for loss-subset sizing."""
    return int(math.floor(x + 0.5))


def restrict_loss_budget(
    labels: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    maskable_total: int,
    fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cap the batch's loss positions at a fraction of its maskable tokens.

    The subset is drawn uniformly from the pooled masked positions of the
    whole batch, so the step-level budget |loss_set| <= round(fraction *
    maskable) holds exactly (per-sequence rounding could overshoot it). At
    least one position is always kept so the loss stays defined.
    """
    budget = max(1, round_half_up(fraction * maskable_total))
    if labels.size <= budget:
        return labels, rows, cols
    keep = np.sort(rng.choice(labels.size, size=budget, replace=False))
    return labels[keep], rows[keep], cols[keep]


def corrupt_batch(
    seqs: list[np.ndarray],
    rate: float,
    vocab_size: int,
    rngs: list[np.random.Generator],
    config: CorruptionConfig = CorruptionConfig(),
) -> tuple[list[MaskOutcome], np.ndarray, np.ndarray]:
    """Corrupt row i with ``rngs[i]`` in its row of the padded batch.

    Returns the per-row outcomes and the right-padded (ids, real_mask). The
    input sequences are not modified. A row with nothing to mask gets the
    empty outcome and enters the batch unchanged; it contributes context
    but no loss terms.
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"rate out of [0,1]: {rate!r}")
    if config.objective == "rts" and vocab_size - N_SPECIALS < 2:
        raise ValueError("cannot substitute: need at least 2 non-special tokens")
    lengths = np.array([len(seq) for seq in seqs])
    ids = np.full((len(seqs), lengths.max()), PAD_ID, dtype=np.int64)
    real = np.arange(ids.shape[1]) < lengths[:, None]
    outcomes = []
    for padded, seq, rng in zip(ids, seqs, rngs, strict=True):
        row = padded[: len(seq)]
        row[:] = seq
        outcomes.append(_corrupt_row(row, rate, vocab_size, rng, config))
    return outcomes, ids, real


def _corrupt_row(row, rate, vocab_size, rng, config) -> MaskOutcome:
    """Select each maskable position independently with probability ``rate``.

    ``row`` is the sequence's batch row, holding its original ids; it is
    corrupted in place and becomes the outcome's ``corrupted``.

    MLM: an empty draw with ``min_masked == 1`` force-includes one uniformly
    random maskable position (resampling the whole mask would bias the
    realized rate further). Each selected position then becomes [MASK]
    (80%), a uniform non-special id (10%, which may equal the original, as
    in BERT) or stays (10%), drawn i.i.d. per position.

    RTS: each selected position gets a uniform non-special id *different
    from the original*, so the 0/1 label is well defined, and every
    maskable position is labeled.
    """
    maskable = maskable_indices(row)
    n = maskable.size
    if n == 0:  # the empty outcome; ``maskable`` is an empty index array
        return MaskOutcome(row, maskable, maskable, maskable, 0)
    hit = rng.random(n) < rate
    selected = maskable[hit]
    if config.objective == "rts":
        # Draw over vocab_size - 1 non-special ids and skip past the
        # original, giving a uniform draw over the ids != original.
        draws = rng.integers(N_SPECIALS, vocab_size - 1, size=selected.size)
        row[selected] = draws + (draws >= row[selected])
        return MaskOutcome(row, selected, maskable, hit.astype(np.int64), n)
    if selected.size == 0 and config.min_masked:
        selected = maskable[[rng.integers(n)]]
    labels = row[selected]  # the original ids, read before the row is written
    u = rng.random(selected.size)
    to_mask = u < _MASK_FRAC
    to_random = (~to_mask) & (u < _MASK_FRAC + _RANDOM_FRAC)
    row[selected[to_mask]] = MASK_ID
    row[selected[to_random]] = rng.integers(
        N_SPECIALS, vocab_size, size=int(to_random.sum())
    )
    return MaskOutcome(row, selected, selected, labels, n)


def collate_targets(outcomes: list[MaskOutcome]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-sequence loss sets into (labels, rows, cols) arrays."""
    sizes = [o.loss_set.size for o in outcomes]
    rows = np.repeat(np.arange(len(outcomes), dtype=np.int64), sizes)
    labels = np.concatenate([o.labels for o in outcomes])
    return labels, rows, np.concatenate([o.loss_set for o in outcomes])
