"""Workload definitions and their seeded inputs.

Every workload is the same user session, sized differently: build the
vocabulary, then cycles of one ``trainer.train`` run into a run directory
followed by scoring rounds on the first run's checkpoint, the way
``masksched eval`` does (load it, fixed-rate ``eval_mlm``, minimal-pair
accuracy). The sizes decide which layer the time goes to:

- toy-train: the pinned c06 run (L2 d32 ff64, V200, S16, B16, 2,000 Zipf
  lines, constant-0.15). The step is a few ms of small numpy calls, so
  Python overhead in data, corruption and the optimizer dominates.
- medium-train: L4 d128 ff512, V2000, S64, sentences of 20-62 words, a
  decaying linear-0.3-0.15 schedule. The step is flop-bound in the model,
  and the falling rate moves the number of loss positions per step.
- score: the same medium shape, trained briefly at batch 2 to write the
  checkpoint, then scored. About half the time goes to forward-only
  passes, where PLL uses one head position per row.

Inputs depend only on the workload seed. Seed 0 of toy-train is exactly the
c06 run of the acceptance suite (corpus seed 0, init seed 0, train seed 7,
eval seed 1234).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from masksched.data import synthetic_zipf_corpus
from masksched.evaluate import EvalConfig
from masksched.model import ModelConfig
from masksched.schedule import parse_schedule
from masksched.trainer import TrainConfig

# Seed-derivation domain for the minimal-pair draw (disjoint from the
# library's own domains).
_PAIRS_DOMAIN = 909

# c06's pinned final eval loss and its band (tests/test_acceptance.py).
C06_FINAL_EVAL_LOSS = 4.068128334118537
C06_BAND = 0.05
C06_MIN_DROP = 0.8

# Cycles of one trainer.train run plus scoring that every run makes at least.
MIN_CYCLES = 2
# Batch size of the scoring eval_mlm, as masksched eval's default.
EVAL_BATCH_SIZE = 16
# Steps at the start of each run dropped from the step-time percentiles.
WARMUP_STEPS = 10
# Timed set-ups at each point of a run where set-up time is sampled.
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Spec:
    name: str
    # corpus
    n_lines: int
    word_types: int
    min_words: int
    max_words: int
    vocab_size: int
    # model
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    max_seq_len: int
    # training
    total_steps: int
    batch_size: int
    schedule: str
    eval_every: int
    checkpoint_every: int
    # scoring
    eval_batches: int
    n_pairs: int
    score_rounds: int  # scoring rounds per cycle

    @property
    def warmup_steps(self) -> int:
        return min(WARMUP_STEPS, self.total_steps // 4)

    def model_config(self, seed: int, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_model=self.d_model,
            d_ff=self.d_ff,
            vocab_size=vocab_size,
            max_seq_len=self.max_seq_len,
            init_seed=seed,
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            total_steps=self.total_steps,
            batch_size=self.batch_size,
            schedule=parse_schedule(self.schedule, self.total_steps),
            seed=7 + seed,
            eval_every=self.eval_every,
            checkpoint_every=self.checkpoint_every,
            eval=self.eval_config(seed, 8),
        )

    def eval_config(self, seed: int, n_batches: int | None = None) -> EvalConfig:
        return EvalConfig(
            masking_rate=0.15,
            seed=1234 + seed,
            n_batches=self.eval_batches if n_batches is None else n_batches,
        )

    def is_c06(self, seed: int) -> bool:
        return self == WORKLOADS["toy-train"] and seed == 0


WORKLOADS = {
    "toy-train": Spec(
        name="toy-train",
        n_lines=2000, word_types=195, min_words=6, max_words=14, vocab_size=200,
        n_layers=2, n_heads=2, d_model=32, d_ff=64, max_seq_len=16,
        total_steps=2000, batch_size=16, schedule="constant-0.15",
        eval_every=500, checkpoint_every=1000,
        eval_batches=128, n_pairs=96, score_rounds=12,
    ),
    "medium-train": Spec(
        name="medium-train",
        n_lines=4000, word_types=1995, min_words=20, max_words=62, vocab_size=2000,
        n_layers=4, n_heads=4, d_model=128, d_ff=512, max_seq_len=64,
        total_steps=60, batch_size=8, schedule="linear-0.3-0.15",
        eval_every=0, checkpoint_every=0,
        eval_batches=8, n_pairs=2, score_rounds=2,
    ),
    "score": Spec(
        name="score",
        n_lines=4000, word_types=1995, min_words=20, max_words=62, vocab_size=2000,
        n_layers=4, n_heads=4, d_model=128, d_ff=512, max_seq_len=64,
        total_steps=110, batch_size=2, schedule="linear-0.3-0.15",
        eval_every=0, checkpoint_every=0,
        eval_batches=8, n_pairs=8, score_rounds=1,
    ),
}


def tiny(spec: Spec) -> Spec:
    """The same workload at self-check size: seconds instead of minutes."""
    return dataclasses.replace(
        spec,
        n_lines=60,
        word_types=min(spec.word_types, 40),
        max_words=min(spec.max_words, 12),
        min_words=min(spec.min_words, 6),
        vocab_size=min(spec.vocab_size, 40),
        n_layers=1,
        d_model=8,
        d_ff=16,
        max_seq_len=min(spec.max_seq_len, 16),
        total_steps=12,
        eval_every=6 if spec.eval_every else 0,
        checkpoint_every=6 if spec.checkpoint_every else 0,
        eval_batches=2,
        n_pairs=2,
        score_rounds=2,
    )


# eval_loss_end at seed 0, at full and at self-check size. A run at seed 0
# fails its output check if the value moves by more than PINNED_RTOL of
# itself: a speedup may reorder floating-point sums, not change the math.
PINNED_RTOL = 1e-4
PINNED_EVAL_LOSS = {
    WORKLOADS["toy-train"]: 4.079295390239475,
    WORKLOADS["medium-train"]: 6.196789087854283,
    WORKLOADS["score"]: 5.960623676666465,
    tiny(WORKLOADS["toy-train"]): 3.660519233189829,
    tiny(WORKLOADS["medium-train"]): 3.660239739167978,
    tiny(WORKLOADS["score"]): 3.6691914471838247,
}


def corpus_lines(spec: Spec, seed: int) -> list[str]:
    return synthetic_zipf_corpus(
        spec.n_lines, spec.word_types, seed, spec.min_words, spec.max_words
    )


def minimal_pairs(spec: Spec, seed: int, lines: list[str]) -> list[tuple[str, str, str, str]]:
    """(pair_id, super_task, good, bad): a corpus line and the same line with
    two adjacent, different words swapped.

    The good sentences' lengths are spread evenly over the corpus's length
    range, the same for every seed, so the PLL cost of a pair set does not
    depend on the seed; the seed picks the lines and the swap positions.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, _PAIRS_DOMAIN)))
    rank = rng.permutation(len(lines))
    words = [line.split() for line in lines]
    usable = [i for i, w in enumerate(words) if any(a != b for a, b in zip(w, w[1:]))]
    span = spec.max_words - spec.min_words + 1
    pairs = []
    for k in range(spec.n_pairs):
        target = spec.min_words + (2 * k + 1) * span // (2 * spec.n_pairs)
        i = min(usable, key=lambda i: (abs(len(words[i]) - target), rank[i]))
        usable.remove(i)
        w = words[i]
        spots = [j for j in range(len(w) - 1) if w[j] != w[j + 1]]
        j = spots[int(rng.integers(len(spots)))]
        bad = w[:j] + [w[j + 1], w[j]] + w[j + 2 :]
        task = "swap-early" if j < len(w) // 2 else "swap-late"
        pairs.append((f"p{k}", task, " ".join(w), " ".join(bad)))
    return pairs
