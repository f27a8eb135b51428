"""Corpus ingestion, vocabulary construction, tokenization, seeded batching.

Deliberately simple at desk scale: whitespace tokenization over lowercased
lines, a frequency-capped vocabulary, and one line = one sequence. Corpus
files are UTF-8 plain text with one document per line (LF endings); vocab
files hold one token per line where the line number is the id. Both are
bit-exactly reproducible from the same inputs.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

PAD_TOKEN = "[PAD]"
MASK_TOKEN = "[MASK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
UNK_TOKEN = "[UNK]"
SPECIAL_TOKENS = (PAD_TOKEN, MASK_TOKEN, CLS_TOKEN, SEP_TOKEN, UNK_TOKEN)
PAD_ID, MASK_ID, CLS_ID, SEP_ID, UNK_ID = range(5)
N_SPECIALS = len(SPECIAL_TOKENS)

# Every random stream is keyed by (seed, domain, *counters): one domain per
# kind of draw keeps the streams disjoint, and the counters make a draw a
# pure function of where it happens, so a run is bit-reproducible and a
# resumed run draws what an uninterrupted one would.
RNG_DOMAINS = {  # name -> domain, with the counters its draws pass
    "synthetic_corpus": 7,  # none
    "shuffle": 101,  # epoch
    "corruption": 202,  # step, row
    "loss_subset": 204,  # step
    "eval": 303,  # eval batch, row
    "gradcheck_case": 909,  # none
    "gradcheck_coords": 910,  # none
}

# A token sequence is an int64 id array: [CLS] ... [SEP], optionally padded.
TokenSequence = np.ndarray


@dataclass(frozen=True)
class Vocab:
    """Dense token<->id mapping with the five specials pinned to ids 0..4."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.tokens[:N_SPECIALS] != SPECIAL_TOKENS:
            raise ValueError("vocab must start with the special tokens in order")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    def lookup(self, token: str) -> int:
        return self._index.get(token, UNK_ID)


def build_vocab(corpus: Iterable[str], max_size: int) -> Vocab:
    """Specials plus the (max_size - 5) most frequent lowercased tokens.

    Frequency ties break lexicographically.
    """
    if max_size < N_SPECIALS + 1:
        raise ValueError("vocab too small: max_size must be at least 6")
    counts: Counter[str] = Counter()
    for line in corpus:
        counts.update(line.lower().split())
    if not counts:
        raise ValueError("empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = tuple(tok for tok, _ in ranked[: max_size - N_SPECIALS])
    return Vocab(SPECIAL_TOKENS + kept)


def encode(vocab: Vocab, line: str, max_len: int) -> TokenSequence:
    """[CLS] + token ids (OOV -> [UNK]) + [SEP], truncated from the right."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    words = line.lower().split()[: max_len - 2]
    ids = [CLS_ID] + [vocab.lookup(w) for w in words] + [SEP_ID]
    return np.asarray(ids, dtype=np.int64)


def counter_rng(seed: int, domain: str, *counters: int) -> np.random.Generator:
    """The generator of the ``RNG_DOMAINS[domain]`` stream at ``counters``."""
    return np.random.default_rng(np.random.SeedSequence((seed, RNG_DOMAINS[domain], *counters)))


def epoch_permutation(n_sequences: int, seed: int, epoch: int = 0) -> np.ndarray:
    """Deterministic shuffle of [0, n_sequences) for one epoch."""
    rng = counter_rng(seed, "shuffle", epoch)
    return rng.permutation(n_sequences)


def load_corpus(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def encode_corpus(vocab: Vocab, lines: Iterable[str], max_len: int) -> list[TokenSequence]:
    return [encode(vocab, line, max_len) for line in lines]


@contextmanager
def atomic_write(path: str, mode: str = "wb", **open_kwargs):
    """Write through a temp file that replaces ``path`` only once complete.

    The temp file is fsynced before ``os.replace``, so ``path`` holds either
    its previous bytes or all of the new ones, and the directory is fsynced
    after it, so the rename itself survives a crash (POSIX). If the block
    raises, the temp file is removed and ``path`` is left as it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_vocab(vocab: Vocab, path: str) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        for token in vocab.tokens:
            fh.write(token + "\n")


def read_table(
    path: str, required: Sequence[str], optional: Sequence[str] = (), delimiter: str = ","
) -> list[tuple[int, dict[str, str]]]:
    """(line, cells) for each data row of a UTF-8 delimited file with a
    header row; ``cells`` maps the ``required`` columns, and the ``optional``
    ones the header names, to their text. ``ValueError``, naming the file
    and line, for a missing required column, a row with more cells than the
    header, a missing or empty cell, or no data rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        header = reader.fieldnames or []
        absent = [c for c in required if c not in header]
        if absent:
            raise ValueError(f"{path}: the header lacks the columns {absent}")
        columns = [*required, *(c for c in optional if c in header)]
        rows = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row:
                raise ValueError(f"{where}: more cells than the {len(header)} header columns")
            empty = [c for c in columns if not row[c]]
            if empty:
                raise ValueError(f"{where}: missing or empty {empty}")
            rows.append((reader.line_num, {c: row[c] for c in columns}))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def load_vocab(path: str) -> Vocab:
    with open(path, encoding="utf-8") as fh:
        return Vocab(tuple(line.rstrip("\n") for line in fh))


def synthetic_zipf_corpus(
    n_lines: int,
    n_word_types: int = 195,
    seed: int = 0,
    min_len: int = 6,
    max_len: int = 14,
) -> list[str]:
    """Toy corpus of iid Zipf-distributed words, for desk-scale runs."""
    rng = counter_rng(seed, "synthetic_corpus")
    words = [f"w{k:03d}" for k in range(n_word_types)]
    weights = 1.0 / np.arange(1, n_word_types + 1)
    probs = weights / weights.sum()
    lines = []
    for _ in range(n_lines):
        length = int(rng.integers(min_len, max_len + 1))
        picks = rng.choice(n_word_types, size=length, p=probs)
        lines.append(" ".join(words[k] for k in picks))
    return lines
