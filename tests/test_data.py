import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masksched.data import (
    CLS_ID,
    N_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocab,
    atomic_write,
    build_vocab,
    encode,
    epoch_permutation,
    load_vocab,
    save_vocab,
    synthetic_zipf_corpus,
)
from masksched.corruption import CorruptionConfig, corrupt_batch
from masksched.model import ModelConfig
from masksched.schedule import parse_schedule
from masksched.trainer import TrainConfig, batch_indices, train


class TestBuildVocab:
    def test_frequency_order(self):
        vocab = build_vocab(["a b a"], max_size=7)
        assert vocab.tokens == SPECIAL_TOKENS + ("a", "b")

    def test_capacity_drop_and_unk(self):
        vocab = build_vocab(["x y"], max_size=6)
        assert vocab.tokens == SPECIAL_TOKENS + ("x",)
        np.testing.assert_array_equal(
            encode(vocab, "x y", 8), [CLS_ID, vocab.lookup("x"), UNK_ID, SEP_ID]
        )

    def test_zipf_corpus_keeps_most_frequent(self):
        lines = synthetic_zipf_corpus(200, n_word_types=150, seed=9)
        vocab = build_vocab(lines, max_size=100)
        # independent frequency count over the same corpus
        counts = {}
        for line in lines:
            for word in line.lower().split():
                counts[word] = counts.get(word, 0) + 1
        expected = sorted(counts, key=lambda w: (-counts[w], w))[:95]
        assert list(vocab.tokens[N_SPECIALS:]) == expected

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocab([], max_size=10)

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ValueError, match="vocab too small"):
            build_vocab(["a"], max_size=5)

    def test_round_trip_ids(self):
        vocab = build_vocab(["a b c b c c"], max_size=10)
        for i, token in enumerate(vocab.tokens):
            assert vocab.lookup(token) == i


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["a b a"], max_size=7)

    def test_wraps_with_cls_sep(self, vocab):
        np.testing.assert_array_equal(
            encode(vocab, "a b", 8), [CLS_ID, vocab.lookup("a"), vocab.lookup("b"), SEP_ID]
        )

    def test_empty_line(self, vocab):
        np.testing.assert_array_equal(encode(vocab, "", 8), [CLS_ID, SEP_ID])

    def test_oov_becomes_unk(self, vocab):
        np.testing.assert_array_equal(
            encode(vocab, "a z", 8), [CLS_ID, vocab.lookup("a"), UNK_ID, SEP_ID]
        )

    def test_truncates_from_right(self, vocab):
        ids = encode(vocab, "a b a b a b", 5)
        assert len(ids) == 5
        np.testing.assert_array_equal(
            ids, [CLS_ID, vocab.lookup("a"), vocab.lookup("b"), vocab.lookup("a"), SEP_ID]
        )

    @settings(max_examples=50)
    @given(
        words=st.lists(st.sampled_from(["a", "b", "zz", "B", "A"]), max_size=12),
        max_len=st.integers(min_value=3, max_value=10),
    )
    def test_decode_round_trip(self, words, max_len):
        vocab = build_vocab(["a b a"], max_size=7)
        line = " ".join(words)
        expected = [w.lower() if w.lower() in ("a", "b") else "[UNK]" for w in words]
        expected = expected[: max_len - 2]
        ids = encode(vocab, line, max_len)
        assert ids[0] == CLS_ID and ids[-1] == SEP_ID
        assert [vocab.tokens[i] for i in ids[1:-1]] == expected


def pad_uncorrupted(seqs, vocab_size=10):
    """The padded (ids, real) batch of ``seqs`` at masking rate 0."""
    rngs = [np.random.default_rng(s) for s in range(len(seqs))]
    _, ids, real = corrupt_batch(seqs, 0.0, vocab_size, rngs, CorruptionConfig(min_masked=0))
    return ids, real


class TestBatches:
    def make_dataset(self, n, vocab):
        return [encode(vocab, " ".join(["a"] * (i % 4 + 1)), 8) for i in range(n)]

    def test_every_sequence_once(self):
        vocab = build_vocab(["a b a"], max_size=7)
        ds = self.make_dataset(4, vocab)
        ids, real = pad_uncorrupted(ds, vocab.size)
        assert ids.shape == (4, max(len(s) for s in ds))
        for row, seq in enumerate(ds):
            np.testing.assert_array_equal(ids[row][real[row]], seq)

    def test_same_seed_identical(self):
        first = [batch_indices(7, 2, seed=7, step=s) for s in range(8)]
        second = [batch_indices(7, 2, seed=7, step=s) for s in range(8)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_remainder_batch_kept(self):
        sizes = [batch_indices(5, 2, seed=0, step=s).size for s in range(6)]
        assert sizes == [2, 2, 1, 2, 2, 1]

    def test_padding_uses_pad_id(self):
        a = np.array([CLS_ID, 7, 8, SEP_ID])
        b = np.array([CLS_ID, SEP_ID])
        ids, real = pad_uncorrupted([a, b])
        np.testing.assert_array_equal(ids, [a, [CLS_ID, SEP_ID, PAD_ID, PAD_ID]])
        np.testing.assert_array_equal(real, [[True] * 4, [True, True, False, False]])

    def test_empty_dataset_rejected(self):
        vocab = build_vocab(["a b a"], max_size=7)
        model_cfg = ModelConfig(
            n_layers=1, n_heads=1, d_model=4, d_ff=8, vocab_size=vocab.size, max_seq_len=8
        )
        train_cfg = TrainConfig(
            total_steps=1, batch_size=2, schedule=parse_schedule("constant-0.15", 1)
        )
        with pytest.raises(ValueError, match="empty dataset"):
            train(model_cfg, train_cfg, [], vocab)

    @settings(max_examples=30)
    @given(n=st.integers(min_value=1, max_value=60), seed=st.integers(0, 2**31))
    def test_shuffle_is_permutation(self, n, seed):
        order = epoch_permutation(n, seed)
        assert sorted(order.tolist()) == list(range(n))


class TestVocabFile:
    def test_file_round_trip(self, tmp_path):
        vocab = build_vocab(["c a b a c c"], max_size=9)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, str(path))
        assert load_vocab(str(path)) == vocab
        # line number == id
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[SEP_ID] == "[SEP]"
        assert lines[N_SPECIALS] == vocab.tokens[N_SPECIALS]

    def test_bit_exact_rebuild(self, tmp_path):
        lines = synthetic_zipf_corpus(50, n_word_types=30, seed=4)
        v1 = build_vocab(lines, max_size=25)
        v2 = build_vocab(list(lines), max_size=25)
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        save_vocab(v1, str(p1))
        save_vocab(v2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_atomic_write_fsyncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def record(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), os.path.exists(tmp_path / "out.bin")))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", record)
        with atomic_write(str(tmp_path / "out.bin")) as fh:
            fh.write(b"payload")
        # the file before the rename, then its directory once it is in place
        assert synced == [(False, False), (True, True)]
        assert (tmp_path / "out.bin").read_bytes() == b"payload"

    def test_specials_pinned(self):
        with pytest.raises(ValueError, match="special tokens"):
            Vocab(("a", "b", "c", "d", "e", "f"))
