import dataclasses
import math

import numpy as np
import pytest

from masksched.corruption import (
    CorruptionConfig,
    collate_targets,
    corrupt_batch,
    maskable_indices,
    restrict_loss_budget,
    round_half_up,
)
from masksched.data import CLS_ID, MASK_ID, N_SPECIALS, PAD_ID, SEP_ID, UNK_ID

VOCAB_SIZE = 50
RTS = CorruptionConfig(objective="rts")


def rng(seed=0):
    return np.random.default_rng(seed)


def corrupt_row(ids, rate, generator, cfg=CorruptionConfig(), vocab_size=VOCAB_SIZE):
    """The outcome of a one-row batch."""
    outcomes, _, _ = corrupt_batch([ids], rate, vocab_size, [generator], cfg)
    return outcomes[0]


def assert_empty_outcome(out, ids):
    """``out`` is the outcome of a row with nothing to mask: the row itself,
    no positions and no labels."""
    np.testing.assert_array_equal(out.corrupted, ids)
    for positions in (out.mask_set, out.loss_set, out.labels):
        assert positions.size == 0 and positions.dtype == np.int64
    assert out.maskable == 0


def make_sequence(n_tokens, seed=1, pad=0):
    r = np.random.default_rng(seed)
    body = r.integers(N_SPECIALS, VOCAB_SIZE, size=n_tokens)
    ids = np.concatenate([[CLS_ID], body, [SEP_ID], [PAD_ID] * pad])
    return ids.astype(np.int64)


class TestSampleMask:
    def test_rate_zero_no_min(self):
        out = corrupt_row(make_sequence(10), 0.0, rng(), CorruptionConfig(min_masked=0))
        assert out.mask_set.size == 0

    def test_rate_one_takes_all(self):
        out = corrupt_row(make_sequence(10), 1.0, rng())
        np.testing.assert_array_equal(out.mask_set, np.arange(1, 11))

    def test_million_trials_within_three_sigma(self):
        n = 10**6
        ids = np.full(n, N_SPECIALS, dtype=np.int64)  # every position maskable
        m = corrupt_row(ids, 0.3, rng(42), CorruptionConfig(min_masked=0)).mask_set
        sigma = math.sqrt(0.3 * 0.7 / n)
        assert abs(m.size / n - 0.3) < 3 * sigma
        # independent sampler over the same distribution agrees on the rate
        other = (np.random.default_rng(99).random(n) < 0.3).sum() / n
        assert abs(m.size / n - other) < 6 * sigma

    def test_force_include_on_empty_draw(self):
        ids = np.array([CLS_ID, UNK_ID, PAD_ID, 10, 11, 12, 13])  # maskable: 3..6
        m = corrupt_row(ids, 1e-12, rng(0), CorruptionConfig(min_masked=1)).mask_set
        assert m.size == 1
        assert m[0] in np.arange(3, 7)

    @pytest.mark.parametrize("rate", [-0.1, 1.5, math.nan])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="rate out of"):
            corrupt_batch([np.array([CLS_ID, SEP_ID])], rate, VOCAB_SIZE, [rng()])


class TestBertCorruption:
    def test_empty_mask_is_identity(self):
        ids = make_sequence(8)
        out = corrupt_row(ids, 0.0, rng(), CorruptionConfig(min_masked=0))
        np.testing.assert_array_equal(out.corrupted, ids)
        assert out.loss_set.size == 0

    def test_action_proportions_within_three_sigma(self):
        n = 10**6
        ids = np.full(n, N_SPECIALS + 1, dtype=np.int64)  # all the same real token
        out = corrupt_row(ids, 1.0, rng(7))
        n_masked_tok = (out.corrupted == MASK_ID).sum()
        kept = (out.corrupted == ids).sum()
        # a random draw can reproduce the original id, so count "kept" with
        # the random-draw collision rate folded into the expectation
        p_collision = 0.1 / (VOCAB_SIZE - N_SPECIALS)
        for frac, expect in ((n_masked_tok / n, 0.8), (kept / n, 0.1 + p_collision)):
            sigma = math.sqrt(expect * (1 - expect) / n)
            assert abs(frac - expect) < 3 * sigma

    def test_random_replacements_never_special(self):
        ids = make_sequence(2000, seed=3)
        out = corrupt_row(ids, 1.0, rng(5))
        changed = out.corrupted != ids
        # every changed token is either [MASK] or a non-special random draw
        values = out.corrupted[changed]
        assert ((values == MASK_ID) | (values >= N_SPECIALS)).all()
        random_draws = values[values != MASK_ID]
        assert random_draws.size > 0
        assert (random_draws >= N_SPECIALS).all()

    def test_labels_are_original_ids(self):
        ids = make_sequence(10)
        maskable = maskable_indices(ids)
        out = corrupt_row(ids, 1.0, rng(1))
        np.testing.assert_array_equal(out.labels, ids[maskable])
        np.testing.assert_array_equal(out.loss_set, maskable)


class TestSubsetLoss:
    @staticmethod
    def restrict(cols, maskable_total, fraction):
        # labels carry their column so the test can see they stay paired
        rows = np.zeros(cols.size, dtype=np.int64)
        return restrict_loss_budget(cols + 1000, rows, cols, maskable_total, fraction, rng(0))

    def test_caps_at_target_fraction(self):
        m = np.arange(10, 40)  # |M| = 30
        labels, _, sub = self.restrict(m, 100, 0.15)
        assert sub.size == 15
        assert np.isin(sub, m).all()
        np.testing.assert_array_equal(labels, sub + 1000)

    def test_small_mask_returned_unchanged(self):
        m = np.arange(5, 15)
        _, _, sub = self.restrict(m, 100, 0.15)
        np.testing.assert_array_equal(sub, m)

    def test_full_fraction_is_identity(self):
        m = np.arange(7, 30)
        _, _, sub = self.restrict(m, 100, 1.0)
        np.testing.assert_array_equal(sub, m)

    def test_round_half_up(self):
        assert round_half_up(4.5) == 5
        assert round_half_up(4.4) == 4
        assert round_half_up(15.0) == 15

    def test_requires_the_mlm_objective(self):
        with pytest.raises(ValueError, match="subset_loss_fraction requires the mlm objective"):
            CorruptionConfig(objective="rts", subset_loss_fraction=0.5)
        with pytest.raises(ValueError, match="subset_loss_fraction requires the mlm objective"):
            dataclasses.replace(CorruptionConfig(subset_loss_fraction=0.5), objective="rts")


class TestRts:
    def test_rate_zero_identity(self):
        ids = make_sequence(12)
        out = corrupt_row(ids, 0.0, rng(), RTS)
        np.testing.assert_array_equal(out.corrupted, ids)
        assert (out.labels == 0).all()

    def test_rate_one_substitutes_everything(self):
        ids = make_sequence(50)
        out = corrupt_row(ids, 1.0, rng(2), RTS)
        maskable = maskable_indices(ids)
        assert (out.corrupted[maskable] != ids[maskable]).all()
        assert (out.labels == 1).all()
        assert (out.corrupted[maskable] >= N_SPECIALS).all()

    def test_substitution_rate_within_three_sigma(self):
        n = 10**6
        ids = np.full(n, N_SPECIALS + 2, dtype=np.int64)
        out = corrupt_row(ids, 0.3, rng(11), RTS)
        sigma = math.sqrt(0.3 * 0.7 / n)
        assert abs(out.labels.mean() - 0.3) < 3 * sigma

    def test_labels_cover_all_maskable_positions(self):
        ids = make_sequence(9, pad=3)
        out = corrupt_row(ids, 0.5, rng(3), RTS)
        np.testing.assert_array_equal(out.loss_set, maskable_indices(ids))
        assert out.labels.size == out.loss_set.size

    def test_tiny_vocab_rejected(self):
        ids = make_sequence(4)
        with pytest.raises(ValueError, match="cannot substitute"):
            corrupt_row(ids, 0.5, rng(), RTS, vocab_size=N_SPECIALS + 1)


class TestInvariants:
    def test_untouched_outside_mask(self):
        ids = make_sequence(30, pad=2)
        cfg = CorruptionConfig()
        out = corrupt_row(ids, 0.4, rng(8), cfg)
        outside = np.setdiff1d(np.arange(len(ids)), out.mask_set)
        np.testing.assert_array_equal(out.corrupted[outside], ids[outside])

    def test_specials_never_selected(self):
        ids = np.array([CLS_ID, UNK_ID, N_SPECIALS, N_SPECIALS + 1, SEP_ID, PAD_ID])
        for seed in range(50):
            out = corrupt_row(ids, 1.0, rng(seed))
            special_positions = np.array([0, 1, 4, 5])
            assert not np.isin(special_positions, out.mask_set).any()
            assert not np.isin(special_positions, out.loss_set).any()
            np.testing.assert_array_equal(out.corrupted[special_positions], ids[special_positions])

    def test_deterministic_given_seed(self):
        ids = make_sequence(20)
        a = corrupt_row(ids, 0.3, rng(123))
        b = corrupt_row(ids, 0.3, rng(123))
        np.testing.assert_array_equal(a.corrupted, b.corrupted)
        np.testing.assert_array_equal(a.mask_set, b.mask_set)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_epoch_rate_within_four_sigma(self):
        # long sequences so the min_masked force-include cannot bias the rate
        rate = 0.25
        total_maskable = 0
        total_masked = 0
        for seed in range(100):
            ids = make_sequence(400, seed=seed)
            out = corrupt_row(ids, rate, rng(seed + 1000))
            total_maskable += maskable_indices(ids).size
            total_masked += out.mask_set.size
        sigma = math.sqrt(rate * (1 - rate) / total_maskable)
        assert abs(total_masked / total_maskable - rate) < 4 * sigma

    def test_unmaskable_sequence_gets_the_empty_outcome(self):
        ids = np.array([CLS_ID, SEP_ID, PAD_ID])
        for cfg in (CorruptionConfig(), RTS):
            generator = rng()
            state = generator.bit_generator.state
            assert_empty_outcome(corrupt_row(ids, 0.3, generator, cfg), ids)
            assert generator.bit_generator.state == state, "a draw was made"

    def test_subset_mode_shrinks_loss_set(self):
        seqs = [make_sequence(100, seed=s) for s in range(3)]
        outcomes, _, _ = corrupt_batch(seqs, 0.5, VOCAB_SIZE, [rng(s) for s in range(3)])
        labels, rows, cols = restrict_loss_budget(*collate_targets(outcomes), 300, 0.15, rng(4))
        assert labels.size == round_half_up(0.15 * 300)
        for row, col, label in zip(rows, cols, labels):
            assert col in outcomes[row].mask_set
            assert label == seqs[row][col]


class TestCorruptBatch:
    @pytest.mark.parametrize("objective", ["mlm", "rts"])
    def test_outcomes_carry_maskable_count(self, objective):
        seqs = [make_sequence(n, seed=n, pad=2) for n in (3, 9, 20)] + [np.array([CLS_ID, SEP_ID])]
        cfg = CorruptionConfig(objective=objective)
        outcomes, _, _ = corrupt_batch(seqs, 0.3, VOCAB_SIZE, [rng(s) for s in range(4)], cfg)
        assert_empty_outcome(outcomes[-1], seqs[-1])
        for seq, out in zip(seqs, outcomes):
            assert out.maskable == maskable_indices(seq).size

    def test_collate_targets_flattens_rows_in_order(self):
        seqs = [make_sequence(6, seed=1), np.array([CLS_ID, SEP_ID]), make_sequence(9, seed=2)]
        outcomes, _, _ = corrupt_batch(seqs, 0.5, VOCAB_SIZE, [rng(s) for s in range(3)])
        labels, rows, cols = collate_targets(outcomes)
        want = [
            (label, row, col)
            for row, o in enumerate(outcomes)
            for label, col in zip(o.labels, o.loss_set)
        ]
        assert want and list(zip(labels, rows, cols)) == want
        assert all(a.dtype == np.int64 for a in (labels, rows, cols))

    @pytest.mark.parametrize("objective", ["mlm", "rts"])
    def test_outcomes_view_the_batch_and_leave_the_input(self, objective):
        seqs = [make_sequence(12, seed=1, pad=3), np.array([CLS_ID, SEP_ID]), make_sequence(5, seed=2)]
        before = [seq.copy() for seq in seqs]
        cfg = CorruptionConfig(objective=objective)
        outcomes, ids, _ = corrupt_batch(seqs, 0.5, VOCAB_SIZE, [rng(s) for s in range(3)], cfg)
        assert outcomes[1].maskable == 0  # the unmaskable row is covered too
        for row, (seq, old, out) in enumerate(zip(seqs, before, outcomes)):
            np.testing.assert_array_equal(seq, old)
            assert not np.shares_memory(out.corrupted, seq)
            assert np.shares_memory(out.corrupted, ids[row])
            np.testing.assert_array_equal(out.corrupted, ids[row, : len(seq)])
        assert (outcomes[0].corrupted != seqs[0]).any()

    def test_invalid_config_rejected(self):
        # a config is checked when built, so no invalid one reaches a batch
        with pytest.raises(ValueError, match="min_masked must be 0 or 1"):
            dataclasses.replace(CorruptionConfig(), min_masked=-1)


# Recorded outcomes of one fixed batch: a long row, a short row whose draw at
# rate 0.25 comes out empty (so min_masked=1 forces an index) and a row with
# nothing to mask. Any change to the order or number of generator calls moves
# these values, and with them every pinned training run.
_GOLDEN_SEQS = [
    [2, 26, 28, 38, 47, 6, 11, 42, 47, 16, 19, 44, 24, 17, 42, 16, 23, 33, 29, 8, 6, 43, 38, 42, 29, 3, 0, 0],
    [2, 42, 16, 9, 3],
    [2, 3, 0],
]
_GOLDEN_ROW0_MLM = (
    [2, 26, 28, 1, 47, 6, 1, 42, 41, 16, 19, 1, 24, 1, 42, 16, 23, 33, 29, 8, 1, 43, 38, 42, 29, 3, 0, 0],
    [3, 4, 6, 8, 11, 13, 20],
    [3, 4, 6, 8, 11, 13, 20],
    [38, 47, 11, 47, 44, 17, 6],
    24,
)
_GOLDEN_EMPTY = ([2, 3, 0], [], [], [], 0)
_GOLDEN = {
    # (corrupted, mask_set, loss_set, labels, maskable) per row
    "mlm-min0": [_GOLDEN_ROW0_MLM, ([2, 42, 16, 9, 3], [], [], [], 3), _GOLDEN_EMPTY],
    "mlm-min1": [_GOLDEN_ROW0_MLM, ([2, 42, 16, 1, 3], [3], [3], [9], 3), _GOLDEN_EMPTY],
    "rts": [
        (
            [2, 26, 28, 18, 7, 6, 43, 42, 46, 16, 19, 19, 24, 34, 42, 16, 23, 33, 29, 8, 13, 43, 38, 42, 29, 3, 0, 0],
            [3, 4, 6, 8, 11, 13, 20],
            list(range(1, 25)),
            [0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
            24,
        ),
        ([2, 42, 16, 9, 3], [], [1, 2, 3], [0, 0, 0], 3),
        _GOLDEN_EMPTY,
    ],
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_corrupt_batch_golden(case):
    cfg = {
        "mlm-min0": CorruptionConfig(min_masked=0),
        "mlm-min1": CorruptionConfig(min_masked=1),
        "rts": CorruptionConfig(objective="rts"),
    }[case]
    seqs = [np.array(s, dtype=np.int64) for s in _GOLDEN_SEQS]
    outcomes, ids, real = corrupt_batch(seqs, 0.25, VOCAB_SIZE, [rng(s) for s in (12, 13, 14)], cfg)
    for row, (out, want) in enumerate(zip(outcomes, _GOLDEN[case], strict=True)):
        corrupted, mask_set, loss_set, labels, maskable = want
        np.testing.assert_array_equal(out.corrupted, corrupted)
        np.testing.assert_array_equal(out.mask_set, np.array(mask_set, dtype=np.int64))
        np.testing.assert_array_equal(out.loss_set, np.array(loss_set, dtype=np.int64))
        np.testing.assert_array_equal(out.labels, labels)
        assert out.maskable == maskable
        np.testing.assert_array_equal(ids[row, : len(corrupted)], corrupted)
        assert real[row].sum() == len(corrupted)
