import dataclasses
import math

import numpy as np
import pytest

from masksched.corruption import (
    CorruptionConfig,
    apply_bert_corruption,
    apply_rts,
    collate_targets,
    corrupt_batch,
    corrupt_sequence,
    maskable_indices,
    round_half_up,
    sample_mask,
)
from masksched.data import CLS_ID, MASK_ID, N_SPECIALS, PAD_ID, SEP_ID, UNK_ID
from masksched.trainer import restrict_loss_budget

VOCAB_SIZE = 50


def rng(seed=0):
    return np.random.default_rng(seed)


def make_sequence(n_tokens, seed=1, pad=0):
    r = np.random.default_rng(seed)
    body = r.integers(N_SPECIALS, VOCAB_SIZE, size=n_tokens)
    ids = np.concatenate([[CLS_ID], body, [SEP_ID], [PAD_ID] * pad])
    return ids.astype(np.int64)


class TestSampleMask:
    def test_rate_zero_no_min(self):
        m = sample_mask(np.arange(1, 11), 0.0, rng(), min_masked=0)
        assert m.size == 0

    def test_rate_one_takes_all(self):
        maskable = np.arange(1, 11)
        m = sample_mask(maskable, 1.0, rng())
        np.testing.assert_array_equal(m, maskable)

    def test_million_trials_within_three_sigma(self):
        n = 10**6
        maskable = np.arange(n)
        m = sample_mask(maskable, 0.3, rng(42), min_masked=0)
        sigma = math.sqrt(0.3 * 0.7 / n)
        assert abs(m.size / n - 0.3) < 3 * sigma
        # independent sampler over the same distribution agrees on the rate
        other = (np.random.default_rng(99).random(n) < 0.3).sum() / n
        assert abs(m.size / n - other) < 6 * sigma

    def test_empty_maskable_with_positive_rate_rejected(self):
        with pytest.raises(ValueError, match="nothing to mask"):
            sample_mask(np.array([], dtype=int), 0.5, rng())

    def test_force_include_on_empty_draw(self):
        maskable = np.arange(3, 7)
        m = sample_mask(maskable, 1e-12, rng(0), min_masked=1)
        assert m.size == 1
        assert m[0] in maskable


class TestBertCorruption:
    def test_empty_mask_is_identity(self):
        ids = make_sequence(8)
        out = apply_bert_corruption(ids, np.array([], dtype=int), VOCAB_SIZE, rng())
        np.testing.assert_array_equal(out.corrupted, ids)
        assert out.loss_set.size == 0

    def test_action_proportions_within_three_sigma(self):
        n = 10**6
        ids = np.full(n, N_SPECIALS + 1, dtype=np.int64)  # all the same real token
        mask = np.arange(n)
        out = apply_bert_corruption(ids, mask, VOCAB_SIZE, rng(7))
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
        maskable = maskable_indices(ids)
        out = apply_bert_corruption(ids, maskable, VOCAB_SIZE, rng(5))
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
        out = apply_bert_corruption(ids, maskable, VOCAB_SIZE, rng(1))
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


class TestRts:
    def test_rate_zero_identity(self):
        ids = make_sequence(12)
        out = apply_rts(ids, 0.0, VOCAB_SIZE, rng())
        np.testing.assert_array_equal(out.corrupted, ids)
        assert (out.labels == 0).all()

    def test_rate_one_substitutes_everything(self):
        ids = make_sequence(50)
        out = apply_rts(ids, 1.0, VOCAB_SIZE, rng(2))
        maskable = maskable_indices(ids)
        assert (out.corrupted[maskable] != ids[maskable]).all()
        assert (out.labels == 1).all()
        assert (out.corrupted[maskable] >= N_SPECIALS).all()

    def test_substitution_rate_within_three_sigma(self):
        n = 10**6
        ids = np.full(n, N_SPECIALS + 2, dtype=np.int64)
        out = apply_rts(ids, 0.3, VOCAB_SIZE, rng(11))
        sigma = math.sqrt(0.3 * 0.7 / n)
        assert abs(out.labels.mean() - 0.3) < 3 * sigma

    def test_labels_cover_all_maskable_positions(self):
        ids = make_sequence(9, pad=3)
        out = apply_rts(ids, 0.5, VOCAB_SIZE, rng(3))
        np.testing.assert_array_equal(out.loss_set, maskable_indices(ids))
        assert out.labels.size == out.loss_set.size

    def test_tiny_vocab_rejected(self):
        ids = make_sequence(4)
        with pytest.raises(ValueError, match="cannot substitute"):
            apply_rts(ids, 0.5, N_SPECIALS + 1, rng())


class TestInvariants:
    def test_untouched_outside_mask(self):
        ids = make_sequence(30, pad=2)
        cfg = CorruptionConfig()
        out = corrupt_sequence(ids, 0.4, VOCAB_SIZE, rng(8), cfg)
        outside = np.setdiff1d(np.arange(len(ids)), out.mask_set)
        np.testing.assert_array_equal(out.corrupted[outside], ids[outside])

    def test_specials_never_selected(self):
        ids = np.array([CLS_ID, UNK_ID, N_SPECIALS, N_SPECIALS + 1, SEP_ID, PAD_ID])
        for seed in range(50):
            out = corrupt_sequence(ids, 1.0, VOCAB_SIZE, rng(seed))
            special_positions = np.array([0, 1, 4, 5])
            assert not np.isin(special_positions, out.mask_set).any()
            assert not np.isin(special_positions, out.loss_set).any()
            np.testing.assert_array_equal(out.corrupted[special_positions], ids[special_positions])

    def test_deterministic_given_seed(self):
        ids = make_sequence(20)
        a = corrupt_sequence(ids, 0.3, VOCAB_SIZE, rng(123))
        b = corrupt_sequence(ids, 0.3, VOCAB_SIZE, rng(123))
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
            out = corrupt_sequence(ids, rate, VOCAB_SIZE, rng(seed + 1000))
            total_maskable += maskable_indices(ids).size
            total_masked += out.mask_set.size
        sigma = math.sqrt(rate * (1 - rate) / total_maskable)
        assert abs(total_masked / total_maskable - rate) < 4 * sigma

    def test_unmaskable_sequence_returns_none(self):
        ids = np.array([CLS_ID, SEP_ID])
        assert corrupt_sequence(ids, 0.3, VOCAB_SIZE, rng()) is None

    def test_fraction_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1.0"):
            CorruptionConfig(replace_mask_frac=0.7)

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
        assert outcomes[-1] is None
        for seq, out in zip(seqs[:-1], outcomes[:-1]):
            assert out.maskable == maskable_indices(seq).size

    def test_invalid_config_rejected(self):
        # a config is checked when built, so no invalid one reaches a batch
        with pytest.raises(ValueError, match="sum to 1.0"):
            dataclasses.replace(CorruptionConfig(), replace_mask_frac=0.7)
