import math

import numpy as np
import pytest

from masksched.data import CLS_ID, N_SPECIALS, PAD_ID, SEP_ID
from masksched.model import (
    ModelConfig,
    _gradcheck_case,
    backward,
    forward,
    grad_check,
    init_params,
    log_softmax,
    loss,
    mlm_loss_grad,
    param_shapes,
    rts_loss_grad,
)

from oracles import ref_forward_tiny, ref_mlm_loss, ref_rts_loss

TINY = ModelConfig(
    n_layers=1, n_heads=1, d_model=4, d_ff=8, vocab_size=7, max_seq_len=8, init_seed=3
)
SMALL = ModelConfig(
    n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16, max_seq_len=8, init_seed=5
)


def random_batch(config, seed, batch=2, length=6, pad_last=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(N_SPECIALS, config.vocab_size, size=(batch, length))
    ids[:, 0] = CLS_ID
    ids[:, length - pad_last - 1] = SEP_ID
    real = np.ones((batch, length), dtype=bool)
    if pad_last:
        ids[:, length - pad_last :] = PAD_ID
        real[:, length - pad_last :] = False
    return ids, real


def loss_targets(config, ids, seed=0):
    rng = np.random.default_rng(seed)
    batch, length = ids.shape
    rows, cols = np.nonzero(ids >= N_SPECIALS)
    labels = rng.integers(N_SPECIALS, config.vocab_size, size=rows.size)
    flags = rng.integers(0, 2, size=rows.size)
    return rows, cols, labels, flags


class TestInit:
    def test_same_seed_bit_identical(self):
        p1 = init_params(SMALL)
        p2 = init_params(SMALL)
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_layernorm_scales_are_one(self):
        params = init_params(SMALL)
        for name, tensor in params.items():
            if name.endswith(".scale"):
                assert (tensor == 1.0).all()
            if name.endswith(".shift"):
                assert (tensor == 0.0).all()

    def test_weight_sample_mean(self):
        cfg = ModelConfig(
            n_layers=1, n_heads=1, d_model=50, d_ff=4, vocab_size=2000, max_seq_len=4, init_seed=11
        )
        emb = init_params(cfg)["tok_emb"]
        assert emb.size == 100_000
        bound = 3 * 0.02 / math.sqrt(emb.size)
        assert abs(emb.mean()) < bound

    def test_param_shapes_cover_params(self):
        params = init_params(SMALL)
        shapes = param_shapes(SMALL)
        assert list(params) == list(shapes)
        for name, shape in shapes.items():
            assert params[name].shape == shape

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(1, 3, 8, 8, 16, 8)  # d_model % n_heads != 0


class TestForward:
    def test_degenerate_cls_sep_only(self):
        params = init_params(SMALL)
        ids = np.array([[CLS_ID, SEP_ID, PAD_ID, PAD_ID]])
        real = np.array([[True, True, False, False]])
        out = forward(params, SMALL, ids, real, heads=("mlm", "rts"))
        assert np.isfinite(out.mlm_logits[real]).all()
        assert np.isfinite(out.rts_logits[real]).all()
        assert np.isnan(out.mlm_logits[~real]).all()
        assert np.isnan(out.rts_logits[~real]).all()

    def test_batch_order_permutes_outputs(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 0, batch=4)
        out = forward(params, SMALL, ids, real)
        perm = [2, 0, 3, 1]
        out_p = forward(params, SMALL, ids[perm], real[perm])
        np.testing.assert_array_equal(out.mlm_logits[perm], out_p.mlm_logits)

    def test_padding_does_not_change_real_logits(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 1, batch=2, length=5)
        out = forward(params, SMALL, ids, real)
        padded = np.concatenate([ids, np.full((2, 2), PAD_ID)], axis=1)
        real_p = np.concatenate([real, np.zeros((2, 2), dtype=bool)], axis=1)
        out_p = forward(params, SMALL, padded, real_p)
        assert np.abs(out.mlm_logits - out_p.mlm_logits[:, :5]).max() < 1e-9

    def test_softmax_rows_sum_to_one(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 2)
        out = forward(params, SMALL, ids, real)
        probs = np.exp(log_softmax(out.mlm_logits))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_id_out_of_range_rejected(self):
        params = init_params(SMALL)
        ids = np.array([[CLS_ID, SMALL.vocab_size, SEP_ID]])
        with pytest.raises(ValueError, match="out of range"):
            forward(params, SMALL, ids, np.ones_like(ids, dtype=bool))

    def test_matches_reference_forward(self):
        params = init_params(TINY)
        ids, real = random_batch(TINY, 4, batch=2, length=6, pad_last=1)
        out = forward(params, TINY, ids, real, heads=("mlm", "rts"))
        ref_mlm, ref_rts = ref_forward_tiny(params, TINY, ids, real, heads=("mlm", "rts"))
        assert np.abs(out.mlm_logits[real] - ref_mlm[real]).max() < 1e-10
        assert np.abs(out.rts_logits[real] - ref_rts[real]).max() < 1e-10
        assert np.isnan(out.mlm_logits[~real]).all()
        assert np.isnan(out.rts_logits[~real]).all()


class TestLosses:
    def test_uniform_logits_gives_log_vocab(self):
        logits = np.zeros((1, 3, 100))
        rows = np.array([0, 0])
        cols = np.array([1, 2])
        labels = np.array([3, 9])
        assert abs(mlm_loss_grad(logits[rows, cols], labels)[0] - math.log(100)) < 1e-12

    def test_confident_correct_logits_drive_loss_to_zero(self):
        logits = np.zeros((1, 1, 10))
        logits[0, 0, 4] = 50.0
        value, _ = mlm_loss_grad(logits[[0], [0]], np.array([4]))
        assert value < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 4, 11))
        rows = np.array([0, 1, 1])
        cols = np.array([0, 2, 3])
        labels = np.array([1, 5, 10])
        l1, _ = mlm_loss_grad(logits[rows, cols], labels)
        l2, _ = mlm_loss_grad(logits[rows, cols] + 123.456, labels)
        assert abs(l1 - l2) < 1e-9

    def test_empty_loss_set_rejected(self):
        with pytest.raises(ValueError, match="loss undefined"):
            mlm_loss_grad(np.zeros((0, 5)), np.array([], dtype=int))

    def test_rts_zero_logits_is_ln2(self):
        rows = np.array([0, 0, 1])
        cols = np.array([1, 2, 3])
        flags = np.array([0, 1, 1])
        assert abs(rts_loss_grad(np.zeros((2, 5))[rows, cols], flags)[0] - math.log(2)) < 1e-12

    def test_rts_perfect_separation(self):
        z = np.array([[60.0, -60.0]])
        rows = np.array([0, 0])
        cols = np.array([0, 1])
        value, _ = rts_loss_grad(z[rows, cols], np.array([1, 0]))
        assert value < 1e-12

    def test_unknown_or_missing_head_rejected(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 6)
        rows, cols, labels, _ = loss_targets(SMALL, ids)
        for targets in ({"MLM": (labels, rows, cols)}, {}):
            with pytest.raises(ValueError, match="head"):
                loss(params, SMALL, ids, real, targets)
            with pytest.raises(ValueError, match="head"):
                backward(params, SMALL, ids, real, targets)
        with pytest.raises(ValueError, match="head"):
            forward(params, SMALL, ids, real, heads=("mlm", "rts_"))

    def test_losses_match_reference(self):
        params = init_params(TINY)
        ids, real = random_batch(TINY, 6, batch=2, length=5)
        rows, cols, labels, flags = loss_targets(TINY, ids, seed=1)
        out = forward(params, TINY, ids, real, heads=("mlm", "rts"))
        ours_mlm = loss(params, TINY, ids, real, {"mlm": (labels, rows, cols)})
        ours_rts = loss(params, TINY, ids, real, {"rts": (flags, rows, cols)})
        assert abs(ours_mlm - ref_mlm_loss(out.mlm_logits, labels, rows, cols)) < 1e-10
        assert abs(ours_rts - ref_rts_loss(out.rts_logits, flags, rows, cols)) < 1e-10


class TestGatheredHead:
    def test_matches_dense_logits_and_loss(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 9, batch=3, length=7, pad_last=1)
        rows, cols, labels, _ = loss_targets(SMALL, ids)
        dense = forward(params, SMALL, ids, real)
        gathered = forward(params, SMALL, ids, real, positions=(rows, cols))
        assert gathered.mlm_logits.shape == (rows.size, SMALL.vocab_size)
        assert np.abs(gathered.mlm_logits - dense.mlm_logits[rows, cols]).max() < 1e-12
        dense_loss, _ = mlm_loss_grad(dense.mlm_logits[rows, cols], labels)
        ours = loss(params, SMALL, ids, real, {"mlm": (labels, rows, cols)})
        assert abs(ours - dense_loss) < 1e-12

    def test_forward_only_keeps_no_layer_activations(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 9)
        assert list(forward(params, SMALL, ids, real).cache) == ["hfin"]

    def test_duplicated_positions_scatter_their_gradients(self):
        # every loss position listed twice leaves the mean loss and its
        # gradient unchanged, which holds only if duplicates are summed
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 10, batch=2, length=6)
        rows, cols, labels, _ = loss_targets(SMALL, ids)
        l1, g1 = backward(params, SMALL, ids, real, {"mlm": (labels, rows, cols)})
        twice = tuple(np.concatenate([x, x]) for x in (labels, rows, cols))
        l2, g2 = backward(params, SMALL, ids, real, {"mlm": twice})
        assert abs(l1 - l2) < 1e-12
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name], rtol=0, atol=1e-12)


class TestBackward:
    def test_unused_positional_rows_have_zero_gradient(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 7, batch=2, length=5)
        rows, cols, labels, _ = loss_targets(SMALL, ids)
        _, grads = backward(params, SMALL, ids, real, {"mlm": (labels, rows, cols)})
        assert (grads["pos_emb"][5:] == 0.0).all()
        assert (grads["rts_head.w"] == 0.0).all()

    def test_gradients_scale_linearly(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 8, batch=2, length=5)
        rows, cols, labels, _ = loss_targets(SMALL, ids)
        # duplicating every loss position leaves the mean-based loss and
        # gradient unchanged; halving the count scales the gradient by the
        # ratio of means, so check doubling via an explicit scale instead
        _, g1 = backward(params, SMALL, ids, real, {"mlm": (labels, rows, cols)})
        both = {"mlm": (labels, rows, cols), "rts": (np.zeros_like(labels), rows, cols)}
        _, g2 = backward(params, SMALL, ids, real, both)
        _, gr = backward(
            params, SMALL, ids, real, {"rts": (np.zeros_like(labels), rows, cols)}
        )
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name] + gr[name], atol=1e-12)

    def test_loss_equals_backward_loss_bitwise(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 11, batch=3, length=7, pad_last=2)
        rows, cols, labels, flags = loss_targets(SMALL, ids)
        for targets in (
            {"mlm": (labels, rows, cols)},
            {"rts": (flags, rows, cols)},
            {"mlm": (labels, rows, cols), "rts": (flags, rows, cols)},
        ):
            value = loss(params, SMALL, ids, real, targets)
            assert value == backward(params, SMALL, ids, real, targets)[0]

    def test_gradcheck_passes_on_tiny_config(self):
        report = grad_check(SMALL, seed=0, n_coords=120, h=1e-4, tol=1e-5)
        assert report.passed, f"worst={report.worst_rel_err:.3e} in {report.worst_tensor}"

    def test_gradcheck_flags_tiny_step(self):
        report = grad_check(TINY, seed=0, n_coords=4, h=1e-12, tol=1e-5)
        assert any("underflow" in w for w in report.warnings)

    def test_gradcheck_zero_coords_vacuous(self):
        report = grad_check(TINY, seed=0, n_coords=0)
        assert report.passed
        assert any("vacuous" in w for w in report.warnings)


class TestRealRows:
    """Calls that score given positions encode the real rows alone."""

    def test_appended_padding_changes_no_loss_or_gradient(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 12, batch=3, length=5)
        ids[1, 3:] = [SEP_ID, PAD_ID]  # one ragged row, so padding sits mid-batch too
        real[1, 4] = False
        rows, cols, labels, flags = loss_targets(SMALL, ids)
        targets = {"mlm": (labels, rows, cols), "rts": (flags, rows, cols)}
        padded = np.concatenate([ids, np.full((3, 3), PAD_ID)], axis=1)
        real_p = np.concatenate([real, np.zeros((3, 3), dtype=bool)], axis=1)
        l1, g1 = backward(params, SMALL, ids, real, targets)
        l2, g2 = backward(params, SMALL, padded, real_p, targets)
        assert abs(l1 - l2) < 1e-12
        assert abs(loss(params, SMALL, padded, real_p, targets) - l1) < 1e-12
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name], rtol=0, atol=1e-12)
        assert (g2["pos_emb"][5:] == 0.0).all()

    def test_scored_forward_keeps_real_rows_only(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 13, batch=3, length=7, pad_last=2)
        rows, cols, _, _ = loss_targets(SMALL, ids)
        out = forward(params, SMALL, ids, real, positions=(rows, cols))
        assert out.cache["hfin"].shape == (real.sum(), SMALL.d_model)
        assert forward(params, SMALL, ids, real).cache["hfin"].shape == (real.sum(), SMALL.d_model)

    def test_position_on_padding_rejected(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 14, batch=2, length=6, pad_last=1)
        rows, cols = np.array([0, 1]), np.array([1, 5])
        labels = np.array([N_SPECIALS, N_SPECIALS])
        with pytest.raises(ValueError, match="padding"):
            forward(params, SMALL, ids, real, positions=(rows, cols))
        for head in ("mlm", "rts"):
            targets = {head: (labels if head == "mlm" else np.array([0, 1]), rows, cols)}
            with pytest.raises(ValueError, match="padding"):
                loss(params, SMALL, ids, real, targets)
            with pytest.raises(ValueError, match="padding"):
                backward(params, SMALL, ids, real, targets)

    def test_gradcheck_covers_padding(self):
        _, real, targets = _gradcheck_case(SMALL, seed=1)
        assert not real.all() and set(targets) == {"mlm", "rts"}
        report = grad_check(SMALL, seed=1, n_coords=120, h=1e-4, tol=1e-5)
        assert report.passed, f"worst={report.worst_rel_err:.3e} in {report.worst_tensor}"
