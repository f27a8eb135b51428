import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from masksched import model
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
        dense_loss, dense_grad = mlm_loss_grad(dense.mlm_logits[rows, cols], labels)
        targets = {"mlm": (labels, rows, cols)}
        # the head scores the loss positions alone, one logit row each
        _, _, _, d_logits = model._head_losses(params, SMALL, ids, real, targets, True)
        assert d_logits["mlm"][1].shape == (rows.size, SMALL.vocab_size)
        assert np.abs(d_logits["mlm"][1] - dense_grad).max() < 1e-12
        assert abs(loss(params, SMALL, ids, real, targets) - dense_loss) < 1e-12

    def test_forward_only_keeps_no_layer_activations(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 9)
        rows, cols, labels, _ = loss_targets(SMALL, ids)
        assert list(forward(params, SMALL, ids, real).cache) == ["hfin"]
        targets = {"mlm": (labels, rows, cols)}
        assert list(model._head_losses(params, SMALL, ids, real, targets, False)[2]) == ["hfin"]

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
        rows, cols, labels, _ = loss_targets(SMALL, ids)
        # the last layer returns the scored rows (here distinct and fewer than
        # the real rows), the dense forward every real row
        targets = {"mlm": (labels, rows, cols)}
        _, _, cache, _ = model._head_losses(params, SMALL, ids, real, targets, False)
        assert rows.size < real.sum()
        assert cache["hfin"].shape == (rows.size, SMALL.d_model)
        assert forward(params, SMALL, ids, real).cache["hfin"].shape == (real.sum(), SMALL.d_model)

    def test_position_on_padding_rejected(self):
        params = init_params(SMALL)
        ids, real = random_batch(SMALL, 14, batch=2, length=6, pad_last=1)
        rows, cols = np.array([0, 1]), np.array([1, 5])
        labels = np.array([N_SPECIALS, N_SPECIALS])
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


class TestScoredRows:
    """The last layer runs its queries, output and feed-forward on the rows
    the heads score alone."""

    @staticmethod
    def case():
        # two layers; trailing padding, one ragged row, and MLM and RTS on
        # disjoint positions with (0, 1) listed twice: five distinct rows
        ids, real = random_batch(SMALL, 15, batch=3, length=7, pad_last=2)
        ids[1, 3:5] = [SEP_ID, PAD_ID]
        real[1, 4] = False
        mlm = (np.array([5, 9, 5]), np.array([0, 2, 0]), np.array([1, 3, 1]))
        rts = (np.array([1, 0, 1]), np.array([0, 1, 2]), np.array([3, 2, 1]))
        return ids, real, {"mlm": mlm, "rts": rts}

    def test_gradient_matches_central_differences(self, monkeypatch):
        monkeypatch.setattr(model, "_gradcheck_case", lambda config, seed: self.case())
        report = grad_check(SMALL, seed=0, n_coords=200, h=1e-4, tol=1e-5)
        assert report.passed, f"worst={report.worst_rel_err:.3e} in {report.worst_tensor}"

    def test_positioned_logits_match_dense_forward(self):
        # each head's loss and logit gradient at its positions, from the
        # scored rows, match those of the dense forward's logits there
        params = init_params(SMALL)
        ids, real, targets = self.case()
        dense = forward(params, SMALL, ids, real, heads=("mlm", "rts"))
        total, _, _, d_logits = model._head_losses(params, SMALL, ids, real, targets, True)
        want = 0.0
        for head, (labels, rows, cols) in targets.items():
            value, grad = model.HEADS[head](getattr(dense, head + "_logits")[rows, cols], labels)
            assert np.abs(d_logits[head][1] - grad).max() <= 1e-12
            want += value
        assert abs(total - want) <= 1e-12
        assert loss(params, SMALL, ids, real, targets) == total

    def test_hfin_holds_the_distinct_scored_rows(self):
        params = init_params(SMALL)
        ids, real, targets = self.case()
        _, _, cache, _ = model._head_losses(params, SMALL, ids, real, targets, True)
        lower, top = cache["layers"]
        assert cache["hfin"].shape == (5, SMALL.d_model)
        assert top["ctx"].shape[0] == top["u"].shape[0] == 5
        assert lower["ctx"].shape[0] == top["a"].shape[0] == real.sum()
        rows, cols = np.array([0, 0, 2, 1, 2]), np.array([1, 3, 3, 2, 1])
        only_mlm = {"mlm": (np.full(5, N_SPECIALS), rows, cols)}
        _, _, cache, _ = model._head_losses(params, SMALL, ids, real, only_mlm, False)
        assert cache["hfin"].shape == (5, SMALL.d_model)


class TestRowShards:
    """Batches at or above ``_SHARD_WORK`` run as two row shards, the second
    on a worker thread; ``two_shards`` lowers the threshold so that every
    SMALL batch of two or more rows takes that path."""

    @pytest.fixture
    def two_shards(self, monkeypatch):
        monkeypatch.setattr(model, "_SHARD_WORK", 1)

    @staticmethod
    def case(kind):
        ids, real = random_batch(SMALL, 16, batch=5, length=7, pad_last=2)
        ids[1, 3:5] = [SEP_ID, PAD_ID]  # mid-batch padding: a ragged row
        real[1, 4] = False
        rows, cols, labels, flags = loss_targets(SMALL, ids, seed=2)
        if kind == "mlm":
            return ids, real, {"mlm": (labels, rows, cols)}
        if kind == "rts":
            return ids, real, {"rts": (flags, rows, cols)}
        if kind == "both":  # the RTS positions all lie in the first shard
            first = rows < 2
            return ids, real, {
                "mlm": (labels, rows, cols),
                "rts": (flags[first], rows[first], cols[first]),
            }
        # "one-empty": the second shard holds no loss position and is dropped
        first = rows < 2
        return ids, real, {"mlm": (labels[first], rows[first], cols[first])}

    KINDS = ["mlm", "rts", "both", "one-empty"]

    def test_cut_at_half_the_real_tokens_with_each_shard_cropped(self, two_shards):
        ids, real, targets = self.case("both")
        lengths = real.sum(axis=1)  # 5, 4, 5, 5, 5: half of 24 is reached in row 2
        assert lengths.tolist() == [5, 4, 5, 5, 5]
        shards, counts = model._shards(SMALL, ids, real, targets)
        assert [s[0].shape for s in shards] == [(3, 5), (2, 5)]
        assert counts == {"mlm": targets["mlm"][0].size, "rts": targets["rts"][0].size}
        assert set(shards[1][2]) == {"mlm", "rts"} and shards[1][2]["rts"][0].size == 0
        np.testing.assert_array_equal(shards[1][0], ids[3:, :5])
        _, _, targets = self.case("one-empty")
        assert len(model._shards(SMALL, ids, real, targets)[0]) == 1

    def test_small_batches_stay_one_shard(self):
        ids, real, targets = self.case("both")
        shards, counts = model._shards(SMALL, ids, real, targets)
        assert counts is None and len(shards) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_loss_and_gradients_match_one_shard(self, kind, monkeypatch):
        params = init_params(SMALL)
        ids, real, targets = self.case(kind)
        l1, g1 = backward(params, SMALL, ids, real, targets)
        monkeypatch.setattr(model, "_SHARD_WORK", 1)
        l2, g2 = backward(params, SMALL, ids, real, targets)
        assert abs(l2 - l1) <= 1e-12
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name], rtol=0, atol=1e-12)
        assert loss(params, SMALL, ids, real, targets) == l2

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradient_matches_central_differences(self, kind, two_shards, monkeypatch):
        monkeypatch.setattr(model, "_gradcheck_case", lambda config, seed: self.case(kind))
        report = grad_check(SMALL, seed=0, n_coords=150, h=1e-4, tol=1e-5)
        assert report.passed, f"worst={report.worst_rel_err:.3e} in {report.worst_tensor}"

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_bytes_with_and_without_the_worker(self, kind, two_shards, monkeypatch):
        params = init_params(SMALL)
        ids, real, targets = self.case(kind)
        threads = []
        head_losses = model._head_losses

        def recording(*args):
            threads.append(threading.current_thread().name)
            return head_losses(*args)

        monkeypatch.setattr(model, "_head_losses", recording)
        results = []
        for cpus in (None, {0}):
            if cpus is not None:  # one usable CPU: no worker, both shards here
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            threads.clear()
            value, grads = backward(params, SMALL, ids, real, targets)
            results.append((value, model.arena_buffer(grads).tobytes()))
            if cpus is not None or model._usable_cpus() < 2 or kind == "one-empty":
                assert set(threads) == {threading.main_thread().name}
            else:
                assert threads[0] == threading.main_thread().name
                assert threads[1].startswith("masksched")
        assert results[0] == results[1]

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)

        def fail(part):
            if part:
                raise ValueError(f"part {part}")
            return part

        with pytest.raises(ValueError, match="part 1"):
            model.run_parts(fail, [0, 1])
        with pytest.raises(ValueError, match="part 2"):  # the first part's error wins
            model.run_parts(fail, [2, 1])
        assert model.run_parts(fail, [0]) == [0]

    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    def test_forked_child_finishes_a_two_shard_backward(self, two_shards, monkeypatch):
        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
        params = init_params(SMALL)
        ids, real, targets = self.case("both")
        want = backward(params, SMALL, ids, real, targets)[0]  # starts the worker
        assert model._worker is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if backward(params, SMALL, ids, real, targets)[0] == want else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in backward")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0


class TestGradientBuffer:
    @pytest.mark.parametrize("shard_work", [None, 1])
    def test_out_is_zeroed_and_returned(self, shard_work, monkeypatch):
        if shard_work is not None:
            monkeypatch.setattr(model, "_SHARD_WORK", shard_work)
        params = init_params(SMALL)
        ids, real, targets = TestRowShards.case("both")
        value, fresh = backward(params, SMALL, ids, real, targets)
        _, out = model.tensor_arena({name: t.shape for name, t in params.items()})
        model.arena_buffer(out).fill(np.nan)
        again, got = backward(params, SMALL, ids, real, targets, out=out)
        assert got is out and again == value
        assert model.arena_buffer(got).tobytes() == model.arena_buffer(fresh).tobytes()

    def test_out_laid_out_otherwise_is_rejected(self):
        params = init_params(SMALL)
        ids, real, targets = TestRowShards.case("mlm")
        shapes = {name: t.shape for name, t in params.items()}
        for out in (
            {name: np.zeros(shape) for name, shape in shapes.items()},
            model.tensor_arena(dict(reversed(shapes.items())))[1],
        ):
            with pytest.raises(ValueError, match="out is not a tensor arena"):
                backward(params, SMALL, ids, real, targets, out=out)
