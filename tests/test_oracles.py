"""Sanity checks on the reference implementations themselves."""

import math

import numpy as np
import pytest

from masksched.data import CLS_ID, SEP_ID
from masksched.model import ModelConfig, backward, forward, init_params, loss, param_shapes

from oracles import ref_finite_diff, ref_forward_tiny

TINY = ModelConfig(
    n_layers=1, n_heads=1, d_model=4, d_ff=8, vocab_size=7, max_seq_len=8, init_seed=13
)


def zero_params(config):
    params = {name: np.zeros(shape) for name, shape in param_shapes(config).items()}
    for name in params:
        if name.endswith(".scale"):
            params[name][:] = 1.0
    return params


class TestRefForward:
    def test_zero_weights_logits_equal_bias(self):
        params = zero_params(TINY)
        params["mlm_head.b"][:] = np.arange(TINY.vocab_size, dtype=float)
        ids = np.array([[CLS_ID, 5, 6, SEP_ID]])
        real = np.ones_like(ids, dtype=bool)
        mlm, _ = ref_forward_tiny(params, TINY, ids, real)
        for pos in range(4):
            np.testing.assert_allclose(mlm[0, pos], np.arange(TINY.vocab_size), atol=1e-12)

    def test_single_token_attention_is_identity_mixing(self):
        # with one real token, attention weight is 1 and ctx == v; the whole
        # forward collapses to a hand formula evaluated here with numpy only
        params = init_params(TINY)
        ids = np.array([[CLS_ID]])
        real = np.ones((1, 1), dtype=bool)

        def ln(x, scale, shift):
            mean = x.mean()
            var = ((x - mean) ** 2).mean()
            return scale * (x - mean) / math.sqrt(var + 1e-12) + shift

        h = params["tok_emb"][CLS_ID] + params["pos_emb"][0]
        a = ln(h, params["layer0.ln1.scale"], params["layer0.ln1.shift"])
        v = a @ params["layer0.attn.wv"] + params["layer0.attn.bv"]
        h = h + v @ params["layer0.attn.wo"] + params["layer0.attn.bo"]
        b = ln(h, params["layer0.ln2.scale"], params["layer0.ln2.shift"])
        u = b @ params["layer0.ff.w1"] + params["layer0.ff.b1"]
        g = 0.5 * u * (1.0 + np.vectorize(math.erf)(u / math.sqrt(2.0)))
        h = h + g @ params["layer0.ff.w2"] + params["layer0.ff.b2"]
        hfin = ln(h, params["final_ln.scale"], params["final_ln.shift"])
        expected = hfin @ params["mlm_head.w"] + params["mlm_head.b"]

        mlm_ref, _ = ref_forward_tiny(params, TINY, ids, real)
        np.testing.assert_allclose(mlm_ref[0, 0], expected, atol=1e-12)
        out = forward(params, TINY, ids, real)
        np.testing.assert_allclose(out.mlm_logits[0, 0], expected, atol=1e-12)

    def test_oversized_config_rejected(self):
        big = ModelConfig(
            n_layers=2, n_heads=1, d_model=4, d_ff=8, vocab_size=7, max_seq_len=8
        )
        with pytest.raises(ValueError, match="too large"):
            ref_forward_tiny(init_params(big), big, np.array([[CLS_ID]]), np.ones((1, 1), bool))


class TestRefFiniteDiff:
    def test_quadratic_recovered_exactly_up_to_h_squared(self):
        params = {"w": np.array([3.0])}

        def loss(p):
            return 2.5 * p["w"][0] ** 2  # derivative 5 * w

        for h in (1e-3, 1e-4):
            (d,) = ref_finite_diff(loss, params, [("w", (0,))], h)
            # central differences are exact for quadratics up to rounding
            assert abs(d - 15.0) < 1e-8

    def _case(self):
        params = init_params(TINY)
        ids = np.array([[CLS_ID, 5, 6, SEP_ID]])
        real = np.ones_like(ids, dtype=bool)
        labels = np.array([6, 5])
        rows = np.array([0, 0])
        cols = np.array([1, 2])
        targets = {"mlm": (labels, rows, cols)}
        return params, ids, real, targets

    def test_agrees_with_analytic_gradient(self):
        params, ids, real, targets = self._case()
        _, grads = backward(params, TINY, ids, real, targets)

        def loss_at(p):
            return loss(p, TINY, ids, real, targets)

        coords = [("tok_emb", (5, 2)), ("layer0.attn.wq", (1, 3)), ("mlm_head.b", (4,))]
        numeric = ref_finite_diff(loss_at, params, coords, h=1e-4)
        for (name, idx), fd in zip(coords, numeric):
            analytic = grads[name][idx]
            assert abs(analytic - fd) < 1e-5 * max(1.0, abs(analytic))

    def test_detects_injected_mismatch(self):
        params, ids, real, targets = self._case()
        _, grads = backward(params, TINY, ids, real, targets)
        grads["mlm_head.b"][3] += 1e-2  # corrupt one analytic entry

        def loss_at(p):
            return loss(p, TINY, ids, real, targets)

        (fd,) = ref_finite_diff(loss_at, params, [("mlm_head.b", (3,))], h=1e-4)
        assert abs(grads["mlm_head.b"][3] - fd) > 1e-3
