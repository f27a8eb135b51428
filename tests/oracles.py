"""Brute-force reference implementations used only by the test suite.

These recompute the encoder, the losses, pseudo-log-likelihood, and central
finite differences with straight-line Python loops, sharing no code with the
package modules. Agreement between the two routes is the evidence the
[DERIVED] tests rely on, so keep these dumb and independent.
"""

from __future__ import annotations

import math

import numpy as np

TINY_LIMITS = {"n_layers": 1, "n_heads": 2, "d_model": 8, "vocab_size": 16, "max_seq_len": 8}


def _check_tiny(config) -> None:
    if (
        config.n_layers > TINY_LIMITS["n_layers"]
        or config.n_heads > TINY_LIMITS["n_heads"]
        or config.d_model > TINY_LIMITS["d_model"]
        or config.vocab_size > TINY_LIMITS["vocab_size"]
        or config.max_seq_len > TINY_LIMITS["max_seq_len"]
    ):
        raise ValueError("config too large for the reference implementation")


def _ref_layernorm(vec, scale, shift):
    n = len(vec)
    mean = sum(vec) / n
    var = sum((x - mean) ** 2 for x in vec) / n
    inv = 1.0 / math.sqrt(var + 1e-12)
    return [scale[j] * (vec[j] - mean) * inv + shift[j] for j in range(n)]


def _ref_gelu(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def _ref_linear(vec, w, b):
    d_in = len(vec)
    d_out = w.shape[1]
    return [sum(vec[i] * w[i, j] for i in range(d_in)) + b[j] for j in range(d_out)]


def ref_forward_tiny(params, config, ids, real_mask, heads=("mlm",)):
    """Loop-based recomputation of the encoder; returns (mlm_logits, rts_logits)."""
    _check_tiny(config)
    ids = np.asarray(ids)
    real_mask = np.asarray(real_mask)
    batch, length = ids.shape
    d = config.d_model
    dh = d // config.n_heads

    mlm = np.zeros((batch, length, config.vocab_size)) if "mlm" in heads else None
    rts = np.zeros((batch, length)) if "rts" in heads else None

    for b in range(batch):
        h = [
            [params["tok_emb"][ids[b, t], j] + params["pos_emb"][t, j] for j in range(d)]
            for t in range(length)
        ]
        for layer in range(config.n_layers):
            p = f"layer{layer}."
            a = [_ref_layernorm(h[t], params[p + "ln1.scale"], params[p + "ln1.shift"]) for t in range(length)]
            q = [_ref_linear(a[t], params[p + "attn.wq"], params[p + "attn.bq"]) for t in range(length)]
            k = [_ref_linear(a[t], params[p + "attn.wk"], params[p + "attn.bk"]) for t in range(length)]
            v = [_ref_linear(a[t], params[p + "attn.wv"], params[p + "attn.bv"]) for t in range(length)]
            ctx = [[0.0] * d for _ in range(length)]
            for head in range(config.n_heads):
                lo = head * dh
                for t in range(length):
                    scores = []
                    for s in range(length):
                        if real_mask[b, s]:
                            dot = sum(q[t][lo + x] * k[s][lo + x] for x in range(dh))
                            scores.append((s, dot / math.sqrt(dh)))
                    m = max(val for _, val in scores)
                    exps = [(s, math.exp(val - m)) for s, val in scores]
                    z = sum(e for _, e in exps)
                    for s, e in exps:
                        w = e / z
                        for x in range(dh):
                            ctx[t][lo + x] += w * v[s][lo + x]
            attn_out = [_ref_linear(ctx[t], params[p + "attn.wo"], params[p + "attn.bo"]) for t in range(length)]
            h = [[h[t][j] + attn_out[t][j] for j in range(d)] for t in range(length)]
            bvecs = [_ref_layernorm(h[t], params[p + "ln2.scale"], params[p + "ln2.shift"]) for t in range(length)]
            for t in range(length):
                u = _ref_linear(bvecs[t], params[p + "ff.w1"], params[p + "ff.b1"])
                g = [_ref_gelu(x) for x in u]
                f = _ref_linear(g, params[p + "ff.w2"], params[p + "ff.b2"])
                h[t] = [h[t][j] + f[j] for j in range(d)]
        hfin = [_ref_layernorm(h[t], params["final_ln.scale"], params["final_ln.shift"]) for t in range(length)]
        for t in range(length):
            if mlm is not None:
                logits = _ref_linear(hfin[t], params["mlm_head.w"], params["mlm_head.b"])
                for j in range(config.vocab_size):
                    mlm[b, t, j] = logits[j]
            if rts is not None:
                rts[b, t] = (
                    sum(hfin[t][j] * params["rts_head.w"][j] for j in range(d))
                    + params["rts_head.b"][0]
                )
    return mlm, rts


def ref_mlm_loss(mlm_logits, labels, rows, cols) -> float:
    """Mean NLL over the loss positions, via per-position log-sum-exp."""
    total = 0.0
    for label, r, c in zip(labels, rows, cols):
        vec = mlm_logits[r, c]
        m = max(vec)
        lse = m + math.log(sum(math.exp(x - m) for x in vec))
        total += lse - vec[label]
    return total / len(labels)


def ref_rts_loss(rts_logits, flags, rows, cols) -> float:
    """Mean binary cross-entropy from first principles."""
    total = 0.0
    for y, r, c in zip(flags, rows, cols):
        z = rts_logits[r, c]
        p = 1.0 / (1.0 + math.exp(-z))
        total += -(y * math.log(p) + (1 - y) * math.log(1.0 - p))
    return total / len(flags)


def ref_pll(params, config, ids, mask_id: int, n_specials: int) -> float:
    """Sum of masked-token log-likelihoods, one independent forward per position."""
    ids = np.asarray(ids)
    score = 0.0
    for pos in range(len(ids)):
        if ids[pos] < n_specials:
            continue
        masked = ids.copy()
        masked[pos] = mask_id
        mlm, _ = ref_forward_tiny(
            params, config, masked[None, :], np.ones((1, len(ids)), dtype=bool), heads=("mlm",)
        )
        vec = mlm[0, pos]
        m = max(vec)
        lse = m + math.log(sum(math.exp(x - m) for x in vec))
        score += vec[ids[pos]] - lse
    return score


def ref_finite_diff(loss_fn, params, coords, h: float):
    """Central differences (f(x+h) - f(x-h)) / 2h for the named coordinates."""
    out = []
    for name, idx in coords:
        tensor = params[name]
        orig = tensor[idx]
        tensor[idx] = orig + h
        f_plus = loss_fn(params)
        tensor[idx] = orig - h
        f_minus = loss_fn(params)
        tensor[idx] = orig
        out.append((f_plus - f_minus) / (2.0 * h))
    return out


def ref_adamw_step(params, grads, m, v, step, lr, config):
    """One AdamW update tensor by tensor, in place; ``step`` counts from 1.

    m and v are dicts of per-tensor moments. Weight decay skips layer-norm
    scale and shift.
    """
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**step
    bc2 = 1.0 - b2**step
    for name, theta in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + config.eps)
        if not name.endswith((".scale", ".shift")) and config.weight_decay:
            update = update + config.weight_decay * theta
        theta -= lr * update
