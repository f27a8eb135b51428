"""A small transformer encoder in plain numpy with exact analytic gradients.

Pre-layer-norm residual blocks, learned positional embeddings, an MLM head
(single linear projection to vocab logits) and an RTS head (one logit per
position). Everything runs in float64 so the finite-difference gradient
checker and the test oracles can demand tight agreement.

The MLM head projects only the positions a caller scores: ``forward`` takes
``positions=(rows, cols)`` and returns (n, V) logits, one row per position;
without it every position is scored and the logits are (B, S, V). Training,
evaluation and pseudo-log-likelihood pass their positions, so no dense
logits tensor is built. Per-layer activations are kept only for
``backward``; a forward-only call keeps just the final hidden state.

Parameters live in a plain dict keyed by name; ``param_shapes`` defines the
canonical ordering used everywhere. ``init_params`` and the gradients of
``backward`` give dicts whose tensors view one flat float64 buffer in that
order (``tensor_arena``), so the optimizer can run over the whole buffer at
once; ``arena_buffer`` recovers the buffer from such a dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.special import erf

from .data import CLS_ID, N_SPECIALS, SEP_ID

LN_EPS = 1e-12
INIT_STD = 0.02

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    """Encoder shape; an invalid config raises ``ValueError`` when built."""

    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_seq_len: int
    init_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "vocab_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.vocab_size <= N_SPECIALS:
            raise ValueError("vocab_size must exceed the special-token count")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")


@dataclass
class ForwardOutput:
    """Head outputs of one forward pass.

    ``mlm_positions`` is the (rows, cols) pair the MLM logits were computed
    at, in row order; None means every position, with (B, S, V) logits.
    """

    mlm_logits: np.ndarray | None
    rts_logits: np.ndarray | None
    cache: dict = field(repr=False, default_factory=dict)
    mlm_positions: tuple[np.ndarray, np.ndarray] | None = None


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical (name -> shape) map; iteration order is the storage order."""
    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, d),
        "pos_emb": (config.max_seq_len, d),
    }
    for i in range(config.n_layers):
        p = f"layer{i}."
        shapes[p + "ln1.scale"] = (d,)
        shapes[p + "ln1.shift"] = (d,)
        shapes[p + "attn.wq"] = (d, d)
        shapes[p + "attn.bq"] = (d,)
        shapes[p + "attn.wk"] = (d, d)
        shapes[p + "attn.bk"] = (d,)
        shapes[p + "attn.wv"] = (d, d)
        shapes[p + "attn.bv"] = (d,)
        shapes[p + "attn.wo"] = (d, d)
        shapes[p + "attn.bo"] = (d,)
        shapes[p + "ln2.scale"] = (d,)
        shapes[p + "ln2.shift"] = (d,)
        shapes[p + "ff.w1"] = (d, dff)
        shapes[p + "ff.b1"] = (dff,)
        shapes[p + "ff.w2"] = (dff, d)
        shapes[p + "ff.b2"] = (d,)
    shapes["final_ln.scale"] = (d,)
    shapes["final_ln.shift"] = (d,)
    shapes["mlm_head.w"] = (d, v)
    shapes["mlm_head.b"] = (v,)
    shapes["rts_head.w"] = (d,)
    shapes["rts_head.b"] = (1,)
    return shapes


def is_layer_norm(name: str) -> bool:
    """Whether ``name`` is a layer-norm scale or shift; those start at 1 and
    0 and take no weight decay."""
    return name.endswith((".scale", ".shift"))


_BIASES = (".bq", ".bk", ".bv", ".bo", ".b1", ".b2", ".b")


def tensor_arena(
    shapes: dict[str, tuple[int, ...]], copies: int = 1
) -> tuple[np.ndarray, list[Params]]:
    """A zeroed flat float64 buffer and, per copy, a dict of views into it.

    Each dict holds one C-order view per name, laid out back to back in
    ``shapes`` order; copy i covers ``buffer[i * N:(i + 1) * N]`` with N the
    total element count. Writes through a view land in the buffer.
    """
    sizes = [math.prod(shape) for shape in shapes.values()]
    buffer = np.zeros(copies * sum(sizes))
    copies_views: list[Params] = []
    offset = 0
    for _ in range(copies):
        views: Params = {}
        for (name, shape), size in zip(shapes.items(), sizes):
            views[name] = buffer[offset : offset + size].reshape(shape)
            offset += size
        copies_views.append(views)
    return buffer, copies_views


def arena_buffer(tensors: Params) -> np.ndarray | None:
    """The buffer of a one-copy ``tensor_arena`` dict, else None.

    The dict counts as an arena when every entry is a C-contiguous view of
    one flat float64 buffer and the entries' sizes add up to the buffer's,
    the layout ``tensor_arena`` builds. The test is by identity and size, so
    a dict that rebinds an arena's entries to other views of the same buffer
    is not told apart.
    """
    views = list(tensors.values())
    buffer = views[0].base if views else None
    if (
        buffer is None
        or buffer.ndim != 1
        or buffer.dtype != np.float64
        or not all(t.base is buffer and t.flags.c_contiguous for t in views)
        or sum(t.size for t in views) != buffer.size
    ):
        return None
    return buffer


def init_params(config: ModelConfig) -> Params:
    """Normal(0, 0.02^2) weights; layer-norm scale 1, shifts and biases 0.

    The tensors are views of one ``tensor_arena`` buffer.
    """
    rng = np.random.default_rng(config.init_seed)
    _, (params,) = tensor_arena(param_shapes(config))
    for name, tensor in params.items():
        if is_layer_norm(name):
            tensor.fill(1.0 if name.endswith(".scale") else 0.0)
        elif not name.endswith(_BIASES):
            tensor[...] = rng.normal(0.0, INIT_STD, size=tensor.shape)
    return params


def _layernorm_forward(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    # np.add.reduce / d is what ndarray.mean computes, minus its Python layer
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mean
    var = np.add.reduce(centered**2, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    return xhat * scale + shift, (xhat, inv_std)


def _layernorm_backward(dy: np.ndarray, cache, scale: np.ndarray):
    xhat, inv_std = cache
    dscale = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dshift = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * scale
    d = dy.shape[-1]
    mean_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    mean_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dscale, dshift


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x); GELU(x) = x * Phi(x) and GELU'(x) = Phi(x) + x * pdf(x)."""
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return phi + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, length, d = x.shape
    return x.reshape(b, length, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * dh)


def forward(
    params: Params,
    config: ModelConfig,
    ids: np.ndarray,
    real_mask: np.ndarray,
    heads: Iterable[str] = ("mlm",),
    positions: tuple[np.ndarray, np.ndarray] | None = None,
) -> ForwardOutput:
    """Encode a padded id batch; padded key positions are excluded from attention.

    ``positions`` = (rows, cols) restricts the MLM head to those positions:
    ``mlm_logits[i]`` then scores position (rows[i], cols[i]). Without it the
    head scores every position and ``mlm_logits`` is (B, S, V).
    """
    return _forward(params, config, ids, real_mask, tuple(heads), positions, keep_activations=False)


def _forward(params, config, ids, real_mask, heads, positions, keep_activations) -> ForwardOutput:
    """``forward``; with ``keep_activations`` the cache also holds what
    ``_backward_from_heads`` needs from every layer."""
    ids = np.asarray(ids, dtype=np.int64)
    real_mask = np.asarray(real_mask, dtype=bool)
    batch, length = ids.shape
    if positions is not None:
        positions = tuple(np.asarray(x, dtype=np.int64) for x in positions)
    if length > config.max_seq_len:
        raise ValueError(f"sequence length {length} exceeds max_seq_len {config.max_seq_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of range")

    h = params["tok_emb"][ids] + params["pos_emb"][:length]
    layers: list[dict] = []
    dh_head = config.d_model // config.n_heads
    inv_sqrt = 1.0 / math.sqrt(dh_head)

    for i in range(config.n_layers):
        p = f"layer{i}."
        a, ln1 = _layernorm_forward(h, params[p + "ln1.scale"], params[p + "ln1.shift"])
        q = _split_heads(a @ params[p + "attn.wq"] + params[p + "attn.bq"], config.n_heads)
        k = _split_heads(a @ params[p + "attn.wk"] + params[p + "attn.bk"], config.n_heads)
        v = _split_heads(a @ params[p + "attn.wv"] + params[p + "attn.bv"], config.n_heads)
        scores = (q @ k.transpose(0, 1, 3, 2)) * inv_sqrt
        scores = np.where(real_mask[:, None, None, :], scores, -np.inf)
        scores_max = scores.max(axis=-1, keepdims=True)
        exps = np.exp(scores - scores_max)
        probs = exps / exps.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(probs @ v)
        h = h + (ctx @ params[p + "attn.wo"] + params[p + "attn.bo"])

        b_, ln2 = _layernorm_forward(h, params[p + "ln2.scale"], params[p + "ln2.shift"])
        u = b_ @ params[p + "ff.w1"] + params[p + "ff.b1"]
        phi = _normal_cdf(u)
        h = h + ((u * phi) @ params[p + "ff.w2"] + params[p + "ff.b2"])
        if keep_activations:
            layers.append(
                dict(ln1=ln1, a=a, q=q, k=k, v=v, probs=probs, ctx=ctx, ln2=ln2, b_=b_, u=u, phi=phi)
            )

    hfin, final_ln = _layernorm_forward(h, params["final_ln.scale"], params["final_ln.shift"])
    cache = {"hfin": hfin}
    if keep_activations:
        cache.update(layers=layers, final_ln=final_ln)

    mlm_logits = None
    if "mlm" in heads:
        mlm_logits = _head_input(hfin, positions) @ params["mlm_head.w"] + params["mlm_head.b"]
        if positions is None:
            mlm_logits = mlm_logits.reshape(batch, length, config.vocab_size)
    rts_logits = hfin @ params["rts_head.w"] + params["rts_head.b"][0] if "rts" in heads else None
    return ForwardOutput(mlm_logits, rts_logits, cache, positions if "mlm" in heads else None)


def _head_input(hfin: np.ndarray, positions) -> np.ndarray:
    """The final hidden states the MLM head projects, one row per position."""
    return hfin.reshape(-1, hfin.shape[-1]) if positions is None else hfin[positions]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def mlm_loss(
    output: ForwardOutput,
    labels: np.ndarray,
    loss_rows: np.ndarray,
    loss_cols: np.ndarray,
) -> float:
    """Mean negative log-likelihood of the labels over the loss positions.

    Logits computed at given positions must have been computed at exactly
    these loss positions.
    """
    logits = output.mlm_logits
    if output.mlm_positions is None:
        logits = logits[loss_rows, loss_cols]
    elif not all(
        np.array_equal(have, want) for have, want in zip(output.mlm_positions, (loss_rows, loss_cols))
    ):
        raise ValueError("loss positions differ from the positions the MLM head scored")
    loss, _ = _mlm_loss_grad(logits, labels)
    return loss


def _mlm_loss_grad(logits, labels):
    """Loss and its gradient for (n, V) logits, row i labelled labels[i]."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("loss undefined: empty loss set")
    logp = log_softmax(logits)
    n = labels.size
    loss = -logp[np.arange(n), labels].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return float(loss), dlogits


def rts_loss(
    output: ForwardOutput,
    flags: np.ndarray,
    loss_rows: np.ndarray,
    loss_cols: np.ndarray,
) -> float:
    """Mean binary cross-entropy of the substitution flags."""
    loss, _ = _rts_loss_grad(output.rts_logits, flags, loss_rows, loss_cols)
    return loss


def _rts_loss_grad(rts_logits, flags, loss_rows, loss_cols):
    flags = np.asarray(flags, dtype=np.float64)
    if flags.size == 0:
        raise ValueError("loss undefined: no labeled positions")
    z = rts_logits[loss_rows, loss_cols]
    # softplus(z) - y*z and sigmoid, both computed overflow-free
    loss = float((np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - flags * z).mean())
    exp_neg = np.exp(-np.abs(z))
    sigma = np.where(z >= 0, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))
    dz = (sigma - flags) / flags.size
    dlogits = np.zeros_like(rts_logits)
    np.add.at(dlogits, (loss_rows, loss_cols), dz)
    return loss, dlogits


def backward(
    params: Params,
    config: ModelConfig,
    ids: np.ndarray,
    real_mask: np.ndarray,
    targets: dict,
) -> tuple[float, Params]:
    """Loss value and its exact gradient with respect to every parameter.

    ``targets`` maps head name ("mlm" and/or "rts") to a
    (labels, loss_rows, loss_cols) triple; when both heads are given the
    losses are summed.
    """
    total, out, d_mlm, d_rts = _targets_loss(
        params, config, ids, real_mask, targets, keep_activations=True
    )
    grads = _backward_from_heads(params, config, ids, out, d_mlm, d_rts)
    return total, grads


def _targets_loss(params, config, ids, real_mask, targets, keep_activations=False):
    """Forward pass for ``targets`` (see ``backward``), the summed head
    losses, and each head's gradient with respect to its logits."""
    positions = targets["mlm"][1:] if "mlm" in targets else None
    out = _forward(params, config, ids, real_mask, tuple(targets), positions, keep_activations)
    total = 0.0
    d_mlm = d_rts = None
    if "mlm" in targets:
        loss, d_mlm = _mlm_loss_grad(out.mlm_logits, targets["mlm"][0])
        total += loss
    if "rts" in targets:
        flags, rows, cols = targets["rts"]
        loss, d_rts = _rts_loss_grad(out.rts_logits, flags, rows, cols)
        total += loss
    return total, out, d_mlm, d_rts


def _backward_from_heads(params, config, ids, out, d_mlm, d_rts) -> Params:
    _, (grads,) = tensor_arena({name: tensor.shape for name, tensor in params.items()})
    cache = out.cache
    hfin = cache["hfin"]
    d_hfin = np.zeros_like(hfin)
    if d_mlm is not None:
        positions = out.mlm_positions
        grads["mlm_head.w"] += _head_input(hfin, positions).T @ d_mlm
        grads["mlm_head.b"] += d_mlm.sum(axis=0)
        np.add.at(d_hfin, positions, d_mlm @ params["mlm_head.w"].T)
    if d_rts is not None:
        grads["rts_head.w"] += (hfin * d_rts[..., None]).sum(axis=(0, 1))
        grads["rts_head.b"] += d_rts.sum()
        d_hfin += d_rts[..., None] * params["rts_head.w"]

    dh, dscale, dshift = _layernorm_backward(d_hfin, cache["final_ln"], params["final_ln.scale"])
    grads["final_ln.scale"] += dscale
    grads["final_ln.shift"] += dshift

    n_heads = config.n_heads
    inv_sqrt = 1.0 / math.sqrt(config.d_model // n_heads)
    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        lc = cache["layers"][i]

        # feed-forward sublayer: h_out = h_mid + W2 gelu(W1 LN2(h_mid) + b1) + b2
        df = dh
        dg = df @ params[p + "ff.w2"].T
        g = lc["u"] * lc["phi"]
        grads[p + "ff.w2"] += g.reshape(-1, config.d_ff).T @ df.reshape(-1, config.d_model)
        grads[p + "ff.b2"] += df.sum(axis=(0, 1))
        du = dg * _gelu_grad(lc["u"], lc["phi"])
        grads[p + "ff.w1"] += lc["b_"].reshape(-1, config.d_model).T @ du.reshape(-1, config.d_ff)
        grads[p + "ff.b1"] += du.sum(axis=(0, 1))
        db_ = du @ params[p + "ff.w1"].T
        dx, dscale, dshift = _layernorm_backward(db_, lc["ln2"], params[p + "ln2.scale"])
        grads[p + "ln2.scale"] += dscale
        grads[p + "ln2.shift"] += dshift
        dh = dh + dx

        # attention sublayer: h_mid = h_in + O(attn(LN1(h_in)))
        dattn = dh
        dctx = dattn @ params[p + "attn.wo"].T
        grads[p + "attn.wo"] += (
            lc["ctx"].reshape(-1, config.d_model).T @ dattn.reshape(-1, config.d_model)
        )
        grads[p + "attn.bo"] += dattn.sum(axis=(0, 1))
        dctx_h = _split_heads(dctx, n_heads)
        dprobs = dctx_h @ lc["v"].transpose(0, 1, 3, 2)
        dv = lc["probs"].transpose(0, 1, 3, 2) @ dctx_h
        probs = lc["probs"]
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = (dscores @ lc["k"]) * inv_sqrt
        dk = (dscores.transpose(0, 1, 3, 2) @ lc["q"]) * inv_sqrt
        da = np.zeros_like(lc["a"])
        a_flat = lc["a"].reshape(-1, config.d_model)
        for dmat, wname, bname in (
            (dq, "attn.wq", "attn.bq"),
            (dk, "attn.wk", "attn.bk"),
            (dv, "attn.wv", "attn.bv"),
        ):
            dmerged = _merge_heads(dmat)
            grads[p + wname] += a_flat.T @ dmerged.reshape(-1, config.d_model)
            grads[p + bname] += dmerged.sum(axis=(0, 1))
            da += dmerged @ params[p + wname].T
        dx, dscale, dshift = _layernorm_backward(da, lc["ln1"], params[p + "ln1.scale"])
        grads[p + "ln1.scale"] += dscale
        grads[p + "ln1.shift"] += dshift
        dh = dh + dx

    ids = np.asarray(ids, dtype=np.int64)
    grads["pos_emb"][: ids.shape[1]] += dh.sum(axis=0)
    np.add.at(grads["tok_emb"], ids.reshape(-1), dh.reshape(-1, config.d_model))
    return grads


@dataclass
class GradCheckReport:
    passed: bool
    worst_rel_err: float
    n_coords: int
    tol: float
    h: float
    worst_name: str = ""
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "worst_rel_err": self.worst_rel_err,
            "worst_tensor": self.worst_name,
            "n_coords": self.n_coords,
            "tol": self.tol,
            "h": self.h,
            "warnings": self.warnings,
        }


def _gradcheck_case(config: ModelConfig, seed: int):
    """A small random batch with both heads labeled, for gradient checking."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 909)))
    batch, length = 2, min(config.max_seq_len, 6)
    ids = rng.integers(N_SPECIALS, config.vocab_size, size=(batch, length))
    ids[:, 0] = CLS_ID
    ids[:, -1] = SEP_ID
    real = np.ones((batch, length), dtype=bool)
    inner = np.arange(1, length - 1)
    rows = np.repeat(np.arange(batch), inner.size)
    cols = np.tile(inner, batch)
    labels = rng.integers(N_SPECIALS, config.vocab_size, size=rows.size)
    flags = rng.integers(0, 2, size=rows.size)
    targets = {"mlm": (labels, rows, cols), "rts": (flags, rows, cols)}
    return ids, real, targets


def grad_check(
    config: ModelConfig,
    seed: int = 0,
    n_coords: int = 200,
    h: float = 1e-4,
    tol: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Coordinates are sampled from every parameter tensor (at least one per
    tensor). The per-coordinate relative error is normalized by the largest
    of |analytic|, |numeric|, and the max-magnitude analytic entry of the
    owning tensor, so near-zero coordinates do not blow up the ratio.
    """
    report = GradCheckReport(passed=True, worst_rel_err=0.0, n_coords=n_coords, tol=tol, h=h)
    if h < 1e-8:
        report.warnings.append(
            "step-size underflow: h below the cancellation threshold, "
            "finite differences will be dominated by rounding error"
        )
    if n_coords == 0:
        report.warnings.append("no coordinates sampled: vacuous pass")
        return report

    params = init_params(config)
    ids, real, targets = _gradcheck_case(config, seed)
    loss0, grads = backward(params, config, ids, real, targets)
    if not math.isfinite(loss0):
        raise ValueError("non-finite loss in gradient check")

    def loss_at(p: Params) -> float:
        return _targets_loss(p, config, ids, real, targets)[0]

    rng = np.random.default_rng(np.random.SeedSequence((seed, 910)))
    names = list(params)
    sizes = np.array([params[n].size for n in names], dtype=np.int64)
    alloc = np.ones(len(names), dtype=np.int64)
    remaining = max(0, n_coords - len(names))
    extra = (remaining * sizes / sizes.sum()).astype(np.int64)
    alloc += extra
    shortfall = n_coords - int(alloc.sum())
    for i in np.argsort(-sizes)[: max(0, shortfall)]:
        alloc[i] += 1

    sampled = 0
    for name, count in zip(names, alloc):
        tensor = params[name]
        scale = max(float(np.abs(grads[name]).max()), 1e-8)
        flat_idx = rng.choice(tensor.size, size=min(int(count), tensor.size), replace=False)
        sampled += flat_idx.size
        for fi in flat_idx:
            idx = np.unravel_index(int(fi), tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + h
            f_plus = loss_at(params)
            tensor[idx] = orig - h
            f_minus = loss_at(params)
            tensor[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(grads[name][idx])
            denom = max(abs(analytic), abs(numeric), scale)
            rel = abs(analytic - numeric) / denom
            if rel > report.worst_rel_err:
                report.worst_rel_err = rel
                report.worst_name = name
    report.n_coords = sampled
    report.passed = report.worst_rel_err < tol
    return report
