"""A small transformer encoder in plain numpy with exact analytic gradients.

Pre-layer-norm residual blocks, learned positional embeddings, an MLM head
(single linear projection to vocab logits) and an RTS head (one logit per
position). Everything runs in float64 so the finite-difference gradient
checker and the test oracles can demand tight agreement.

Which rows are encoded: a batch is padded to its longest row, and every call
runs the position-wise sublayers (layer norms, the Q/K/V and output
projections, the feed-forward and the heads) on a packed (T, d) array of
the T real rows alone. Nothing reads a pad row's result: padded keys get
exactly zero attention and pad rows carry no loss, so leaving them out
changes only the order of float sums. Attention alone scatters Q, K and V
back to (B, H, S, dh) and gathers its context back to the T rows. Every
batch takes this one path, an unpadded one (as in PLL) included, where the
index simply lists every row. Each layer runs in its own call, so a
forward-only call keeps no layer's activations past the layer; they are
kept only for ``backward``.

The heads: ``HEADS`` maps each head name to its loss on the logits at n
loss positions, ``mlm_loss_grad(logits, labels)`` on (n, V) logits and
``rts_loss_grad(logits, flags)`` on (n,) logits. A head projects only the
rows it scores, ``hfin[rows] @ W + b``. ``forward`` with
``positions=(rows, cols)`` returns every requested head's logits at those
positions, (n, V) and (n,); without it the logits are (B, S, V) and (B, S)
and NaN at padding. A position on padding or an unknown head name raises
``ValueError``.

``loss(params, config, ids, real_mask, targets)`` is the one loss entry
point: ``targets`` maps each head to its (labels, rows, cols), each head
scores just those positions, and the head losses are summed. ``backward``
differentiates the same loss, and training, evaluation and the gradient
check all go through the two.

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

from .data import CLS_ID, N_SPECIALS, PAD_ID, SEP_ID, counter_rng

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
    """Head outputs of one forward pass."""

    mlm_logits: np.ndarray | None = None
    rts_logits: np.ndarray | None = None
    cache: dict = field(repr=False, default_factory=dict)


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


def tensor_arena(shapes: dict[str, tuple[int, ...]]) -> tuple[np.ndarray, Params]:
    """A zeroed flat float64 buffer and a dict of views into it.

    The dict holds one C-order view per name, laid out back to back in
    ``shapes`` order. Writes through a view land in the buffer.
    """
    sizes = [math.prod(shape) for shape in shapes.values()]
    buffer = np.zeros(sum(sizes))
    views: Params = {}
    offset = 0
    for (name, shape), size in zip(shapes.items(), sizes):
        views[name] = buffer[offset : offset + size].reshape(shape)
        offset += size
    return buffer, views


def arena_buffer(tensors: Params) -> np.ndarray | None:
    """The buffer of a ``tensor_arena`` dict, else None.

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
    _, params = tensor_arena(param_shapes(config))
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


def _split_heads(x: np.ndarray, sel, batch: int, length: int, n_heads: int) -> np.ndarray:
    """Rows (T, d) -> heads (B, H, S, dh), zero at the rows outside ``sel``."""
    full = np.zeros((batch * length, x.shape[1]))
    full[sel] = x
    return full.reshape(batch, length, n_heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray, sel) -> np.ndarray:
    """Heads (B, H, S, dh) -> rows (T, d), the rows ``sel`` only."""
    _, h, length, dh = x.shape
    return x.transpose(0, 2, 1, 3)[np.divmod(sel, length)].reshape(-1, h * dh)


def _head_rows(positions, real_mask: np.ndarray, sel) -> np.ndarray:
    """The rows of the encoded (T, d) array at (rows, cols) ``positions``;
    ``ValueError`` if one lies outside the batch or on padding."""
    rows, cols = (np.asarray(x, dtype=np.int64) for x in positions)
    flat = np.ravel_multi_index((rows, cols), real_mask.shape)
    if not real_mask.reshape(-1)[flat].all():
        raise ValueError("a scored position is padding")
    return np.searchsorted(sel, flat)


def _heads_in_order(names) -> list[str]:
    """``names`` in ``HEADS`` order; ``ValueError`` for an unknown one."""
    names = set(names)
    if names - HEADS.keys():
        raise ValueError(f"unknown heads {sorted(names - HEADS.keys())}; known: {list(HEADS)}")
    return [head for head in HEADS if head in names]


def _head_logits(params: Params, head: str, hfin: np.ndarray, rows) -> np.ndarray:
    """``head``'s logits at the encoded rows ``rows``."""
    return hfin[rows] @ params[head + "_head.w"] + params[head + "_head.b"]


def forward(
    params: Params,
    config: ModelConfig,
    ids: np.ndarray,
    real_mask: np.ndarray,
    heads: Iterable[str] = ("mlm",),
    positions: tuple[np.ndarray, np.ndarray] | None = None,
) -> ForwardOutput:
    """Encode the real rows of a padded id batch and project ``heads``.

    ``positions`` = (rows, cols) restricts every head to those positions:
    ``mlm_logits[i]`` (V,) and ``rts_logits[i]`` then score position
    (rows[i], cols[i]), and a position on padding raises ``ValueError``.
    Without ``positions`` the logits are (B, S, V) and (B, S), NaN at
    padding.
    """
    heads = _heads_in_order(heads)
    real_mask = np.asarray(real_mask, dtype=bool)
    sel, cache = _encode(params, config, ids, real_mask, keep_activations=False)
    rows = slice(None) if positions is None else _head_rows(positions, real_mask, sel)
    logits = {head: _head_logits(params, head, cache["hfin"], rows) for head in heads}
    if positions is None:  # back to (B, S, ...), NaN at padding
        for head, x in logits.items():
            full = np.full((real_mask.size, *x.shape[1:]), np.nan)
            full[sel] = x
            logits[head] = full.reshape(*real_mask.shape, *x.shape[1:])
    return ForwardOutput(**{head + "_logits": x for head, x in logits.items()}, cache=cache)


def _encode(params, config, ids, real_mask, keep_activations):
    """Run the encoder on the real rows of a padded id batch.

    Returns ``sel``, the flat indices of the T real rows in the (B·S) batch,
    and the cache: the final hidden state ``hfin`` (T, d) and, with
    ``keep_activations``, what ``_backward_from_heads`` needs from every
    layer.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape[1] > config.max_seq_len:
        raise ValueError(f"sequence length {ids.shape[1]} exceeds max_seq_len {config.max_seq_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of range")
    sel = np.flatnonzero(real_mask)
    h = params["tok_emb"][ids.reshape(-1)[sel]] + params["pos_emb"][sel % ids.shape[1]]
    layers = []
    for i in range(config.n_layers):
        h, acts = _layer_forward(
            params, f"layer{i}.", h, real_mask, sel, config.n_heads, keep_activations
        )
        layers.append(acts)
    hfin, final_ln = _layernorm_forward(h, params["final_ln.scale"], params["final_ln.shift"])
    cache = {"hfin": hfin}
    if keep_activations:
        cache.update(layers=layers, final_ln=final_ln)
    return sel, cache


def _layer_forward(params, p, h, real_mask, sel, n_heads, keep_activations):
    """Layer ``p`` on the rows ``h``: the new rows and, with
    ``keep_activations``, the activations its backward pass reads (else
    None). Everything else the layer makes is freed when it returns."""
    batch, length = real_mask.shape
    a, ln1 = _layernorm_forward(h, params[p + "ln1.scale"], params[p + "ln1.shift"])
    q, k, v = (
        _split_heads(
            a @ params[p + "attn.w" + x] + params[p + "attn.b" + x], sel, batch, length, n_heads
        )
        for x in "qkv"
    )
    # softmax over the real keys, in place on one (B, H, S, S) array
    probs = q @ k.transpose(0, 1, 3, 2)
    probs *= 1.0 / math.sqrt(q.shape[-1])
    np.copyto(probs, -np.inf, where=~real_mask[:, None, None, :])
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(probs @ v, sel)
    h = h + (ctx @ params[p + "attn.wo"] + params[p + "attn.bo"])

    b_, ln2 = _layernorm_forward(h, params[p + "ln2.scale"], params[p + "ln2.shift"])
    u = b_ @ params[p + "ff.w1"] + params[p + "ff.b1"]
    phi = _normal_cdf(u)
    h = h + ((u * phi) @ params[p + "ff.w2"] + params[p + "ff.b2"])
    if not keep_activations:
        return h, None
    return h, dict(ln1=ln1, a=a, q=q, k=k, v=v, probs=probs, ctx=ctx, ln2=ln2, b_=b_, u=u, phi=phi)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def mlm_loss_grad(
    logits: np.ndarray, labels: np.ndarray, with_grad: bool = True
) -> tuple[float, np.ndarray | None]:
    """Mean negative log-likelihood of the labels under (n, V) logits, row i
    labelled ``labels[i]``, and its gradient with respect to the logits
    (None without ``with_grad``)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("loss undefined: empty loss set")
    n = labels.size
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=-1, keepdims=True)
    value = float((np.log(sums[:, 0]) - shifted[np.arange(n), labels]).mean())
    if not with_grad:
        return value, None
    dlogits = exps
    dlogits /= sums
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return value, dlogits


def rts_loss_grad(
    logits: np.ndarray, flags: np.ndarray, with_grad: bool = True
) -> tuple[float, np.ndarray | None]:
    """Mean binary cross-entropy of the substitution flags under (n,)
    logits, logit i flagged ``flags[i]``, and its gradient with respect to
    the logits (None without ``with_grad``)."""
    flags = np.asarray(flags, dtype=np.float64)
    if flags.size == 0:
        raise ValueError("loss undefined: no labeled positions")
    # softplus(z) - y*z and sigmoid, both computed overflow-free
    exp_neg = np.exp(-np.abs(logits))
    value = float((np.maximum(logits, 0.0) + np.log1p(exp_neg) - flags * logits).mean())
    if not with_grad:
        return value, None
    sigma = np.where(logits >= 0, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))
    return value, (sigma - flags) / flags.size


# head name -> its loss on the head's logits at the loss positions; the one
# place that names the heads
HEADS = {"mlm": mlm_loss_grad, "rts": rts_loss_grad}


def loss(
    params: Params,
    config: ModelConfig,
    ids: np.ndarray,
    real_mask: np.ndarray,
    targets: dict,
) -> float:
    """The loss ``backward`` differentiates, for the same ``targets``.

    ``targets`` maps one or more head names ("mlm", "rts") to a
    (labels, loss_rows, loss_cols) triple, and the heads' losses are summed.
    Only the real rows are encoded and each head scores only its loss
    positions. A loss position on padding, an unknown head name and empty
    ``targets`` raise ``ValueError``.
    """
    return _head_losses(params, config, ids, real_mask, targets, keep_activations=False)[0]


def backward(
    params: Params,
    config: ModelConfig,
    ids: np.ndarray,
    real_mask: np.ndarray,
    targets: dict,
) -> tuple[float, Params]:
    """``loss`` and its exact gradient with respect to every parameter."""
    total, sel, cache, d_logits = _head_losses(
        params, config, ids, real_mask, targets, keep_activations=True
    )
    return total, _backward_from_heads(params, config, ids, sel, cache, d_logits)


def _head_losses(params, config, ids, real_mask, targets, keep_activations):
    """The encoder pass for ``targets`` and the summed head losses; with
    ``keep_activations`` also each head's loss rows and the gradient with
    respect to its logits there, as {head: (rows, d_logits)}."""
    heads = _heads_in_order(targets)
    if not heads:
        raise ValueError("targets name no head")
    real_mask = np.asarray(real_mask, dtype=bool)
    sel, cache = _encode(params, config, ids, real_mask, keep_activations)
    total = 0.0
    d_logits = {}
    for head in heads:
        labels, *positions = targets[head]
        rows = _head_rows(positions, real_mask, sel)
        logits = _head_logits(params, head, cache["hfin"], rows)
        head_loss, grad = HEADS[head](logits, labels, keep_activations)
        d_logits[head] = (rows, grad)
        total += head_loss
    return total, sel, cache, d_logits


def _backward_from_heads(params, config, ids, sel, cache, d_logits) -> Params:
    _, grads = tensor_arena({name: tensor.shape for name, tensor in params.items()})
    hfin = cache["hfin"]
    ids = np.asarray(ids, dtype=np.int64)
    batch, length = ids.shape
    d_hfin = np.zeros_like(hfin)
    for head, (rows, d) in d_logits.items():
        w = params[head + "_head.w"]
        grads[head + "_head.w"] += hfin[rows].T @ d
        grads[head + "_head.b"] += d.sum(axis=0)
        # the RTS head's (d,) weight and (n,) logits act as one-column matrices
        np.add.at(d_hfin, rows, d.reshape(rows.size, -1) @ w.reshape(w.shape[0], -1).T)

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
        grads[p + "ff.w2"] += (lc["u"] * lc["phi"]).T @ df
        grads[p + "ff.b2"] += df.sum(axis=0)
        du = dg * _gelu_grad(lc["u"], lc["phi"])
        grads[p + "ff.w1"] += lc["b_"].T @ du
        grads[p + "ff.b1"] += du.sum(axis=0)
        db_ = du @ params[p + "ff.w1"].T
        dx, dscale, dshift = _layernorm_backward(db_, lc["ln2"], params[p + "ln2.scale"])
        grads[p + "ln2.scale"] += dscale
        grads[p + "ln2.shift"] += dshift
        dh = dh + dx

        # attention sublayer: h_mid = h_in + O(attn(LN1(h_in)))
        dattn = dh
        dctx = dattn @ params[p + "attn.wo"].T
        grads[p + "attn.wo"] += lc["ctx"].T @ dattn
        grads[p + "attn.bo"] += dattn.sum(axis=0)
        dctx_h = _split_heads(dctx, sel, batch, length, n_heads)
        dprobs = dctx_h @ lc["v"].transpose(0, 1, 3, 2)
        dv = lc["probs"].transpose(0, 1, 3, 2) @ dctx_h
        probs = lc["probs"]
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = (dscores @ lc["k"]) * inv_sqrt
        dk = (dscores.transpose(0, 1, 3, 2) @ lc["q"]) * inv_sqrt
        da = np.zeros_like(lc["a"])
        for dmat, x in ((dq, "q"), (dk, "k"), (dv, "v")):
            dmerged = _merge_heads(dmat, sel)
            grads[p + "attn.w" + x] += lc["a"].T @ dmerged
            grads[p + "attn.b" + x] += dmerged.sum(axis=0)
            da += dmerged @ params[p + "attn.w" + x].T
        dx, dscale, dshift = _layernorm_backward(da, lc["ln1"], params[p + "ln1.scale"])
        grads[p + "ln1.scale"] += dscale
        grads[p + "ln1.shift"] += dshift
        dh = dh + dx

    np.add.at(grads["pos_emb"], sel % length, dh)
    np.add.at(grads["tok_emb"], ids.reshape(-1)[sel], dh)
    return grads


@dataclass
class GradCheckReport:
    passed: bool
    worst_rel_err: float
    n_coords: int
    tol: float
    h: float
    worst_tensor: str = ""
    warnings: list[str] = field(default_factory=list)


def _gradcheck_case(config: ModelConfig, seed: int):
    """A small random batch with both heads labeled, for gradient checking.

    The last row ends up to two positions early, so the check covers the
    padding that the real-rows path leaves out.
    """
    rng = counter_rng(seed, "gradcheck_case")
    batch, length = 2, min(config.max_seq_len, 6)
    ids = rng.integers(N_SPECIALS, config.vocab_size, size=(batch, length))
    real = np.ones((batch, length), dtype=bool)
    real[-1, length - max(0, min(2, length - 3)) :] = False
    ends = real.sum(axis=1) - 1
    ids[~real] = PAD_ID
    ids[:, 0] = CLS_ID
    ids[np.arange(batch), ends] = SEP_ID
    inner = real.copy()
    inner[:, 0] = False
    inner[np.arange(batch), ends] = False
    rows, cols = np.nonzero(inner)
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
    if n_coords < 0:
        raise ValueError(f"n_coords must be >= 0, got {n_coords}")
    if not (0 < h < math.inf and 0 < tol < math.inf):
        raise ValueError(f"h and tol must be finite and > 0, got h={h!r}, tol={tol!r}")
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

    rng = counter_rng(seed, "gradcheck_coords")
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
            f_plus = loss(params, config, ids, real, targets)
            tensor[idx] = orig - h
            f_minus = loss(params, config, ids, real, targets)
            tensor[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(grads[name][idx])
            denom = max(abs(analytic), abs(numeric), scale)
            rel = abs(analytic - numeric) / denom
            if rel > report.worst_rel_err:
                report.worst_rel_err = rel
                report.worst_tensor = name
    report.n_coords = sampled
    report.passed = report.worst_rel_err < tol
    return report
