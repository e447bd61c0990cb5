"""Differentiable primitives over Tensor values.

Elementwise primitives follow numpy broadcasting; their vjps reduce the
cotangent back onto each input's shape. matmul contracts the last two axes
and broadcasts leading batch axes, with 2-d weight operands shared across
the batch. Reductions accept an int, a tuple of ints, or None for the axis.

The binary arithmetic primitives and matmul return None instead of a
cotangent for an input that does not require gradients, so constants cost
nothing in backward. A vjp never writes into the cotangent it is given:
backward may hand one array to several records.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .tensor import NumericError, ShapeError, Tensor, active_tape


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _finish(op: str, inputs, out_data, vjp) -> Tensor:
    """Wrap a primitive's result; on a recording tape with a tracked input,
    mark it tracked (without a gradient buffer) and record it."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(op, inputs, out, vjp)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast cotangent back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _norm_axes(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    axes = tuple(sorted(a % ndim for a in axis))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axis}")
    return axes


# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _finish("add", (a, b), out, vjp)


def subtract(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"subtract: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _finish("subtract", (a, b), out, vjp)


def multiply(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"multiply: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _finish("multiply", (a, b), out, vjp)


def divide(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data / b.data
    except ValueError as exc:
        raise ShapeError(f"divide: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * out / b.data, b.shape) if b.requires_grad else None,
        )

    return _finish("divide", (a, b), out, vjp)


# linear algebra and structure


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands need ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul: batch dimensions do not broadcast, {a.shape} @ {b.shape}") from exc

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return _finish("matmul", (a, b), out, vjp)


def linear(x, w, b) -> Tensor:
    """x @ w + b for an (n, m) weight and an (m,) bias, over the last axis of
    x, as one record. Leading axes fold into the rows of one matmul, forward
    and vjp, so the weight cotangent is a single (n, m) product."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape} do not chain")
    n, m = w.shape
    x2 = x.data.reshape(-1, n)
    out = x2 @ w.data
    out += b.data

    def vjp(g):
        g2 = g.reshape(-1, m)
        return (
            (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None,
            x2.T @ g2 if w.requires_grad else None,
            g2.sum(axis=0) if b.requires_grad else None,
        )

    return _finish("linear", (x, w, b), out.reshape(x.shape[:-1] + (m,)), vjp)


# Largest score bound for which attention exponentiates raw scores. exp of a
# score in [-300, 300] lies in [5e-131, 2e130], so the row sums, the division
# of the context by them and the vjp's division of g_ctx by them can neither
# overflow nor underflow (doubles span about e^-708 to e^709).
ATTENTION_EXP_BOUND = 300.0

# Bytes of (heads, S, S) probability maps in one block of attention's batch
# rows. The forward holds one block's p at a time, the vjp one block's p and
# its cotangent, so this bounds what attention allocates beyond its (B, S, d)
# operands, whatever the batch size.
ATTENTION_BLOCK_BYTES = 2 << 20


def attention(x, wq, wk, wv, wo, bq, bv, bo, heads: int) -> Tensor:
    """Multi-head self-attention over (B, S, d) tokens as one primitive.

    q = x wq + bq, k = x wk and v = x wv + bv come from one (d, 3d) matmul
    and are cut into ``heads`` slices of width e = d / heads. Each head mixes
    its values by the rows of softmax(q k^T / sqrt(e)), and the merged heads
    go through wo + bo. The vjp is derived by hand, as in Dao et al.,
    "FlashAttention" (2022), so the tape holds a single record in place of
    the projections, head splits, scores and merge.

    The projections and the output matmul run over the whole batch. The
    (heads, S, S) part runs in blocks of as many batch rows as fit in
    ``ATTENTION_BLOCK_BYTES`` (2 MiB: 22 rows at 16 heads and S = 27). A
    block's scores are written by one matmul, exponentiated in place to p
    and then only read: the row sums l are einsum row reductions, 1/sqrt(e)
    rides on the (S, e) queries and the (S, e) context p v is divided by l
    instead of p. Softmax is shift-invariant, so the row-max shift only
    guards the range of exp: every score is bounded by e * max|q| * max|k|
    (q scaled), and only when that bound exceeds ``ATTENTION_EXP_BOUND`` are
    the row maxima subtracted first.

    The vjp keeps l, the context and q, k, v, and recomputes p block by
    block, as FlashAttention does, for one small matmul and an exp per
    block. Keeping p would hold (B, heads, S, S) doubles, 12 MB per layer at
    B = 128, from the forward to the backward. The vjp's working set is one
    block's p and its cotangent, twice the budget. On a 2-core Xeon, a
    criterion-7 fit at batch 128 peaks at 180 MiB, against 224 MiB with p
    kept and 199 MiB with the whole batch as one block. Its epochs run about
    a tenth longer than with p kept, and within noise of one block. Each
    sample's matmuls are independent, so every result is the same bit for
    bit whatever the block size.
    """
    x, wq, wk, wv, wo, bq, bv, bo = (_as_tensor(t) for t in (x, wq, wk, wv, wo, bq, bv, bo))
    if x.ndim != 3:
        raise ShapeError(f"attention: tokens need shape (B, S, d), got {x.shape}")
    b, s, d = x.shape
    for name, t, shape in (
        ("wq", wq, (d, d)), ("wk", wk, (d, d)), ("wv", wv, (d, d)), ("wo", wo, (d, d)),
        ("bq", bq, (d,)), ("bv", bv, (d,)), ("bo", bo, (d,)),
    ):
        if t.shape != shape:
            raise ShapeError(f"attention: {name} has shape {t.shape}, expected {shape}")
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    e = d // heads
    scale = 1.0 / math.sqrt(e)
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    x2 = x.data.reshape(b * s, d)
    qkv = x2 @ w_qkv
    qkv[:, :d] += bq.data
    qkv[:, :d] *= scale
    qkv[:, 2 * d :] += bv.data
    # (3, B, heads, S, e) views of the projections; q carries the scale
    q, k, v = qkv.reshape(b, s, 3, heads, e).transpose(2, 0, 3, 1, 4)
    shift = e * np.abs(qkv[:, :d]).max() * np.abs(qkv[:, d : 2 * d]).max() > ATTENTION_EXP_BOUND
    rows = max(1, min(b, ATTENTION_BLOCK_BYTES // (heads * s * s * 8)))
    blocks = [slice(i, min(i + rows, b)) for i in range(0, b, rows)]

    def probs(blk, out):
        p = np.matmul(q[blk], k[blk].swapaxes(-1, -2), out=out[: blk.stop - blk.start])
        if shift:
            p -= p.max(axis=-1, keepdims=True)
        return np.exp(p, out=p)

    l = np.empty((b, heads, s, 1))
    ctx = np.empty((b, heads, s, e))
    p_buf = np.empty((rows, heads, s, s))
    for blk in blocks:
        p = probs(blk, p_buf)
        np.einsum("...ij->...i", p, out=l[blk, ..., 0])
        np.matmul(p, v[blk], out=ctx[blk])
    del p_buf, p
    ctx /= l
    merged = ctx.transpose(0, 2, 1, 3).reshape(b * s, d)
    out = (merged @ wo.data + bo.data).reshape(b, s, d)

    def vjp(g):
        g2 = g.reshape(b * s, d)
        g_ctx = (g2 @ wo.data.T).reshape(b, s, heads, e).transpose(0, 2, 1, 3)
        # attn = p / l, so each product with attn is one with p and g_ctx / l.
        # The softmax vjp (g_ctx v^T - r) * p, where r holds the row sums of
        # g_ctx * ctx ((S, e) per head), is one matmul [g_ctx, -r] @ [v^T; 1].
        lhs = np.empty((b, heads, s, e + 1))
        g_ctx = np.divide(g_ctx, l, out=lhs[..., :e])
        np.einsum("...i,...i->...", g_ctx, ctx, out=lhs[..., e])
        np.negative(lhs[..., e], out=lhs[..., e])
        rhs = np.ones((b, heads, e + 1, s))
        rhs[:, :, :e] = v.swapaxes(-1, -2)
        g_heads = np.empty((3, b, heads, s, e))
        p_buf = np.empty((rows, heads, s, s))
        g_buf = np.empty((rows, heads, s, s))
        for blk in blocks:
            p = probs(blk, p_buf)
            np.matmul(p.swapaxes(-1, -2), g_ctx[blk], out=g_heads[2, blk])
            g_scores = np.matmul(lhs[blk], rhs[blk], out=g_buf[: blk.stop - blk.start])
            g_scores *= p
            np.matmul(g_scores, k[blk], out=g_heads[0, blk])
            np.matmul(g_scores.swapaxes(-1, -2), q[blk], out=g_heads[1, blk])
        g_heads[0] *= scale
        # one transposing copy back to the (B * S, 3d) projection layout
        g_qkv = g_heads.transpose(1, 3, 0, 2, 4).reshape(b * s, 3 * d)
        gw = x2.T @ g_qkv
        gb = g_qkv.sum(axis=0)
        gx = (g_qkv @ w_qkv.T).reshape(b, s, d)
        gwo = merged.T @ g2
        return (
            gx, gw[:, :d], gw[:, d : 2 * d], gw[:, 2 * d :], gwo,
            gb[:d], gb[2 * d :], g2.sum(axis=0),
        )

    return _finish("attention", (x, wq, wk, wv, wo, bq, bv, bo), out, vjp)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    try:
        out = np.reshape(a.data, shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from exc

    def vjp(g):
        return (np.reshape(g, a.shape),)

    return _finish("reshape", (a,), out, vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(_as_tensor(t) for t in tensors)
    if not ts:
        raise ShapeError("concat needs at least one input")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]} on axis {axis}") from exc
    ax = axis % out.ndim
    offsets = np.cumsum([t.shape[ax] for t in ts])[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=ax))

    return _finish("concat", ts, out, vjp)


def slice_(a, index) -> Tensor:
    """Basic indexing (ints, slices, Ellipsis); the vjp scatters into zeros."""
    a = _as_tensor(a)
    out = a.data[index]

    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[index] = g
        return (buf,)

    return _finish("slice", (a,), out, vjp)


def tril_compose(diag, off, size: int) -> Tensor:
    """Lower-triangular (..., size, size) matrices from a diagonal part
    (..., size) and strictly-lower entries (..., size*(size-1)//2) packed in
    row-major order."""
    diag, off = _as_tensor(diag), _as_tensor(off)
    n_off = size * (size - 1) // 2
    if diag.shape[-1:] != (size,):
        raise ShapeError(f"tril_compose: diagonal shape {diag.shape} does not end in {size}")
    if off.shape[-1:] != (n_off,):
        raise ShapeError(f"tril_compose: off-diagonal shape {off.shape} does not end in {n_off}")
    if diag.shape[:-1] != off.shape[:-1]:
        raise ShapeError(
            f"tril_compose: leading shapes differ, {diag.shape[:-1]} vs {off.shape[:-1]}"
        )
    rows, cols = np.tril_indices(size, -1)
    idx = np.arange(size)
    out = np.zeros(diag.shape[:-1] + (size, size))
    out[..., idx, idx] = diag.data
    if n_off:
        out[..., rows, cols] = off.data

    def vjp(g):
        gd = g[..., idx, idx]
        go = g[..., rows, cols] if n_off else np.zeros_like(off.data)
        return gd, go

    return _finish("tril_compose", (diag, off), out, vjp)


# pointwise nonlinearities


def log(a) -> Tensor:
    a = _as_tensor(a)
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _finish("log", (a,), out, vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    out = np.logaddexp(0.0, a.data)

    def vjp(g):
        return (g * _sigmoid(a.data),)

    return _finish("softplus", (a,), out, vjp)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _finish("relu", (a,), out, vjp)


def _positive(a: Tensor) -> np.ndarray:
    """The values of a gamma-family argument, which must lie on the positive
    axis where lgamma is real and digamma is finite."""
    if np.any(a.data <= 0.0):
        raise ValueError("argument must be strictly positive")
    return a.data


def lgamma(a) -> Tensor:
    a = _as_tensor(a)
    x = _positive(a)

    def vjp(g):
        return (g * special.digamma(x),)

    return _finish("lgamma", (a,), special.gammaln(x), vjp)


def digamma(a) -> Tensor:
    a = _as_tensor(a)
    x = _positive(a)

    def vjp(g):
        return (g * special.polygamma(1, x),)

    return _finish("digamma", (a,), special.digamma(x), vjp)


# normalizations and reductions


def layer_norm(a, gain, bias, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply the
    learned elementwise scale and shift.

    The row statistics, forward and vjp, are einsum reductions over an
    (n, width) view: numpy's ``mean`` over a short last axis runs a strided
    loop per row and takes about twice as long."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    if a.ndim < 1:
        raise ShapeError("layer_norm needs at least one axis")
    width = a.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(
            f"layer_norm: scale/shift must have shape ({width},), got {gain.shape} and {bias.shape}"
        )
    a2 = a.data.reshape(-1, width)
    mu = np.einsum("ij->i", a2) / width
    normalized = a2 - mu[:, None]
    var = np.einsum("ij,ij->i", normalized, normalized) / width
    inv = (1.0 / np.sqrt(var + eps))[:, None]
    normalized *= inv
    out = normalized * gain.data
    out += bias.data

    def vjp(g):
        g2 = g.reshape(-1, width)
        gn = g2 * gain.data
        m1 = np.einsum("ij->i", gn) / width
        m2 = np.einsum("ij,ij->i", gn, normalized) / width
        ga = (gn - m1[:, None] - normalized * m2[:, None]) * inv
        ggain = np.einsum("ij,ij->j", g2, normalized)
        return ga.reshape(a.shape), ggain, g2.sum(axis=0)

    return _finish("layer_norm", (a, gain, bias), out.reshape(a.shape), vjp)


def max_reduce(a, axis: int, keepdims: bool = False) -> Tensor:
    """Elementwise maximum over one axis; ties route their gradient to the
    lowest index along that axis."""
    a = _as_tensor(a)
    if axis is None or not isinstance(axis, (int, np.integer)):
        raise ShapeError("max_reduce needs a single integer axis")
    ax = int(axis) % a.ndim
    out = np.max(a.data, axis=ax, keepdims=keepdims)
    argmax = np.argmax(a.data, axis=ax)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, ax)
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, np.expand_dims(argmax, ax), gg, ax)
        return (buf,)

    return _finish("max_reduce", (a,), out, vjp)


def sum_reduce(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg, a.shape),)

    return _finish("sum_reduce", (a,), out, vjp)


def mean_reduce(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[i] for i in axes])) if axes else 1
    out = a.data.mean(axis=axes, keepdims=keepdims) if axes else a.data.copy()

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg / count, a.shape),)

    return _finish("mean_reduce", (a,), out, vjp)

