"""Differentiable primitives over Tensor values.

Each family of primitives has one body. ``_binary`` runs add, subtract,
multiply, divide and matmul: it coerces the inputs, turns numpy's broadcast
ValueError into a ShapeError that names the op, records the op, and builds
a vjp that sums each input's partial back onto that input's shape and
returns None instead of a cotangent for an input that does not require
gradients, so constants cost nothing in backward (``linear`` skips them
too). Each op states only its numpy function and its two partials; matmul,
which contracts the last two axes and broadcasts leading batch axes, checks
its ranks and inner dimensions first. ``_pointwise`` runs softplus and
relu: it records ``fn(x)`` with the vjp ``grad(g, x)``.
``sum_reduce`` takes an int, a tuple of ints, or None for the axis, and
``mean_reduce`` the mean of every entry. A vjp never writes into the
cotangent it is given: backward may hand one array to several records.

Layer norm, attention and linear are kernels over arrays. ``_layer_norm``
returns its output and the rows that ``_layer_norm_vjp`` reads,
``_attention`` its output and a vjp that takes the input again, and
``_linear`` its output alone, since ``_linear_vjp`` reads only the input
and the weight. ``linear`` records one kernel; ``encoder_layer``, a whole
transformer layer, records one chain of them, so each kernel has a single
copy however it is recorded. The loss terms with closed-form gradients,
the two KL terms of ``losses``, record through ``_finish`` as kernels of
their own, so no primitive here serves them alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .tensor import ShapeError, Tensor, active_tape


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _recording_tape(inputs):
    """The tape a primitive over ``inputs`` records on: the active tape if an
    input is tracked, else None."""
    tape = active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _finish(op: str, inputs, out_data, vjp) -> Tensor:
    """Wrap a primitive's result; on a recording tape with a tracked input,
    mark it tracked (without a gradient buffer) and record it."""
    out = Tensor(out_data)
    tape = _recording_tape(inputs)
    if tape is not None:
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


# elementwise arithmetic and matmul


def _binary(op: str, a, b, fn, grad_a, grad_b) -> Tensor:
    """``fn`` of two inputs' arrays, recorded as ``op``. ``grad_a`` and
    ``grad_b`` map (g, a, b, out) to an input's cotangent before it is summed
    back onto that input's shape; the vjp gives None for an input that does
    not require gradients and never calls its partial."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return (
            _unbroadcast(grad_a(g, a.data, b.data, out), a.shape) if a.requires_grad else None,
            _unbroadcast(grad_b(g, a.data, b.data, out), b.shape) if b.requires_grad else None,
        )

    return _finish(op, (a, b), out, vjp)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, a, b, out: g, lambda g, a, b, out: g)


def subtract(a, b) -> Tensor:
    return _binary("subtract", a, b, np.subtract, lambda g, a, b, out: g, lambda g, a, b, out: -g)


def multiply(a, b) -> Tensor:
    return _binary(
        "multiply", a, b, np.multiply, lambda g, a, b, out: g * b, lambda g, a, b, out: g * a
    )


def divide(a, b) -> Tensor:
    return _binary(
        "divide", a, b, np.divide, lambda g, a, b, out: g / b, lambda g, a, b, out: -g * out / b
    )


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands need ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    return _binary(
        "matmul", a, b, np.matmul,
        lambda g, a, b, out: g @ np.swapaxes(b, -1, -2),
        lambda g, a, b, out: np.swapaxes(a, -1, -2) @ g,
    )


# linear algebra and structure


def _linear(x, w, b):
    """x @ w + b for an (n, m) weight and an (m,) bias over the last axis of
    the array x. Leading axes fold into the rows of one matmul, here and in
    ``_linear_vjp``, so the weight cotangent is a single (n, m) product."""
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape} do not chain")
    out = x.reshape(-1, w.shape[0]) @ w
    out += b
    return out.reshape(x.shape[:-1] + w.shape[1:])


def _linear_vjp(x, w, needs=(True, True, True)):
    """The vjp of ``_linear`` at the input x and weight w, which skips the
    cotangents ``needs`` marks False; it reads nothing the forward made."""
    n, m = w.shape
    x2 = x.reshape(-1, n)

    def vjp(g):
        g2 = g.reshape(-1, m)
        return (
            (g2 @ w.T).reshape(x.shape) if needs[0] else None,
            x2.T @ g2 if needs[1] else None,
            g2.sum(axis=0) if needs[2] else None,
        )

    return vjp


def linear(x, w, b) -> Tensor:
    """x @ w + b over the last axis of x, as one record (see ``_linear``)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    out = _linear(x.data, w.data, b.data)
    needs = (x.requires_grad, w.requires_grad, b.requires_grad)
    return _finish("linear", (x, w, b), out, _linear_vjp(x.data, w.data, needs))


# Largest score bound for which attention exponentiates raw scores. exp of a
# score in [-300, 300] lies in [5e-131, 2e130], so the row sums, the division
# of the context by them and the vjp's division of g_ctx by them can neither
# overflow nor underflow (doubles span about e^-708 to e^709).
ATTENTION_EXP_BOUND = 300.0

# Bytes of (heads, S, S) probability maps in one block of attention's batch
# rows. The forward holds one block's p at a time, the vjp one block's p and
# its cotangent, so this bounds what attention allocates beyond its (B, S, d)
# operands, whatever the batch size. At 2 MiB the vjp's two block buffers
# were the only allocations larger than a few (B * S, d) arrays, and once
# backward freed each record as it went, the heap often lacked a 2 MiB hole
# for them in the middle of a warm epoch and grew again.
ATTENTION_BLOCK_BYTES = 1 << 20


def _attention(x, wq, wk, wv, wo, bq, bv, bo, heads: int):
    """Multi-head self-attention over (B, S, d) token arrays, and its vjp.

    q = x wq + bq, k = x wk and v = x wv + bv come from one (d, 3d) matmul
    and are cut into ``heads`` slices of width e = d / heads. Each head mixes
    its values by the rows of softmax(q k^T / sqrt(e)), and the merged heads
    go through wo + bo. The vjp is derived by hand, as in Dao et al.,
    "FlashAttention" (2022). It is called as ``vjp(g, x)``, with the same x
    again, and returns the cotangents of all eight arrays; ``encoder_layer``
    chains it with the layer's other kernels.

    Everything is feature-major: the projection is one (3d, B * S) product,
    read as (3, heads, e, B, S), so the q^T, k^T and v^T of a head and a
    sample are (e, S) matrices with unit stride along S that the BLAS reads
    where they lie. ctx^T = v^T p^T lands in the (d, B * S) buffer that the
    output projection reads, and the vjp writes g_q^T, g_k^T and g_v^T over
    q^T, k^T and v^T block by block, so the projection it rebuilds becomes
    the (3d, B * S) cotangent: no step copies an array to change its layout,
    and only a block's g_q^T waits in a scratch of its own.

    The (heads, S, S) scores run in blocks of as many batch rows as fit in
    ``ATTENTION_BLOCK_BYTES`` (11 rows at 16 heads and S = 27), exponentiated
    in place to p, and the context is divided by the row sums l instead of
    p. Softmax is shift-invariant, so the row maxima are subtracted only
    when the score bound e * max|q| * max|k| (q scaled) exceeds
    ``ATTENTION_EXP_BOUND``. The vjp keeps only l and the context, which
    cost the whole score pass to rebuild. It rebuilds q, k and v from the x
    it is given with the forward's own projection, and p block by block, as
    FlashAttention does, rather than hold (B, heads, S, S) doubles (12 MB
    per layer at B = 128) until backward.
    Each sample's matmuls are independent, so every result is the same bit
    for bit whatever the block size.
    """
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
    w_qkv = np.concatenate([wq, wk, wv], axis=1)
    rows = max(1, min(b, ATTENTION_BLOCK_BYTES // (heads * s * s * 8)))
    blocks = [slice(i, min(i + rows, b)) for i in range(0, b, rows)]

    def project(x2):
        """The (3d, B * S) projection, its (heads, B, e, S) views of q^T, k^T
        and v^T, q carrying the scale, and whether the scores need their row
        maxima subtracted."""
        qkv_t = w_qkv.T @ x2.T
        qkv_t[:d] += bq[:, None]
        qkv_t[:d] *= scale
        qkv_t[2 * d :] += bv[:, None]
        shift = e * np.abs(qkv_t[:d]).max() * np.abs(qkv_t[d : 2 * d]).max() > ATTENTION_EXP_BOUND
        return (qkv_t, *qkv_t.reshape(3, heads, e, b, s).swapaxes(2, 3), shift)

    def probs(q, k, shift, blk, out):
        p = np.matmul(q[:, blk].swapaxes(-1, -2), k[:, blk], out=out[:, : blk.stop - blk.start])
        if shift:
            p -= p.max(axis=-1, keepdims=True)
        return np.exp(p, out=p)

    # l and the context, which the vjp keeps, are allocated before the
    # projection and the block buffer, and the output before those two are
    # dropped: freed together, they leave one hole for the next allocations
    l = np.empty((heads, b, s))
    # the context, transposed per head and sample: the merged heads as (d, B * S)
    merged_t = np.empty((d, b * s))
    ctx_t = merged_t.reshape(heads, e, b, s)
    qkv_t, q, k, v, shift = project(x.reshape(b * s, d))
    p_buf = np.empty((heads, rows, s, s))
    for blk in blocks:
        p = probs(q, k, shift, blk, p_buf)
        np.einsum("...ij->...i", p, out=l[:, blk])
        np.matmul(v[:, blk], p.swapaxes(-1, -2), out=ctx_t.swapaxes(1, 2)[:, blk])
    ctx_t /= l[:, None]
    out = merged_t.T @ wo
    out += bo
    del p_buf, p, qkv_t, q, k, v

    def vjp(g, x):
        x2 = x.reshape(b * s, d)
        g_qkv_t, q, k, v, shift = project(x2)
        g2 = g.reshape(b * s, d)
        # attn = p / l, so each product with attn is one with p and g_ctx / l.
        # The softmax vjp (g_ctx v^T - r) * p, where r holds the row sums of
        # g_ctx * ctx (over e per head), is one matmul [g_ctx, -r] @ [v^T; 1],
        # whose operands are held as (e + 1, S) matrices like q^T and k^T.
        lhs_t = np.empty((heads, e + 1, b, s))
        g_ctx_t = np.divide((wo @ g2.T).reshape(heads, e, b, s), l[:, None], out=lhs_t[:, :e])
        lhs_t[:, e] = -np.einsum("hebs,hebs->hbs", g_ctx_t, ctx_t)
        rhs_t = np.ones((heads, e + 1, b, s))
        rhs_t[:, :e] = v.swapaxes(1, 2)
        lhs, rhs = lhs_t.swapaxes(1, 2), rhs_t.swapaxes(1, 2)
        # g_q^T, g_k^T and g_v^T go over q^T, k^T and v^T block by block, so
        # the projection's buffer becomes its cotangent's. rhs_t holds a copy
        # of v, so g_v goes straight over it; g_q reads k and g_k reads q, so
        # g_q waits in a block scratch until g_k is over k.
        p_buf = np.empty((heads, rows, s, s))
        g_buf = np.empty((heads, rows, s, s))
        g_q_buf = np.empty((heads, rows, e, s))
        for blk in blocks:
            p = probs(q, k, shift, blk, p_buf)
            n = p.shape[1]
            np.matmul(lhs[:, blk, :e], p, out=v[:, blk])
            g_scores = np.matmul(lhs[:, blk].swapaxes(-1, -2), rhs[:, blk], out=g_buf[:, :n])
            g_scores *= p
            np.matmul(k[:, blk], g_scores.swapaxes(-1, -2), out=g_q_buf[:, :n])
            np.matmul(q[:, blk], g_scores, out=k[:, blk])
            q[:, blk] = g_q_buf[:, :n]
        # the scratch is freed before the weight and input cotangents exist
        del q, k, v, lhs_t, rhs_t, lhs, rhs, g_ctx_t, p_buf, g_buf, g_q_buf, p, g_scores
        g_qkv_t[:d] *= scale
        gw = x2.T @ g_qkv_t.T
        gb = g_qkv_t.sum(axis=1)
        gx = (g_qkv_t.T @ w_qkv.T).reshape(b, s, d)
        return (
            gx, gw[:, :d], gw[:, d : 2 * d], gw[:, 2 * d :], merged_t @ g2,
            gb[:d], gb[2 * d :], g2.sum(axis=0),
        )

    return out.reshape(b, s, d), vjp


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    try:
        out = np.reshape(a.data, shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from exc

    def vjp(g):
        return (np.reshape(g, a.shape),)

    return _finish("reshape", (a,), out, vjp)


def slice_(a, index) -> Tensor:
    """Basic indexing (ints, slices, Ellipsis); the vjp scatters into zeros."""
    a = _as_tensor(a)
    out = a.data[index]

    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[index] = g
        return (buf,)

    return _finish("slice", (a,), out, vjp)


@functools.lru_cache(maxsize=32)
def _tril_index(sizes: tuple):
    """``tril_blocks``' flat index of the diagonals, then the packed
    off-diagonals, in a stack of blocks of ``sizes``; read-only, since every
    call with these sizes shares it."""
    width = max(sizes)
    diag_idx, off_idx = [], []
    for s, m in enumerate(sizes):
        rows, cols = np.tril_indices(m, -1)
        diag_idx.append(s * width * width + (width + 1) * np.arange(m))
        off_idx.append(s * width * width + width * rows + cols)
    index = np.concatenate(diag_idx + off_idx)
    index.flags.writeable = False
    return index


def tril_blocks(diag, off, sizes) -> Tensor:
    """Stacked lower-triangular blocks (..., n_seg, L, L), L = max(sizes),
    from a diagonal part (..., sum(sizes)) and strictly-lower entries
    (..., sum(m*(m-1)//2)) packed block by block in row-major order. A block
    of size m < L is padded with the identity, so its Cholesky factor and
    covariance are those of the m x m block next to L - m unit variances.

    One flat index places the concatenated inputs in the flattened stack:
    the forward is one scatter and the vjp one gather, which never reads the
    padding."""
    diag, off = _as_tensor(diag), _as_tensor(off)
    n_diag = sum(sizes)
    n_off = sum(m * (m - 1) // 2 for m in sizes)
    if diag.shape[-1:] != (n_diag,):
        raise ShapeError(f"tril_blocks: diagonal shape {diag.shape} does not end in {n_diag}")
    if off.shape[-1:] != (n_off,):
        raise ShapeError(f"tril_blocks: off-diagonal shape {off.shape} does not end in {n_off}")
    if diag.shape[:-1] != off.shape[:-1]:
        raise ShapeError(
            f"tril_blocks: leading shapes differ, {diag.shape[:-1]} vs {off.shape[:-1]}"
        )
    width = max(sizes)
    index = _tril_index(tuple(sizes))
    lead = diag.shape[:-1]
    out = np.zeros(lead + (len(sizes), width, width))
    # every diagonal starts at one; the scatter overwrites all but the padding
    out[..., np.arange(width), np.arange(width)] = 1.0
    out.reshape(lead + (-1,))[..., index] = np.concatenate([diag.data, off.data], axis=-1)

    def vjp(g):
        packed = g.reshape(lead + (-1,))[..., index]
        return packed[..., :n_diag], packed[..., n_diag:]

    return _finish("tril_blocks", (diag, off), out, vjp)


# pointwise nonlinearities


def _pointwise(op: str, a, fn, grad) -> Tensor:
    """``fn`` of an input's array, recorded as ``op`` with the vjp that maps
    g to ``grad(g, a)``."""
    a = _as_tensor(a)
    x = a.data
    return _finish(op, (a,), fn(x), lambda g: (grad(g, x),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(a) -> Tensor:
    return _pointwise(
        "softplus", a, lambda x: np.logaddexp(0.0, x), lambda g, x: g * _sigmoid(x)
    )


def relu(a) -> Tensor:
    return _pointwise("relu", a, lambda x: np.maximum(x, 0.0), lambda g, x: g * (x > 0.0))


# normalizations and reductions


def _layer_norm(a, gain, bias, eps: float = 1e-12):
    """The last axis of the array ``a`` normalized to zero mean and unit
    variance, then scaled by ``gain`` and shifted by ``bias``. Returns the
    output and what ``_layer_norm_vjp`` reads: the normalized rows as an
    (n, width) array and their (n, 1) inverse deviations. ``_scaled`` of
    the rows rebuilds the output bit for bit.

    The row statistics, forward and vjp, are einsum reductions over an
    (n, width) view: numpy's ``mean`` over a short last axis runs a strided
    loop per row and takes about twice as long."""
    if a.ndim < 1:
        raise ShapeError("layer_norm needs at least one axis")
    width = a.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(
            f"layer_norm: scale/shift must have shape ({width},), got {gain.shape} and {bias.shape}"
        )
    a2 = a.reshape(-1, width)
    mu = np.einsum("ij->i", a2) / width
    normalized = a2 - mu[:, None]
    var = np.einsum("ij,ij->i", normalized, normalized) / width
    inv = (1.0 / np.sqrt(var + eps))[:, None]
    normalized *= inv
    return _scaled(normalized, gain, bias).reshape(a.shape), (normalized, inv)


def _scaled(normalized, gain, bias):
    """normalized * gain + bias: a layer norm's output from its rows."""
    out = normalized * gain
    out += bias
    return out


def _layer_norm_vjp(normalized, inv, gain):
    """The vjp of ``_layer_norm`` from its normalized rows and inverse
    deviations; the input cotangent takes the output cotangent's shape."""
    width = normalized.shape[-1]

    def vjp(g):
        g2 = g.reshape(-1, width)
        gn = g2 * gain
        m1 = np.einsum("ij->i", gn) / width
        m2 = np.einsum("ij,ij->i", gn, normalized) / width
        ggain = np.einsum("ij,ij->j", g2, normalized)
        gn -= m1[:, None]
        gn -= normalized * m2[:, None]
        gn *= inv
        return gn.reshape(g.shape), ggain, g2.sum(axis=0)

    return vjp


def max_reduce(a, axis: int) -> Tensor:
    """Elementwise maximum over one axis; ties route their gradient to the
    lowest index along that axis."""
    a = _as_tensor(a)
    if axis is None or not isinstance(axis, (int, np.integer)):
        raise ShapeError("max_reduce needs a single integer axis")
    ax = int(axis) % a.ndim
    out = np.max(a.data, axis=ax)

    def vjp(g):
        buf = np.zeros_like(a.data)
        index = np.expand_dims(np.argmax(a.data, axis=ax), ax)
        np.put_along_axis(buf, index, np.expand_dims(g, ax), ax)
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


def mean_reduce(a) -> Tensor:
    """The mean of all of ``a``'s entries."""
    a = _as_tensor(a)

    def vjp(g):
        return (np.broadcast_to(g / a.size, a.shape),)

    return _finish("mean_reduce", (a,), a.data.mean(), vjp)


# the transformer layer


def encoder_layer(
    x, ln1_g, ln1_b, wq, wk, wv, wo, bq, bv, bo, ln2_g, ln2_b, w1, b1, w2, b2, heads: int
) -> Tensor:
    """One pre-norm transformer layer over (B, S, d) tokens as one record:

        x1 = x + attention(layer_norm(x)),
        out = x1 + relu(layer_norm(x1) w1 + b1) w2 + b2,

    where ``_attention`` takes wq, wk, wv, wo, bq, bv, bo and ``heads``. The
    forward runs the ``_layer_norm``, ``_attention`` and ``_linear`` kernels,
    so every value is the same bit for bit as the composed records'. The
    vjp chains their vjps by hand. It keeps only what costs a kernel's pass
    to rebuild: attention's row sums and context, and the second layer
    norm's normalized rows and inverse deviations. Everything else it
    recomputes with the forward's own operations on the same arrays, so
    with the same bits: the first layer norm, rows and output, from the
    input x, which the record holds anyway; the second layer norm's output,
    as ``_scaled`` rows; attention's q, k and v, inside its vjp; and the
    relu output, as one ``_linear`` of the second layer-norm output with
    the relu in place. No vjp reads the attention output, the residual sum
    x1 or the second linear's output, so the layer keeps none of them. With
    no tape recording, each kernel's saved state is dropped as soon as its
    output exists, so the forward holds no more at once than the layer's
    primitives one by one. The vjp returns the cotangents of all 16 arrays,
    in argument order."""
    inputs = (x, ln1_g, ln1_b, wq, wk, wv, wo, bq, bv, bo, ln2_g, ln2_b, w1, b1, w2, b2)
    inputs = tuple(_as_tensor(t) for t in inputs)
    x, ln1_g, ln1_b, wq, wk, wv, wo, bq, bv, bo, ln2_g, ln2_b, w1, b1, w2, b2 = (
        t.data for t in inputs
    )
    shape = x.shape
    recording = _recording_tape(inputs) is not None
    saved = []

    def run(kernel, *args):
        out, state = kernel(*args)
        if recording:
            saved.append(state)
        return out

    x1 = run(_attention, _layer_norm(x, ln1_g, ln1_b)[0], wq, wk, wv, wo, bq, bv, bo, heads)
    x1 += x
    hidden = _linear(run(_layer_norm, x1, ln2_g, ln2_b), w1, b1)
    np.maximum(hidden, 0.0, out=hidden)
    out = _linear(hidden, w2, b2)
    del hidden
    out += x1

    def vjp(g):
        attn, (rows2, inv2) = saved
        normed = _scaled(rows2, ln2_g, ln2_b).reshape(shape)
        hidden = _linear(normed, w1, b1)
        np.maximum(hidden, 0.0, out=hidden)
        g_hidden, g_w2, g_b2 = _linear_vjp(hidden, w2)(g)
        g_hidden *= hidden > 0.0
        del hidden
        g_normed, g_w1, g_b1 = _linear_vjp(normed, w1)(g_hidden)
        del normed, g_hidden
        g_x1, g_ln2_g, g_ln2_b = _layer_norm_vjp(rows2, inv2, ln2_g)(g_normed)
        g_x1 += g
        normed, (rows1, inv1) = _layer_norm(x, ln1_g, ln1_b)
        g_normed, *g_attn = attn(g_x1, normed)
        del normed
        g_x, g_ln1_g, g_ln1_b = _layer_norm_vjp(rows1, inv1, ln1_g)(g_normed)
        g_x += g_x1
        return (g_x, g_ln1_g, g_ln1_b, *g_attn, g_ln2_g, g_ln2_b, g_w1, g_b1, g_w2, g_b2)

    return _finish("encoder_layer", inputs, out, vjp)
