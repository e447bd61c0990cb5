"""Differentiable primitives over Tensor values.

Elementwise primitives follow numpy broadcasting; their vjps reduce the
cotangent back onto each input's shape. matmul contracts the last two axes
and broadcasts leading batch axes, with 2-d weight operands shared across
the batch. Reductions accept an int, a tuple of ints, or None for the axis.
"""

from __future__ import annotations

import numpy as np

from . import special
from .tensor import NumericError, ShapeError, Tensor, active_tape, record


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _finish(op: str, inputs, out_data, vjp) -> Tensor:
    requires = active_tape() is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        record(op, inputs, out, vjp)
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
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _finish("add", (a, b), out, vjp)


def subtract(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"subtract: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _finish("subtract", (a, b), out, vjp)


def multiply(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"multiply: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _finish("multiply", (a, b), out, vjp)


def divide(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data / b.data
    except ValueError as exc:
        raise ShapeError(f"divide: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def vjp(g):
        return _unbroadcast(g / b.data, a.shape), _unbroadcast(-g * out / b.data, b.shape)

    return _finish("divide", (a, b), out, vjp)


def negate(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (-g,)

    return _finish("negate", (a,), -a.data, vjp)


# linear algebra and structure


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands need ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul: batch dimensions do not broadcast, {a.shape} @ {b.shape}") from exc

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _finish("matmul", (a, b), out, vjp)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is not None:
        axes = tuple(int(ax) % a.ndim for ax in axes)
        if len(axes) != a.ndim or sorted(axes) != list(range(a.ndim)):
            raise ShapeError(f"transpose: {axes} is not a permutation of {a.ndim} axes")
    out = np.transpose(a.data, axes)
    inverse = None if axes is None else tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _finish("transpose", (a,), out, vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = np.reshape(a.data, shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from exc

    def vjp(g):
        return (np.reshape(g, a.shape),)

    return _finish("reshape", (a,), out, vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(as_tensor(t) for t in tensors)
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
    a = as_tensor(a)
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
    diag, off = as_tensor(diag), as_tensor(off)
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


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _finish("exp", (a,), out, vjp)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _finish("log", (a,), out, vjp)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g / (2.0 * out),)

    return _finish("sqrt", (a,), out, vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(a) -> Tensor:
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)

    def vjp(g):
        return (g * _sigmoid(a.data),)

    return _finish("softplus", (a,), out, vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _finish("relu", (a,), out, vjp)


def lgamma(a) -> Tensor:
    a = as_tensor(a)
    out = special.lgamma(a.data)

    def vjp(g):
        return (g * special.digamma(a.data),)

    return _finish("lgamma", (a,), out, vjp)


def digamma(a) -> Tensor:
    a = as_tensor(a)
    out = special.digamma(a.data)

    def vjp(g):
        return (g * special.trigamma(a.data),)

    return _finish("digamma", (a,), out, vjp)


# normalizations and reductions


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _finish("softmax", (a,), out, vjp)


def layer_norm(a, gain, bias, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply the
    learned elementwise scale and shift."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    if a.ndim < 1:
        raise ShapeError("layer_norm needs at least one axis")
    width = a.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(
            f"layer_norm: scale/shift must have shape ({width},), got {gain.shape} and {bias.shape}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    normalized = centered * inv
    out = normalized * gain.data + bias.data

    def vjp(g):
        gn = g * gain.data
        m1 = gn.mean(axis=-1, keepdims=True)
        m2 = (gn * normalized).mean(axis=-1, keepdims=True)
        ga = inv * (gn - m1 - normalized * m2)
        ggain = (g * normalized).reshape(-1, width).sum(axis=0)
        gbias = g.reshape(-1, width).sum(axis=0)
        return ga, ggain, gbias

    return _finish("layer_norm", (a, gain, bias), out, vjp)


def max_reduce(a, axis: int, keepdims: bool = False) -> Tensor:
    """Elementwise maximum over one axis; ties route their gradient to the
    lowest index along that axis."""
    a = as_tensor(a)
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
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg, a.shape),)

    return _finish("sum_reduce", (a,), out, vjp)


def mean_reduce(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[i] for i in axes])) if axes else 1
    out = a.data.mean(axis=axes, keepdims=keepdims) if axes else a.data.copy()

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg / count, a.shape),)

    return _finish("mean_reduce", (a,), out, vjp)

