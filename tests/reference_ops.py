"""Test-only primitives, the finite-difference gradient checker and a
builder of stacked Cholesky blocks from per-segment factors.

The package does not call these. Tests build oracles from them, such as
attention composed from single-purpose primitives and an encoder layer
composed from ``layer_norm``, ``attention`` and the package's primitives,
and check every vjp against central differences. Each primitive records
through ``ops._finish`` as the package's own primitives do; ``layer_norm``
and ``attention`` record the package's kernels, which ``ops.encoder_layer``
chains into one record.
"""

from __future__ import annotations

import numpy as np

from unmix_ldvae.numcore import NumericError, ShapeError, Tape, Tensor, backward
from unmix_ldvae.numcore.ops import _as_tensor, _attention, _finish, _layer_norm, _layer_norm_vjp


def stack_factors(factors) -> np.ndarray:
    """Per-segment (..., m, m) Cholesky factors stacked as (..., n_seg, L, L),
    L the largest m, each shorter block padded with the identity: the layout
    of ``DecodedBundles.chol_blocks``."""
    width = max(f.shape[-1] for f in factors)
    lead = factors[0].shape[:-2]
    out = np.broadcast_to(np.eye(width), lead + (len(factors), width, width)).copy()
    for s, f in enumerate(factors):
        m = f.shape[-1]
        out[..., s, :m, :m] = f
    return out


def negate(a) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        return (-g,)

    return _finish("negate", (a,), -a.data, vjp)


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    if axes is not None:
        axes = tuple(int(ax) % a.ndim for ax in axes)
        if len(axes) != a.ndim or sorted(axes) != list(range(a.ndim)):
            raise ShapeError(f"transpose: {axes} is not a permutation of {a.ndim} axes")
    out = np.transpose(a.data, axes)
    inverse = None if axes is None else tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _finish("transpose", (a,), out, vjp)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _finish("exp", (a,), out, vjp)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g / (2.0 * out),)

    return _finish("sqrt", (a,), out, vjp)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _finish("softmax", (a,), out, vjp)


def layer_norm(a, gain, bias) -> Tensor:
    """``ops._layer_norm`` as one record, whose vjp keeps its rows."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    out, (normalized, inv) = _layer_norm(a.data, gain.data, bias.data)
    return _finish("layer_norm", (a, gain, bias), out, _layer_norm_vjp(normalized, inv, gain.data))


def attention(x, wq, wk, wv, wo, bq, bv, bo, heads: int) -> Tensor:
    """``ops._attention`` as one record, whose vjp passes the input back in."""
    inputs = tuple(_as_tensor(t) for t in (x, wq, wk, wv, wo, bq, bv, bo))
    out, vjp = _attention(*(t.data for t in inputs), heads)
    return _finish("attention", inputs, out, lambda g: vjp(g, inputs[0].data))


def finite_diff_check(f, x, h: float = 1e-5) -> float:
    """Worst relative disagreement between tape and central-difference grads.

    ``f`` maps one Tensor to a scalar Tensor and must be deterministic (fix
    any sampling noise before checking). Per coordinate the error is
    |analytic - central| / (|analytic| + |central| + 1e-12); the max over
    coordinates is returned.
    """
    base = np.array(getattr(x, "data", x), dtype=np.float64)
    with Tape() as tape:
        probe = Tensor(base.copy(), requires_grad=True)
        y = f(probe)
        if not isinstance(y, Tensor) or y.data.size != 1:
            raise ShapeError("finite_diff_check needs a scalar-valued function")
        if not np.isfinite(y.data).all():
            raise NumericError("objective is non-finite at the base point")
        if y.requires_grad:
            backward(y, tape)
            analytic = probe.grad.reshape(-1).copy()
        else:
            analytic = np.zeros(base.size)

    def evaluate(arr: np.ndarray) -> float:
        out = f(Tensor(arr))
        return float(out.data.reshape(()))

    flat = base.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        step = np.zeros_like(flat)
        step[i] = h
        hi = evaluate((flat + step).reshape(base.shape))
        lo = evaluate((flat - step).reshape(base.shape))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite objective while perturbing coordinate {i}")
        central = (hi - lo) / (2.0 * h)
        err = abs(analytic[i] - central) / (abs(analytic[i]) + abs(central) + 1e-12)
        worst = max(worst, err)
    return worst
