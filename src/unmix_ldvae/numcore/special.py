"""The array functions training needs beyond numpy's own: lgamma, digamma
and trigamma of positive float64 arrays, and the inverses of a stack of
lower-triangular matrices.

Each function shifts the arguments below ``SHIFT`` up by ``SHIFT`` through
the recurrences

    lgamma(x) = lgamma(x + n) - ln(x (x+1) ... (x+n-1))
    digamma(x) = digamma(x + n) - sum_j 1 / (x + j)
    trigamma(x) = trigamma(x + n) + sum_j 1 / (x + j)^2

and evaluates the asymptotic series in z = 1/x at the shifted argument
(Abramowitz & Stegun, *Handbook of Mathematical Functions*, 6.1.41 and
6.3.18; the trigamma series is the derivative of the digamma one). At
x >= 10 the first omitted term is below 1e-16 in magnitude. The shift terms are
formed only for the shifted elements, so a large finite argument overflows
nowhere its value is finite, and a series power that underflows to zero
does so where its term is negligible.

Against scipy.special over 1e-6 to 1e12, |error| / max(1, |f|) stays below
1e-14 for lgamma and 2e-15 for digamma and trigamma.
"""

from __future__ import annotations

import math

import numpy as np

SHIFT = 10
_STEPS = np.arange(SHIFT, dtype=np.float64)[:, None]
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# the series' coefficients for k = 1..7; _series weights the k-th by z^(2k-2).
# B_2k / (2k (2k-1)) of z^(2k-1) in lgamma
_LGAMMA = np.array([1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156])
# B_2k / 2k of z^2k subtracted in digamma
_DIGAMMA = np.array([1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12])
# B_2k of z^(2k+1) in trigamma
_TRIGAMMA = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6])
_POWERS = np.arange(7)[:, None]


def _series(z2: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * z2**k, summed from the largest term down: three
    array operations, where Horner's rule takes two per coefficient."""
    return (coeffs[:, None] * z2**_POWERS).sum(axis=0)


def _shifted(x):
    """(the flat arguments, shifted; the mask of the shifted ones; their
    (SHIFT, n) recurrence terms x + j)."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    small = flat < SHIFT
    y = flat + np.where(small, SHIFT, 0.0)
    return y, small, _STEPS + flat[small]


def lgamma(x) -> np.ndarray:
    """ln Gamma(x) for x > 0, elementwise."""
    y, small, terms = _shifted(x)
    z = 1.0 / y
    # (y - 1/2)(ln y - 1) - 1/2 is (y - 1/2) ln y - y, and inf at y = inf
    out = (y - 0.5) * (np.log(y) - 1.0) + (_HALF_LOG_2PI - 0.5) + z * _series(z * z, _LGAMMA)
    out[small] -= np.log(terms.prod(axis=0))
    return out.reshape(np.shape(x))


def digamma(x) -> np.ndarray:
    """d ln Gamma(x) / dx for x > 0, elementwise."""
    y, small, terms = _shifted(x)
    z = 1.0 / y
    z2 = z * z
    out = np.log(y) - 0.5 * z - z2 * _series(z2, _DIGAMMA)
    out[small] -= (1.0 / terms).sum(axis=0)
    return out.reshape(np.shape(x))


def trigamma(x) -> np.ndarray:
    """d digamma(x) / dx for x > 0, elementwise."""
    y, small, terms = _shifted(x)
    z = 1.0 / y
    z2 = z * z
    out = z + z2 * (0.5 + z * _series(z2, _TRIGAMMA))
    out[small] += (1.0 / (terms * terms)).sum(axis=0)
    return out.reshape(np.shape(x))


def tril_inverse(blocks: np.ndarray) -> np.ndarray:
    """The inverses of a (..., n, n) stack of lower-triangular matrices with
    nonzero diagonals, lower-triangular themselves. One forward substitution
    over the whole stack finds row i of X from L X = I as
    (e_i - sum_{j<i} L_ij X_j) / L_ii, which is as stable as LAPACK's trtri;
    the strictly upper part of ``blocks`` is never read. The row products
    are einsum loops, not BLAS calls, so the result does not depend on the
    BLAS thread count."""
    blocks = np.asarray(blocks, dtype=np.float64)
    n = blocks.shape[-1]
    inv = np.zeros_like(blocks)
    for i in range(n):
        row = -np.einsum("...j,...jk->...k", blocks[..., i, :i], inv[..., :i, :])
        row[..., i] += 1.0
        inv[..., i, :] = row / blocks[..., i, i, None]
    return inv
