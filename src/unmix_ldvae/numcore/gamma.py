"""Reparameterized Gamma(shape, 1) sampling with pathwise gradients.

Sampling uses the Marsaglia-Tsang squeeze method: draw a standard normal n,
form v = (1 + c n)^3 with d = shape - 1/3 and c = 1/sqrt(9 d), and accept
d*v under the squeeze or the exact log test. Shapes below one are drawn at
shape+1 and scaled by u**(1/shape) with an extra uniform u. Gradients flow
through the smooth transformation with the accepted noise held fixed; the
rejection-rate correction term is dropped. That biases the pathwise
derivative of E[z] = shape, whose exact value is 1. Its mean over
5 x 400,000 draws per shape, seed 0:

    shape       1.0      2.0      5.0      20       0.3 and 0.9 (boosted)
    dE[z]/da    1.0246   1.0058   1.0009   1.0001   1.003

The bias peaks at shape 1, where the model initializes every concentration.

Splitting the draw from the transformation lets a forward pass be replayed
under parameter perturbations with identical noise, which is how the
finite-difference checks validate the pathwise derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import _as_tensor, _finish
from .tensor import NumericError, ShapeError, Tensor

_FLOOR = 1e-300  # keeps downstream normalizations defined when u**(1/shape) underflows


@dataclass(frozen=True)
class GammaNoise:
    """Accepted noise for one batch of draws: the normal variates, the boost
    uniforms (1.0 where unused), and the mask of entries drawn at shape+1."""

    normal: np.ndarray
    boost_u: np.ndarray
    boosted: np.ndarray


def draw_gamma_noise(shape_param, rng: np.random.Generator) -> GammaNoise:
    """Run the accept/reject loop for Gamma(shape_param, 1) and return the
    accepted noise. Consumes rng draws deterministically."""
    a = np.asarray(shape_param, dtype=np.float64)
    # NaN shapes would make every acceptance comparison false and spin the
    # rejection loop forever, so refuse non-finite input outright.
    if a.size and not np.all(np.isfinite(a)):
        raise NumericError("gamma shape parameters must be finite")
    if a.size and np.any(a <= 0.0):
        raise ValueError("gamma shape parameters must be strictly positive")
    boosted = a < 1.0
    d = a + boosted - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    flat_c = np.atleast_1d(c).reshape(-1)
    flat_d = np.atleast_1d(d).reshape(-1)
    accepted = np.zeros(flat_d.shape)
    pending = np.ones(flat_d.shape, dtype=bool)
    while pending.any():
        idx = np.nonzero(pending)[0]
        cand = rng.standard_normal(idx.size)
        u = rng.random(idx.size)
        w = 1.0 + flat_c[idx] * cand
        v = w * w * w
        positive = v > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            squeeze = u < 1.0 - 0.0331 * cand**4
            exact = np.log(u) < 0.5 * cand * cand + flat_d[idx] * (
                1.0 - v + np.log(np.where(positive, v, 1.0))
            )
        take = positive & (squeeze | exact)
        accepted[idx[take]] = cand[take]
        pending[idx[take]] = False
    boost_u = np.where(boosted, rng.random(size=a.shape), 1.0)
    return GammaNoise(
        normal=accepted.reshape(a.shape), boost_u=boost_u, boosted=boosted.copy()
    )


def gamma_from_noise(shape_param, noise: GammaNoise) -> Tensor:
    """Differentiable Marsaglia-Tsang transformation of fixed accepted noise."""
    t = _as_tensor(shape_param)
    a = t.data
    if a.size and np.any(a <= 0.0):
        raise ValueError("gamma shape parameters must be strictly positive")
    if noise.normal.shape != a.shape:
        raise ShapeError(
            f"gamma noise shape {noise.normal.shape} does not match parameters {a.shape}"
        )
    boosted = noise.boosted
    d = a + boosted - 1.0 / 3.0
    w = 1.0 + noise.normal / np.sqrt(9.0 * d)
    v = w * w * w
    base = d * v
    log_u = np.log(noise.boost_u)  # exactly 0.0 where not boosted
    with np.errstate(under="ignore"):
        scale = np.where(boosted, np.exp(log_u / a), 1.0)
    out = np.maximum(base * scale, _FLOOR)

    def vjp(g):
        dbase = v - w * w * noise.normal / (2.0 * np.sqrt(d))
        dscale = np.where(boosted, scale * (-log_u) / (a * a), 0.0)
        return (g * (dbase * scale + base * dscale),)

    return _finish("gamma_from_noise", (t,), out, vjp)

