"""The gamma-family series of numcore.special (lgamma, digamma and
trigamma, which the Dirichlet KL and its vjp evaluate) and
special.tril_inverse.

Oracles: the recurrence identities lgamma(x+1) = lgamma(x) + ln x,
digamma(x+1) = digamma(x) + 1/x and trigamma(x+1) = trigamma(x) - 1/x^2,
known closed-form points, and scipy.special and LAPACK's trtri, which the
package itself does not use.
"""

import numpy as np
import pytest
from scipy import special as scipy_special
from scipy.linalg import lapack

from unmix_ldvae.data import EndmemberBundle
from unmix_ldvae.losses import reference_blocks
from unmix_ldvae.numcore import special
from unmix_ldvae.numcore.special import digamma, lgamma, trigamma

EULER_GAMMA = 0.5772156649015329


@pytest.mark.parametrize("x", [0.5, 1.5, 3.7])
def test_lgamma_recurrence(x):
    lhs = lgamma(x + 1.0)
    rhs = lgamma(x) + np.log(x)
    assert abs(lhs - rhs) < 1e-10


def test_lgamma_integer_values():
    # Gamma(n) = (n-1)!
    for n, fact in [(1, 1.0), (2, 1.0), (3, 2.0), (4, 6.0), (7, 720.0)]:
        assert lgamma(float(n)) == pytest.approx(np.log(fact), abs=1e-12)


def test_lgamma_half_is_log_sqrt_pi():
    assert lgamma(0.5) == pytest.approx(0.5 * np.log(np.pi), abs=1e-12)


def test_digamma_at_one_is_negative_euler_gamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)


def test_digamma_recurrence():
    for x in [0.1, 0.5, 1.5, 3.7, 9.2]:
        lhs = digamma(x + 1.0)
        rhs = digamma(x) + 1.0 / x
        assert abs(lhs - rhs) < 1e-10


def test_trigamma_at_one_is_pi_squared_over_six():
    assert trigamma(1.0) == pytest.approx(np.pi**2 / 6.0, abs=1e-12)


def test_trigamma_recurrence():
    x = np.array([0.2, 0.9, 2.5, 7.0])
    np.testing.assert_allclose(trigamma(x + 1.0), trigamma(x) - 1.0 / x**2, rtol=0, atol=1e-10)


def test_shapes_preserved():
    x = np.full((3, 2), 2.5)
    assert lgamma(x).shape == (3, 2)
    assert digamma(x).shape == (3, 2)
    assert trigamma(x).shape == (3, 2)
    assert lgamma(2.5).shape == ()
    assert digamma(2.5).shape == ()
    assert trigamma(2.5).shape == ()


# a log grid over the range training can reach and a dense one over the
# shifted range and the threshold
GRID = np.concatenate([np.logspace(-6, 12, 50001), np.linspace(0.05, 12, 50001)])


@pytest.mark.parametrize(
    "fn, oracle, tol",
    [
        (special.lgamma, scipy_special.gammaln, 1e-13),
        (special.digamma, scipy_special.digamma, 1e-14),
        (special.trigamma, lambda x: scipy_special.polygamma(1, x), 1e-14),
    ],
    ids=["lgamma", "digamma", "trigamma"],
)
def test_series_match_scipy(fn, oracle, tol):
    want = oracle(GRID)
    err = np.abs(fn(GRID) - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= tol, GRID[np.argmax(err)]


@pytest.mark.parametrize("fn", [special.lgamma, special.digamma, special.trigamma])
def test_series_raise_nothing_under_trainings_float_errors(fn):
    """Training raises on overflow, division by zero and invalid values;
    every value from 1e-150 to 1e300 is finite, so none may raise."""
    x = np.logspace(-150, 300, 4501)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        out = fn(x)
        scalars = [fn(1e-150), fn(1e300)]
    assert np.isfinite(out).all()
    assert all(np.isfinite(v) and v.shape == () for v in scalars)


def _well_conditioned_blocks(rng, shape):
    blocks = np.tril(rng.normal(scale=0.3, size=shape))
    idx = np.arange(shape[-1])
    blocks[..., idx, idx] = rng.uniform(0.5, 2.0, size=shape[:-1])
    return blocks


def _assert_inverts(blocks, inv):
    eye = np.eye(blocks.shape[-1])
    assert np.array_equal(inv, np.tril(inv))
    residual = np.abs(blocks @ inv - eye).max()
    assert residual <= 1e-12 * max(1.0, np.abs(inv).max())
    trtri = np.array([lapack.dtrtri(b, lower=1)[0] for b in blocks.reshape((-1,) + eye.shape)])
    np.testing.assert_allclose(
        inv, trtri.reshape(blocks.shape), rtol=0, atol=1e-12 * np.abs(trtri).max()
    )


def test_tril_inverse_of_random_blocks():
    rng = np.random.default_rng(7)
    blocks = _well_conditioned_blocks(rng, (4, 6, 16, 16))
    blocks[..., np.triu_indices(16, 1)[0], np.triu_indices(16, 1)[1]] = 5.0  # never read
    inv = special.tril_inverse(blocks)
    _assert_inverts(np.tril(blocks), inv)


def test_reference_inverses_with_a_padded_last_segment():
    """Bundles of 13 bands in segments of 5: the last block is 3x3 and the
    stack pads it with the identity, whose inverse is the identity."""
    rng = np.random.default_rng(8)
    factors = [[_well_conditioned_blocks(rng, (m, m)) for m in (5, 5, 3)] for _ in range(3)]
    bundles = [
        EndmemberBundle.from_segments(f"e{k}", rng.uniform(0.1, 0.9, 13), f, seg_len=5)
        for k, f in enumerate(factors)
    ]
    inv = reference_blocks(bundles).inv_chols
    assert inv.shape == (3, 3, 5, 5)
    blocks = np.zeros_like(inv)
    for k, segments in enumerate(factors):
        for s, block in enumerate(segments):
            m = block.shape[0]
            blocks[k, s] = np.eye(5)
            blocks[k, s, :m, :m] = block
    _assert_inverts(blocks, inv)
    np.testing.assert_array_equal(inv[:, 2, 3:, 3:], np.broadcast_to(np.eye(2), (3, 2, 2)))
    np.testing.assert_array_equal(inv[:, 2, 3:, :3], 0.0)
