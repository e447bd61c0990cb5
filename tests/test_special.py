"""The gamma-family primitives ops.lgamma and ops.digamma, and digamma's vjp,
which evaluates trigamma.

Oracles: the recurrence identities lgamma(x+1) = lgamma(x) + ln x,
digamma(x+1) = digamma(x) + 1/x and trigamma(x+1) = trigamma(x) - 1/x^2,
and known closed-form points.
"""

import numpy as np
import pytest

from unmix_ldvae.numcore import Tape, Tensor, backward, ops

EULER_GAMMA = 0.5772156649015329


def lgamma(x):
    return ops.lgamma(Tensor(x)).data


def digamma(x):
    return ops.digamma(Tensor(x)).data


def trigamma(x):
    """d digamma / dx through the tape, elementwise."""
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        backward(ops.sum_reduce(ops.digamma(t)), tape)
    return t.grad


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


@pytest.mark.parametrize("fn", [ops.lgamma, ops.digamma])
def test_nonpositive_arguments_rejected(fn):
    with pytest.raises(ValueError):
        fn(Tensor(0.0))
    with pytest.raises(ValueError):
        fn(Tensor([1.0, -2.0]))


def test_shapes_preserved():
    x = np.full((3, 2), 2.5)
    assert lgamma(x).shape == (3, 2)
    assert digamma(x).shape == (3, 2)
    assert trigamma(x).shape == (3, 2)
    assert lgamma(2.5).shape == ()
    assert digamma(2.5).shape == ()
    assert trigamma(2.5).shape == ()
