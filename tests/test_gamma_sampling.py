"""Reparameterized gamma draws: distributional moments and pathwise gradients.

Oracle for the gradient: central differences through the fixed-noise
transformation. Oracle for the distribution: Gamma(a, 1) has mean a and
variance a, checked within three standard errors.
"""

import numpy as np
import pytest

from unmix_ldvae import numcore as nc
from unmix_ldvae.numcore import (
    Tape,
    Tensor,
    backward,
    draw_gamma_noise,
    finite_diff_check,
    gamma_from_noise,
)


@pytest.mark.parametrize("shape_val", [0.3, 0.7, 1.0, 2.5, 9.0])
def test_moments_within_three_standard_errors(shape_val):
    rng = np.random.default_rng(int(shape_val * 1000))
    n = 100_000
    alpha = Tensor(np.full(n, shape_val))
    draws = gamma_from_noise(alpha, draw_gamma_noise(alpha.data, rng)).data
    assert np.all(draws > 0.0)
    # mean a, var a, Var(sample mean) = a/n, Var(sample var) ~ (m4 - var^2)/n
    se_mean = np.sqrt(shape_val / n)
    assert abs(draws.mean() - shape_val) < 3.0 * se_mean
    m4 = 3.0 * shape_val**2 + 6.0 * shape_val  # fourth central moment of Gamma(a,1)
    se_var = np.sqrt((m4 - shape_val**2) / n)
    assert abs(draws.var() - shape_val) < 3.0 * se_var


def test_rejects_nonpositive_shapes():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_gamma_noise(np.array([1.0, 0.0]), rng)
    with pytest.raises(ValueError):
        gamma_from_noise(Tensor(-0.5), draw_gamma_noise(np.array(0.5), rng))


def test_noise_replay_reproduces_sample():
    rng = np.random.default_rng(42)
    alpha = np.array([0.4, 1.3, 5.0])
    noise = draw_gamma_noise(alpha, rng)
    a = gamma_from_noise(Tensor(alpha), noise).data
    b = gamma_from_noise(Tensor(alpha), noise).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shape_val", [0.5, 0.9, 1.0, 2.0, 7.5])
def test_pathwise_gradient_matches_finite_difference(shape_val):
    rng = np.random.default_rng(int(shape_val * 97))
    alpha = np.full(50, shape_val)
    noise = draw_gamma_noise(alpha, rng)

    def objective(t):
        return nc.sum_reduce(gamma_from_noise(t, noise))

    err = finite_diff_check(objective, Tensor(alpha), 1e-5)
    assert err < 1e-4


def test_gradient_finite_at_small_shape():
    rng = np.random.default_rng(5)
    alpha = Tensor(np.full(20, 0.5), requires_grad=True)
    noise = draw_gamma_noise(alpha.data, rng)
    with Tape() as tape:
        y = nc.sum_reduce(gamma_from_noise(alpha, noise))
        backward(y, tape)
    assert np.isfinite(alpha.grad).all()


def test_mismatched_noise_shape_raises():
    rng = np.random.default_rng(1)
    noise = draw_gamma_noise(np.ones(3), rng)
    with pytest.raises(nc.ShapeError):
        gamma_from_noise(Tensor(np.ones(4)), noise)


def test_draws_are_deterministic_given_seed():
    alpha = Tensor(np.full(100, 1.7))
    a = gamma_from_noise(alpha, draw_gamma_noise(alpha.data, np.random.default_rng(123))).data
    b = gamma_from_noise(alpha, draw_gamma_noise(alpha.data, np.random.default_rng(123))).data
    np.testing.assert_array_equal(a, b)


def test_nonfinite_shape_parameters_are_refused():
    # A NaN shape would never satisfy the acceptance test and the rejection
    # loop would spin forever; the sampler must fail fast instead.
    rng = np.random.default_rng(2)
    with pytest.raises(nc.NumericError, match="finite"):
        draw_gamma_noise(np.array([1.0, np.nan]), rng)
