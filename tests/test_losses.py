"""Loss tests.

Oracles: a Monte-Carlo estimate of the Dirichlet KL (sampled expectations of
the log-density ratio, using scipy gammaln for the normalizers), an
independent dense-matrix Gaussian KL (numpy inv + slogdet, no block
structure), hand-derived scalar Gaussian cases, and finite differences for
every gradient path.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from reference_ops import finite_diff_check, stack_factors
from unmix_ldvae.data import EndmemberBundle
from unmix_ldvae.losses import (
    LossError,
    LossWeights,
    anneal_lambda,
    compute_losses,
    kl_bundle,
    kl_dirichlet,
    kl_dirichlet_per,
    loss_abundance,
    loss_recon,
    reference_blocks,
    total_loss,
)
from unmix_ldvae.model import (
    DecodedBundles,
    ModelConfig,
    forward,
    init_params,
    sample_reconstruction,
)
from unmix_ldvae.numcore import (
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    ops,
)

GRAD_TOL = 1e-4


def dirichlet_log_pdf(z, alpha):
    log_norm = gammaln(alpha.sum()) - gammaln(alpha).sum()
    return log_norm + ((alpha - 1.0) * np.log(z)).sum(axis=-1)


def closed_form_dirichlet_kl(a, p):
    """Independent closed-form route built on scipy's gammaln/psi."""
    from scipy.special import psi

    return (
        gammaln(a.sum())
        - gammaln(a).sum()
        - gammaln(p.sum())
        + gammaln(p).sum()
        + ((a - p) * (psi(a) - psi(a.sum()))).sum()
    )


def bundles_from_factors(means, factors):
    """DecodedBundles with explicit per-segment (B, K, m, m) Cholesky factors."""
    diag = np.concatenate([np.diagonal(l, axis1=-2, axis2=-1) for l in factors], axis=-1)
    return DecodedBundles(
        means=Tensor(means), chol_diag=Tensor(diag), chol_blocks=Tensor(stack_factors(factors))
    )


def gt_bundle_from_factor(mean, factors, seg_len):
    return EndmemberBundle("gt", mean, [np.asarray(f) for f in factors], seg_len=seg_len)


# ---------------------------------------------------------------------------
# reconstruction and abundance MSE


def test_recon_zero_for_identical_inputs():
    x = np.random.default_rng(0).random((3, 5))
    assert loss_recon(Tensor(x), Tensor(x.copy())).item() == 0.0


def test_recon_unit_example():
    assert loss_recon(Tensor([1.0, 1.0]), Tensor([0.0, 0.0])).item() == pytest.approx(1.0)


def test_recon_gradient_is_scaled_difference():
    rng = np.random.default_rng(1)
    pred = Tensor(rng.random((2, 4)), requires_grad=True)
    target = rng.random((2, 4))
    with Tape() as tape:
        loss = loss_recon(pred, Tensor(target))
        backward(loss, tape)
    np.testing.assert_allclose(pred.grad, 2.0 * (pred.data - target) / 8.0, atol=1e-15)

    def objective(p):
        return loss_recon(p, Tensor(target))

    assert finite_diff_check(objective, Tensor(pred.data.copy(), requires_grad=True)) < GRAD_TOL


def test_recon_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        loss_recon(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 5))))


def test_abundance_examples():
    assert loss_abundance(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == pytest.approx(1.0)
    assert loss_abundance(Tensor([0.5, 0.5]), Tensor([1.0, 0.0])).item() == pytest.approx(0.25)
    z = np.random.default_rng(2).dirichlet([1, 1, 1], size=4)
    assert loss_abundance(Tensor(z), Tensor(z.copy())).item() == 0.0


# ---------------------------------------------------------------------------
# Dirichlet KL


def test_dirichlet_kl_zero_for_identical():
    alpha = np.array([3.0, 0.5, 7.0])
    assert abs(kl_dirichlet(Tensor(alpha), alpha).item()) < 1e-10


def test_dirichlet_kl_matches_monte_carlo_22_11():
    a = np.array([2.0, 2.0])
    p = np.array([1.0, 1.0])
    ours = kl_dirichlet(Tensor(a), p).item()
    rng = np.random.default_rng(0)
    draws = rng.dirichlet(a, size=1_000_000)
    ratio = dirichlet_log_pdf(draws, a) - dirichlet_log_pdf(draws, p)
    mc = ratio.mean()
    se = ratio.std() / math.sqrt(draws.shape[0])
    assert abs(ours - mc) < max(3 * se, 1e-4)
    assert abs(ours - mc) < 1e-2
    assert ours == pytest.approx(0.12509, abs=1e-4)
    assert ours == pytest.approx(closed_form_dirichlet_kl(a, p), abs=1e-12)


def test_dirichlet_kl_monte_carlo_sweep():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        a = rng.uniform(0.5, 5.0, size=k)
        p = rng.uniform(0.5, 5.0, size=k)
        ours = kl_dirichlet(Tensor(a), p).item()
        draws = rng.dirichlet(a, size=200_000)
        ratio = dirichlet_log_pdf(draws, a) - dirichlet_log_pdf(draws, p)
        se = ratio.std() / math.sqrt(draws.shape[0])
        assert abs(ours - ratio.mean()) < 3 * se + 1e-6


def test_dirichlet_kl_nonnegative_sweep():
    rng = np.random.default_rng(4)
    for k in (2, 3, 4, 5, 6):
        alpha = rng.uniform(0.05, 10.0, size=(200, k))
        prior = rng.uniform(0.05, 10.0, size=k)
        values = kl_dirichlet_per(Tensor(alpha), prior).data
        assert values.min() > -1e-10


def test_dirichlet_kl_identity_sweep():
    rng = np.random.default_rng(5)
    for k in range(2, 9):
        alpha = rng.uniform(0.1, 8.0, size=k)
        assert abs(kl_dirichlet(Tensor(alpha), alpha).item()) < 1e-10


def test_dirichlet_kl_agrees_with_independent_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        a = rng.uniform(0.1, 9.0, size=k)
        p = rng.uniform(0.1, 9.0, size=k)
        ours = kl_dirichlet(Tensor(a), p).item()
        assert ours == pytest.approx(closed_form_dirichlet_kl(a, p), rel=1e-10, abs=1e-12)


def test_dirichlet_kl_rejects_nonpositive():
    with pytest.raises(LossError):
        kl_dirichlet(Tensor([1.0, 0.0]), np.ones(2))
    with pytest.raises(LossError):
        kl_dirichlet(Tensor([1.0, 1.0]), np.array([1.0, -2.0]))


def test_dirichlet_kl_gradient_matches_finite_differences():
    prior = np.array([1.0, 2.0, 0.7])
    base = np.array([[0.8, 1.5, 3.0], [2.2, 0.6, 1.1]])

    def objective(a):
        return kl_dirichlet(a, prior)

    assert finite_diff_check(objective, Tensor(base.copy(), requires_grad=True)) < GRAD_TOL


# ---------------------------------------------------------------------------
# bundle KL


def test_bundle_kl_zero_when_prediction_equals_reference():
    rng = np.random.default_rng(7)
    seg_len = 3
    factors_gt = []
    for _ in range(2):
        raw = rng.random((seg_len, seg_len)) * 0.2
        factors_gt.append(np.tril(raw) + np.eye(seg_len) * 0.5)
    mean = rng.random(2 * seg_len)
    gt = [
        gt_bundle_from_factor(mean, factors_gt, seg_len),
        gt_bundle_from_factor(mean + 0.3, [f * 1.5 for f in factors_gt], seg_len),
    ]
    means = np.stack([b.mean for b in gt])[None]
    factors = [
        np.stack([b.chol_blocks[s] for b in gt])[None] for s in range(2)
    ]
    pred = bundles_from_factors(means, factors)
    value = kl_bundle(pred, reference_blocks(gt), Tensor(np.array([[2.0, 5.0]])))
    assert abs(value.item()) < 1e-12


def test_bundle_kl_scalar_mean_shift():
    gt = [gt_bundle_from_factor(np.array([0.0]), [np.eye(1)], 1)]
    pred = bundles_from_factors(np.array([[[1.0]]]), [np.ones((1, 1, 1, 1))])
    value = kl_bundle(pred, reference_blocks(gt), Tensor(np.array([[3.0]])))
    assert value.item() == pytest.approx(0.5, abs=1e-12)


def test_bundle_kl_scalar_variance_gap():
    gt = [gt_bundle_from_factor(np.array([0.0]), [np.eye(1)], 1)]
    pred = bundles_from_factors(
        np.array([[[0.0]]]), [np.full((1, 1, 1, 1), math.sqrt(2.0))]
    )
    value = kl_bundle(pred, reference_blocks(gt), Tensor(np.array([[1.0]])))
    assert value.item() == pytest.approx(0.5 * (2.0 - 1.0 - math.log(2.0)), abs=1e-12)


def test_bundle_kl_matches_dense_oracle():
    """Two full segments, then a truncated last segment that the stacked
    blocks pad with the identity, against a dense inverse and slogdet."""
    rng = np.random.default_rng(8)
    b, k = 3, 2
    for sizes in ([3, 3], [3, 3, 2]):
        c = sum(sizes)
        gt = []
        for _ in range(k):
            factors = [np.tril(rng.random((m, m)) * 0.3) + np.eye(m) * 0.6 for m in sizes]
            gt.append(gt_bundle_from_factor(rng.random(c), factors, sizes[0]))
        means = rng.random((b, k, c))
        factors = [np.tril(rng.random((b, k, m, m)) * 0.3) + np.eye(m) * 0.4 for m in sizes]
        alpha = rng.uniform(0.5, 4.0, size=(b, k))
        pred = bundles_from_factors(means, factors)
        ours = kl_bundle(pred, reference_blocks(gt), Tensor(alpha)).item()

        expected = 0.0
        w = alpha / alpha.sum(axis=1, keepdims=True)
        for i in range(b):
            for j in range(k):
                kl_jk = 0.0
                lo = 0
                for s, m in enumerate(sizes):
                    hi = lo + m
                    sig_gt = gt[j].chol_blocks[s] @ gt[j].chol_blocks[s].T
                    l_hat = factors[s][i, j]
                    sig_hat = l_hat @ l_hat.T
                    inv_gt = np.linalg.inv(sig_gt)
                    diff = gt[j].mean[lo:hi] - means[i, j, lo:hi]
                    kl_jk += 0.5 * (
                        np.trace(inv_gt @ sig_hat)
                        + diff @ inv_gt @ diff
                        - m
                        + np.linalg.slogdet(sig_gt)[1]
                        - np.linalg.slogdet(sig_hat)[1]
                    )
                    lo = hi
                expected += w[i, j] * kl_jk
        expected /= b
        assert ours == pytest.approx(expected, rel=1e-10), sizes


def test_bundle_kl_invariant_under_joint_permutation():
    rng = np.random.default_rng(9)
    b, k, seg_len = 2, 3, 2
    c = 4
    gt = []
    for _ in range(k):
        factors = [np.tril(rng.random((2, 2)) * 0.2) + np.eye(2) * 0.5 for _ in range(2)]
        gt.append(gt_bundle_from_factor(rng.random(c), factors, seg_len))
    means = rng.random((b, k, c))
    factors = [
        np.tril(rng.random((b, k, 2, 2)) * 0.2) + np.eye(2) * 0.4 for _ in range(2)
    ]
    alpha = rng.uniform(0.5, 3.0, size=(b, k))
    pred = bundles_from_factors(means, factors)
    base = kl_bundle(pred, reference_blocks(gt), Tensor(alpha)).item()
    perm = np.array([2, 0, 1])
    permuted = kl_bundle(
        bundles_from_factors(means[:, perm], [f[:, perm] for f in factors]),
        reference_blocks([gt[j] for j in perm]),
        Tensor(alpha[:, perm]),
    ).item()
    assert permuted == pytest.approx(base, rel=1e-12)


def test_bundle_kl_weights_are_scale_invariant():
    rng = np.random.default_rng(10)
    gt = [
        gt_bundle_from_factor(rng.random(2), [np.eye(2) * 0.5], 2) for _ in range(2)
    ]
    means = rng.random((1, 2, 2))
    factors = [np.tile(np.eye(2) * 0.3, (1, 2, 1, 1))]
    alpha = np.array([[0.4, 1.9]])
    pred = bundles_from_factors(means, factors)
    ref = reference_blocks(gt)
    a = kl_bundle(pred, ref, Tensor(alpha)).item()
    b = kl_bundle(pred, ref, Tensor(alpha * 37.0)).item()
    assert a == pytest.approx(b, rel=1e-12)


def test_bundle_kl_rejects_segment_mismatch():
    rng = np.random.default_rng(11)
    gt = [gt_bundle_from_factor(rng.random(4), [np.eye(2) * 0.5, np.eye(2) * 0.5], 2)]
    means = rng.random((1, 1, 4))
    factors = [np.tile(np.eye(4) * 0.3, (1, 1, 1, 1))]
    with pytest.raises(ShapeError):
        kl_bundle(bundles_from_factors(means, factors), reference_blocks(gt), Tensor([[1.0]]))


def test_bundle_kl_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    seg_len, c, k = 2, 4, 2
    gt = []
    for _ in range(k):
        factors = [np.tril(rng.random((2, 2)) * 0.2) + np.eye(2) * 0.5 for _ in range(2)]
        gt.append(gt_bundle_from_factor(rng.random(c), factors, seg_len))
    alpha = rng.uniform(0.5, 3.0, size=(2, k))
    base_means = rng.random((2, k, c))
    base_diag = rng.uniform(0.2, 0.8, size=(2, k, c))
    base_off = rng.standard_normal((2, k, 2)) * 0.2
    ref = reference_blocks(gt)

    def rebuild(means_t, diag_t, off_t):
        return DecodedBundles(
            means=means_t, chol_diag=diag_t, chol_blocks=ops.tril_blocks(diag_t, off_t, [2, 2])
        )

    def check(which):
        def objective(p):
            parts = {
                "means": Tensor(base_means),
                "diag": Tensor(base_diag),
                "off": Tensor(base_off),
                "alpha": Tensor(alpha),
            }
            parts[which] = p
            pred = rebuild(parts["means"], parts["diag"], parts["off"])
            return kl_bundle(pred, ref, parts["alpha"])

        base = {"means": base_means, "diag": base_diag, "off": base_off, "alpha": alpha}[which]
        return finite_diff_check(objective, Tensor(base.copy(), requires_grad=True))

    for which in ("means", "diag", "off", "alpha"):
        assert check(which) < GRAD_TOL, which


# ---------------------------------------------------------------------------
# annealing and combination


def test_anneal_endpoints_and_midpoint():
    weights = LossWeights()
    assert anneal_lambda(0, weights) == 1e-6
    assert anneal_lambda(40_000, weights) == pytest.approx(1e-3, rel=1e-12)
    assert anneal_lambda(80_000, weights) == 1.0
    assert anneal_lambda(1_000_000, weights) == 1.0


def test_anneal_is_monotone():
    weights = LossWeights()
    values = [anneal_lambda(t, weights) for t in range(0, 120_000, 4_000)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_anneal_rejects_negative_epoch():
    with pytest.raises(LossError):
        anneal_lambda(-1, LossWeights())


def test_weights_validation():
    with pytest.raises(LossError):
        LossWeights(lambda_endmembers_start=2.0, lambda_endmembers_end=1.0).validate()
    with pytest.raises(LossError):
        LossWeights(anneal_epochs=0).validate()
    with pytest.raises(LossError):
        LossWeights(alpha_prior=np.array([1.0, 0.0])).validate()
    with pytest.raises(LossError):
        LossWeights(alpha_prior=np.ones(3)).prior_for(2)
    np.testing.assert_array_equal(LossWeights().prior_for(4), np.ones(4))


def scalar(x):
    return Tensor(np.float64(x))


def test_total_all_zero_parts():
    total, breakdown = total_loss(
        scalar(0.0), scalar(0.0), scalar(0.0), scalar(0.0), LossWeights(), 0
    )
    assert total.item() == 0.0
    assert breakdown.total == 0.0


def test_total_plug_in_example():
    total, breakdown = total_loss(
        scalar(1.0), scalar(1.0), scalar(1.0), scalar(1.0), LossWeights(), 0
    )
    assert total.item() == pytest.approx(3.0 + 1e-6, abs=1e-12)
    assert breakdown.lambda_endmembers_now == 1e-6


def test_total_breakdown_identity():
    rng = np.random.default_rng(13)
    for epoch in (0, 123, 40_000, 90_000):
        parts = rng.random(4)
        weights = LossWeights(lambda_abundances=0.7)
        total, breakdown = total_loss(
            scalar(parts[0]), scalar(parts[1]), scalar(parts[2]), scalar(parts[3]),
            weights, epoch,
        )
        recomposed = (
            breakdown.recon
            + breakdown.kl_dirichlet
            + 0.7 * breakdown.abundance
            + breakdown.lambda_endmembers_now * breakdown.endmember
        )
        assert abs(breakdown.total - recomposed) < 1e-12
        assert breakdown.total == total.item()


def test_total_strictly_increases_in_each_part():
    base = [0.5, 0.4, 0.3, 0.2]
    ref, _ = total_loss(*(scalar(v) for v in base), LossWeights(), 10)
    for i in range(4):
        bumped = list(base)
        bumped[i] += 0.1
        higher, _ = total_loss(*(scalar(v) for v in bumped), LossWeights(), 10)
        assert higher.item() > ref.item()


def test_total_names_the_nonfinite_term():
    good = scalar(1.0)
    with pytest.raises(NumericError, match="kl_dirichlet"):
        total_loss(good, scalar(np.nan), good, good, LossWeights(), 0)
    with pytest.raises(NumericError, match="endmember"):
        total_loss(good, good, good, scalar(np.inf), LossWeights(), 0)


# ---------------------------------------------------------------------------
# end-to-end differentiability


def test_backward_reaches_every_parameter_group():
    config = ModelConfig(patch=1, bands=8, k=2, seg_len=4, d=8, layers=1, heads=2, ff_dim=8)
    params = init_params(config, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    patches = rng.random((4, 1, 1, 8))
    x = rng.random((4, 8))
    z_gt = rng.dirichlet([1.0, 1.0], size=4)
    reference = reference_blocks([
        gt_bundle_from_factor(rng.random(8), [np.eye(4) * 0.3, np.eye(4) * 0.3], 4)
        for _ in range(2)
    ])

    def losses(epoch):
        heads = forward(patches, params, config)
        sampled = sample_reconstruction(heads, params, config, rng=np.random.default_rng(16))
        return compute_losses(heads, sampled, x, z_gt, reference, LossWeights(), epoch=epoch)

    with Tape() as tape:
        total, breakdown = losses(0)
        backward(total, tape)
    assert np.isfinite(breakdown.total)
    # The refinement MLP starts with a zero final layer (exact linear-mixing
    # start), which blocks its first-layer gradients on step one; after a
    # single descent step every group must receive gradient.
    for param in params.values():
        param.data -= 1e-3 * param.grad
        param.zero_grad()
    with Tape() as tape:
        total, _ = losses(1)
        backward(total, tape)
    for name, param in params.items():
        assert np.any(param.grad != 0.0), f"zero gradient for parameter {name}"


def test_bundle_kl_reuses_reference_blocks_exactly():
    rng = np.random.default_rng(21)
    seg_len, c, k = 2, 4, 2
    gt = []
    for _ in range(k):
        factors = []
        for _ in range(c // seg_len):
            f = 0.1 * np.tril(rng.random((seg_len, seg_len)), -1)
            f[np.arange(seg_len), np.arange(seg_len)] = 0.5 + rng.random(seg_len)
            factors.append(f)
        gt.append(gt_bundle_from_factor(rng.random(c), factors, seg_len))
    means = rng.random((3, k, c))
    factors = [0.3 * np.tile(np.eye(seg_len), (3, k, 1, 1)) for _ in range(c // seg_len)]
    alpha = Tensor(0.5 + rng.random((3, k)))
    pred = bundles_from_factors(means, factors)
    reference = reference_blocks(gt)
    first = kl_bundle(pred, reference, alpha).item()
    # a training loop builds the blocks once and reuses them for every batch
    assert kl_bundle(pred, reference, alpha).item() == first
    assert kl_bundle(pred, reference_blocks(gt), alpha).item() == first


def test_reference_blocks_invert_each_cholesky_block():
    """Every inverse Cholesky block inverts its factor to 1e-13; a short last
    segment is padded with the exact identity."""
    rng = np.random.default_rng(22)
    sizes = [4, 4, 3]
    gt = []
    for _ in range(2):
        factors = []
        for m in sizes:
            f = 0.3 * np.tril(rng.random((m, m)), -1)
            f[np.arange(m), np.arange(m)] = 0.05 + rng.random(m)
            factors.append(f)
        gt.append(gt_bundle_from_factor(rng.random(11), factors, 4))
    inv_chols = reference_blocks(gt).inv_chols
    assert inv_chols.shape == (2, 3, 4, 4)
    for j, bundle in enumerate(gt):
        for s, (m, block) in enumerate(zip(sizes, bundle.chol_blocks)):
            residual = inv_chols[j, s, :m, :m] @ block - np.eye(m)
            assert np.abs(residual).max() <= 1e-13
    np.testing.assert_array_equal(inv_chols[:, 2, 3:, 3:], np.ones((2, 1, 1)))
    np.testing.assert_array_equal(inv_chols[:, 2, 3:, :3], 0.0)
    np.testing.assert_array_equal(inv_chols[:, 2, :3, 3:], 0.0)


def test_reference_blocks_reject_empty_list():
    with pytest.raises(ShapeError):
        reference_blocks([])
