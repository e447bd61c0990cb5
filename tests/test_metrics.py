"""Metric tests.

Oracles: hand-derived angles for fixed geometry, brute-force enumeration of
all assignments (itertools) and scipy's linear_sum_assignment against the
Hungarian matcher, plug-in RMSE arithmetic, and a Monte-Carlo value for the
uniform-abundance baseline.
"""

import itertools
import math

import numpy as np
import pytest

from unmix_ldvae.data import BundleSpec, SceneConfig, synth_scene
from unmix_ldvae.metrics import (
    EvalReport,
    MetricsError,
    evaluate,
    match_endmembers,
    min_cost_assignment,
    report_to_csv,
    rmse_abundance,
    sad,
)


def scene_for_eval(seed=0, h=8, w=8):
    config = SceneConfig(
        height=h,
        width=w,
        bands=12,
        k=3,
        dirichlet_alpha=[1.0, 1.0, 1.0],
        bundle_spec=[
            BundleSpec(centers=[0.2], cov_scale=0.002),
            BundleSpec(centers=[0.5], cov_scale=0.002),
            BundleSpec(centers=[0.8], cov_scale=0.002),
        ],
        noise_sigma=0.001,
        seg_len=4,
    )
    return synth_scene(config, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# spectral angle


def test_sad_identical_and_scaled_are_zero():
    e = np.array([0.3, 0.2, 0.9])
    assert sad(e, e) == 0.0
    assert sad(2.0 * e, e) == pytest.approx(0.0, abs=1e-12)


def test_sad_orthogonal_is_half_pi():
    assert sad(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(math.pi / 2)


def test_sad_45_degrees():
    assert sad(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(math.pi / 4)


def test_sad_scale_invariance_sweep():
    rng = np.random.default_rng(0)
    a = rng.random(6) + 0.1
    b = rng.random(6) + 0.1
    base = sad(a, b)
    for _ in range(100):
        s, t = rng.uniform(0.01, 50.0, size=2)
        assert sad(s * a, t * b) == pytest.approx(base, abs=1e-9)


def test_sad_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.random(8) + 0.05
        b = rng.random(8) + 0.05
        assert abs(sad(a, b) - sad(b, a)) < 1e-12


def test_sad_range_with_opposed_vectors():
    value = sad(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert value == pytest.approx(math.pi)


def test_sad_rejects_zero_vector():
    with pytest.raises(MetricsError):
        sad(np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# abundance RMSE


def test_rmse_zero_for_identical():
    z = np.random.default_rng(2).dirichlet([1, 1, 1], size=10)
    np.testing.assert_array_equal(rmse_abundance(z, z.copy()), np.zeros(3))


def test_rmse_single_pixel_plug_in():
    per = rmse_abundance(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    np.testing.assert_array_equal(per, [1.0, 1.0])
    assert math.sqrt((per**2).sum()) == pytest.approx(math.sqrt(2.0))


def test_rmse_per_endmember_plug_in():
    z_hat = np.array([[0.1, 0.0], [0.3, 0.0]])
    z_gt = np.zeros((2, 2))
    per = rmse_abundance(z_hat, z_gt)
    assert per[0] == pytest.approx(math.sqrt((0.01 + 0.09) / 2))
    assert per[1] == 0.0


def test_rmse_overall_decomposes_over_endmembers():
    rng = np.random.default_rng(3)
    z_hat = rng.random((40, 5))
    z_gt = rng.random((40, 5))
    overall = math.sqrt(((z_hat - z_gt) ** 2).sum(axis=1).mean())
    per = rmse_abundance(z_hat, z_gt)
    assert overall**2 == pytest.approx((per**2).sum(), rel=1e-12)


def test_rmse_rejects_shape_mismatch():
    with pytest.raises(MetricsError):
        rmse_abundance(np.ones((3, 2)), np.ones((3, 3)))


# ---------------------------------------------------------------------------
# matching


def test_match_identity_and_reversal():
    rng = np.random.default_rng(4)
    means = rng.random((4, 9)) + 0.1
    np.testing.assert_array_equal(match_endmembers(means, means), np.arange(4))
    np.testing.assert_array_equal(
        match_endmembers(means[::-1], means), np.array([3, 2, 1, 0])
    )


def test_match_agrees_with_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        pred = rng.random((k, 10)) + 0.05
        gt = rng.random((k, 10)) + 0.05
        assignment = match_endmembers(pred, gt)
        assert sorted(assignment.tolist()) == list(range(k))
        total = sum(sad(pred[i], gt[assignment[i]]) for i in range(k))
        best = min(
            sum(sad(pred[i], gt[p[i]]) for i in range(k))
            for p in itertools.permutations(range(k))
        )
        assert total == pytest.approx(best, abs=1e-12)


def _cost_cases():
    """(cost, unique) pairs: random float costs, whose optimum is unique
    almost surely, then integer costs with many ties and all-equal costs."""
    rng = np.random.default_rng(8)
    for k in range(1, 13):
        for _ in range(20):
            yield rng.random((k, k)), True
            yield rng.integers(0, 3, size=(k, k)).astype(np.float64), False
        yield np.full((k, k), 2.5), False


def test_assignment_matches_scipy():
    from scipy.optimize import linear_sum_assignment

    for cost, unique in _cost_cases():
        k = cost.shape[0]
        got = min_cost_assignment(cost)
        rows, want = linear_sum_assignment(cost)
        np.testing.assert_array_equal(rows, np.arange(k))
        assert sorted(got.tolist()) == list(range(k))
        if unique:
            np.testing.assert_array_equal(got, want)
        else:
            assert cost[rows, got].sum() == cost[rows, want].sum()


def test_assignment_tie_rule_gives_identity_on_equal_costs():
    for k in (1, 2, 5, 12):
        np.testing.assert_array_equal(min_cost_assignment(np.zeros((k, k))), np.arange(k))


def test_assignment_rejects_non_finite_costs():
    for bad in (np.nan, np.inf):
        with pytest.raises(MetricsError, match="finite"):
            min_cost_assignment(np.array([[0.0, bad], [1.0, 0.0]]))
    with pytest.raises(MetricsError, match="finite"):
        match_endmembers(np.array([[np.nan, 1.0], [1.0, 0.5]]), np.eye(2) + 0.1)


# ---------------------------------------------------------------------------
# evaluation reports


def test_oracle_model_scores_zero():
    scene = scene_for_eval()
    z_gt = scene.abundance_pixels()
    gt_means = np.stack([b.mean for b in scene.gt_bundles])
    report = evaluate(z_gt.copy(), gt_means.copy(), scene)
    np.testing.assert_allclose(report.per_endmember_sad, 0.0, atol=1e-12)
    np.testing.assert_allclose(report.per_endmember_rmse, 0.0, atol=0)
    assert report.avg_sad == pytest.approx(0.0, abs=1e-12)
    assert report.avg_rmse == 0.0


def test_evaluation_handles_shuffled_predictions():
    scene = scene_for_eval(seed=1)
    z_gt = scene.abundance_pixels()
    gt_means = np.stack([b.mean for b in scene.gt_bundles])
    perm = np.array([2, 0, 1])
    report = evaluate(z_gt[:, perm], gt_means[perm], scene)
    np.testing.assert_allclose(report.per_endmember_sad, 0.0, atol=1e-12)
    np.testing.assert_allclose(report.per_endmember_rmse, 0.0, atol=1e-12)


def test_uniform_model_rmse_matches_monte_carlo():
    config = SceneConfig(
        height=60,
        width=60,
        bands=12,
        k=3,
        dirichlet_alpha=[1.5, 0.8, 1.1],
        bundle_spec=[
            BundleSpec(centers=[0.2], cov_scale=0.0),
            BundleSpec(centers=[0.5], cov_scale=0.0),
            BundleSpec(centers=[0.8], cov_scale=0.0),
        ],
        pure_pixel_fraction=0.0,
        seg_len=4,
    )
    scene = synth_scene(config, np.random.default_rng(6))
    n = scene.n_pixels
    uniform = np.full((n, 3), 1.0 / 3.0)
    gt_means = np.stack([b.mean for b in scene.gt_bundles])
    report = evaluate(uniform, gt_means, scene)
    draws = np.random.default_rng(7).dirichlet(config.dirichlet_alpha, size=500_000)
    expected = np.sqrt(((draws - 1.0 / 3.0) ** 2).mean(axis=0))
    np.testing.assert_allclose(report.per_endmember_rmse, expected, rtol=0.02)


def test_report_restricted_to_index_subset():
    scene = scene_for_eval(seed=2)
    z_gt = scene.abundance_pixels()
    gt_means = np.stack([b.mean for b in scene.gt_bundles])
    subset = np.array([3, 9, 17, 40])
    report = evaluate(z_gt[subset], gt_means, scene, indices=subset)
    assert report.avg_rmse == 0.0


def test_evaluate_requires_ground_truth():
    from unmix_ldvae.data import HsiCube

    bare = HsiCube(np.ones((2, 2, 3)))
    with pytest.raises(MetricsError):
        evaluate(np.ones((4, 2)) / 2, np.ones((2, 3)), bare)


def test_report_averages_recompute_from_rows():
    scene = scene_for_eval(seed=3)
    rng = np.random.default_rng(8)
    z_noisy = np.clip(scene.abundance_pixels() + 0.05 * rng.standard_normal((64, 3)), 0, 1)
    gt_means = np.stack([b.mean for b in scene.gt_bundles])
    noisy_means = gt_means + 0.01 * rng.standard_normal(gt_means.shape)
    report = evaluate(z_noisy, noisy_means, scene)
    assert report.avg_sad == pytest.approx(report.per_endmember_sad.mean(), abs=1e-12)
    assert report.avg_rmse == pytest.approx(report.per_endmember_rmse.mean(), abs=1e-12)
    assert report.pred_for_gt.tolist() == [0, 1, 2]
    # the prediction matched to ground truth j, and its abundances, moved to order[j]
    order = np.array([2, 0, 1])
    permuted = np.empty_like(noisy_means)
    permuted[order] = noisy_means
    shuffled = evaluate(z_noisy[:, order.argsort()], permuted, scene)
    assert shuffled.pred_for_gt.tolist() == order.tolist()
    np.testing.assert_array_equal(shuffled.per_endmember_sad, report.per_endmember_sad)


def test_csv_round_trips_average_exactly():
    scene = scene_for_eval(seed=4)
    rng = np.random.default_rng(9)
    z_noisy = np.clip(scene.abundance_pixels() + 0.03 * rng.standard_normal((64, 3)), 0, 1)
    gt_means = np.stack([b.mean for b in scene.gt_bundles])
    report = evaluate(z_noisy, gt_means + 0.005 * rng.standard_normal(gt_means.shape), scene)
    text = report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "endmember,sad_rad,rmse"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    sads = np.array([float(r[1]) for r in rows[:-1]])
    rmses = np.array([float(r[2]) for r in rows[:-1]])
    assert rows[-1][0] == "average"
    assert abs(float(rows[-1][1]) - sads.mean()) <= 1e-12
    assert abs(float(rows[-1][2]) - rmses.mean()) <= 1e-12
