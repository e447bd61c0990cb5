"""Evaluation: spectral angle distance for endmember extraction, RMSE for
abundance estimation, optimal endmember-to-truth matching, and the table-
shaped CSV report."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import HsiCube


class MetricsError(ValueError):
    """Invalid metric inputs (zero spectra, shape mismatches, missing GT)."""


def sad(e_hat: np.ndarray, e: np.ndarray) -> float:
    """Spectral angle distance in radians, scale-invariant in both arguments.

    The naive arccos of the normalized dot product loses half the significand
    near 0 and pi (arccos has infinite slope at +-1, so a one-ulp cosine error
    becomes ~1e-8 of angle). The half-angle arctangent form below is the same
    angle computed with full relative accuracy everywhere; identical inputs
    give exactly 0 and antiparallel inputs exactly pi.
    """
    e_hat = np.asarray(e_hat, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if e_hat.shape != e.shape or e_hat.ndim != 1:
        raise MetricsError(f"sad needs equal-length vectors, got {e_hat.shape} vs {e.shape}")
    norm_hat = np.linalg.norm(e_hat)
    norm_ref = np.linalg.norm(e)
    if norm_hat == 0.0 or norm_ref == 0.0:
        raise MetricsError("sad is undefined for a zero spectrum")
    u = e_hat * norm_ref
    v = e * norm_hat
    return float(2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v)))


def rmse_abundance(z_hat: np.ndarray, z_gt: np.ndarray) -> np.ndarray:
    """Root mean square abundance error per endmember: sqrt(mean over pixels
    of that coordinate's squared error). The overall RMSE, sqrt(mean over
    pixels of the squared vector error), is the root of the sum of their
    squares.
    """
    z_hat = np.atleast_2d(np.asarray(z_hat, dtype=np.float64))
    z_gt = np.atleast_2d(np.asarray(z_gt, dtype=np.float64))
    if z_hat.shape != z_gt.shape:
        raise MetricsError(f"abundance shapes differ: {z_hat.shape} vs {z_gt.shape}")
    if z_hat.shape[0] < 1:
        raise MetricsError("need at least one pixel")
    return np.sqrt(((z_hat - z_gt) ** 2).mean(axis=0))


def match_endmembers(pred_means: np.ndarray, gt_means: np.ndarray) -> np.ndarray:
    """Assignment minimizing total spectral angle: entry i is the ground-truth
    index matched to predicted endmember i."""
    pred_means = np.asarray(pred_means, dtype=np.float64)
    gt_means = np.asarray(gt_means, dtype=np.float64)
    if pred_means.shape != gt_means.shape or pred_means.ndim != 2:
        raise MetricsError(
            f"mean matrices must both be (K, C), got {pred_means.shape} vs {gt_means.shape}"
        )
    k = pred_means.shape[0]
    cost = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            cost[i, j] = sad(pred_means[i], gt_means[j])
    _, cols = linear_sum_assignment(cost)
    return cols


@dataclass
class EvalReport:
    """Per-endmember scores in ground-truth order plus their averages."""

    per_endmember_sad: np.ndarray
    per_endmember_rmse: np.ndarray
    avg_sad: float
    avg_rmse: float
    assignment: np.ndarray
    names: list[str] = field(default_factory=list)
    overall_rmse: float = 0.0


def evaluate(
    pred_abundances: np.ndarray,
    pred_endmember_means: np.ndarray,
    cube: HsiCube,
    indices=None,
) -> EvalReport:
    """Score abundance maps and aggregated endmember means against a cube's
    ground truth. Rows of the report follow the ground-truth endmember order;
    `indices` restricts the abundance comparison to those pixels."""
    if cube.gt_abundances is None or cube.gt_bundles is None:
        raise MetricsError("evaluation needs ground-truth abundances and bundles")
    z_gt = cube.abundance_pixels()
    if indices is not None:
        z_gt = z_gt[np.asarray(indices, dtype=np.int64)]
    pred_abundances = np.asarray(pred_abundances, dtype=np.float64)
    if pred_abundances.shape != z_gt.shape:
        raise MetricsError(
            f"predicted abundances {pred_abundances.shape} do not match "
            f"ground truth {z_gt.shape}"
        )
    gt_means = np.stack([b.mean for b in cube.gt_bundles])
    assignment = match_endmembers(pred_endmember_means, gt_means)
    k = gt_means.shape[0]
    pred_for_gt = np.empty(k, dtype=np.int64)
    pred_for_gt[assignment] = np.arange(k)
    sad_scores = np.array(
        [sad(pred_endmember_means[pred_for_gt[j]], gt_means[j]) for j in range(k)]
    )
    matched_z = pred_abundances[:, pred_for_gt]
    rmse_scores = rmse_abundance(matched_z, z_gt)
    return EvalReport(
        per_endmember_sad=sad_scores,
        per_endmember_rmse=rmse_scores,
        avg_sad=float(sad_scores.mean()),
        avg_rmse=float(rmse_scores.mean()),
        assignment=assignment,
        names=[b.name for b in cube.gt_bundles],
        overall_rmse=float(np.sqrt((rmse_scores**2).sum())),
    )


def report_to_csv(report: EvalReport) -> str:
    """Table-shaped CSV: one row per endmember, then the average row. Values
    use round-trip formatting so the averages recompute exactly."""
    lines = ["endmember,sad_rad,rmse"]
    k = report.per_endmember_sad.shape[0]
    names = report.names if len(report.names) == k else [f"em{j}" for j in range(k)]
    for j in range(k):
        sad_j = format(float(report.per_endmember_sad[j]), ".17g")
        rmse_j = format(float(report.per_endmember_rmse[j]), ".17g")
        lines.append(f"{names[j]},{sad_j},{rmse_j}")
    lines.append(
        f"average,{format(report.avg_sad, '.17g')},{format(report.avg_rmse, '.17g')}"
    )
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, path) -> None:
    Path(path).write_text(report_to_csv(report))
