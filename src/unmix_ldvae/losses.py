"""Loss terms for training: reconstruction MSE, closed-form Dirichlet KL
against the abundance prior, abundance MSE against ground truth, the
mixture-weighted Gaussian KL between predicted and reference endmember
bundles, and the geometric annealing schedule that phases the bundle term in.

Every term accepts a single vector or a batch; batches reduce to the mean so
the scale is independent of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data import EndmemberBundle, _finite_real
from .model import DecodedBundles, Heads, SampledReconstruction
from .numcore import NumericError, ShapeError, Tensor, ops


class LossError(ValueError):
    """Invalid loss inputs (nonpositive concentrations, mismatched bundles)."""


@dataclass
class LossWeights:
    lambda_abundances: float = 1.0
    lambda_endmembers_start: float = 1e-6
    lambda_endmembers_end: float = 1.0
    anneal_epochs: int = 80_000
    alpha_prior: np.ndarray | None = None

    def validate(self) -> None:
        for name in ("lambda_abundances", "lambda_endmembers_start", "lambda_endmembers_end",
                     "anneal_epochs"):
            if not _finite_real(getattr(self, name)):
                raise LossError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not self.lambda_endmembers_start < self.lambda_endmembers_end:
            raise LossError(
                f"anneal must increase: start {self.lambda_endmembers_start} "
                f">= end {self.lambda_endmembers_end}"
            )
        if self.lambda_endmembers_start <= 0:
            raise LossError("anneal start must be strictly positive")
        if self.anneal_epochs <= 0:
            raise LossError(f"anneal_epochs must be positive, got {self.anneal_epochs}")
        if self.alpha_prior is not None and np.any(np.asarray(self.alpha_prior) <= 0):
            raise LossError("alpha_prior entries must be strictly positive")

    def prior_for(self, k: int) -> np.ndarray:
        """Prior concentrations, defaulting to the uniform all-ones vector."""
        if self.alpha_prior is None:
            return np.ones(k)
        prior = np.asarray(self.alpha_prior, dtype=np.float64)
        if prior.shape != (k,):
            raise LossError(f"alpha_prior shape {prior.shape} does not match K={k}")
        return prior


@dataclass
class LossBreakdown:
    recon: float
    kl_dirichlet: float
    abundance: float
    endmember: float
    total: float
    lambda_endmembers_now: float


def _as_batch(value, name: str) -> Tensor:
    t = value if isinstance(value, Tensor) else Tensor(value)
    if t.ndim == 1:
        t = ops.reshape(t, (1, t.shape[0]))
    if t.ndim != 2:
        raise ShapeError(f"{name} must be a vector or a batch of vectors, got {t.shape}")
    return t


def _mean_squared_error(pred, target, name: str) -> Tensor:
    p = _as_batch(pred, name)
    t = _as_batch(target, f"{name} target")
    if p.shape != t.shape:
        raise ShapeError(f"{name}: shape {p.shape} does not match target {t.shape}")
    diff = ops.subtract(p, t)
    return ops.mean_reduce(ops.multiply(diff, diff))


def loss_recon(x_recon, x) -> Tensor:
    """Mean squared reconstruction error over bands (and batch)."""
    return _mean_squared_error(x_recon, x, "reconstruction")


def loss_abundance(z_hat, z_gt) -> Tensor:
    """Mean squared error between predicted and reference abundances."""
    return _mean_squared_error(z_hat, z_gt, "abundance")


def kl_dirichlet_per(alpha_hat, alpha_prior) -> Tensor:
    """Per-row KL(Dir(alpha_hat) || Dir(alpha_prior)), closed form.

    KL = lgamma(sum a) - sum lgamma(a) - lgamma(sum p) + sum lgamma(p)
         + sum (a - p) * (digamma(a) - digamma(sum a))
    """
    alpha = _as_batch(alpha_hat, "alpha_hat")
    prior = np.asarray(alpha_prior, dtype=np.float64).reshape(-1)
    if prior.shape[0] != alpha.shape[1]:
        raise ShapeError(
            f"prior has {prior.shape[0]} entries, concentrations have {alpha.shape[1]}"
        )
    if np.any(alpha.data <= 0) or np.any(prior <= 0):
        raise LossError("Dirichlet concentrations must be strictly positive")
    b = alpha.shape[0]
    alpha_sum = ops.sum_reduce(alpha, axis=1)
    entropy_terms = ops.subtract(
        ops.lgamma(alpha_sum), ops.sum_reduce(ops.lgamma(alpha), axis=1)
    )
    prior_const = float(gammaln(prior.sum()) - gammaln(prior).sum())
    centered_digamma = ops.subtract(
        ops.digamma(alpha), ops.reshape(ops.digamma(alpha_sum), (b, 1))
    )
    cross = ops.sum_reduce(
        ops.multiply(ops.subtract(alpha, Tensor(prior)), centered_digamma), axis=1
    )
    return ops.add(ops.subtract(entropy_terms, Tensor(prior_const)), cross)


def kl_dirichlet(alpha_hat, alpha_prior) -> Tensor:
    """Batch mean of the closed-form Dirichlet KL to the prior."""
    return ops.mean_reduce(kl_dirichlet_per(alpha_hat, alpha_prior))


@dataclass
class ReferenceBlocks:
    """What ``kl_bundle`` needs of the reference bundles, per segment:
    stacked inverse Cholesky factors (K, m, m), stacked means (K, m) and
    log-determinants (K,) of the reference covariances."""

    k: int
    bands: int
    sizes: list[int]
    inv_chols: list[np.ndarray]
    means: list[np.ndarray]
    logdets: list[np.ndarray]


def reference_blocks(gt_bundles: list[EndmemberBundle]) -> ReferenceBlocks:
    """The per-segment constants of ``kl_bundle``, computed once so a
    training loop can reuse them for every batch."""
    if not gt_bundles:
        raise ShapeError("need at least one reference bundle")
    sizes = [blk.shape[0] for blk in gt_bundles[0].chol_blocks]
    for bundle in gt_bundles:
        if [blk.shape[0] for blk in bundle.chol_blocks] != sizes:
            raise ShapeError("reference bundles disagree on segment sizes")
    inv_chols, means, logdets = [], [], []
    start = 0
    for s, m in enumerate(sizes):
        inv_chols.append(np.stack([np.linalg.inv(b.chol_blocks[s]) for b in gt_bundles]))
        means.append(np.stack([b.mean[start : start + m] for b in gt_bundles]))
        logdets.append(
            np.stack([2.0 * np.log(np.diag(b.chol_blocks[s])).sum() for b in gt_bundles])
        )
        start += m
    return ReferenceBlocks(
        k=len(gt_bundles),
        bands=gt_bundles[0].bands,
        sizes=sizes,
        inv_chols=inv_chols,
        means=means,
        logdets=logdets,
    )


def kl_bundle(pred: DecodedBundles, ref: ReferenceBlocks, alpha_hat) -> Tensor:
    """Abundance-weighted Gaussian KL from predicted to reference bundles.

    Per pixel: sum_k w_k KL(N(mu_hat_k, L_hat_k L_hat_k^T) || N(mu_k, Sigma_k))
    with w = alpha_hat / sum(alpha_hat), evaluated block by block over the
    spectral segments; the batch reduces to its mean. ``ref`` holds the
    ``reference_blocks`` of the reference bundles.
    """
    alpha = _as_batch(alpha_hat, "alpha_hat")
    k = ref.k
    if alpha.shape[1] != k or pred.means.shape[1] != k:
        raise ShapeError(
            f"endmember counts disagree: {alpha.shape[1]} weights, "
            f"{pred.means.shape[1]} predictions, {k} references"
        )
    if pred.means.shape[-1] != ref.bands:
        raise ShapeError(
            f"band counts disagree: predicted {pred.means.shape[-1]}, "
            f"reference {ref.bands}"
        )
    sizes = ref.sizes
    if [blk.shape[-1] for blk in pred.chol_blocks] != sizes:
        raise ShapeError(
            f"segment sizes disagree: predicted {[b.shape[-1] for b in pred.chol_blocks]}, "
            f"reference {sizes}"
        )
    b = pred.means.shape[0]
    total_bk = None
    c0 = 0
    for m, block, a, mu_gt, logdet_gt in zip(
        sizes, pred.chol_blocks, ref.inv_chols, ref.means, ref.logdets
    ):
        a_t = Tensor(a)
        whitened_chol = ops.matmul(a_t, block)
        trace = ops.sum_reduce(
            ops.multiply(whitened_chol, whitened_chol), axis=(-2, -1)
        )
        mu_hat = ops.slice_(pred.means, (Ellipsis, slice(c0, c0 + m)))
        diff = ops.reshape(ops.subtract(Tensor(mu_gt), mu_hat), (b, k, m, 1))
        whitened_diff = ops.matmul(a_t, diff)
        quad = ops.sum_reduce(ops.multiply(whitened_diff, whitened_diff), axis=(-2, -1))
        diag_hat = ops.slice_(pred.chol_diag, (Ellipsis, slice(c0, c0 + m)))
        logdet_hat = ops.multiply(
            ops.sum_reduce(ops.log(diag_hat), axis=-1), Tensor(2.0)
        )
        gap = ops.subtract(Tensor(logdet_gt), logdet_hat)
        block_kl = ops.multiply(
            ops.add(ops.add(trace, quad), ops.subtract(gap, Tensor(float(m)))),
            Tensor(0.5),
        )
        total_bk = block_kl if total_bk is None else ops.add(total_bk, block_kl)
        c0 += m
    weights = ops.divide(alpha, ops.sum_reduce(alpha, axis=1, keepdims=True))
    per_pixel = ops.sum_reduce(ops.multiply(weights, total_bk), axis=1)
    return ops.mean_reduce(per_pixel)


def anneal_lambda(epoch: int, weights: LossWeights) -> float:
    """Geometric interpolation of the endmember-loss weight."""
    if epoch < 0:
        raise LossError(f"epoch must be nonnegative, got {epoch}")
    progress = epoch / weights.anneal_epochs
    if progress >= 1.0:
        return weights.lambda_endmembers_end
    start = weights.lambda_endmembers_start
    return float(start * (weights.lambda_endmembers_end / start) ** progress)


def total_loss(
    recon: Tensor,
    kl_dir: Tensor,
    abundance: Tensor,
    endmember: Tensor,
    weights: LossWeights,
    epoch: int,
):
    """Combine the four terms with the current anneal weight.

    Returns (total as a differentiable scalar, LossBreakdown of floats)."""
    parts = {
        "recon": recon,
        "kl_dirichlet": kl_dir,
        "abundance": abundance,
        "endmember": endmember,
    }
    for name, value in parts.items():
        if not np.isfinite(value.data).all():
            raise NumericError(f"non-finite {name} loss term")
    lam_em = anneal_lambda(epoch, weights)
    total = ops.add(
        ops.add(recon, kl_dir),
        ops.add(
            ops.multiply(abundance, Tensor(weights.lambda_abundances)),
            ops.multiply(endmember, Tensor(lam_em)),
        ),
    )
    if not np.isfinite(total.data).all():
        raise NumericError("non-finite combined loss")
    breakdown = LossBreakdown(
        recon=recon.item(),
        kl_dirichlet=kl_dir.item(),
        abundance=abundance.item(),
        endmember=endmember.item(),
        total=total.item(),
        lambda_endmembers_now=lam_em,
    )
    return total, breakdown


def compute_losses(
    heads: Heads,
    sampled: SampledReconstruction,
    x,
    z_gt,
    reference: ReferenceBlocks,
    weights: LossWeights,
    epoch: int,
):
    """All loss terms for one batch: its ``forward`` heads and the
    ``sample_reconstruction`` drawn from them, against the batch's spectra,
    abundances and the ``reference_blocks`` of the reference bundles."""
    recon = loss_recon(sampled.x_recon, x)
    kld = kl_dirichlet(heads.alpha_hat, weights.prior_for(heads.alpha_hat.shape[-1]))
    abundance = loss_abundance(sampled.z_hat, z_gt)
    endmember = kl_bundle(heads.bundles, reference, heads.alpha_hat)
    return total_loss(recon, kld, abundance, endmember, weights, epoch)
