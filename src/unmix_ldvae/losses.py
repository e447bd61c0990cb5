"""Loss terms for training: reconstruction MSE, closed-form Dirichlet KL
against the abundance prior, abundance MSE against ground truth, the
mixture-weighted Gaussian KL between predicted and reference endmember
bundles, and the geometric annealing schedule that phases the bundle term in.

Every term takes a batch of vectors and reduces it to the mean, so the
scale is independent of batch size. The two KL terms are numpy kernels
that each record one tape entry through ``ops._finish``, with their
closed-form gradients as the vjp.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import EndmemberBundle, check_fields, checked
from .model import DecodedBundles, Heads, SampledReconstruction
from .numcore import NumericError, ShapeError, Tensor, ops, special


class LossError(ValueError):
    """Invalid loss inputs (nonpositive concentrations, mismatched bundles)."""


@dataclass
class LossWeights:
    lambda_abundances: float = checked("real", default=1.0)
    lambda_endmembers_start: float = checked("real", "> 0", default=1e-6)
    lambda_endmembers_end: float = checked("real", default=1.0)
    # a real, not only an integer: configs may write 1e5, and the schedule divides by it
    anneal_epochs: int = checked("real", "> 0", default=80_000)
    alpha_prior: np.ndarray | None = checked("reals", "> 0", default=None)

    def validate(self) -> None:
        check_fields(self, LossError)
        start, end = self.lambda_endmembers_start, self.lambda_endmembers_end
        if not start < end:
            raise LossError(f"anneal must increase: start {start} >= end {end}")

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
    if t.ndim != 2:
        raise ShapeError(f"{name} must be a batch of vectors, got {t.shape}")
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


@functools.lru_cache(maxsize=8)
def _prior_constant(prior: tuple) -> float:
    """lgamma(sum p) - sum lgamma(p), the KL's term in the prior alone. A fit
    has one prior, so each shard of each step finds it here."""
    p = np.array(prior)
    return float(special.lgamma(p.sum()) - special.lgamma(p).sum())


def kl_dirichlet(alpha_hat, alpha_prior) -> Tensor:
    """Batch mean of the closed-form KL(Dir(alpha_hat) || Dir(alpha_prior)),
    as one record. Per row, with a0 = sum a and p0 = sum p:

    KL = lgamma(a0) - sum lgamma(a) - lgamma(p0) + sum lgamma(p)
         + sum (a - p) * (digamma(a) - digamma(a0))

    Its gradient in a is (a - p) * trigamma(a) - trigamma(a0) * (a0 - p0),
    so the vjp reads only the concentrations and the prior.
    """
    alpha = _as_batch(alpha_hat, "alpha_hat")
    prior = np.asarray(alpha_prior, dtype=np.float64).reshape(-1)
    if prior.shape[0] != alpha.shape[1]:
        raise ShapeError(
            f"prior has {prior.shape[0]} entries, concentrations have {alpha.shape[1]}"
        )
    if np.any(alpha.data <= 0) or np.any(prior <= 0):
        raise LossError("Dirichlet concentrations must be strictly positive")
    a = alpha.data
    a0 = a.sum(axis=1)
    entropy_terms = special.lgamma(a0) - special.lgamma(a).sum(axis=1)
    prior_const = _prior_constant(tuple(prior.tolist()))
    centered_digamma = special.digamma(a) - special.digamma(a0)[:, None]
    cross = ((a - prior) * centered_digamma).sum(axis=1)
    per_row = (entropy_terms - prior_const) + cross

    def vjp(g):
        grad = (a - prior) * special.trigamma(a)
        grad -= (special.trigamma(a0) * (a0 - prior.sum()))[:, None]
        return (grad * (g / len(a)),)

    return ops._finish("kl_dirichlet", (alpha,), per_row.mean(), vjp)


@dataclass
class ReferenceBlocks:
    """What ``kl_bundle`` needs of the K reference bundles: the inverses of
    their stacked Cholesky blocks (K, n_seg, L, L), the layout of
    ``DecodedBundles.chol_blocks``, their means (K, C) and the
    log-determinants (K,) of their covariances."""

    inv_chols: np.ndarray
    means: np.ndarray
    logdets: np.ndarray


def reference_blocks(gt_bundles: list[EndmemberBundle]) -> ReferenceBlocks:
    """The constants of ``kl_bundle``, computed once so a training loop can
    reuse them for every batch. The identity padding of a short last segment
    keeps every block lower-triangular, so ``special.tril_inverse`` inverts
    the whole stack at once; it sits at the end of the stacked diagonal,
    whose first C entries are the diagonal of the covariance's factor."""
    if not gt_bundles:
        raise ShapeError("need at least one reference bundle")
    if len({(b.bands, b.chol_blocks.shape) for b in gt_bundles}) > 1:
        raise ShapeError("reference bundles disagree on segment sizes")
    blocks = np.stack([b.chol_blocks for b in gt_bundles])
    means = np.stack([b.mean for b in gt_bundles])
    diag = np.diagonal(blocks, axis1=-2, axis2=-1).reshape(len(gt_bundles), -1)
    return ReferenceBlocks(
        inv_chols=special.tril_inverse(blocks),
        means=means,
        logdets=2.0 * np.log(diag[:, : means.shape[1]]).sum(axis=1),
    )


def kl_bundle(pred: DecodedBundles, ref: ReferenceBlocks, alpha_hat) -> Tensor:
    """Abundance-weighted Gaussian KL from predicted to reference bundles,
    as one record.

    Per pixel: sum_k w_k KL(N(mu_hat_k, L_hat_k L_hat_k^T) || N(mu_k, Sigma_k))
    with w = alpha_hat / sum(alpha_hat); the batch reduces to its mean.
    ``ref`` holds the ``reference_blocks`` of the reference bundles. Both
    covariances are block-diagonal over the segments, so with A the stacked
    inverse reference blocks, one batched matmul whitens every predicted
    block, A L_hat, and one the zero-padded mean difference d = mu - mu_hat.
    A padded identity row adds exactly 1 to the trace and nothing to the
    quadratic form or the log-determinants, so the trace term subtracts
    n_seg * L in place of C.

    With G = g / B, the vjp gives -G w A^T (A d) for the means, cut back to
    C bands, G w A^T (A L_hat) for the blocks, -G w / diag for the diagonal
    and G (KL_k - sum_j w_j KL_j) / sum(alpha_hat) for the concentrations.
    """
    alpha = _as_batch(alpha_hat, "alpha_hat")
    k, c = ref.means.shape
    if alpha.shape[1] != k or pred.means.shape[1] != k:
        raise ShapeError(
            f"endmember counts disagree: {alpha.shape[1]} weights, "
            f"{pred.means.shape[1]} predictions, {k} references"
        )
    if pred.means.shape[-1] != c:
        raise ShapeError(
            f"band counts disagree: predicted {pred.means.shape[-1]}, reference {c}"
        )
    if pred.chol_blocks.shape[-3:] != ref.inv_chols.shape[-3:]:
        raise ShapeError(
            f"segment blocks disagree: predicted {pred.chol_blocks.shape[-3:]}, "
            f"reference {ref.inv_chols.shape[-3:]}"
        )
    b, _, n_seg, width = pred.chol_blocks.shape[:4]
    inv_chols, diag = ref.inv_chols, pred.chol_diag.data
    whitened_chol = inv_chols @ pred.chol_blocks.data
    trace = (whitened_chol * whitened_chol).sum(axis=(-3, -2, -1))
    diff = np.zeros((b, k, n_seg * width))
    diff[..., :c] = ref.means - pred.means.data
    whitened_diff = inv_chols @ diff.reshape(b, k, n_seg, width, 1)
    quad = (whitened_diff * whitened_diff).sum(axis=(-3, -2, -1))
    gap = ref.logdets - np.log(diag).sum(axis=-1) * 2.0
    kl_bk = ((trace + quad) + (gap - float(n_seg * width))) * 0.5
    alpha_sum = alpha.data.sum(axis=1, keepdims=True)
    weights = alpha.data / alpha_sum
    per_pixel = (weights * kl_bk).sum(axis=1)

    def vjp(g):
        scale = weights * (g / b)
        inv_t = np.swapaxes(inv_chols, -1, -2)
        g_diff = (inv_t @ whitened_diff).reshape(b, k, -1)[..., :c]
        return (
            g_diff * -scale[..., None],
            (inv_t @ whitened_chol) * scale[..., None, None, None],
            -scale[..., None] / diag,
            (kl_bk - per_pixel[:, None]) * (g / b) / alpha_sum,
        )

    inputs = (pred.means, pred.chol_blocks, pred.chol_diag, alpha)
    return ops._finish("kl_bundle", inputs, per_pixel.mean(), vjp)


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
