"""Patch-to-pixel unmixing network.

A hyperspectral patch is cut into per-pixel spectral segments, each segment
becomes one token, and a small pre-norm transformer encodes the sequence.
An element-wise max over tokens gives the latent vector, from which two
heads read out: Dirichlet concentrations over abundances and per-endmember
Gaussian bundles (mean plus block-diagonal Cholesky factors). ``forward``
stops at the heads and is all inference runs. Training also draws
abundances and endmembers from them and mixes the draws through a
reconstruction MLP that starts out as the plain linear mixing model
(``sample_reconstruction``).

All internal math runs batched, shapes (B, ...), on the tape-based Tensor
type so gradients reach every parameter.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import HsiCube, PatchSource, _finite_real, _integer, segment_sizes
from .numcore import (
    GammaNoise,
    ShapeError,
    Tensor,
    draw_gamma_noise,
    gamma_from_noise,
)
from .numcore import ops


class ModelError(ValueError):
    """Invalid model configuration or parameter set."""


DECODER_MEAN_INIT = 0.5
DECODER_DIAG_INIT = 0.05
POS_INIT_SCALE = 0.02


@dataclass
class ModelConfig:
    patch: int = 5
    bands: int = 156
    k: int = 4
    seg_len: int = 16
    d: int = 64
    layers: int = 4
    heads: int = 16
    ff_dim: int = 128
    eps_alpha: float = 1e-6
    eps_chol: float = 1e-4

    def validate(self) -> None:
        for name in ("patch", "bands", "k", "seg_len", "d", "layers", "heads", "ff_dim"):
            if not _integer(getattr(self, name)):
                raise ModelError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.patch < 1 or self.patch % 2 == 0:
            raise ModelError(f"patch must be odd and positive, got {self.patch}")
        if self.bands < 1 or self.seg_len < 1:
            raise ModelError(
                f"bands ({self.bands}) and seg_len ({self.seg_len}) must be positive"
            )
        if self.k < 2:
            raise ModelError(f"need at least 2 endmembers, got {self.k}")
        if self.layers < 1:
            raise ModelError(f"need at least one encoder layer, got {self.layers}")
        if self.d < 1 or self.heads < 1 or self.d % self.heads != 0:
            raise ModelError(f"embedding dim {self.d} does not split into {self.heads} heads")
        if self.ff_dim < 1:
            raise ModelError(f"ff_dim must be positive, got {self.ff_dim}")
        for name in ("eps_alpha", "eps_chol"):
            if not _finite_real(getattr(self, name)) or getattr(self, name) <= 0:
                raise ModelError(f"{name} must be a positive number, got {getattr(self, name)!r}")

    @property
    def n_segments(self) -> int:
        return -(-self.bands // self.seg_len)

    @property
    def n_tokens(self) -> int:
        return self.patch * self.patch * self.n_segments

    def cov_segment_sizes(self) -> list[int]:
        return segment_sizes(self.bands, self.seg_len)

    def decoder_out_per_endmember(self) -> int:
        return 2 * self.bands + sum(m * (m - 1) // 2 for m in self.cov_segment_sizes())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        config = cls(**payload)
        config.validate()
        return config


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def param_shapes(config: ModelConfig):
    """Yield (name, shape) of every trainable parameter in the order
    init_params draws them. Lazy, so a reader can stop at the first
    parameter a file lacks before a large config is spelled out."""
    d, ff, c, k = config.d, config.ff_dim, config.bands, config.k
    yield "tok.w", (config.seg_len, d)
    yield "tok.b", (d,)
    yield "pos", (config.n_tokens, d)
    for i in range(config.layers):
        pre = f"enc{i}"
        yield f"{pre}.ln1.g", (d,)
        yield f"{pre}.ln1.b", (d,)
        for name in ("wq", "wk", "wv", "wo"):
            yield f"{pre}.attn.{name}", (d, d)
        # no key bias: a per-row constant in the scores cancels in softmax
        for name in ("bq", "bv", "bo"):
            yield f"{pre}.attn.{name}", (d,)
        yield f"{pre}.ln2.g", (d,)
        yield f"{pre}.ln2.b", (d,)
        yield f"{pre}.ffn.w1", (d, ff)
        yield f"{pre}.ffn.b1", (ff,)
        yield f"{pre}.ffn.w2", (ff, d)
        yield f"{pre}.ffn.b2", (d,)
    yield "alpha.w", (d, k)
    yield "alpha.b", (k,)
    out_dim = k * config.decoder_out_per_endmember()
    yield "dec1.w1", (d, ff)
    yield "dec1.b1", (ff,)
    yield "dec1.w2", (ff, out_dim)
    yield "dec1.b2", (out_dim,)
    yield "dec2.wm", (c, c)
    yield "dec2.wz", (k, c)
    yield "dec2.b1", (c,)
    yield "dec2.w2", (c, c)
    yield "dec2.b2", (c,)


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh trainable parameters, flat dict keyed by dotted names. Matrices
    draw uniformly from +-1/sqrt(rows), layer-norm gains start at one and
    the remaining vectors at zero, apart from the cases below."""
    config.validate()
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config):
        if name == "pos":
            value = POS_INIT_SCALE * rng.standard_normal(shape)
        elif name == "alpha.b":
            # softplus(b) = 1 at b = ln(e - 1): concentrations start near uniform
            value = np.full(shape, math.log(math.e - 1.0))
        elif name == "dec1.b2":
            value = _decoder_bias_init(config)
        elif name == "dec2.w2":
            # zero final layer: reconstruction starts as the exact linear mixture
            value = np.zeros(shape)
        elif len(shape) == 2:
            value = _uniform(rng, shape[0], shape)
            if name == "dec1.w2":
                value *= 0.1
        elif name.endswith(".g"):
            value = np.ones(shape)
        else:
            value = np.zeros(shape)
        params[name] = Tensor(value, requires_grad=True)
    return params


def _decoder_bias_init(config: ModelConfig) -> np.ndarray:
    """Biases of the bundle head: means at a mid reflectance, Cholesky
    diagonals at a small positive scale, off-diagonals at zero."""
    per = config.decoder_out_per_endmember()
    bias = np.zeros(config.k * per)
    c = config.bands
    diag_raw = math.log(math.expm1(max(DECODER_DIAG_INIT - config.eps_chol, 1e-6)))
    for k in range(config.k):
        base = k * per
        bias[base : base + c] = DECODER_MEAN_INIT
        bias[base + c : base + 2 * c] = diag_raw
    return bias


# ---------------------------------------------------------------------------
# tokenizer


def segment_patch_values(patches: np.ndarray, config: ModelConfig) -> np.ndarray:
    """(B, P, P, C) -> (B, S, seg_len) raw tokens: row-major pixels, ascending
    segments, last segment zero-padded."""
    b = patches.shape[0]
    n_pix = config.patch * config.patch
    flat = patches.reshape(b, n_pix, config.bands)
    padded_width = config.n_segments * config.seg_len
    if padded_width != config.bands:
        pad = np.zeros((b, n_pix, padded_width - config.bands))
        flat = np.concatenate([flat, pad], axis=2)
    return flat.reshape(b, config.n_tokens, config.seg_len)


def tokenize_batch(patches: np.ndarray, params: dict, config: ModelConfig) -> Tensor:
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 4 or patches.shape[1:] != (config.patch, config.patch, config.bands):
        raise ShapeError(
            f"patch batch shape {patches.shape} does not match "
            f"(B, {config.patch}, {config.patch}, {config.bands})"
        )
    raw = Tensor(segment_patch_values(patches, config))
    return ops.linear(raw, params["tok.w"], params["tok.b"])


# ---------------------------------------------------------------------------
# encoder


def _attention(x_norm: Tensor, params: dict, prefix: str, config: ModelConfig) -> Tensor:
    names = ("wq", "wk", "wv", "wo", "bq", "bv", "bo")
    return ops.attention(x_norm, *(params[f"{prefix}.{n}"] for n in names), config.heads)


def encode_batch(tokens: Tensor, params: dict, config: ModelConfig):
    """(B, S, d) tokens -> (h: (B, S, d), x_latent: (B, d))."""
    if tokens.ndim != 3 or tokens.shape[1] != config.n_tokens or tokens.shape[2] != config.d:
        raise ShapeError(
            f"token batch shape {tokens.shape} does not match (B, {config.n_tokens}, {config.d})"
        )
    x = ops.add(tokens, params["pos"])
    for i in range(config.layers):
        pre = f"enc{i}"
        normed = ops.layer_norm(x, params[f"{pre}.ln1.g"], params[f"{pre}.ln1.b"])
        x = ops.add(x, _attention(normed, params, f"{pre}.attn", config))
        normed = ops.layer_norm(x, params[f"{pre}.ln2.g"], params[f"{pre}.ln2.b"])
        hidden = ops.relu(ops.linear(normed, params[f"{pre}.ffn.w1"], params[f"{pre}.ffn.b1"]))
        ffn_out = ops.linear(hidden, params[f"{pre}.ffn.w2"], params[f"{pre}.ffn.b2"])
        x = ops.add(x, ffn_out)
    return x, ops.max_reduce(x, axis=1)


def alpha_head(x_latent: Tensor, params: dict, config: ModelConfig) -> Tensor:
    """Latent -> strictly positive Dirichlet concentrations."""
    raw = ops.linear(x_latent, params["alpha.w"], params["alpha.b"])
    return ops.add(ops.softplus(raw), Tensor(config.eps_alpha))


def dirichlet_mean(alpha: Tensor) -> Tensor:
    total = ops.sum_reduce(alpha, axis=-1, keepdims=True)
    return ops.divide(alpha, total)


def sample_abundances(alpha: Tensor, rng=None, noise: GammaNoise | None = None):
    """Reparameterized Dirichlet draw: normalized Gamma(alpha_i, 1) draws.
    Returns (z, noise) so the draw can be replayed."""
    if noise is None:
        if rng is None:
            raise ValueError("sample_abundances needs an rng when no noise is given")
        noise = draw_gamma_noise(alpha.data, rng)
    gamma = gamma_from_noise(alpha, noise)
    total = ops.sum_reduce(gamma, axis=-1, keepdims=True)
    return ops.divide(gamma, total), noise


# ---------------------------------------------------------------------------
# decoder


@dataclass
class DecodedBundles:
    """Per-patch endmember Gaussians, batched over pixels. The covariance of
    each endmember is block-diagonal over the spectral segments; its
    Cholesky blocks are stacked, a short last segment padded with the
    identity (see ``ops.tril_blocks``)."""

    means: Tensor  # (B, K, C)
    chol_diag: Tensor  # (B, K, C) strictly positive
    chol_blocks: Tensor  # (B, K, n_seg, L, L) lower-triangular, L = min(seg_len, C)


def decode_bundles(x_latent: Tensor, params: dict, config: ModelConfig) -> DecodedBundles:
    b = x_latent.shape[0]
    hidden = ops.relu(ops.linear(x_latent, params["dec1.w1"], params["dec1.b1"]))
    flat = ops.linear(hidden, params["dec1.w2"], params["dec1.b2"])
    per = config.decoder_out_per_endmember()
    out = ops.reshape(flat, (b, config.k, per))
    c = config.bands
    means = ops.slice_(out, (Ellipsis, slice(0, c)))
    diag_raw = ops.slice_(out, (Ellipsis, slice(c, 2 * c)))
    diag = ops.add(ops.softplus(diag_raw), Tensor(config.eps_chol))
    off = ops.slice_(out, (Ellipsis, slice(2 * c, per)))
    blocks = ops.tril_blocks(diag, off, config.cov_segment_sizes())
    return DecodedBundles(means=means, chol_diag=diag, chol_blocks=blocks)


def sample_endmembers(bundles: DecodedBundles, config: ModelConfig, rng=None, eps=None):
    """Reparameterized spectra draws: mean + L @ eps, all segments in one
    batched matmul over the zero-padded noise.
    Returns (endmembers (B, K, C), eps) for replay."""
    b, k, c = bundles.means.shape
    if eps is None:
        if rng is None:
            raise ValueError("sample_endmembers needs an rng when no eps is given")
        eps = rng.standard_normal((b, k, c))
    if eps.shape != (b, k, c):
        raise ShapeError(f"endmember noise shape {eps.shape} does not match {(b, k, c)}")
    n_seg, width = bundles.chol_blocks.shape[2:4]
    padded = np.zeros((b, k, n_seg * width))
    padded[..., :c] = eps
    drawn = ops.matmul(bundles.chol_blocks, Tensor(padded.reshape(b, k, n_seg, width, 1)))
    drawn = ops.reshape(drawn, (b, k, n_seg * width))
    if n_seg * width != c:
        drawn = ops.slice_(drawn, (Ellipsis, slice(0, c)))
    return ops.add(bundles.means, drawn), eps


def reconstruct(z: Tensor, endmembers: Tensor, params: dict) -> Tensor:
    """Mix endmembers by abundance, then apply the residual refinement MLP.
    z: (B, K), endmembers: (B, K, C) -> (B, C)."""
    b, k = z.shape
    c = endmembers.shape[-1]
    mixed = ops.reshape(ops.matmul(ops.reshape(z, (b, 1, k)), endmembers), (b, c))
    pre = ops.add(
        ops.linear(mixed, params["dec2.wm"], params["dec2.b1"]),
        ops.matmul(z, params["dec2.wz"]),
    )
    hidden = ops.relu(pre)
    return ops.add(mixed, ops.linear(hidden, params["dec2.w2"], params["dec2.b2"]))


# ---------------------------------------------------------------------------
# forward pass and training-time sampling


@dataclass
class Heads:
    """What the network computes for a batch of patches; every field is
    differentiable."""

    alpha_hat: Tensor  # (B, K) Dirichlet concentrations
    z_mean: Tensor  # (B, K) Dirichlet mean
    bundles: DecodedBundles


def forward(patches: np.ndarray, params: dict, config: ModelConfig) -> Heads:
    """The deterministic pass over a batch of patches: tokenizer, encoder,
    the concentration head with its Dirichlet mean, and the bundle head."""
    tokens = tokenize_batch(patches, params, config)
    _, x_latent = encode_batch(tokens, params, config)
    alpha = alpha_head(x_latent, params, config)
    return Heads(
        alpha_hat=alpha,
        z_mean=dirichlet_mean(alpha),
        bundles=decode_bundles(x_latent, params, config),
    )


@dataclass
class NoiseCache:
    """Every random draw of one sampled reconstruction, for exact replay."""

    gamma: GammaNoise
    endmember_eps: np.ndarray


@dataclass
class SampledReconstruction:
    """Training-time draws from the heads and the spectra they mix to."""

    z_hat: Tensor  # (B, K) sampled abundances
    endmembers: Tensor  # (B, K, C) sampled spectra
    x_recon: Tensor  # (B, C)
    noise: NoiseCache


def sample_reconstruction(
    heads: Heads, params: dict, config: ModelConfig, rng=None, noise: NoiseCache | None = None
) -> SampledReconstruction:
    """Draw abundances, then endmembers, from ``heads`` and mix them through
    the refinement MLP. The draws come from ``rng`` unless ``noise`` replays
    an earlier call."""
    z_hat, gamma_noise = sample_abundances(
        heads.alpha_hat, rng, None if noise is None else noise.gamma
    )
    endmembers, eps = sample_endmembers(
        heads.bundles, config, rng, None if noise is None else noise.endmember_eps
    )
    return SampledReconstruction(
        z_hat=z_hat,
        endmembers=endmembers,
        x_recon=reconstruct(z_hat, endmembers, params),
        noise=NoiseCache(gamma=gamma_noise, endmember_eps=eps),
    )


@dataclass
class Prediction:
    """Deterministic inference over a set of pixels. The bundle fields are
    the decoder outputs averaged over those pixels."""

    abundances: np.ndarray  # (N, K) Dirichlet means
    endmember_means: np.ndarray  # (K, C)
    chol_blocks: list  # per segment: (K, m, m) lower-triangular factors


def predict_cube(
    params: dict,
    config: ModelConfig,
    cube: HsiCube,
    indices=None,
    batch_size: int = 64,
) -> Prediction:
    """Per-pixel abundance means plus the endmember bundles averaged over the
    pixels, computed batch by batch by ``forward`` alone. On the criterion-7
    model, batches of 32 to 128 ran within noise of each other and about a
    fifth faster than 256, whose activations no longer fit in cache."""
    source = PatchSource(cube, config.patch)
    if indices is None:
        indices = np.arange(cube.n_pixels)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ModelError("predict_cube needs at least one pixel")
    abundances = np.empty((indices.size, config.k))
    mean_sum = np.zeros((config.k, config.bands))
    block_sum = 0.0  # takes its (K, n_seg, L, L) shape from the decoded blocks
    for start in range(0, indices.size, batch_size):
        batch_idx = indices[start : start + batch_size]
        heads = forward(source.batch(batch_idx), params, config)
        abundances[start : start + batch_idx.size] = heads.z_mean.data
        mean_sum += heads.bundles.means.data.sum(axis=0)
        block_sum = block_sum + heads.bundles.chol_blocks.data.sum(axis=0)
    return Prediction(
        abundances=abundances,
        endmember_means=mean_sum / indices.size,
        chol_blocks=[
            block_sum[:, s, :m, :m] / indices.size
            for s, m in enumerate(config.cov_segment_sizes())
        ],
    )
