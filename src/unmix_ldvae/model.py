"""Patch-to-pixel unmixing network.

A hyperspectral patch is cut into per-pixel spectral segments, each segment
becomes one token, and a small pre-norm transformer encodes the sequence.
An element-wise max over tokens gives the latent vector, from which two
heads read out: Dirichlet concentrations over abundances and per-endmember
Gaussian bundles (mean plus block-diagonal Cholesky factors). ``forward``
stops at the heads and is all inference runs; inference's abundances are
the Dirichlet mean, which ``predict_cube`` takes from the concentrations'
array. Training also draws abundances and endmembers from the heads and
mixes the draws through a reconstruction MLP that starts out as the plain
linear mixing model (``sample_reconstruction``).

All internal math runs batched, shapes (B, ...), on the tape-based Tensor
type so gradients reach every parameter. Each encoder layer is one tape
record, ``ops.encoder_layer``, which keeps only what its vjp reads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import HsiCube, PatchSource, check_fields, checked, segment_sizes
from .numcore import (
    GammaNoise,
    ShapeError,
    Tensor,
    draw_gamma_noise,
    gamma_from_noise,
    map_on_cores,
)
from .numcore import ops


class ModelError(ValueError):
    """Invalid model configuration or parameter set."""


DECODER_MEAN_INIT = 0.5
DECODER_DIAG_INIT = 0.05
POS_INIT_SCALE = 0.02


@dataclass
class ModelConfig:
    patch: int = checked("int", ">= 1", odd=True, default=5)
    bands: int = checked("int", ">= 1", default=156)
    k: int = checked("int", ">= 2", default=4)
    seg_len: int = checked("int", ">= 1", default=16)
    d: int = checked("int", ">= 1", default=64)
    layers: int = checked("int", ">= 1", default=4)
    heads: int = checked("int", ">= 1", default=16)
    ff_dim: int = checked("int", ">= 1", default=128)
    eps_alpha: float = checked("real", "> 0", default=1e-6)
    eps_chol: float = checked("real", "> 0", default=1e-4)

    def validate(self) -> None:
        check_fields(self, ModelError)
        if self.d % self.heads != 0:
            raise ModelError(f"embedding dim {self.d} does not split into {self.heads} heads")

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


# one encoder layer's parameters, in the argument order of ops.encoder_layer
LAYER_PARAMS = (
    "ln1.g", "ln1.b",
    *(f"attn.{n}" for n in ("wq", "wk", "wv", "wo", "bq", "bv", "bo")),
    "ln2.g", "ln2.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2",
)


def encode_batch(tokens: Tensor, params: dict, config: ModelConfig) -> Tensor:
    """(B, S, d) tokens -> (B, d) latent, the max over the encoded tokens.
    Each pre-norm layer, layer norm, attention, residual add, layer norm,
    FFN and residual add, is one ``ops.encoder_layer`` record."""
    if tokens.ndim != 3 or tokens.shape[1] != config.n_tokens or tokens.shape[2] != config.d:
        raise ShapeError(
            f"token batch shape {tokens.shape} does not match (B, {config.n_tokens}, {config.d})"
        )
    x = ops.add(tokens, params["pos"])
    for i in range(config.layers):
        layer = (params[f"enc{i}.{name}"] for name in LAYER_PARAMS)
        x = ops.encoder_layer(x, *layer, config.heads)
    return ops.max_reduce(x, axis=1)


def alpha_head(x_latent: Tensor, params: dict, config: ModelConfig) -> Tensor:
    """Latent -> strictly positive Dirichlet concentrations."""
    raw = ops.linear(x_latent, params["alpha.w"], params["alpha.b"])
    return ops.add(ops.softplus(raw), Tensor(config.eps_alpha))


def sample_abundances(alpha: Tensor, noise: GammaNoise) -> Tensor:
    """Reparameterized Dirichlet draw: the Gamma(alpha_i, 1) draws that
    ``noise`` from ``draw_gamma_noise`` gives, z = gamma / S with S their
    row sum. The normalization is one record with the vjp
    g / S - sum(g z) / S."""
    gamma = gamma_from_noise(alpha, noise)
    total = gamma.data.sum(axis=-1, keepdims=True)
    z = gamma.data / total

    def vjp(g):
        return (g / total + (-g * z / total).sum(axis=-1, keepdims=True),)

    return ops._finish("sample_abundances", (gamma,), z, vjp)


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


def sample_endmembers(bundles: DecodedBundles, eps: np.ndarray) -> Tensor:
    """Reparameterized spectra draws (B, K, C) from the standard normal
    ``eps`` of the same shape: mean + L @ eps, all segments in one batched
    matmul over the zero-padded noise."""
    b, k, c = bundles.means.shape
    if eps.shape != (b, k, c):
        raise ShapeError(f"endmember noise shape {eps.shape} does not match {(b, k, c)}")
    n_seg, width = bundles.chol_blocks.shape[2:4]
    padded = np.zeros((b, k, n_seg * width))
    padded[..., :c] = eps
    drawn = ops.matmul(bundles.chol_blocks, Tensor(padded.reshape(b, k, n_seg, width, 1)))
    drawn = ops.reshape(drawn, (b, k, n_seg * width))
    if n_seg * width != c:
        drawn = ops.slice_(drawn, (Ellipsis, slice(0, c)))
    return ops.add(bundles.means, drawn)


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
    bundles: DecodedBundles


def forward(patches: np.ndarray, params: dict, config: ModelConfig) -> Heads:
    """The deterministic pass over a batch of patches: tokenizer, encoder,
    the concentration head and the bundle head."""
    tokens = tokenize_batch(patches, params, config)
    x_latent = encode_batch(tokens, params, config)
    return Heads(
        alpha_hat=alpha_head(x_latent, params, config),
        bundles=decode_bundles(x_latent, params, config),
    )


@dataclass
class NoiseCache:
    """Every random draw of one sampled reconstruction, for exact replay."""

    gamma: GammaNoise
    endmember_eps: np.ndarray

    @classmethod
    def draw(cls, alpha_hat: np.ndarray, bands: int, rng: np.random.Generator) -> "NoiseCache":
        """The draws for (B, K) concentrations, in this order: the gamma
        noise, then the (B, K, bands) endmember noise."""
        gamma = draw_gamma_noise(alpha_hat, rng)
        return cls(gamma, rng.standard_normal((*alpha_hat.shape, bands)))

    def split(self, sections) -> list["NoiseCache"]:
        """The draws of consecutive row ranges, cut by ``np.array_split``."""
        g = self.gamma
        arrays = (g.normal, g.boost_u, g.boosted, self.endmember_eps)
        parts = zip(*(np.array_split(a, sections) for a in arrays))
        return [NoiseCache(GammaNoise(*gamma), eps) for *gamma, eps in parts]


@dataclass
class SampledReconstruction:
    """Training-time draws from the heads and the spectra they mix to."""

    z_hat: Tensor  # (B, K) sampled abundances
    x_recon: Tensor  # (B, C)


def sample_reconstruction(heads: Heads, params: dict, noise: NoiseCache) -> SampledReconstruction:
    """Draw abundances, then endmembers, from ``heads`` with the
    ``NoiseCache.draw`` draws ``noise`` and mix them through the refinement
    MLP."""
    z_hat = sample_abundances(heads.alpha_hat, noise.gamma)
    endmembers = sample_endmembers(heads.bundles, noise.endmember_eps)
    return SampledReconstruction(z_hat=z_hat, x_recon=reconstruct(z_hat, endmembers, params))


@dataclass
class Prediction:
    """Deterministic inference over a set of pixels. The bundle fields are
    the decoder outputs averaged over those pixels."""

    abundances: np.ndarray  # (N, K) Dirichlet means
    endmember_means: np.ndarray  # (K, C)
    chol_blocks: np.ndarray  # (K, n_seg, L, L) as in DecodedBundles


def predict_cube(
    params: dict,
    config: ModelConfig,
    cube: HsiCube,
    indices=None,
    batch_size: int = 32,
) -> Prediction:
    """Per-pixel abundance means plus the endmember bundles averaged over the
    pixels, computed batch by batch by ``forward`` alone on ``map_on_cores``.
    The abundance means, alpha over its row sum, come from the
    concentrations' array: inference records no tape.
    Results are copied and summed in batch order, so the output is
    bit-identical to a one-worker run. Two batches of 32 in flight hold about
    what one of 64 did; on the criterion-7 model, batches of 32 to 128 ran
    within noise of each other serially."""
    source = PatchSource(cube, config.patch)
    if indices is None:
        indices = np.arange(cube.n_pixels)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ModelError("predict_cube needs at least one pixel")
    abundances = np.empty((indices.size, config.k))
    # each sum takes its shape, (K, C) or (K, n_seg, L, L), from the first batch
    mean_sum = block_sum = 0.0
    starts = range(0, indices.size, batch_size)

    def run(start):  # one batch's abundances and bundle sums
        heads = forward(source.batch(indices[start : start + batch_size]), params, config)
        alpha = heads.alpha_hat.data
        means, blocks = heads.bundles.means.data, heads.bundles.chol_blocks.data
        return alpha / alpha.sum(axis=-1, keepdims=True), means.sum(axis=0), blocks.sum(axis=0)

    # results first, so that the pool's generator runs to its end within the loop
    for (z_mean, means, blocks), start in zip(map_on_cores(run, starts), starts):
        abundances[start : start + batch_size] = z_mean
        mean_sum = mean_sum + means
        block_sum = block_sum + blocks
    return Prediction(abundances, mean_sum / indices.size, block_sum / indices.size)
