"""Patch-to-pixel unmixing network.

A hyperspectral patch is cut into per-pixel spectral segments, each segment
becomes one token, and a small pre-norm transformer encodes the sequence.
An element-wise max over tokens gives the latent vector, from which three
heads read out: Dirichlet concentrations over abundances, per-endmember
Gaussian bundles (mean plus block-diagonal Cholesky factors), and finally a
reconstruction MLP that starts out as the plain linear mixing model.

All internal math runs batched, shapes (B, ...), on the tape-based Tensor
type so gradients reach every parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import HsiCube, PatchSource, segment_sizes
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
        if self.d % self.heads != 0:
            raise ModelError(f"embedding dim {self.d} not divisible by {self.heads} heads")
        if self.ff_dim < 1:
            raise ModelError(f"ff_dim must be positive, got {self.ff_dim}")
        if self.eps_alpha <= 0 or self.eps_chol <= 0:
            raise ModelError("eps_alpha and eps_chol must be strictly positive")

    @property
    def latent_dim(self) -> int:
        return self.d

    @property
    def n_segments(self) -> int:
        return -(-self.bands // self.seg_len)

    @property
    def n_tokens(self) -> int:
        return self.patch * self.patch * self.n_segments

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    def cov_segment_sizes(self) -> list[int]:
        return segment_sizes(self.bands, self.seg_len)

    def cov_offdiag_sizes(self) -> list[int]:
        return [m * (m - 1) // 2 for m in self.cov_segment_sizes()]

    def decoder_out_per_endmember(self) -> int:
        return 2 * self.bands + sum(self.cov_offdiag_sizes())

    def to_dict(self) -> dict:
        return {
            "patch": self.patch,
            "bands": self.bands,
            "k": self.k,
            "seg_len": self.seg_len,
            "d": self.d,
            "layers": self.layers,
            "heads": self.heads,
            "ff_dim": self.ff_dim,
            "eps_alpha": self.eps_alpha,
            "eps_chol": self.eps_chol,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        config = cls(**payload)
        config.validate()
        return config


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh trainable parameters, flat dict keyed by dotted names."""
    config.validate()
    d, ff = config.d, config.ff_dim
    p: dict[str, np.ndarray] = {}
    p["tok.w"] = _uniform(rng, config.seg_len, (config.seg_len, d))
    p["tok.b"] = np.zeros(d)
    p["pos"] = POS_INIT_SCALE * rng.standard_normal((config.n_tokens, d))
    for i in range(config.layers):
        pre = f"enc{i}"
        p[f"{pre}.ln1.g"] = np.ones(d)
        p[f"{pre}.ln1.b"] = np.zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            p[f"{pre}.attn.{name}"] = _uniform(rng, d, (d, d))
        # no key bias: a per-row constant in the scores cancels in softmax
        for name in ("bq", "bv", "bo"):
            p[f"{pre}.attn.{name}"] = np.zeros(d)
        p[f"{pre}.ln2.g"] = np.ones(d)
        p[f"{pre}.ln2.b"] = np.zeros(d)
        p[f"{pre}.ffn.w1"] = _uniform(rng, d, (d, ff))
        p[f"{pre}.ffn.b1"] = np.zeros(ff)
        p[f"{pre}.ffn.w2"] = _uniform(rng, ff, (ff, d))
        p[f"{pre}.ffn.b2"] = np.zeros(d)
    p["alpha.w"] = _uniform(rng, d, (d, config.k))
    # softplus(b) = 1 at b = ln(e - 1): concentrations start near uniform
    p["alpha.b"] = np.full(config.k, math.log(math.e - 1.0))
    out_dim = config.k * config.decoder_out_per_endmember()
    p["dec1.w1"] = _uniform(rng, d, (d, ff))
    p["dec1.b1"] = np.zeros(ff)
    p["dec1.w2"] = _uniform(rng, ff, (ff, out_dim)) * 0.1
    p["dec1.b2"] = _decoder_bias_init(config)
    c = config.bands
    p["dec2.wm"] = _uniform(rng, c, (c, c))
    p["dec2.wz"] = _uniform(rng, config.k, (config.k, c))
    p["dec2.b1"] = np.zeros(c)
    # zero final layer: reconstruction starts as the exact linear mixture
    p["dec2.w2"] = np.zeros((c, c))
    p["dec2.b2"] = np.zeros(c)
    return {name: Tensor(value, requires_grad=True) for name, value in p.items()}


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
    return ops.add(ops.matmul(raw, params["tok.w"]), params["tok.b"])


# ---------------------------------------------------------------------------
# encoder


def _split_heads(x: Tensor, b: int, s: int, config: ModelConfig) -> Tensor:
    x = ops.reshape(x, (b, s, config.heads, config.head_dim))
    return ops.transpose(x, (0, 2, 1, 3))


def _attention(x_norm: Tensor, params: dict, prefix: str, config: ModelConfig) -> Tensor:
    b, s, _ = x_norm.shape
    q = ops.add(ops.matmul(x_norm, params[f"{prefix}.wq"]), params[f"{prefix}.bq"])
    k = ops.matmul(x_norm, params[f"{prefix}.wk"])
    v = ops.add(ops.matmul(x_norm, params[f"{prefix}.wv"]), params[f"{prefix}.bv"])
    qh = _split_heads(q, b, s, config)
    kh = _split_heads(k, b, s, config)
    vh = _split_heads(v, b, s, config)
    scale = Tensor(1.0 / math.sqrt(config.head_dim))
    scores = ops.multiply(ops.matmul(qh, ops.transpose(kh, (0, 1, 3, 2))), scale)
    attn = ops.softmax(scores, axis=-1)
    ctx = ops.matmul(attn, vh)
    merged = ops.reshape(ops.transpose(ctx, (0, 2, 1, 3)), (b, s, config.d))
    return ops.add(ops.matmul(merged, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])


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
        hidden = ops.relu(ops.add(ops.matmul(normed, params[f"{pre}.ffn.w1"]), params[f"{pre}.ffn.b1"]))
        ffn_out = ops.add(ops.matmul(hidden, params[f"{pre}.ffn.w2"]), params[f"{pre}.ffn.b2"])
        x = ops.add(x, ffn_out)
    return x, ops.max_reduce(x, axis=1)


def alpha_head(x_latent: Tensor, params: dict, config: ModelConfig) -> Tensor:
    """Latent -> strictly positive Dirichlet concentrations."""
    raw = ops.add(ops.matmul(x_latent, params["alpha.w"]), params["alpha.b"])
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
    """Per-patch endmember Gaussians, batched over pixels."""

    means: Tensor  # (B, K, C)
    chol_diag: Tensor  # (B, K, C) strictly positive
    chol_off: Tensor  # (B, K, total off-diagonal length)
    chol_blocks: list  # per segment: Tensor (B, K, m, m)


def decode_bundles(x_latent: Tensor, params: dict, config: ModelConfig) -> DecodedBundles:
    b = x_latent.shape[0]
    hidden = ops.relu(ops.add(ops.matmul(x_latent, params["dec1.w1"]), params["dec1.b1"]))
    flat = ops.add(ops.matmul(hidden, params["dec1.w2"]), params["dec1.b2"])
    per = config.decoder_out_per_endmember()
    out = ops.reshape(flat, (b, config.k, per))
    c = config.bands
    means = ops.slice_(out, (Ellipsis, slice(0, c)))
    diag_raw = ops.slice_(out, (Ellipsis, slice(c, 2 * c)))
    diag = ops.add(ops.softplus(diag_raw), Tensor(config.eps_chol))
    off = ops.slice_(out, (Ellipsis, slice(2 * c, per)))
    blocks = []
    c0 = 0
    o0 = 0
    for m, t in zip(config.cov_segment_sizes(), config.cov_offdiag_sizes()):
        diag_seg = ops.slice_(diag, (Ellipsis, slice(c0, c0 + m)))
        off_seg = ops.slice_(off, (Ellipsis, slice(o0, o0 + t)))
        blocks.append(ops.tril_compose(diag_seg, off_seg, m))
        c0 += m
        o0 += t
    return DecodedBundles(means=means, chol_diag=diag, chol_off=off, chol_blocks=blocks)


def sample_endmembers(bundles: DecodedBundles, config: ModelConfig, rng=None, eps=None):
    """Reparameterized spectra draws: mean + L @ eps per segment.
    Returns (endmembers (B, K, C), eps) for replay."""
    b, k, c = bundles.means.shape
    if eps is None:
        if rng is None:
            raise ValueError("sample_endmembers needs an rng when no eps is given")
        eps = rng.standard_normal((b, k, c))
    if eps.shape != (b, k, c):
        raise ShapeError(f"endmember noise shape {eps.shape} does not match {(b, k, c)}")
    pieces = []
    c0 = 0
    for m, block in zip(config.cov_segment_sizes(), bundles.chol_blocks):
        seg_eps = Tensor(eps[:, :, c0 : c0 + m].reshape(b, k, m, 1))
        drawn = ops.matmul(block, seg_eps)
        pieces.append(ops.reshape(drawn, (b, k, m)))
        c0 += m
    return ops.add(bundles.means, ops.concat(pieces, axis=-1)), eps


def reconstruct(z: Tensor, endmembers: Tensor, params: dict) -> Tensor:
    """Mix endmembers by abundance, then apply the residual refinement MLP.
    z: (B, K), endmembers: (B, K, C) -> (B, C)."""
    b, k = z.shape
    c = endmembers.shape[-1]
    mixed = ops.reshape(ops.matmul(ops.reshape(z, (b, 1, k)), endmembers), (b, c))
    pre = ops.add(
        ops.add(ops.matmul(mixed, params["dec2.wm"]), ops.matmul(z, params["dec2.wz"])),
        params["dec2.b1"],
    )
    hidden = ops.relu(pre)
    return ops.add(ops.add(mixed, ops.matmul(hidden, params["dec2.w2"])), params["dec2.b2"])


# ---------------------------------------------------------------------------
# full forward pass


@dataclass
class NoiseCache:
    """Every random draw of one forward pass, for exact replay."""

    gamma: GammaNoise
    endmember_eps: np.ndarray


@dataclass
class LatentOutput:
    """Batched forward-pass results; every field is differentiable."""

    x_latent: Tensor  # (B, d)
    alpha_hat: Tensor  # (B, K)
    z_hat: Tensor  # (B, K) sampled when training, Dirichlet mean otherwise
    z_mean: Tensor  # (B, K)
    bundles: DecodedBundles
    sampled_endmembers: Tensor  # (B, K, C)
    x_recon: Tensor  # (B, C)
    noise: NoiseCache | None = None


def forward(
    patches: np.ndarray,
    params: dict,
    config: ModelConfig,
    rng=None,
    noise: NoiseCache | None = None,
    sample: bool = True,
) -> LatentOutput:
    """Run the network over a batch of patches.

    With sample=True abundances and endmembers are reparameterized draws
    (rng or a replayable NoiseCache required); otherwise the deterministic
    Dirichlet mean and bundle means are used.
    """
    tokens = tokenize_batch(patches, params, config)
    _, x_latent = encode_batch(tokens, params, config)
    alpha = alpha_head(x_latent, params, config)
    z_mean = dirichlet_mean(alpha)
    bundles = decode_bundles(x_latent, params, config)
    if sample:
        z_hat, gamma_noise = sample_abundances(
            alpha, rng, None if noise is None else noise.gamma
        )
        endmembers, eps = sample_endmembers(
            bundles, config, rng, None if noise is None else noise.endmember_eps
        )
        cache = NoiseCache(gamma=gamma_noise, endmember_eps=eps)
    else:
        z_hat = z_mean
        endmembers = bundles.means
        cache = None
    x_recon = reconstruct(z_hat, endmembers, params)
    return LatentOutput(
        x_latent=x_latent,
        alpha_hat=alpha,
        z_hat=z_hat,
        z_mean=z_mean,
        bundles=bundles,
        sampled_endmembers=endmembers,
        x_recon=x_recon,
        noise=cache,
    )


@dataclass
class Prediction:
    """Deterministic inference over a set of pixels. The bundle fields are
    the decoder outputs averaged over those pixels."""

    abundances: np.ndarray  # (N, K) Dirichlet means
    endmember_means: np.ndarray  # (K, C)
    chol_diag: np.ndarray  # (K, C)
    chol_off: np.ndarray  # (K, total off-diagonal length), packed row-major


def predict_cube(
    params: dict,
    config: ModelConfig,
    cube: HsiCube,
    indices=None,
    batch_size: int = 256,
) -> Prediction:
    """Per-pixel abundance means plus the endmember bundles averaged over the
    pixels, computed batch by batch without sampling."""
    source = PatchSource(cube, config.patch)
    if indices is None:
        indices = np.arange(cube.n_pixels)
    indices = np.asarray(indices, dtype=np.int64)
    abundances = np.empty((indices.size, config.k))
    mean_sum = np.zeros((config.k, config.bands))
    diag_sum = np.zeros((config.k, config.bands))
    off_sum = np.zeros((config.k, sum(config.cov_offdiag_sizes())))
    for start in range(0, indices.size, batch_size):
        batch_idx = indices[start : start + batch_size]
        out = forward(source.batch(batch_idx), params, config, sample=False)
        abundances[start : start + batch_idx.size] = out.z_mean.data
        mean_sum += out.bundles.means.data.sum(axis=0)
        diag_sum += out.bundles.chol_diag.data.sum(axis=0)
        off_sum += out.bundles.chol_off.data.sum(axis=0)
    return Prediction(
        abundances=abundances,
        endmember_means=mean_sum / indices.size,
        chol_diag=diag_sum / indices.size,
        chol_off=off_sum / indices.size,
    )


def packed_chol_to_blocks(diag: np.ndarray, off: np.ndarray, seg_sizes) -> list[np.ndarray]:
    """Rebuild per-segment lower-triangular factors from the decoder's packed
    layout: diag (K, C) and row-major strict lower entries (K, OFF) become a
    list over segments of (K, m, m) arrays."""
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    k = diag.shape[0]
    blocks = []
    c0 = 0
    o0 = 0
    for m in seg_sizes:
        t = m * (m - 1) // 2
        block = np.zeros((k, m, m))
        rows, cols = np.tril_indices(m, -1)
        block[:, rows, cols] = off[:, o0 : o0 + t]
        block[:, np.arange(m), np.arange(m)] = diag[:, c0 : c0 + m]
        blocks.append(block)
        c0 += m
        o0 += t
    return blocks
