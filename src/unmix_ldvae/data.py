"""Hyperspectral cube I/O, patch extraction, pixel splits, pure-pixel bundle
estimation and synthetic scene generation.

Cubes live on disk as band-sequential little-endian float32 payloads
(``<name>.bsq``) next to a JSON sidecar (``<name>.json``) describing height,
width, band count, dtype and interleave. Ground-truth abundances use the
same layout under ``<name>_abundances``; ground-truth bundles are JSON under
``<name>_bundles.json``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SIMPLEX_TOL = 1e-6
RIDGE_FACTOR = 1e-6
DEFAULT_SKEWERS = 10_000
DEFAULT_PURITY_QUANTILE = 0.95
DEFAULT_SEG_LEN = 16


class DataError(ValueError):
    """Malformed cube, sidecar, bundle or scene configuration."""


def segment_sizes(bands: int, seg_len: int) -> list[int]:
    """Contiguous band-segment sizes: full segments of seg_len with the final
    one truncated to the remainder when bands is not a multiple."""
    if seg_len < 1:
        raise DataError(f"segment length must be >= 1, got {seg_len}")
    if bands < 1:
        raise DataError(f"band count must be >= 1, got {bands}")
    full, rem = divmod(bands, seg_len)
    return [seg_len] * full + ([rem] if rem else [])


@dataclass
class EndmemberBundle:
    """Gaussian over spectra: a mean plus a block-diagonal covariance given
    by one lower-triangular Cholesky factor per band segment."""

    name: str
    mean: np.ndarray
    chol_blocks: list[np.ndarray]
    seg_len: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.size < 1:
            raise DataError(f"bundle mean must be a 1-d spectrum, got shape {self.mean.shape}")
        self.chol_blocks = [np.asarray(b, dtype=np.float64) for b in self.chol_blocks]
        sizes = []
        for b in self.chol_blocks:
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise DataError(f"Cholesky block must be square, got shape {b.shape}")
            if np.any(np.diag(b) <= 0.0):
                raise DataError(f"bundle '{self.name}': Cholesky diagonal must be strictly positive")
            sizes.append(b.shape[0])
        expected = segment_sizes(self.mean.size, self.seg_len)
        if sizes != expected:
            raise DataError(
                f"bundle '{self.name}': block sizes {sizes} do not partition "
                f"{self.mean.size} bands with segment length {self.seg_len} (expected {expected})"
            )

    @property
    def bands(self) -> int:
        return self.mean.size

    def cov_blocks(self) -> list[np.ndarray]:
        return [b @ b.T for b in self.chol_blocks]

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw (size, C) spectra, segment by segment: mean + L @ eps."""
        n = int(size)
        out = np.empty((n, self.bands))
        start = 0
        for block in self.chol_blocks:
            m = block.shape[0]
            eps = rng.standard_normal((n, m))
            out[:, start : start + m] = self.mean[start : start + m] + eps @ block.T
            start += m
        return out


@dataclass
class HsiCube:
    """Reflectance image (H, W, C) with optional ground truth."""

    reflectance: np.ndarray
    gt_abundances: np.ndarray | None = None
    gt_bundles: list[EndmemberBundle] | None = None

    def __post_init__(self):
        self.reflectance = np.asarray(self.reflectance, dtype=np.float64)
        r = self.reflectance
        if r.ndim != 3 or min(r.shape) < 1:
            raise DataError(f"reflectance must be (H, W, C) with positive dims, got {r.shape}")
        if not np.isfinite(r).all():
            raise DataError("reflectance contains non-finite values")
        if np.any(r < 0.0):
            raise DataError("reflectance contains negative values")
        if self.gt_abundances is not None:
            z = np.asarray(self.gt_abundances, dtype=np.float64)
            if z.ndim != 3 or z.shape[:2] != r.shape[:2]:
                raise DataError(
                    f"abundances shape {z.shape} does not match image plan {r.shape[:2]}"
                )
            if np.any(z < -1e-9):
                raise DataError("abundances contain negative entries")
            sums = z.sum(axis=-1)
            if np.max(np.abs(sums - 1.0)) > SIMPLEX_TOL:
                raise DataError("abundance vectors do not sum to 1 within tolerance")
            self.gt_abundances = z
        if self.gt_bundles is not None:
            for b in self.gt_bundles:
                if b.bands != r.shape[2]:
                    raise DataError(
                        f"bundle '{b.name}' has {b.bands} bands, cube has {r.shape[2]}"
                    )

    @property
    def height(self) -> int:
        return self.reflectance.shape[0]

    @property
    def width(self) -> int:
        return self.reflectance.shape[1]

    @property
    def bands(self) -> int:
        return self.reflectance.shape[2]

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    def pixels(self) -> np.ndarray:
        """(N, C) row-major view of the reflectance."""
        return self.reflectance.reshape(-1, self.bands)

    def abundance_pixels(self) -> np.ndarray:
        if self.gt_abundances is None:
            raise DataError("cube has no ground-truth abundances")
        return self.gt_abundances.reshape(-1, self.gt_abundances.shape[-1])


# ---------------------------------------------------------------------------
# file formats


def _strip_known_suffix(path) -> Path:
    p = Path(path)
    if p.suffix in (".bsq", ".json"):
        return p.with_suffix("")
    return p


def _write_bsq(base: Path, array: np.ndarray) -> None:
    h, w, b = array.shape
    payload = np.ascontiguousarray(np.transpose(array, (2, 0, 1)), dtype="<f4")
    Path(str(base) + ".bsq").write_bytes(payload.tobytes())
    header = {"height": h, "width": w, "bands": b, "dtype": "f32", "interleave": "bsq"}
    Path(str(base) + ".json").write_text(json.dumps(header, sort_keys=True))


def _read_bsq(base: Path) -> np.ndarray:
    header_path = Path(str(base) + ".json")
    data_path = Path(str(base) + ".bsq")
    try:
        header = json.loads(header_path.read_bytes())
    except (RecursionError, ValueError) as exc:  # too deeply nested, bad JSON or bad UTF-8
        raise DataError(f"malformed sidecar {header_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"sidecar {header_path} must hold a JSON object")
    for key in ("height", "width", "bands", "dtype", "interleave"):
        if key not in header:
            raise DataError(f"sidecar {header_path} is missing '{key}'")
    if header["dtype"] != "f32" or header["interleave"] != "bsq":
        raise DataError(
            f"unsupported format {header['dtype']}/{header['interleave']} in {header_path}"
        )
    try:
        h, w, b = int(header["height"]), int(header["width"]), int(header["bands"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"sidecar {header_path} has a non-integer dimension: {exc}") from exc
    if min(h, w, b) < 1:
        raise DataError(f"sidecar {header_path} has a non-positive dimension")
    raw = np.frombuffer(data_path.read_bytes(), dtype="<f4")
    if raw.size != h * w * b:
        raise DataError(
            f"{data_path} holds {raw.size} values but the sidecar implies {h * w * b}"
        )
    cube = raw.reshape(b, h, w).transpose(1, 2, 0).astype(np.float64)
    if not np.isfinite(cube).all():
        raise DataError(f"{data_path} contains non-finite values")
    return cube


def bundles_to_json(bundles: list[EndmemberBundle]) -> str:
    if not bundles:
        raise DataError("cannot serialize an empty bundle list")
    seg_len = bundles[0].seg_len
    payload = {
        "seg_len": seg_len,
        "endmembers": [
            {
                "name": b.name,
                "mean": b.mean.tolist(),
                "chol_blocks": [blk.tolist() for blk in b.chol_blocks],
            }
            for b in bundles
        ],
    }
    return json.dumps(payload, sort_keys=True)


def bundles_from_json(text: str | bytes) -> list[EndmemberBundle]:
    """Parse bundles_to_json output, given as str or UTF-8 bytes."""
    try:
        payload = json.loads(text)
    except (RecursionError, ValueError) as exc:  # too deeply nested, bad JSON or bad UTF-8
        raise DataError(f"malformed bundle JSON: {exc}") from exc
    if not isinstance(payload, dict) or "seg_len" not in payload or "endmembers" not in payload:
        raise DataError("bundle JSON must be an object with 'seg_len' and 'endmembers'")
    entries = payload["endmembers"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and "mean" in e and "chol_blocks" in e for e in entries
    ):
        raise DataError("bundle JSON 'endmembers' must list objects with 'mean' and 'chol_blocks'")
    try:
        seg_len = int(payload["seg_len"])
        return [
            EndmemberBundle(
                name=str(e.get("name", f"em{i}")),
                mean=np.asarray(e["mean"], dtype=np.float64),
                chol_blocks=[np.asarray(b, dtype=np.float64) for b in e["chol_blocks"]],
                seg_len=seg_len,
            )
            for i, e in enumerate(entries)
        ]
    except DataError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bundle JSON holds a non-numeric value: {exc}") from exc


def save_bundles(path, bundles: list[EndmemberBundle]) -> None:
    Path(path).write_text(bundles_to_json(bundles))


def load_bundles(path) -> list[EndmemberBundle]:
    return bundles_from_json(Path(path).read_bytes())


def save_cube(cube: HsiCube, base_path) -> None:
    """Write reflectance (and any ground truth) under the given base path."""
    base = _strip_known_suffix(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    _write_bsq(base, cube.reflectance)
    if cube.gt_abundances is not None:
        _write_bsq(Path(str(base) + "_abundances"), cube.gt_abundances)
    if cube.gt_bundles is not None:
        save_bundles(Path(str(base) + "_bundles.json"), cube.gt_bundles)


def load_cube(path) -> HsiCube:
    """Load a cube by base path (or its .bsq/.json), picking up ground-truth
    sidecars when present."""
    base = _strip_known_suffix(path)
    if not Path(str(base) + ".json").exists():
        raise DataError(f"no cube sidecar at {base}.json")
    reflectance = _read_bsq(base)
    abundances = None
    ab_base = Path(str(base) + "_abundances")
    if Path(str(ab_base) + ".json").exists():
        abundances = _read_bsq(ab_base)
    bundles = None
    bundle_path = Path(str(base) + "_bundles.json")
    if bundle_path.exists():
        bundles = load_bundles(bundle_path)
    return HsiCube(reflectance, abundances, bundles)


# ---------------------------------------------------------------------------
# patches and splits


class PatchSource:
    """Zero-padded copy of a cube for fast batched patch gathering."""

    def __init__(self, cube: HsiCube, patch_size: int):
        if patch_size < 1 or patch_size % 2 == 0:
            raise DataError(f"patch size must be odd and positive, got {patch_size}")
        self.patch_size = patch_size
        self.width = cube.width
        self.n_pixels = cube.n_pixels
        pad = patch_size // 2
        h, w, c = cube.reflectance.shape
        padded = np.zeros((h + 2 * pad, w + 2 * pad, c))
        padded[pad : pad + h, pad : pad + w] = cube.reflectance
        # (H, W, P, P, C) read-only view: the window whose corner is (r, c)
        self._windows = sliding_window_view(padded, (patch_size, patch_size, c))[:, :, 0]

    def batch(self, indices) -> np.ndarray:
        """(N, P, P, C) zero-padded windows centred on the flat pixel indices."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_pixels):
            raise DataError(f"pixel indices must lie in [0, {self.n_pixels})")
        rows, cols = np.divmod(idx, self.width)
        return self._windows[rows, cols]


@dataclass
class SplitSpec:
    """Deterministic train/test pixel split."""

    train_fraction: float = 0.2
    seed: int = 0


@dataclass
class PixelSplit:
    """The sorted pixel indices ``split_pixels`` assigns to each side."""

    train_indices: np.ndarray
    test_indices: np.ndarray


def split_pixels(n_pixels: int, spec: SplitSpec) -> PixelSplit:
    """Disjoint, exhaustive split with |train| = round(train_fraction * N)."""
    if n_pixels < 1:
        raise DataError(f"cannot split {n_pixels} pixels")
    if not _finite_real(spec.train_fraction) or not 0.0 <= spec.train_fraction <= 1.0:
        raise DataError(f"train fraction must lie in [0, 1], got {spec.train_fraction!r}")
    if not _integer(spec.seed) or spec.seed < 0:
        raise DataError(f"split seed must be a nonnegative integer, got {spec.seed!r}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n_pixels)
    n_train = int(round(spec.train_fraction * n_pixels))
    return PixelSplit(
        train_indices=np.sort(perm[:n_train]),
        test_indices=np.sort(perm[n_train:]),
    )


# ---------------------------------------------------------------------------
# pure-pixel scoring and bundle estimation


def ppi_scores(
    cube: HsiCube, n_skewers: int = DEFAULT_SKEWERS, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Pixel purity counts: project every pixel onto random unit spectral
    directions and increment both extremes of each projection (ties go to the
    lowest pixel index)."""
    if n_skewers < 1:
        raise DataError(f"need at least one skewer, got {n_skewers}")
    rng = np.random.default_rng(0) if rng is None else rng
    pixels = cube.pixels()
    counts = np.zeros(pixels.shape[0], dtype=np.int64)
    chunk = 512
    remaining = n_skewers
    while remaining > 0:
        m = min(chunk, remaining)
        directions = rng.standard_normal((cube.bands, m))
        norms = np.sqrt((directions * directions).sum(axis=0))
        norms[norms == 0.0] = 1.0
        projections = pixels @ (directions / norms)
        np.add.at(counts, np.argmax(projections, axis=0), 1)
        np.add.at(counts, np.argmin(projections, axis=0), 1)
        remaining -= m
    return counts


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = points[rng.integers(n)]
        else:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator, restarts: int = 20, iters: int = 100):
    """Seeded k-means, best of `restarts` runs by inertia. Empty clusters keep
    their previous center so the caller can detect degenerate clusterings."""
    best = None
    for _ in range(restarts):
        centers = _kmeans_pp_init(points, k, rng)
        labels = np.zeros(points.shape[0], dtype=np.int64)
        for _ in range(iters):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = np.argmin(d2, axis=1)
            new_centers = centers.copy()
            for j in range(k):
                members = labels == j
                if members.any():
                    new_centers[j] = points[members].mean(axis=0)
            if np.array_equal(new_centers, centers):
                break
            centers = new_centers
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(points.shape[0]), labels].sum())
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def estimate_bundles(
    cube: HsiCube,
    scores: np.ndarray,
    k: int,
    purity_quantile: float = DEFAULT_PURITY_QUANTILE,
    seg_len: int = DEFAULT_SEG_LEN,
    rng: np.random.Generator | None = None,
) -> list[EndmemberBundle]:
    """Cluster the top-quantile pure pixels and fit one Gaussian bundle per
    cluster with segment-wise ridge-stabilized covariances."""
    scores = np.asarray(scores)
    if scores.shape != (cube.n_pixels,):
        raise DataError(f"scores shape {scores.shape} does not match {cube.n_pixels} pixels")
    nonzero = scores > 0
    if not nonzero.any():
        raise DataError("no pixels received a nonzero purity count")
    threshold = np.quantile(scores[nonzero], purity_quantile)
    selected = np.nonzero(nonzero & (scores >= threshold))[0]
    needed = k * (seg_len + 1)
    if selected.size < needed:
        raise DataError(
            f"too few pure pixels: {selected.size} selected, need at least {needed} "
            f"for {k} endmembers at segment length {seg_len}"
        )
    spectra = cube.pixels()[selected]
    rng = np.random.default_rng(0) if rng is None else rng
    labels, _, _ = _kmeans(spectra, k, rng)
    ridge = max(RIDGE_FACTOR * float(spectra.var(axis=0).mean()), 1e-18)
    sizes = segment_sizes(cube.bands, seg_len)
    bundles = []
    for j in range(k):
        members = spectra[labels == j]
        if members.shape[0] == 0:
            raise DataError(
                f"cluster {j} is empty; the pure pixels do not support {k} distinct endmembers"
            )
        if members.shape[0] < 2:
            warnings.warn(
                f"cluster {j} has a single member; covariance falls back to the ridge only",
                stacklevel=2,
            )
        mean = members.mean(axis=0)
        blocks = []
        start = 0
        for m in sizes:
            if members.shape[0] >= 2:
                cov = np.atleast_2d(np.cov(members[:, start : start + m], rowvar=False))
            else:
                cov = np.zeros((m, m))
            blocks.append(np.linalg.cholesky(cov + ridge * np.eye(m)))
            start += m
        bundles.append(EndmemberBundle(name=f"em{j}", mean=mean, chol_blocks=blocks, seg_len=seg_len))
    return bundles


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass
class BundleSpec:
    """Procedural endmember: the mean is a base level plus Gaussian bumps
    over normalized band position; cov_scale scales a smooth correlated
    covariance shared across segments."""

    centers: list[float] = field(default_factory=lambda: [0.5])
    widths: list[float] = field(default_factory=lambda: [0.12])
    amplitudes: list[float] = field(default_factory=lambda: [0.6])
    cov_scale: float = 0.001
    base_level: float = 0.15

    def mean_spectrum(self, bands: int) -> np.ndarray:
        grid = np.linspace(0.0, 1.0, bands)
        mean = np.full(bands, self.base_level)
        for c, w, a in zip(self.centers, self.widths, self.amplitudes):
            mean += a * np.exp(-((grid - c) ** 2) / (2.0 * w * w))
        return np.maximum(mean, 1e-3)


def _integer(value) -> bool:
    """An int or numpy integer; JSON's true and false are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _finite_real(value) -> bool:
    """A finite int or float; JSON's true, false, strings and null are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass
class SceneConfig:
    """Generative description of a synthetic scene.

    The defaults are the standard desk-scale scene used throughout the test
    suite: concentrated abundances around the barycenter with a pure-pixel
    subset, tight well-conditioned bundle covariances, and mild sensor noise.
    A short correlation length keeps every covariance block far from
    singular, which keeps whitened distances (and their gradients) sane."""

    height: int = 32
    width: int = 32
    bands: int = 48
    k: int = 3
    dirichlet_alpha: list[float] = field(default_factory=lambda: [20.0, 20.0, 20.0])
    bundle_spec: list[BundleSpec] | None = None
    noise_sigma: float = 0.005
    pure_pixel_fraction: float = 0.1
    seg_len: int = DEFAULT_SEG_LEN
    pure_boost: float = 50.0
    corr_length: float = 0.75

    def validate(self) -> None:
        for name in ("height", "width", "bands", "k", "seg_len"):
            if not _integer(getattr(self, name)):
                raise DataError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.height < 1 or self.width < 1:
            raise DataError(f"scene plan {self.height}x{self.width} is empty")
        if self.k < 2:
            raise DataError(f"need at least two endmembers, got {self.k}")
        if self.bands < 1:
            raise DataError(f"need at least one band, got {self.bands}")
        for name in ("noise_sigma", "pure_pixel_fraction", "pure_boost", "corr_length"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise DataError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.dirichlet_alpha, (list, tuple, np.ndarray)) or not all(
            _finite_real(a) for a in self.dirichlet_alpha
        ):
            raise DataError(
                f"dirichlet_alpha must be a list of finite numbers, got {self.dirichlet_alpha!r}"
            )
        if len(self.dirichlet_alpha) != self.k:
            raise DataError(
                f"dirichlet_alpha has {len(self.dirichlet_alpha)} entries for k={self.k}"
            )
        if any(a <= 0 for a in self.dirichlet_alpha):
            raise DataError("dirichlet_alpha entries must be strictly positive")
        if self.noise_sigma < 0:
            raise DataError(f"noise sigma must be nonnegative, got {self.noise_sigma}")
        if not 0.0 <= self.pure_pixel_fraction <= 1.0:
            raise DataError(
                f"pure pixel fraction must lie in [0, 1], got {self.pure_pixel_fraction}"
            )
        for name in ("pure_boost", "corr_length"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if self.bundle_spec is not None and len(self.bundle_spec) != self.k:
            raise DataError(
                f"bundle_spec has {len(self.bundle_spec)} entries for k={self.k}"
            )
        if self.bands < self.seg_len:
            raise DataError(
                f"scene needs bands >= segment length, got {self.bands} < {self.seg_len}"
            )
        segment_sizes(self.bands, self.seg_len)

    def resolved_bundle_spec(self) -> list[BundleSpec]:
        if self.bundle_spec is not None:
            return self.bundle_spec
        specs = []
        for i in range(self.k):
            main = (i + 0.5) / self.k
            side = (main + 0.37) % 1.0
            specs.append(
                BundleSpec(
                    centers=[main, side],
                    widths=[0.07, 0.18],
                    amplitudes=[0.65, 0.2],
                    cov_scale=0.001,
                )
            )
        return specs


def make_scene_bundles(config: SceneConfig) -> list[EndmemberBundle]:
    """Deterministic ground-truth bundles for a scene configuration."""
    config.validate()
    sizes = segment_sizes(config.bands, config.seg_len)
    kernel_chols: dict[int, np.ndarray] = {}
    for m in sizes:
        idx = np.arange(m)
        kernel = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * config.corr_length**2))
        kernel_chols[m] = np.linalg.cholesky(kernel + 1e-10 * np.eye(m))
    bundles = []
    for i, spec in enumerate(config.resolved_bundle_spec()):
        # A zero covariance request keeps the Cholesky diagonal positive but
        # far below one ulp of any reflectance value, so draws equal the mean.
        scale = spec.cov_scale if spec.cov_scale > 0 else 1e-30
        blocks = [scale * kernel_chols[m] for m in sizes]
        bundles.append(
            EndmemberBundle(
                name=f"em{i}",
                mean=spec.mean_spectrum(config.bands),
                chol_blocks=blocks,
                seg_len=config.seg_len,
            )
        )
    return bundles


def synth_scene(config: SceneConfig, rng: np.random.Generator) -> HsiCube:
    """Sample a scene: Dirichlet abundances (with a pure-pixel subset drawn
    from a boosted concentration), per-pixel endmember realizations, linear
    mixing, additive Gaussian noise, then a clamp at zero."""
    config.validate()
    bundles = make_scene_bundles(config)
    n = config.height * config.width
    alpha = np.asarray(config.dirichlet_alpha, dtype=np.float64)
    abundances = rng.dirichlet(alpha, size=n)
    n_pure = int(round(config.pure_pixel_fraction * n))
    if n_pure:
        chosen = rng.choice(n, size=n_pure, replace=False)
        dominant = rng.integers(0, config.k, size=n_pure)
        for pixel, which in zip(chosen, dominant):
            boosted = alpha.copy()
            boosted[which] = config.pure_boost
            abundances[pixel] = rng.dirichlet(boosted)
    spectra = np.empty((n, config.k, config.bands))
    for j, bundle in enumerate(bundles):
        spectra[:, j, :] = bundle.sample(rng, size=n)
    mixed = np.einsum("nk,nkc->nc", abundances, spectra)
    if config.noise_sigma > 0:
        mixed = mixed + rng.normal(0.0, config.noise_sigma, size=mixed.shape)
    mixed = np.maximum(mixed, 0.0)
    return HsiCube(
        reflectance=mixed.reshape(config.height, config.width, config.bands),
        gt_abundances=abundances.reshape(config.height, config.width, config.k),
        gt_bundles=bundles,
    )
