"""Hyperspectral cube I/O, patch extraction, pixel splits, synthetic scene
generation and the field checker every config dataclass validates with.

Cubes live on disk as band-sequential little-endian float32 payloads
(``<name>.bsq``) next to a JSON sidecar (``<name>.json``) describing height,
width, band count, dtype and interleave. Ground-truth abundances use the
same layout under ``<name>_abundances``; ground-truth bundles are JSON under
``<name>_bundles.json``.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SIMPLEX_TOL = 1e-6
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


# ---------------------------------------------------------------------------
# config fields

_KINDS = {"int": "an integer", "real": "a finite number", "reals": "a list of finite numbers"}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def checked(kind: str, *bounds: str, odd: bool = False, **field_args):
    """A dataclass field that ``check_fields`` tests. ``kind`` is "int",
    "real" (finite), "reals" (a list of finite reals) or "config" (a nested
    config or a list of them); each bound reads like ">= 1" and holds for
    every entry of a list; ``odd`` asks for an odd value. A field whose
    default is None may hold None. ``field_args`` go to ``dataclasses.field``."""
    return field(metadata={"check": (kind, bounds, odd)}, **field_args)


def _fits(value, kind: str, bounds, odd: bool) -> bool:
    if kind == "reals":
        listed = isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1
        return listed and all(_fits(v, "real", bounds, odd) for v in value)
    # JSON's true, false, strings and null are not numbers
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    if kind == "int" and not isinstance(value, (int, np.integer)) or odd and value % 2 != 1:
        return False
    # NaN, the infinities and ints beyond the float range are not finite reals
    finite = kind == "int" or abs(value) <= sys.float_info.max
    return finite and all(_COMPARE[op](value, float(limit)) for op, limit in map(str.split, bounds))


def check_fields(obj, error: type[Exception], where: str = "") -> None:
    """Raise ``error`` at the first field of the config dataclass ``obj``
    that breaks its ``checked`` rule, naming it as ``where`` plus the field
    name (``bundle_spec[0].widths``). Nested configs raise the same error;
    rules that relate two fields stay in each config's ``validate``."""
    for f in dataclasses.fields(obj):
        kind, bounds, odd = f.metadata.get("check", (None, (), False))
        name, value = where + f.name, getattr(obj, f.name)
        if kind is None or value is None and f.default is None:
            continue
        if kind == "config":
            many = isinstance(value, (list, tuple))
            for i, item in enumerate(value if many else [value]):
                check_fields(item, error, f"{name}[{i}]." if many else f"{name}.")
        elif not _fits(value, kind, bounds, odd):
            rule = " ".join(["an odd integer" if odd else _KINDS[kind], " and ".join(bounds)])
            raise error(f"{name} must be {rule.rstrip()}, got {value!r}")


@dataclass
class EndmemberBundle:
    """Gaussian over spectra: a mean plus a block-diagonal covariance. Its
    Cholesky factor is stacked (n_seg, L, L) as ``ops.tril_blocks`` stacks
    it: one lower-triangular block per ``segment_sizes`` segment, L the
    longest, a short last segment padded with the identity."""

    name: str
    mean: np.ndarray
    chol_blocks: np.ndarray
    seg_len: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.size < 1:
            raise DataError(f"bundle mean must be a 1-d spectrum, got shape {self.mean.shape}")
        if not np.isfinite(self.mean).all():
            raise DataError(f"bundle '{self.name}': mean contains non-finite values")
        blocks = self.chol_blocks = np.asarray(self.chol_blocks, dtype=np.float64)
        sizes = segment_sizes(self.mean.size, self.seg_len)
        expected = (len(sizes), sizes[0], sizes[0])
        if blocks.shape != expected:
            raise DataError(
                f"bundle '{self.name}': Cholesky stack of shape {blocks.shape} does not fit "
                f"{self.mean.size} bands with segment length {self.seg_len} (expected {expected})"
            )
        # every comparison with NaN is false, so the checks below would pass it
        if not np.isfinite(blocks).all():
            raise DataError(f"bundle '{self.name}': Cholesky block has non-finite values")
        if np.any(np.diagonal(blocks, axis1=1, axis2=2) <= 0.0):
            raise DataError(f"bundle '{self.name}': Cholesky diagonal must be strictly positive")
        if np.any(np.triu(blocks, 1) != 0.0):
            raise DataError(f"bundle '{self.name}': Cholesky block must be lower-triangular")
        if np.any(blocks[-1, sizes[-1] :] != np.eye(sizes[0])[sizes[-1] :]):
            raise DataError(f"bundle '{self.name}': Cholesky padding must be the identity")

    @classmethod
    def from_segments(cls, name: str, mean, blocks, seg_len: int) -> "EndmemberBundle":
        """A bundle from one unpadded (m, m) Cholesky block per segment, the
        layout of a bundle file, which must partition the bands."""
        mean = np.asarray(mean, dtype=np.float64)
        blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        shapes = [b.shape for b in blocks]
        expected = [(m, m) for m in segment_sizes(mean.size, seg_len)]
        if shapes != expected:
            raise DataError(
                f"bundle '{name}': block shapes {shapes} do not partition "
                f"{mean.size} bands with segment length {seg_len} (expected {expected})"
            )
        stack = np.tile(np.eye(len(blocks[0])), (len(blocks), 1, 1))
        for s, b in enumerate(blocks):
            stack[s, : len(b), : len(b)] = b
        return cls(name, mean, stack, seg_len)

    @property
    def bands(self) -> int:
        return self.mean.size

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw (size, C) spectra, segment by segment: mean + L @ eps."""
        n = int(size)
        out = np.empty((n, self.bands))
        start = 0
        for m, block in zip(segment_sizes(self.bands, self.seg_len), self.chol_blocks):
            eps = rng.standard_normal((n, m))
            out[:, start : start + m] = self.mean[start : start + m] + eps @ block[:m, :m].T
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
            if not np.isfinite(z).all():
                raise DataError("abundances contain non-finite values")
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


def _write_bsq(cubes: dict, directory: Path) -> None:
    """Write each (H, W, bands) array as float32 BSQ under its base path, and
    make ``directory`` only once all are cast: a value float32 cannot hold
    is a DataError that writes nothing."""
    with np.errstate(over="ignore"):
        payloads = {p: a.transpose(2, 0, 1).astype("<f4", order="C") for p, a in cubes.items()}
    if not all(np.isfinite(payload).all() for payload in payloads.values()):
        raise DataError("cube values are not finite as float32")
    directory.mkdir(parents=True, exist_ok=True)
    for base, payload in payloads.items():
        b, h, w = payload.shape
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
    seg_lens = {b.seg_len for b in bundles}
    if len(seg_lens) > 1:
        raise DataError(f"one bundle file holds one segment length, got {sorted(seg_lens)}")
    payload = {
        "seg_len": bundles[0].seg_len,
        "endmembers": [
            {
                "name": b.name,
                "mean": b.mean.tolist(),
                # each segment's block without the padding of the stack
                "chol_blocks": [
                    blk[:m, :m].tolist()
                    for m, blk in zip(segment_sizes(b.bands, b.seg_len), b.chol_blocks)
                ],
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
            EndmemberBundle.from_segments(
                str(e.get("name", f"em{i}")), e["mean"], e["chol_blocks"], seg_len
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
    cubes = {base: cube.reflectance, Path(str(base) + "_abundances"): cube.gt_abundances}
    _write_bsq({path: a for path, a in cubes.items() if a is not None}, base.parent)
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

    train_fraction: float = checked("real", ">= 0", "<= 1", default=0.2)
    seed: int = checked("int", ">= 0", default=0)


@dataclass
class PixelSplit:
    """The sorted pixel indices ``split_pixels`` assigns to each side."""

    train_indices: np.ndarray
    test_indices: np.ndarray


def split_pixels(n_pixels: int, spec: SplitSpec) -> PixelSplit:
    """Disjoint, exhaustive split with |train| = round(train_fraction * N)."""
    if n_pixels < 1:
        raise DataError(f"cannot split {n_pixels} pixels")
    check_fields(spec, DataError)
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n_pixels)
    n_train = int(round(spec.train_fraction * n_pixels))
    return PixelSplit(
        train_indices=np.sort(perm[:n_train]),
        test_indices=np.sort(perm[n_train:]),
    )


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass
class BundleSpec:
    """Procedural endmember: the mean is a base level plus Gaussian bumps
    over normalized band position; cov_scale scales a smooth correlated
    covariance shared across segments."""

    centers: list[float] = checked("reals", default_factory=lambda: [0.5])
    widths: list[float] = checked("reals", "> 0", default_factory=lambda: [0.12])
    amplitudes: list[float] = checked("reals", default_factory=lambda: [0.6])
    cov_scale: float = checked("real", ">= 0", default=0.001)
    base_level: float = checked("real", default=0.15)

    def mean_spectrum(self, bands: int) -> np.ndarray:
        grid = np.linspace(0.0, 1.0, bands)
        mean = np.full(bands, self.base_level, dtype=np.float64)
        for c, w, a in zip(self.centers, self.widths, self.amplitudes):
            mean += a * np.exp(-((grid - c) ** 2) / (2.0 * w * w))
        return np.maximum(mean, 1e-3)


@dataclass
class SceneConfig:
    """Generative description of a synthetic scene.

    The defaults are the standard desk-scale scene used throughout the test
    suite: concentrated abundances around the barycenter with a pure-pixel
    subset, tight well-conditioned bundle covariances, and mild sensor noise.
    A short correlation length keeps every covariance block far from
    singular, which keeps whitened distances (and their gradients) sane."""

    height: int = checked("int", ">= 1", default=32)
    width: int = checked("int", ">= 1", default=32)
    bands: int = checked("int", ">= 1", default=48)
    k: int = checked("int", ">= 2", default=3)
    dirichlet_alpha: list[float] = checked("reals", "> 0", default_factory=lambda: [20.0] * 3)
    bundle_spec: list[BundleSpec] | None = checked("config", default=None)
    noise_sigma: float = checked("real", ">= 0", default=0.005)
    pure_pixel_fraction: float = checked("real", ">= 0", "<= 1", default=0.1)
    seg_len: int = checked("int", ">= 1", default=DEFAULT_SEG_LEN)
    pure_boost: float = checked("real", "> 0", default=50.0)
    corr_length: float = checked("real", "> 0", default=0.75)

    def validate(self) -> None:
        check_fields(self, DataError)
        if len(self.dirichlet_alpha) != self.k:
            raise DataError(f"{len(self.dirichlet_alpha)} dirichlet_alpha entries for k={self.k}")
        if self.bundle_spec is not None and len(self.bundle_spec) != self.k:
            raise DataError(f"bundle_spec has {len(self.bundle_spec)} entries for k={self.k}")
        for i, spec in enumerate(self.bundle_spec or []):
            if not len(spec.centers) == len(spec.widths) == len(spec.amplitudes):
                raise DataError(f"bundle_spec[{i}]: centers, widths, amplitudes differ in length")
        if self.bands < self.seg_len:
            raise DataError(f"scene needs bands >= seg_len, got {self.bands} < {self.seg_len}")

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
    """Deterministic ground-truth bundles for a scene configuration. An
    extreme but finite width, center or correlation length may divide by
    zero or overflow; the bundle then comes out non-finite, which
    ``EndmemberBundle`` rejects as a DataError."""
    config.validate()
    kernel_chols = []
    bundles = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for m in segment_sizes(config.bands, config.seg_len):
            idx = np.arange(m)
            kernel = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * config.corr_length**2))
            kernel_chols.append(np.linalg.cholesky(kernel + 1e-10 * np.eye(m)))
        for i, spec in enumerate(config.resolved_bundle_spec()):
            # A zero covariance request keeps the Cholesky diagonal positive but
            # far below one ulp of any reflectance value, so draws equal the mean.
            scale = spec.cov_scale if spec.cov_scale > 0 else 1e-30
            blocks = [scale * chol for chol in kernel_chols]
            mean = spec.mean_spectrum(config.bands)
            bundles.append(EndmemberBundle.from_segments(f"em{i}", mean, blocks, config.seg_len))
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
