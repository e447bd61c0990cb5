"""Data layer tests: file round trips, patches, splits, synthetic scenes and
the config field checker.

Independent oracles used here:
- scipy.optimize.nnls certifies that noise-free zero-covariance scenes lie in
  the convex hull of the endmember means.
- empirical moments of bundle draws are checked against the requested
  mean / L L^T covariance.
"""

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from unmix_ldvae.data import (
    BundleSpec,
    DataError,
    EndmemberBundle,
    HsiCube,
    PatchSource,
    SceneConfig,
    SplitSpec,
    bundles_from_json,
    bundles_to_json,
    check_fields,
    checked,
    load_bundles,
    load_cube,
    make_scene_bundles,
    save_bundles,
    save_cube,
    segment_sizes,
    split_pixels,
    synth_scene,
)


def small_scene(noise=0.0, cov=0.0, seed=0, h=8, w=8, pure=0.0):
    config = SceneConfig(
        height=h,
        width=w,
        bands=12,
        k=3,
        dirichlet_alpha=[1.0, 1.0, 1.0],
        bundle_spec=[
            BundleSpec(centers=[0.2], widths=[0.08], amplitudes=[0.7], cov_scale=cov),
            BundleSpec(centers=[0.5], widths=[0.10], amplitudes=[0.6], cov_scale=cov),
            BundleSpec(centers=[0.8], widths=[0.09], amplitudes=[0.8], cov_scale=cov),
        ],
        noise_sigma=noise,
        pure_pixel_fraction=pure,
        seg_len=4,
    )
    return synth_scene(config, np.random.default_rng(seed)), config


# ---------------------------------------------------------------------------
# segments and bundle type


def test_segment_sizes_exact_multiple():
    assert segment_sizes(48, 16) == [16, 16, 16]


def test_segment_sizes_truncated_tail():
    assert segment_sizes(20, 8) == [8, 8, 4]


def test_segment_sizes_single_short_block():
    assert segment_sizes(5, 8) == [5]


def test_segment_sizes_rejects_bad_args():
    with pytest.raises(DataError):
        segment_sizes(10, 0)
    with pytest.raises(DataError):
        segment_sizes(0, 4)


def test_bundle_rejects_nonpositive_cholesky_diagonal():
    with pytest.raises(DataError, match="strictly positive"):
        EndmemberBundle("bad", np.ones(4), np.diag([1.0, -0.5, 1.0, 1.0])[None], seg_len=4)


def test_bundle_rejects_cholesky_block_with_upper_entries():
    """sample would draw from the full block while the bundle KL reads only
    its lower triangle, so such a block is not a Cholesky factor."""
    text = json.dumps(
        {"seg_len": 2, "endmembers": [{"mean": [0.5, 0.5], "chol_blocks": [[[0.1, 0.7], [0.0, 0.1]]]}]}
    )
    with pytest.raises(DataError, match="lower-triangular"):
        bundles_from_json(text)


@pytest.mark.parametrize("where", ["mean", "diagonal", "below-diagonal"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_bundle_rejects_nonfinite_values(where, value):
    mean, block = np.full(2, 0.5), np.eye(2)
    if where == "mean":
        mean[1] = value
    else:
        block[1, 1 if where == "diagonal" else 0] = value
    with pytest.raises(DataError, match="non-finite"):
        EndmemberBundle("bad", mean, block[None], seg_len=2)


def test_bundle_rejects_wrong_block_partition():
    blocks = [np.eye(4), np.eye(4)]
    with pytest.raises(DataError, match="do not partition"):
        EndmemberBundle.from_segments("bad", np.ones(6), blocks, seg_len=4)
    with pytest.raises(DataError, match="does not fit"):
        EndmemberBundle("bad", np.ones(6), np.stack(blocks * 2), seg_len=4)


@pytest.mark.parametrize(
    "blocks",
    [
        [np.eye(4), np.eye(4)],  # one block short
        [np.eye(4), np.eye(4), np.eye(2), np.eye(2)],  # one block too many
        [np.eye(4), np.eye(4), np.eye(2)[:, :1]],  # a non-square block
        [np.eye(4), np.eye(4), np.eye(2)[None]],  # a block of three dimensions
        # numpy would broadcast a 1x1 block over the 2x2 segment it stands for
        [np.eye(4), np.eye(4), [[0.5]]],
    ],
    ids=["short", "long", "non-square", "3-d", "1x1-for-2x2"],
)
def test_bundle_from_segments_rejects_blocks_that_do_not_partition_the_bands(blocks):
    with pytest.raises(DataError, match="do not partition"):
        EndmemberBundle.from_segments("bad", np.ones(10), blocks, seg_len=4)


def test_bundle_rejects_padding_other_than_the_identity():
    """A short last segment's block is padded with the identity; any other
    padding would change the covariance the bundle KL sees."""
    good = EndmemberBundle.from_segments("b", np.ones(6), [np.eye(4), 0.5 * np.eye(2)], seg_len=4)
    assert np.array_equal(good.chol_blocks[1], np.diag([0.5, 0.5, 1.0, 1.0]))
    for where, value in (((1, 3, 3), 2.0), ((1, 3, 1), 0.1), ((1, 2, 2), 1.5)):
        stack = good.chol_blocks.copy()
        stack[where] = value
        with pytest.raises(DataError, match="padding must be the identity"):
            EndmemberBundle("bad", np.ones(6), stack, seg_len=4)


def test_bundle_json_round_trips_a_short_last_segment_byte_for_byte(tmp_path):
    """The file holds each segment's unpadded block; loading pads the stack
    and saving strips the padding again."""
    rng = np.random.default_rng(8)
    entries = [
        {
            "chol_blocks": [
                (np.tril(rng.random((m, m)), -1) * 0.01 + np.diag(0.05 + rng.random(m))).tolist()
                for m in (4, 4, 2)
            ],
            "mean": rng.random(10).tolist(),
            "name": f"em{j}",
        }
        for j in range(2)
    ]
    text = json.dumps({"endmembers": entries, "seg_len": 4}, sort_keys=True)
    path = tmp_path / "bundles.json"
    path.write_text(text)
    bundles = load_bundles(path)
    assert [b.chol_blocks.shape for b in bundles] == [(3, 4, 4)] * 2
    save_bundles(tmp_path / "again.json", bundles)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_bundle_sample_moments_match_requested_gaussian():
    rng = np.random.default_rng(3)
    blocks = [np.linalg.cholesky(np.array([[0.04, 0.01], [0.01, 0.09]])), np.array([[0.2]])]
    bundle = EndmemberBundle.from_segments("b", np.array([1.0, 2.0, 3.0]), blocks, seg_len=2)
    draws = bundle.sample(rng, size=200_000)
    assert np.abs(draws.mean(axis=0) - bundle.mean).max() < 5e-3
    first = np.cov(draws[:, :2], rowvar=False)
    assert np.abs(first - blocks[0] @ blocks[0].T).max() < 2e-3
    assert abs(np.var(draws[:, 2]) - 0.04) < 1e-3


def test_bundle_sample_without_size_returns_one_row():
    bundle = EndmemberBundle("b", np.zeros(3), np.stack([np.eye(2)] * 2), seg_len=2)
    assert bundle.sample(np.random.default_rng(0)).shape == (1, 3)


def test_bundle_json_round_trip_is_exact():
    scene, _ = small_scene(cov=0.01)
    text = bundles_to_json(scene.gt_bundles)
    back = bundles_from_json(text)
    for a, b in zip(scene.gt_bundles, back):
        assert a.name == b.name
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.chol_blocks, b.chol_blocks)


def test_save_bundles_rejects_mixed_segment_lengths(tmp_path):
    """The file holds one seg_len, so bundles that differ in it would save a
    file that does not load; saving writes nothing instead."""
    a = EndmemberBundle("a", np.ones(8), np.stack([np.eye(4)] * 2), seg_len=4)
    b = EndmemberBundle("b", np.ones(8), np.eye(8)[None], seg_len=8)
    path = tmp_path / "bundles.json"
    with pytest.raises(DataError, match=r"segment length, got \[4, 8\]"):
        save_bundles(path, [a, b])
    assert not path.exists()


def test_bundle_json_rejects_garbage():
    with pytest.raises(DataError):
        bundles_from_json("not json at all {")
    with pytest.raises(DataError):
        bundles_from_json(json.dumps({"endmembers": []}))
    entry = {"mean": [0.5, 0.5], "chol_blocks": [[[0.1, 0.0], [0.0, 0.1]]]}
    for payload in (
        5,
        "seg_len endmembers",
        {"seg_len": 2, "endmembers": 5},
        {"seg_len": 2, "endmembers": [5]},
        {"seg_len": 2, "endmembers": [{"chol_blocks": entry["chol_blocks"]}]},
        {"seg_len": 2, "endmembers": [{"mean": entry["mean"]}]},
        {"seg_len": "two", "endmembers": [entry]},
        {"seg_len": 2, "endmembers": [{**entry, "mean": ["a", "b"]}]},
        {"seg_len": 2, "endmembers": [{**entry, "chol_blocks": 3}]},
    ):
        with pytest.raises(DataError):
            bundles_from_json(json.dumps(payload))
    with pytest.raises(DataError):
        bundles_from_json(b'{"seg_len": 2, "endmembers": ["\xff"]}')


# ---------------------------------------------------------------------------
# cube invariants and file format


def test_cube_rejects_negative_and_nonfinite_reflectance():
    bad = np.ones((2, 2, 3))
    bad[0, 0, 0] = -0.1
    with pytest.raises(DataError):
        HsiCube(bad)
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        HsiCube(bad)


def test_cube_rejects_off_simplex_abundances():
    r = np.ones((2, 2, 3))
    z = np.full((2, 2, 2), 0.6)
    with pytest.raises(DataError):
        HsiCube(r, gt_abundances=z)


def test_cube_rejects_nonfinite_abundances():
    """A NaN fails every comparison, so the sign and simplex checks alone
    would pass it."""
    z = np.full((2, 2, 2), 0.5)
    z[1, 1] = [np.nan, 0.5]
    with pytest.raises(DataError, match="non-finite"):
        HsiCube(np.ones((2, 2, 3)), gt_abundances=z)


def test_cube_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.random((2, 2, 3)).astype(np.float32).astype(np.float64)
    cube = HsiCube(values)
    save_cube(cube, tmp_path / "tiny")
    back = load_cube(tmp_path / "tiny")
    assert np.array_equal(back.reflectance, values)


def test_cube_payload_header_mismatch_raises(tmp_path):
    cube = HsiCube(np.ones((2, 2, 3)))
    save_cube(cube, tmp_path / "c")
    header = json.loads((tmp_path / "c.json").read_text())
    header["bands"] = 4
    (tmp_path / "c.json").write_text(json.dumps(header))
    with pytest.raises(DataError):
        load_cube(tmp_path / "c")


def test_cube_ground_truth_sidecars_round_trip(tmp_path):
    scene, _ = small_scene(noise=0.01, cov=0.005)
    save_cube(scene, tmp_path / "scene")
    back = load_cube(tmp_path / "scene")
    assert back.gt_abundances is not None
    assert back.gt_bundles is not None
    assert back.gt_abundances.shape == scene.gt_abundances.shape
    # payload passes through float32, so compare at that precision
    assert np.abs(back.reflectance - scene.reflectance).max() < 1e-6
    assert np.abs(back.gt_abundances - scene.gt_abundances).max() < 1e-6
    for a, b in zip(scene.gt_bundles, back.gt_bundles):
        assert np.array_equal(a.mean, b.mean)


@pytest.mark.parametrize(
    "sidecar",
    [
        b"7",
        b'{"height": 2, "width": 2, "bands": "\xff3"}',
        b'{"height": "two", "width": 2, "bands": 3, "dtype": "f32", "interleave": "bsq"}',
        b'{"height": 1e999, "width": 2, "bands": 3, "dtype": "f32", "interleave": "bsq"}',
        b'{"height": -2, "width": -2, "bands": 3, "dtype": "f32", "interleave": "bsq"}',
    ],
    ids=["number", "not-utf8", "text-dim", "infinite-dim", "negative-dims"],
)
def test_sidecar_rejects_garbage(tmp_path, sidecar):
    save_cube(HsiCube(np.ones((2, 2, 3))), tmp_path / "c")
    (tmp_path / "c.json").write_bytes(sidecar)
    with pytest.raises(DataError):
        load_cube(tmp_path / "c")


def test_load_cube_missing_sidecar_raises(tmp_path):
    with pytest.raises(DataError):
        load_cube(tmp_path / "nothing")


# ---------------------------------------------------------------------------
# patches


def patch_at(scene, row: int, col: int, patch_size: int) -> np.ndarray:
    """The (P, P, C) window around one pixel, through the batched gather."""
    return PatchSource(scene, patch_size).batch([row * scene.width + col])[0]


def test_patch_center_matches_plain_slice():
    scene, _ = small_scene()
    patch = patch_at(scene, 4, 4, 3)
    assert np.array_equal(patch, scene.reflectance[3:6, 3:6])


def test_patch_corner_pads_with_exact_zeros():
    scene, _ = small_scene()
    patch = patch_at(scene, 0, 0, 3)
    zero_positions = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
    for r, c in zero_positions:
        assert np.all(patch[r, c] == 0.0)
    assert np.array_equal(patch[1:, 1:], scene.reflectance[:2, :2])


def test_patch_size_one_is_the_pixel():
    scene, _ = small_scene()
    assert np.array_equal(patch_at(scene, 2, 5, 1)[0, 0], scene.reflectance[2, 5])


def test_patch_rejects_even_size_and_bad_position():
    scene, _ = small_scene()
    with pytest.raises(DataError):
        PatchSource(scene, 4)
    source = PatchSource(scene, 3)
    for bad in (-1, scene.n_pixels, 99 * scene.width):
        with pytest.raises(DataError, match="pixel indices"):
            source.batch([0, bad])


def test_patch_matches_padded_reference_at_random_positions():
    scene, _ = small_scene(seed=5)
    p = 5
    pad = p // 2
    reference = np.pad(scene.reflectance, ((pad, pad), (pad, pad), (0, 0)))
    rng = np.random.default_rng(11)
    rows = rng.integers(scene.height, size=25)
    cols = rng.integers(scene.width, size=25)
    # one batched gather, including the image corners and a repeated pixel
    rows = np.concatenate([rows, [0, 0, scene.height - 1, scene.height - 1, rows[0]]])
    cols = np.concatenate([cols, [0, scene.width - 1, 0, scene.width - 1, cols[0]]])
    batch = PatchSource(scene, p).batch(rows * scene.width + cols)
    assert batch.shape == (rows.size, p, p, scene.bands)
    for i, (r, c) in enumerate(zip(rows, cols)):
        assert np.array_equal(batch[i], reference[r : r + p, c : c + p])


# ---------------------------------------------------------------------------
# splits


def test_split_counts_follow_rounded_fraction():
    split = split_pixels(100, SplitSpec(train_fraction=0.2, seed=1))
    assert split.train_indices.size == 20
    assert split.test_indices.size == 80


def test_split_is_deterministic_per_seed():
    a = split_pixels(500, SplitSpec(seed=3))
    b = split_pixels(500, SplitSpec(seed=3))
    c = split_pixels(500, SplitSpec(seed=4))
    assert np.array_equal(a.train_indices, b.train_indices)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_split_partitions_all_pixels():
    split = split_pixels(257, SplitSpec(train_fraction=0.2, seed=0))
    merged = np.sort(np.concatenate([split.train_indices, split.test_indices]))
    assert np.array_equal(merged, np.arange(257))


# ---------------------------------------------------------------------------
# config fields


@dataclass
class _Inner:
    x: float = checked("real", "> 0", default=1.0)


@dataclass
class _Outer:
    n: int = checked("int", ">= 1", odd=True, default=3)
    xs: list = checked("reals", ">= 0", "< 1", default_factory=lambda: [0.5])
    inner: list | None = checked("config", default=None)
    free: object = None


def test_check_fields_passes_values_in_bounds_and_skips_unchecked_fields():
    outer = _Outer(n=2**70 + 1, xs=np.array([0.0, 0.9]), inner=[_Inner()], free="x")
    check_fields(outer, DataError)
    check_fields(_Outer(inner=_Inner(x=2)), DataError)


@pytest.mark.parametrize(
    "outer, message",
    [
        (_Outer(n=4), "n must be an odd integer >= 1, got 4"),
        (_Outer(n=True), "n must be an odd integer >= 1, got True"),
        (_Outer(n=3.0), "n must be an odd integer >= 1, got 3.0"),
        (_Outer(xs=[0.5, 1.0]), "xs must be a list of finite numbers >= 0 and < 1, got [0.5, 1.0]"),
        (_Outer(xs=[0.5, "0.5"]), "xs must be a list of finite numbers"),
        (_Outer(xs=np.zeros((1, 1))), "xs must be a list of finite numbers"),
        (_Outer(xs=None), "xs must be a list of finite numbers"),
        (_Outer(inner=[_Inner(), _Inner(x=float("nan"))]), "inner[1].x must be a finite number"),
        (_Outer(inner=_Inner(x=10**400)), "inner.x must be a finite number > 0"),
    ],
    ids=["even", "bool", "float", "bound", "string-entry", "matrix", "null", "nested-nan",
         "int-beyond-float"],
)
def test_check_fields_names_the_field_and_its_rule(outer, message):
    with pytest.raises(DataError, match="^cfg." + re.escape(message)):
        check_fields(outer, DataError, "cfg.")


# ---------------------------------------------------------------------------
# synthetic scenes


def test_scene_noise_free_zero_cov_pixels_equal_exact_mixtures():
    scene, _ = small_scene(noise=0.0, cov=0.0)
    means = np.stack([b.mean for b in scene.gt_bundles])
    n = scene.n_pixels
    z = scene.abundance_pixels()
    tiled = np.broadcast_to(means, (n, 3, means.shape[1]))
    expected = np.einsum("nk,nkc->nc", z, tiled)
    assert np.array_equal(scene.pixels(), expected)


def test_scene_noise_free_zero_cov_pixels_lie_in_mean_hull():
    scene, _ = small_scene(noise=0.0, cov=0.0)
    means = np.stack([b.mean for b in scene.gt_bundles])
    for pixel in scene.pixels()[::7]:
        _, residual = nnls(means.T, pixel)
        assert residual < 1e-9


def test_scene_abundance_mean_matches_dirichlet_mean():
    config = SceneConfig(
        height=100,
        width=100,
        bands=16,
        k=3,
        dirichlet_alpha=[2.0, 1.0, 0.5],
        noise_sigma=0.0,
        pure_pixel_fraction=0.0,
        seg_len=8,
    )
    scene = synth_scene(config, np.random.default_rng(0))
    alpha = np.array(config.dirichlet_alpha)
    a0 = alpha.sum()
    expected = alpha / a0
    variance = alpha * (a0 - alpha) / (a0 * a0 * (a0 + 1.0))
    observed = scene.abundance_pixels().mean(axis=0)
    se = np.sqrt(variance / scene.n_pixels)
    assert np.all(np.abs(observed - expected) < 3 * se)


def test_scene_pure_fraction_concentrates_abundances():
    mixed, _ = small_scene(seed=1, h=32, w=32, pure=0.0)
    pure, _ = small_scene(seed=1, h=32, w=32, pure=0.3)
    assert pure.abundance_pixels().max(axis=1).mean() > mixed.abundance_pixels().max(axis=1).mean()


def test_scene_is_deterministic_per_seed():
    a, _ = small_scene(noise=0.01, cov=0.01, seed=12)
    b, _ = small_scene(noise=0.01, cov=0.01, seed=12)
    assert np.array_equal(a.reflectance, b.reflectance)
    assert np.array_equal(a.gt_abundances, b.gt_abundances)


def test_scene_config_validation():
    with pytest.raises(DataError):
        synth_scene(SceneConfig(k=1, dirichlet_alpha=[1.0]), np.random.default_rng(0))
    with pytest.raises(DataError):
        synth_scene(
            SceneConfig(k=3, dirichlet_alpha=[1.0, 1.0], bands=48), np.random.default_rng(0)
        )
    with pytest.raises(DataError):
        synth_scene(
            SceneConfig(bands=8, seg_len=16, dirichlet_alpha=[1.0, 1.0, 1.0]),
            np.random.default_rng(0),
        )


def test_scene_bundles_reuse_config_segmentation():
    config = SceneConfig(bands=20, seg_len=8, dirichlet_alpha=[1.0, 1.0, 1.0])
    bundles = make_scene_bundles(config)
    assert bundles[0].chol_blocks.shape == (3, 8, 8)
    assert np.array_equal(bundles[0].chol_blocks[2, 4:], np.eye(8)[4:])
