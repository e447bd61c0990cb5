"""End-to-end checks of the command-line surface."""

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from unmix_ldvae.cli import main
from unmix_ldvae.data import HsiCube, _read_bsq, load_bundles, load_cube, save_cube
from unmix_ldvae.numcore import Tensor
from unmix_ldvae.train import load_checkpoint, save_checkpoint

SCENE_CFG = {
    "height": 12,
    "width": 12,
    "bands": 16,
    "k": 3,
    "seg_len": 8,
    "dirichlet_alpha": [2.0, 2.0, 2.0],
    "noise_sigma": 0.002,
    "pure_pixel_fraction": 0.1,
    "corr_length": 0.75,
    "seed": 0,
}

TRAIN_CFG = {
    "epochs": 5,
    "batch_size": 64,
    "model": {"patch": 1, "seg_len": 8, "d": 8, "layers": 1, "heads": 2, "ff_dim": 8},
    "split": {"train_fraction": 0.5, "seed": 0},
}


def one_json_error(capsys, rc, code, error):
    """The failure contract: exit code, one JSON line on stderr naming the error."""
    captured = capsys.readouterr()
    assert rc == code
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == error
    return captured.out


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    out = [json.loads(line) for line in captured.out.strip().splitlines() if line]
    err = json.loads(captured.err) if captured.err.strip() else None
    return rc, out, err


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "scene.json").write_text(json.dumps(SCENE_CFG))
    (root / "train.json").write_text(json.dumps(TRAIN_CFG))
    rc = main(
        ["synth", "--out", str(root / "data"), "--config", str(root / "scene.json")]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--data",
            str(root / "data" / "scene"),
            "--out",
            str(root / "run"),
            "--config",
            str(root / "train.json"),
        ]
    )
    assert rc == 0
    return root


def test_synth_scene_is_loadable(ws, capsys):
    rc, out, _ = run_cli(
        capsys,
        "synth",
        "--out",
        str(ws / "data2"),
        "--config",
        str(ws / "scene.json"),
    )
    assert rc == 0
    echo, result = out
    assert echo["command"] == "synth"
    assert echo["scene"]["height"] == 12
    assert len(echo["scene"]["bundle_spec"]) == 3
    cube = load_cube(result["scene"])
    assert cube.bands == 16 and cube.n_pixels == 144
    assert cube.gt_abundances is not None
    assert len(cube.gt_bundles) == 3


def test_synth_is_byte_deterministic(ws, capsys):
    paths = []
    for sub in ("det_a", "det_b"):
        rc, out, _ = run_cli(
            capsys,
            "synth",
            "--out",
            str(ws / sub),
            "--config",
            str(ws / "scene.json"),
        )
        assert rc == 0
        paths.append(Path(out[1]["scene"]))
    for suffix in (".bsq", "_abundances.bsq", "_bundles.json"):
        a = Path(str(paths[0]) + suffix).read_bytes()
        b = Path(str(paths[1]) + suffix).read_bytes()
        assert a == b, f"{suffix} differs between identically seeded runs"


def test_seed_flag_overrides_config_file(ws, capsys):
    rc, out, _ = run_cli(
        capsys,
        "synth",
        "--out",
        str(ws / "seed_flag"),
        "--config",
        str(ws / "scene.json"),
        "--seed",
        "7",
    )
    assert rc == 0
    assert out[0]["seed"] == 7
    flagged = _read_bsq(Path(out[1]["scene"]))
    baseline = _read_bsq(ws / "data" / "scene")
    assert not np.array_equal(flagged, baseline)


def test_unknown_config_key_is_named(ws, capsys):
    bad = ws / "bad_scene.json"
    bad.write_text(json.dumps({"heigth": 5}))
    rc, _, err = run_cli(
        capsys, "synth", "--out", str(ws / "bad"), "--config", str(bad)
    )
    assert rc == 2
    assert err["error"] == "usage"
    assert "heigth" in err["message"]


def test_invalid_scene_value_fails_cleanly(ws, capsys):
    bad = ws / "neg_noise.json"
    bad.write_text(json.dumps({"noise_sigma": -1.0}))
    rc, _, err = run_cli(
        capsys, "synth", "--out", str(ws / "bad2"), "--config", str(bad)
    )
    assert rc == 1
    assert err["error"] == "DataError"
    assert "noise" in err["message"]


@pytest.mark.parametrize("raw", ["2.5", "1e999", '"8"', "true"], ids=["float", "overflow", "string", "bool"])
def test_non_integer_scene_size_fails_cleanly(capsys, tmp_path, raw):
    config = tmp_path / "scene.json"
    others = {key: value for key, value in SCENE_CFG.items() if key != "height"}
    config.write_text(json.dumps(others)[:-1] + f', "height": {raw}}}')
    rc = main(["synth", "--out", str(tmp_path / "out"), "--config", str(config)])
    assert one_json_error(capsys, rc, 1, "DataError") == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,raw",
    [
        ("noise_sigma", '"abc"'),
        ("noise_sigma", "NaN"),
        ("pure_pixel_fraction", "null"),
        ("pure_boost", "-5"),
        ("corr_length", "-1"),
        ("corr_length", "true"),
        ("dirichlet_alpha", '["x", 2.0, 2.0]'),
    ],
    ids=["sigma-string", "sigma-nan", "fraction-null", "boost-negative", "corr-negative",
         "corr-bool", "alpha-string"],
)
def test_bad_scene_number_fails_cleanly(capsys, tmp_path, key, raw):
    config = tmp_path / "scene.json"
    others = {name: value for name, value in SCENE_CFG.items() if name != key}
    config.write_text(json.dumps(others)[:-1] + f', "{key}": {raw}}}')
    rc = main(["synth", "--out", str(tmp_path / "out"), "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)
    assert error["error"] == "DataError" and key in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", ['"abc"', "2.5", "true", "-1"], ids=["string", "float", "bool", "negative"])
def test_non_integer_seed_is_a_usage_error(capsys, tmp_path, raw):
    config = tmp_path / "scene.json"
    others = {key: value for key, value in SCENE_CFG.items() if key != "seed"}
    config.write_text(json.dumps(others)[:-1] + f', "seed": {raw}}}')
    rc = main(["synth", "--out", str(tmp_path / "out"), "--config", str(config)])
    assert one_json_error(capsys, rc, 2, "usage") == ""
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_two(capsys):
    rc, _, err = run_cli(capsys, "fly")
    assert rc == 2 and err["error"] == "usage"
    rc, _, err = run_cli(capsys, "synth")
    assert rc == 2 and "--out" in err["message"]


def test_train_writes_checkpoint_and_log(ws):
    checkpoint = load_checkpoint(ws / "run" / "checkpoint.ldvt")
    assert checkpoint.epoch == 5
    assert checkpoint.model.bands == 16
    assert checkpoint.model.k == 3
    log_lines = (ws / "run" / "train_log.csv").read_text().strip().splitlines()
    assert len(log_lines) == 6
    assert log_lines[0].startswith("epoch,")


def test_train_requires_ground_truth(ws, capsys):
    bare = HsiCube(np.abs(np.random.default_rng(0).normal(0.4, 0.1, (6, 6, 16))))
    save_cube(bare, ws / "bare" / "cube")
    cfg = dict(TRAIN_CFG)
    cfg["model"] = {**TRAIN_CFG["model"], "k": 3}
    (ws / "bare_train.json").write_text(json.dumps(cfg))
    rc, _, err = run_cli(
        capsys,
        "train",
        "--data",
        str(ws / "bare" / "cube"),
        "--out",
        str(ws / "bare_run"),
        "--config",
        str(ws / "bare_train.json"),
    )
    assert rc == 1
    assert "ground-truth" in err["message"]


def test_train_resume_matches_uninterrupted(ws, capsys):
    short_cfg = ws / "train2.json"
    short_cfg.write_text(json.dumps({**TRAIN_CFG, "epochs": 2}))
    rc, _, _ = run_cli(
        capsys,
        "train",
        "--data",
        str(ws / "data" / "scene"),
        "--out",
        str(ws / "resume_a"),
        "--config",
        str(short_cfg),
    )
    assert rc == 0
    rc, out, _ = run_cli(
        capsys,
        "train",
        "--data",
        str(ws / "data" / "scene"),
        "--out",
        str(ws / "resume_b"),
        "--config",
        str(ws / "train.json"),
        "--resume",
        str(ws / "resume_a" / "checkpoint.ldvt"),
    )
    assert rc == 0
    assert out[1]["epoch"] == 5
    resumed = (ws / "resume_b" / "checkpoint.ldvt").read_bytes()
    straight = (ws / "run" / "checkpoint.ldvt").read_bytes()
    assert resumed == straight


def test_eval_outputs_parse_and_recompute(ws, capsys):
    rc, out, _ = run_cli(
        capsys,
        "eval",
        "--checkpoint",
        str(ws / "run" / "checkpoint.ldvt"),
        "--data",
        str(ws / "data" / "scene"),
        "--out",
        str(ws / "eval"),
    )
    assert rc == 0
    result = out[1]

    lines = Path(result["metrics"]).read_text().strip().splitlines()
    assert lines[0] == "endmember,sad_rad,rmse"
    body = [line.split(",") for line in lines[1:]]
    assert body[-1][0] == "average"
    sads = [float(row[1]) for row in body[:-1]]
    rmses = [float(row[2]) for row in body[:-1]]
    assert float(body[-1][1]) == pytest.approx(np.mean(sads), rel=1e-12)
    assert float(body[-1][2]) == pytest.approx(np.mean(rmses), rel=1e-12)
    assert result["avg_sad"] == pytest.approx(float(body[-1][1]), rel=1e-12)

    maps = _read_bsq(Path(result["abundances"]).with_suffix(""))
    assert maps.shape == (12, 12, 3)
    assert np.all(maps >= 0.0) and np.all(maps <= 1.0)
    np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)

    spectra = Path(result["spectra"]).read_text().strip().splitlines()
    header = spectra[0].split(",")
    assert header[0] == "band" and len(header) == 1 + 2 * 3
    assert len(spectra) == 1 + 16
    first = spectra[1].split(",")
    assert all(np.isfinite(float(cell)) for cell in first)


@pytest.mark.parametrize("command", ["eval", "unmix"])
def test_eval_rejects_band_mismatch(ws, capsys, command):
    wide = ws / "wide_scene.json"
    wide.write_text(json.dumps({**SCENE_CFG, "bands": 24}))
    rc, out, _ = run_cli(
        capsys, "synth", "--out", str(ws / "wide"), "--config", str(wide)
    )
    assert rc == 0
    rc, _, err = run_cli(
        capsys,
        command,
        "--checkpoint",
        str(ws / "run" / "checkpoint.ldvt"),
        "--data",
        out[1]["scene"],
        "--out",
        str(ws / f"{command}_bad"),
    )
    assert rc == 1
    assert "bands" in err["message"]
    assert not (ws / f"{command}_bad").exists()


def test_eval_without_ground_truth_fails_before_writing(ws, capsys):
    bare = HsiCube(np.abs(np.random.default_rng(1).normal(0.4, 0.1, (4, 5, 16))))
    save_cube(bare, ws / "bare_eval" / "cube")
    common = ["--checkpoint", str(ws / "run" / "checkpoint.ldvt"),
              "--data", str(ws / "bare_eval" / "cube")]
    rc = main(["eval", *common, "--out", str(ws / "bare_scores")])
    captured = capsys.readouterr()
    assert rc == 1
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "MetricsError"
    assert not (ws / "bare_scores").exists()
    # unmix needs no ground truth on the same cube
    rc, out, _ = run_cli(capsys, "unmix", *common, "--out", str(ws / "bare_maps"))
    assert rc == 0
    assert _read_bsq(Path(out[1]["abundances"]).with_suffix("")).shape == (4, 5, 3)


def _drop(key):
    return lambda header: header.pop(key)


@pytest.mark.parametrize(
    "edit",
    [
        *(pytest.param(_drop(key), id=f"missing-{key}")
          for key in ("adam_t", "epoch", "seed", "rng_state", "model")),
        pytest.param(lambda header: header.update(model=[3, 16]), id="model-not-object"),
        pytest.param(lambda header: header["model"].update(dropout=0.1), id="unknown-model-key"),
        pytest.param(lambda header: header["model"].update(patch=4), id="invalid-model-value"),
        pytest.param(lambda header: header.update(rng_state=7), id="rng-state-not-object"),
        pytest.param(lambda header: header.update(rng_state={"bit_generator": "PCG64"}),
                     id="rng-state-not-a-generator-state"),
    ],
)
def test_malformed_checkpoint_header_is_one_json_error(ws, capsys, tmp_path, edit):
    buf = (ws / "run" / "checkpoint.ldvt").read_bytes()
    (length,) = struct.unpack_from("<I", buf, 8)
    header = json.loads(buf[12 : 12 + length])
    edit(header)
    packed = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ldvt"
    bad.write_bytes(buf[:8] + struct.pack("<I", len(packed)) + packed + buf[12 + length :])
    rc = main(["unmix", "--checkpoint", str(bad), "--data", str(ws / "data" / "scene"),
               "--out", str(tmp_path / "maps")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "TrainError"
    assert not (tmp_path / "maps").exists()


def _drop_alpha_w(ck):
    for store in (ck.params, ck.opt.m, ck.opt.v):
        del store["alpha.w"]


def _add_extra(ck):
    ck.params["extra.w"] = Tensor(np.zeros(3))
    ck.opt.m["extra.w"] = ck.opt.v["extra.w"] = np.zeros(3)


def _misshape(ck):
    ck.params["alpha.w"] = Tensor(np.zeros((3, 3)))


def _misshape_moment(ck):
    ck.opt.m["pos"] = np.zeros(2)


@pytest.mark.parametrize("command", ["unmix", "train"])
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_drop_alpha_w, id="missing"),
        pytest.param(_add_extra, id="extra"),
        pytest.param(_misshape, id="misshapen"),
        pytest.param(_misshape_moment, id="misshapen-moment"),
    ],
)
def test_checkpoint_tensors_must_fit_the_model(ws, capsys, tmp_path, edit, command):
    ck = load_checkpoint(ws / "run" / "checkpoint.ldvt")
    edit(ck)
    bad = tmp_path / "bad.ldvt"
    save_checkpoint(bad, ck)
    data = ["--data", str(ws / "data" / "scene"), "--out", str(tmp_path / "out")]
    if command == "unmix":
        rc = main(["unmix", "--checkpoint", str(bad), *data])
    else:
        # epochs equal to the saved epoch: nothing to train, only the load
        rc = main(["train", *data, "--config", str(ws / "train.json"), "--resume", str(bad)])
    one_json_error(capsys, rc, 1, "TrainError")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval", "unmix"])
@pytest.mark.parametrize(
    "name, text",
    [
        ("scene_bundles.json", "5"),
        ("scene_bundles.json", '{"seg_len": 8, "endmembers": [3]}'),
        ("scene_bundles.json", '{"seg_len": 8, "endmembers": [{"mean": [0.5]}]}'),
        ("scene.json", "7"),
    ],
    ids=["bundles-number", "bundle-entry-number", "bundle-entry-without-blocks", "sidecar-number"],
)
def test_malformed_cube_files_are_one_json_error(ws, capsys, tmp_path, command, name, text):
    shutil.copytree(ws / "data", tmp_path / "data")
    (tmp_path / "data" / name).write_text(text)
    data = ["--data", str(tmp_path / "data" / "scene"), "--out", str(tmp_path / "out")]
    if command == "train":
        rc = main(["train", *data, "--config", str(ws / "train.json")])
    else:
        rc = main([command, "--checkpoint", str(ws / "run" / "checkpoint.ldvt"), *data])
    assert one_json_error(capsys, rc, 1, "DataError") == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, section",
    [
        ("train", {"model": 5}),
        ("train", {"model": [3]}),
        ("train", {"split": "abc"}),
        ("train", {"loss_weights": 5}),
        ("synth", {"bundle_spec": [5, 5, 5]}),
        ("train", {"loss_weights": {"alpha_prior": "abc"}}),
        ("train", {"loss_weights": {"alpha_prior": [1, "x"]}}),
    ],
    ids=[
        "model-number", "model-list", "split-string", "loss-weights-number", "bundle-spec-entry",
        "alpha-prior-string", "alpha-prior-non-numeric-entry",
    ],
)
def test_config_section_must_be_an_object(ws, capsys, tmp_path, command, section):
    config = tmp_path / "config.json"
    if command == "train":
        config.write_text(json.dumps({**TRAIN_CFG, **section}))
        rc = main(["train", "--data", str(ws / "data" / "scene"), "--out", str(tmp_path / "out"),
                   "--config", str(config)])
    else:
        config.write_text(json.dumps({**SCENE_CFG, **section}))
        rc = main(["synth", "--out", str(tmp_path / "out"), "--config", str(config)])
    assert one_json_error(capsys, rc, 2, "usage") == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, error",
    [
        ({"seed": "abc"}, "TrainError"),
        ({"seed": 2.5}, "TrainError"),
        ({"seed": -3}, "TrainError"),
        ({"epochs": 1.5}, "TrainError"),
        ({"batch_size": None}, "TrainError"),
        ({"learning_rate": "abc"}, "TrainError"),
        ({"split": {"train_fraction": "x"}}, "TrainError"),
        ({"loss_weights": {"anneal_epochs": "x"}}, "LossError"),
        ({"model": {**TRAIN_CFG["model"], "eps_alpha": "x"}}, "ModelError"),
    ],
    ids=[
        "seed-string", "seed-float", "seed-negative", "epochs-float", "batch-size-null",
        "learning-rate-string", "train-fraction-string", "anneal-epochs-string",
        "eps-alpha-string",
    ],
)
def test_train_config_of_the_wrong_type_is_one_json_error(ws, capsys, tmp_path, section, error):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TRAIN_CFG, **section}))
    rc = main(["train", "--data", str(ws / "data" / "scene"), "--out", str(tmp_path / "out"),
               "--config", str(config)])
    one_json_error(capsys, rc, 1, error)
    assert not (tmp_path / "out").exists()


def test_split_indices_are_not_config_keys(ws, capsys, tmp_path):
    """A split is computed from its fraction and seed; index lists in the
    config would be ignored, so they are unknown keys."""
    config = tmp_path / "config.json"
    split = {"train_indices": [0, 1, 2], "test_indices": "nonsense"}
    config.write_text(json.dumps({**TRAIN_CFG, "split": split}))
    rc = main(["train", "--data", str(ws / "data" / "scene"), "--out", str(tmp_path / "out"),
               "--config", str(config)])
    assert one_json_error(capsys, rc, 2, "usage") == ""
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe" + json.dumps(SCENE_CFG).encode("utf-16-le"))
    rc = main(["synth", "--out", str(tmp_path / "out"), "--config", str(config)])
    assert one_json_error(capsys, rc, 2, "usage") == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "target, code, error",
    [
        ("sidecar", 1, "DataError"),
        ("bundles", 1, "DataError"),
        ("checkpoint", 1, "TrainError"),
        ("config", 2, "usage"),
    ],
)
def test_deeply_nested_json_is_one_json_error(ws, capsys, tmp_path, target, code, error):
    nested = "[" * 100000
    shutil.copytree(ws / "data", tmp_path / "data")
    checkpoint = tmp_path / "checkpoint.ldvt"
    shutil.copy(ws / "run" / "checkpoint.ldvt", checkpoint)
    config = tmp_path / "config.json"
    shutil.copy(ws / "train.json", config)
    if target == "sidecar":
        (tmp_path / "data" / "scene.json").write_text(nested)
    elif target == "bundles":
        (tmp_path / "data" / "scene_bundles.json").write_text(nested)
    elif target == "checkpoint":
        buf = checkpoint.read_bytes()
        (length,) = struct.unpack_from("<I", buf, 8)
        checkpoint.write_bytes(
            buf[:8] + struct.pack("<I", len(nested)) + nested.encode() + buf[12 + length :]
        )
    else:
        config.write_text(nested)
    data = ["--data", str(tmp_path / "data" / "scene"), "--out", str(tmp_path / "out")]
    if target == "config":
        rc = main(["train", *data, "--config", str(config)])
    else:
        rc = main(["unmix", "--checkpoint", str(checkpoint), *data])
    one_json_error(capsys, rc, code, error)
    assert not (tmp_path / "out").exists()


def test_fewer_bands_than_model_seg_len_train_and_unmix(capsys, tmp_path):
    """An 8-band scene under a model with seg_len 16: one 8-band segment."""
    scene_cfg = {**SCENE_CFG, "height": 6, "width": 6, "bands": 8}
    train_cfg = {**TRAIN_CFG, "epochs": 1, "model": {**TRAIN_CFG["model"], "seg_len": 16}}
    (tmp_path / "scene.json").write_text(json.dumps(scene_cfg))
    (tmp_path / "train.json").write_text(json.dumps(train_cfg))
    scene = str(tmp_path / "data" / "scene")
    assert main(["synth", "--out", str(tmp_path / "data"),
                 "--config", str(tmp_path / "scene.json")]) == 0
    assert main(["train", "--data", scene, "--out", str(tmp_path / "run"),
                 "--config", str(tmp_path / "train.json")]) == 0, capsys.readouterr().err
    capsys.readouterr()
    rc, out, err = run_cli(capsys, "unmix", "--checkpoint",
                           str(tmp_path / "run" / "checkpoint.ldvt"),
                           "--data", scene, "--out", str(tmp_path / "unmix"))
    assert rc == 0, err
    bundles = load_bundles(out[1]["bundles"])
    assert [[block.shape for block in b.chol_blocks] for b in bundles] == [[(8, 8)]] * 3


def test_unmix_matches_eval_and_round_trips(ws, capsys):
    rc, out, _ = run_cli(
        capsys,
        "unmix",
        "--checkpoint",
        str(ws / "run" / "checkpoint.ldvt"),
        "--data",
        str(ws / "data" / "scene"),
        "--out",
        str(ws / "unmix"),
    )
    assert rc == 0
    result = out[1]

    maps = _read_bsq(Path(result["abundances"]).with_suffix(""))
    np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)
    eval_maps = Path(ws / "eval" / "abundances.bsq").read_bytes()
    unmix_maps = Path(result["abundances"]).read_bytes()
    assert unmix_maps == eval_maps

    bundles = load_bundles(result["bundles"])
    assert len(bundles) == 3
    assert all(b.bands == 16 for b in bundles)
    for b in bundles:
        for block in b.chol_blocks:
            assert np.all(np.diag(block) > 0)
