"""Contract test for config input: whatever JSON value sits at one config
key, in any section, ``synth`` and ``train`` either succeed with two JSON
lines on stdout or fail with exit 1 or 2, exactly one JSON line on stderr and
no output directory. A fit that aborts inside an epoch, as a finite but
extreme value can make it do, leaves instead the checkpoint of the last
epoch it completed, which the error line names.

Examples are derandomized and bounded, so every run draws the same inputs.
"""

import dataclasses
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from unmix_ldvae.cli import main
from unmix_ldvae.data import BundleSpec, SceneConfig, SplitSpec
from unmix_ldvae.losses import LossWeights
from unmix_ldvae.model import ModelConfig
from unmix_ldvae.train import TrainConfig, load_checkpoint

# capsys is reset by hand before each example
FUZZ = settings(
    derandomize=True, max_examples=200, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SCENE_CFG = {
    "height": 4, "width": 4, "bands": 16, "k": 3, "seg_len": 8,
    "dirichlet_alpha": [2.0, 2.0, 2.0], "bundle_spec": [{}, {}, {}], "seed": 0,
}
TRAIN_CFG = {
    "epochs": 1,
    "batch_size": 8,
    "model": {"patch": 1, "seg_len": 8, "d": 8, "layers": 1, "heads": 2, "ff_dim": 8},
    "loss_weights": {},
    "split": {"train_fraction": 0.5, "seed": 0},
}


def _names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


# (command, section, key): the section is None for the top level of the file
KEYS = (
    [("synth", None, key) for key in [*_names(SceneConfig), "seed"]]
    + [("synth", "bundle_spec", key) for key in _names(BundleSpec)]
    + [("train", None, key) for key in _names(TrainConfig)]
    + [("train", "model", key) for key in _names(ModelConfig)]
    + [("train", "loss_weights", key) for key in _names(LossWeights)]
    + [("train", "split", key) for key in _names(SplitSpec)]
)


def _json_values(ints):
    return st.recursive(
        st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=8,
    )


# Integers stay small or reach 2**64, so no case asks numpy for a large but
# allocatable array. epochs and model.layers never get a huge one: a fit
# loops over the epochs, and param_shapes over the layers, allocating every
# layer's weights until memory runs out.
SMALL_INTS = st.integers(-2, 8)
VALUES = _json_values(SMALL_INTS | st.integers(min_value=2**64))
LOOP_VALUES = _json_values(SMALL_INTS)
CASES = st.sampled_from(KEYS).flatmap(
    lambda case: st.tuples(
        st.just(case), LOOP_VALUES if case[2] in ("epochs", "layers") else VALUES
    )
)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    (root / "scene.json").write_text(json.dumps(SCENE_CFG))
    assert main(["synth", "--out", str(root / "data"), "--config", str(root / "scene.json")]) == 0
    return root / "data" / "scene"


def _config(command, section, key, value) -> dict:
    config = json.loads(json.dumps(SCENE_CFG if command == "synth" else TRAIN_CFG))
    if section is None:
        config[key] = value
    elif section == "bundle_spec":
        config[section][0][key] = value
    else:
        config[section][key] = value
    return config


@FUZZ
@given(CASES)
@example((("train", "loss_weights", "alpha_prior"), [float("nan"), 1.0, 1.0]))
@example((("train", "loss_weights", "alpha_prior"), [1.0, float("inf"), 1.0]))
@example((("synth", None, "corr_length"), 1e300))
@example((("synth", None, "corr_length"), 1e-300))
@example((("synth", "bundle_spec", "widths"), [1e-200]))
@example((("synth", "bundle_spec", "centers"), [1e308]))
@example((("train", "model", "seg_len"), 100_000_000_000))
@example((("train", "model", "ff_dim"), 100_000_000_000))
@example((("train", "loss_weights", "lambda_abundances"), 1e300))
@example((("train", "loss_weights", "lambda_abundances"), -1e300))
@example((("train", "loss_weights", "alpha_prior"), [1e308, 1.0, 1.0]))
@example((("train", "model", "eps_alpha"), 1e308))
@example((("train", "model", "eps_chol"), 1e300))
def test_any_config_value_gives_a_result_or_one_json_error(scene, capsys, case):
    (command, section, key), value = case
    work = scene.parent.parent / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    config = work / "config.json"
    config.write_text(json.dumps(_config(command, section, key, value)))
    out = work / "out"
    argv = [command, "--out", str(out), "--config", str(config)]
    if command == "train":
        argv += ["--data", str(scene)]
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    if rc == 0:
        assert len([json.loads(line) for line in captured.out.splitlines()]) == 2
        assert captured.err == ""
    else:
        assert rc in (1, 2)
        assert len(captured.err.splitlines()) == 1
        aborted = re.match(r"aborted at epoch (\d+): ", json.loads(captured.err)["message"])
        if aborted:
            assert load_checkpoint(out / "checkpoint.ldvt").epoch == int(aborted[1])
        else:
            assert not Path(out).exists()
