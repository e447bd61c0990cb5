"""Optimizer arithmetic, checkpoint serialization and training-loop behavior."""

import dataclasses
import json
import math
import os
import shutil
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from unmix_ldvae import train as train_module
from unmix_ldvae.cli import main
from unmix_ldvae.data import (
    BundleSpec,
    EndmemberBundle,
    HsiCube,
    PatchSource,
    SceneConfig,
    SplitSpec,
    save_cube,
    split_pixels,
    synth_scene,
)
from unmix_ldvae.losses import (
    LossBreakdown,
    LossError,
    LossWeights,
    compute_losses,
    reference_blocks,
)
from unmix_ldvae.model import (
    ModelConfig,
    NoiseCache,
    forward,
    init_params,
    param_shapes,
    sample_reconstruction,
)
from unmix_ldvae.numcore import NumericError, Tape, Tensor, backward, blas, keep_freed_memory
from unmix_ldvae.train import (
    ADAM_CHUNK,
    AdamState,
    Checkpoint,
    TrainConfig,
    TrainError,
    _log_row,
    _write_log,
    adam_step,
    fit,
    load_checkpoint,
    save_checkpoint,
    train_epoch,
)


def tiny_model():
    return ModelConfig(patch=1, bands=16, k=2, seg_len=8, d=8, layers=1, heads=2, ff_dim=8)


def tiny_train_config(**overrides):
    defaults = dict(
        epochs=3,
        batch_size=18,
        seed=3,
        model=tiny_model(),
        split=SplitSpec(train_fraction=0.5, seed=1),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def smallbatch_model():
    """The fit_smallbatch benchmark's model: 96 bands, K=4, 277,668 parameters."""
    return ModelConfig(patch=3, bands=96, k=4, seg_len=16, d=32, layers=2, heads=8, ff_dim=64)


def tiny_scene(seed=0, height=6, width=6):
    config = SceneConfig(
        height=height,
        width=width,
        bands=16,
        k=2,
        dirichlet_alpha=[1.2, 1.2],
        bundle_spec=[
            BundleSpec(centers=[0.25], cov_scale=0.0),
            BundleSpec(centers=[0.75], cov_scale=0.0),
        ],
        noise_sigma=0.01,
        seg_len=8,
    )
    return synth_scene(config, np.random.default_rng(seed))


def toy_bundles():
    return [
        EndmemberBundle("a", np.full(16, 0.3), [1e-3 * np.eye(8)] * 2, seg_len=8),
        EndmemberBundle("b", np.full(16, 0.7), [1e-3 * np.eye(8)] * 2, seg_len=8),
    ]


# ---------------------------------------------------------------------------
# adam


def leaf(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


def reference_adam_step(params, grads, m, v, t, config):
    """The per-parameter Adam recurrence, one parameter at a time in sorted
    order: the oracle the flat step must match bit for bit."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for name in sorted(params):
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / corr1
        v_hat = v[name] / corr2
        params[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)


def test_adam_first_step_matches_hand_recurrence():
    # t=1: m_hat = g, v_hat = g^2, so theta = -lr * 1 / (1 + eps)
    params = {"w": leaf([0.0])}
    state = AdamState.zeros(params)
    params["w"].grad[...] = 1.0
    adam_step(state, TrainConfig())
    expected = -2e-4 / (1.0 + 1e-8)
    assert params["w"].data[0] == pytest.approx(expected, rel=1e-12)
    assert state.t == 1


def test_adam_zero_gradient_leaves_params_untouched():
    params = {"w": leaf([0.7, -1.3])}
    before = params["w"].data.copy()
    state = AdamState.zeros(params)
    adam_step(state, TrainConfig())
    assert np.array_equal(params["w"].data, before)


def test_adam_descends_a_quadratic():
    params = {"w": leaf([1.0])}
    state = AdamState.zeros(params)
    config = TrainConfig()
    trajectory = [params["w"].data[0]]
    for _ in range(200):
        params["w"].grad[...] = 2.0 * params["w"].data
        adam_step(state, config)
        trajectory.append(params["w"].data[0])
    assert trajectory[1] < trajectory[0]
    assert abs(trajectory[-1]) < abs(trajectory[0])
    assert np.isfinite(trajectory).all()


def test_adam_rejects_nonfinite_gradient_by_name():
    params = {"bad.w": leaf([0.0])}
    state = AdamState.zeros(params)
    params["bad.w"].grad[...] = np.nan
    with pytest.raises(TrainError, match="bad.w"):
        adam_step(state, TrainConfig())


def test_adam_ten_steps_are_bit_deterministic():
    results = []
    for _ in range(2):
        rng = np.random.default_rng(11)
        params = {"a": leaf(np.ones(4)), "b": leaf(np.full((2, 2), -0.5))}
        state = AdamState.zeros(params)
        config = TrainConfig()
        for _ in range(10):
            for p in params.values():
                p.grad[...] = rng.normal(size=p.shape)
            adam_step(state, config)
        results.append({name: p.data.copy() for name, p in params.items()})
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name])


def test_adam_state_views_the_flat_vectors():
    params = {"b": leaf(np.full((2, 3), 2.0)), "a": leaf([1.0, -1.0])}
    state = AdamState.zeros(params)
    assert np.array_equal(state.param_vec, [1.0, -1.0] + [2.0] * 6)
    for name, p in params.items():
        for view, flat in ((p.data, state.param_vec), (p.grad, state.grad_vec),
                           (state.m[name], state.m_vec), (state.v[name], state.v_vec)):
            assert np.shares_memory(view, flat) and view.shape == p.shape


def test_flat_adam_matches_per_parameter_recurrence_exactly():
    # the criterion-7 model, ten steps of gradients over several magnitudes
    # with exact zeros mixed in; every weight and moment must agree with ==
    model = ModelConfig(patch=3, bands=48, k=3, seg_len=16, d=32, layers=4, heads=16, ff_dim=64)
    params = init_params(model, np.random.default_rng(31))
    expected = {name: p.data.copy() for name, p in params.items()}
    m = {name: np.zeros(p.shape) for name, p in params.items()}
    v = {name: np.zeros(p.shape) for name, p in params.items()}
    state = AdamState.zeros(params)
    assert state.param_vec.size > 3 * ADAM_CHUNK  # chunks cross parameter boundaries
    config = TrainConfig(learning_rate=3e-3)
    rng = np.random.default_rng(32)
    for t in range(1, 11):
        grads = {
            name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape)
            * (rng.random(p.shape) < 0.9)
            for name, p in params.items()
        }
        for name, p in params.items():
            p.grad[...] = grads[name]
        adam_step(state, config)
        reference_adam_step(expected, grads, m, v, t, config)
    assert state.t == 10
    for name, p in params.items():
        assert np.array_equal(p.data, expected[name]), name
        assert np.array_equal(state.m[name], m[name]), name
        assert np.array_equal(state.v[name], v[name]), name


def test_adam_step_allocates_no_parameter_sized_array():
    # the peak of what one step allocates, so several smaller temporaries
    # alive at once count together
    model = ModelConfig(patch=3, bands=48, k=3, seg_len=16, d=32, layers=4, heads=16, ff_dim=64)
    params = init_params(model, np.random.default_rng(33))
    state = AdamState.zeros(params)
    state.grad_vec[...] = np.random.default_rng(34).normal(size=state.grad_vec.size)
    config = TrainConfig()
    adam_step(state, config)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        adam_step(state, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < state.param_vec.nbytes
    assert state.t == 2


def test_nonfinite_gradient_leaves_every_parameter_untouched():
    # "a.w" fills the first chunk, so a check made chunk by chunk, like one
    # made parameter by parameter, would already have moved it; the error
    # names the first bad parameter in sorted order
    sizes = {"a.w": ADAM_CHUNK, "b.w": 3, "c.w": 3, "d.w": 3}
    params = {name: leaf(np.full(n, 0.5)) for name, n in sizes.items()}
    state = AdamState.zeros(params)
    config = TrainConfig()
    state.grad_vec[...] = 1.0
    adam_step(state, config)
    before = [a.copy() for a in (state.param_vec, state.m_vec, state.v_vec)]
    state.grad_vec[...] = 1.0
    params["d.w"].grad[0] = np.nan
    params["c.w"].grad[2] = np.inf
    with pytest.raises(TrainError, match="'c.w'"):
        adam_step(state, config)
    for now, then in zip((state.param_vec, state.m_vec, state.v_vec), before):
        assert np.array_equal(now, then)
    assert state.t == 1


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    config = tiny_model()
    rng = np.random.default_rng(5)
    params = init_params(config, rng)
    opt = AdamState.zeros(params)
    for name in opt.m:
        opt.m[name] += rng.normal(size=opt.m[name].shape)
        opt.v[name] += rng.random(size=opt.v[name].shape)
    opt.t = 17
    rng.normal(size=100)  # advance so the stored state is nontrivial
    ck = Checkpoint(
        params=params,
        opt=opt,
        epoch=7,
        rng_state=rng.bit_generator.state,
        model=config,
        seed=5,
    )
    path = tmp_path / "ck.ldvt"
    save_checkpoint(path, ck)
    assert path.read_bytes()[:4] == b"LDVT"
    loaded = load_checkpoint(path)
    assert loaded.epoch == 7
    assert loaded.seed == 5
    assert loaded.opt.t == 17
    assert loaded.model.to_dict() == config.to_dict()
    assert loaded.rng_state == ck.rng_state
    assert set(loaded.params) == set(params)
    for name in params:
        assert np.array_equal(loaded.params[name].data, params[name].data)
        assert loaded.params[name].requires_grad
        assert np.array_equal(loaded.opt.m[name], opt.m[name])
        assert np.array_equal(loaded.opt.v[name], opt.v[name])


def test_checkpoint_rejects_foreign_and_truncated_files(tmp_path):
    bad = tmp_path / "bad.ldvt"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(TrainError, match="magic"):
        load_checkpoint(bad)

    config = tiny_model()
    params = init_params(config, np.random.default_rng(0))
    ck = Checkpoint(
        params=params,
        opt=AdamState.zeros(params),
        epoch=0,
        rng_state=np.random.default_rng(0).bit_generator.state,
        model=config,
        seed=0,
    )
    good = tmp_path / "good.ldvt"
    save_checkpoint(good, ck)
    trunc = tmp_path / "trunc.ldvt"
    trunc.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
    with pytest.raises(TrainError):
        load_checkpoint(trunc)


class _FailingFile:
    """A binary file that raises once a quarter of ``size`` bytes went through."""

    def __init__(self, fh, size):
        self.fh, self.budget = fh, size // 4

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(bytes(data)[: self.budget])
            raise OSError("no space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("artifact", ["checkpoint", "log"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, artifact):
    scene = tiny_scene()
    fit(tiny_train_config(epochs=1), scene, tmp_path)
    later, _ = fit(tiny_train_config(epochs=2), scene, tmp_path / "later")
    target = tmp_path / ("checkpoint.ldvt" if artifact == "checkpoint" else "train_log.csv")
    before = target.read_bytes()
    listing = sorted(p.name for p in tmp_path.iterdir())
    fdopen = os.fdopen
    monkeypatch.setattr(
        os, "fdopen", lambda fd, *args, **kw: _FailingFile(fdopen(fd, *args, **kw), len(before))
    )
    with pytest.raises(OSError, match="no space"):
        if artifact == "checkpoint":
            save_checkpoint(target, later)
        else:
            _write_log(target, [_log_row(0, LossBreakdown(1.0, 2.0, 3.0, 4.0, 10.0, 0.5))] * 3)
    monkeypatch.undo()
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing
    assert load_checkpoint(tmp_path / "checkpoint.ldvt").epoch == 1


def test_checkpoint_save_copies_no_tensor(tmp_path):
    """save_checkpoint writes each tensor from its own buffer: its peak
    stays below the bytes of the largest tensor (dec1.w2, 1.87 MB), which
    a bytes copy of each payload would allocate."""
    model = smallbatch_model()
    rng = np.random.default_rng(7)
    params = init_params(model, rng)
    ck = Checkpoint(params, AdamState.zeros(params), 0, rng.bit_generator.state, model, 7)
    path = tmp_path / "ck.ldvt"
    save_checkpoint(path, ck)
    largest = max(p.data.nbytes for p in params.values())
    assert largest == params["dec1.w2"].data.nbytes
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        save_checkpoint(path, ck)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < largest, (peak - before, largest)
    loaded = load_checkpoint(path)
    for name, p in params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name


# ---------------------------------------------------------------------------
# train_epoch


def test_epoch_mean_recomputes_from_batch_logs():
    scene = tiny_scene()
    config = tiny_train_config(batch_size=16)
    params = init_params(config.model, np.random.default_rng(2))
    opt = AdamState.zeros(params)
    train_indices = np.arange(20)
    mean_bd, batches = train_epoch(
        params, config, scene, train_indices, opt, epoch=0, rng=np.random.default_rng(9)
    )
    assert len(batches) == 2  # 16 + 4 pixels
    sizes = np.array([16, 4])
    for term in ("recon", "kl_dirichlet", "abundance", "endmember", "total"):
        values = np.array([getattr(bd, term) for bd in batches])
        expected = float(values @ sizes) / sizes.sum()
        assert getattr(mean_bd, term) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert opt.t == 2


def test_constant_scene_with_matched_decoder_is_a_fixed_point():
    # Every pixel is the flat 0.5 spectrum and both endmember means are pinned
    # to it with near-zero spread, so any simplex mixture reproduces the input
    # and the reconstruction term starts at ~0 and must stay there.
    rng = np.random.default_rng(4)
    reflectance = np.full((6, 6, 16), 0.5)
    abundances = rng.dirichlet([1.0, 1.0], size=36).reshape(6, 6, 2)
    bundles = [
        EndmemberBundle("a", np.full(16, 0.5), [1e-4 * np.eye(8)] * 2, seg_len=8),
        EndmemberBundle("b", np.full(16, 0.5), [1e-4 * np.eye(8)] * 2, seg_len=8),
    ]
    cube = HsiCube(reflectance=reflectance, gt_abundances=abundances, gt_bundles=bundles)

    config = tiny_train_config(batch_size=64)
    params = init_params(config.model, np.random.default_rng(6))
    model = config.model
    per = model.decoder_out_per_endmember()
    c = model.bands
    params["dec1.w1"].data[...] = 0.0
    params["dec1.w2"].data[...] = 0.0
    b2 = params["dec1.b2"].data
    for k in range(model.k):
        base = k * per
        b2[base : base + c] = 0.5
        b2[base + c : base + 2 * c] = -40.0  # softplus floor: diag = eps_chol
        b2[base + 2 * c : base + per] = 0.0

    opt = AdamState.zeros(params)
    rng_train = np.random.default_rng(7)
    for epoch in range(3):
        mean_bd, _ = train_epoch(
            params, config, cube, np.arange(36), opt, epoch, rng_train
        )
        assert mean_bd.recon < 1e-6


def test_batch_gradient_is_mean_of_single_sample_gradients():
    config = tiny_model()
    params = init_params(config, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    patches = rng.random((3, 1, 1, 16))
    x = patches[:, 0, 0, :]
    z_gt = rng.dirichlet([1.0, 1.0], size=3)
    weights = LossWeights()
    reference = reference_blocks(toy_bundles())

    with Tape() as tape:
        heads = forward(patches, params, config)
        noise = NoiseCache.draw(heads.alpha_hat.data, config.bands, np.random.default_rng(14))
        sampled = sample_reconstruction(heads, params, config, noise)
        total, _ = compute_losses(heads, sampled, x, z_gt, reference, weights, epoch=0)
        for p in params.values():
            p.grad[...] = 0.0
        backward(total, tape)
    batch_grads = {name: p.grad.copy() for name, p in params.items()}
    noise = sampled.noise

    summed = {name: np.zeros_like(p.data) for name, p in params.items()}
    for i, row in enumerate(noise.split(3)):
        with Tape() as tape:
            heads_i = forward(patches[i : i + 1], params, config)
            sampled_i = sample_reconstruction(heads_i, params, config, noise=row)
            total_i, _ = compute_losses(
                heads_i, sampled_i, x[i : i + 1], z_gt[i : i + 1], reference, weights, epoch=0
            )
            for p in params.values():
                p.grad[...] = 0.0
            backward(total_i, tape)
        for name, p in params.items():
            summed[name] += p.grad
    for name in params:
        np.testing.assert_allclose(
            batch_grads[name], summed[name] / 3.0, rtol=1e-9, atol=1e-13,
            err_msg=f"batch gradient diverges from per-sample mean for {name}",
        )


def test_every_parameter_receives_gradient_after_first_step():
    # The refinement MLP's input-side weights sit behind a zero-initialized
    # output layer, so their gradients only light up once that layer has
    # taken its first Adam step; two batches are enough for every parameter.
    scene = tiny_scene(seed=21)
    config = tiny_train_config(batch_size=18)
    params = init_params(config.model, np.random.default_rng(22))
    opt = AdamState.zeros(params)
    train_epoch(
        params, config, scene, np.arange(36), opt, epoch=0,
        rng=np.random.default_rng(23),
    )
    assert opt.t == 2
    for name, p in params.items():
        assert np.abs(p.grad).max() > 0.0, f"no gradient reached {name}"


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_artifacts_and_is_bit_deterministic(tmp_path):
    scene = tiny_scene()
    config = tiny_train_config()
    _, log_a = fit(config, scene, tmp_path / "a")
    _, log_b = fit(config, scene, tmp_path / "b")
    bytes_a = (tmp_path / "a" / "checkpoint.ldvt").read_bytes()
    bytes_b = (tmp_path / "b" / "checkpoint.ldvt").read_bytes()
    assert bytes_a == bytes_b
    lines = log_a.read_text().strip().splitlines()
    assert lines[0] == "epoch,recon,kl_dirichlet,abundance,endmember,lambda_em,total"
    assert len(lines) == 1 + config.epochs
    first_row = lines[1].split(",")
    assert first_row[0] == "0"
    assert all(np.isfinite(float(v)) for v in first_row[1:])


def test_fit_at_full_bundle_weight_stays_finite_and_lowers_the_bundle_kl(tmp_path):
    """anneal_epochs=1 weights the bundle KL by 1 from epoch 1 on, where the
    other fits keep it near 1e-6, so its gradient drives the decoder: every
    term stays finite and the bundle KL falls by more than ten times."""
    scene = synth_scene(SceneConfig(height=12, width=12, bands=24, seg_len=8),
                        np.random.default_rng(0))
    config = TrainConfig(
        epochs=30, batch_size=16, learning_rate=2e-3,
        model=ModelConfig(patch=1, bands=24, k=3, seg_len=8, d=8, layers=1, heads=2, ff_dim=8),
        loss_weights=LossWeights(anneal_epochs=1),
    )
    _, log = fit(config, scene, tmp_path)
    rows = np.array([line.split(",") for line in log.read_text().splitlines()[1:]], dtype=float)
    assert np.isfinite(rows).all()
    endmember, lambda_em = rows[:, 4], rows[:, 5]
    assert (lambda_em[1:] == 1.0).all()
    assert endmember[-1] < 0.1 * endmember[0]


@pytest.mark.parametrize("first", [2, 0], ids=["from-epoch-2", "from-epoch-0"])
def test_fit_resume_matches_uninterrupted_run(tmp_path, first):
    """A fresh fit is a resume from its initial state, so resuming the
    epoch-0 checkpoint of a 0-epoch run retraces a fresh fit too."""
    scene = tiny_scene()
    full = tiny_train_config(epochs=4)
    fit(full, scene, tmp_path / "full")

    half = tiny_train_config(epochs=first)
    fit(half, scene, tmp_path / "half")
    resumed = tiny_train_config(epochs=4)
    final, _ = fit(
        resumed, scene, tmp_path / "resumed", resume=tmp_path / "half" / "checkpoint.ldvt"
    )
    assert final.epoch == 4
    for name in ("checkpoint.ldvt", "train_log.csv"):
        assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "resumed" / name).read_bytes()


def test_fit_resumed_in_place_keeps_the_earlier_log_rows(tmp_path):
    """A 1-epoch run resumed to 2 epochs in its own directory writes the
    same log and checkpoint bytes as an uninterrupted 2-epoch run."""
    scene = tiny_scene()
    fit(tiny_train_config(epochs=2), scene, tmp_path / "full")
    fit(tiny_train_config(epochs=1), scene, tmp_path / "run")
    fit(tiny_train_config(epochs=2), scene, tmp_path / "run",
        resume=tmp_path / "run" / "checkpoint.ldvt")
    for name in ("train_log.csv", "checkpoint.ldvt"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_fit_epochs_zero_equals_initialization(tmp_path):
    scene = tiny_scene()
    config = tiny_train_config(epochs=0)
    final, log_path = fit(config, scene, tmp_path)
    reference = init_params(config.model, np.random.default_rng(config.seed))
    assert set(final.params) == set(reference)
    for name in reference:
        assert np.array_equal(final.params[name].data, reference[name].data)
    assert final.opt.t == 0
    assert final.epoch == 0
    assert log_path.read_text().strip().splitlines() == [
        "epoch,recon,kl_dirichlet,abundance,endmember,lambda_em,total"
    ]


def test_fit_requires_ground_truth(tmp_path):
    bare = HsiCube(reflectance=tiny_scene().reflectance.copy())
    with pytest.raises(TrainError, match="ground-truth"):
        fit(tiny_train_config(), bare, tmp_path)


def test_fit_rejects_model_data_mismatch(tmp_path):
    scene = tiny_scene()
    config = tiny_train_config(model=ModelConfig(patch=1, bands=24, k=2, seg_len=8, d=8, layers=1, heads=2, ff_dim=8))
    with pytest.raises(TrainError, match="bands"):
        fit(config, scene, tmp_path)


def test_fit_rejects_a_prior_of_the_wrong_length_before_writing(tmp_path):
    """A prior with one entry per endmember is part of a valid config, so a
    prior of another length stops fit before it writes the log or the
    epoch-0 checkpoint."""
    config = tiny_train_config(loss_weights=LossWeights(alpha_prior=np.ones(3)))
    with pytest.raises(LossError, match="does not match K=2"):
        fit(config, tiny_scene(), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_fit_rejects_resume_with_different_model(tmp_path):
    scene = tiny_scene()
    config = tiny_train_config(epochs=1)
    fit(config, scene, tmp_path / "run")
    other = tiny_train_config(epochs=2, model=ModelConfig(patch=3, bands=16, k=2, seg_len=8, d=8, layers=1, heads=2, ff_dim=8))
    with pytest.raises(TrainError, match="different model"):
        fit(other, scene, tmp_path / "resume", resume=tmp_path / "run" / "checkpoint.ldvt")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_divergence_keeps_last_good_checkpoint(tmp_path):
    scene = tiny_scene()
    config = tiny_train_config(epochs=4, learning_rate=1e200)
    with pytest.raises(TrainError, match="aborted at epoch"):
        fit(config, scene, tmp_path)
    kept = load_checkpoint(tmp_path / "checkpoint.ldvt")
    assert kept.epoch < 4
    for name, p in kept.params.items():
        assert np.isfinite(p.data).all(), f"retained checkpoint has bad values in {name}"
    log_lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
    assert len(log_lines) == 1 + kept.epoch


@pytest.mark.parametrize(
    "error, message",
    [
        (TrainError, "^aborted at epoch 2: injected failure; last good checkpoint"),
        (RuntimeError, "^injected failure$"),
        (KeyboardInterrupt, "^injected failure$"),
    ],
    ids=["train-error", "runtime-error", "keyboard-interrupt"],
)
def test_abort_keeps_the_state_of_the_last_completed_epoch(tmp_path, monkeypatch, error, message):
    # three batches an epoch; the second step of epoch 2 moves the parameters
    # and then fails, so the kept checkpoint and log must be those of a
    # two-epoch run, untouched by the steps epoch 2 took. A TrainError
    # becomes the abort message; any other exception passes through as it is
    scene = tiny_scene()
    config = tiny_train_config(epochs=4, batch_size=6)
    fit(dataclasses.replace(config, epochs=2), scene, tmp_path / "two")
    real_step = train_module.adam_step

    def failing_step(state, cfg):
        real_step(state, cfg)
        if state.t == 8:
            raise error("injected failure")

    monkeypatch.setattr(train_module, "adam_step", failing_step)
    with pytest.raises(error, match=message):
        fit(config, scene, tmp_path / "run")
    for artifact in ("checkpoint.ldvt", "train_log.csv"):
        assert (tmp_path / "run" / artifact).read_bytes() == (
            tmp_path / "two" / artifact
        ).read_bytes()


def test_interrupted_checkpoint_save_resumes_to_the_uninterrupted_bytes(tmp_path, monkeypatch):
    """Each epoch appends its row to the log, then writes the checkpoint. A
    KeyboardInterrupt in epoch 2's checkpoint save leaves the log one row
    ahead of the two-epoch checkpoint; the resume drops that row and
    retraces the uninterrupted run byte for byte."""
    scene = tiny_scene()
    config = tiny_train_config(epochs=4)
    fit(config, scene, tmp_path / "full")
    real_save = train_module.save_checkpoint

    def interrupted_save(path, ck):
        if ck.epoch == 3:
            raise KeyboardInterrupt("injected interrupt")
        real_save(path, ck)

    monkeypatch.setattr(train_module, "save_checkpoint", interrupted_save)
    with pytest.raises(KeyboardInterrupt):
        fit(config, scene, tmp_path / "run")
    monkeypatch.undo()
    kept = tmp_path / "run" / "checkpoint.ldvt"
    assert load_checkpoint(kept).epoch == 2
    log_rows = (tmp_path / "run" / "train_log.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in log_rows] == ["0", "1", "2"]
    fit(config, scene, tmp_path / "run", resume=kept)
    for name in ("checkpoint.ldvt", "train_log.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


@pytest.mark.parametrize(
    "keep", [1, 7, -1], ids=["inside-epoch-digits", "inside-a-float", "inside-the-last-float"]
)
def test_log_torn_mid_row_resumes_to_the_uninterrupted_bytes(tmp_path, keep):
    """A kill while epoch 11's row is appended leaves the 11-epoch checkpoint
    and the log with that row torn. Cut inside its epoch digits, "11" leaves
    "1", which must not pass for epoch 1's row, hence the 12-epoch run; cut
    elsewhere, the row lacks fields or names epoch 11. The resume drops it
    and retraces the uninterrupted run byte for byte."""
    scene = tiny_scene()
    fit(tiny_train_config(epochs=12), scene, tmp_path / "full")
    fit(tiny_train_config(epochs=11), scene, tmp_path / "run")
    last = (tmp_path / "full" / "train_log.csv").read_text().splitlines()[-1]
    assert last.startswith("11,0.")
    with open(tmp_path / "run" / "train_log.csv", "a") as log:
        log.write(last[:keep])
    kept = tmp_path / "run" / "checkpoint.ldvt"
    fit(tiny_train_config(epochs=12), scene, tmp_path / "run", resume=kept)
    for name in ("checkpoint.ldvt", "train_log.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_fit_writes_the_whole_log_once_and_then_appends(tmp_path, monkeypatch):
    """Rewriting the log every epoch costs time in its length, so a run of
    E epochs would take time in E squared; the whole log is written once."""
    scene = tiny_scene()
    calls = []
    real_write = train_module._write_log

    def counting_write(path, rows):
        calls.append(len(rows))
        real_write(path, rows)

    monkeypatch.setattr(train_module, "_write_log", counting_write)
    fit(tiny_train_config(epochs=3), scene, tmp_path / "run")
    assert calls == [0]
    fit(tiny_train_config(epochs=5), scene, tmp_path / "run",
        resume=tmp_path / "run" / "checkpoint.ldvt")
    assert calls == [0, 3]
    assert len((tmp_path / "run" / "train_log.csv").read_text().splitlines()) == 1 + 5


def test_small_batch_fit_peaks_under_eight_parameter_vectors(tmp_path):
    """tracemalloc's peak over a two-epoch fit of the fit_smallbatch
    benchmark's model at batch 8, in parameter vectors of 2.12 MiB. The
    fit keeps the parameters, gradients and both Adam moments once, as
    four vectors, and writes them to disk after every epoch; holding a
    second copy of all four as the last good state, it peaked at 11."""
    scene = synth_scene(
        SceneConfig(height=8, width=8, bands=96, k=4, dirichlet_alpha=[20.0] * 4),
        np.random.default_rng(3),
    )
    config = TrainConfig(
        epochs=2, batch_size=8, seed=3, model=smallbatch_model(),
        split=SplitSpec(train_fraction=0.5, seed=3),
    )
    vector = 8 * sum(math.prod(shape) for _, shape in param_shapes(config.model))
    tracemalloc.start()
    try:
        fit(config, scene, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * vector, peak / vector


def test_epoch_totals_regression_on_standard_scene(tmp_path):
    """Fifty epochs on the default scene, seed 0, with the desk-scale model.

    The frozen endpoints were recorded from the training log of a seed-0 run
    of exactly this configuration; they pin the whole optimization pipeline
    (scene synthesis, noise replay, loss assembly, Adam) down to float
    accumulation order."""
    scene = synth_scene(SceneConfig(), np.random.default_rng(0))
    model = ModelConfig(
        patch=3, bands=48, k=3, seg_len=16, d=32, layers=4, heads=16, ff_dim=64
    )
    config = TrainConfig(
        epochs=50,
        batch_size=128,
        learning_rate=2e-4,
        seed=0,
        model=model,
        split=SplitSpec(train_fraction=0.2, seed=0),
    )
    _, log_path = fit(config, scene, tmp_path)
    rows = log_path.read_text().strip().splitlines()[1:]
    totals = [float(line.split(",")[-1]) for line in rows]
    assert len(totals) == 50
    assert totals[49] < totals[0] / 10
    assert totals[0] == pytest.approx(1.2984077471136388, rel=1e-9)
    assert totals[49] == pytest.approx(0.08960814008948922, rel=1e-9)


def warm_criterion_7_epoch():
    """A function that runs the second epoch of a criterion-7 fit at batch
    128, two 64-row shards per step, after running the first."""
    scene = synth_scene(SceneConfig(), np.random.default_rng(0))
    model = ModelConfig(patch=3, bands=48, k=3, seg_len=16, d=32, layers=4, heads=16, ff_dim=64)
    config = TrainConfig(batch_size=128, seed=3, model=model, split=SplitSpec(train_fraction=0.2))
    params = init_params(model, np.random.default_rng(config.seed))
    opt, rng = AdamState.zeros(params), np.random.default_rng(config.seed)
    train = split_pixels(scene.n_pixels, config.split).train_indices
    train_epoch(params, config, scene, train, opt, 0, rng)
    return lambda: train_epoch(params, config, scene, train, opt, 1, rng)


def test_warm_epoch_takes_few_page_faults():
    """A criterion-7 epoch at batch 128 reuses the memory of the epoch
    before it. With glibc's dynamic mmap threshold, every attention vjp
    mapped its block buffers afresh, and an epoch took about 12,000 minor
    page faults."""
    if not keep_freed_memory():
        pytest.skip("no glibc mallopt to fix the malloc thresholds with")
    import resource

    second_epoch = warm_criterion_7_epoch()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    second_epoch()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_criterion_7_shard_peaks_at_most_17_mib():
    """tracemalloc's peak over one 64-row criterion-7 shard's forward,
    losses and backward, warm, with its heads held throughout. The encoder
    records keep only what costs a kernel's pass to rebuild, backward frees
    each record once its vjp has run, and attention's vjp writes its
    projection's cotangent over the projection. With every record held to
    the end of backward, and each keeping all its kernels' vjps read, the
    shard peaked at 34.7 MiB; with the first layer norm's rows kept and a
    second projection-sized buffer in attention's vjp, at 18.2 MiB."""
    scene = synth_scene(SceneConfig(), np.random.default_rng(0))
    model = ModelConfig(patch=3, bands=48, k=3, seg_len=16, d=32, layers=4, heads=16, ff_dim=64)
    params = init_params(model, np.random.default_rng(3))
    rows = np.random.default_rng(4).permutation(scene.n_pixels)[: train_module.SHARD_ROWS]
    patches = PatchSource(scene, model.patch).batch(rows)
    x, z = scene.pixels()[rows], scene.abundance_pixels()[rows]
    reference = reference_blocks(scene.gt_bundles)

    def shard():
        with Tape() as tape:
            heads = forward(patches, params, model)
            noise = NoiseCache.draw(heads.alpha_hat.data, model.bands, np.random.default_rng(5))
            sampled = sample_reconstruction(heads, params, model, noise=noise)
            total, _ = compute_losses(heads, sampled, x, z, reference, LossWeights(), 0)
            backward(total, tape)

    shard()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        shard()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 17 * 2**20, (peak - before) / 2**20


def test_criterion_7_epoch_on_one_core_peaks_at_most_26_mib(monkeypatch):
    """tracemalloc's peak above a warm criterion-7 epoch's start at batch
    128, whose two 64-row shards run one after the other, as on one core.
    Each shard's heads and draws are freed as their records pop, before the
    encoder's vjps run; with both shards' heads held until the next step's
    forward passes had run, and the leaner encoder records and attention
    vjp not yet in, the epoch peaked at 30.8 MiB."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    second_epoch = warm_criterion_7_epoch()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        second_epoch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 26 * 2**20, (peak - before) / 2**20


# ---------------------------------------------------------------------------
# sharded steps


def _first_step(config, scene, batch):
    """Gradient, breakdown and rng state after one step over pixels 0..batch-1."""
    params = init_params(config.model, np.random.default_rng(4))
    opt = AdamState.zeros(params)
    rng = np.random.default_rng(5)
    _, logs = train_epoch(params, config, scene, np.arange(batch), opt, 0, rng)
    return opt.grad_vec.copy(), logs[0], rng.bit_generator.state


@pytest.mark.parametrize("batch", [128, 77])
def test_sharded_step_matches_one_shard(monkeypatch, batch):
    scene = tiny_scene(height=12, width=12)
    config = tiny_train_config(batch_size=batch)
    assert batch > train_module.SHARD_ROWS
    grad, bd, state = _first_step(config, scene, batch)
    monkeypatch.setattr(train_module, "SHARD_ROWS", batch)
    one_grad, one_bd, one_state = _first_step(config, scene, batch)
    np.testing.assert_allclose(grad, one_grad, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        dataclasses.astuple(bd), dataclasses.astuple(one_bd), rtol=1e-12, atol=0.0
    )
    assert state == one_state


def test_one_shard_step_is_the_unsharded_step_bit_for_bit():
    """A batch of at most SHARD_ROWS rows runs the pass the loop made before
    batches were sharded: forward, sampling from the rng, losses, backward."""
    scene = tiny_scene(height=12, width=12)
    batch = train_module.SHARD_ROWS
    config = tiny_train_config(batch_size=batch)
    grad, bd, state = _first_step(config, scene, batch)

    params = init_params(config.model, np.random.default_rng(4))
    opt = AdamState.zeros(params)
    rng = np.random.default_rng(5)
    idx = rng.permutation(np.arange(batch))
    with Tape() as tape:
        heads = forward(PatchSource(scene, config.model.patch).batch(idx), params, config.model)
        noise = NoiseCache.draw(heads.alpha_hat.data, config.model.bands, rng)
        sampled = sample_reconstruction(heads, params, config.model, noise)
        total, want = compute_losses(
            heads, sampled, scene.pixels()[idx], scene.abundance_pixels()[idx],
            reference_blocks(scene.gt_bundles), config.loss_weights, 0,
        )
        backward(total, tape)
    assert np.array_equal(grad, opt.grad_vec)
    assert bd == want
    assert state == rng.bit_generator.state


def _shard_scene_and_config(**overrides):
    # 144 training pixels in batches of 127 and 17: the first batch runs as
    # shards of 64 and 63 rows, the second as one shard
    scene = tiny_scene(height=12, width=12)
    config = tiny_train_config(
        batch_size=127, split=SplitSpec(train_fraction=1.0, seed=1), **overrides
    )
    return scene, config


def test_sharded_fit_gives_the_same_bytes_on_any_number_of_workers(tmp_path, monkeypatch):
    """Batches of 140 run as three shards of 47, 47 and 46 rows: on one
    worker, on the default pool, and on more workers than shards switching
    threads as often as the interpreter allows."""
    scene = tiny_scene(height=12, width=12)
    config = tiny_train_config(
        epochs=2, batch_size=140, split=SplitSpec(train_fraction=1.0, seed=1)
    )
    fit(config, scene, tmp_path / "pool")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    fit(config, scene, tmp_path / "one")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fit(config, scene, tmp_path / "crowded")
    finally:
        sys.setswitchinterval(interval)
    for name in ("checkpoint.ldvt", "train_log.csv"):
        pooled = (tmp_path / "pool" / name).read_bytes()
        assert (tmp_path / "one" / name).read_bytes() == pooled
        assert (tmp_path / "crowded" / name).read_bytes() == pooled


def test_small_batch_fit_gives_the_same_bytes_at_one_and_two_blas_threads(tmp_path, blas_at_two):
    """Batches of 8 run as one shard, inline; held at one BLAS thread like
    the pool's shards, a fit's bytes do not depend on the thread count the
    process was started with. Two epochs of the fit_smallbatch benchmark's
    configuration: 96 bands, K=4, 26 steps per epoch."""
    scene = synth_scene(
        SceneConfig(bands=96, k=4, dirichlet_alpha=[20.0] * 4), np.random.default_rng(3)
    )
    config = TrainConfig(
        epochs=2, batch_size=8, seed=3, model=smallbatch_model(),
        split=SplitSpec(train_fraction=0.2, seed=3),
    )
    fit(config, scene, tmp_path / "two")
    blas._openblas()[1](1)
    fit(config, scene, tmp_path / "one")
    for name in ("checkpoint.ldvt", "train_log.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class _ShardWatch:
    """compute_losses that raises NumericError for the shard of ``rows`` rows
    in epoch 1 and lets every other shard finish slowly, counting the
    calls still running."""

    def __init__(self, rows):
        self.rows, self.running, self.lock = rows, 0, threading.Lock()

    def __call__(self, heads, sampled, x, *rest):
        with self.lock:
            self.running += 1
        try:
            if rest[-1] == 1:
                if x.shape[0] == self.rows:
                    raise NumericError("injected non-finite loss")
                time.sleep(0.1)  # still running when the failing shard raises
            return compute_losses(heads, sampled, x, *rest)
        finally:
            with self.lock:
                self.running -= 1


def test_shard_error_aborts_the_fit_and_leaves_nothing_running(tmp_path, monkeypatch):
    scene, config = _shard_scene_and_config(epochs=3)
    fit(dataclasses.replace(config, epochs=1), scene, tmp_path / "one-epoch")
    calls = blas._openblas()
    before = calls[0]() if calls else None
    if calls:
        calls[1](2)  # so that a hold left in place would show
    watch = _ShardWatch(rows=63)
    monkeypatch.setattr(train_module, "compute_losses", watch)
    try:
        with pytest.raises(TrainError, match="aborted at epoch 1: injected") as caught:
            fit(config, scene, tmp_path / "run")
        assert isinstance(caught.value.__cause__, NumericError)
        assert watch.running == 0
        if calls:
            assert calls[0]() == 2
    finally:
        if calls:
            calls[1](before)
    for name in ("checkpoint.ldvt", "train_log.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (
            tmp_path / "one-epoch" / name
        ).read_bytes()
    assert load_checkpoint(tmp_path / "run" / "checkpoint.ldvt").epoch == 1
    monkeypatch.undo()
    final, _ = fit(config, scene, tmp_path / "after")
    assert final.epoch == config.epochs


def test_shard_error_gives_the_one_shard_json_line(tmp_path, monkeypatch, capsys):
    """The train command fails the same way whether the error comes from
    the second shard of a batch or from the batch run as one shard."""
    scene, config = _shard_scene_and_config()
    save_cube(scene, tmp_path / "scene")
    train_json = tmp_path / "train.json"
    train_json.write_text(json.dumps({
        "epochs": 3, "batch_size": 127, "seed": config.seed,
        "model": dataclasses.asdict(config.model),
        "split": {"train_fraction": 1.0, "seed": 1},
    }))

    def train(rows):
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        monkeypatch.setattr(train_module, "compute_losses", _ShardWatch(rows))
        rc = main(["train", "--data", str(tmp_path / "scene"), "--out", str(tmp_path / "out"),
                   "--config", str(train_json)])
        return rc, capsys.readouterr().err

    sharded = train(rows=63)
    monkeypatch.setattr(train_module, "SHARD_ROWS", 127)
    assert sharded == train(rows=127)
    assert sharded[0] == 1
    (line,) = sharded[1].splitlines()
    error = json.loads(line)
    assert error["error"] == "TrainError"
    assert error["message"].startswith("aborted at epoch 1: injected non-finite loss")
