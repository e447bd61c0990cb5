"""Network tests: tokenizer layout, encoder invariants, heads, decoder
structure, sampling paths and end-to-end gradients on a toy configuration.

Oracles: finite differences for every parameter group (holding all sampling
noise fixed), Monte-Carlo moments for the stochastic draws, and eigenvalue
checks for decoded covariance blocks.
"""

import math
import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

import reference_ops as ref
from reference_ops import finite_diff_check
from unmix_ldvae import model as model_module
from unmix_ldvae.cli import main
from unmix_ldvae.data import (
    BundleSpec,
    PatchSource,
    SceneConfig,
    make_scene_bundles,
    save_cube,
    synth_scene,
)
from unmix_ldvae.losses import kl_bundle, kl_dirichlet, reference_blocks
from unmix_ldvae.model import (
    DecodedBundles,
    ModelConfig,
    ModelError,
    NoiseCache,
    alpha_head,
    decode_bundles,
    dirichlet_mean,
    encode_batch,
    forward,
    init_params,
    predict_cube,
    reconstruct,
    sample_abundances,
    sample_endmembers,
    sample_reconstruction,
    segment_patch_values,
    tokenize_batch,
)
from unmix_ldvae.numcore import ShapeError, Tape, Tensor, backward, blas, draw_gamma_noise, ops
from unmix_ldvae.train import AdamState, Checkpoint, save_checkpoint

GRAD_TOL = 1e-4


def toy_config():
    return ModelConfig(patch=1, bands=8, k=2, seg_len=4, d=8, layers=1, heads=2, ff_dim=8)


def drawn_reconstruction(heads, params, config, seed):
    """``sample_reconstruction`` with the draws of ``NoiseCache.draw`` on a
    fresh generator of ``seed``, as a training step makes them."""
    noise = NoiseCache.draw(heads.alpha_hat.data, config.bands, np.random.default_rng(seed))
    return sample_reconstruction(heads, params, config, noise)


def small_config():
    return ModelConfig(patch=3, bands=20, k=3, seg_len=8, d=16, layers=2, heads=4, ff_dim=32)


# ---------------------------------------------------------------------------
# config


def test_config_token_count_arithmetic():
    config = ModelConfig(patch=3, bands=156, k=4, seg_len=12, d=48, heads=16, layers=4)
    assert config.n_tokens == 9 * 13
    config = ModelConfig(patch=1, bands=16, k=2, seg_len=16, d=32, heads=16)
    assert config.n_tokens == 1


def test_config_rejects_bad_values():
    with pytest.raises(ModelError):
        ModelConfig(patch=2).validate()
    with pytest.raises(ModelError):
        ModelConfig(d=30, heads=16).validate()
    with pytest.raises(ModelError):
        ModelConfig(layers=0).validate()
    with pytest.raises(ModelError):
        ModelConfig(k=1).validate()
    with pytest.raises(ModelError):
        ModelConfig(eps_alpha=0.0).validate()


def test_decoder_output_width_formula():
    config = ModelConfig(patch=1, bands=32, k=3, seg_len=16, d=16, heads=4)
    tri = 16 * 17 // 2
    assert config.decoder_out_per_endmember() == 32 + 2 * tri
    # truncated tail segment contributes its own smaller triangle
    config = ModelConfig(patch=1, bands=20, k=3, seg_len=16, d=16, heads=4)
    assert config.decoder_out_per_endmember() == 2 * 20 + 16 * 15 // 2 + 4 * 3 // 2


# ---------------------------------------------------------------------------
# tokenizer


def test_token_layout_row_major_pixels_ascending_segments():
    config = ModelConfig(patch=3, bands=5, k=2, seg_len=2, d=4, heads=2)
    rng = np.random.default_rng(0)
    patch = rng.random((1, 3, 3, 5))
    raw = segment_patch_values(patch, config)
    assert raw.shape == (1, 27, 2)
    # token for pixel (1, 2), segment 1 sits at index (1*3+2)*3 + 1
    np.testing.assert_array_equal(raw[0, (1 * 3 + 2) * 3 + 1], patch[0, 1, 2, 2:4])
    # final segment of each pixel carries the zero pad
    assert raw[0, 2, 1] == 0.0
    np.testing.assert_array_equal(raw[0, 2, 0], patch[0, 0, 0, 4])


def test_zero_patch_projects_to_bias():
    config = toy_config()
    params = init_params(config, np.random.default_rng(0))
    tokens = tokenize_batch(np.zeros((2, 1, 1, 8)), params, config)
    expected = np.broadcast_to(params["tok.b"].data, tokens.shape)
    np.testing.assert_allclose(tokens.data, expected, atol=0)


def test_tokenize_rejects_wrong_patch_shape():
    config = toy_config()
    params = init_params(config, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        tokenize_batch(np.zeros((2, 3, 3, 8)), params, config)


# ---------------------------------------------------------------------------
# encoder


def test_single_token_latent_equals_hidden_state():
    config = ModelConfig(patch=1, bands=8, k=2, seg_len=8, d=8, layers=1, heads=2, ff_dim=8)
    assert config.n_tokens == 1
    params = init_params(config, np.random.default_rng(1))
    tokens = tokenize_batch(np.random.default_rng(2).random((1, 1, 1, 8)), params, config)
    x_latent = encode_batch(tokens, params, config)
    layer = (params[f"enc0.{name}"] for name in model_module.LAYER_PARAMS)
    h = ops.encoder_layer(ops.add(tokens, params["pos"]), *layer, config.heads)
    assert h.shape == (1, 1, config.d) and x_latent.shape == (1, config.d)
    np.testing.assert_array_equal(x_latent.data[0], h.data[0, 0])


def test_residual_only_encoder_is_permutation_invariant():
    config = small_config()
    params = init_params(config, np.random.default_rng(3))
    for i in range(config.layers):
        for name in (f"enc{i}.attn.wo", f"enc{i}.attn.bo", f"enc{i}.ffn.w2", f"enc{i}.ffn.b2"):
            params[name] = Tensor(np.zeros_like(params[name].data), requires_grad=True)
    params["pos"] = Tensor(np.zeros_like(params["pos"].data), requires_grad=True)
    rng = np.random.default_rng(4)
    tokens = rng.random((2, config.n_tokens, config.d))
    perm = rng.permutation(config.n_tokens)
    base = encode_batch(Tensor(tokens), params, config)
    shuffled = encode_batch(Tensor(tokens[:, perm]), params, config)
    np.testing.assert_array_equal(base.data, shuffled.data)


def composed_attention(x, wq, wk, wv, wo, bq, bv, bo, heads):
    """Test oracle for the attention kernel (``ref.attention`` records it):
    the same layer assembled from single-purpose primitives, one tape record
    per step."""
    b, s, d = x.shape
    e = d // heads

    def split(t):
        return ref.transpose(ops.reshape(t, (b, s, heads, e)), (0, 2, 1, 3))

    q = split(ops.add(ops.matmul(x, wq), bq))
    k = split(ops.matmul(x, wk))
    v = split(ops.add(ops.matmul(x, wv), bv))
    scores = ops.multiply(ops.matmul(q, ref.transpose(k, (0, 1, 3, 2))), Tensor(1.0 / math.sqrt(e)))
    attn = ref.softmax(scores, axis=-1)
    merged = ops.reshape(ref.transpose(ops.matmul(attn, v), (0, 2, 1, 3)), (b, s, d))
    return ops.add(ops.matmul(merged, wo), bo)


def test_attention_rows_sum_to_one(monkeypatch):
    """The attention kernel of every encoder layer equals the composed
    oracle, whose softmax rows lie on the simplex."""
    config = small_config()
    params = init_params(config, np.random.default_rng(5))
    tokens = Tensor(np.random.default_rng(6).random((2, config.n_tokens, config.d)))
    attn_maps = []
    kernel, softmax = ops._attention, ref.softmax

    def capture(*args, **kwargs):
        out = softmax(*args, **kwargs)
        attn_maps.append(out)
        return out

    def checked(*args):
        out, vjp = kernel(*args)
        with monkeypatch.context() as patch:
            patch.setattr(ref, "softmax", capture)
            reference = composed_attention(*args)
        np.testing.assert_allclose(out, reference.data, rtol=1e-12, atol=1e-12)
        return out, vjp

    monkeypatch.setattr(ops, "_attention", checked)
    encode_batch(tokens, params, config)
    assert len(attn_maps) == config.layers
    for attn in attn_maps:
        assert attn.shape == (2, config.heads, config.n_tokens, config.n_tokens)
        assert attn.data.min() >= 0.0
        sums = attn.data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-12


def attention_score_bound(x, wq, wk, bq, heads):
    """The bound on |score| that the attention kernel compares with
    ``ATTENTION_EXP_BOUND``: e * max|q| * max|k|, with q scaled by 1/sqrt(e)."""
    e = x.shape[-1] // heads
    q = (x @ wq + bq) / math.sqrt(e)
    return e * np.abs(q).max() * np.abs(x @ wk).max()


def attention_arrays(rng, b, s, d, spread):
    """Tokens at ``spread`` times unit scale and the seven projection weights."""
    return (
        [spread * rng.standard_normal((b, s, d))]
        + [rng.standard_normal((d, d)) / math.sqrt(d) for _ in range(4)]
        + [rng.standard_normal(d) for _ in range(3)]
    )


def layer_and_grads(layer, arrays, weights, heads):
    """Output and the input gradients of sum(layer(...) * weights)."""
    with Tape() as tape:
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = layer(*inputs, heads)
        backward(ops.sum_reduce(ops.multiply(out, weights)), tape)
    return out.data, [t.grad for t in inputs]


@pytest.mark.parametrize(
    "b,s,d,heads,spread,block_rows",
    [
        pytest.param(3, 5, 8, 2, 1.0, None, id="3-5-8-2"),
        pytest.param(2, 4, 6, 1, 1.0, None, id="2-4-6-1"),
        pytest.param(3, 5, 8, 2, 12.0, None, id="3-5-8-2-row-max-shift"),
        pytest.param(5, 5, 8, 2, 1.0, 2, id="5-5-8-2-blocks-of-2"),
        # one feature per head: each (head, sample) slice of q, k and v is a single row
        pytest.param(3, 5, 4, 4, 1.0, None, id="3-5-4-4-heads-equal-width"),
        pytest.param(1, 5, 8, 2, 1.0, None, id="1-5-8-2-one-sample"),
        # the fit_smallbatch shape, in blocks of 2, 2 and 1 rows
        pytest.param(5, 54, 32, 8, 1.0, 2, id="5-54-32-8-ragged-blocks"),
    ],
)
def test_fused_attention_matches_composed_oracle(monkeypatch, b, s, d, heads, spread, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(ops, "ATTENTION_BLOCK_BYTES", block_rows * heads * s * s * 8)
    rng = np.random.default_rng(b * 100 + heads)
    arrays = attention_arrays(rng, b, s, d, spread)
    x, wq, wk, _, _, bq, _, _ = arrays
    shifted = attention_score_bound(x, wq, wk, bq, heads) > ops.ATTENTION_EXP_BOUND
    assert shifted == (spread > 1.0)
    weights = Tensor(rng.standard_normal((b, s, d)))
    fused_out, fused_grads = layer_and_grads(ref.attention, arrays, weights, heads)
    ref_out, ref_grads = layer_and_grads(composed_attention, arrays, weights, heads)
    np.testing.assert_allclose(fused_out, ref_out, rtol=1e-12, atol=1e-12)
    for name, got, want in zip(("x", "wq", "wk", "wv", "wo", "bq", "bv", "bo"), fused_grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("spread", [1.0, 12.0], ids=["raw-exp", "row-max-shift"])
def test_attention_blocks_are_bit_identical(monkeypatch, spread):
    """Splitting the batch into blocks, the last one ragged, changes no bit of
    the output or of any gradient. Each block runs one exp in the forward and
    one in the vjp's recompute, which counts the blocks."""
    b, s, d, heads = 5, 5, 8, 2
    rng = np.random.default_rng(55)
    arrays = attention_arrays(rng, b, s, d, spread)
    x, wq, wk, _, _, bq, _, _ = arrays
    shifted = attention_score_bound(x, wq, wk, bq, heads) > ops.ATTENTION_EXP_BOUND
    assert shifted == (spread > 1.0)
    weights = Tensor(rng.standard_normal((b, s, d)))
    exp = np.exp
    results = []
    # two rows per block: blocks of 2, 2 and 1
    for budget, n_exp in ((ops.ATTENTION_BLOCK_BYTES, 2 * 1), (2 * heads * s * s * 8, 2 * 3)):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return exp(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(ops, "ATTENTION_BLOCK_BYTES", budget)
            patch.setattr(np, "exp", counted)
            results.append(layer_and_grads(ref.attention, arrays, weights, heads))
        assert len(calls) == n_exp
    (one_out, one_grads), (split_out, split_grads) = results
    assert (split_out == one_out).all()
    for name, got, want in zip(("x", "wq", "wk", "wv", "wo", "bq", "bv", "bo"), split_grads, one_grads):
        assert (got == want).all(), name


def composed_layer(x, ln1_g, ln1_b, *rest):
    """Test oracle for ``ops.encoder_layer``: the pre-norm layer as the
    records of its kernels and primitives, one per step."""
    *attn, ln2_g, ln2_b, w1, b1, w2, b2, heads = rest
    x = ops.add(x, ref.attention(ref.layer_norm(x, ln1_g, ln1_b), *attn, heads))
    hidden = ops.relu(ops.linear(ref.layer_norm(x, ln2_g, ln2_b), w1, b1))
    return ops.add(x, ops.linear(hidden, w2, b2))


LAYER_NAMES = ("x", "ln1.g", "ln1.b", "wq", "wk", "wv", "wo", "bq", "bv", "bo",
               "ln2.g", "ln2.b", "w1", "b1", "w2", "b2")


@pytest.mark.parametrize(
    "b,s,d,heads,spread,block_rows",
    [
        pytest.param(3, 5, 8, 2, 1.0, None, id="3-5-8-2"),
        pytest.param(2, 4, 6, 1, 1.0, None, id="2-4-6-1"),
        pytest.param(3, 5, 8, 2, 12.0, None, id="3-5-8-2-row-max-shift"),
        pytest.param(5, 5, 8, 2, 1.0, 2, id="5-5-8-2-blocks-of-2"),
        pytest.param(3, 5, 4, 4, 1.0, None, id="3-5-4-4-heads-equal-width"),
        pytest.param(1, 5, 8, 2, 1.0, None, id="1-5-8-2-one-sample"),
        pytest.param(5, 54, 32, 8, 1.0, 2, id="5-54-32-8-ragged-blocks"),
    ],
)
def test_encoder_layer_equals_its_composed_records(monkeypatch, b, s, d, heads, spread, block_rows):
    """The one-record layer gives the output and all 16 gradients of the
    records it replaces, bit for bit. ``spread`` scales the first layer
    norm's gain, and so the scores, past the row-max shift's bound."""
    if block_rows is not None:
        monkeypatch.setattr(ops, "ATTENTION_BLOCK_BYTES", block_rows * heads * s * s * 8)
    rng = np.random.default_rng(b * 100 + heads)
    x, *attn = attention_arrays(rng, b, s, d, 1.0)
    ff = 2 * d
    arrays = [
        x, spread * (1.0 + 0.1 * rng.standard_normal(d)), 0.1 * rng.standard_normal(d), *attn,
        1.0 + 0.1 * rng.standard_normal(d), 0.1 * rng.standard_normal(d),
        rng.standard_normal((d, ff)) / math.sqrt(d), rng.standard_normal(ff),
        rng.standard_normal((ff, d)) / math.sqrt(ff), rng.standard_normal(d),
    ]
    normed = ref.layer_norm(Tensor(x), Tensor(arrays[1]), Tensor(arrays[2])).data
    wq, wk, _, _, bq, _, _ = attn
    shifted = attention_score_bound(normed, wq, wk, bq, heads) > ops.ATTENTION_EXP_BOUND
    assert shifted == (spread > 1.0)
    weights = Tensor(rng.standard_normal((b, s, d)))
    fused_out, fused_grads = layer_and_grads(ops.encoder_layer, arrays, weights, heads)
    ref_out, ref_grads = layer_and_grads(composed_layer, arrays, weights, heads)
    assert (fused_out == ref_out).all()
    assert len(fused_grads) == len(LAYER_NAMES)
    for name, got, want in zip(LAYER_NAMES, fused_grads, ref_grads):
        assert (got == want).all(), name


def test_encoder_layer_is_one_tape_record():
    config = small_config()
    params = init_params(config, np.random.default_rng(7))
    tokens = Tensor(np.random.default_rng(8).random((2, config.n_tokens, config.d)))
    with Tape() as tape:
        encode_batch(tokens, params, config)
    recorded = [rec.op for rec in tape.records]
    assert recorded == ["add", *["encoder_layer"] * config.layers, "max_reduce"]


def criterion_7_forward_bytes(record: bool):
    """tracemalloc's traced bytes held after, and peaking during, the
    forward of 64 patches through the criterion-7 model, on a tape or not."""
    config = ModelConfig(patch=3, bands=48, k=3, seg_len=16, d=32, layers=4, heads=16, ff_dim=64)
    params = init_params(config, np.random.default_rng(9))
    patches = np.random.default_rng(10).random((64, 3, 3, 48))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        with Tape() if record else nullcontext() as tape:
            heads = forward(patches, params, config)
        held, peak = tracemalloc.get_traced_memory()  # with the tape and heads alive
    finally:
        tracemalloc.stop()
    return held - before, peak - before


def test_encoder_layer_forward_tape_holds_at_most_10_mib():
    """A 64-row criterion-7 shard's forward tape keeps only what costs a
    kernel's pass to rebuild. With a record per layer norm, attention, add,
    linear and relu it held 31 MiB; with one record per layer that kept
    everything its kernels' vjps read, 22.5 MiB; keeping the first layer
    norm's rows as well, which the vjp rebuilds from the layer input,
    10.7 MiB."""
    held, _ = criterion_7_forward_bytes(record=True)
    assert held <= 10 * 2**20, held / 2**20


def test_encoder_layer_without_a_tape_peaks_no_higher_than_its_records(monkeypatch):
    """With no tape, as in inference, the layer drops each kernel's vjp as
    soon as its output exists, so a forward holds no more arrays at once
    than through the composed records: its peak stays within a tenth of one
    (B * S, d) array (442 KB) of theirs, a margin for Python objects."""
    _, fused = criterion_7_forward_bytes(record=False)
    monkeypatch.setattr(ops, "encoder_layer", composed_layer)
    _, composed = criterion_7_forward_bytes(record=False)
    assert fused <= composed + 64 * 27 * 32 * 8 // 10, (fused / 2**20, composed / 2**20)


def test_encoder_rejects_wrong_sequence_length():
    config = toy_config()
    params = init_params(config, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        encode_batch(Tensor(np.zeros((1, config.n_tokens + 1, config.d))), params, config)


# ---------------------------------------------------------------------------
# concentration head and abundance sampling


def test_alpha_head_zero_params_gives_log_two():
    config = toy_config()
    params = init_params(config, np.random.default_rng(0))
    params["alpha.w"] = Tensor(np.zeros((8, 2)), requires_grad=True)
    params["alpha.b"] = Tensor(np.zeros(2), requires_grad=True)
    alpha = alpha_head(Tensor(np.random.default_rng(1).random((3, 8))), params, config)
    np.testing.assert_allclose(alpha.data, math.log(2.0) + config.eps_alpha, rtol=0, atol=1e-15)


def test_alpha_head_floor_in_saturated_limit():
    config = toy_config()
    params = init_params(config, np.random.default_rng(0))
    params["alpha.w"] = Tensor(np.zeros((8, 2)), requires_grad=True)
    params["alpha.b"] = Tensor(np.full(2, -200.0), requires_grad=True)
    alpha = alpha_head(Tensor(np.zeros((1, 8))), params, config)
    assert np.all(alpha.data >= config.eps_alpha)
    assert np.abs(alpha.data - config.eps_alpha).max() < 1e-30


def test_alpha_head_gradients_match_finite_differences():
    config = toy_config()
    params = init_params(config, np.random.default_rng(7))
    x = np.random.default_rng(8).random((2, 8))
    w = np.random.default_rng(9).random((2, 2))

    def objective(p):
        trial = dict(params)
        trial["alpha.w"] = p
        alpha = alpha_head(Tensor(x), trial, config)
        return ops.sum_reduce(ops.multiply(alpha, Tensor(w)))

    err = finite_diff_check(objective, Tensor(params["alpha.w"].data.copy(), requires_grad=True))
    assert err < 1e-6


def test_sampled_abundances_live_on_the_simplex():
    rng = np.random.default_rng(0)
    alpha = Tensor(np.abs(rng.random((500, 4))) + 0.1)
    z = sample_abundances(alpha, draw_gamma_noise(alpha.data, rng))
    assert np.all(z.data >= 0)
    assert np.abs(z.data.sum(axis=1) - 1.0).max() < 1e-12


def test_sampled_abundance_mean_matches_dirichlet():
    rng = np.random.default_rng(1)
    n = 100_000
    alpha = Tensor(np.ones((n, 3)))
    z = sample_abundances(alpha, draw_gamma_noise(alpha.data, rng))
    observed = z.data.mean(axis=0)
    # Dirichlet(1,1,1) coordinates have variance 1/18
    se = math.sqrt((1.0 / 18.0) / n)
    assert np.abs(observed - 1.0 / 3.0).max() < 3 * se


def test_extreme_concentrations_pin_the_draw():
    rng = np.random.default_rng(2)
    alpha = Tensor(np.tile([100.0, 0.01], (2000, 1)))
    z = sample_abundances(alpha, draw_gamma_noise(alpha.data, rng))
    assert z.data[:, 0].mean() > 0.99


def test_dirichlet_mean_normalizes():
    alpha = Tensor(np.array([[2.0, 1.0, 1.0]]))
    z = dirichlet_mean(alpha)
    np.testing.assert_allclose(z.data, [[0.5, 0.25, 0.25]], atol=1e-15)


# ---------------------------------------------------------------------------
# decoder


def test_zeroed_bundle_head_emits_floor_bundles():
    config = toy_config()
    params = init_params(config, np.random.default_rng(0))
    for name in ("dec1.w1", "dec1.b1", "dec1.w2", "dec1.b2"):
        params[name] = Tensor(np.zeros_like(params[name].data), requires_grad=True)
    bundles = decode_bundles(Tensor(np.random.default_rng(1).random((2, 8))), params, config)
    np.testing.assert_array_equal(bundles.means.data, np.zeros((2, 2, 8)))
    np.testing.assert_allclose(
        bundles.chol_diag.data, math.log(2.0) + config.eps_chol, rtol=0, atol=1e-15
    )
    off_diagonal = bundles.chol_blocks.data.copy()
    idx = np.arange(config.seg_len)
    off_diagonal[..., idx, idx] = 0.0
    assert np.all(off_diagonal == 0.0)


def test_decoded_covariances_are_positive_definite():
    config = small_config()
    params = init_params(config, np.random.default_rng(11))
    x = Tensor(np.random.default_rng(12).standard_normal((4, config.d)))
    bundles = decode_bundles(x, params, config)
    assert np.all(bundles.chol_diag.data > 0)
    l = bundles.chol_blocks.data
    cov = l @ np.swapaxes(l, -1, -2)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() > 0


def test_bundle_records_do_not_grow_with_the_segment_count():
    """decode_bundles, sample_endmembers and kl_bundle add the same tape
    records for 2 segments as for 6, with and without a short last one, and
    each KL term adds exactly one."""

    def bundle_ops(bands, seg_len):
        config = ModelConfig(patch=1, bands=bands, k=2, seg_len=seg_len, d=8, layers=1,
                             heads=2, ff_dim=8)
        params = init_params(config, np.random.default_rng(0))
        reference = reference_blocks(
            make_scene_bundles(SceneConfig(bands=bands, k=2, dirichlet_alpha=[1.0, 1.0],
                                           seg_len=seg_len))
        )
        rng = np.random.default_rng(1)
        latent = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        alpha = Tensor(0.5 + rng.random((3, 2)), requires_grad=True)
        with Tape() as tape:
            bundles = decode_bundles(latent, params, config)
            decoded = len(tape)
            sample_endmembers(bundles, config, eps=rng.standard_normal(bundles.means.shape))
            sampled = len(tape)
            kl_bundle(bundles, reference, alpha)
            kl_dirichlet(alpha, np.ones(2))
        ops_ = [rec.op for rec in tape.records]
        return ops_[:decoded], ops_[decoded:sampled], ops_[sampled:]

    for bands, long_seg, short_seg in ((24, 12, 4), (22, 12, 4)):
        assert len(ModelConfig(bands=bands, seg_len=long_seg).cov_segment_sizes()) == 2
        assert len(ModelConfig(bands=bands, seg_len=short_seg).cov_segment_sizes()) == 6
        assert bundle_ops(bands, long_seg) == bundle_ops(bands, short_seg)
        assert bundle_ops(bands, short_seg)[2] == ["kl_bundle", "kl_dirichlet"]


def test_endmember_draw_with_zero_factor_is_the_mean():
    means = Tensor(np.random.default_rng(0).random((3, 2, 8)))
    config = toy_config()
    bundles = DecodedBundles(
        means=means,
        chol_diag=Tensor(np.full((3, 2, 8), 1e-12)),
        chol_blocks=Tensor(np.zeros((3, 2, 2, 4, 4))),
    )
    eps = np.random.default_rng(1).standard_normal((3, 2, 8))
    drawn = sample_endmembers(bundles, config, eps=eps)
    np.testing.assert_array_equal(drawn.data, means.data)


def test_endmember_draw_covariance_matches_cholesky():
    n = 100_000
    config = ModelConfig(patch=1, bands=2, k=1, seg_len=2, d=8, heads=2, layers=1)
    l = np.array([[0.3, 0.0], [0.1, 0.2]])
    bundles = DecodedBundles(
        means=Tensor(np.zeros((n, 1, 2))),
        chol_diag=Tensor(np.tile(np.diag(l), (n, 1, 1))),
        chol_blocks=Tensor(np.tile(l, (n, 1, 1, 1, 1))),
    )
    eps = np.random.default_rng(3).standard_normal((n, 1, 2))
    drawn = sample_endmembers(bundles, config, eps=eps)
    sample_cov = np.cov(drawn.data[:, 0, :], rowvar=False)
    assert np.abs(sample_cov - l @ l.T).max() < 3e-3


def test_endmember_gradient_wrt_mean_is_identity_on_fixed_noise():
    config = toy_config()
    rng = np.random.default_rng(4)
    means = Tensor(rng.random((1, 2, 8)), requires_grad=True)
    bundles = DecodedBundles(
        means=means,
        chol_diag=Tensor(np.full((1, 2, 8), 0.1)),
        chol_blocks=Tensor(0.1 * np.tile(np.eye(4), (1, 2, 2, 1, 1))),
    )
    weights = rng.random((1, 2, 8))
    with Tape() as tape:
        eps = np.random.default_rng(5).standard_normal((1, 2, 8))
        drawn = sample_endmembers(bundles, config, eps=eps)
        loss = ops.sum_reduce(ops.multiply(drawn, Tensor(weights)))
        backward(loss, tape)
    np.testing.assert_allclose(means.grad, weights, atol=1e-15)


def test_reconstruct_identity_start_is_exact_linear_mixing():
    config = toy_config()
    params = init_params(config, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    z = rng.dirichlet([1.0, 1.0], size=4)
    e = rng.random((4, 2, 8))
    out = reconstruct(Tensor(z), Tensor(e), params)
    expected = np.einsum("bk,bkc->bc", z, e)
    np.testing.assert_allclose(out.data, expected, atol=1e-15)


def test_reconstruct_one_hot_mixes_to_single_endmember():
    config = toy_config()
    params = init_params(config, np.random.default_rng(8))
    e = np.random.default_rng(9).random((2, 2, 8))
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = reconstruct(Tensor(z), Tensor(e), params)
    np.testing.assert_allclose(out.data[0], e[0, 0], atol=1e-15)
    np.testing.assert_allclose(out.data[1], e[1, 1], atol=1e-15)


# ---------------------------------------------------------------------------
# full pipeline


def test_forward_shapes_and_invariants():
    config = small_config()
    params = init_params(config, np.random.default_rng(13))
    patches = np.random.default_rng(14).random((5, 3, 3, 20))
    heads = forward(patches, params, config)
    sampled = drawn_reconstruction(heads, params, config, 15)
    assert heads.alpha_hat.shape == (5, 3)
    assert heads.z_mean.shape == (5, 3)
    assert heads.bundles.means.shape == (5, 3, 20)
    assert sampled.z_hat.shape == (5, 3)
    assert sampled.endmembers.shape == (5, 3, 20)
    assert sampled.x_recon.shape == (5, 20)
    assert np.all(heads.alpha_hat.data >= config.eps_alpha)
    assert np.abs(sampled.z_hat.data.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(heads.z_mean.data.sum(axis=1) - 1.0).max() < 1e-9
    for value in (heads.alpha_hat, heads.z_mean, sampled.z_hat, sampled.x_recon):
        assert np.isfinite(value.data).all()


def test_forward_eval_mode_is_deterministic_and_uses_means():
    """forward draws nothing: two calls agree bit for bit, and its abundances
    are the Dirichlet mean of its concentrations."""
    config = small_config()
    params = init_params(config, np.random.default_rng(16))
    patches = np.random.default_rng(17).random((3, 3, 3, 20))
    a = forward(patches, params, config)
    b = forward(patches, params, config)
    np.testing.assert_array_equal(a.z_mean.data, b.z_mean.data)
    np.testing.assert_array_equal(a.bundles.means.data, b.bundles.means.data)
    np.testing.assert_array_equal(a.z_mean.data, dirichlet_mean(a.alpha_hat).data)


def test_forward_with_seed_is_bit_reproducible():
    config = small_config()
    params = init_params(config, np.random.default_rng(18))
    patches = np.random.default_rng(19).random((3, 3, 3, 20))
    heads = forward(patches, params, config)
    a = drawn_reconstruction(heads, params, config, 42)
    b = drawn_reconstruction(heads, params, config, 42)
    np.testing.assert_array_equal(a.z_hat.data, b.z_hat.data)
    np.testing.assert_array_equal(a.x_recon.data, b.x_recon.data)
    c = drawn_reconstruction(heads, params, config, 43)
    assert not np.array_equal(c.z_hat.data, a.z_hat.data)


def test_forward_replays_exactly_from_noise_cache():
    config = small_config()
    params = init_params(config, np.random.default_rng(20))
    patches = np.random.default_rng(21).random((3, 3, 3, 20))
    heads = forward(patches, params, config)
    first = drawn_reconstruction(heads, params, config, 0)
    replay = sample_reconstruction(heads, params, config, noise=first.noise)
    np.testing.assert_array_equal(first.z_hat.data, replay.z_hat.data)
    np.testing.assert_array_equal(first.x_recon.data, replay.x_recon.data)


def test_full_pipeline_gradients_for_every_parameter_group():
    config = toy_config()
    params = init_params(config, np.random.default_rng(22))
    rng = np.random.default_rng(23)
    patches = rng.random((2, 1, 1, 8))
    noise = drawn_reconstruction(forward(patches, params, config), params, config, 24).noise
    w_recon = rng.random((2, 8))
    w_z = rng.random((2, 2))
    w_alpha = rng.random((2, 2))
    w_diag = rng.random((2, 2, 8))
    w_blocks = rng.random((2, 2, 2, 4, 4))

    def objective_for(name):
        def objective(p):
            trial = dict(params)
            trial[name] = p
            heads = forward(patches, trial, config)
            sampled = sample_reconstruction(heads, trial, config, noise=noise)
            total = ops.sum_reduce(ops.multiply(sampled.x_recon, Tensor(w_recon)))
            total = ops.add(total, ops.sum_reduce(ops.multiply(sampled.z_hat, Tensor(w_z))))
            total = ops.add(total, ops.sum_reduce(ops.multiply(heads.alpha_hat, Tensor(w_alpha))))
            total = ops.add(
                total, ops.sum_reduce(ops.multiply(heads.bundles.chol_diag, Tensor(w_diag)))
            )
            blocks = heads.bundles.chol_blocks
            return ops.add(total, ops.sum_reduce(ops.multiply(blocks, Tensor(w_blocks))))

        return objective

    for name in sorted(params):
        seed = Tensor(params[name].data.copy(), requires_grad=True)
        err = finite_diff_check(objective_for(name), seed)
        assert err < GRAD_TOL, f"gradient mismatch for {name}: {err}"


def test_predict_cube_outputs_are_clean():
    config = ModelConfig(patch=3, bands=12, k=3, seg_len=4, d=8, layers=1, heads=2, ff_dim=16)
    params = init_params(config, np.random.default_rng(25))
    scene = synth_scene(
        SceneConfig(
            height=6,
            width=5,
            bands=12,
            k=3,
            dirichlet_alpha=[1.0, 1.0, 1.0],
            bundle_spec=[
                BundleSpec(centers=[0.2], cov_scale=0.0),
                BundleSpec(centers=[0.5], cov_scale=0.0),
                BundleSpec(centers=[0.8], cov_scale=0.0),
            ],
            seg_len=4,
        ),
        np.random.default_rng(26),
    )
    prediction = predict_cube(params, config, scene, batch_size=7)
    assert prediction.abundances.shape == (30, 3)
    assert prediction.endmember_means.shape == (3, 12)
    assert prediction.chol_blocks.shape == (3, 3, 4, 4)
    assert np.abs(prediction.abundances.sum(axis=1) - 1.0).max() < 1e-9
    assert np.isfinite(prediction.endmember_means).all()
    for block in prediction.chol_blocks:
        assert np.isfinite(block).all()
        np.testing.assert_array_equal(np.triu(block, 1), 0.0)
        assert np.all(np.diagonal(block, axis1=-2, axis2=-1) > 0.0)


def test_predict_cube_blocks_are_the_pixel_mean_of_the_decoded_blocks():
    config = ModelConfig(patch=3, bands=10, k=2, seg_len=4, d=8, layers=1, heads=2, ff_dim=16)
    params = init_params(config, np.random.default_rng(27))
    scene = synth_scene(
        SceneConfig(height=4, width=5, bands=10, k=2, dirichlet_alpha=[1.0, 1.0], seg_len=4),
        np.random.default_rng(28),
    )
    indices = np.array([0, 3, 7, 11, 19])
    prediction = predict_cube(params, config, scene, indices, batch_size=2)
    patches = PatchSource(scene, config.patch).batch(indices)
    bundles = forward(patches, params, config).bundles
    assert prediction.chol_blocks.shape == (2, 3, 4, 4)
    np.testing.assert_allclose(
        prediction.chol_blocks, bundles.chol_blocks.data.mean(axis=0), rtol=1e-12, atol=1e-15
    )
    # the short last segment's padding averages to the exact identity
    np.testing.assert_array_equal(prediction.chol_blocks[:, 2, 2:], [np.eye(4)[2:]] * 2)
    np.testing.assert_allclose(
        prediction.endmember_means, bundles.means.data.mean(axis=0), rtol=1e-12, atol=1e-15
    )


def test_fewer_bands_than_seg_len_make_one_block_of_the_band_count():
    """With bands < seg_len the single segment holds all C bands, so every
    pass works on (C, C) blocks, not (seg_len, seg_len) ones."""
    config = ModelConfig(patch=1, bands=8, k=2, seg_len=16, d=8, layers=1, heads=2, ff_dim=8)
    params = init_params(config, np.random.default_rng(31))
    scene = synth_scene(
        SceneConfig(height=3, width=4, bands=8, k=2, dirichlet_alpha=[1.0, 1.0], seg_len=8),
        np.random.default_rng(32),
    )
    rng = np.random.default_rng(33)
    bundles = forward(PatchSource(scene, config.patch).batch(np.arange(5)), params, config).bundles
    assert bundles.chol_blocks.shape == (5, 2, 1, 8, 8)
    endmembers = sample_endmembers(bundles, config, eps=rng.standard_normal((5, 2, 8)))
    assert endmembers.shape == (5, 2, 8)
    kl = kl_bundle(bundles, reference_blocks(scene.gt_bundles), 0.5 + rng.random((5, 2)))
    assert np.isfinite(kl.data)
    prediction = predict_cube(params, config, scene, batch_size=5)
    assert prediction.chol_blocks.shape == (2, 1, 8, 8)
    with pytest.raises(ModelError, match="at least one pixel"):
        predict_cube(params, config, scene, np.array([], dtype=np.int64))


def test_predict_cube_stops_at_the_heads(monkeypatch, tmp_path, capsys):
    """Inference reads only the heads: with the samplers and the refinement
    MLP made to raise, predict_cube and the unmix command still succeed."""
    config = ModelConfig(patch=3, bands=12, k=3, seg_len=4, d=8, layers=1, heads=2, ff_dim=16)
    params = init_params(config, np.random.default_rng(29))
    scene = synth_scene(
        SceneConfig(height=4, width=5, bands=12, k=3, seg_len=4), np.random.default_rng(30)
    )
    save_cube(scene, tmp_path / "scene")
    checkpoint = Checkpoint(
        params=params,
        opt=AdamState.zeros(params),
        epoch=0,
        rng_state=np.random.default_rng(0).bit_generator.state,
        model=config,
        seed=0,
    )
    save_checkpoint(tmp_path / "model.ldvt", checkpoint)

    def forbidden(*args, **kwargs):
        raise AssertionError("inference reached a training-time sampler")

    for name in ("reconstruct", "sample_abundances", "sample_endmembers"):
        monkeypatch.setattr(model_module, name, forbidden)
    prediction = predict_cube(params, config, scene)
    assert np.abs(prediction.abundances.sum(axis=1) - 1.0).max() < 1e-9
    rc = main(["unmix", "--checkpoint", str(tmp_path / "model.ldvt"),
               "--data", str(tmp_path / "scene"), "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "out" / "bundles.json").exists()


def _prediction_setup():
    """A 99-pixel cube, which is not a multiple of the default batch of 32."""
    config = ModelConfig(patch=3, bands=12, k=3, seg_len=4, d=8, layers=1, heads=2, ff_dim=16)
    params = init_params(config, np.random.default_rng(41))
    scene = synth_scene(
        SceneConfig(height=9, width=11, bands=12, k=3, seg_len=4),
        np.random.default_rng(42),
    )
    return params, config, scene


@contextmanager
def _cannot_hold_blas():
    yield False


def _blas_threads():
    return blas._openblas()[0]()


@pytest.mark.parametrize("subset", [False, True], ids=["all-pixels", "indices"])
def test_predict_cube_is_bit_identical_to_one_worker(monkeypatch, subset):
    params, config, scene = _prediction_setup()
    indices = np.arange(1, scene.n_pixels, 2) if subset else None
    workers = []
    real_pool = blas._pool

    def counting_pool(cores):
        workers.append(cores)
        return real_pool(cores)

    monkeypatch.setattr(blas, "_pool", counting_pool)
    pooled = predict_cube(params, config, scene, indices)
    monkeypatch.setattr(blas, "single_blas_thread", _cannot_hold_blas)
    serial = predict_cube(params, config, scene, indices)
    cores = len(os.sched_getaffinity(0))
    # the serial run cannot hold the BLAS, so it runs inline and asks for no pool
    assert workers == ([cores] if blas._openblas() and cores > 1 else [])
    assert np.array_equal(pooled.abundances, serial.abundances)
    assert np.array_equal(pooled.endmember_means, serial.endmember_means)
    assert np.array_equal(pooled.chol_blocks, serial.chol_blocks)


def test_predict_cube_with_more_workers_than_cores_matches_one_worker(monkeypatch):
    """Eight workers over 25 batches, switching threads as often as the
    interpreter allows: a result lost or copied out of order would show."""
    params, config, scene = _prediction_setup()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = predict_cube(params, config, scene, batch_size=4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crowded = predict_cube(params, config, scene, batch_size=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(crowded.abundances, serial.abundances)
    assert np.array_equal(crowded.endmember_means, serial.endmember_means)
    assert np.array_equal(crowded.chol_blocks, serial.chol_blocks)


def test_predict_cube_holds_the_blas_at_one_thread_and_restores_it(monkeypatch, blas_at_two):
    params, config, scene = _prediction_setup()
    seen = []

    def forward_noting_threads(*args):
        seen.append(_blas_threads())
        return forward(*args)

    monkeypatch.setattr(model_module, "forward", forward_noting_threads)
    predict_cube(params, config, scene)
    assert seen == [1] * 4
    assert _blas_threads() == 2


class _BatchFailed(Exception):
    pass


def test_predict_cube_error_restores_the_blas_and_cancels_pending_batches(
    monkeypatch, blas_at_two
):
    params, config, scene = _prediction_setup()
    lock = threading.Lock()
    started = []

    def failing_forward(*args):
        with lock:
            started.append(len(started))
            call = started[-1]
        if call == 2:
            raise _BatchFailed("third batch")
        if call > 2:
            time.sleep(0.05)  # keep later batches running while the error surfaces
        return forward(*args)

    monkeypatch.setattr(model_module, "forward", failing_forward)
    with pytest.raises(_BatchFailed):
        predict_cube(params, config, scene, batch_size=4)  # 25 batches
    assert len(started) < 10
    assert _blas_threads() == 2


def test_map_on_cores_waits_for_the_running_items_when_one_raises(monkeypatch):
    """Three workers: item 1 raises while items 0 and 2 run, item 2 the
    longest. Every item started must have finished by the time the error
    reaches the caller, and the later items must not all have run."""
    if blas._openblas() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count can be set")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    lock = threading.Lock()
    started, finished = [], []

    def work(i):
        with lock:
            started.append(i)
        if i == 1:
            raise _BatchFailed("second item")
        time.sleep(0.3 if i == 2 else 0.05)
        with lock:
            finished.append(i)

    with pytest.raises(_BatchFailed):
        list(blas.map_on_cores(work, range(8)))
    with lock:
        assert sorted(finished) == sorted(set(started) - {1})
        assert 2 in finished and len(started) < 8
