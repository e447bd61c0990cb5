"""Forward semantics, shape validation and tape behavior of the primitives."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import reference_ops as ref
import unmix_ldvae
from unmix_ldvae import numcore as nc
from unmix_ldvae.numcore import ShapeError, Tape, Tensor


def test_tensor_defaults_to_float64_and_no_grad():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.grad is None and not t.requires_grad


def test_numcore_exports_only_what_src_uses():
    """Every export of numcore, and every public function of its ops module,
    is called by the package's modules outside numcore: primitives only tests
    need live in tests/reference_ops.py."""
    package = Path(unmix_ldvae.__file__).parent
    words = set(re.findall(r"\w+", "".join(p.read_text() for p in package.glob("*.py"))))
    primitives = {
        name for name, fn in inspect.getmembers(nc.ops, inspect.isfunction)
        if fn.__module__ == nc.ops.__name__ and not name.startswith("_")
    }
    assert primitives <= set(nc.__all__)
    assert sorted(set(nc.__all__) - words) == []


def test_tracked_tensor_allocates_zero_grad():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    assert t.grad is not None and t.grad.shape == (2, 3)
    assert np.all(t.grad == 0.0)


def test_ops_outside_tape_do_not_track():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = nc.add(x, x)
    assert not y.requires_grad
    np.testing.assert_array_equal(y.data, [2.0, 4.0])


def test_ops_inside_tape_record_and_track():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = nc.multiply(x, 3.0)
    assert y.requires_grad
    assert len(tape) == 1
    assert tape.records[0].op == "multiply"


def test_broadcasting_matches_numpy():
    a = np.arange(6.0).reshape(2, 3)
    b = np.array([10.0, 20.0, 30.0])
    np.testing.assert_array_equal(nc.add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(nc.multiply(Tensor(a), Tensor(b)).data, a * b)


@pytest.mark.parametrize("op", ["add", "subtract", "multiply"])
def test_incompatible_broadcast_raises_shape_error(op):
    with pytest.raises(ShapeError, match=rf"^{op}: shapes \(3,\) and \(4,\) do not broadcast"):
        getattr(nc, op)(Tensor(np.ones(3)), Tensor(np.ones(4)))


@pytest.mark.parametrize("op", ["softplus", "relu"])
def test_pointwise_op_records_once_under_its_name(op):
    with Tape() as tape:
        x = Tensor([0.5, 2.0], requires_grad=True)
        y = getattr(nc, op)(x)
    (rec,) = tape.records
    assert rec.op == op and rec.inputs == (x,) and rec.output is y
    assert rec.vjp(np.ones(2))[0].shape == (2,)


def test_matmul_rejects_inner_dim_mismatch():
    with pytest.raises(ShapeError, match="inner"):
        nc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_matmul_rejects_vectors():
    with pytest.raises(ShapeError, match="ndim"):
        nc.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_matmul_batched_against_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 2, 3))
    b = rng.standard_normal((3, 4))
    np.testing.assert_allclose(nc.matmul(Tensor(a), Tensor(b)).data, a @ b)


def test_identity_matmul_example():
    b = np.arange(4.0).reshape(2, 2)
    out = nc.matmul(Tensor(np.eye(2)), Tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_transpose_validates_permutation():
    with pytest.raises(ShapeError, match="permutation"):
        ref.transpose(Tensor(np.ones((2, 3))), axes=(0, 0))


def test_reshape_rejects_bad_size():
    with pytest.raises(ShapeError, match="reshape"):
        nc.reshape(Tensor(np.ones(6)), (4, 2))


def test_slice_matches_numpy_indexing():
    a = np.arange(12.0).reshape(2, 6)
    np.testing.assert_array_equal(nc.slice_(Tensor(a), (slice(None), slice(3, None))).data, a[:, 3:])


def test_softplus_at_zero_is_log_two():
    out = nc.softplus(Tensor(0.0))
    assert out.data == pytest.approx(np.log(2.0), abs=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((64, 9)) * 10.0
    out = ref.softmax(Tensor(x), axis=-1)
    sums = out.data.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert np.all(out.data >= 0.0)


def test_softmax_handles_large_logits():
    out = ref.softmax(Tensor(np.array([1000.0, 1000.0, -1000.0])))
    assert np.isfinite(out.data).all()
    assert out.data[:2] == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("logit, shifted", [(1000.0, True), (90.0, False)])
def test_attention_handles_large_logits(logit, shifted):
    # tokens, keys and values are the unit vectors and wo is the identity, so
    # the output is the attention map itself, with scores logit * pattern
    pattern = np.array([[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
    x, eye, zero = np.eye(3)[None], np.eye(3), np.zeros(3)
    wq = np.sqrt(3.0) * logit * pattern
    q = x[0] @ wq / np.sqrt(3.0)
    bound = 3 * np.abs(q).max() * np.abs(x[0] @ eye).max()
    assert (bound > nc.ops.ATTENTION_EXP_BOUND) == shifted
    with Tape() as tape:
        inputs = [Tensor(a, requires_grad=True) for a in (x, wq, eye, eye, eye, zero, zero, zero)]
        out = ref.attention(*inputs, 1)
        nc.backward(nc.mean_reduce(nc.multiply(out, Tensor(np.arange(9.0).reshape(1, 3, 3)))), tape)
    attn = out.data[0]
    assert np.isfinite(attn).all() and attn.min() >= 0.0
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12
    np.testing.assert_allclose(attn, (pattern > 0) * 0.5, rtol=0, atol=1e-12)
    assert all(np.isfinite(t.grad).all() for t in inputs)


def test_layer_norm_standardizes_before_scale_shift():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((32, 16)) * 4.0 + 2.0
    width = x.shape[-1]
    out = ref.layer_norm(Tensor(x), Tensor(np.ones(width)), Tensor(np.zeros(width)))
    mean = out.data.mean(axis=-1)
    var = out.data.var(axis=-1)
    assert np.max(np.abs(mean)) < 1e-10
    assert np.max(np.abs(var - 1.0)) < 1e-8


def test_layer_norm_applies_scale_and_shift():
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    gain = np.array([2.0, 2.0, 2.0, 2.0])
    bias = np.array([1.0, 1.0, 1.0, 1.0])
    out = ref.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    plain = ref.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, plain.data * 2.0 + 1.0)


def test_layer_norm_rejects_wrong_param_width():
    with pytest.raises(ShapeError, match="layer_norm"):
        ref.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_max_reduce_takes_elementwise_max_over_axis():
    x = np.array([[1.0, 5.0], [4.0, 2.0], [3.0, 3.0]])
    out = nc.max_reduce(Tensor(x), axis=0)
    np.testing.assert_array_equal(out.data, [4.0, 5.0])


def test_max_reduce_takes_its_argmax_only_in_the_vjp(monkeypatch):
    """Inference records no tape, so it never needs the index the vjp routes
    gradients by; on a tape the vjp takes it, and ties go to the lowest."""
    calls = []
    argmax = np.argmax
    monkeypatch.setattr(np, "argmax", lambda *a, **k: calls.append(1) or argmax(*a, **k))
    x = Tensor(np.array([[1.0, 5.0], [4.0, 5.0], [3.0, 3.0]]), requires_grad=True)
    nc.max_reduce(x, axis=0)
    assert calls == []
    with Tape() as tape:
        nc.backward(nc.mean_reduce(nc.max_reduce(x, axis=0)), tape)
    assert calls == [1]
    np.testing.assert_array_equal(x.grad, [[0.0, 0.5], [0.5, 0.0], [0.0, 0.0]])


def test_max_reduce_needs_integer_axis():
    with pytest.raises(ShapeError):
        nc.max_reduce(Tensor(np.ones((2, 2))), axis=None)


def test_mean_reduce_matches_numpy():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4, 5))
    np.testing.assert_allclose(nc.mean_reduce(Tensor(x)).data, x.mean())


def test_tril_blocks_builds_lower_triangular():
    diag = Tensor(np.array([1.0, 2.0, 3.0]))
    off = Tensor(np.array([4.0, 5.0, 6.0]))
    out = nc.tril_blocks(diag, off, [3]).data
    expected = np.array([[1.0, 0.0, 0.0], [4.0, 2.0, 0.0], [5.0, 6.0, 3.0]])
    np.testing.assert_array_equal(out, expected[None])


def test_tril_blocks_builds_its_index_once_per_sizes(monkeypatch):
    """The scatter index is cached per tuple of segment sizes and read-only,
    so the calls that share it cannot change it."""
    sizes = [4, 3, 1]  # sizes no other test uses
    diag, off = Tensor(np.arange(8.0)), Tensor(np.arange(9.0))
    first = nc.tril_blocks(diag, off, sizes).data
    calls = []
    tril_indices = np.tril_indices
    monkeypatch.setattr(np, "tril_indices", lambda *a: calls.append(1) or tril_indices(*a))
    again = nc.tril_blocks(diag, off, tuple(sizes)).data
    assert calls == [] and (again == first).all()
    index = nc.ops._tril_index(tuple(sizes))
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0] = 0


def test_tril_blocks_validates_packed_sizes():
    with pytest.raises(ShapeError, match="tril_blocks"):
        nc.tril_blocks(Tensor(np.ones(3)), Tensor(np.ones(2)), [3])


def test_tril_blocks_pads_a_short_block_with_the_identity():
    """Sizes [8, 8, 4]: each block is the packed lower triangle, the last one
    sits next to an identity pad, and the vjp reads none of the padding, so a
    cotangent that differs only there gives the same gradients."""
    sizes = [8, 8, 4]
    rng = np.random.default_rng(5)
    diag = Tensor(0.5 + rng.random((2, 20)), requires_grad=True)
    off = Tensor(rng.standard_normal((2, 28 + 28 + 6)), requires_grad=True)
    out = nc.tril_blocks(diag, off, sizes).data
    assert out.shape == (2, 3, 8, 8)
    lo = o0 = 0
    for s, m in enumerate(sizes):
        block = np.zeros((2, m, m))
        rows, cols = np.tril_indices(m, -1)
        block[:, np.arange(m), np.arange(m)] = diag.data[:, lo : lo + m]
        block[:, rows, cols] = off.data[:, o0 : o0 + rows.size]
        np.testing.assert_array_equal(out[:, s, :m, :m], block)
        lo, o0 = lo + m, o0 + rows.size
    np.testing.assert_array_equal(out[:, 2, 4:, 4:], np.broadcast_to(np.eye(4), (2, 4, 4)))
    np.testing.assert_array_equal(out[:, 2, :4, 4:], 0.0)
    np.testing.assert_array_equal(out[:, 2, 4:, :4], 0.0)

    def grads(weights):
        diag.grad[...] = 0.0
        off.grad[...] = 0.0
        with Tape() as tape:
            blocks = nc.tril_blocks(diag, off, sizes)
            nc.backward(nc.mean_reduce(nc.multiply(blocks, Tensor(weights))), tape)
        return diag.grad.copy(), off.grad.copy()

    weights = rng.standard_normal((2, 3, 8, 8))
    loud = weights.copy()
    loud[:, 2, 4:, :] = 1e6
    loud[:, 2, :, 4:] = 1e6
    for got, want in zip(grads(loud), grads(weights)):
        np.testing.assert_array_equal(got, want)
    d_grad, o_grad = grads(weights)
    scaled = weights * (1.0 / weights.size)  # the mean's cotangent times the weights
    np.testing.assert_array_equal(d_grad[:, 16:], scaled[:, 2, np.arange(4), np.arange(4)])
    rows, cols = np.tril_indices(4, -1)
    np.testing.assert_array_equal(o_grad[:, 56:], scaled[:, 2, rows, cols])


def test_lgamma_of_four_is_log_six():
    assert nc.special.lgamma(4.0) == pytest.approx(np.log(6.0), abs=1e-12)


def test_linear_rejects_bad_shapes():
    x = Tensor(np.ones((2, 3, 4)))
    w = Tensor(np.ones((4, 5)))
    bias = Tensor(np.zeros(5))
    assert nc.linear(x, w, bias).shape == (2, 3, 5)
    for args in (
        (Tensor(np.ones((2, 3, 3))), w, bias),
        (x, Tensor(np.ones((2, 4, 5))), bias),
        (x, Tensor(np.ones(4)), bias),
        (x, w, Tensor(np.zeros(4))),
        (x, w, Tensor(np.zeros((1, 5)))),
        (Tensor(1.0), w, bias),
    ):
        with pytest.raises(ShapeError, match="linear"):
            nc.linear(*args)


def test_attention_rejects_bad_shapes():
    x = Tensor(np.ones((2, 3, 4)))
    w = Tensor(np.eye(4))
    bias = Tensor(np.zeros(4))
    with pytest.raises(ShapeError, match="tokens"):
        ref.attention(Tensor(np.ones((3, 4))), w, w, w, w, bias, bias, bias, 2)
    with pytest.raises(ShapeError, match="wk"):
        ref.attention(x, w, Tensor(np.eye(3)), w, w, bias, bias, bias, 2)
    with pytest.raises(ShapeError, match="bo"):
        ref.attention(x, w, w, w, w, bias, bias, Tensor(np.zeros(3)), 2)
    with pytest.raises(ShapeError, match="heads"):
        ref.attention(x, w, w, w, w, bias, bias, bias, 3)
