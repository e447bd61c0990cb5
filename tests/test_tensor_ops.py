"""Forward semantics, shape validation and tape behavior of the primitives."""

import numpy as np
import pytest

from unmix_ldvae import numcore as nc
from unmix_ldvae.numcore import ShapeError, Tape, Tensor


def test_tensor_defaults_to_float64_and_no_grad():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.grad is None and not t.requires_grad


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


def test_incompatible_broadcast_raises_shape_error():
    with pytest.raises(ShapeError, match="add"):
        nc.add(Tensor(np.ones(3)), Tensor(np.ones(4)))


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
        nc.transpose(Tensor(np.ones((2, 3))), axes=(0, 0))


def test_reshape_rejects_bad_size():
    with pytest.raises(ShapeError, match="reshape"):
        nc.reshape(Tensor(np.ones(6)), (4, 2))


def test_concat_and_slice_roundtrip():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(6.0, 12.0).reshape(2, 3)
    cat = nc.concat([Tensor(a), Tensor(b)], axis=1)
    np.testing.assert_array_equal(cat.data[:, :3], a)
    np.testing.assert_array_equal(cat[:, 3:].data, b)


def test_softplus_at_zero_is_log_two():
    out = nc.softplus(Tensor(0.0))
    assert out.data == pytest.approx(np.log(2.0), abs=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((64, 9)) * 10.0
    out = nc.softmax(Tensor(x), axis=-1)
    sums = out.data.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert np.all(out.data >= 0.0)


def test_softmax_handles_large_logits():
    out = nc.softmax(Tensor(np.array([1000.0, 1000.0, -1000.0])))
    assert np.isfinite(out.data).all()
    assert out.data[:2] == pytest.approx([0.5, 0.5])


def test_layer_norm_standardizes_before_scale_shift():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((32, 16)) * 4.0 + 2.0
    width = x.shape[-1]
    out = nc.layer_norm(Tensor(x), Tensor(np.ones(width)), Tensor(np.zeros(width)))
    mean = out.data.mean(axis=-1)
    var = out.data.var(axis=-1)
    assert np.max(np.abs(mean)) < 1e-10
    assert np.max(np.abs(var - 1.0)) < 1e-8


def test_layer_norm_applies_scale_and_shift():
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    gain = np.array([2.0, 2.0, 2.0, 2.0])
    bias = np.array([1.0, 1.0, 1.0, 1.0])
    out = nc.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    plain = nc.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, plain.data * 2.0 + 1.0)


def test_layer_norm_rejects_wrong_param_width():
    with pytest.raises(ShapeError, match="layer_norm"):
        nc.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_max_reduce_takes_elementwise_max_over_axis():
    x = np.array([[1.0, 5.0], [4.0, 2.0], [3.0, 3.0]])
    out = nc.max_reduce(Tensor(x), axis=0)
    np.testing.assert_array_equal(out.data, [4.0, 5.0])


def test_max_reduce_needs_integer_axis():
    with pytest.raises(ShapeError):
        nc.max_reduce(Tensor(np.ones((2, 2))), axis=None)


def test_mean_and_sum_reduce_match_numpy():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4, 5))
    np.testing.assert_allclose(nc.mean_reduce(Tensor(x)).data, x.mean())
    np.testing.assert_allclose(nc.sum_reduce(Tensor(x), axis=(0, 2)).data, x.sum(axis=(0, 2)))
    np.testing.assert_allclose(
        nc.mean_reduce(Tensor(x), axis=1, keepdims=True).data, x.mean(axis=1, keepdims=True)
    )


def test_tril_compose_builds_lower_triangular():
    diag = Tensor(np.array([1.0, 2.0, 3.0]))
    off = Tensor(np.array([4.0, 5.0, 6.0]))
    out = nc.tril_compose(diag, off, 3).data
    expected = np.array([[1.0, 0.0, 0.0], [4.0, 2.0, 0.0], [5.0, 6.0, 3.0]])
    np.testing.assert_array_equal(out, expected)


def test_tril_compose_validates_packed_sizes():
    with pytest.raises(ShapeError, match="tril_compose"):
        nc.tril_compose(Tensor(np.ones(3)), Tensor(np.ones(2)), 3)


def test_lgamma_of_four_is_log_six():
    assert nc.lgamma(Tensor(4.0)).data == pytest.approx(np.log(6.0), abs=1e-12)


def test_lgamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        nc.lgamma(Tensor(-1.0))


def test_operator_sugar_matches_functions():
    x = Tensor(np.array([1.0, 2.0]))
    y = Tensor(np.array([3.0, 4.0]))
    np.testing.assert_array_equal((x + y).data, [4.0, 6.0])
    np.testing.assert_array_equal((x - y).data, [-2.0, -2.0])
    np.testing.assert_array_equal((x * y).data, [3.0, 8.0])
    np.testing.assert_array_equal((x / y).data, [1.0 / 3.0, 0.5])
    np.testing.assert_array_equal((-x).data, [-1.0, -2.0])
    np.testing.assert_array_equal((2.0 + x).data, [3.0, 4.0])
