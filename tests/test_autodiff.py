"""Backward-pass contracts and finite-difference validation of every primitive."""

import numpy as np
import pytest

import reference_ops as ref
from reference_ops import finite_diff_check
from unmix_ldvae import numcore as nc
from unmix_ldvae.numcore import ShapeError, Tape, Tensor, backward

GRAD_TOL = 1e-4


def weighted(out, w):
    """Reduce an op output to a scalar with fixed weights so every output
    coordinate contributes to the gradient."""
    return nc.sum_reduce(nc.multiply(out, Tensor(w)))


def _w(shape, seed=99):
    return np.random.default_rng(seed).standard_normal(shape)


def _pos(shape, seed):
    return np.random.default_rng(seed).uniform(0.5, 3.0, shape)


def _x(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def gradient_cases():
    """(name, objective, base_point) triples covering each primitive and each
    differentiable argument slot."""
    cases = []
    other = _pos((3, 4), 1)
    vec = _pos((4,), 2)

    cases.append(("add_lhs", lambda t: weighted(nc.add(t, Tensor(other)), _w((3, 4))), _x((3, 4), 3)))
    cases.append(("add_rhs_broadcast", lambda t: weighted(nc.add(Tensor(other), t), _w((3, 4))), _x((4,), 4)))
    cases.append(("subtract_lhs", lambda t: weighted(nc.subtract(t, Tensor(other)), _w((3, 4))), _x((3, 4), 5)))
    cases.append(("subtract_rhs", lambda t: weighted(nc.subtract(Tensor(other), t), _w((3, 4))), _x((3, 4), 6)))
    cases.append(("multiply_lhs", lambda t: weighted(nc.multiply(t, Tensor(other)), _w((3, 4))), _x((3, 4), 7)))
    cases.append(("multiply_rhs_broadcast", lambda t: weighted(nc.multiply(Tensor(other), t), _w((3, 4))), _x((4,), 8)))
    cases.append(("divide_num", lambda t: weighted(nc.divide(t, Tensor(other)), _w((3, 4))), _x((3, 4), 9)))
    cases.append(("divide_den", lambda t: weighted(nc.divide(Tensor(other), t), _w((3, 4))), _pos((3, 4), 10)))
    cases.append(("negate", lambda t: weighted(ref.negate(t), _w((3, 4))), _x((3, 4), 11)))

    m_b = _x((4, 5), 12)
    cases.append(("matmul_lhs", lambda t: weighted(nc.matmul(t, Tensor(m_b)), _w((3, 5))), _x((3, 4), 13)))
    m_a = _x((3, 4), 14)
    cases.append(("matmul_rhs", lambda t: weighted(nc.matmul(Tensor(m_a), t), _w((3, 5))), _x((4, 5), 15)))
    bat = _x((2, 3, 4), 16)
    cases.append(
        ("matmul_shared_weight", lambda t: weighted(nc.matmul(Tensor(bat), t), _w((2, 3, 5))), _x((4, 5), 17))
    )
    wb = _x((2, 4, 5), 18)
    cases.append(
        ("matmul_batched_lhs", lambda t: weighted(nc.matmul(t, Tensor(wb)), _w((2, 3, 5))), _x((2, 3, 4), 19))
    )

    cases.append(
        ("transpose", lambda t: weighted(ref.transpose(t, (2, 0, 1)), _w((4, 2, 3))), _x((2, 3, 4), 20))
    )
    cases.append(("reshape", lambda t: weighted(nc.reshape(t, (2, 6)), _w((2, 6))), _x((3, 4), 21)))
    tail = _x((2, 2), 22)
    cases.append(
        ("concat_first", lambda t: weighted(nc.concat([t, Tensor(tail)], axis=0), _w((5, 2))), _x((3, 2), 23))
    )
    cases.append(
        ("concat_second", lambda t: weighted(nc.concat([Tensor(tail), t], axis=0), _w((5, 2))), _x((3, 2), 24))
    )
    cases.append(
        ("slice", lambda t: weighted(nc.slice_(t, (slice(1, None), slice(None, None, 2))), _w((2, 2))), _x((3, 4), 25))
    )

    cases.append(("exp", lambda t: weighted(ref.exp(t), _w((3, 4))), _x((3, 4), 26)))
    cases.append(("log", lambda t: weighted(nc.log(t), _w((3, 4))), _pos((3, 4), 27)))
    cases.append(("sqrt", lambda t: weighted(ref.sqrt(t), _w((3, 4))), _pos((3, 4), 28)))
    cases.append(("softplus", lambda t: weighted(nc.softplus(t), _w((3, 4))), _x((3, 4), 29)))
    relu_base = _x((3, 4), 30)
    relu_base = np.where(np.abs(relu_base) < 0.1, 0.5, relu_base)  # keep clear of the kink
    cases.append(("relu", lambda t: weighted(nc.relu(t), _w((3, 4))), relu_base))
    cases.append(("lgamma", lambda t: weighted(nc.lgamma(t), _w((3, 4))), _pos((3, 4), 31)))
    cases.append(("digamma", lambda t: weighted(nc.digamma(t), _w((3, 4))), _pos((3, 4), 32)))

    cases.append(("softmax", lambda t: weighted(ref.softmax(t, axis=-1), _w((3, 4))), _x((3, 4), 33)))
    ln_gain = _pos((6,), 34)
    ln_bias = _x((6,), 35)
    cases.append(
        (
            "layer_norm_x",
            lambda t: weighted(nc.layer_norm(t, Tensor(ln_gain), Tensor(ln_bias)), _w((4, 6))),
            _x((4, 6), 36),
        )
    )
    ln_x = _x((4, 6), 37)
    cases.append(
        (
            "layer_norm_gain",
            lambda t: weighted(nc.layer_norm(Tensor(ln_x), t, Tensor(ln_bias)), _w((4, 6))),
            _pos((6,), 38),
        )
    )
    cases.append(
        (
            "layer_norm_bias",
            lambda t: weighted(nc.layer_norm(Tensor(ln_x), Tensor(ln_gain), t), _w((4, 6))),
            _x((6,), 39),
        )
    )

    spread = np.array([[0.1, 1.4, -2.0, 0.6], [3.0, -1.0, 2.2, 0.4], [-0.5, 0.9, 1.7, -1.2]])
    cases.append(("max_reduce", lambda t: weighted(nc.max_reduce(t, axis=1), _w((3,))), spread))
    cases.append(("sum_reduce", lambda t: weighted(nc.sum_reduce(t, axis=(0, 2)), _w((3,))), _x((2, 3, 4), 40)))
    cases.append(("mean_reduce", lambda t: weighted(nc.mean_reduce(t, axis=1, keepdims=True), _w((2, 1, 4))), _x((2, 3, 4), 41)))
    cases.append(("mean_reduce_all", lambda t: nc.mean_reduce(t), _x((3, 4), 42)))

    tri_off = _x((2, 3), 43)
    cases.append(
        (
            "tril_blocks_diag",
            lambda t: weighted(nc.tril_blocks(t, Tensor(tri_off), [3]), _w((2, 1, 3, 3))),
            _pos((2, 3), 44),
        )
    )
    tri_diag = _pos((2, 3), 45)
    cases.append(
        (
            "tril_blocks_off",
            lambda t: weighted(nc.tril_blocks(Tensor(tri_diag), t, [3]), _w((2, 1, 3, 3))),
            _x((2, 3), 46),
        )
    )
    return cases


@pytest.mark.parametrize("name,objective,base", gradient_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_primitive_gradients_match_central_differences(name, objective, base):
    err = finite_diff_check(objective, Tensor(base), 1e-5)
    assert err < GRAD_TOL, f"{name}: relative gradient error {err:.3e}"


def test_diamond_graph_sums_both_paths():
    with Tape() as tape:
        x = Tensor(3.0, requires_grad=True)
        u = nc.multiply(x, x)
        z = nc.add(u, u)
        backward(z, tape)
    assert x.grad == pytest.approx(4.0 * 3.0)


def test_repeated_input_accumulates():
    with Tape() as tape:
        x = Tensor(np.array([2.0, 5.0]), requires_grad=True)
        y = nc.sum_reduce(nc.multiply(x, x))
        backward(y, tape)
    np.testing.assert_allclose(x.grad, [4.0, 10.0])


def test_unreached_leaf_keeps_zero_grad():
    with Tape() as tape:
        x = Tensor(1.0, requires_grad=True)
        y = Tensor(1.0, requires_grad=True)
        z = nc.multiply(x, 2.0)
        backward(z, tape)
    assert y.grad == 0.0
    assert x.grad == 2.0


def test_matmul_identity_left_gives_unit_grads():
    with Tape() as tape:
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        y = nc.sum_reduce(nc.matmul(a, b))
        backward(y, tape)
    np.testing.assert_allclose(b.grad, np.ones((2, 2)))


def test_backward_rejects_non_scalar_root():
    with Tape() as tape:
        x = Tensor(np.ones(3), requires_grad=True)
        y = nc.multiply(x, 2.0)
        with pytest.raises(ShapeError, match="scalar"):
            backward(y, tape)


def test_backward_without_tape_raises():
    x = Tensor(1.0, requires_grad=True)
    with pytest.raises(RuntimeError, match="tape"):
        backward(x)


def test_leaf_grads_accumulate_across_tapes():
    x = Tensor(2.0, requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            y = nc.multiply(x, x)
            backward(y, tape)
    assert x.grad == pytest.approx(8.0)
    x.zero_grad()
    assert x.grad == 0.0


def test_gradients_flow_through_long_chain():
    with Tape() as tape:
        x = Tensor(0.7, requires_grad=True)
        y = nc.log(ref.exp(ref.sqrt(nc.softplus(x))))
        backward(y, tape)
    err = finite_diff_check(lambda t: nc.log(ref.exp(ref.sqrt(nc.softplus(t)))), Tensor(0.7))
    assert err < GRAD_TOL
    assert np.isfinite(x.grad)


def test_constant_objective_reports_zero_error():
    err = finite_diff_check(lambda t: Tensor(5.0), Tensor(np.ones(3)))
    assert err == 0.0


def test_finite_diff_check_flags_non_finite():
    def bad(t):
        return nc.sum_reduce(nc.log(t))

    with np.errstate(invalid="ignore"):
        with pytest.raises(nc.NumericError):
            finite_diff_check(bad, Tensor(np.array([1e-6, 1.0])), h=1e-5)


# ---------------------------------------------------------------------------
# tape contract: buffers only on leaves, no cotangents for constants, and
# pending cotangents never updated in place


def test_backward_leaves_intermediates_without_buffers():
    x_arr = np.array([[0.5, -1.0, 2.0], [1.5, 0.3, -0.7]])
    w_arr = np.array([[1.0, -2.0], [0.5, 0.25], [-1.0, 3.0]])
    with Tape() as tape:
        x = Tensor(x_arr, requires_grad=True)
        w = Tensor(w_arr, requires_grad=True)
        y = nc.matmul(x, w)
        loss = nc.sum_reduce(nc.multiply(y, y))
        backward(loss, tape)
    assert len(tape) == 3
    assert all(rec.output.requires_grad and rec.output.grad is None for rec in tape.records)
    y_arr = x_arr @ w_arr
    np.testing.assert_allclose(x.grad, 2.0 * y_arr @ w_arr.T, rtol=1e-14)
    np.testing.assert_allclose(w.grad, 2.0 * x_arr.T @ y_arr, rtol=1e-14)


@pytest.mark.parametrize("op", ["add", "subtract", "multiply", "divide", "matmul"])
@pytest.mark.parametrize("constant_slot", [0, 1])
def test_vjp_gives_no_cotangent_for_a_constant(op, constant_slot):
    rng = np.random.default_rng(7)
    arrays = [0.5 + rng.random((2, 2)), 0.5 + rng.random((2, 2))]
    with Tape() as tape:
        inputs = [Tensor(a, requires_grad=i != constant_slot) for i, a in enumerate(arrays)]
        getattr(nc, op)(*inputs)
    (rec,) = tape.records
    grads = rec.vjp(np.ones((2, 2)))
    assert grads[constant_slot] is None
    assert grads[1 - constant_slot].shape == (2, 2)


def test_shared_cotangents_are_not_mutated_in_place():
    """add(u, u) hands one array to both slots, and add(z, v) hands one array
    to z and v; z then gets a second contribution before v is consumed, so
    updating z's pending cotangent in place would corrupt v's."""
    x_arr = np.array([0.2, -0.4, 0.9])
    c_arr = np.array([1.5, -2.0, 0.5])
    w_arr = np.array([0.7, 1.1, -0.3])
    with Tape() as tape:
        x = Tensor(x_arr, requires_grad=True)
        u = ref.exp(x)
        z = nc.add(u, u)
        v = nc.multiply(x, Tensor(c_arr))
        q = nc.multiply(z, z)
        p = nc.add(z, v)
        loss = nc.add(nc.sum_reduce(q), nc.sum_reduce(nc.multiply(p, Tensor(w_arr))))
        backward(loss, tape)
    e = np.exp(x_arr)
    np.testing.assert_allclose(x.grad, 8.0 * e * e + 2.0 * w_arr * e + w_arr * c_arr, rtol=1e-14)
