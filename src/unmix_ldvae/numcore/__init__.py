"""Minimal tensor library: reverse-mode autodiff on numpy, with lgamma and
digamma primitives over scipy.special, and reparameterized gamma sampling.

It exports only what the rest of the package calls."""

from .gamma import GammaNoise, draw_gamma_noise, gamma_from_noise
from .ops import (
    add,
    attention,
    concat,
    digamma,
    divide,
    layer_norm,
    lgamma,
    linear,
    log,
    matmul,
    max_reduce,
    mean_reduce,
    multiply,
    relu,
    reshape,
    slice_,
    softplus,
    subtract,
    sum_reduce,
    tril_blocks,
)
from .tensor import NumericError, ShapeError, Tape, Tensor, backward

__all__ = [
    "GammaNoise",
    "NumericError",
    "ShapeError",
    "Tape",
    "Tensor",
    "add",
    "attention",
    "backward",
    "concat",
    "digamma",
    "divide",
    "draw_gamma_noise",
    "gamma_from_noise",
    "layer_norm",
    "lgamma",
    "linear",
    "log",
    "matmul",
    "max_reduce",
    "mean_reduce",
    "multiply",
    "relu",
    "reshape",
    "slice_",
    "softplus",
    "subtract",
    "sum_reduce",
    "tril_blocks",
]
