"""Minimal tensor library: reverse-mode autodiff on numpy, the in-package
gamma-family series and stacked triangular inverse of ``special`` (so
nothing here needs scipy), reparameterized gamma sampling and a
process-wide worker pool that runs BLAS-bound items one per core.

It exports only what the rest of the package calls."""

from . import special
from .blas import keep_freed_memory, map_on_cores
from .gamma import GammaNoise, draw_gamma_noise, gamma_from_noise
from .ops import (
    add,
    encoder_layer,
    linear,
    matmul,
    max_reduce,
    mean_reduce,
    multiply,
    relu,
    reshape,
    slice_,
    softplus,
    subtract,
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
    "backward",
    "draw_gamma_noise",
    "encoder_layer",
    "gamma_from_noise",
    "keep_freed_memory",
    "linear",
    "map_on_cores",
    "matmul",
    "max_reduce",
    "mean_reduce",
    "multiply",
    "relu",
    "reshape",
    "slice_",
    "softplus",
    "special",
    "subtract",
    "tril_blocks",
]
