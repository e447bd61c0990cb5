"""Holding numpy's OpenBLAS at one thread, so that worker threads which
each make BLAS calls do not also share the BLAS pool's threads."""

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """(get, set) of the bundled OpenBLAS thread count, found on first use;
    None under another BLAS."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def single_blas_thread():
    """Yield True with the BLAS held at one thread and restore the previous
    count on exit, also on error; yield False, holding nothing, where the
    count cannot be set."""
    calls = _openblas()
    if calls is None:
        yield False
        return
    before = calls[0]()
    calls[1](1)
    try:
        yield True
    finally:
        calls[1](before)
