"""The process's native settings and worker pool: numpy's OpenBLAS held at
one thread, so that worker threads which each make BLAS calls do not also
share the BLAS pool's threads; glibc's malloc thresholds, fixed for training;
and the pool that runs such calls one per usable core."""

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
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


@functools.cache
def keep_freed_memory() -> bool:
    """Fix glibc's mmap threshold at 32 MiB, the ceiling of its dynamic rule
    on 64-bit, and its trim threshold at twice that, as the rule keeps it:
    freed blocks up to 32 MiB then stay in the heap for the next step instead
    of being unmapped and faulted in afresh. Setting either stops glibc
    adjusting both, so both are set. Returns whether they were; False,
    changing nothing, where there is no glibc mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mmap_threshold, trim_threshold = -3, -1  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD in malloc.h
    return mallopt(mmap_threshold, 32 << 20) == 1 and mallopt(trim_threshold, 64 << 20) == 1


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


@functools.lru_cache(maxsize=1)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool, replaced when the core count changes."""
    return ThreadPoolExecutor(workers, thread_name_prefix="numcore")


def map_on_cores(fn, items):
    """Yield ``fn(item)`` for each item, in item order, computed on one
    worker thread per usable core (inline for one item or on one core) while
    the BLAS is held at one thread, until the generator ends or is closed;
    inline, holding nothing, where the BLAS cannot be held. So each item's
    BLAS calls run at one thread however many items there are. When an item
    raises, the items not yet started are cancelled and the running ones
    waited for before the error reaches the caller."""
    items = list(items)
    with single_blas_thread() as held:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if not held or min(cores, len(items)) <= 1:
            yield from map(fn, items)
            return
        pool = _pool(cores)
        futures = [pool.submit(fn, item) for item in items][::-1]
        try:
            while futures:  # popped as they are yielded, so the pool keeps no result
                yield futures.pop().result()
        finally:
            for future in futures:
                future.cancel()
            wait(futures)
