"""Fixtures shared by several test modules."""

import pytest

from unmix_ldvae.numcore import blas


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS at 2 threads, so that holding it at one shows."""
    calls = blas._openblas()
    if calls is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count can be set")
    get, set_ = calls
    before = get()
    set_(2)
    yield
    set_(before)
