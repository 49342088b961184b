"""Fixtures shared by the test modules."""

import contextlib

import pytest
import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS next to numpy's)

from chainvar import _blas


@contextlib.contextmanager
def _on_threads(count):
    """Every loaded OpenBLAS on ``count`` threads inside; counts restored after."""
    controls = _blas._controls()
    saved = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(count)
    try:
        yield
    finally:
        for (setter, _), saved_count in zip(controls, saved):
            setter(saved_count)


@pytest.fixture(params=[1, 2], ids=["blas1", "blas2"])
def blas_threads(request):
    """Every loaded OpenBLAS on 1, then 2 threads for the test; counts restored after."""
    if not _blas._controls() and request.param != 1:
        pytest.skip("no OpenBLAS is loaded in this process")
    with _on_threads(request.param):
        yield request.param


@pytest.fixture
def on_blas_threads():
    """``on_blas_threads(count)``: a block with every loaded OpenBLAS on
    ``count`` threads, for a test that compares thread counts itself."""
    return _on_threads
