"""Fixtures shared by the test modules."""

import pytest
import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS next to numpy's)

from chainvar import _blas


@pytest.fixture(params=[1, 2], ids=["blas1", "blas2"])
def blas_threads(request):
    """Every loaded OpenBLAS on 1, then 2 threads for the test; counts restored after."""
    controls = _blas._controls()
    if not controls and request.param != 1:
        pytest.skip("no OpenBLAS is loaded in this process")
    saved = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(request.param)
    yield request.param
    for (setter, _), count in zip(controls, saved):
        setter(count)
