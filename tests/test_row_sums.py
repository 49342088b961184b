"""The row sums behind every chain mean, against numpy's own reductions.

`Chain.mean` and `chain._add_rows` (the stored chains' open pass and the
streamed long-run truth) add the rows of a chain of p >= 2 columns one
after another with `np.einsum`; these tests hold them to the bits of
`np.add.reduce(axis=0)` around numpy's SIMD widths and loop blocks, and a
single column to numpy's pairwise sum.
"""

import numpy as np
import pytest

from chainvar import Chain
from chainvar.chain import _add_rows

# n around SIMD widths and numpy's 8192-element reduction buffer; p from 2
# to 200; n * p is kept under 2**20 cells
_N = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
      255, 256, 257, 1023, 1024, 1025, 8191, 8192, 8193, 65535, 65536, 65537)
_P = (2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 33, 65, 100, 200)
_SHAPES = [(n, p) for p in _P for n in _N if n * p <= 1 << 20]


def _values(n: int, p: int, scale: float) -> np.ndarray:
    values = np.random.default_rng(n * 1000 + p).standard_normal((n, p))
    values = (values + 3.0) * scale
    values[:, 1] = -0.0  # a column of negative zeros sums to +0.0 in both
    return values


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e-300])
def test_row_sums_have_the_bits_of_add_reduce(scale):
    for n, p in _SHAPES:
        values = _values(n, p, scale)
        expected = np.add.reduce(values, axis=0)
        got = _add_rows(None, values.copy())
        assert got.tobytes() == expected.tobytes(), (n, p)
        chain = Chain(values)
        assert chain.mean.tobytes() == (expected / n).tobytes(), (n, p)
        assert chain.mean.tobytes() == values.mean(axis=0).tobytes(), (n, p)


@pytest.mark.parametrize("rows", [1, 7, 64, 1000])
def test_blocks_added_in_turn_give_the_sum_of_the_whole(rows):
    for n, p in ((1, 2), (999, 3), (5000, 12), (2049, 65)):
        values = _values(n, p, 1.0)
        total = None
        for first in range(0, n, rows):
            total = _add_rows(total, values[first:first + rows].copy())
        assert total.tobytes() == np.add.reduce(values, axis=0).tobytes(), (n, p)


def test_one_column_is_summed_pairwise():
    values = np.random.default_rng(1).standard_normal((100_000, 1)) + 3.0
    pairwise = np.add.reduce(values, axis=0)
    assert _add_rows(None, values.copy()).tobytes() == pairwise.tobytes()
    assert Chain(values).mean.tobytes() == values.mean(axis=0).tobytes()
    # a sum in row order gives other bits on this chain
    assert np.cumsum(values[:, 0])[-1] != pairwise[0]
