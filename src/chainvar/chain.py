"""Chains of recorded multivariate sampler output, with CSV and binary persistence."""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

_HEADER_DTYPE = np.dtype("<u8")
_VALUE_DTYPE = np.dtype("<f8")
_HEADER_BYTES = 16

FORMATS = ("csv", "bin")


class ChainFormatError(ValueError):
    """A chain file does not match its declared layout."""


class NonFiniteValueError(ValueError):
    """Chain values contain a NaN or an infinity."""


def _check_finite(arr: np.ndarray) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteValueError(
            f"non-finite value {float(arr[i, j])} at row {int(i)}, column c{int(j) + 1}"
        )


class Chain:
    """Immutable n-by-p record of multivariate sampler output.

    Row i holds the values recorded at iteration i, so row order is
    iteration order.  Entries are validated to be finite on construction
    and the backing array is locked read-only; a chain can therefore be
    shared freely across threads.

    One-dimensional input is treated as a single-column chain.
    """

    __slots__ = ("_values", "_mean")

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        self._lock(arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Chain":
        """A chain over ``arr`` itself, for an array its maker hands off.

        The array is validated and locked read-only in place, without the
        copy the public constructor makes; it is converted only if it is
        not already C-ordered float64.
        """
        chain = cls.__new__(cls)
        chain._lock(np.asarray(arr, dtype=np.float64, order="C"))
        return chain

    def _lock(self, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise ChainFormatError(f"chain values must be 2-d, got shape {arr.shape}")
        n, p = arr.shape
        if n < 1 or p < 1:
            raise ChainFormatError(f"chain needs n >= 1 and p >= 1, got n={n}, p={p}")
        _check_finite(arr)
        arr.setflags(write=False)
        self._values = arr
        self._mean = None

    @property
    def values(self) -> np.ndarray:
        """The n-by-p value matrix (read-only view)."""
        return self._values

    @property
    def n(self) -> int:
        return self._values.shape[0]

    @property
    def p(self) -> int:
        return self._values.shape[1]

    @property
    def mean(self) -> np.ndarray:
        """Row mean, computed once (numpy pairwise summation) and cached."""
        if self._mean is None:
            m = self._values.mean(axis=0)
            m.setflags(write=False)
            self._mean = m
        return self._mean

    def column(self, j: int) -> "Chain":
        """The j-th coordinate as a univariate chain."""
        if not 0 <= j < self.p:
            raise IndexError(f"column {j} out of range for p={self.p}")
        return Chain(self._values[:, j])

    def __repr__(self) -> str:
        return f"Chain(n={self.n}, p={self.p})"


def save_chain(chain: Chain, path, format: str = "bin") -> None:
    """Write a chain to ``path`` in the given format.

    Binary layout: a 16-byte header of two little-endian unsigned 64-bit
    integers (n, p) followed by n*p little-endian IEEE-754 doubles in
    row-major order.  CSV layout: a header row ``c1,...,cp`` followed by
    one row of values per iteration, printed with 17 significant digits
    so that reloading reproduces every double exactly.
    """
    path = Path(path)
    if format == "bin":
        header = np.array([chain.n, chain.p], dtype=_HEADER_DTYPE).tobytes()
        payload = np.ascontiguousarray(chain.values, dtype=_VALUE_DTYPE).tobytes()
        path.write_bytes(header + payload)
    elif format == "csv":
        header = ",".join(f"c{j + 1}" for j in range(chain.p))
        np.savetxt(path, chain.values, fmt="%.17g", delimiter=",",
                   header=header, comments="")
    else:
        raise ValueError(f"unknown chain format {format!r}; expected one of {FORMATS}")


def load_chain(path, format: str = "bin") -> Chain:
    """Read a chain written by :func:`save_chain`.

    Raises :class:`ChainFormatError` when the element count disagrees
    with the declared shape and :class:`NonFiniteValueError` (naming the
    offending cell) when the data contains NaN or infinities.
    """
    path = Path(path)
    if format == "bin":
        return _load_bin(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown chain format {format!r}; expected one of {FORMATS}")


def _load_bin(path: Path) -> Chain:
    # the header is checked against the file's size before the payload is
    # read, so a truncated or oversize file fails without a read of it;
    # unbuffered, the payload is read straight into one bytes object
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_HEADER_BYTES)
        if len(header) < _HEADER_BYTES:
            raise ChainFormatError(f"{path}: file shorter than the 16-byte header")
        n, p = (int(v) for v in np.frombuffer(header, dtype=_HEADER_DTYPE))
        expected = _HEADER_BYTES + 8 * n * p
        if size != expected:
            raise ChainFormatError(
                f"{path}: header declares n={n}, p={p} ({expected} bytes), "
                f"file has {size} bytes"
            )
        if n < 1 or p < 1:
            raise ChainFormatError(f"{path}: header declares empty shape n={n}, p={p}")
        payload = fh.read()
    if len(payload) != size - _HEADER_BYTES:
        raise ChainFormatError(f"{path}: file changed size while it was read")
    values = np.frombuffer(payload, dtype=_VALUE_DTYPE)
    return Chain._adopt(values.reshape(n, p))


def _load_csv(path: Path) -> Chain:
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        names = header.split(",") if header else []
        expected = [f"c{j + 1}" for j in range(len(names))]
        if not names or names != expected:
            raise ChainFormatError(
                f"{path}: expected header 'c1,...,cp', got {header!r}"
            )
        p = len(names)
        body = fh.read()
        if not body.strip():
            raise ChainFormatError(f"{path}: no data rows")
        try:
            values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ChainFormatError(f"{path}: malformed csv body: {exc}") from exc
    if values.size == 0:
        raise ChainFormatError(f"{path}: no data rows")
    if values.shape[1] != p:
        raise ChainFormatError(
            f"{path}: header declares {p} columns, data has {values.shape[1]}"
        )
    return Chain._adopt(values)
