"""Chains of recorded multivariate sampler output, with CSV and binary persistence."""

from __future__ import annotations

import io
import itertools
import os
import re
from pathlib import Path

import numpy as np

_HEADER_DTYPE = np.dtype("<u8")
_VALUE_DTYPE = np.dtype("<f8")
_HEADER_BYTES = 16

FORMATS = ("csv", "bin")

# the start of a line that is neither empty nor a "#" comment
_DATA_LINE = re.compile(r"^(?!#|\r?$)", re.MULTILINE)
# np.loadtxt's row number in its two row messages, and the row it counts
# from: rows are data lines only, 0-based where a value does not convert and
# 1-based where the number of columns changes
_AT_ROW = re.compile(r"^(could not convert|the number of columns changed).* at (row (\d+))")
_FIRST_ROW = {"could not convert": 0, "the number of columns changed": 1}


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
        # the payload goes out from the array's own buffer, never a copy of it
        with path.open("wb") as fh:
            fh.write(np.array([chain.n, chain.p], dtype=_HEADER_DTYPE).tobytes())
            fh.write(np.ascontiguousarray(chain.values, dtype=_VALUE_DTYPE).data)
    elif format == "csv":
        _save_csv(chain.values, path)
    else:
        raise ValueError(f"unknown chain format {format!r}; expected one of {FORMATS}")


def load_chain(path, format: str = "bin") -> Chain:
    """Read a chain written by :func:`save_chain`.

    Raises :class:`ChainFormatError` when the element count disagrees
    with the declared shape or a csv file is not UTF-8 text, and
    :class:`NonFiniteValueError` (naming the
    offending cell) when the data contains NaN or infinities.
    """
    path = Path(path)
    if format == "bin":
        return _load_bin(path)
    if format == "csv":
        try:
            return _load_csv(path)
        except UnicodeDecodeError as exc:
            raise ChainFormatError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
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


def _save_csv(values: np.ndarray, path: Path) -> None:
    # the bytes np.savetxt(fmt="%.17g", delimiter=",") writes, with each run
    # of repeated rows (rejected Metropolis proposals) formatted once; rows
    # are compared by bit pattern, so 0.0 and -0.0 stay apart
    bits = values.view(np.uint64)
    starts = np.flatnonzero(np.concatenate(([True], (bits[1:] != bits[:-1]).any(axis=1))))
    lengths = np.diff(starts, append=len(values))
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(f"c{j + 1}" for j in range(values.shape[1])) + "\n")
        for first, length in zip(values[starts].tolist(), lengths.tolist()):
            fh.write(row % tuple(first) * length)


def _run_lines(fh, lengths: list[int]):
    """Yield the first line of each run of equal lines of ``fh``, appending
    the run's length to ``lengths``.

    Raises ValueError, before np.loadtxt sees a row, on what a line-by-line
    parse could read differently from one parse of the whole body: a first
    line that is blank or a comment (a body may then hold no data at all),
    and a line that ends at a lone carriage return, which loadtxt does not
    take for the end of a line.
    """
    prev, count = next(fh, ""), 1
    if not prev.strip() or prev[0] == "#":
        raise ValueError("blank or comment first line")
    for line in fh:
        if prev[-1] == "\r":
            raise ValueError("line ends at a lone carriage return")
        if line == prev:
            count += 1
        else:
            lengths.append(count)
            yield prev
            prev, count = line, 1
    lengths.append(count)
    yield prev


def _at_line(message: str, body: str) -> str:
    """np.loadtxt's ``message`` on ``body`` with its row number replaced by
    the file's line number (the header is line 1); any other message as is."""
    match = _AT_ROW.match(message)
    if match is None:
        return message
    row = int(match.group(3)) - _FIRST_ROW[match.group(1)]
    start = next(itertools.islice(_DATA_LINE.finditer(body), row, None), None)
    if start is None:
        return message
    line = body.count("\n", 0, start.start()) + 2
    return f"{message[:match.start(2)]}line {line}{message[match.end(2):]}"


def _load_csv(path: Path) -> Chain:
    # UTF-8 whatever the locale: the writer emits ASCII
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip()
        names = header.split(",") if header else []
        expected = [f"c{j + 1}" for j in range(len(names))]
        if not names or names != expected:
            raise ChainFormatError(
                f"{path}: expected header 'c1,...,cp', got {header!r}"
            )
        p = len(names)
        # each run of repeated rows is parsed once, streamed from the file
        lengths: list[int] = []
        try:
            values = np.loadtxt(_run_lines(fh, lengths), delimiter=",", ndmin=2)
        except ValueError:
            values = None
        if values is not None and len(values) == len(lengths):
            if sum(lengths) > len(lengths):
                values = np.repeat(values, lengths, axis=0)
        else:
            # an error, or blank or comment lines that left fewer rows than
            # runs: the whole body is parsed as one stream, so values and
            # messages (loadtxt's row numbers) are those of a plain read and
            # parse
            fh.seek(0)
            fh.readline()
            body = fh.read()
            # loadtxt reads no row from an empty line or a "#" comment line
            if not body.strip() or _DATA_LINE.search(body) is None:
                raise ChainFormatError(f"{path}: no data rows")
            try:
                values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ChainFormatError(
                    f"{path}: malformed csv body: {_at_line(str(exc), body)}") from exc
    if values.shape[1] != p:
        raise ChainFormatError(
            f"{path}: header declares {p} columns, data has {values.shape[1]}"
        )
    return Chain._adopt(values)
