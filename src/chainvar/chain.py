"""Chains of recorded multivariate sampler output, with CSV and binary persistence."""

from __future__ import annotations

import itertools
import os
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_HEADER_DTYPE = np.dtype("<u8")
_VALUE_DTYPE = np.dtype("<f8")
_HEADER_BYTES = 16
# cells per block of the finite check
_FINITE_BLOCK = 1 << 18
# bytes of rows read from a stored chain, or written by `simulate`, at a
# time, and bytes of the columns one pass gathers for their univariate scans
_PASS_BYTES = 1 << 20
_COLUMN_PASS_BYTES = 1 << 24

FORMATS = ("csv", "bin")

# lines np.loadtxt reads no row from, other than "#" comments; a lone "\r"
# can only be a file's last line
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))
# np.loadtxt's row number in its two row messages, and the row it counts
# from: rows are data lines only, 0-based where a value does not convert and
# 1-based where the number of columns changes
_AT_ROW = re.compile(r"^(could not convert|the number of columns changed).* at (row (\d+))")
_FIRST_ROW = {"could not convert": 0, "the number of columns changed": 1}


class ChainFormatError(ValueError):
    """A chain file does not match its declared layout."""


class NonFiniteValueError(ValueError):
    """Chain values contain a NaN or an infinity."""


def _check_finite(arr: np.ndarray, at=lambda i: f"row {i}") -> None:
    # ``at`` names the row, by default by its 0-based index in ``arr``; the
    # rows are checked a block at a time, so no n x p mask is held
    step = max(1, _FINITE_BLOCK // arr.shape[1])
    for start in range(0, arr.shape[0], step):
        finite = np.isfinite(arr[start:start + step])
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            i += start
            raise NonFiniteValueError(
                f"non-finite value {float(arr[i, j])} at {at(int(i))}, column c{int(j) + 1}"
            )


def _add_rows(total: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """``total`` (None before the first block) plus the rows of the
    C-ordered ``block``, whose first row is overwritten.

    For p >= 2 the rows are added one after another in row order, as
    ``np.add.reduce(block, axis=0)`` adds them, with its bits, by
    ``np.einsum``: about 4x faster for p <= 12 and 1.5x at p = 65.  A single
    column is summed pairwise, as ``np.add.reduce`` sums it; einsum's bits
    differ there.
    """
    if total is not None:
        block[0] += total
    if block.shape[1] == 1:
        return np.add.reduce(block, axis=0)
    return np.einsum("ij->j", block)


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
        """Row mean, computed once and cached.

        The bits of ``values.mean(axis=0)``: for p >= 2 the rows are added
        one after another, in row order (:func:`_add_rows`, which the stored
        chains and the streamed long-run truth share); a single column is
        summed pairwise.
        """
        if self._mean is None:
            m = _add_rows(None, self._values) / self.n
            m.setflags(write=False)
            self._mean = m
        return self._mean

    def column(self, j: int) -> "Chain":
        """The j-th coordinate as a univariate chain."""
        if not 0 <= j < self.p:
            raise IndexError(f"column {j} out of range for p={self.p}")
        return Chain(self._values[:, j])

    def _columns(self):
        """Yield each column j with a contiguous (n, 1) copy of its values."""
        for j in range(self.p):
            yield j, self._values[:, j:j + 1].copy()

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
    with _open_for_write(Path(path), format, "w") as fh:
        _write_header(fh, chain.n, chain.p, format)
        _write_rows(fh, chain.values, format)


def _save_blocks(blocks, n: int, p: int, path, format: str) -> None:
    """Write the n rows of a chain, given as consecutive blocks of p
    columns, as :func:`save_chain` writes the chain.

    Each block is checked for finite values before it is written, and no
    block is held after it is written.  The rows go to a new file beside
    ``path``, renamed to ``path`` once complete, so a run that fails
    leaves nothing there.
    """
    path = Path(path)
    part = path.with_name(f".{path.name}.{os.urandom(4).hex()}.part")
    try:
        with _open_for_write(part, format, "x") as fh:
            _write_header(fh, n, p, format)
            first = 0
            for block in blocks:
                _check_finite(block, at=lambda i: f"row {first + i}")
                _write_rows(fh, block, format)
                first += block.shape[0]
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _open_for_write(path: Path, format: str, mode: str):
    if format == "bin":
        return open(path, mode + "b")
    if format == "csv":
        return open(path, mode, encoding="ascii")
    raise ValueError(f"unknown chain format {format!r}; expected one of {FORMATS}")


def _write_header(fh, n: int, p: int, format: str) -> None:
    if format == "bin":
        fh.write(np.array([n, p], dtype=_HEADER_DTYPE).tobytes())
    else:
        fh.write(",".join(f"c{j + 1}" for j in range(p)) + "\n")


def _write_rows(fh, values: np.ndarray, format: str) -> None:
    if format == "bin":
        # the rows go out from the array's own buffer, never a copy of it
        fh.write(np.ascontiguousarray(values, dtype=_VALUE_DTYPE).data)
        return
    # the bytes np.savetxt(fmt="%.17g", delimiter=",") writes, with each run
    # of repeated rows (rejected Metropolis proposals) formatted once; rows
    # are compared by bit pattern, so 0.0 and -0.0 stay apart.  A row is
    # printed alone, so rows written in blocks give the same bytes.
    bits = values.view(np.uint64)
    starts = np.flatnonzero(np.concatenate(([True], (bits[1:] != bits[:-1]).any(axis=1))))
    lengths = np.diff(starts, append=len(values))
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    for first, length in zip(values[starts].tolist(), lengths.tolist()):
        fh.write(row % tuple(first) * length)


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


def _read_header(fh, path: Path) -> tuple[int, int, os.stat_result]:
    # the header is checked against the file's size before the payload is
    # read, so a truncated or oversize file fails without a read of it
    stat = os.fstat(fh.fileno())
    header = fh.read(_HEADER_BYTES)
    if len(header) < _HEADER_BYTES:
        raise ChainFormatError(f"{path}: file shorter than the 16-byte header")
    n, p = (int(v) for v in np.frombuffer(header, dtype=_HEADER_DTYPE))
    expected = _HEADER_BYTES + 8 * n * p
    if stat.st_size != expected:
        raise ChainFormatError(
            f"{path}: header declares n={n}, p={p} ({expected} bytes), "
            f"file has {stat.st_size} bytes"
        )
    if n < 1 or p < 1:
        raise ChainFormatError(f"{path}: header declares empty shape n={n}, p={p}")
    return n, p, stat


def _read_rows(fh, rows: np.ndarray, path: Path) -> None:
    # unbuffered, the rows are read straight into the array
    payload = memoryview(rows).cast("B")
    got = 0
    while got < len(payload):
        read = fh.readinto(payload[got:])
        if not read:
            raise ChainFormatError(f"{path}: file changed size while it was read")
        got += read


def _read_payload(fh, n: int, p: int, path: Path) -> Chain:
    # the chain's own array stays writable underneath, for an analysis that
    # owns the chain
    values = np.empty((n, p), dtype=_VALUE_DTYPE)
    _read_rows(fh, values, path)
    if fh.read(1):
        raise ChainFormatError(f"{path}: file changed size while it was read")
    return Chain._adopt(values)


def _load_bin(path: Path) -> Chain:
    with open(path, "rb", buffering=0) as fh:
        n, p, _ = _read_header(fh, path)
        return _read_payload(fh, n, p, path)


@contextmanager
def _open_bin(path):
    """The chain of a bin file, for one analysis: a :class:`_StoredChain`,
    or a :class:`Chain` read whole where there is one column, whose mean is
    summed pairwise and its lags each one product."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        n, p, stat = _read_header(fh, path)
        yield _read_payload(fh, n, p, path) if p == 1 else _StoredChain(fh, path, n, p, stat)


class _StoredChain:
    """A bin chain of p >= 2 columns, read in passes of row blocks from one
    open file, so that a pass holds a block of rows, not the chain.

    The first pass, at construction, checks that every value is finite,
    naming the first bad row by its index in the chain, and computes
    ``mean`` with the bits of :attr:`Chain.mean` (:func:`_add_rows`).
    Each pass checks that the file's size and modification time are those
    it had when opened, so a file that changes between passes raises
    :class:`ChainFormatError`, never a number of another file.
    """

    def __init__(self, fh, path: Path, n: int, p: int, stat: os.stat_result) -> None:
        self._fh, self._path, self.n, self.p = fh, path, n, p
        self._stat = (stat.st_size, stat.st_mtime_ns)
        total = None
        with np.errstate(over="ignore", invalid="ignore"):
            for first, _, block in self._windows():
                _check_finite(block, at=lambda i: f"row {first + i}")
                total = _add_rows(total, block)
            self.mean = total / n
        self.mean.setflags(write=False)

    def _check(self) -> None:
        stat = os.fstat(self._fh.fileno())
        if (stat.st_size, stat.st_mtime_ns) != self._stat:
            raise ChainFormatError(f"{self._path}: file changed while it was analysed")

    def _windows(self, rows: int = 1, carry: int = 0, center: bool = False):
        """One pass over the rows: yield ``(s, e, w)`` for consecutive [s, e)
        covering the chain, where ``w`` holds rows s to min(e + carry, n).

        Each e - s but the last is a multiple of ``rows``, of about
        ``_PASS_BYTES``; ``center`` subtracts ``mean`` from each row as it is
        read.  Every ``w`` is a view of one buffer, reused for the next
        window once the caller asks for it, and the last ``carry`` rows of
        one window are carried over to the next, not read again.
        """
        n, p = self.n, self.p
        step = min(n, rows * max(1, _PASS_BYTES // (8 * p * rows)))
        buf = np.empty((min(n, step + carry), p), dtype=_VALUE_DTYPE)
        self._check()
        self._fh.seek(_HEADER_BYTES)
        s = kept = 0
        while s < n:
            e = min(s + step, n)
            end = min(e + carry, n) - s
            fresh = buf[kept:end]
            if fresh.size:
                _read_rows(self._fh, fresh, self._path)
                if center:
                    np.subtract(fresh, self.mean, out=fresh)
            yield s, e, buf[:end]
            kept = end - (e - s)
            buf[:kept] = buf[e - s:end]
            s = e
        self._check()

    def _centered_values(self) -> np.ndarray:
        """The whole chain, centered."""
        (_, _, values), = self._windows(self.n, center=True)
        return values

    def _columns(self):
        """Yield each column j with a contiguous (n, 1) array of its values.

        A pass gathers as many columns as ``_COLUMN_PASS_BYTES`` holds, at
        least one, into arrays reused by the next pass.
        """
        n, p = self.n, self.p
        k = max(1, min(p, _COLUMN_PASS_BYTES // (8 * n)))
        columns = [np.empty((n, 1), dtype=_VALUE_DTYPE) for _ in range(k)]
        for first in range(0, p, k):
            gathered = list(zip(range(first, min(first + k, p)), columns))
            for s, e, w in self._windows():
                for j, x in gathered:
                    x[s:e, 0] = w[:, j]
            yield from gathered


def _data_runs(fh, lengths: list[int], blank: list[int], comment: list[int]):
    """Yield the first line of each run of equal data lines of ``fh``.

    Data lines are the lines np.loadtxt reads a row from.  The others, which
    are ``"\n"``, ``"\r\n"``, a final ``"\r"`` and ``#`` comments, are
    skipped, and a run of equal lines may span them.  Each run's length is
    appended to ``lengths``, and for each skipped line the number of runs
    begun before it to ``blank`` or ``comment``.
    """
    prev, count = None, 0
    for line in fh:
        if line == prev:
            count += 1
        elif line[0] == "#":
            comment.append(len(lengths) + (count > 0))
        elif line in _BLANK_LINES:
            blank.append(len(lengths) + (count > 0))
        else:
            if count:
                lengths.append(count)
                yield prev
            prev, count = line, 1
    if count:
        lengths.append(count)
        yield prev


def _load_csv(path: Path) -> Chain:
    # UTF-8 whatever the locale: the writer emits ASCII.  Lines end at "\n"
    # only, as np.loadtxt reads them; a header that ends at a lone "\r"
    # is followed on the same line by the first body line
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        header, _, rest = fh.readline().partition("\r")
        header = header.strip()
        names = header.split(",") if header else []
        expected = [f"c{j + 1}" for j in range(len(names))]
        if not names or names != expected:
            raise ChainFormatError(
                f"{path}: expected header 'c1,...,cp', got {header!r}"
            )
        p = len(names)
        # each run of repeated rows is parsed once, streamed from the file
        lengths, blank, comment = [], [], []
        body = itertools.chain([rest] if rest not in ("", "\n") else [], fh)
        runs = _data_runs(body, lengths, blank, comment)

        def line_of(run: int) -> int:
            # the file line of a run's first row; the header is line 1
            return 2 + sum(lengths[:run]) + sum(k <= run for k in blank + comment)

        first = next(runs, None)
        if first is None:
            raise ChainFormatError(f"{path}: no data rows")
        try:
            values = np.loadtxt(itertools.chain([first], runs), delimiter=",", ndmin=2)
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            # loadtxt fails on a first row of whitespace only; if the whole
            # body is whitespace and blank lines, with no comment, it holds no
            # data rows, and only then is the rest of the body read here
            if not (first.strip() or any(line.strip() for line in runs) or comment):
                raise ChainFormatError(f"{path}: no data rows") from None
            message = str(exc)
            match = _AT_ROW.match(message)
            if match is not None:
                line = line_of(int(match.group(3)) - _FIRST_ROW[match.group(1)])
                message = f"{message[:match.start(2)]}line {line}{message[match.end(2):]}"
            raise ChainFormatError(f"{path}: malformed csv body: {message}") from exc
    if values.shape[1] != p:
        raise ChainFormatError(
            f"{path}: header declares {p} columns, data has {values.shape[1]}"
        )
    # a non-finite cell is named by its file line; the first bad row of the
    # chain is the first row of its run
    _check_finite(values, lambda run: f"line {line_of(run)}")
    if sum(lengths) > len(lengths):
        values = np.repeat(values, lengths, axis=0)
    return Chain._adopt(values)
