"""Chain validation and csv/binary persistence round trips."""

import io
import itertools
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvar import Chain, ChainFormatError, NonFiniteValueError, load_chain, save_chain
from chainvar import chain as chain_module


def test_csv_minimal_wellformed(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("c1\n1.0\n2.0\n")
    chain = load_chain(path, "csv")
    assert (chain.n, chain.p) == (2, 1)
    np.testing.assert_array_equal(chain.values, [[1.0], [2.0]])


def test_bin_header_shape_echo(tmp_path):
    path = tmp_path / "c.bin"
    header = np.array([3, 2], dtype="<u8").tobytes()
    payload = np.arange(6, dtype="<f8").tobytes()
    path.write_bytes(header + payload)
    chain = load_chain(path, "bin")
    assert (chain.n, chain.p) == (3, 2)
    np.testing.assert_array_equal(chain.values, np.arange(6.0).reshape(3, 2))


def test_csv_nan_names_the_cell(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("c1,c2\n1.0,nan\n")
    with pytest.raises(NonFiniteValueError, match=r"^non-finite value nan at line 2, column c2$"):
        load_chain(path, "csv")


def test_bin_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    for k in range(20):
        n = int(rng.integers(1, 50))
        p = int(rng.integers(1, 8))
        chain = Chain(rng.standard_normal((n, p)) * 10.0 ** rng.integers(-8, 8))
        path = tmp_path / f"c{k}.bin"
        save_chain(chain, path, "bin")
        back = load_chain(path, "bin")
        assert np.array_equal(back.values, chain.values)


@pytest.mark.parametrize("p", [1, 12])
def test_bin_bytes_are_the_header_then_the_values(tmp_path, p):
    values = np.random.default_rng(p).standard_normal((257, p))
    path = tmp_path / "c.bin"
    save_chain(Chain(values), path, "bin")
    header = np.array([257, p], dtype="<u8").tobytes()
    assert path.read_bytes() == header + values.astype("<f8").tobytes()


def test_csv_roundtrip_17_digits(tmp_path):
    # 17 significant digits round-trip any double exactly; 0.1 is the
    # classic non-representable decimal.
    rng = np.random.default_rng(3)
    values = rng.standard_normal((40, 3))
    values[0, 0] = 0.1
    chain = Chain(values)
    path = tmp_path / "c.csv"
    save_chain(chain, path, "csv")
    back = load_chain(path, "csv")
    assert np.array_equal(back.values, chain.values)


def test_bin_file_size_arithmetic(tmp_path):
    path = tmp_path / "c.bin"
    save_chain(Chain(np.zeros((1, 3))), path, "bin")
    assert path.stat().st_size == 16 + 24


def test_bin_count_mismatch_rejected(tmp_path):
    path = tmp_path / "c.bin"
    save_chain(Chain(np.zeros((4, 2))), path, "bin")
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ChainFormatError, match="bytes"):
        load_chain(path, "bin")


def test_bin_truncated_header_rejected(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"\x01\x02\x03")
    with pytest.raises(ChainFormatError):
        load_chain(path, "bin")


def _load_bin_bytes(n: int, p: int, payload: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        path.write_bytes(np.array([n, p], dtype="<u8").tobytes() + payload)
        return load_chain(path, "bin")


_shapes = st.tuples(st.integers(1, 40), st.integers(1, 6))


@settings(max_examples=50, deadline=None)
@given(shape=_shapes, cut=st.integers(1, 8 * 40 * 6))
def test_bin_truncated_payload_rejected(shape, cut):
    n, p = shape
    payload = bytes(8 * n * p)[:max(0, 8 * n * p - cut)]
    with pytest.raises(ChainFormatError, match=rf"header declares n={n}, p={p}"):
        _load_bin_bytes(n, p, payload)


@settings(max_examples=50, deadline=None)
@given(shape=_shapes, extra=st.integers(1, 64))
def test_bin_oversize_file_rejected(shape, extra):
    n, p = shape
    with pytest.raises(ChainFormatError, match=rf"header declares n={n}, p={p}"):
        _load_bin_bytes(n, p, bytes(8 * n * p + extra))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2**32, 2**64 - 1), p=st.integers(2**32, 2**64 - 1),
       size=st.integers(0, 64))
def test_bin_header_whose_size_overflows_rejected(n, p, size):
    # n * p >= 2**64, so the declared payload size overflows 64 bits
    with pytest.raises(ChainFormatError, match=rf"header declares n={n}, p={p}"):
        _load_bin_bytes(n, p, bytes(size))


def test_bad_bin_fails_before_reading_the_payload(tmp_path):
    # a sparse 64 MiB file whose header declares one value
    path = tmp_path / "c.bin"
    with open(path, "wb") as fh:
        fh.write(np.array([1, 1], dtype="<u8").tobytes())
        fh.truncate(2**26)
    tracemalloc.start()
    try:
        with pytest.raises(ChainFormatError, match=f"file has {2**26} bytes"):
            load_chain(path, "bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_csv_header_must_match_convention(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x1,x2\n1.0,2.0\n")
    with pytest.raises(ChainFormatError, match="header"):
        load_chain(path, "csv")


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("c1,c2\n1.0,2.0\n3.0\n")
    with pytest.raises(ChainFormatError):
        load_chain(path, "csv")


def test_csv_empty_body_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("c1,c2\n")
    with pytest.raises(ChainFormatError):
        load_chain(path, "csv")


# Values of a single np.loadtxt over the whole csv body, the reader before
# runs of repeated rows were parsed once, and its messages, with loadtxt's
# data-row number given as the file's line (the header is line 1); "{path}"
# stands for the file's path.  The streamed reader, which skips blank and
# comment lines itself, gives the same outcome on each.
_WHOLE_BODY_OUTCOMES = {
    "blank lines between rows": (
        "c1,c2\n1,2\n\n1,2\n3,4\n\n\n3,4\n",
        [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]),
    "blank first line": ("c1,c2\n\n1,2\n1,2\n", [[1.0, 2.0], [1.0, 2.0]]),
    "whole-line and inline comments": (
        "c1,c2\n# whole line\n1,2\n1,2 # inline\n1,2\n#another\n3,4#x\n3,4\n",
        [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]),
    "malformed value in a run": (
        "c1,c2\n1,2\n1,2\n1,x\n1,2\n1,2\n",
        "{path}: malformed csv body: could not convert string 'x' to float64 "
        "at line 4, column 2."),
    "short ragged row in a run": (
        "c1,c2\n1,2\n1,2\n1\n1,2\n1,2\n",
        "{path}: malformed csv body: the number of columns changed from 2 to 1 "
        "at line 4; use `usecols` to select a subset and avoid this error"),
    "long ragged row in a run": (
        "c1,c2\n1,2\n1,2,3\n1,2\n",
        "{path}: malformed csv body: the number of columns changed from 2 to 3 "
        "at line 3; use `usecols` to select a subset and avoid this error"),
    "malformed value after a comment and a blank line": (
        "c1,c2\n1,2\n# note\n\n1,x\n1,2\n",
        "{path}: malformed csv body: could not convert string 'x' to float64 "
        "at line 5, column 2."),
    "ragged row after a blank line and a comment, crlf": (
        "c1,c2\r\n\r\n1,2\r\n#c\r\n1\r\n",
        "{path}: malformed csv body: the number of columns changed from 2 to 1 "
        "at line 5; use `usecols` to select a subset and avoid this error"),
    "ragged row after a whitespace line, which loadtxt reads as a row": (
        "c1,c2\n1,2\n  \n1,2\n",
        "{path}: malformed csv body: the number of columns changed from 2 to 1 "
        "at line 3; use `usecols` to select a subset and avoid this error"),
    "run of lines ending at a lone carriage return": (
        "c1,c2\n1,2\r1,2\r1,2\n",
        "{path}: malformed csv body: Found an unquoted embedded newline within "
        "a single line of input.  This is currently not supported."),
    "whitespace-only body": ("c1,c2\n  \n", "{path}: no data rows"),
}

# CRLF files take the run-length path itself
_CRLF = ("c1,c2\r\n1,2\r\n1,2\r\n-0,0\r\n0,0\r\n0,0\r\n",
         [[1.0, 2.0], [1.0, 2.0], [-0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
# rows of one width that disagree with the header
_WIDE_ROWS = ("c1,c2\n1,2,3\n1,2,3\n", "{path}: header declares 2 columns, data has 3")


@pytest.mark.parametrize("text, outcome", [*_WHOLE_BODY_OUTCOMES.values(), _CRLF, _WIDE_ROWS],
                         ids=[*_WHOLE_BODY_OUTCOMES, "crlf line endings", "rows wider than header"])
def test_csv_edge_cases_load_as_one_whole_body_parse(tmp_path, text, outcome):
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode())
    if isinstance(outcome, str):
        with pytest.raises(ChainFormatError) as info:
            load_chain(path, "csv")
        assert str(info.value) == outcome.format(path=path)
    else:
        values = load_chain(path, "csv").values
        expected = np.array(outcome)
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("body", ["# only a comment\n", "\n#a\r\n\r\n", "#a\n#b"])
def test_csv_without_data_rows_raises_no_warning(tmp_path, body):
    path = tmp_path / "c.csv"
    path.write_text("c1,c2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChainFormatError) as info:
            load_chain(path, "csv")
    assert str(info.value) == f"{path}: no data rows"


@pytest.mark.parametrize("offset", [0, 9000])
def test_csv_with_a_bad_byte_is_a_format_error_naming_the_file(tmp_path, offset):
    # the file is read as UTF-8 under every locale, so a byte that is not
    # UTF-8 fails the same way everywhere, in the first 8 KiB chunk or later
    body = "1,2\n".encode("utf-8") * 6000
    path = tmp_path / "c.csv"
    path.write_bytes(b"c1,c2\n" + body[:offset] + b"\xff" + body[offset:])
    with pytest.raises(ChainFormatError) as info:
        load_chain(path, "csv")
    assert str(info.value) == f"{path}: not a UTF-8 text file (invalid start byte)"


def test_csv_reading_ignores_the_locale_encoding(tmp_path):
    # under the C locale without UTF-8 mode, text files default to ASCII;
    # a UTF-8 comment line must still read as it does under any other locale
    path = tmp_path / "c.csv"
    path.write_bytes("c1\n1.5\n# d\u00e9j\u00e0\n2.5\n".encode("utf-8"))
    code = ("import sys; from chainvar import load_chain; "
            "print(load_chain(sys.argv[1], 'csv').values.ravel().tolist())")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code, str(path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[1.5, 2.5]\n"


def test_csv_parses_each_run_of_repeated_rows_once(tmp_path, monkeypatch):
    values = np.repeat([[1.0, 2.0], [0.5, -0.0], [1.0, 2.0]], [300, 1, 200], axis=0)
    path = tmp_path / "c.csv"
    save_chain(Chain(values), path, "csv")
    # a comment and blank lines inside the runs, and a trailing blank line:
    # loadtxt reads no row from them, so they neither split a run nor force
    # a second parse
    lines = path.read_text().splitlines(keepends=True)
    lines[1:1] = ["# sampler output\n"]
    lines[50:50] = ["\n", "\r\n"]
    lines[-100:-100] = ["\n"]
    path.write_text("".join(lines) + "\n", newline="")
    parsed = []
    loadtxt = np.loadtxt

    def counting_loadtxt(lines, *args, **kwargs):
        lines = list(lines)
        parsed.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    back = load_chain(path, "csv")
    assert parsed == [3]
    assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))


# values whose text is easy to get wrong: both zeros, subnormals, extremes
_special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                            1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0])
_value = st.one_of(_special, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _chains_with_runs(draw):
    p = draw(st.integers(1, 4))
    rows, lengths = [], []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            # the previous row with every sign flipped: 0.0 next to -0.0
            row = [-v for v in rows[-1]]
        else:
            row = draw(st.lists(_value, min_size=p, max_size=p))
        rows.append(row)
        lengths.append(draw(st.integers(1, 6)))
    return np.repeat(np.array(rows, dtype=np.float64), lengths, axis=0)


@settings(max_examples=150, deadline=None)
@given(values=_chains_with_runs())
def test_csv_run_length_writer_and_reader(values):
    chain = Chain(values)
    header = ",".join(f"c{j + 1}" for j in range(chain.p))
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = Path(tmp) / "c.csv", Path(tmp) / "oracle.csv"
        save_chain(chain, path, "csv")
        np.savetxt(oracle, values, fmt="%.17g", delimiter=",", header=header, comments="")
        assert path.read_bytes() == oracle.read_bytes()
        back = load_chain(path, "csv").values
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
    assert back.flags.c_contiguous
    assert not back.flags.writeable


# The csv reader before every body was streamed in one parse, kept as the
# reference the streamed reader must match: one np.loadtxt over the whole
# body, with loadtxt's data-row numbers mapped back to file lines.
_DATA_LINE = re.compile(r"^(?!#|\r?$)", re.MULTILINE)  # neither empty nor a comment
_AT_ROW = re.compile(r"^(could not convert|the number of columns changed).* at (row (\d+))")
_FIRST_ROW = {"could not convert": 0, "the number of columns changed": 1}


def _whole_body_line(body, row):
    """The file line (the header is line 1) of loadtxt's 0-based data row."""
    start = next(itertools.islice(_DATA_LINE.finditer(body), row, None)).start()
    return body.count("\n", 0, start) + 2


def _whole_body_load(path):
    """Values of a csv chain whose header is valid, read as one body."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        p = len(fh.readline().split(","))
        body = fh.read()
    if not body.strip() or _DATA_LINE.search(body) is None:
        raise ChainFormatError(f"{path}: no data rows")
    try:
        values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        message = str(exc)
        match = _AT_ROW.match(message)
        if match is not None:
            line = _whole_body_line(body, int(match.group(3)) - _FIRST_ROW[match.group(1)])
            message = f"{message[:match.start(2)]}line {line}{message[match.end(2):]}"
        raise ChainFormatError(f"{path}: malformed csv body: {message}") from None
    if values.shape[1] != p:
        raise ChainFormatError(f"{path}: header declares {p} columns, data has {values.shape[1]}")
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, j = bad[0]
        raise NonFiniteValueError(f"non-finite value {values[i, j]} at line "
                                  f"{_whole_body_line(body, i)}, column c{j + 1}")
    return values


def _outcome(load, path):
    """What ``load(path)`` gives: the values' bits or the error, and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = load(path)
        except ValueError as exc:
            result = (type(exc), str(exc))
        else:
            result = (values.shape, values.view(np.uint64).tobytes())
    return result, [str(w.message) for w in caught]


_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
# a lone "\r" inside a body is an error, so it ends few body lines
_BODY_ENDINGS = st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])
_CELLS = st.sampled_from(["1", "-0", "0.5", "1e300", "-2.5e-310", " 3 "])
_LINE_KINDS = st.sampled_from(["row"] * 4 + ["repeat"] * 4 + [
    "blank", "whitespace", "comment", "inline comment", "bad value", "nan", "ragged"])


@st.composite
def _csv_texts(draw):
    p = draw(st.integers(1, 3))
    lines = []
    for kind in draw(st.lists(_LINE_KINDS, max_size=15)):
        if kind == "repeat":
            lines.append(lines[-1] if lines else "\n")
            continue
        cells = [draw(_CELLS) for _ in range(p)]
        if kind == "bad value":
            cells[draw(st.integers(0, p - 1))] = "x"
        elif kind == "nan":
            cells[draw(st.integers(0, p - 1))] = draw(st.sampled_from(["nan", "-inf"]))
        elif kind == "ragged":
            cells = cells[1:] + [cells[0]] * draw(st.integers(0, 2)) if p > 1 else cells * 2
        text = {"blank": "", "whitespace": draw(st.sampled_from([" ", "\t", "  "])),
                "comment": "# c", "inline comment": ",".join(cells) + " # c"}.get(kind)
        lines.append((",".join(cells) if text is None else text) + draw(_BODY_ENDINGS))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no final newline
    header = ",".join(f"c{j + 1}" for j in range(p)) + draw(_ENDINGS)
    return header + "".join(lines)


def _streamed_load(path):
    return load_chain(path, "csv").values


@settings(max_examples=400, deadline=None)
@given(text=_csv_texts())
def test_csv_streamed_parse_matches_a_whole_body_parse(text):
    # values by bits, error types and messages, and warnings all agree
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        path.write_bytes(text.encode())
        assert _outcome(_streamed_load, path) == _outcome(_whole_body_load, path)


@pytest.mark.parametrize("bad", ["1,x\n", "1\n", "nan,1\n"])
def test_csv_long_body_names_the_line_of_a_late_error(tmp_path, bad):
    # over 50,000 lines, with comments, blank lines and repeated rows before
    # the error, so the streamed reader's run and skip tables are long
    lines = [f"{i // 3},{i % 5}\n" for i in range(60_000)]
    lines[::1000] = ["# c\n"] * 60
    lines[500::1500] = ["\n"] * 40
    lines[55_555] = bad
    path = tmp_path / "c.csv"
    path.write_text("c1,c2\n" + "".join(lines))
    outcome = _outcome(_streamed_load, path)
    assert outcome == _outcome(_whole_body_load, path)
    (kind, message), caught = outcome
    assert kind in (ChainFormatError, NonFiniteValueError)
    assert " at line 55557" in message
    assert caught == []


def test_chain_rejects_bad_shapes_and_values():
    with pytest.raises(ChainFormatError):
        Chain(np.zeros((0, 2)))
    with pytest.raises(ChainFormatError):
        Chain(np.zeros((2, 2, 2)))
    with pytest.raises(NonFiniteValueError):
        Chain([[1.0], [np.inf]])


def test_chain_is_immutable():
    chain = Chain([[1.0, 2.0]])
    with pytest.raises(ValueError):
        chain.values[0, 0] = 3.0


def test_one_dimensional_input_becomes_a_column():
    chain = Chain([1.0, 2.0, 3.0])
    assert (chain.n, chain.p) == (3, 1)
    col = chain.column(0)
    assert np.array_equal(col.values, chain.values)
    with pytest.raises(IndexError):
        chain.column(1)


@pytest.mark.parametrize("p", [2, 3, 12, 65])
@pytest.mark.parametrize("n", [1, 9, 1000, 100_003])
def test_mean_sums_rows_in_order(n, p):
    # the streamed long-run truth reproduces the mean by a running sum, so
    # for p >= 2 the mean must add the rows one after another, in row order
    rng = np.random.default_rng(n * p)
    values = rng.standard_normal((n, p)) * np.exp(5.0 * rng.standard_normal((n, 1)))
    running = np.add.accumulate(values, axis=0)[-1] / n
    assert Chain(values).mean.tobytes() == running.tobytes()


def test_unknown_format_rejected(tmp_path):
    chain = Chain([[1.0]])
    with pytest.raises(ValueError):
        save_chain(chain, tmp_path / "x", "hdf5")
    with pytest.raises(ValueError):
        load_chain(tmp_path / "x", "hdf5")


def test_adopted_array_is_not_copied():
    arr = np.arange(12.0).reshape(6, 2)
    chain = Chain._adopt(arr)
    assert np.shares_memory(chain.values, arr)
    assert not chain.values.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 1.0


def test_adopted_array_is_still_validated():
    arr = np.zeros((5, 3))
    arr[2, 1] = np.inf
    with pytest.raises(NonFiniteValueError, match=r"^non-finite value inf at row 2, column c2$"):
        Chain._adopt(arr)
    with pytest.raises(ChainFormatError):
        Chain._adopt(np.zeros(4))


def test_samplers_and_loaders_hand_off_without_a_copy(tmp_path, monkeypatch):
    from chainvar.samplers import build

    chains = [build(model, params)[0](500, 3)[0] for model, params in
              (("ar1", {"kind": "hadamard", "p": 4}), ("logistic", {}), ("ranef", {"K": 2}))]
    for fmt in ("bin", "csv"):
        save_chain(chains[0], tmp_path / f"c.{fmt}", fmt)

    def copying_constructor(self, values):
        raise AssertionError("the copying constructor was called")

    monkeypatch.setattr(Chain, "__init__", copying_constructor)
    again = [build(model, params)[0](500, 3)[0] for model, params in
             (("ar1", {"kind": "hadamard", "p": 4}), ("logistic", {}), ("ranef", {"K": 2}))]
    for before, after in zip(chains, again):
        np.testing.assert_array_equal(after.values, before.values)
        assert not after.values.flags.writeable
    for fmt in ("bin", "csv"):
        loaded = load_chain(tmp_path / f"c.{fmt}", fmt)
        np.testing.assert_array_equal(loaded.values, chains[0].values)
        assert not loaded.values.flags.writeable


@pytest.mark.parametrize("change", [-8, -1, 1, 8])
def test_bin_that_changes_size_while_read_rejected(tmp_path, monkeypatch, change):
    # fstat reports the size the header declares, the read finds another
    path = tmp_path / "c.bin"
    save_chain(Chain(np.arange(12.0).reshape(4, 3)), path, "bin")
    declared = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.truncate(declared + change)
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (declared,) + (0,) * 3))
    with pytest.raises(ChainFormatError, match="file changed size while it was read"):
        load_chain(path, "bin")


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 30), st.integers(1, 5)), block=st.integers(1, 20),
       bad=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 4),
                              st.sampled_from([np.nan, np.inf, -np.inf])), max_size=4))
def test_blocked_finite_check_names_the_first_bad_cell(shape, block, bad):
    values = np.zeros(shape)
    for i, j, v in bad:
        if i < shape[0] and j < shape[1]:
            values[i, j] = v
    first = np.argwhere(~np.isfinite(values))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain_module, "_FINITE_BLOCK", block)
        if not len(first):
            Chain(values)
            return
        i, j = first[0]
        with pytest.raises(NonFiniteValueError,
                           match=rf"^non-finite value {values[i, j]} at row {i}, column c{j + 1}$"):
            Chain(values)
