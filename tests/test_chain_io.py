"""Chain validation and csv/binary persistence round trips."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvar import Chain, ChainFormatError, NonFiniteValueError, load_chain, save_chain


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
    with pytest.raises(NonFiniteValueError, match=r"^non-finite value nan at row 0, column c2$"):
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
