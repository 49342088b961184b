"""Bin chains analysed in passes of row blocks, against the same chains loaded."""

import contextlib
import os
import warnings

import numpy as np
import pytest

from chainvar import Chain, LagPairSequence, cli, load_chain, mis, save_chain
from chainvar import chain as chain_module
from chainvar.autocov import _LAG_BLOCK_CELLS, _pass_lags
from chainvar.chain import ChainFormatError, _open_bin
from chainvar.estimators import NoPositiveDefinitePartialSum


def _block(p: int) -> int:
    """Rows of one lag block product of a p-column chain."""
    return _LAG_BLOCK_CELLS // (p * p)


def _ma_chain(n: int, p: int, seed: int) -> np.ndarray:
    # an MA(2) chain around a nonzero mean, so the lags and the centering matter
    e = np.random.default_rng(seed).standard_normal((n + 2, p))
    return 3.0 + e[2:] + 0.8 * e[1:-1] + 0.5 * e[:-2]


# the views of an analyst command, each with its univariate counterpart
_VIEWS = [("estimate", "--method", "mis"), ("estimate", "--method", "misadj"),
          ("estimate", "--method", "mk"), ("estimate", "--method", "uis"),
          ("ess", "--method", "mis"), ("ess", "--method", "uis"),
          ("region", "--kind", "ellipsoid", "--method", "mis"),
          ("region", "--kind", "cube", "--method", "uis"),
          ("region", "--kind", "bonf", "--method", "uis")]


def _outputs(path, capsys, views=_VIEWS):
    got = []
    for argv in views:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--input", str(path)])
        got.append((argv, code, *capsys.readouterr(), [str(w.message) for w in caught]))
    return got


def _loaded_outputs(path, capsys, monkeypatch, views=_VIEWS):
    # the command line with the chain loaded whole, as a csv chain is
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_open_bin", lambda path: contextlib.nullcontext(load_chain(path)))
        return _outputs(path, capsys, views)


def _shapes():
    # per p: n below one block, then n - t equal to one block plus one row
    # and to one block at lags 0 to 2, then several windows of blocks
    yield 1, 3_000
    yield 1, 5_001
    for p in (4, 12, 65, 100):
        b = _block(p)
        for n in (b - 5, b + 1, b + 2, 3 * b + 7 if p < 65 else 2_000):
            yield p, max(n, 8)


@pytest.mark.parametrize("p, n", list(_shapes()))
def test_every_view_prints_the_bytes_of_the_loaded_chain(p, n, tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.bin"
    save_chain(Chain(_ma_chain(n, p, seed=p + n)), path)
    stored = _outputs(path, capsys)
    assert stored == _loaded_outputs(path, capsys, monkeypatch)
    if p < n:
        assert any(code == 0 for _, code, *_ in stored)


def _overflowing(n: int, column: int, moment: str) -> np.ndarray:
    values = _ma_chain(n, 12, seed=3)
    if moment == "mean":
        values[:, column] = 1.5e308 + values[:, column] * 1e306
    else:
        values[:, column] *= 2.0**520
    return values


@pytest.mark.parametrize("moment", ["mean", "variance"])
def test_an_overflow_over_several_blocks_is_named_as_when_loaded(moment, tmp_path, capsys,
                                                                 monkeypatch):
    path = tmp_path / "c.bin"
    save_chain(Chain(_overflowing(5 * _block(12), 7, moment)), path)
    stored = _outputs(path, capsys)
    assert stored == _loaded_outputs(path, capsys, monkeypatch)
    errors = {err for argv, _, _, err, _ in stored if argv[-1] != "uis" or argv[0] != "estimate"}
    assert errors == {f"error: the {moment} of column c8 overflows; rescale the chain\n"}


def test_the_ci_overflow_chain_names_its_mean(tmp_path, capsys, monkeypatch):
    v = np.random.default_rng(3).standard_normal((500, 3))
    v[:, 0] *= 2.0**520
    v[:, 1] = 1.5e308 + v[:, 1] * 1e306
    path = tmp_path / "huge.bin"
    save_chain(Chain(v), path)
    views = [("ess", "--method", "uis"), ("region", "--kind", "cube", "--method", "uis"),
             ("region", "--kind", "bonf", "--method", "uis"), ("estimate", "--method", "mis")]
    stored = _outputs(path, capsys, views)
    assert stored == _loaded_outputs(path, capsys, monkeypatch, views)
    assert {err for _, _, _, err, _ in stored} == {
        "error: the mean of column c2 overflows; rescale the chain\n"}


def test_a_non_finite_cell_in_a_later_block_is_named_as_when_loaded(tmp_path, capsys,
                                                                    monkeypatch):
    values = _ma_chain(4 * _block(12), 12, seed=8)
    row = len(values) - 3
    values[row, 5] = np.inf
    path = tmp_path / "c.bin"
    with open(path, "wb") as fh:
        fh.write(np.array(values.shape, dtype="<u8").tobytes() + values.tobytes())
    with pytest.raises(ValueError) as loaded:
        load_chain(path)
    stored = _outputs(path, capsys)
    assert stored == _loaded_outputs(path, capsys, monkeypatch)
    assert {err for _, _, _, err, _ in stored} == {f"error: {loaded.value}\n"}
    assert str(loaded.value) == f"non-finite value inf at row {row}, column c6"


def _counting_passes(monkeypatch) -> list:
    passes = []
    windows = chain_module._StoredChain._windows

    def counted(self, *args, **kwargs):
        passes.append(args)
        return windows(self, *args, **kwargs)

    monkeypatch.setattr(chain_module._StoredChain, "_windows", counted)
    return passes


def test_a_constant_column_fails_before_any_pair_pass(tmp_path, monkeypatch):
    values = _ma_chain(3 * _block(12), 12, seed=4)
    values[:, 9] = 0.1
    path = tmp_path / "c.bin"
    save_chain(Chain(values), path)
    passes = _counting_passes(monkeypatch)
    with _open_bin(path) as chain:
        pairs = LagPairSequence(chain)
        # the mean, then gamma0 with lag 1, then the range of the suspects
        assert len(passes) == 3
        assert pairs.constant_columns == (9,)
        with pytest.raises(NoPositiveDefinitePartialSum, match="column c10 is constant"):
            mis(pairs)
    assert len(passes) == 3 and not pairs._pairs


@pytest.mark.parametrize("p, first, each", [(4, 6, 12), (12, 4, 8), (65, 2, 4)])
def test_passes_compute_the_lags_their_width_gives(p, first, each, tmp_path, monkeypatch):
    # a pass after the first computes `each` lags, and the first gamma0 and
    # the lags below `first`; each pass carries as many rows as its last lag
    assert _pass_lags(p) == each and first == each // 2
    path = tmp_path / "c.bin"
    save_chain(Chain(_ma_chain(3 * _block(p), p, seed=5)), path)
    passes = _counting_passes(monkeypatch)
    with _open_bin(path) as chain:
        pairs = LagPairSequence(chain)
        # the mean, then the first lags
        assert [carry for _, carry, *_ in passes[1:]] == [first - 1]
        pairs.pair(first // 2 - 1)
        assert len(passes) == 2
        for i in range(first // 2 + each):
            pairs.pair(i)
    assert [carry for _, carry, *_ in passes[2:]] == [first + each - 1, first + 2 * each - 1]


def test_stored_pairs_match_loaded_pairs_at_every_index(tmp_path, monkeypatch):
    # windows of one block, so the lags outgrow a window and carry more rows
    # than it reads; past n - t of one block the chain is read whole
    monkeypatch.setattr(chain_module, "_PASS_BYTES", 1)
    n, p = 400, 65
    path = tmp_path / "c.bin"
    save_chain(Chain(_ma_chain(n, p, seed=6)), path)
    loaded = LagPairSequence(load_chain(path))
    with _open_bin(path) as chain:
        np.testing.assert_array_equal(chain.mean, load_chain(path).mean)
        pairs = LagPairSequence(chain)
        for i in range(loaded.max_index + 1):
            np.testing.assert_array_equal(pairs.partial_sum(i), loaded.partial_sum(i), str(i))
    assert pairs._centered is not None


def _rewrite(path, values) -> None:
    stat = os.stat(path)
    save_chain(Chain(values), path)
    # a later modification time, whatever the clock's resolution
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


@pytest.mark.parametrize("change", ["truncated", "rewritten"])
def test_a_file_changed_between_passes_is_a_format_error(change, tmp_path):
    values = _ma_chain(3 * _block(12), 12, seed=7)
    path = tmp_path / "c.bin"
    save_chain(Chain(values), path)
    with _open_bin(path) as chain:
        pairs = LagPairSequence(chain)
        if change == "truncated":
            os.truncate(path, os.path.getsize(path) - 8)
        else:
            _rewrite(path, values[::-1].copy())
        with pytest.raises(ChainFormatError, match="file changed while it was analysed"):
            # the first pair that the first lag pass leaves to a later one
            pairs.pair(_pass_lags(12) // 4)


def test_simulate_writes_in_blocks_the_bytes_of_the_whole_chain(tmp_path, monkeypatch, capsys):
    # blocks of a few rows, so a csv run of repeated rows spans blocks
    monkeypatch.setattr(cli, "_PASS_BYTES", 1000)
    for model in ("ar1", "ranef", "logistic"):
        simulate, _ = cli.build(model, cli._DEFAULT_PARAMS.get(model, {}))
        chain, stats = simulate(700, 3)
        for fmt in ("bin", "csv"):
            whole, blocked = tmp_path / f"whole.{fmt}", tmp_path / f"blocked.{fmt}"
            save_chain(chain, whole, fmt)
            assert cli.main(["simulate", "--model", model, "--n", "700", "--seed", "3",
                             "--out", str(blocked), "--format", fmt]) == 0
            assert blocked.read_bytes() == whole.read_bytes(), (model, fmt)
            assert capsys.readouterr().err == "".join(
                f"{name}: {value:.4f}\n" for name, value in stats.items())
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "blocked.bin", "blocked.csv", "whole.bin", "whole.csv"]


def test_simulate_that_fails_midway_leaves_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PASS_BYTES", 8 * 12 * 100)
    build = cli.build

    def failing(model, params):
        simulate, p = build(model, params)

        def blocks(n, seed, rows):
            for i, (block, stats) in enumerate(simulate.blocks(n, seed, rows)):
                if i == 2:
                    block[7, 4] = np.nan
                yield block, stats

        return type(simulate)(blocks, simulate.p), p

    monkeypatch.setattr(cli, "build", failing)
    out = tmp_path / "c.bin"
    assert cli.main(["simulate", "--model", "ar1", "--n", "1000", "--seed", "1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: non-finite value nan at row 207, column c5\n"
    assert list(tmp_path.iterdir()) == []
