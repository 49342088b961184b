"""BLAS threading: the thread-count helper, harness reports that do not
depend on the BLAS thread count, the worker count or the start method, and
single-column analyst outputs that do not depend on the thread count."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS next to numpy's)

import chainvar
from chainvar import _blas


def _counts(controls):
    return [getter() for _, getter in controls]


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS on two threads for the test; counts restored after."""
    controls = _blas._controls()
    if not controls:
        pytest.skip("no OpenBLAS is loaded in this process")
    saved = _counts(controls)
    for setter, _ in controls:
        setter(2)
    yield controls
    for (setter, _), count in zip(controls, saved):
        setter(count)


class TestSingleThreadedBlas:
    def test_finds_numpy_and_scipy_builds(self, two_threads):
        assert len(two_threads) >= 1
        assert _counts(two_threads) == [2] * len(two_threads)

    def test_one_thread_inside_restored_after(self, two_threads):
        with _blas.single_threaded_blas():
            assert _counts(two_threads) == [1] * len(two_threads)
        assert _counts(two_threads) == [2] * len(two_threads)

    def test_restored_after_an_exception(self, two_threads):
        with pytest.raises(KeyError):
            with _blas.single_threaded_blas():
                assert _counts(two_threads) == [1] * len(two_threads)
                raise KeyError("boom")
        assert _counts(two_threads) == [2] * len(two_threads)

    def test_nested_use_restores_each_level(self, two_threads):
        with _blas.single_threaded_blas():
            with _blas.single_threaded_blas():
                pass
            assert _counts(two_threads) == [1] * len(two_threads)
        assert _counts(two_threads) == [2] * len(two_threads)

    def test_pin_single_thread(self, two_threads):
        _blas.pin_single_thread()
        assert _counts(two_threads) == [1] * len(two_threads)

    def test_overlapping_use_restores_when_the_last_one_leaves(self, two_threads):
        # managers entered from two Python threads need not leave in order
        first, second = _blas.single_threaded_blas(), _blas.single_threaded_blas()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert _counts(two_threads) == [1] * len(two_threads)
        second.__exit__(None, None, None)
        assert _counts(two_threads) == [2] * len(two_threads)

    def test_noop_without_openblas(self, two_threads, monkeypatch):
        monkeypatch.setattr(_blas, "_loaded_paths", lambda: [])
        assert _blas._controls.__wrapped__() == ()
        monkeypatch.setattr(_blas, "_controls", lambda: ())
        with _blas.single_threaded_blas():
            assert _counts(two_threads) == [2] * len(two_threads)
        _blas.pin_single_thread()
        assert _counts(two_threads) == [2] * len(two_threads)

    def test_describe_names_each_build_and_its_core(self, two_threads, monkeypatch):
        builds = _blas.describe()
        assert len(builds) == len(two_threads)
        assert all(b["config"].startswith("OpenBLAS ") and b["corename"] for b in builds)
        # numpy 1.x wheels' ILP64 names, found as the thread controls are
        lib = types.SimpleNamespace(
            openblas_get_config64_=lambda: b"OpenBLAS 0.3.23  USE64BITINT DYNAMIC_ARCH Haswell",
            openblas_get_corename64_=lambda: b"Haswell")
        monkeypatch.setattr(_blas, "_loaded_paths", lambda: ["/lib/libopenblas64_p-r0.so"])
        monkeypatch.setattr(_blas.ctypes, "CDLL", lambda path: lib)
        assert _blas.describe() == [{"config": "OpenBLAS 0.3.23 USE64BITINT DYNAMIC_ARCH Haswell",
                                     "corename": "Haswell"}]

    def test_library_loaded_inside_a_block_keeps_its_count(self, monkeypatch):
        counts = {"numpy": 2, "scipy": 3, "late": 4}

        def library(name):
            return (lambda count: counts.__setitem__(name, count)), (lambda: counts[name])

        loaded = [library("numpy"), library("scipy")]
        monkeypatch.setattr(_blas, "_controls", lambda: tuple(loaded))
        with _blas.single_threaded_blas():
            assert counts == {"numpy": 1, "scipy": 1, "late": 4}
            loaded.insert(0, library("late"))  # its path may sort first
        assert counts == {"numpy": 2, "scipy": 3, "late": 4}

    def test_numpy_1x_ilp64_symbols_are_found(self, monkeypatch):
        # numpy 1.x wheels ship an ILP64 OpenBLAS whose symbols end in 64_
        class Function:
            def __init__(self, call):
                self.call = call

            def __call__(self, *args):
                return self.call(*args)

        count = [4]
        lib = types.SimpleNamespace(
            openblas_set_num_threads64_=Function(lambda n: count.__setitem__(0, n)),
            openblas_get_num_threads64_=Function(lambda: count[0]))
        monkeypatch.setattr(_blas, "_loaded_paths", lambda: ["/lib/libopenblas64_p-r0.so"])
        monkeypatch.setattr(_blas.ctypes, "CDLL", lambda path: lib)
        controls = _blas._controls.__wrapped__()
        assert controls == ((lib.openblas_set_num_threads64_,
                             lib.openblas_get_num_threads64_),)
        monkeypatch.setattr(_blas, "_controls", lambda: controls)
        with _blas.single_threaded_blas():
            assert count == [1]
        assert count == [4]

    def test_scans_once_even_after_an_import(self, monkeypatch):
        scans = []
        monkeypatch.setattr(_blas, "_loaded_paths", lambda: scans.append(1) or [])
        _blas._controls.cache_clear()
        try:
            _blas._controls()
            with _blas.single_threaded_blas():
                pass
            assert len(scans) == 1
            monkeypatch.setitem(sys.modules, "_chainvar_probe", types.ModuleType("_chainvar_probe"))
            with _blas.single_threaded_blas():
                pass
            assert len(scans) == 1
        finally:
            _blas._controls.cache_clear()

    def test_harness_restores_caller_threads(self, two_threads):
        config = chainvar.ExperimentConfig(
            model="ar1", model_params={"kind": "scalar", "a": 0.5}, n=200,
            replications=2, master_seed=5)
        chainvar.run_replications(config, workers=1)
        assert _counts(two_threads) == [2] * len(two_threads)


_COUNTS_DRIVER = """
import json
import scipy.linalg  # the caller maps scipy's OpenBLAS; chainvar maps none of its own
from chainvar import ExperimentConfig, _blas, experiments, run_replications
def counts():
    return [getter() for _, getter in _blas._controls()]
inside, real = [], experiments._replication_record
def probe(*args):
    inside.append(counts())
    return real(*args)
experiments._replication_record = probe
before = counts()
config = ExperimentConfig(model="ar1", model_params={"kind": "hadamard", "p": 4}, n=500,
                          replications=2, methods=("mis",), regions=("ellipsoid",),
                          master_seed=1)
run_replications(config, workers=1)
print(json.dumps({"before": before, "inside": inside, "after": counts()}))
"""


def test_a_library_the_model_maps_is_pinned_too():
    # scipy's OpenBLAS, which the caller mapped before the run, is pinned
    # with numpy's and restored after
    src = str(Path(chainvar.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _COUNTS_DRIVER], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    counts = json.loads(out)
    if counts["before"] != [2, 2]:
        pytest.skip(f"expected numpy's and scipy's OpenBLAS on two threads, "
                    f"found {counts['before']}")
    assert counts["inside"] == [[1, 1]] * 2
    assert counts["after"] == [2, 2]


# Small versions of the benchmark configs.  n = 2e4 is above OpenBLAS's
# threading threshold for a dot product (1e4), so a second BLAS thread
# would change the last digits of every uis field.
CONFIGS = {
    "ar1_p12": {"model": "ar1", "model_params": {"kind": "hadamard", "p": 12},
                "n": 20_000, "replications": 2, "master_seed": 1},
    "ranef_k21": {"model": "ranef", "model_params": {"K": 21},
                  "n": 20_000, "replications": 2, "master_seed": 1,
                  "truth": {"kind": "long-run", "n_truth": 20_000}},
}

OUTPUTS = [(name, fmt) for name in CONFIGS for fmt in ("csv", "json")] + [("analyst", "txt")]

_DRIVER = """
import json, multiprocessing, sys
from chainvar import (ExperimentConfig, emit_tables, mk, run_replications, sample_cov,
                      univariate_ess_components)
from chainvar.samplers import build, replication_stream
configs, out, workers, start_method = json.loads(sys.argv[1]), *sys.argv[2:]
multiprocessing.set_start_method(start_method)
for name, fields in sorted(configs.items()):
    report = run_replications(ExperimentConfig.from_dict(fields), workers=int(workers))
    emit_tables(report, f"{out}_{name}.csv", "csv")
    emit_tables(report, f"{out}_{name}.json", "json")
# the analyst path: per-column uis, and a one-column chain's lags
chain, _ = build("ar1", {"kind": "hadamard", "p": 12})[0](20_000, replication_stream(1, 0))
column = chain.column(0)
values = [univariate_ess_components(chain), mk(column).sigma.tolist(),
          sample_cov(column).tolist()]
with open(f"{out}_analyst.txt", "w") as fh:
    fh.write(repr(values))
"""


def test_reports_identical_across_blas_threads_and_workers(tmp_path):
    src = str(Path(chainvar.__file__).resolve().parents[1])
    runs = [(1, 1, "fork"), (1, 2, "fork"), (2, 1, "fork"),
            (2, 2, "fork"), (2, 2, "spawn"), (2, 2, "forkserver")]
    reports = {}
    # two runs at a time: each spends much of its time in one process
    for batch in (runs[i:i + 2] for i in range(0, len(runs), 2)):
        procs = []
        for threads, workers, start in batch:
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       OMP_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"t{threads}_w{workers}_{start}"
            proc = subprocess.Popen([sys.executable, "-c", _DRIVER, json.dumps(CONFIGS), str(out),
                                     str(workers), start], env=env)
            procs.append((f"threads={threads} workers={workers} {start}", out, proc))
        try:
            for run, out, proc in procs:
                assert proc.wait(timeout=300) == 0, f"the run {run} failed"
                for name, fmt in OUTPUTS:
                    reports[run, name, fmt] = Path(f"{out}_{name}.{fmt}").read_bytes()
        finally:
            for _, _, proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    base = "threads=1 workers=1 fork"
    for (run, name, fmt), report in reports.items():
        assert report == reports[base, name, fmt], f"{name} {fmt} report of {run} differs from {base}"
