"""BLAS threading: the thread-count helper, harness reports that do not
depend on the BLAS thread count, the worker count or the start method, and
single-column analyst outputs that do not depend on the thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainvar
import chainvar.experiments  # noqa: F401  (loads numpy's and scipy's BLAS)
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

    def test_harness_restores_caller_threads(self, two_threads):
        config = chainvar.ExperimentConfig(
            model="ar1", model_params={"kind": "scalar", "a": 0.5}, n=200,
            replications=2, master_seed=5)
        chainvar.run_replications(config, workers=1)
        assert _counts(two_threads) == [2] * len(two_threads)


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
