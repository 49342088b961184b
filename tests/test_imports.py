"""Start-up imports: chainvar loads no scipy module, and the process pool
only where it runs.  A region's quantiles come from the standard library,
and the samplers from numpy alone.  Each case runs in a fresh interpreter,
since this test process has imported scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainvar
from chainvar import Ar1Params, ar1_simulate, save_chain

_SRC = str(Path(chainvar.__file__).resolve().parents[1])

# the last line a case prints: the scipy and process-pool modules it has loaded
_REPORT = """
import sys
print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
               or m in ("multiprocessing", "concurrent.futures.process")))
"""


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(code: str, *args: str, report: str = _REPORT) -> set[str]:
    return set(_run(code + report, *args).stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def stored_chains(tmp_path_factory):
    chain = ar1_simulate(Ar1Params.hadamard_fixture(4), 2_000, 7)
    paths = {}
    for fmt in ("bin", "csv"):
        directory = tmp_path_factory.mktemp("chains")
        paths[fmt] = directory / f"chain.{fmt}"
        paths[fmt, "column"] = directory / f"column.{fmt}"
        save_chain(chain, paths[fmt], fmt)
        save_chain(chain.column(0), paths[fmt, "column"], fmt)
    return paths


_CLI_ON_STORED = """
import sys
from chainvar.cli import main
path, fmt, out = sys.argv[1:]
for argv in (["estimate", "--method", "mis"],
             ["ess", "--method", "mis"], ["ess", "--method", "uis"],
             ["region", "--method", "mk"], ["region", "--method", "uis", "--kind", "cube"],
             ["region", "--method", "uis", "--kind", "bonf"]):
    assert main(argv + ["--input", path, "--format", fmt, "--output", out]) == 0, argv
"""

_SIMULATE = """
import sys, tempfile
from chainvar.cli import main
with tempfile.TemporaryDirectory() as out:
    assert main(["simulate", "--model", sys.argv[1], "--n", "50", "--seed", "1",
                 "--out", out + "/chain.bin"]) == 0
"""

_WITHOUT_AR1 = {
    "import": ("import chainvar, chainvar.cli",),
    "build ranef": ("from chainvar.samplers import build\n"
                    "build('ranef', {'K': 2})[0](50, 1)",),
    "build logistic": ("from chainvar.samplers import build\n"
                       "build('logistic', {})[0](50, 1)",),
    "simulate ranef": (_SIMULATE, "ranef"),
    "simulate logistic": (_SIMULATE, "logistic"),
}


@pytest.mark.parametrize("case", _WITHOUT_AR1.values(), ids=_WITHOUT_AR1)
def test_no_stats_or_signal_without_an_ar1_simulator(case):
    # nor any other scipy module, nor the process pool
    assert _loaded(*case) == set()


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_no_stats_or_signal_for_analyst_commands_on_a_stored_chain(stored_chains, tmp_path, fmt):
    path = stored_chains[fmt]
    # nor any other scipy module: the regions' quantiles included
    assert _loaded(_CLI_ON_STORED, str(path), fmt, str(tmp_path / "out.json")) == set()


_ESTIMATE_AND_ESS = """
import sys
from chainvar.cli import main
from chainvar.estimators import METHODS
chain, column, fmt, out = sys.argv[1:]
for command in ("estimate", "ess"):
    for method in METHODS:
        # a uis estimate is of a univariate chain
        for path in (column,) if (command, method) == ("estimate", "uis") else (chain, column):
            argv = [command, "--method", method, "--input", path, "--format", fmt,
                    "--output", out]
            assert main(argv) == 0, argv
"""


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_estimate_and_ess_load_no_scipy(stored_chains, tmp_path, fmt):
    paths = str(stored_chains[fmt]), str(stored_chains[fmt, "column"])
    assert _loaded(_ESTIMATE_AND_ESS, *paths, fmt, str(tmp_path / "out.json")) == set()


# numpy.random, and the modules it loads with it; a process that draws
# nothing loads none of them beyond what `import numpy` loads
_RANDOM_MODULES = """
import sys
print(" ".join(m for m in ("numpy.random", "secrets", "hmac", "_hashlib") if m in sys.modules))
"""

_ANALYSIS = """
import sys
import chainvar.cli
from chainvar import Ar1Params, ar1_truth
ar1_truth(Ar1Params.hadamard_fixture(12))
assert chainvar.cli.main(["estimate", "--method", "mis", "--input", sys.argv[1],
                          "--output", sys.argv[2]]) == 0
"""


def test_an_analysis_loads_no_random_module(stored_chains, tmp_path):
    paths = str(stored_chains["bin"]), str(tmp_path / "out.json")
    assert _loaded(_ANALYSIS, *paths, report=_RANDOM_MODULES) == \
        _loaded("import numpy", report=_RANDOM_MODULES)


_AR1_EXPERIMENT = """
import json, sys
from chainvar import ExperimentConfig, run_replications
regions, workers = json.loads(sys.argv[1]), int(sys.argv[2])
run_replications(ExperimentConfig(model="ar1", model_params={"kind": "hadamard", "p": 4},
                                  n=500, replications=2, regions=regions, master_seed=1),
                 workers=workers)
"""

_REGIONS = json.dumps(["ellipsoid", "cube", "bonferroni"])
_POOL = {"multiprocessing", "concurrent.futures.process"}

_AR1 = {
    "build": ("from chainvar.samplers import build\n"
              "build('ar1', {'kind': 'scalar', 'a': 0.5})[0](50, 1)",),
    "simulate": (_SIMULATE, "ar1"),
    "experiment without regions": (_AR1_EXPERIMENT, "[]", "1"),
    "experiment with regions": (_AR1_EXPERIMENT, _REGIONS, "1"),
    "experiment with regions, 2 workers": (_AR1_EXPERIMENT, _REGIONS, "2"),
}


@pytest.mark.parametrize("case", _AR1.values(), ids=_AR1)
def test_ar1_loads_no_scipy(case):
    # the modes are decoupled and filtered in numpy, and the regions'
    # quantiles come from the standard library; two workers start a pool
    pooled = case[1:] == (_REGIONS, "2")
    assert _loaded(*case) == (_POOL if pooled else set())


# An audit hook, inherited by forked workers, reports every module a worker
# imports.  A last pool, started after a marker, imports one module itself,
# which shows that the hook sees imports in a worker.
_POOL_IMPORTS = """
import json, multiprocessing, os, sys
from concurrent.futures import ProcessPoolExecutor
from chainvar import ExperimentConfig, run_replications

multiprocessing.set_start_method("fork")
parent = os.getpid()

def hook(event, args):
    if event == "import" and os.getpid() != parent:
        os.write(2, f"worker import {args[0]}\\n".encode())

sys.addaudithook(hook)
run_replications(ExperimentConfig.from_dict(json.loads(sys.argv[1])), workers=2)
os.write(2, b"control\\n")
with ProcessPoolExecutor(1) as pool:
    pool.submit(exec, "import xml.dom.minidom").result()
"""


def _worker_imports(config: dict) -> list[str]:
    lines = _run(_POOL_IMPORTS, json.dumps(config)).stderr.splitlines()
    marker = lines.index("control")
    assert "worker import xml.dom.minidom" in lines[marker + 1:]
    return [line for line in lines[:marker] if line.startswith("worker import")]


def test_ar1_pool_workers_import_nothing():
    assert _worker_imports({
        "model": "ar1", "model_params": {"kind": "hadamard", "p": 4},
        "n": 500, "replications": 4, "master_seed": 3}) == []


def test_ranef_pool_workers_import_nothing():
    # the truth runs in a worker, and every region needs a quantile there
    assert _worker_imports({
        "model": "ranef", "model_params": {"K": 2}, "n": 500, "replications": 4,
        "regions": ["ellipsoid", "cube", "bonferroni"], "master_seed": 3,
        "truth": {"kind": "long-run", "n_truth": 2_000}}) == []


# After a pin has scanned the libraries of a bare import, scipy maps its own
# OpenBLAS; the libraries are found once per process, so a later block pins
# numpy's and leaves scipy's at its own count.
_BLAS_AFTER_SCIPY = """
import json
from chainvar import _blas
with _blas.single_threaded_blas():
    pass
import scipy.linalg, scipy.signal
libraries = _blas._controls.__wrapped__()  # a scan of its own, which fills no cache
assert len(libraries) == len(_blas._loaded_paths())
for count, (setter, _) in enumerate(libraries, start=2):
    setter(count)
with _blas.single_threaded_blas():
    inside = [getter() for _, getter in libraries]
print(json.dumps([inside, [getter() for _, getter in libraries]]))
"""


def test_a_library_mapped_after_the_first_pin_keeps_its_count():
    inside, after = json.loads(_run(_BLAS_AFTER_SCIPY).stdout)
    if not inside:
        pytest.skip("no OpenBLAS found in /proc/self/maps")
    assert len(inside) == 2  # numpy's and scipy's
    assert inside == [1, 3]
    assert after == [2, 3]
