"""Start-up imports: chainvar loads neither scipy.stats nor scipy.signal until
an AR(1) simulator is built.  Each case runs in a fresh interpreter, since
this test process has imported both."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainvar
from chainvar import Ar1Params, ar1_simulate, save_chain

_SRC = str(Path(chainvar.__file__).resolve().parents[1])

# the last line a case prints: which of the two modules it has loaded
_REPORT = """
import sys
print(" ".join(m for m in ("scipy.stats", "scipy.signal") if m in sys.modules))
"""


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(code: str, *args: str) -> set[str]:
    return set(_run(code + _REPORT, *args).stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def stored_chains(tmp_path_factory):
    chain = ar1_simulate(Ar1Params.hadamard_fixture(4), 2_000, 7)
    paths = {}
    for fmt in ("bin", "csv"):
        paths[fmt] = tmp_path_factory.mktemp("chains") / f"chain.{fmt}"
        save_chain(chain, paths[fmt], fmt)
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

_WITHOUT_AR1 = {
    "import": "import chainvar, chainvar.cli",
    "build ranef": "from chainvar.samplers import build\n"
                   "build('ranef', {'K': 2})[0](50, 1)",
    "build logistic": "from chainvar.samplers import build\n"
                      "build('logistic', {})[0](50, 1)",
}


@pytest.mark.parametrize("code", _WITHOUT_AR1.values(), ids=_WITHOUT_AR1)
def test_no_stats_or_signal_without_an_ar1_simulator(code):
    assert _loaded(code) == set()


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_no_stats_or_signal_for_analyst_commands_on_a_stored_chain(stored_chains, tmp_path, fmt):
    path = stored_chains[fmt]
    assert _loaded(_CLI_ON_STORED, str(path), fmt, str(tmp_path / "out.json")) == set()


def test_building_an_ar1_simulator_loads_signal():
    assert "scipy.signal" in _loaded("from chainvar.samplers import build\n"
                                     "build('ar1', {'kind': 'scalar', 'a': 0.5})")


# An audit hook, inherited by forked workers, reports every module a worker
# imports.  A last pool, started after a marker, imports one module itself,
# which shows that the hook sees imports in a worker.
_POOL_IMPORTS = """
import multiprocessing, os, sys
from concurrent.futures import ProcessPoolExecutor
from chainvar import ExperimentConfig, run_replications

multiprocessing.set_start_method("fork")
parent = os.getpid()

def hook(event, args):
    if event == "import" and os.getpid() != parent:
        os.write(2, f"worker import {args[0]}\\n".encode())

sys.addaudithook(hook)
config = ExperimentConfig.from_dict({
    "model": "ar1", "model_params": {"kind": "hadamard", "p": 4},
    "n": 500, "replications": 4, "master_seed": 3})
run_replications(config, workers=2)
os.write(2, b"control\\n")
with ProcessPoolExecutor(1) as pool:
    pool.submit(exec, "import xml.dom.minidom").result()
"""


def test_ar1_pool_workers_import_nothing():
    lines = _run(_POOL_IMPORTS).stderr.splitlines()
    marker = lines.index("control")
    assert [line for line in lines[:marker] if line.startswith("worker import")] == []
    assert "worker import xml.dom.minidom" in lines[marker + 1:]


_BLAS_LIBRARIES = """
import chainvar
from chainvar import _blas
found = _blas._loaded_paths(), len(_blas._controls())
import scipy.signal, scipy.stats
print(found[0] == _blas._loaded_paths(), found[1], len(_blas._loaded_paths()))
"""


def test_bare_import_finds_every_openblas_scipy_loads():
    same_paths, controls, libraries = _run(_BLAS_LIBRARIES).stdout.split()
    if libraries == "0":
        pytest.skip("no OpenBLAS found in /proc/self/maps")
    assert same_paths == "True"
    assert int(controls) == int(libraries)
