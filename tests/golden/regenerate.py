"""Golden outputs: two harness reports and three analyst command outputs.

The files in this directory are the exact bytes that the code writes for
the inputs below, at master seed 1.  ``tests/test_golden.py`` regenerates
them and compares the bytes.  On a mismatch it prints a field diff: the
discrete fields (``s_n``, ``t_n``, ``pd``, ``covered``, ``failed``,
``fail_count``, ``n_success``, and every integer, string or null value)
exactly, and each float field by its largest relative change.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/golden/regenerate.py
        # rewrite the files here, printing the diff against the old ones
    PYTHONPATH=src python tests/golden/regenerate.py --seed 2 --out DIR
        # write the outputs at another seed into DIR
    PYTHONPATH=src python tests/golden/regenerate.py --seed 2 --compare DIR
        # print the diff of this tree's outputs against those in DIR

The bytes read one build's rounding: the lag products, the
eigendecompositions and the AR(1) map back from its modes round as the
OpenBLAS kernels chosen for the CPU do, and numpy's own loops as its SIMD
targets do.  ``build.json`` names that build: numpy's version and SIMD
targets, and the configuration and kernel core of numpy's OpenBLAS.  On
the same build the test compares bytes.  On another, the floats may
differ in their last digits, so it compares the discrete fields exactly
and each float within ``TOLERANCE`` relative; the field diff is printed
either way.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from chainvar import ExperimentConfig, _blas, emit_tables, run_replications
from chainvar.cli import main as cli_main

HERE = Path(__file__).resolve().parent
BUILD = "build.json"
# the largest relative change of a float field on a build other than
# build.json's: OpenBLAS's Haswell, Zen and SandyBridge kernels, forced on
# an AVX-512 Xeon, moved the floats by at most 8.4e-14
TOLERANCE = 1e-12

# (name, config, workers): lags of both chains span several row blocks
HARNESS = (
    ("ar1_p12", {"model": "ar1", "model_params": {"kind": "hadamard", "p": 12},
                 "n": 10_000, "replications": 4,
                 "methods": ["uis", "mk", "mis", "misadj"],
                 "regions": ["ellipsoid", "cube", "bonferroni"],
                 "truth": {"kind": "analytic"}}, 1),
    ("ranef_k2", {"model": "ranef", "model_params": {"K": 2},
                  "n": 20_000, "replications": 4,
                  "methods": ["uis", "mk", "mis", "misadj"],
                  "regions": ["ellipsoid", "cube", "bonferroni"],
                  "truth": {"kind": "long-run", "n_truth": 100_000}}, 2),
)
# the chain the analyst commands read, and their arguments
COMMAND_CHAIN = ("ar1", 20_000)
COMMANDS = (
    ("cli_estimate_mis", ["estimate", "--method", "mis"]),
    ("cli_ess", ["ess"]),
    ("cli_region_ellipsoid", ["region", "--kind", "ellipsoid"]),
)
NAMES = tuple(f"{name}.{fmt}" for name, _, _ in HARNESS for fmt in ("csv", "json")) + tuple(
    f"{name}.json" for name, _ in COMMANDS)

# compared exactly, whatever their type
DISCRETE = frozenset({"s_n", "t_n", "pd", "covered", "failed", "fail_count", "n_success"})


def build() -> dict:
    """What the bytes depend on besides the code and the inputs."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "numpy_simd": config.get("SIMD Extensions", {}).get("found"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            # numpy's OpenBLAS, not another (scipy's) mapped next to it
            "openblas": [lib for lib in _blas.describe()
                         if lib["config"].split()[1:2] == [blas.get("version")]]}


def generate(seed: int = 1) -> dict[str, bytes]:
    """Every golden file's name and bytes at ``seed``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, workers in HARNESS:
            report = run_replications(ExperimentConfig.from_dict(dict(config, master_seed=seed)),
                                      workers=workers)
            for fmt in ("csv", "json"):
                path = Path(tmp, f"{name}.{fmt}")
                emit_tables(report, path, fmt)
                out[path.name] = path.read_bytes()
        model, n = COMMAND_CHAIN
        chain = str(Path(tmp, "chain.bin"))
        _run(["simulate", "--model", model, "--n", str(n), "--seed", str(seed), "--out", chain])
        for name, argv in COMMANDS:
            out[f"{name}.json"] = _run(argv + ["--input", chain]).encode()
    return out


def _run(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"chainvar {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def _parse(name: str, data: bytes):
    text = data.decode()
    if not name.endswith(".csv"):
        return json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    return {row.pop("method"): {key: int(value) if key == "fail_count" else float(value)
                                for key, value in row.items()} for row in rows}


def _leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or math.isnan(old) or math.isnan(new):
        return math.inf
    return abs(new - old) / abs(old)


def field_diff(name: str, old: bytes, new: bytes, tolerance: float = 0.0) -> list[str]:
    """The lines that describe how ``new`` differs from ``old``, field by
    field; empty when the bytes are equal.  A float field whose largest
    relative change is at most ``tolerance`` is left out, and with a
    tolerance, bytes whose fields all agree within it give no line."""
    if old == new:
        return []
    before, after = dict(_leaves(_parse(name, old))), dict(_leaves(_parse(name, new)))
    lines = [f"{name}: {path} only in the {side}"
             for side, a, b in (("old", before, after), ("new", after, before))
             for path in a if path not in b]
    largest: dict[str, float] = {}
    for path, was in before.items():
        if path not in after:
            continue
        now = after[path]
        field = re.sub(r"\[\d+\]", "[*]", path)
        if (field.rsplit(".", 1)[-1].split("[")[0] in DISCRETE
                or not (isinstance(was, float) and isinstance(now, float))):
            if was != now or type(was) is not type(now):
                lines.append(f"{name}: {path} {was!r} -> {now!r}")
        else:
            largest[field] = max(largest.get(field, 0.0), _relative_change(was, now))
    moved = {field: change for field, change in largest.items() if change > tolerance}
    lines += [f"{name}: {field} largest relative change {change:.2g}"
              for field, change in sorted(moved.items())]
    if not lines and not tolerance:
        lines.append(f"{name}: bytes differ, every field equal (formatting)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--out", type=Path, default=HERE, help="directory to write")
    where.add_argument("--compare", type=Path, help="directory to diff against, unchanged")
    args = parser.parse_args(argv)
    base = args.compare or args.out
    here = build()
    if (base / BUILD).exists() and json.loads((base / BUILD).read_text()) != here:
        print(f"{BUILD}: another build, {json.dumps(here)}")
    new = generate(args.seed)
    for name, data in new.items():
        old = base / name
        lines = field_diff(name, old.read_bytes(), data) if old.exists() else [f"{name}: new file"]
        print("\n".join(lines) or f"{name}: unchanged")
        if args.compare is None:
            args.out.mkdir(parents=True, exist_ok=True)
            old.write_bytes(data)
    if args.compare is None:
        (args.out / BUILD).write_text(json.dumps(here, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
