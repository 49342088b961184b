"""chainvar benchmark: one workload per call, or every workload in smoke mode.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload harness_ar1_p12 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, one after another
    python3 perfbench/run.py --smoke    # every workload at tiny sizes, both modes

Workloads (see BENCHMARK.json for why each exists):

* ``harness_ar1_p12``   -- replication harness, ar1 Hadamard p=12, analytic truth.
* ``harness_ranef_k21`` -- replication harness, random effects K=21 (p=65),
  long-run truth, two worker processes, BLAS pinned to one thread.
* ``cli_stored``        -- `chainvar estimate`/`ess`/`region` on stored chains.

The program is imported from ``src/`` of the checkout; nothing is
installed.  Each workload runs in fresh processes (`child.py`): set-up
runs ``SETUP_SAMPLES`` times, each in its own process, and ``setup_s``
is their median; then one more process runs the timed part on what the
last set-up left.  ``peak_rss_mb`` is the largest resident set of that
process and of its children (the harness pool workers).

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric; with ``--trace 1`` the metrics are the per-layer ones from
`tracer.py`.  The line before it is a JSON object with the run's
metadata.  Details (per-operation times, report hashes, per-command
scan steps and, when traced, every span) go to
``.perfbench_out/full/<workload>/`` (``smoke/`` in smoke mode).

A failed operation (an exception, an unexpected exit code or a failed
output check) counts in ``failed``; ``failed / attempted`` is the
failure share.  A report hash that differs from `reference.json` is
reported in the metadata but is not a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
DEFAULT_SEED = 1
VALIDATION_SEED = 2



class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    """BENCHMARK.json, the one place that names the metrics and their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(args, workdir: Path, env: dict, phase: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--phase", phase,
           "--spawned-at", repr(time.monotonic())]
    cmd += ["--smoke"] if args.smoke else []
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload}: workload process timed out") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload}: workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.decode().strip() or None


def _reference_hashes(workload: str, seed: int) -> list | None:
    ref = json.loads((HERE / "reference.json").read_text())
    return ref.get("report_sha256", {}).get(workload, {}).get(str(seed))


def _sizes(workload: str, seed: int, smoke: bool) -> dict:
    if workload in wl.HARNESS:
        cfg = wl.harness_config(workload, seed, smoke)
        mp = cfg["model_params"]
        p = mp["p"] if "p" in mp else 3 * mp["K"] + 2
        return {"seed": seed, "n": cfg["n"], "p": p, "replications": cfg["replications"],
                "truth": cfg["truth"], "workers": wl.HARNESS[workload]["workers"]}
    return {"seed": seed, "chains": [
        {"file": f, "model": m, "n": n, "format": fmt, "params": prm}
        for f, m, n, fmt, prm in wl.cli_chains(workload, smoke)]}


def run_workload(args) -> tuple[dict, dict]:
    """Run one workload; return (the result line, the metadata line)."""
    if not (ROOT / "src" / "chainvar" / "__init__.py").is_file():
        raise BenchError(f"no chainvar sources under {ROOT / 'src'}; "
                         "run from the root of a checkout")
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / ("smoke" if args.smoke else "full") / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(wl.env_for(args.workload))
    load_start = os.getloadavg()

    if args.trace:
        res = _child(args, workdir, env, "all", deadline)
        setups = [res["setup_s"]]
    else:
        setups = [_child(args, workdir, env, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        res = _child(args, workdir, env, "measure", deadline)

    if args.trace:
        group, values = "per_layer", res["layers"]
    else:
        group = "end_to_end"
        values = {"setup_s": statistics.median(setups), "wall_s": res["wall_s"],
                  "rows_per_s": res["rows_per_op"] / res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _spec()[group]}

    reference = _reference_hashes(args.workload, args.seed)
    hashes = res.get("report_sha256")
    meta = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "sizes": _sizes(args.workload, args.seed, args.smoke),
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "program": res["program"], "setup_samples_s": setups,
        "failed_frac": res["failed"] / max(1, res["attempted"]),
        "messages": res["messages"],
    }
    if hashes is not None:
        meta["report_sha256"] = hashes
        meta["report_sha256_reference"] = reference
        meta["report_sha256_match"] = None if reference is None else (
            len(hashes) == 1 and list(hashes[0]) == list(reference))
    for key in ("layer_shares", "per_command", "acceptance", "tracer_missing",
                "per_command_s", "op_walls"):
        if key in res:
            meta[key] = res[key]
    (workdir / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=1, default=float) + "\n")
    line = {"correct": res["failed"] == 0, "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}
    return line, meta


def run_all(args, traces) -> list[tuple[str, int, dict | None]]:
    """Every workload of BENCHMARK.json in each trace mode, each in fresh processes."""
    out = []
    for w in _spec()["workloads"]:
        for trace in traces:
            args.workload, args.trace = w["name"], trace
            try:
                line, _ = run_workload(args)
            except BenchError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                line = None
            _summarize(args, line)
            out.append((w["name"], trace, line))
    return out


def smoke(args) -> int:
    """Every workload at tiny sizes, untraced and traced; checks the metric names."""
    spec = _spec()
    ok = True
    for name, trace, line in run_all(args, (0, 1)):
        group = "per_layer" if trace else "end_to_end"
        problems = []
        if line is None:
            problems.append("no result")
        else:
            for m in spec[group]:
                got = line["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"metric {m['name']} missing or wrong unit")
            if line["failed"] != 0 or not line["correct"]:
                problems.append(f"failed {line['failed']} of {line['attempted']}")
        status = "ok" if not problems else "FAIL " + "; ".join(problems)
        print(f"smoke {name} trace={trace}: {status}", file=sys.stderr)
        ok = ok and not problems
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def _summarize(args, line: dict | None) -> None:
    if line is None:
        return
    metrics = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in line["metrics"].items())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {metrics}; "
          f"failed {line['failed']} of {line['attempted']}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.NAMES,
                    help="the workload to run (default: every workload, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"{VALIDATION_SEED} is kept for validating claims)")
    ap.add_argument("--seconds", type=float,
                    help="length of the timed part (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes in both modes and check the metrics")
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = args.seconds or 1.0
        return smoke(args)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.workload is None:
        results = run_all(args, (args.trace,))
        print(json.dumps({name: line for name, _, line in results}))
        return 0 if all(line is not None for _, _, line in results) else 1
    try:
        line, meta = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _summarize(args, line)
    print(json.dumps(meta, default=float))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
