"""The workload process: set up, run the closed loop, check the outputs.

Started by `run.py` as::

    python3 perfbench/child.py --workload W --seed S --seconds T --trace 0|1 \
        --workdir DIR --spawned-at MONOTONIC --phase setup|measure|all [--smoke]

``--phase setup`` sets up and reports ``setup_s``, which runs from
``--spawned-at`` (the parent's monotonic clock just before it started
this process) to the end of set-up, so it covers interpreter start,
imports and the workload's own set-up.  ``--phase measure`` reuses what
the last set-up wrote and runs the timed part, so its ``peak_rss_mb`` is
that of the timed part alone; ``--phase all`` does both (traced runs).
The process prints one JSON object as the last line of its standard
output.

Untraced (``--trace 0``): after one small untimed warm-up, operations run
back to back, each after the previous one has finished, until ``--seconds``
have passed.  A harness operation is one `run_replications` call plus
`emit_tables` in csv and json; a `cli_stored` operation is one
`chainvar.cli.main` call.

Traced (``--trace 1``): operations alternate between untraced ones and
ones run under `tracer.Tracer`, so the same process measures the tracing
overhead.  Traced harness operations use ``workers=1``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracer as tr
import workloads as wl


def _median(values):
    return statistics.median(values) if values else float("nan")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Harness:
    """`run_replications` + `emit_tables` on one fixed config."""

    def __init__(self, name: str, seed: int, workdir: Path, smoke: bool) -> None:
        from chainvar import experiments

        self.ex = experiments
        self.fields = wl.harness_config(name, seed, smoke)
        self.config = experiments.ExperimentConfig.from_dict(self.fields)
        self.workers = wl.HARNESS[name]["workers"]
        self.workdir = workdir
        truth_rows = self.fields["truth"].get("n_truth", 0)
        self.rows = self.config.replications * self.config.n + truth_rows
        self.hashes: set[tuple[str, str]] = set()

    def setup(self) -> None:
        """Config build only; harness inputs are generated inside the program."""

    def warmup(self) -> None:
        small = dict(self.fields, n=min(self.config.n, 2_000), replications=2)
        if "n_truth" in small["truth"]:
            small["truth"] = dict(small["truth"], n_truth=2_000)
        report = self.ex.run_replications(
            self.ex.ExperimentConfig.from_dict(small), workers=self.workers)
        self.ex.emit_tables(report, self.workdir / "warmup.csv", "csv")

    def op(self, workers: int) -> tuple[float, list[str]]:
        csv_path = self.workdir / "report.csv"
        json_path = self.workdir / "report.json"
        t0 = time.perf_counter()
        report = self.ex.run_replications(self.config, workers=workers)
        self.ex.emit_tables(report, csv_path, "csv")
        self.ex.emit_tables(report, json_path, "json")
        wall = time.perf_counter() - t0
        self.hashes.add((_sha256(csv_path), _sha256(json_path)))
        return wall, self.check(json.loads(json_path.read_text()))

    def check(self, report: dict) -> list[str]:
        problems = []
        reps = self.config.replications
        for row in report["table"]:
            if row["n_success"] + row["fail_count"] != reps:
                problems.append(f"{row['method']}: n_success + fail_count != {reps}")
            if row["n_success"] and not (math.isfinite(row["ess_mean"])
                                         and row["ess_mean"] > 0.0):
                problems.append(f"{row['method']}: ess_mean {row['ess_mean']!r}")
        for rec in report["records"]:
            mis, adj = rec["methods"].get("mis", {}), rec["methods"].get("misadj", {})
            if "logdet" in mis and "logdet" in adj and mis.get("pd"):
                if adj["logdet"] < mis["logdet"] - wl.LOGDET_SLACK * max(1.0, abs(mis["logdet"])):
                    problems.append(f"replication {rec['replication']}: "
                                    f"misadj logdet < mis logdet")
        return problems


class CliStored:
    """`chainvar.cli.main` on three chains written by `chainvar simulate`."""

    def __init__(self, name: str, seed: int, workdir: Path, smoke: bool) -> None:
        import chainvar.cli

        self.cli = chainvar.cli
        self.name, self.seed, self.workdir, self.smoke = name, seed, workdir, smoke
        self.chains = wl.cli_chains(name, smoke)
        self.commands = wl.cli_commands(name, str(workdir), smoke)
        self.rows = sum(c["rows"] for c in self.commands)
        self.acceptance = None
        self._sigma_truth = None

    def _main(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue(), err.getvalue()

    def setup(self) -> None:
        from chainvar import Chain, load_chain, save_chain

        for fname, model, n, fmt, params in self.chains:
            argv = ["simulate", "--model", model, "--n", str(n), "--seed", str(self.seed),
                    "--out", str(self.workdir / fname), "--format", fmt]
            if params:
                params_path = self.workdir / f"{fname}.params.json"
                params_path.write_text(json.dumps(params))
                argv += ["--params", str(params_path)]
            code, _, err = self._main(argv)
            if code != 0:
                raise RuntimeError(f"simulate {fname} exited {code}: {err.strip()}")
            if model == "logistic":
                self.acceptance = err.strip()
        path = str(self.workdir / wl.CLI[self.name]["degenerate"])
        values = load_chain(path, "bin").values.copy()
        values[:, 1] = 1.0
        save_chain(Chain(values), path, "bin")

    def warmup(self) -> None:
        for cmd in self.commands:
            if cmd["chain"] == "logistic.csv" and cmd["argv"][0] == "region":
                self._main(cmd["argv"])

    def op(self, cmd: dict) -> tuple[float, list[str]]:
        t0 = time.perf_counter()
        code, out, err = self._main(cmd["argv"])
        wall = time.perf_counter() - t0
        return wall, self.check(cmd, code, out, err)

    def sigma_truth(self):
        if self._sigma_truth is None:
            from chainvar import Ar1Params, ar1_truth
            self._sigma_truth = ar1_truth(Ar1Params.hadamard_fixture(12)).Sigma
        return self._sigma_truth

    def check(self, cmd: dict, code, out: str, err: str) -> list[str]:
        import numpy as np

        label = " ".join(cmd["argv"][:3]) + f" on {cmd['chain']}"
        if code != cmd["expect"]:
            return [f"{label}: exit {code}, expected {cmd['expect']}: {err.strip()[:200]}"]
        if cmd["expect"] != 0:
            if not any(line.startswith("error:") for line in err.splitlines()):
                return [f"{label}: no 'error:' line on stderr"]
            return []
        try:
            payload = json.loads(out)
        except ValueError:
            return [f"{label}: output is not JSON"]
        problems = []
        kind = cmd["argv"][0]
        fields = {"estimate": ("method", "n", "p", "sigma", "s_n", "t_n", "logdet",
                               "pd", "degenerate"),
                  "ess": ("method", "n", "p", "ess", "logdet_lambda", "logdet_sigma"),
                  "region": ("kind", "level", "n", "p", "center", "volume",
                             "volume_root", "log_volume")}[kind]
        missing = [f for f in fields if f not in payload]
        if missing:
            return [f"{label}: missing fields {missing}"]
        if payload["n"] != cmd["rows"]:
            problems.append(f"{label}: n={payload['n']}, expected {cmd['rows']}")
        p = payload["p"]
        if kind == "estimate":
            sigma = np.asarray(payload["sigma"], dtype=float)
            if payload["pd"] is not True:
                problems.append(f"{label}: pd is {payload['pd']!r}")
            if sigma.size != p * p or not np.all(np.isfinite(sigma)):
                problems.append(f"{label}: sigma is not a finite {p}x{p} matrix")
            elif cmd["chain"] == "ar1_p12.bin" and payload["method"] in ("mis", "misadj"):
                truth = self.sigma_truth()
                rel = float(np.linalg.norm(sigma.reshape(p, p) - truth) / np.linalg.norm(truth))
                tol = wl.AR1_SIGMA_REL_TOL_SMOKE if self.smoke else wl.AR1_SIGMA_REL_TOL
                if not rel <= tol:
                    problems.append(f"{label}: relative Frobenius error {rel:.4f} > {tol}")
        elif kind == "ess":
            if not (math.isfinite(payload["ess"]) and payload["ess"] > 0.0):
                problems.append(f"{label}: ess {payload['ess']!r}")
        else:
            if not (len(payload["center"]) == p and math.isfinite(payload["volume_root"])
                    and payload["volume_root"] > 0.0):
                problems.append(f"{label}: bad region center or volume_root")
        return problems


def _run_ops(runner, kinds, seconds: float):
    """Cycle through `kinds` until `seconds` have passed and each kind ran once.

    A kind is ``(label, payload, tracer or None)``; an operation with a
    tracer runs with it installed.  Returns the wall times per label, the
    span range ``(tracer, lo, hi, label)`` of each traced operation, the
    number of operations attempted and failed, and the failure messages.
    """
    walls: dict = {}
    units = []
    failed = 0
    messages = []
    start = time.perf_counter()
    i = 0
    while i < len(kinds) or time.perf_counter() - start < seconds:
        label, payload, tracer = kinds[i % len(kinds)]
        i += 1
        try:
            if tracer is not None:
                lo = len(tracer.spans)
                with tracer.installed():
                    wall, problems = runner.op(payload)
                units.append((tracer, lo, len(tracer.spans), label))
            else:
                wall, problems = runner.op(payload)
        except Exception:
            failed += 1
            messages.append(traceback.format_exc(limit=3))
            continue
        walls.setdefault(label, []).append(wall)
        if problems:
            failed += 1
            messages.extend(problems)
    return walls, units, i, failed, messages


def _layer_metrics(per_unit: list[dict], setup_totals: dict | None, extra: dict) -> dict:
    """Average the per-unit totals, add set-up totals, and form the ratios."""
    keys = {k for u in per_unit for k, v in u.items() if isinstance(v, (int, float))}
    agg = {k: sum(u.get(k, 0) for u in per_unit) / len(per_unit) for k in keys}
    if setup_totals:
        for k, v in setup_totals.items():
            if isinstance(v, (int, float)):
                agg[k] = agg.get(k, 0) + v
    def g(key):
        return agg.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    durations = [d for u in per_unit for d in u["_rep_durations"]]
    m = {
        "samplers.calls": g("samplers.calls"),
        "samplers.rows": g("samplers.rows"),
        "samplers.self_s": g("samplers.self_s"),
        "samplers.rows_per_s": ratio(g("samplers.rows"), g("samplers.self_s")),
        "chain.load_calls": g("chain.load_calls"),
        "chain.load_s": g("chain.load_s"),
        "chain.load_mb_per_s": ratio(g("_load_bytes") / 1e6, g("chain.load_s")),
        "chain.save_s": g("chain.save_s"),
        "chain.save_mb_per_s": ratio(g("_save_bytes") / 1e6, g("chain.save_s")),
        "autocov.sequences": g("autocov.sequences"),
        "autocov.pairs": g("autocov.pairs"),
        "autocov.self_s": g("autocov.self_s"),
        "autocov.lag_gflop_computed": g("autocov.lag_gflop_computed"),
        "autocov.gflop_per_s": ratio(g("autocov.lag_gflop_computed"), g("_lag_s")),
        "symmat.eig_calls": g("symmat.eig_calls"),
        "symmat.self_s": g("symmat.self_s"),
        "estimators.calls": g("estimators.calls"),
        "estimators.self_s": g("estimators.self_s"),
        "estimators.scan_steps": g("estimators.scan_steps"),
        "estimators.pairs_used_ratio": ratio(g("_pairs_used"), g("_pairs_materialized")),
        "estimators.failed": g("estimators.failed"),
        "diagnostics.calls": g("diagnostics.calls"),
        "diagnostics.self_s": g("diagnostics.self_s"),
        "experiments.truth_s": g("experiments.truth_s"),
        "experiments.rep_p50_s": tr.percentile(durations, 50),
        "experiments.rep_p90_s": tr.percentile(durations, 90),
        "experiments.aggregate_s": g("experiments.aggregate_s"),
        "experiments.pool_efficiency": 0.0,
        "cli.import_s": extra["import_s"],
        "cli.self_s": g("cli.self_s"),
        "cli.cmd_errors": g("cli.cmd_errors"),
        "trace.overhead_frac": extra["overhead_frac"],
    }
    if math.isfinite(extra.get("replication_phase_s") or math.nan):
        m["experiments.pool_efficiency"] = ratio(
            g("_rep_busy_s"), extra["workers"] * extra["replication_phase_s"])
    return m


def _layer_shares(per_unit: list[dict], wall: float) -> dict:
    """Each layer's mean self time per traced unit over the mean traced wall time."""
    shares = {}
    for layer in tr.LAYERS:
        self_s = sum(u.get(f"{layer}.self_s", 0.0) for u in per_unit) / len(per_unit)
        shares[layer] = round(self_s / wall, 4) if wall else 0.0
    shares["outside_layers"] = round(1.0 - sum(shares.values()), 4)
    return shares


def run_harness(runner: Harness, seconds: float, traced: bool, tracer) -> dict:
    w = runner.workers
    if not traced:
        walls, _, attempted, failed, messages = _run_ops(runner, [("plain", w, None)], seconds)
        out = {"wall_s": _median(walls.get("plain", [])), "op_walls": walls.get("plain", [])}
    else:
        # the pool-efficiency denominator: replication phase of an untraced
        # operation at the workload's worker count, timed by a phase tracer
        phases = tr.Tracer(only=("run_replications", "_resolve_truth"))
        kinds = [(f"plain_w{w}", w, phases)]
        if w != 1:
            kinds.append(("plain_w1", 1, None))
        kinds.append(("traced_w1", 1, tracer))
        walls, units, attempted, failed, messages = _run_ops(runner, kinds, seconds)
        per_unit = [tr.layer_totals(t.spans, lo, hi) for t, lo, hi, _ in units if t is tracer]
        phase = [tr.replication_phase_s(t.spans, lo, hi) for t, lo, hi, _ in units
                 if t is phases]
        traced_wall = _median(walls.get("traced_w1", []))
        out = {
            "op_walls": walls,
            "per_unit": per_unit,
            "overhead_frac": traced_wall / _median(walls.get("plain_w1", [])) - 1.0,
            "replication_phase_s": _median([p for p in phase if p is not None]),
            "layer_shares": _layer_shares(per_unit, statistics.mean(walls["traced_w1"]))
            if per_unit else {},
        }
    out.update(attempted=attempted, failed=failed, messages=messages[:20],
               report_sha256=sorted(runner.hashes), rows_per_op=runner.rows)
    return out


def run_cli(runner: CliStored, seconds: float, traced: bool, tracer) -> dict:
    cmds = runner.commands
    if not traced:
        kinds = [(str(i), c, None) for i, c in enumerate(cmds)]
        walls, _, attempted, failed, messages = _run_ops(runner, kinds, seconds)
        per_cmd = [_median(walls.get(str(i), [])) for i in range(len(cmds))]
        out = {"wall_s": sum(per_cmd), "per_command_s": per_cmd, "op_walls": walls}
    else:
        kinds = ([(f"plain{i}", c, None) for i, c in enumerate(cmds)]
                 + [(f"traced{i}", c, tracer) for i, c in enumerate(cmds)])
        walls, units, attempted, failed, messages = _run_ops(runner, kinds, seconds)
        plain = sum(_median(walls.get(f"plain{i}", [])) for i in range(len(cmds)))
        traced_wall = sum(_median(walls.get(f"traced{i}", [])) for i in range(len(cmds)))
        # a traced unit is one pass over the commands: the sum of their totals
        passes: list[dict] = []
        for _, lo, hi, label in units:
            i = int(label[len("traced"):])
            if i == 0 or not passes:
                passes.append({})
            passes[-1][i] = tr.layer_totals(tracer.spans, lo, hi)
        first = passes[0]
        out = {
            "op_walls": walls,
            "per_unit": [_sum_totals(p.values()) for p in passes if len(p) == len(cmds)]
            or [_sum_totals(first.values())],
            "overhead_frac": traced_wall / plain - 1.0,
            "per_command": [
                {"argv": " ".join(cmds[i]["argv"][:cmds[i]["argv"].index("--input")]),
                 "chain": cmds[i]["chain"],
                 "scan_steps": t.get("estimators.scan_steps", 0),
                 "pairs_materialized": t.get("_pairs_materialized", 0),
                 "failed_by_reason": t["_failed_by_reason"]}
                for i, t in sorted(first.items())],
        }
        out["layer_shares"] = _layer_shares(out["per_unit"], sum(
            statistics.mean(walls[f"traced{i}"]) for i in range(len(cmds))))
    out.update(attempted=attempted, failed=failed, messages=messages[:20], rows_per_op=runner.rows,
               acceptance=runner.acceptance)
    return out


def _sum_totals(units: list[dict]) -> dict:
    out: dict = {}
    for u in units:
        for k, v in u.items():
            if isinstance(v, (int, float)):
                out[k] = out.get(k, 0) + v
            elif isinstance(v, list):
                out.setdefault(k, []).extend(v)
    return out


def _program_meta() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--phase", choices=("setup", "measure", "all"), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import chainvar.cli  # noqa: F401  (the package entry point; loads every layer)
    import_s = time.perf_counter() - t0

    workdir = Path(args.workdir)
    traced = bool(args.trace)
    tracer = tr.Tracer() if traced else None
    cls = Harness if args.workload in wl.HARNESS else CliStored
    runner = cls(args.workload, args.seed, workdir, args.smoke)
    if args.phase != "measure":
        if traced:
            with tracer.installed():
                runner.setup()
        else:
            runner.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_spans = len(tracer.spans) if traced else 0
    runner.warmup()
    if cls is Harness:
        result = run_harness(runner, args.seconds, traced, tracer)
    else:
        result = run_cli(runner, args.seconds, traced, tracer)
    # ru_maxrss of children covers pool workers the executor has joined
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(setup_s=setup_s, import_s=import_s, peak_rss_mb=peak_kb / 1024.0,
                  program=_program_meta())
    if traced:
        setup_totals = tr.layer_totals(tracer.spans, 0, setup_spans) if setup_spans else None
        result["layers"] = _layer_metrics(result["per_unit"], setup_totals, {
            "import_s": import_s, "overhead_frac": result["overhead_frac"],
            "replication_phase_s": result.get("replication_phase_s"),
            "workers": getattr(runner, "workers", 1)})
        result["tracer_missing"] = sorted(tracer.missing)
        result.pop("per_unit")
        with open(workdir / "spans.jsonl", "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec[:7]) + "\n")
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
