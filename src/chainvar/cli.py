"""Command line interface: simulate chains, estimate, and run replication tables.

Subcommands
-----------
simulate    generate a seeded chain from one of the built-in models
estimate    long-run covariance estimate of a stored chain, as JSON
ess         effective sample size of a stored chain
region      confidence region (ellipsoid or cube) for the mean vector
experiment  replication harness driven by a JSON config
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from .chain import _PASS_BYTES, FORMATS, Chain, _open_bin, _save_blocks, load_chain
from .diagnostics import Analysis
from .estimators import METHODS, NoPositiveDefinitePartialSum, UvEstimate
from .experiments import ExperimentConfig, emit_tables, run_replications
from .samplers import MODELS, build

# parameters `simulate` uses when no --params file is given
_DEFAULT_PARAMS = {"ar1": {"kind": "hadamard", "p": 12}}


def _write_json(payload: dict, path: str | None) -> None:
    with open(path, "w") if path is not None else nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.params is None:
        params = _DEFAULT_PARAMS.get(args.model, {})
    else:
        with open(args.params) as fh:
            params = json.load(fh)
    simulate, _ = build(args.model, params)
    blocks = simulate.blocks(args.n, args.seed, max(1, _PASS_BYTES // (8 * simulate.p)))
    # the sampler checks its arguments before the file is opened
    block, stats = next(blocks)

    def rows():
        nonlocal stats
        yield block
        for more, stats in blocks:
            yield more

    _save_blocks(rows(), args.n, simulate.p, args.out, args.format)
    for name, value in stats.items():
        print(f"{name}: {value:.4f}", file=sys.stderr)
    return 0


def _estimate_view(analysis: Analysis, args: argparse.Namespace) -> dict:
    est = analysis.estimate(args.method)
    payload = {"method": args.method, "n": analysis.chain.n, "p": analysis.chain.p}
    if isinstance(est, UvEstimate):
        pd = bool(est.sigma2 > 0.0)
        payload.update(sigma=[est.sigma2], s_n=None, t_n=est.t_n,
                       logdet=float(np.log(est.sigma2)) if pd else None, pd=pd)
    else:
        payload.update(sigma=[float(v) for v in est.sigma.ravel()], s_n=est.s_n,
                       t_n=est.t_n, logdet=float(est.logdet), pd=bool(est.pd))
    payload["degenerate"] = est.degenerate
    return payload


def _ess_view(analysis: Analysis, args: argparse.Namespace) -> dict:
    payload = {"method": args.method, "n": analysis.chain.n, "p": analysis.chain.p,
               "ess": analysis.ess(args.method)}
    if args.method != "uis":
        payload["logdet_lambda"] = analysis.logdet_lambda
        payload["logdet_sigma"] = float(analysis.estimate(args.method).logdet)
    return payload


def _region_view(analysis: Analysis, args: argparse.Namespace) -> dict:
    kind = "bonferroni" if args.kind == "bonf" else args.kind
    region = analysis.region(args.method, kind, args.level)
    payload = {
        "kind": region.kind, "level": region.level, "n": region.n, "p": region.p,
        "center": [float(v) for v in region.center],
        "volume": region.volume, "volume_root": region.volume_root,
        "log_volume": region.log_volume,
    }
    if kind == "ellipsoid":
        payload["cutoff"] = region.cutoff
        payload["sigma"] = [float(v) for v in region.sigma.ravel()]
    else:
        payload["half_widths"] = [float(v) for v in region.half_widths]
    return payload


def _cmd_analysis(args: argparse.Namespace) -> int:
    # a chain held in memory is the analysis's alone, so it is centered in
    # place; a bin chain of several columns is read in passes of row blocks
    if args.format == "csv":
        payload = args.view(Analysis._adopt(load_chain(args.input, "csv")), args)
    else:
        with _open_bin(args.input) as chain:
            analysis = Analysis._adopt(chain) if isinstance(chain, Chain) else Analysis(chain)
            try:
                payload = args.view(analysis, args)
            except ValueError:
                # a view that rejects its arguments has read nothing, and a
                # non-finite value is named first, as a load names it
                if not isinstance(chain, Chain):
                    chain._open()
                raise
    _write_json(payload, args.output)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    report = run_replications(config, workers=args.workers)
    emit_tables(report, args.out, "json" if str(args.out).endswith(".json") else "csv")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainvar",
        description="MCMC output analysis: long-run covariance estimation, "
                    "effective sample size, and confidence regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a seeded chain")
    sim.add_argument("--model", required=True, choices=MODELS)
    sim.add_argument("--n", required=True, type=int)
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", required=True)
    sim.add_argument("--params", help="JSON file of model parameters")
    sim.add_argument("--format", default="bin", choices=FORMATS)
    sim.set_defaults(func=_cmd_simulate)

    # the commands that print a view of one stored chain's analysis
    chain_io = argparse.ArgumentParser(add_help=False)
    chain_io.add_argument("--input", required=True)
    chain_io.add_argument("--output")
    chain_io.add_argument("--format", default="bin", choices=FORMATS)

    est = sub.add_parser("estimate", parents=[chain_io],
                         help="long-run covariance estimate as JSON")
    est.add_argument("--method", required=True, choices=METHODS)
    est.set_defaults(func=_cmd_analysis, view=_estimate_view)

    essp = sub.add_parser("ess", parents=[chain_io], help="effective sample size")
    essp.add_argument("--method", default="mis", choices=METHODS)
    essp.set_defaults(func=_cmd_analysis, view=_ess_view)

    reg = sub.add_parser("region", parents=[chain_io],
                         help="confidence region for the mean vector")
    reg.add_argument("--method", default="mis", choices=METHODS)
    reg.add_argument("--level", type=float, default=0.9)
    reg.add_argument("--kind", default="ellipsoid", choices=("ellipsoid", "cube", "bonf"))
    reg.set_defaults(func=_cmd_analysis, view=_region_view)

    exp = sub.add_parser("experiment", help="replication harness")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--workers", type=int, default=1)
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a warning is printed as one line, as an error is, not as Python's
    # warning text, which names the source line that called the library
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, error = args.func(args), None
        except (ValueError, OSError, KeyError, NoPositiveDefinitePartialSum) as exc:
            code, error = 2, exc
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
