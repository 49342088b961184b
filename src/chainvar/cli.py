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

import numpy as np

from .autocov import LagPairSequence
from .chain import FORMATS, load_chain, save_chain
from .diagnostics import _ellipsoid_region, _ess, cube_region, min_univariate_ess
from .estimators import (
    METHODS,
    MULTIVARIATE,
    NoPositiveDefinitePartialSum,
    uis,
    uis_components,
)
from .experiments import ExperimentConfig, emit_tables, run_replications
from .samplers import MODELS, build
from .symmat import NotPositiveDefiniteError, logdet_from_eigenvalues

# parameters `simulate` uses when no --params file is given
_DEFAULT_PARAMS = {"ar1": {"kind": "hadamard", "p": 12}}


def _load_params(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _write_json(payload: dict, path: str | None) -> None:
    if path is None:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _load_params(args.params) or _DEFAULT_PARAMS.get(args.model, {})
    simulate, _ = build(args.model, params)
    chain, sampler_stats = simulate(args.n, args.seed)
    for name, value in sampler_stats.items():
        print(f"{name}: {value:.4f}", file=sys.stderr)
    save_chain(chain, args.out, args.format)
    return 0


def _estimate_payload(chain, method: str) -> dict:
    n, p = chain.n, chain.p
    if method == "uis":
        est = uis(chain)
        return {
            "method": "uis", "n": n, "p": p,
            "sigma": [est.sigma2], "s_n": None, "t_n": est.t_n,
            "logdet": float(np.log(est.sigma2)) if est.sigma2 > 0.0 else None,
            "pd": bool(est.sigma2 > 0.0), "degenerate": est.degenerate,
        }
    est = MULTIVARIATE[method](chain)
    return {
        "method": est.method, "n": n, "p": p,
        "sigma": [float(v) for v in est.sigma.ravel()],
        "s_n": est.s_n, "t_n": est.t_n,
        "logdet": float(est.logdet), "pd": bool(est.pd),
        "degenerate": est.degenerate,
    }


def _cmd_estimate(args: argparse.Namespace) -> int:
    chain = load_chain(args.input, args.format)
    payload = _estimate_payload(chain, args.method)
    _write_json(payload, args.output)
    return 0


def _cmd_ess(args: argparse.Namespace) -> int:
    chain = load_chain(args.input, args.format)
    if args.method == "uis":
        payload = {"method": "uis", "n": chain.n, "p": chain.p,
                   "ess": min_univariate_ess(chain)}
    else:
        pairs = LagPairSequence(chain)
        est = MULTIVARIATE[args.method](pairs)
        logdet_lam = logdet_from_eigenvalues(pairs.gamma0_eigenvalues)
        payload = {
            "method": args.method, "n": chain.n, "p": chain.p,
            "ess": _ess(chain.n, chain.p, logdet_lam,
                        logdet_from_eigenvalues(est.eigenvalues)),
            "logdet_lambda": logdet_lam, "logdet_sigma": float(est.logdet),
        }
    _write_json(payload, args.output)
    return 0


def _cmd_region(args: argparse.Namespace) -> int:
    chain = load_chain(args.input, args.format)
    alpha = 1.0 - args.level
    if args.kind == "ellipsoid":
        if args.method == "uis":
            raise ValueError("ellipsoid regions need a multivariate method")
        est = MULTIVARIATE[args.method](chain)
        region = _ellipsoid_region(chain.mean, est.sigma, est.eigenvalues, chain.n, alpha)
        shape = {"cutoff": region.cutoff,
                 "sigma": [float(v) for v in region.sigma.ravel()]}
    else:
        if args.method != "uis":
            raise ValueError("cube regions are built from the uis method")
        sd = np.empty(chain.p)
        for j, est in enumerate(uis_components(chain)):
            if not est.usable:
                raise ValueError(f"degenerate univariate estimate in component {j}")
            sd[j] = est.sigma2 ** 0.5
        region = cube_region(chain.mean, sd, chain.n, alpha,
                             bonferroni=args.kind == "bonf")
        shape = {"half_widths": [float(v) for v in region.half_widths]}
    payload = {
        "kind": region.kind, "level": region.level, "n": region.n, "p": region.p,
        "center": [float(v) for v in region.center],
        "volume": region.volume, "volume_root": region.volume_root,
        "log_volume": region.log_volume,
    }
    payload.update(shape)
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

    est = sub.add_parser("estimate", help="long-run covariance estimate as JSON")
    est.add_argument("--method", required=True, choices=METHODS)
    est.add_argument("--input", required=True)
    est.add_argument("--output")
    est.add_argument("--format", default="bin", choices=FORMATS)
    est.set_defaults(func=_cmd_estimate)

    essp = sub.add_parser("ess", help="effective sample size")
    essp.add_argument("--input", required=True)
    essp.add_argument("--method", default="mis", choices=METHODS)
    essp.add_argument("--output")
    essp.add_argument("--format", default="bin", choices=FORMATS)
    essp.set_defaults(func=_cmd_ess)

    reg = sub.add_parser("region", help="confidence region for the mean vector")
    reg.add_argument("--input", required=True)
    reg.add_argument("--method", default="mis", choices=METHODS)
    reg.add_argument("--level", type=float, default=0.9)
    reg.add_argument("--kind", default="ellipsoid", choices=("ellipsoid", "cube", "bonf"))
    reg.add_argument("--output")
    reg.add_argument("--format", default="bin", choices=FORMATS)
    reg.set_defaults(func=_cmd_region)

    exp = sub.add_parser("experiment", help="replication harness")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--workers", type=int, default=1)
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError,
            NoPositiveDefinitePartialSum, NotPositiveDefiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
