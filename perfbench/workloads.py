"""Workload definitions: what each workload sets up, runs and checks.

Importing this module loads neither numpy nor chainvar, so the parent
process in `run.py` can read the specs without them.  Everything that
touches the program runs in the workload process (`child.py`).

Sizes under ``"smoke"`` are the tiny ones the ``--smoke`` mode uses; they
check plumbing, not performance.
"""

from __future__ import annotations

HARNESS = {
    "harness_ar1_p12": {
        "config": {"model": "ar1", "model_params": {"kind": "hadamard", "p": 12},
                   "n": 100_000, "replications": 10,
                   "methods": ["uis", "mk", "mis", "misadj"],
                   "regions": ["ellipsoid", "cube", "bonferroni"],
                   "truth": {"kind": "analytic"}},
        "workers": 1,
        # BLAS threading left at the program default
        "env": {},
        "smoke": {"n": 2_000, "replications": 2},
    },
    "harness_ranef_k21": {
        "config": {"model": "ranef", "model_params": {"K": 21},
                   "n": 20_000, "replications": 8,
                   "methods": ["uis", "mk", "mis", "misadj"],
                   "regions": ["ellipsoid", "cube", "bonferroni"],
                   "truth": {"kind": "long-run", "n_truth": 100_000}},
        "workers": 2,
        # 2 workers x 2 BLAS threads oversubscribe 2 cores and never settle
        "env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        "smoke": {"n": 2_000, "replications": 2,
                  "truth": {"kind": "long-run", "n_truth": 4_000}},
    },
}

CLI = {
    "cli_stored": {
        # (file, model, n, format, simulate params); "degenerate" gets one
        # constant column written over it after simulation
        "chains": [
            ("ar1_p12.bin", "ar1", 1_000_000, "bin", {"kind": "hadamard", "p": 12}),
            ("logistic.csv", "logistic", 200_000, "csv", {}),
            ("degenerate.bin", "ar1", 16_000, "bin", {"kind": "hadamard", "p": 4}),
        ],
        "healthy": ["ar1_p12.bin", "logistic.csv"],
        "degenerate": "degenerate.bin",
        "env": {},
        "smoke": {"ar1_p12.bin": 20_000, "logistic.csv": 5_000, "degenerate.bin": 2_000},
    },
}

NAMES = tuple(HARNESS) + tuple(CLI)

# Relative Frobenius distance allowed between a mis/misadj estimate on the
# n=1e6 ar1 chain and the closed-form long-run covariance: four times the
# largest distance seen over seeds 1-10 and 101-110 (0.010-0.019).
AR1_SIGMA_REL_TOL = 0.08
# Same check on the smoke-size chain (n=2e4; seen: 0.059-0.116).
AR1_SIGMA_REL_TOL_SMOKE = 0.45

# Slack for "misadj logdet >= mis logdet", which holds exactly in exact
# arithmetic and to rounding in floating point.
LOGDET_SLACK = 1e-9


def env_for(name: str) -> dict:
    spec = HARNESS.get(name) or CLI[name]
    return dict(spec["env"])


def harness_config(name: str, seed: int, smoke: bool) -> dict:
    """The ExperimentConfig fields for a harness workload at a seed."""
    spec = HARNESS[name]
    config = dict(spec["config"], master_seed=seed)
    if smoke:
        config.update(spec["smoke"])
    return config


def cli_chains(name: str, smoke: bool) -> list[tuple]:
    spec = CLI[name]
    out = []
    for fname, model, n, fmt, params in spec["chains"]:
        if smoke:
            n = spec["smoke"][fname]
        out.append((fname, model, n, fmt, params))
    return out


def cli_commands(name: str, workdir: str, smoke: bool) -> list[dict]:
    """The timed commands, in order: six per healthy chain, then the degenerate one."""
    spec = CLI[name]
    rows = {fname: n for fname, _, n, _, _ in cli_chains(name, smoke)}
    fmts = {fname: fmt for fname, _, _, fmt, _ in spec["chains"]}
    commands = []
    for fname in spec["healthy"]:
        base = ["--input", f"{workdir}/{fname}", "--format", fmts[fname]]
        for argv in (["estimate", "--method", "mis"],
                     ["estimate", "--method", "misadj"],
                     ["estimate", "--method", "mk"],
                     ["ess", "--method", "mis"],
                     ["region", "--kind", "ellipsoid", "--method", "misadj"],
                     ["region", "--kind", "bonf", "--method", "uis"]):
            commands.append({"chain": fname, "argv": argv + base, "rows": rows[fname],
                             "expect": 0})
    fname = spec["degenerate"]
    commands.append({"chain": fname, "rows": rows[fname], "expect": 2,
                     "argv": ["estimate", "--method", "mis", "--input",
                              f"{workdir}/{fname}", "--format", fmts[fname]]})
    return commands
