"""Replication harness: run many seeded chains, estimate, and tabulate
effective sample size, region volume, and coverage with standard errors."""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autocov import LagPairSequence
from .chain import Chain
from .diagnostics import _univariate_ess, cube_region, ellipsoid_region, ess
from .estimators import METHODS, MULTIVARIATE, NoPositiveDefinitePartialSum, uis_components
from .samplers import MODELS, build, replication_stream, truth_stream
from .symmat import NotPositiveDefiniteError

REGION_KINDS = ("ellipsoid", "cube", "bonferroni")
TRUTH_KINDS = ("analytic", "long-run", "external")

CSV_COLUMNS = ("method", "ess_mean", "ess_se", "volroot_mean", "volroot_se",
               "coverage", "coverage_se", "fail_count")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one table of replication results.

    ``model_params`` and ``truth`` are raw JSON-style mappings; see the
    README for the per-model schema.  ``master_seed`` fixes every stream,
    so identical configs produce identical reports byte for byte.
    """

    model: str
    model_params: dict = field(default_factory=dict)
    n: int = 10_000
    replications: int = 200
    level: float = 0.9
    methods: tuple = METHODS
    regions: tuple = ("ellipsoid", "cube", "bonferroni")
    truth: dict = field(default_factory=lambda: {"kind": "analytic"})
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.replications < 1:
            raise ValueError(f"need replications >= 1, got {self.replications}")
        if self.n < 4:
            raise ValueError(f"need n >= 4, got {self.n}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        self.methods = tuple(self.methods)
        self.regions = tuple(self.regions)
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected from {METHODS}")
        for r in self.regions:
            if r not in REGION_KINDS:
                raise ValueError(f"unknown region {r!r}; expected from {REGION_KINDS}")
        kind = self.truth.get("kind")
        if kind not in TRUTH_KINDS:
            raise ValueError(f"unknown truth kind {kind!r}; expected from {TRUTH_KINDS}")
        if kind == "analytic" and self.model != "ar1":
            raise ValueError("analytic truth is only available for the ar1 model")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["methods"] = list(self.methods)
        d["regions"] = list(self.regions)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(**d)


@dataclass
class MethodStats:
    """One table row: aggregated statistics for a method across replications."""

    method: str
    ess_mean: float
    ess_se: float
    volroot_mean: float
    volroot_se: float
    logdet_mean: float
    logdet_se: float
    coverage: float
    coverage_se: float
    fail_count: int
    n_success: int


@dataclass
class ReplicationReport:
    """Aggregated replication results plus the per-replication audit records."""

    config: ExperimentConfig
    truth: np.ndarray
    truth_se: np.ndarray | None
    table: list[MethodStats]
    records: list[dict]

    def row(self, method: str) -> MethodStats:
        for stats in self.table:
            if stats.method == method:
                return stats
        raise KeyError(f"no table row for method {method!r}")


def _resolve_truth(config: ExperimentConfig, simulate,
                   analytic: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    kind = config.truth["kind"]
    if kind == "analytic":
        if analytic is None:
            raise ValueError("analytic truth is not available for this model")
        return analytic, None
    if kind == "external":
        return np.asarray(config.truth["vector"], dtype=np.float64), None
    n_truth = int(config.truth.get("n_truth", 10_000_000))
    chain, _ = simulate(n_truth, truth_stream(config.master_seed))
    se = np.empty(chain.p)
    for j, est in enumerate(uis_components(chain)):
        var = est.sigma2 if not est.degenerate and est.sigma2 > 0.0 else float(
            chain.values[:, j].var())
        se[j] = math.sqrt(var / n_truth)
    return chain.mean.copy(), se


def _replication_record(config: ExperimentConfig, simulate, truth: np.ndarray,
                        index: int) -> dict:
    """Simulate one replication and evaluate every requested method on it."""
    chain, _ = simulate(config.n, replication_stream(config.master_seed, index))
    pairs = LagPairSequence(chain)
    lam = pairs.gamma0
    mu = chain.mean
    alpha = 1.0 - config.level
    out: dict = {"replication": index, "methods": {}}
    for method in config.methods:
        if method not in MULTIVARIATE:
            continue
        entry: dict = {}
        try:
            est = MULTIVARIATE[method](pairs)
            if est.degenerate:
                raise NotPositiveDefiniteError("degenerate estimate")
            entry.update(s_n=est.s_n, t_n=est.t_n, logdet=float(est.logdet),
                         pd=bool(est.pd))
            entry["ess"] = ess(chain.n, lam, est.sigma)
            if "ellipsoid" in config.regions:
                region = ellipsoid_region(mu, est.sigma, chain.n, alpha)
                entry["volroot"] = region.volume_root
                entry["covered"] = bool(region.contains(truth))
        except (NoPositiveDefinitePartialSum, NotPositiveDefiniteError) as exc:
            entry = {"failed": f"{type(exc).__name__}: {exc}"}
        out["methods"][method] = entry
    if "uis" in config.methods:
        out["methods"].update(_univariate_entries(chain, pairs, truth, config, alpha))
    return out


def _univariate_entries(chain: Chain, pairs: LagPairSequence, truth: np.ndarray,
                        config: ExperimentConfig, alpha: float) -> dict:
    estimates = uis_components(chain)
    for j, est in enumerate(estimates):
        if est.degenerate or not est.sigma2 > 0.0:
            failed = {"failed": f"degenerate univariate estimate in component {j}"}
            out = {"uis": dict(failed)}
            if "bonferroni" in config.regions:
                out["uis_bonferroni"] = dict(failed)
            return out
    sigma2 = np.array([est.sigma2 for est in estimates])
    ess_min = min(_univariate_ess(chain.n, pairs.gamma0, estimates))
    logdet = float(np.log(sigma2).sum())
    base = {"ess": ess_min, "logdet": logdet}
    out = {}
    sd = np.sqrt(sigma2)
    if "cube" in config.regions:
        region = cube_region(chain.mean, sd, chain.n, alpha, bonferroni=False)
        out["uis"] = dict(base, volroot=region.volume_root,
                          covered=bool(region.contains(truth)))
    else:
        out["uis"] = dict(base)
    if "bonferroni" in config.regions:
        region = cube_region(chain.mean, sd, chain.n, alpha, bonferroni=True)
        out["uis_bonferroni"] = dict(base, volroot=region.volume_root,
                                     covered=bool(region.contains(truth)))
    return out


def _worker(config_dict: dict, truth: list, index: int) -> dict:
    config = ExperimentConfig.from_dict(config_dict)
    simulate, _ = build(config.model, config.model_params)
    return _replication_record(config, simulate, np.asarray(truth), index)


def _mean_se(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, float("nan")
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _aggregate(config: ExperimentConfig, records: list[dict]) -> list[MethodStats]:
    rows = []
    for method in _table_methods(config):
        entries = [rec["methods"][method] for rec in records]
        ok = [e for e in entries if "failed" not in e]
        ess_mean, ess_se = _mean_se([e["ess"] for e in ok])
        logdet_mean, logdet_se = _mean_se([e["logdet"] for e in ok])
        volroots = [e["volroot"] for e in ok if "volroot" in e]
        volroot_mean, volroot_se = _mean_se(volroots)
        covered = [e["covered"] for e in ok if "covered" in e]
        if covered:
            phat = float(np.mean(covered))
            coverage_se = math.sqrt(phat * (1.0 - phat) / len(covered))
        else:
            phat, coverage_se = float("nan"), float("nan")
        rows.append(MethodStats(
            method=method,
            ess_mean=ess_mean, ess_se=ess_se,
            volroot_mean=volroot_mean, volroot_se=volroot_se,
            logdet_mean=logdet_mean, logdet_se=logdet_se,
            coverage=phat, coverage_se=coverage_se,
            fail_count=len(entries) - len(ok), n_success=len(ok),
        ))
    return rows


def _table_methods(config: ExperimentConfig) -> list[str]:
    names = []
    for m in config.methods:
        if m == "uis":
            names.append("uis")
            if "bonferroni" in config.regions:
                names.append("uis_bonferroni")
        else:
            names.append(m)
    return names


def run_replications(config: ExperimentConfig, workers: int = 1) -> ReplicationReport:
    """Run the configured replications and aggregate them into a report.

    Per-replication estimator failures (no positive definite truncated
    sum, degenerate truncations) are recorded and counted, never fatal.
    Replications may run in parallel (``workers`` processes); records are
    always reduced in replication order, so the report does not depend on
    the worker count.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    simulate, analytic = build(config.model, config.model_params)
    truth, truth_se = _resolve_truth(config, simulate, analytic)
    if workers == 1 or config.replications == 1:
        records = [
            _replication_record(config, simulate, truth, r)
            for r in range(config.replications)
        ]
    else:
        config_dict = config.to_dict()
        truth_list = [float(v) for v in truth]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_worker, config_dict, truth_list, r)
                for r in range(config.replications)
            ]
            records = [fut.result() for fut in futures]
    table = _aggregate(config, records)
    return ReplicationReport(config, truth, truth_se, table, records)


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_tables(report: ReplicationReport, path, format: str = "csv") -> None:
    """Write the report table as CSV, or the full report (with records) as JSON.

    Floats are printed with ``repr``, so parsing the emitted file
    reproduces every number exactly.
    """
    path = Path(path)
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in report.table:
            d = asdict(row)
            lines.append(",".join(_csv_cell(d[c]) for c in CSV_COLUMNS))
        path.write_text("\n".join(lines) + "\n")
    elif format == "json":
        payload = {
            "config": report.config.to_dict(),
            "truth": [float(v) for v in report.truth],
            "truth_se": None if report.truth_se is None
            else [float(v) for v in report.truth_se],
            "table": [asdict(row) for row in report.table],
            "records": report.records,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}; expected csv or json")
