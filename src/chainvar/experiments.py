"""Replication harness: run many seeded chains, estimate, and tabulate
effective sample size, region volume, and coverage with standard errors."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from numbers import Integral, Real
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ._blas import pin_single_thread, single_threaded_blas
from .diagnostics import Analysis, Region
from .chain import _add_rows, _check_finite
from .estimators import METHODS, NoPositiveDefinitePartialSum
from .samplers import MODELS, SeedLike, build, replication_stream, truth_stream
from .samplers.registry import _LIST, Simulator, _check_keys, _json_object, _typed
from .symmat import NotPositiveDefiniteError

REGION_KINDS = ("ellipsoid", "cube", "bonferroni")
# the keys a truth of each kind may have
_TRUTH_KEYS = {"analytic": ("kind",), "long-run": ("kind", "n_truth"),
               "external": ("kind", "vector")}
TRUTH_KINDS = tuple(_TRUTH_KEYS)

# bytes of one block of a long-run truth
_TRUTH_BLOCK_BYTES = 1 << 22

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
        for name, kind in (("n", Integral), ("replications", Integral),
                           ("level", Real), ("master_seed", Integral),
                           ("methods", _LIST), ("regions", _LIST)):
            _typed(getattr(self, name), kind, f"config field {name!r}")
        if self.replications < 1:
            raise ValueError(f"need replications >= 1, got {self.replications}")
        if self.n < 4:
            raise ValueError(f"need n >= 4, got {self.n}")
        if self.master_seed < 0:
            raise ValueError(f"need master_seed >= 0, got {self.master_seed}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        for name in ("model_params", "truth"):
            _json_object(getattr(self, name), f"config field {name!r}")
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
        _check_keys(self.truth, _TRUTH_KEYS[kind], f"{kind} truth")
        if kind == "analytic" and self.model != "ar1":
            raise ValueError("analytic truth is only available for the ar1 model")
        if kind == "external" and "vector" not in self.truth:
            raise ValueError("an external truth needs the key 'vector'")
        if "n_truth" in self.truth:
            _typed(self.truth["n_truth"], Integral, "truth field 'n_truth'")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["methods"] = list(self.methods)
        d["regions"] = list(self.regions)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config a JSON object describes; a key that fits no field raises ValueError."""
        _json_object(d, "an experiment config")
        _check_keys(d, [f.name for f in fields(cls)], "config")
        if "model" not in d:
            raise ValueError("an experiment config needs the key 'model'")
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


def _resolve_truth(config: ExperimentConfig, simulate: Simulator,
                   analytic: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    kind = config.truth["kind"]
    if kind == "analytic":
        if analytic is None:
            raise ValueError("analytic truth is not available for this model")
        return analytic, None
    if kind == "external":
        vector = np.asarray(config.truth["vector"], dtype=np.float64)
        if vector.shape != (simulate.p,):
            raise ValueError(f"an external truth needs shape ({simulate.p},), "
                             f"got {vector.shape}")
        if not np.isfinite(vector).all():
            raise ValueError(f"an external truth must be finite, "
                             f"got {vector[~np.isfinite(vector)][0]}")
        return vector, None
    n_truth = int(config.truth.get("n_truth", 10_000_000))
    if n_truth < 2:
        raise ValueError(f"a long-run truth needs n_truth >= 2, got {n_truth}")
    return _long_run_truth(simulate, n_truth, truth_stream(config.master_seed))


def _long_run_truth(simulate: Simulator, n_truth: int,
                    seed: SeedLike) -> tuple[np.ndarray, np.ndarray]:
    """The mean of a long run and its batch-means standard errors, read
    block by block, so that memory is bounded by a block, not by the run.

    The mean is the one :attr:`Chain.mean` gives, bit for bit when p >= 2
    (:func:`chain._add_rows`).  The run is cut into a = n // b
    batches of b = isqrt(n) rows (Flegal & Jones 2010), rows past a*b left
    out, and the batch means give the variance of component j as
    b/(a-1) * sum_k (batch mean kj - their mean j)^2.
    """
    p = simulate.p
    b = math.isqrt(n_truth)
    a = n_truth // b
    batch_sums = np.zeros((a, p))
    total = None
    first = 0
    for block, _ in simulate.blocks(n_truth, seed, max(1, _TRUTH_BLOCK_BYTES // (8 * p))):
        _check_finite(block, at=lambda i: f"row {first + i}")
        batched = block[:max(0, a * b - first)]
        if batched.size:
            # the block's rows at which a batch starts, after its first row
            starts = np.arange(b - first % b, batched.shape[0], b)
            sums = np.add.reduceat(batched, np.concatenate(([0], starts)), axis=0)
            batch_sums[first // b:first // b + sums.shape[0]] += sums
        total = _add_rows(total, block)  # the block is ours until the next one is drawn
        first += block.shape[0]
    del block  # the sampler's buffer
    deviations = np.divide(batch_sums, b, out=batch_sums)
    deviations -= deviations.mean(axis=0)
    sigma2 = b / (a - 1) * np.einsum("kj,kj->j", deviations, deviations)
    return total / n_truth, np.sqrt(sigma2 / n_truth)


def _truth_task(config: ExperimentConfig, simulate,
                analytic: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_resolve_truth` as a task: this function is what gets pickled,
    so a wrapper bound to the name ``_resolve_truth`` (a profiler's, say)
    runs in the worker and never has to pickle itself."""
    return _resolve_truth(config, simulate, analytic)


def _replication_record(config: ExperimentConfig, simulate,
                        index: int) -> tuple[dict, dict[str, Region]]:
    """Simulate one replication and evaluate every requested method on it.

    Returns the record and the confidence region of each table row that
    built one; :func:`_with_coverage` later adds whether it covers the truth.
    A degenerate or indefinite estimate fails its row, and an unusable
    component fails the uis rows.
    """
    chain, _ = simulate(config.n, replication_stream(config.master_seed, index))
    # the chain is held once: the analysis centers it in place
    analysis = Analysis._adopt(chain)
    regions: dict[str, Region] = {}
    # the uis rows read the raw columns, so they are built first
    uis_rows = (_univariate_entries(analysis, config, regions)
                if "uis" in config.methods else {})
    out: dict = {"replication": index, "methods": {}}
    for method in config.methods:
        if method == "uis":
            continue
        try:
            est = analysis.estimate(method)
            if est.degenerate:
                raise NotPositiveDefiniteError("degenerate estimate")
            entry = {"s_n": est.s_n, "t_n": est.t_n, "logdet": float(est.logdet),
                     "pd": bool(est.pd), "ess": analysis.ess(method)}
            if "ellipsoid" in config.regions:
                regions[method] = region = analysis.region(method, "ellipsoid", config.level)
                entry["volroot"] = region.volume_root
        except (NoPositiveDefinitePartialSum, NotPositiveDefiniteError) as exc:
            entry = {"failed": f"{type(exc).__name__}: {exc}"}
        out["methods"][method] = entry
    out["methods"].update(uis_rows)
    return out, regions


def _with_coverage(record: dict, regions: dict[str, Region], truth: np.ndarray) -> dict:
    """The record with ``covered``, the last field of each row that has a region."""
    for row, region in regions.items():
        record["methods"][row]["covered"] = bool(region.contains(truth))
    return record


def _uis_rows(config: ExperimentConfig) -> tuple[str, ...]:
    """The table rows of the uis method: its cube, then its Bonferroni cube if requested."""
    return ("uis", "uis_bonferroni") if "bonferroni" in config.regions else ("uis",)


def _univariate_entries(analysis: Analysis, config: ExperimentConfig,
                        regions: dict[str, Region]) -> dict:
    """The uis rows of a record; each cube built goes into ``regions``."""
    # a moment overflow raises here and stops the run; only an unusable
    # component fails the rows
    sigma2 = [est.sigma2 for est in analysis.components]
    try:
        analysis.uis_sd()
    except ValueError as exc:  # an unusable component
        return {row: {"failed": str(exc)} for row in _uis_rows(config)}
    base = {"ess": analysis.ess("uis"), "logdet": float(np.log(sigma2).sum())}
    out = {}
    for row in _uis_rows(config):
        kind = "bonferroni" if row == "uis_bonferroni" else "cube"
        out[row] = entry = dict(base)
        if kind in config.regions:
            regions[row] = region = analysis.region("uis", kind, config.level)
            entry["volroot"] = region.volume_root
    return out


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
    return [row for m in config.methods
            for row in (_uis_rows(config) if m == "uis" else (m,))]


@contextmanager
def _task_runner(workers: int):
    """Yields ``submit(fn, *args)``, which returns an object with ``result()``.

    With one worker each call runs in this process when its result is
    asked for; otherwise a process pool runs the calls in submission
    order, and on leaving the block the calls not yet started are
    cancelled, so an error does not wait for the rest of the run.
    """
    if workers == 1:
        yield lambda fn, *args: SimpleNamespace(result=partial(fn, *args))
        return
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    # every task draws, so numpy.random is loaded before the pool forks and
    # each worker inherits it instead of importing it again
    import numpy.random  # noqa: F401

    # forked workers inherit one thread; the initializer covers start
    # methods that import numpy afresh
    pool = ProcessPoolExecutor(max_workers=workers, initializer=pin_single_thread)
    try:
        yield pool.submit
    finally:
        pool.shutdown(cancel_futures=True)


def run_replications(config: ExperimentConfig, workers: int = 1) -> ReplicationReport:
    """Run the configured replications and aggregate them into a report.

    Per-replication estimator failures (no positive definite truncated
    sum, degenerate truncations) are recorded and counted, never fatal.
    Replications may run in parallel (``workers`` processes); records are
    always reduced in replication order, so the report does not depend on
    the worker count.

    The truth is the first task and each replication one more.  A
    replication returns its record and its confidence regions, and the
    record gets its ``covered`` flags here, as soon as both it and the
    truth are in.  So with ``workers >= 2`` a long-run truth runs in one
    worker while the others work through the replications, and an error,
    such as an external truth of the wrong length, stops the run before
    the first record instead of after the last.

    The whole run uses one OpenBLAS thread per process, and the caller's
    thread counts are restored on return, so the report does not depend
    on them either.  ``workers`` is the way to use more cores: idle BLAS
    threads would spin on the cores the workers need.  The price is paid
    where BLAS work dominates and one worker runs, such as random effects
    at K=21 (p=65 lag products) at ``workers=1``, a configuration no
    benchmark workload measures; the README's Parallelism section gives
    the hand-timed numbers.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    # the model is loaded before the pool forks, so the workers inherit it
    simulate, analytic = build(config.model, config.model_params)
    with (single_threaded_blas(),
          _task_runner(workers if config.replications > 1 else 1) as submit):
        truth_task = submit(_truth_task, config, simulate, analytic)
        tasks = [submit(_replication_record, config, simulate, index)
                 for index in range(config.replications)]
        truth, truth_se = truth_task.result()
        records = [_with_coverage(*task.result(), truth) for task in tasks]
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
