"""Span tracing of chainvar from outside the package.

`Tracer.installed()` wraps the public functions of each chainvar module,
and the private helpers through which `experiments`, `estimators` and
`cli` reach them, for the duration of a `with` block.  Every name bound
to a wrapped function is patched: module attributes anywhere in the
package and the entries of module-level dicts such as the estimator
tables.  Leaving the block restores the originals, so untraced work in
the same process runs the unmodified code.

A span is a list ``[layer, name, start, end, parent, ctx, error, info]``
kept in memory.  ``parent`` is the index of the enclosing span (-1 at
top level) and ``ctx`` the replication (``rep<i>``), truth run
(``truth``) or CLI command (``cmd<i>``) the span belongs to.  A layer's
self time is the sum over its spans of the span duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from collections import Counter

LAYERS = ("samplers", "chain", "autocov", "symmat", "estimators",
          "diagnostics", "experiments", "cli")

LAYER, NAME, START, END, PARENT, CTX, ERROR, INFO = range(8)

SIMULATORS = ("ar1_simulate", "rwm_logistic", "gibbs_random_effects")
ESTIMATORS = ("mis", "misadj", "mk", "uis")
EIGEN = ("eigenvalues_sym", "eigen_sym")

# (layer, defining module, function names).  Names missing from a module
# are skipped and listed in `Tracer.missing`.
FUNCTIONS = (
    ("samplers", "chainvar.samplers.ar1", ("ar1_simulate", "ar1_truth")),
    ("samplers", "chainvar.samplers.logistic", ("rwm_logistic", "load_logit_data")),
    ("samplers", "chainvar.samplers.random_effects",
     ("gibbs_random_effects", "simulate_dataset")),
    ("chain", "chainvar.chain", ("load_chain", "save_chain")),
    ("autocov", "chainvar.autocov",
     ("_cross_lag", "autocov", "sym_autocov", "pair_sum", "partial_sum")),
    ("symmat", "chainvar.symmat",
     ("eigenvalues_sym", "eigen_sym", "is_pd", "logdet_pd", "positive_part")),
    ("estimators", "chainvar.estimators", ESTIMATORS + ("_scan_initial_sequence",)),
    ("diagnostics", "chainvar.diagnostics",
     ("ess", "ellipsoid_region", "cube_region", "min_univariate_ess",
      "univariate_ess_components", "sample_cov", "chisq_quantile",
      "normal_quantile")),
    ("experiments", "chainvar.experiments",
     ("run_replications", "emit_tables", "_resolve_truth",
      "_replication_record", "_aggregate")),
    ("cli", "chainvar.cli", ("main",)),
)

# (layer, module, class, method names)
METHODS = (
    ("autocov", "chainvar.autocov", "LagPairSequence", ("__init__", "pair", "partial_sum")),
    ("diagnostics", "chainvar.diagnostics", "Region", ("contains",)),
)


def _file_bytes(args, kwargs, index: int) -> int:
    path = args[index] if len(args) > index else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Collects spans while installed; see the module docstring.

    With ``only``, just the named functions are wrapped: a phase timer
    whose cost is a few spans per operation.
    """

    def __init__(self, only: tuple[str, ...] | None = None) -> None:
        self.only = only
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ctx = None
        self.commands = 0
        self.missing: set[str] = set()
        # LagPairSequence built inside an estimator call, by estimator span
        self._sequences: dict[int, object] = {}

    def _open_ctx(self, name: str, args):
        if name == "_replication_record" and len(args) >= 4:
            return f"rep{args[3]}"
        if name == "_resolve_truth":
            return "truth"
        if name == "main":
            self.commands += 1
            return f"cmd{self.commands}"
        return None

    def _info(self, index: int, name: str, args, kwargs, ret):
        """Facts the layer metrics need, taken from a call's arguments and result."""
        if name in SIMULATORS:
            return getattr(getattr(ret, "chain", ret), "n", 0)
        if name == "_cross_lag" and len(args) >= 2:
            n, p = args[0].shape
            return (int(args[1]), n, p)
        if name == "load_chain":
            return _file_bytes(args, kwargs, 0)
        if name == "save_chain":
            return _file_bytes(args, kwargs, 1)
        if name in ESTIMATORS:
            seq = self._sequences.pop(index, None)
            if args and hasattr(args[0], "partial_sum"):
                seq = args[0]
            return (getattr(ret, "t_n", -1), bool(getattr(ret, "degenerate", False)),
                    len(getattr(seq, "_pairs", ())))
        if name == "main":
            return ret
        return None

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            ctx = self._open_ctx(name, args)
            outer_ctx = self.ctx
            if ctx is not None:
                self.ctx = ctx
            parent = stack[-1] if stack else -1
            index = len(spans)
            rec = [layer, name, clock(), 0.0, parent, self.ctx, None, None]
            stack.append(index)
            spans.append(rec)
            ret = None
            try:
                ret = fn(*args, **kwargs)
                return ret
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                self.ctx = outer_ctx
                if (name == "__init__" and layer == "autocov" and parent >= 0
                        and spans[parent][NAME] in ESTIMATORS):
                    self._sequences[parent] = args[0]
                rec[INFO] = self._info(index, name, args, kwargs, ret)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every chainvar name bound to a traced function; restore on exit."""
        import chainvar.cli  # noqa: F401  (imports every package module)

        modules = [m for k, m in list(sys.modules.items())
                   if (k == "chainvar" or k.startswith("chainvar.")) and m is not None]
        undo = []
        for layer, modname, names in FUNCTIONS:
            home = sys.modules.get(modname)
            for name in names:
                if self.only is not None and name not in self.only:
                    continue
                original = getattr(home, name, None)
                if not callable(original):
                    self.missing.add(f"{modname}.{name}")
                    continue
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((setattr, mod, attr, value))
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict) and not attr.startswith("__"):
                            for key, entry in list(value.items()):
                                if entry is original:
                                    undo.append((dict.__setitem__, value, key, entry))
                                    value[key] = wrapper
        for layer, modname, clsname, names in METHODS if self.only is None else ():
            cls = getattr(sys.modules.get(modname), clsname, None)
            for name in names:
                original = vars(cls).get(name) if cls is not None else None
                if not callable(original):
                    self.missing.add(f"{modname}.{clsname}.{name}")
                    continue
                undo.append((setattr, cls, name, original))
                setattr(cls, name, self._wrap(layer, name, original))
        try:
            yield self
        finally:
            for setter, obj, key, value in reversed(undo):
                setter(obj, key, value)
            self._sequences.clear()


def layer_totals(spans: list[list], lo: int, hi: int) -> dict:
    """Counts and times per layer over spans[lo:hi], one traced unit of work.

    Keys starting with ``_`` are intermediate sums that the caller turns
    into ratios; the rest are reported as they stand.
    """
    child = Counter()
    for i in range(lo, hi):
        rec = spans[i]
        if rec[PARENT] >= lo:
            child[rec[PARENT]] += rec[END] - rec[START]
    out = Counter()
    failed = Counter()
    for i in range(lo, hi):
        rec = spans[i]
        layer, name, dur = rec[LAYER], rec[NAME], rec[END] - rec[START]
        parent = spans[rec[PARENT]] if rec[PARENT] >= lo else None
        out[f"{layer}.self_s"] += dur - child[i]
        if name in SIMULATORS:
            out["samplers.calls"] += 1
            out["samplers.rows"] += rec[INFO] or 0
        elif name == "load_chain":
            out["chain.load_calls"] += 1
            out["chain.load_s"] += dur
            out["_load_bytes"] += rec[INFO] or 0
        elif name == "save_chain":
            out["chain.save_s"] += dur
            out["_save_bytes"] += rec[INFO] or 0
        elif name == "__init__" and layer == "autocov":
            out["autocov.sequences"] += 1
        elif name == "_cross_lag" and rec[INFO]:
            t, n, p = rec[INFO]
            out["autocov.pairs"] += t % 2  # pair k materialises lags 2k and 2k+1
            out["autocov.lag_gflop_computed"] += 2.0 * n * p * p * 1e-9
            out["_lag_s"] += dur
        elif name in EIGEN:
            out["symmat.eig_calls"] += 1
            if parent is not None and parent[NAME] in ("_scan_initial_sequence", "mk"):
                out["estimators.scan_steps"] += 1
        elif name == "pair" and parent is not None and parent[NAME] == "uis":
            out["estimators.scan_steps"] += 1
        elif name in ESTIMATORS:
            out["estimators.calls"] += 1
            t_n, degenerate, materialized = rec[INFO] or (-1, False, 0)
            if rec[ERROR]:
                failed[rec[ERROR]] += 1
                t_n = -1
            elif degenerate:
                failed["degenerate"] += 1
            if name == "mk" and not rec[ERROR]:
                # after its scan, mk takes one more spectrum, of its result
                out["estimators.scan_steps"] -= 1
            out["_pairs_used"] += t_n + 1
            out["_pairs_materialized"] += materialized
        elif layer == "diagnostics" and (parent is None or parent[LAYER] != layer):
            out["diagnostics.calls"] += 1
        elif name == "main" and layer == "cli":
            if rec[ERROR] or rec[INFO] not in (0, None):
                out["cli.cmd_errors"] += 1
    out["estimators.failed"] = sum(failed.values())
    result = dict(out)
    result["_failed_by_reason"] = dict(failed)
    result.update(_experiment_phases(spans, lo, hi))
    return result


def replication_phase_s(spans, lo: int, hi: int) -> float | None:
    """Wall time from the end of the truth phase to the end of `run_replications`."""
    window = spans[lo:hi]
    truth = [r[END] for r in window if r[NAME] == "_resolve_truth"]
    runs = [r[END] for r in window if r[NAME] == "run_replications"]
    return runs[-1] - truth[-1] if truth and runs else None


def _experiment_phases(spans, lo: int, hi: int) -> dict:
    window = spans[lo:hi]
    runs = [r for r in window if r[NAME] == "run_replications"]
    reps = [r for r in window if r[NAME] == "_replication_record"]
    out = {"_rep_durations": [r[END] - r[START] for r in reps],
           "_rep_busy_s": sum(r[END] - r[START] for r in reps),
           "experiments.truth_s": 0.0, "experiments.aggregate_s": 0.0}
    if not runs:
        return out
    start = runs[0][START]
    first_rep = next((r[START] for r in window
                      if r[NAME] in SIMULATORS and str(r[CTX]).startswith("rep")), None)
    if first_rep is None and reps:
        first_rep = reps[0][START]
    if first_rep is not None:
        out["experiments.truth_s"] = first_rep - start
    emits = [r[END] for r in window if r[NAME] == "emit_tables"]
    if reps:
        out["experiments.aggregate_s"] = max(emits or [runs[-1][END]]) - max(
            r[END] for r in reps)
    return out


def percentile(values, q: int) -> float:
    """The q-th percentile (1 <= q <= 99), interpolated between samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
