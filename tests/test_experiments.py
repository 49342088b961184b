"""Replication harness: determinism, aggregation accounting, and table emission."""

import importlib
import json
import sys
import time
import tracemalloc

import numpy as np
import pytest

from chainvar import (
    Chain,
    ExperimentConfig,
    MomentOverflowError,
    NonFiniteValueError,
    diagnostics,
    emit_tables,
    estimators,
    experiments,
    run_replications,
    symmat,
)
from chainvar.estimators import METHODS
from chainvar.experiments import CSV_COLUMNS
from chainvar.samplers import build


def scalar_config(**overrides):
    base = dict(
        model="ar1",
        model_params={"kind": "scalar", "a": 0.5},
        n=2_000,
        replications=5,
        level=0.9,
        methods=("uis", "mk", "mis", "misadj"),
        regions=("ellipsoid", "cube", "bonferroni"),
        truth={"kind": "analytic"},
        master_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            scalar_config(replications=0)
        with pytest.raises(ValueError):
            scalar_config(level=1.0)
        with pytest.raises(ValueError):
            scalar_config(methods=())
        with pytest.raises(ValueError):
            scalar_config(methods=("batchmeans",))
        with pytest.raises(ValueError):
            scalar_config(regions=("sphere",))
        with pytest.raises(ValueError):
            scalar_config(model="ising")
        with pytest.raises(ValueError):
            scalar_config(truth={"kind": "exact"})

    @pytest.mark.parametrize("field, value, what", [
        ("n", "1000", "an integer"), ("n", 1000.0, "an integer"), ("n", True, "an integer"),
        ("replications", None, "an integer"), ("level", "0.9", "a number"),
        ("level", False, "a number"), ("master_seed", "1", "an integer"),
        ("methods", "mis", "a list"), ("regions", "cube", "a list")])
    def test_non_numeric_field_is_named(self, field, value, what):
        with pytest.raises(ValueError, match=f"^config field '{field}' must be {what}, got "):
            scalar_config(**{field: value})

    def test_numpy_numbers_are_accepted(self):
        cfg = scalar_config(n=np.int64(50), level=np.float64(0.8), master_seed=np.uint32(3))
        assert (cfg.n, cfg.level, cfg.master_seed) == (50, 0.8, 3)

    def test_analytic_truth_requires_ar1(self):
        with pytest.raises(ValueError, match="analytic"):
            ExperimentConfig(model="logistic", truth={"kind": "analytic"})

    def test_incomplete_ar1_params_name_the_missing_key(self):
        cases = (({}, "'A'"), ({"kind": "hadamard"}, "'p'"), ({"kind": "scalar"}, "'a'"),
                 ({"A": [[0.5]], "V": [[1.0]]}, "'theta'"))
        for params, key in cases:
            with pytest.raises(ValueError, match=key):
                run_replications(scalar_config(model_params=params, replications=1))

    def test_dict_round_trip(self):
        cfg = scalar_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestRunReplications:
    def test_single_replication_smoke(self):
        report = run_replications(scalar_config(replications=1))
        assert len(report.records) == 1
        for row in report.table:
            assert row.fail_count + row.n_success == 1
            if row.n_success:
                assert row.coverage in (0.0, 1.0)

    def test_row_accounting(self):
        report = run_replications(scalar_config(replications=8))
        names = [row.method for row in report.table]
        assert names == ["uis", "uis_bonferroni", "mk", "mis", "misadj"]
        for row in report.table:
            assert row.fail_count + row.n_success == 8
        # analytic truth for the scalar fixture is the stationary mean 2
        np.testing.assert_allclose(report.truth, [2.0])

    def test_failures_are_counted_not_fatal(self):
        # very short iid chains make the positive definite search fail often
        report = run_replications(
            scalar_config(model_params={"kind": "scalar", "a": 0.0}, n=4,
                          replications=40)
        )
        mis_row = report.row("mis")
        assert mis_row.fail_count > 0
        assert mis_row.fail_count + mis_row.n_success == 40
        failed = [
            rec for rec in report.records if "failed" in rec["methods"]["mis"]
        ]
        assert len(failed) == mis_row.fail_count

    def test_constant_chain_fails_every_row(self):
        # a random walk whose steps are never accepted stays at its start
        cfg = ExperimentConfig(model="logistic", model_params={"step_sd": 1e6}, n=200,
                               replications=2, truth={"kind": "external", "vector": [0.0] * 5},
                               master_seed=1)
        report = run_replications(cfg)
        assert [(row.fail_count, row.n_success) for row in report.table] == [(2, 0)] * 5
        for rec in report.records:
            assert rec["methods"]["mk"] == {"failed": "NotPositiveDefiniteError: degenerate estimate"}

    def test_method_subsets(self):
        report = run_replications(scalar_config(methods=("mis",)))
        assert [row.method for row in report.table] == ["mis"]
        report = run_replications(
            scalar_config(methods=("uis",), regions=("cube",))
        )
        assert [row.method for row in report.table] == ["uis"]

    def test_coverage_smoke_band(self):
        report = run_replications(scalar_config(n=4_000, replications=60))
        assert 0.75 <= report.row("mis").coverage <= 1.0

    def test_scalar_nominal_coverage_at_scale(self):
        # nominal 90% intervals around the analytic mean 2: the empirical
        # coverage over 200 long replications stays within Monte Carlo
        # slack of the nominal level
        report = run_replications(
            scalar_config(n=100_000, replications=200, methods=("mis",),
                          regions=("ellipsoid",), master_seed=11)
        )
        assert 0.85 <= report.row("mis").coverage <= 0.95

    def test_external_truth(self):
        report = run_replications(
            scalar_config(truth={"kind": "external", "vector": [2.0]})
        )
        np.testing.assert_allclose(report.truth, [2.0])
        assert report.truth_se is None

    def test_long_run_truth_reports_se(self):
        report = run_replications(
            scalar_config(
                replications=3,
                truth={"kind": "long-run", "n_truth": 20_000},
            )
        )
        assert report.truth_se is not None
        assert abs(report.truth[0] - 2.0) <= 6.0 * report.truth_se[0]

    def test_gibbs_model_smoke(self):
        cfg = ExperimentConfig(
            model="ranef",
            model_params={"K": 2, "data_seed": 0},
            n=2_000,
            replications=2,
            methods=("uis", "mis"),
            truth={"kind": "long-run", "n_truth": 5_000},
            master_seed=5,
        )
        report = run_replications(cfg)
        assert report.truth.shape == (8,)

    def test_logistic_model_smoke(self):
        cfg = ExperimentConfig(
            model="logistic",
            model_params={"step_sd": 0.3},
            n=1_500,
            replications=2,
            methods=("mis",),
            regions=("ellipsoid",),
            truth={"kind": "external", "vector": [0.0] * 5},
            master_seed=6,
        )
        report = run_replications(cfg)
        assert report.row("mis").n_success + report.row("mis").fail_count == 2


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        for fmt, name in (("csv", "a"), ("json", "b")):
            first = tmp_path / f"{name}1.{fmt}"
            second = tmp_path / f"{name}2.{fmt}"
            emit_tables(run_replications(scalar_config()), first, fmt)
            emit_tables(run_replications(scalar_config()), second, fmt)
            assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("overrides", [
        {},
        {"model": "logistic", "model_params": {"step_sd": 0.3}, "n": 1_500,
         "truth": {"kind": "external", "vector": [0.0] * 5}},
        {"model": "ranef", "model_params": {"K": 2, "data_seed": 0}, "n": 2_000,
         "truth": {"kind": "long-run", "n_truth": 5_000}},
    ], ids=["ar1", "logistic", "ranef-long-run"])
    def test_parallel_matches_serial(self, tmp_path, overrides):
        serial = run_replications(scalar_config(replications=6, **overrides), workers=1)
        parallel = run_replications(scalar_config(replications=6, **overrides), workers=2)
        a, b = tmp_path / "s.json", tmp_path / "p.json"
        emit_tables(serial, a, "json")
        emit_tables(parallel, b, "json")
        assert a.read_bytes() == b.read_bytes()


# models whose blocks concatenate to the chain bit for bit (for AR(1), a
# diagonal A: its map back from the modes is exact)
_TRUTH_MODELS = {
    "ar1": {"A": np.diag([0.5, -0.3, 0.8]).tolist(), "V": np.eye(3).tolist(),
            "theta": [1.0, 2.0, -1.0]},
    "logistic": {},
    "ranef": {"K": 2},
}


def _batch_means_se(values, b):
    """Batch-means standard errors of the whole chain, from its first a*b rows."""
    n, p = values.shape
    a = n // b
    means = values[:a * b].reshape(a, b, p).mean(axis=1)
    sigma2 = b / (a - 1) * ((means - means.mean(axis=0)) ** 2).sum(axis=0)
    return np.sqrt(sigma2 / n)


class TestLongRunTruth:
    @pytest.mark.parametrize("block_bytes", [8 * 8 * 37, experiments._TRUTH_BLOCK_BYTES],
                             ids=["small-blocks", "default-blocks"])
    @pytest.mark.parametrize("n_truth", [2, 3, 4_999])
    @pytest.mark.parametrize("model", sorted(_TRUTH_MODELS))
    def test_streamed_truth_is_the_chain_mean(self, monkeypatch, model, n_truth, block_bytes):
        # small blocks are 37 rows at ranef K=2; the mean keeps the bits of
        # Chain.mean (p >= 2), and batch-mean sums that straddle a block are
        # added in another order, so se agrees to rounding
        monkeypatch.setattr(experiments, "_TRUTH_BLOCK_BYTES", block_bytes)
        simulate, _ = build(model, _TRUTH_MODELS[model])
        truth, se = experiments._long_run_truth(simulate, n_truth, experiments.truth_stream(4))
        chain, _ = simulate(n_truth, experiments.truth_stream(4))
        assert truth.tobytes() == chain.mean.tobytes()
        np.testing.assert_allclose(se, _batch_means_se(chain.values, int(n_truth ** 0.5)),
                                   rtol=1e-12)

    def test_batch_means_pin_a_constant_and_an_iid_column(self):
        # b = 100, a = 100: a constant column has se 0, and iid draws an se
        # close to sd / sqrt(n)
        rng = np.random.default_rng(5)
        values = np.column_stack([np.full(10_000, 3.0), rng.standard_normal(10_000)])
        simulate = _FixedSimulator(values)
        truth, se = experiments._long_run_truth(simulate, 10_000, None)
        assert truth[0] == 3.0 and se[0] == 0.0
        assert abs(se[1] / (values[:, 1].std() / 100.0) - 1.0) < 0.3

    def test_a_non_finite_row_is_named_by_its_index_in_the_run(self, monkeypatch):
        monkeypatch.setattr(experiments, "_TRUTH_BLOCK_BYTES", 8 * 2 * 10)
        values = np.ones((100, 2))
        values[57, 1] = np.nan
        with pytest.raises(NonFiniteValueError, match="at row 57, column c2$"):
            experiments._long_run_truth(_FixedSimulator(values), 100, None)

    def test_a_short_run_raises_before_it_simulates(self):
        config = scalar_config(truth={"kind": "long-run", "n_truth": 1})
        with pytest.raises(ValueError, match="^a long-run truth needs n_truth >= 2, got 1$"):
            experiments._resolve_truth(config, _FixedSimulator(None), None)

    @pytest.mark.parametrize("model, n_truth", [("ar1", 100_000), ("ranef", 3_000)])
    def test_memory_stays_flat_as_the_run_grows(self, monkeypatch, model, n_truth):
        # tracemalloc peaks at n_truth and 10 n_truth: one block and the
        # batch sums (about sqrt(n) rows), not the chain
        monkeypatch.setattr(experiments, "_TRUTH_BLOCK_BYTES", 1 << 16)
        simulate, _ = build(model, _TRUTH_MODELS[model])
        peaks = []
        for n in (n_truth, 10 * n_truth):
            tracemalloc.start()
            try:
                experiments._long_run_truth(simulate, n, experiments.truth_stream(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


class _FixedSimulator:
    """Yields the rows of a fixed array in blocks; a chain it was not given fails."""

    def __init__(self, values):
        self.values = values
        self.p = 2

    def blocks(self, n, seed, rows):
        assert self.values is not None, "the run was simulated"
        for first in range(0, n, rows):
            yield self.values[first:first + rows].copy(), {}


class TestOverlap:
    @pytest.mark.parametrize("workers, parent_rows", [(1, [5_000, 2_000, 2_000, 2_000]),
                                                      (2, [])])
    def test_long_run_truth_runs_in_a_worker(self, monkeypatch, workers, parent_rows):
        # one worker simulates the truth, in blocks, then each replication,
        # in this process; with a pool this process simulates nothing (the
        # workers' appends stay in the workers)
        # the sampler reaches its block loop by name at run time, so the
        # recorder is not bound into the simulator that the pool pickles
        random_effects = importlib.import_module("chainvar.samplers.random_effects")
        real_row_blocks = random_effects.row_blocks
        rows = []

        def recording_row_blocks(n, block_rows, p, fill):
            rows.append(n)
            return real_row_blocks(n, block_rows, p, fill)

        monkeypatch.setattr(random_effects, "row_blocks", recording_row_blocks)
        config = ExperimentConfig(model="ranef", model_params={"K": 2, "data_seed": 0},
                                  n=2_000, replications=3, methods=("mis",),
                                  regions=("ellipsoid",),
                                  truth={"kind": "long-run", "n_truth": 5_000}, master_seed=5)
        report = run_replications(config, workers=workers)
        assert rows == parent_rows
        assert report.truth_se is not None

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("truth, match", [
        ({"kind": "external", "vector": [0.0] * 11},
         r"external truth needs shape \(12,\), got \(11,\)"),
        ({"kind": "long-run", "n_truth": 1}, r"long-run truth needs n_truth >= 2, got 1"),
    ], ids=["wrong-length-truth", "truth-raises"])
    def test_an_error_stops_the_run_early(self, truth, match, workers):
        # 100 replications of about 0.1 s: the error must surface within a
        # quarter of the time the whole run would take on these workers
        config = ExperimentConfig(model="ar1", model_params={"kind": "hadamard", "p": 12},
                                  n=100_000, replications=100, methods=("mis",),
                                  regions=("ellipsoid",), truth=truth, master_seed=7)
        simulate, _ = build(config.model, config.model_params)
        start = time.perf_counter()
        experiments._replication_record(config, simulate, 0)
        full_run = config.replications * (time.perf_counter() - start) / workers
        start = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            run_replications(config, workers=workers)
        assert time.perf_counter() - start < full_run / 4


def test_one_spectrum_per_matrix_per_replication(monkeypatch):
    # gamma0 once, each pair mk tests, each partial sum the mis scan tests
    # (misadj shares the scan, mk's sigma is one of those sums), and the
    # misadj sigma; ess and the ellipsoid reuse the estimates' spectra
    decomposed = []
    real = symmat.eigenvalues_sym

    def counting(m):
        decomposed.append(np.asarray(m).tobytes())
        return real(m)

    # (the package's name "autocov" is the function, not the module)
    for module in (symmat, sys.modules["chainvar.autocov"], estimators, diagnostics):
        if hasattr(module, "eigenvalues_sym"):
            monkeypatch.setattr(module, "eigenvalues_sym", counting)
    config = ExperimentConfig(model="ar1", model_params={"kind": "hadamard", "p": 12},
                              n=20_000, replications=1, master_seed=1)
    simulate, _ = build(config.model, config.model_params)
    record = experiments._replication_record(config, simulate, 0)[0]["methods"]
    assert len(decomposed) == len(set(decomposed))
    mk_tested, mis_tested = record["mk"]["t_n"] + 2, record["mis"]["t_n"] + 2
    assert mk_tested + mis_tested <= 10  # no scan reached the end of the chain
    assert len(decomposed) == 1 + mk_tested + mis_tested + 1


class TestOneChainCopy:
    def test_a_replication_holds_its_chain_once(self):
        # the pairs center the chain in place, after the column scans; a
        # centered copy would put the peak at two chains
        config = ExperimentConfig(model="ar1", model_params={"kind": "hadamard", "p": 12},
                                  n=100_000, replications=1, master_seed=1)
        simulate, _ = build(config.model, config.model_params)
        experiments._replication_record(config, simulate, 0)  # imports and caches
        tracemalloc.start()
        try:
            experiments._replication_record(config, simulate, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * config.n * simulate.p

    @staticmethod
    def _overflowing_simulator():
        values = np.random.default_rng(3).standard_normal((500, 3))
        values[:, 0] *= 2.0**520
        values[:, 1] = 1.5e308 + values[:, 1] * 1e306
        return lambda n, seed: (Chain(values), {})

    def test_a_whole_chain_overflow_is_named_before_a_column_scan(self, monkeypatch):
        # the scan of c1 meets its overflowing variance first, but the run
        # names the mean of c2, as the whole chain's moments do
        simulate = self._overflowing_simulator()
        monkeypatch.setattr(experiments, "build", lambda model, params: (simulate, np.zeros(3)))
        with pytest.raises(MomentOverflowError, match="^the mean of column c2 overflows"):
            run_replications(scalar_config(replications=2))

    @pytest.mark.parametrize("methods", [("uis",), ("mis",), METHODS])
    def test_a_replication_records_no_overflow(self, methods):
        # a moment overflow is not an unusable component: no uis row records
        # it as failed, and no later row meets the centered chain
        with pytest.raises(MomentOverflowError, match="^the mean of column c2 overflows"):
            experiments._replication_record(scalar_config(methods=methods),
                                            self._overflowing_simulator(), 0)


class TestEmitTables:
    def test_csv_shape(self, tmp_path):
        report = run_replications(scalar_config(methods=("mis",)))
        path = tmp_path / "r.csv"
        emit_tables(report, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "mis"
        assert len(lines[1].split(",")) == len(CSV_COLUMNS)

    def test_csv_numbers_round_trip_exactly(self, tmp_path):
        report = run_replications(scalar_config())
        path = tmp_path / "r.csv"
        emit_tables(report, path, "csv")
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        for row, line in zip(report.table, lines[1:]):
            cells = dict(zip(header, line.split(",")))
            assert float(cells["ess_mean"]) == row.ess_mean
            assert float(cells["coverage_se"]) == row.coverage_se
            assert int(cells["fail_count"]) == row.fail_count

    def test_json_numbers_round_trip_exactly(self, tmp_path):
        report = run_replications(scalar_config())
        path = tmp_path / "r.json"
        emit_tables(report, path, "json")
        payload = json.loads(path.read_text())
        assert payload["config"]["master_seed"] == 123
        for row, emitted in zip(report.table, payload["table"]):
            assert emitted["ess_mean"] == row.ess_mean
            assert emitted["volroot_mean"] == row.volroot_mean
            assert emitted["logdet_se"] == row.logdet_se
        assert len(payload["records"]) == report.config.replications
        first = payload["records"][0]["methods"]["mis"]
        assert first["ess"] == report.records[0]["methods"]["mis"]["ess"]

    def test_unknown_format_rejected(self, tmp_path):
        report = run_replications(scalar_config(replications=1))
        with pytest.raises(ValueError):
            emit_tables(report, tmp_path / "x", "xml")
