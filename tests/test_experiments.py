"""Replication harness: determinism, aggregation accounting, and table emission."""

import importlib
import json
import sys
import time

import numpy as np
import pytest

from chainvar import (
    ExperimentConfig,
    diagnostics,
    emit_tables,
    estimators,
    experiments,
    run_replications,
    symmat,
)
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
        ("level", False, "a number"), ("master_seed", "1", "an integer")])
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


class TestOverlap:
    @pytest.mark.parametrize("workers, parent_rows", [(1, [5_000, 2_000, 2_000, 2_000]),
                                                      (2, [])])
    def test_long_run_truth_runs_in_a_worker(self, monkeypatch, workers, parent_rows):
        # one worker simulates the truth, then each replication, in this
        # process; with a pool this process simulates nothing (the workers'
        # appends stay in the workers)
        registry = importlib.import_module("chainvar.samplers.registry")
        real = registry.gibbs_random_effects
        rows = []

        def recording(y, hyper, n, seed):
            rows.append(n)
            return real(y, hyper, n, seed)

        monkeypatch.setattr(registry, "gibbs_random_effects", recording)
        config = ExperimentConfig(model="ranef", model_params={"K": 2, "data_seed": 0},
                                  n=2_000, replications=3, methods=("mis",),
                                  regions=("ellipsoid",),
                                  truth={"kind": "long-run", "n_truth": 5_000}, master_seed=5)
        report = run_replications(config, workers=workers)
        assert rows == parent_rows
        assert report.truth_se is not None

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("truth, match", [
        ({"kind": "external", "vector": [0.0] * 11}, r"point shape \(11,\) != center shape"),
        ({"kind": "long-run", "n_truth": 1}, "uis needs n >= 2"),
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
