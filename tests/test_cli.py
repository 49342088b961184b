"""Command line interface end to end, through the real argv entry point."""

import json

import numpy as np
import pytest

from chainvar import (
    Chain,
    ExperimentConfig,
    LagPairSequence,
    experiments,
    load_chain,
    run_replications,
    save_chain,
)
from chainvar.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def ar1_chain_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    params = root / "params.json"
    params.write_text(json.dumps({"kind": "scalar", "a": 0.5}))
    out = root / "chain.bin"
    code = run_cli("simulate", "--model", "ar1", "--n", "20000", "--seed", "13",
                   "--out", str(out), "--params", str(params))
    assert code == 0
    return out


def test_simulate_writes_loadable_chain(ar1_chain_file):
    chain = load_chain(ar1_chain_file, "bin")
    assert (chain.n, chain.p) == (20000, 1)


def test_simulate_csv_format(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"kind": "scalar", "a": 0.5}))
    out = tmp_path / "chain.csv"
    assert run_cli("simulate", "--model", "ar1", "--n", "50", "--seed", "1",
                   "--out", str(out), "--params", str(params),
                   "--format", "csv") == 0
    assert load_chain(out, "csv").n == 50


def test_simulate_ranef_default_params(tmp_path):
    out = tmp_path / "g.bin"
    assert run_cli("simulate", "--model", "ranef", "--n", "500", "--seed", "3",
                   "--out", str(out)) == 0
    assert load_chain(out, "bin").p == 8


def test_simulate_logistic(tmp_path, capsys):
    out = tmp_path / "l.bin"
    assert run_cli("simulate", "--model", "logistic", "--n", "2000", "--seed", "4",
                   "--out", str(out)) == 0
    assert load_chain(out, "bin").p == 5
    assert "acceptance rate" in capsys.readouterr().err


@pytest.mark.parametrize("model, params, p", [
    ("ar1", {"kind": "hadamard", "p": 4}, 4),
    ("logistic", {"step_sd": 0.2}, 5),
    ("ranef", {"K": 2, "data_seed": 3}, 8),
])
def test_simulate_matches_harness_replication(model, params, p, tmp_path, monkeypatch):
    # give replication r the integer seed master_seed + r, which `simulate
    # --seed` can express, and record the chain each replication analyses
    seen = []

    class Recording(LagPairSequence):
        def __init__(self, chain):
            seen.append(chain.values.tobytes())
            super().__init__(chain)

    monkeypatch.setattr(experiments, "LagPairSequence", Recording)
    monkeypatch.setattr(experiments, "replication_stream", lambda master, r: master + r)
    config = ExperimentConfig(model=model, model_params=params, n=300, replications=2,
                              methods=("mk",), regions=(), master_seed=11,
                              truth={"kind": "external", "vector": [0.0] * p})
    run_replications(config)
    assert len(seen) == 2
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(params))
    for r, values in enumerate(seen):
        out = tmp_path / f"rep{r}.bin"
        assert run_cli("simulate", "--model", model, "--n", "300", "--seed", str(11 + r),
                       "--out", str(out), "--params", str(params_file)) == 0
        assert load_chain(out, "bin").values.tobytes() == values


def test_estimate_json_payload(ar1_chain_file, tmp_path):
    out = tmp_path / "est.json"
    assert run_cli("estimate", "--method", "mis", "--input", str(ar1_chain_file),
                   "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "mis"
    assert payload["n"] == 20000 and payload["p"] == 1
    assert len(payload["sigma"]) == 1
    assert payload["pd"] is True
    assert payload["s_n"] == 0
    assert abs(payload["sigma"][0] - 4.0) < 1.0


def test_estimate_uis(ar1_chain_file, tmp_path):
    out = tmp_path / "u.json"
    assert run_cli("estimate", "--method", "uis", "--input", str(ar1_chain_file),
                   "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["degenerate"] is False
    assert abs(payload["sigma"][0] - 4.0) < 1.0


def test_estimate_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "tiny.bin"
    save_chain(Chain([0.0, 2.0]), path, "bin")
    assert run_cli("estimate", "--method", "mis", "--input", str(path)) == 2
    assert "error" in capsys.readouterr().err


def test_ess_multivariate_and_univariate(ar1_chain_file, tmp_path):
    for method in ("mis", "uis"):
        out = tmp_path / f"ess_{method}.json"
        assert run_cli("ess", "--input", str(ar1_chain_file), "--method", method,
                       "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        # scalar AR(1) with a=0.5: ESS is about n/3
        assert 0.15 * 20000 <= payload["ess"] <= 0.6 * 20000


def test_region_ellipsoid(ar1_chain_file, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("region", "--input", str(ar1_chain_file), "--method", "mis",
                   "--level", "0.9", "--kind", "ellipsoid",
                   "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "ellipsoid"
    assert payload["level"] == 0.9
    assert payload["volume"] > 0
    assert abs(payload["volume_root"] - payload["volume"]) < 1e-12  # p = 1
    assert "cutoff" in payload and "sigma" in payload


def test_region_cubes(ar1_chain_file, tmp_path):
    for kind, name in (("cube", "cube"), ("bonf", "bonferroni-cube")):
        out = tmp_path / f"r_{kind}.json"
        assert run_cli("region", "--input", str(ar1_chain_file), "--method", "uis",
                       "--kind", kind, "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == name
        assert len(payload["half_widths"]) == 1


def test_region_method_kind_mismatch(ar1_chain_file, capsys):
    assert run_cli("region", "--input", str(ar1_chain_file), "--method", "uis",
                   "--kind", "ellipsoid") == 2
    assert run_cli("region", "--input", str(ar1_chain_file), "--method", "mis",
                   "--kind", "cube") == 2
    capsys.readouterr()


def test_experiment_csv_and_json(tmp_path):
    config = {
        "model": "ar1",
        "model_params": {"kind": "scalar", "a": 0.5},
        "n": 2000,
        "replications": 4,
        "level": 0.9,
        "methods": ["uis", "mis"],
        "regions": ["ellipsoid", "cube", "bonferroni"],
        "truth": {"kind": "analytic"},
        "master_seed": 99,
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    out_csv = tmp_path / "report.csv"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out_csv)) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 4  # header + uis + uis_bonferroni + mis
    out_json = tmp_path / "report.json"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out_json)) == 0
    payload = json.loads(out_json.read_text())
    assert len(payload["records"]) == 4


def test_experiment_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "ar1", "replications": 0}))
    assert run_cli("experiment", "--config", str(cfg), "--out",
                   str(tmp_path / "r.csv")) == 2
    capsys.readouterr()


def test_stdout_output(ar1_chain_file, capsys):
    assert run_cli("estimate", "--method", "mk", "--input", str(ar1_chain_file)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "mk"
