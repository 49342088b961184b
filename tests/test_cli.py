"""Command line interface end to end, through the real argv entry point."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from chainvar import chain as chain_module
from chainvar import (
    Chain,
    ExperimentConfig,
    LagPairSequence,
    diagnostics,
    experiments,
    load_chain,
    run_replications,
    save_chain,
)
from chainvar.cli import main
from chainvar.samplers import build


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


def test_comment_only_csv_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("c1,c2\n# only a comment\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("estimate", "--method", "mis", "--input", str(path),
                       "--format", "csv")
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: no data rows\n"


def test_simulate_ar1_default_params(tmp_path):
    # without --params, ar1 is the 12-column Hadamard fixture
    out = tmp_path / "a.bin"
    assert run_cli("simulate", "--model", "ar1", "--n", "50", "--seed", "3",
                   "--out", str(out)) == 0
    assert load_chain(out, "bin").p == 12


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

    monkeypatch.setattr(diagnostics, "LagPairSequence", Recording)
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


# at these seeds a uis variance has a square root whose last bit differs
# between `** 0.5` and np.sqrt, so the cubes of both views must take the same
@pytest.mark.parametrize("params, p, seed", [({"kind": "scalar", "a": 0.5}, 1, 122),
                                             ({"kind": "hadamard", "p": 4}, 4, 125)])
def test_analyst_commands_match_harness_record(params, p, seed, tmp_path, monkeypatch,
                                               capsys):
    # one seeded chain through the harness and through `simulate --seed`
    # plus the analyst commands: both views print the very same numbers
    monkeypatch.setattr(experiments, "replication_stream", lambda master, r: master + r)
    config = ExperimentConfig(model="ar1", model_params=params, n=5_000, replications=1,
                              level=0.8, master_seed=seed,
                              truth={"kind": "external", "vector": [0.0] * p})
    record, regions = experiments._replication_record(config, build("ar1", params)[0], 0)
    record = record["methods"]
    assert not [row for row, entry in record.items() if "failed" in entry]
    params_file, chain_file = tmp_path / "params.json", tmp_path / "chain.bin"
    params_file.write_text(json.dumps(params))
    assert run_cli("simulate", "--model", "ar1", "--n", "5000", "--seed", str(seed),
                   "--out", str(chain_file), "--params", str(params_file)) == 0
    capsys.readouterr()

    def payload(*argv):
        assert run_cli(*argv, "--input", str(chain_file)) == 0
        return json.loads(capsys.readouterr().out)

    for method in ("mis", "misadj", "mk"):
        row = record[method]
        est = payload("estimate", "--method", method)
        assert (est["logdet"], est["s_n"], est["t_n"]) == (row["logdet"], row["s_n"], row["t_n"])
        assert payload("ess", "--method", method)["ess"] == row["ess"]
        region = payload("region", "--method", method, "--kind", "ellipsoid", "--level", "0.8")
        assert region["volume_root"] == row["volroot"]
        assert region["sigma"] == regions[method].sigma.ravel().tolist()
    assert payload("ess", "--method", "uis")["ess"] == record["uis"]["ess"]
    for kind, row in (("cube", "uis"), ("bonf", "uis_bonferroni")):
        region = payload("region", "--method", "uis", "--kind", kind, "--level", "0.8")
        assert region["volume_root"] == record[row]["volroot"]
        assert region["half_widths"] == regions[row].half_widths.tolist()
    if p == 1:
        assert payload("estimate", "--method", "uis")["logdet"] == record["uis"]["logdet"]


@pytest.mark.parametrize("argv", [("ess", "--method", "uis"),
                                  ("region", "--method", "uis", "--kind", "bonf"),
                                  ("estimate", "--method", "mis")])
def test_overflowing_column_is_named_without_a_warning(argv, tmp_path, capsys):
    values = np.random.default_rng(7).standard_normal((500, 4))
    values[:, 1] *= 2.0**520
    path = tmp_path / "huge.bin"
    save_chain(Chain(values), path, "bin")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(*argv, "--input", str(path))
    assert code == 2
    assert capsys.readouterr().err == ("error: the variance of column c2 overflows; "
                                       "rescale the chain\n")


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


@pytest.mark.parametrize("argv, payload, named", [
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "replication": 2}, "'replication'"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "truth": "analytic"}, "'truth'"),
    (("simulate", "--model", "ar1", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), [1, 2], "ar1 parameters must be a JSON object"),
    (("simulate", "--model", "ranef", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"hyper": {"a0": 1.0}}, "'a0'"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "n": "1000"}, "config field 'n' must be an integer, got str"),
    (("simulate", "--model", "ranef", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"hyper": {"a1": "x"}},
     "hyperparameter a1 must be a number, got str"),
    # an empty params file is not the default: the explicit kind needs A
    (("simulate", "--model", "ar1", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {}, "need the key 'A'"),
    (("simulate", "--model", "ar1", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), [], "ar1 parameters must be a JSON object"),
    (("simulate", "--model", "ranef", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"k": 21}, "unknown ranef parameter key 'k'"),
    (("simulate", "--model", "ranef", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"K": True}, "ranef parameter 'K' must be an integer, got bool"),
    (("simulate", "--model", "ranef", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"K": 2.9}, "ranef parameter 'K' must be an integer, got float"),
    (("simulate", "--model", "ar1", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"kind": "hadamard", "p": True},
     "ar1 parameter 'p' must be an integer, got bool"),
    (("simulate", "--model", "ar1", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"kind": "hadamard", "p": 4, "P": 4},
     "unknown ar1 hadamard parameter key 'P'"),
    (("simulate", "--model", "ar1", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"kind": "scalar", "a": True},
     "ar1 parameter 'a' must be a number, got bool"),
    (("simulate", "--model", "logistic", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"step_sd": False},
     "logistic parameter 'step_sd' must be a number, got bool"),
    (("simulate", "--model", "logistic", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"step_sd": float("nan")}, "step_sd must be finite and > 0, got nan"),
    (("simulate", "--model", "logistic", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"step_sd": float("inf")}, "step_sd must be finite and > 0, got inf"),
    (("simulate", "--model", "ranef", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"K": -1}, "ranef parameter 'K' must be >= 1, got -1"),
    (("simulate", "--model", "ranef", "--n", "10", "--seed", "1", "--out", "{out}",
      "--params", "{json}"), {"K": 2, "data_seed": -1},
     "ranef parameter 'data_seed' must be >= 0, got -1"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ranef", "model_params": {"k": 21}, "truth": {"kind": "external", "vector": []}},
     "unknown ranef parameter key 'k'"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "truth": {"kind": "external"}}, "external truth needs the key 'vector'"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ranef", "truth": {"kind": "long-run", "n_truht": 10}},
     "unknown long-run truth key 'n_truht'"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ranef", "truth": {"kind": "long-run", "n_truth": 1e5}},
     "truth field 'n_truth' must be an integer, got float"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "master_seed": -1}, "need master_seed >= 0, got -1"),
    # the truth is checked against the model even where no region reads it
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "model_params": {"kind": "hadamard", "p": 4}, "n": 100,
      "replications": 1, "regions": [], "truth": {"kind": "external", "vector": [1, 2]}},
     "external truth needs shape (4,), got (2,)"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "model_params": {"kind": "hadamard", "p": 4}, "n": 100,
      "replications": 1, "truth": {"kind": "external", "vector": [0, float("nan"), 0, 0]}},
     "external truth must be finite, got nan"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "methods": "mis"}, "config field 'methods' must be a list, got str"),
    (("experiment", "--config", "{json}", "--out", "{out}"),
     {"model": "ar1", "regions": "cube"}, "config field 'regions' must be a list, got str"),
], ids=["unknown config key", "truth not an object", "params not an object",
        "unknown hyper key", "config value not a number", "hyper value not a number",
        "empty params object", "empty params list", "unknown ranef key", "ranef K a bool",
        "ranef K a float", "hadamard p a bool", "unknown hadamard key", "scalar a a bool",
        "step_sd a bool", "step_sd NaN", "step_sd infinite", "ranef K negative",
        "ranef data_seed negative", "unknown model key in a config", "external truth without a vector",
        "unknown truth key", "n_truth a float", "master_seed negative",
        "external truth of the wrong length", "external truth NaN", "methods a string",
        "regions a string"])
def test_malformed_json_input_is_a_named_error(argv, payload, named, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = str(tmp_path / "out.csv")
    assert run_cli(*(a.format(json=path, out=out) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not Path(out).exists()


@pytest.mark.parametrize("argv, named", [
    (("region", "--input", "{chain}", "--level", "1.5"), "level must lie in (0, 1), got 1.5"),
    (("region", "--input", "{chain}", "--level", "0"), "level must lie in (0, 1), got 0.0"),
    (("region", "--input", "{chain}", "--level", "nan"), "level must lie in (0, 1), got nan"),
    (("simulate", "--model", "ar1", "--n", "10", "--seed", "-1", "--out", "{out}"),
     "seed must be >= 0, got -1"),
], ids=["level above 1", "level 0", "level NaN", "seed negative"])
def test_out_of_range_argument_is_named(argv, named, ar1_chain_file, tmp_path, capsys):
    out = tmp_path / "out.bin"
    assert run_cli(*(a.format(chain=ar1_chain_file, out=out) for a in argv)) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


def test_stdout_output(ar1_chain_file, capsys):
    assert run_cli("estimate", "--method", "mk", "--input", str(ar1_chain_file)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "mk"


def _commands():
    for method in ("uis", "mis", "misadj", "mk"):
        yield ("estimate", "--method", method)
        yield ("ess", "--method", method)
        for kind in ("ellipsoid", "cube", "bonf"):
            yield ("region", "--method", method, "--kind", kind, "--level", "0.8")


def _analyst_chains(root):
    """(file, format) of chains that exercise every path of an analyst command."""
    rng = np.random.default_rng(23)
    ar1, _ = build("ar1", {"kind": "hadamard", "p": 4})[0](3_000, 5)
    logistic, _ = build("logistic", {})[0](2_000, 5)
    scalar, _ = build("ar1", {"kind": "scalar", "a": 0.5})[0](2_000, 5)
    constant = rng.standard_normal((1_000, 3))
    constant[:, 1] = 4.25
    overflow = rng.standard_normal((500, 4))
    overflow[:, 1] *= 2.0**520
    # the variance of c3 overflows, and the mean of c4 is named before it
    both = rng.standard_normal((500, 4))
    both[:, 2] *= 2.0**520
    both[:, 3] = 1.5e308 + both[:, 3] * 1e306
    cases = [(ar1, "ar1.bin", "bin"), (logistic, "logistic.csv", "csv"),
             (scalar, "scalar.bin", "bin"), (scalar, "scalar.csv", "csv"),
             (Chain(constant), "constant.bin", "bin"), (Chain(overflow), "overflow.bin", "bin"),
             (Chain(both), "both.bin", "bin")]
    for chain, name, fmt in cases:
        save_chain(chain, root / name, fmt)
    return [(root / name, fmt) for _, name, fmt in cases]


def test_owning_analysis_prints_the_bytes_of_a_copying_one(tmp_path, monkeypatch, capsys):
    # the command line's analysis owns its chain and centers it in place;
    # an analysis that copies the chain must print the very same bytes
    chains = _analyst_chains(tmp_path)

    def outputs():
        got = []
        for path, fmt in chains:
            for argv in _commands():
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = run_cli(*argv, "--input", str(path), "--format", fmt)
                got.append((code, *capsys.readouterr(), [str(w.message) for w in caught]))
        return got

    owning = outputs()
    monkeypatch.setattr(diagnostics.Analysis, "_adopt", staticmethod(diagnostics.Analysis))
    copying = outputs()
    assert owning == copying
    errors = {err for code, _, err, _ in owning if code}
    assert "error: column c2 is constant, so no truncated covariance sum can be " \
           "positive definite\n" in errors
    assert "error: the variance of column c2 overflows; rescale the chain\n" in errors
    assert "error: the mean of column c4 overflows; rescale the chain\n" in errors
    # chainvar's own warning, as one stderr line, and never one of numpy's
    assert not any(caught for _, _, _, caught in owning)
    assert {line for _, _, err, _ in owning for line in err.splitlines()
            if not line.startswith("error: ")} == {
        "warning: excluded degenerate components [1] from the univariate ESS minimum"}
    # every chain but the degenerate ones gives some payload
    assert sum(code == 0 for code, _, _, _ in owning) > 40


# the errors of a command whose arguments do not fit the chain
_ARGUMENT_ERRORS = ("error: uis requires a univariate chain",
                    "error: ellipsoid regions need a multivariate method",
                    "error: cube regions are built from the uis method")


def test_every_command_names_the_same_overflow_without_a_warning(tmp_path, capsys):
    paths = {path.name: path for path, _ in _analyst_chains(tmp_path)}
    for name, reason in (("overflow.bin", "the variance of column c2"),
                         ("both.bin", "the mean of column c4")):
        errors = set()
        for argv in _commands():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli(*argv, "--input", str(paths[name]))
            err = capsys.readouterr().err
            assert code == 2 and not caught, (name, argv, [str(w.message) for w in caught])
            if not err.startswith(_ARGUMENT_ERRORS):
                errors.add(err)
        assert errors == {f"error: {reason} overflows; rescale the chain\n"}, name


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_ONE_COPY = [("estimate", "--method", "mis"), ("ess", "--method", "uis"),
             ("region", "--kind", "bonf", "--method", "uis")]


def test_analyst_commands_hold_a_bin_chain_once(tmp_path, capsys):
    # numpy reports its buffers to tracemalloc, so the traced peak counts
    # every array.  A bin chain is read in passes of row blocks of about
    # _PASS_BYTES, and its uis scans gather as many columns as fit in one
    # block, or one column where a column is larger
    block = chain_module._PASS_BYTES
    peaks = {}
    for n in (20_000, 200_000):
        path = tmp_path / f"c{n}.bin"
        save_chain(Chain(np.random.default_rng(5).standard_normal((n, 12))), path, "bin")
        peaks[n] = {argv: _traced_peak((*argv, "--input", str(path))) for argv in _ONE_COPY}
        # and simulate writes its file a block at a time
        peaks[n]["simulate"] = _traced_peak(("simulate", "--model", "ar1", "--n", str(n),
                                             "--seed", "1", "--out", str(path)))
    for argv in (_ONE_COPY[0], "simulate"):
        assert abs(peaks[200_000][argv] - peaks[20_000][argv]) <= 2 * block, argv
    assert peaks[200_000][_ONE_COPY[0]] <= 4 * block
    for argv in _ONE_COPY[1:]:
        assert peaks[200_000][argv] <= 8 * 200_000 + 4 * block, argv
        assert peaks[20_000][argv] <= 5 * block, argv
    capsys.readouterr()


@pytest.mark.parametrize("runs", [False, True], ids=["distinct-rows", "repeated-rows"])
def test_analyst_commands_add_no_copy_to_a_csv_load(runs, tmp_path, capsys):
    # np.loadtxt's growing buffer, and with repeated rows the first row of
    # each run held next to the repeated chain, put the load's own peak
    # above 1.25 chain copies; the analysis adds at most a quarter copy
    rng = np.random.default_rng(6)
    values = rng.standard_normal((50_000, 5))
    if runs:
        values = np.repeat(values, rng.integers(1, 5, size=len(values)), axis=0)[:50_000]
    path = tmp_path / "c.csv"
    save_chain(Chain(values), path, "csv")
    tracemalloc.start()
    try:
        load_chain(path, "csv")
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for argv in _ONE_COPY:
        peak = _traced_peak((*argv, "--input", str(path), "--format", "csv"))
        assert peak <= load_peak + 0.25 * values.nbytes, argv
    capsys.readouterr()
