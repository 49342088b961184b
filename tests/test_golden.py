"""The output contract: harness reports and command outputs, byte for byte
on the build that wrote them.

The golden files under ``tests/golden/``, the build they name and the
script that rewrites them are described in ``tests/golden/regenerate.py``.
On another build (another OpenBLAS kernel core, numpy or OpenBLAS
version, or numpy SIMD target) a float may move in its last digits, so
there the discrete fields are compared exactly and each float within
``TOLERANCE`` relative.  A command's exit code and stderr are discrete
fields, so its error and warning text compare exactly on every build.
The field diff is printed either way.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_match_the_golden_files():
    new = golden.generate(seed=1)
    assert sorted(new) == sorted(golden.NAMES)
    same_build = golden.build() == json.loads((golden.HERE / golden.BUILD).read_text())
    tolerance = 0.0 if same_build else golden.TOLERANCE
    lines, beyond = [], []
    for name, data in new.items():
        old = (golden.HERE / name).read_bytes()
        lines += golden.field_diff(name, old, data)
        beyond += golden.field_diff(name, old, data, tolerance)
    compared = ("bytes, on the build in build.json" if same_build else
                f"discrete fields exactly and floats within {tolerance:g} relative, "
                f"on another build than build.json's:\n{json.dumps(golden.build())}")
    print(f"compared {compared}", *lines, sep="\n")
    if beyond:
        pytest.fail(f"outputs differ from tests/golden, comparing {compared}\n"
                    "(rewrite them with tests/golden/regenerate.py for a stated change):\n"
                    + "\n".join(lines))


def test_field_diff_names_each_field():
    old = {"table": [{"method": "mis", "ess_mean": 100.0, "fail_count": 0}],
           "records": [{"methods": {"mis": {"t_n": 3, "covered": True, "ess": 50.0}}}]}
    new = json.loads(json.dumps(old))
    new["table"][0]["ess_mean"] = 100.0 * (1 + 2e-13)
    new["records"][0]["methods"]["mis"].update(t_n=4, covered=False)
    lines = golden.field_diff("report.json", json.dumps(old).encode(), json.dumps(new).encode())
    assert lines == ["report.json: records[0].methods.mis.t_n 3 -> 4",
                     "report.json: records[0].methods.mis.covered True -> False",
                     "report.json: table[*].ess_mean largest relative change 2e-13"]
    csv_old = b"method,ess_mean,fail_count\nmis,1.0,0\n"
    assert golden.field_diff("t.csv", csv_old, csv_old) == []
    assert golden.field_diff("t.csv", csv_old, b"method,ess_mean,fail_count\nmis,1.5,1\n") == [
        "t.csv: mis.fail_count 0 -> 1", "t.csv: mis.ess_mean largest relative change 0.5"]


def test_tolerance_passes_floats_within_it_and_never_a_discrete_field():
    old = json.dumps({"ess": 50.0, "volroot": 2.0, "t_n": 3}).encode()
    near = json.dumps({"ess": 50.0 * (1 + 5e-13), "volroot": 2.0, "t_n": 3}).encode()
    assert golden.field_diff("r.json", old, near) == ["r.json: ess largest relative change 5e-13"]
    assert golden.field_diff("r.json", old, near, golden.TOLERANCE) == []
    far = json.dumps({"ess": 50.0 * (1 + 5e-13), "volroot": 2.0 * (1 + 1e-11), "t_n": 4}).encode()
    assert golden.field_diff("r.json", old, far, golden.TOLERANCE) == [
        "r.json: t_n 3 -> 4", "r.json: volroot largest relative change 1e-11"]
    # a change of formatting alone shows only where bytes are compared
    assert golden.field_diff("r.json", old, old + b" ") == [
        "r.json: bytes differ, every field equal (formatting)"]
    assert golden.field_diff("r.json", old, old + b" ", golden.TOLERANCE) == []
