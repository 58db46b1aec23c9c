from __future__ import annotations

import csv
import io
import json
import os

import pytest

from etclosure import verify
from etclosure.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_closure_table_json(capsys):
    code, out = run(capsys, "closure", "--M", "2", "--N", "1", "--hmax", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] == 2 and doc["N"] == 1
    rows = doc["rows"]
    assert len(rows) == 3
    marker = rows[0]
    assert (marker["h"], marker["k"], marker["prefactor"]) == (0, 0, "0")
    by_s = {r["s"]: r for r in rows[1:]}
    assert by_s[0]["prefactor"] == "6" and by_s[0]["gamma_pow"] == -8
    assert by_s[1]["prefactor"] == "3" and by_s[1]["gamma_pow"] == -6
    assert by_s[1]["symbol"] == [0, 1]


def test_closure_csv_projects_same_rows(capsys):
    code_j, out_j = run(capsys, "closure", "--M", "2", "--N", "1", "--hmax", "2")
    code_c, out_c = run(capsys, "closure", "--M", "2", "--N", "1", "--hmax", "2", "--format", "csv")
    assert code_j == code_c == 0
    rows_j = json.loads(out_j)["rows"]
    rows_c = list(csv.DictReader(io.StringIO(out_c)))
    assert len(rows_c) == len(rows_j)
    for rj, rc in zip(rows_j, rows_c):
        assert rc["h"] == str(rj["h"])
        assert rc["prefactor"] == rj["prefactor"]
        want_sym = "" if rj["symbol"] is None else str(rj["symbol"])
        assert rc["symbol"] == want_sym


def test_closure_validation_exit_codes(capsys):
    code, _ = run(capsys, "closure", "--M", "1", "--N", "1")
    assert code == 2
    code, _ = run(capsys, "closure", "--M", "2", "--N", "2")
    assert code == 2
    code, _ = run(capsys, "closure", "--M", "6", "--N", "5", "--hmax", "2", "--kmax", "2")
    assert code == 3


def test_verify_default_passes(capsys):
    code, out = run(capsys, "verify", "--M", "2", "--N", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {r["suite"] for r in doc["results"]}
    assert "characteristic" in names and "kinetic" in names
    for r in doc["results"]:
        assert r["failures"] == 0
        assert {"suite", "cases", "failures", "max_residual", "seed"} <= set(r)


def test_verify_suite_filter(capsys):
    code, out = run(capsys, "verify", "--suite", "equilibrium")
    assert code == 0
    doc = json.loads(out)
    assert [r["suite"] for r in doc["results"]] == ["equilibrium"]


def test_verify_mutation_negative_control(capsys):
    code, out = run(capsys, "verify", "--M", "2", "--N", "1", "--mutate", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["mutate"] == 1
    assert any(r["failures"] > 0 for r in doc["results"])


def test_verify_derivative_suite_passes_at_seed_3(capsys):
    # the second-order stencil read 1.88e-6 against the 1e-6 tolerance here
    code, out = run(capsys, "verify", "--M", "2", "--N", "3", "--suite", "derivative", "--seed", "3")
    assert code == 0
    (suite,) = json.loads(out)["results"]
    assert suite["failures"] == 0 and float(suite["max_residual"]) < 1e-9


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_rejects_unknown_suite_before_running_any(capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "equilibrium", lambda cfg: ran.append(cfg))
    code, _ = run(capsys, "verify", "--suite", "equilibrium", "--suite", "bogus")
    assert code == 2
    assert ran == []


def test_equilibrium_values(capsys):
    code, out = run(capsys, "equilibrium", "--lambda", "1", "--gamma", "1", "--m", "1", "--stats", "mb")
    assert code == 0
    doc = json.loads(out)
    assert float(doc["n"]) == pytest.approx(-2.7825625919033765, rel=1e-12)
    assert float(doc["p"]) == pytest.approx(2.7825625919033765, rel=1e-12)
    assert float(doc["e"]) == pytest.approx(7.5114830166273361, rel=1e-12)
    assert float(doc["s"]) == pytest.approx(-4.699483935593773, rel=1e-12)
    assert float(doc["T"]) == 1.0
    assert abs(float(doc["gibbs_residual"])) <= 1e-8


def test_equilibrium_stats_aliases(capsys):
    vals = {}
    for alias in ("mb", "fd", "be"):
        code, out = run(capsys, "equilibrium", "--lambda", "1", "--gamma", "1", "--m", "1", "--stats", alias)
        assert code == 0
        vals[alias] = float(json.loads(out)["p"])
    assert vals["fd"] < vals["mb"] < vals["be"]


def test_equilibrium_spacelike_rejected(capsys):
    code, _ = run(capsys, "equilibrium", "--mu0", "0", "--mu1", "1", "--lambda", "1", "--m", "1")
    assert code == 2


def test_equilibrium_numerical_failure_exit_code(capsys):
    # dH/dlambda underflows to 0 at gamma = 800, so the entropy is undefined
    code = main(["equilibrium", "--gamma", "800"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_moments_equilibrium_delta_is_zero(capsys):
    code, out = run(capsys, "moments", "--M", "2", "--N", "1", "--lambda", "0.8", "--gamma", "1.2", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_hprime"] == ["0", "0", "0", "0"]
    assert float(doc["kinetic"]["n"]) == pytest.approx(4.9068872522252898, rel=1e-12)
    assert float(doc["kinetic"]["p"]) == pytest.approx(4.0890727101877413, rel=1e-12)
    assert float(doc["kinetic"]["e"]) == pytest.approx(14.312132613424396, rel=1e-12)
    for value in doc["residuals"]["traces"].values():
        assert abs(float(value)) <= 1e-8


def test_moments_past_rank_cap_is_resource_error(capsys):
    # rank 2*9 + 3*9 + 1 = 46 at the top order, far past the cap of 16
    code, out = run(capsys, "moments", "--M", "2", "--N", "3", "--hmax", "9", "--kmax", "9")
    assert code == 3
    assert out == ""


def test_verify_symmetry_past_rank_cap_is_resource_error(capsys):
    code, out = run(capsys, "verify", "--M", "2", "--N", "3", "--hmax", "9", "--kmax", "9",
                    "--suite", "symmetry")
    assert code == 3
    assert out == ""


def test_verify_kinetic_runs_every_order_that_fits_the_cap(capsys):
    # top ranks 9 and 5: the kinetic suite sums no orders and must not refuse these
    for argv in (("--M", "8", "--N", "1", "--hmax", "1"),
                 ("--M", "4", "--N", "5", "--hmax", "1", "--kmax", "0")):
        code, out = run(capsys, "verify", *argv, "--suite", "kinetic")
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 2\nN = 1\nhmax = 2\n")
    code, out = run(capsys, "--config", str(cfg), "closure", "--hmax", "1")
    assert code == 0
    doc = json.loads(out)
    # flag wins over the file
    assert doc["h_max"] == 1
    assert doc["M"] == 2


def test_output_file_atomic_write(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _ = run(capsys, "closure", "--M", "2", "--N", "1", "--out", str(target))
    assert code == 0
    assert target.exists()
    doc = json.loads(target.read_text())
    assert doc["rows"]
    leftovers = [p for p in os.listdir(tmp_path) if p != "table.json"]
    assert leftovers == []


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "verify", "--suite", "characteristic", "--seed", "5")
    _, out2 = run(capsys, "verify", "--suite", "characteristic", "--seed", "5")
    assert out1 == out2
    _, eq1 = run(capsys, "equilibrium", "--lambda", "0.5", "--gamma", "2", "--m", "1")
    _, eq2 = run(capsys, "equilibrium", "--lambda", "0.5", "--gamma", "2", "--m", "1")
    assert eq1 == eq2
