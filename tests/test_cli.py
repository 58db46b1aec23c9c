from __future__ import annotations

import argparse
import csv
import io
import json
import os

import pytest

from etclosure import cli, verify
from etclosure.cli import _build_parser, main
from etclosure.closure import ClosureSpec, ClosureTensorSet, iter_orders
from etclosure.equilibrium import ThermoState
from etclosure.moments import first_order_symmetry
from etclosure.scalar import FunctionRegistry
from etclosure.tensors import FourVector


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


def test_verify_artifacts_hold_each_failing_suite_for_replay(tmp_path, capsys):
    argv = ["verify", "--M", "2", "--N", "3", "--suite", "characteristic,roundtrip",
            "--seed", "4", "--mutate", "1"]
    code, plain = run(capsys, *argv)
    directory = tmp_path / "artifacts"
    for _ in range(2):  # a rerun replaces the same files
        code_a, out = run(capsys, *argv, "--artifacts", str(directory))
        assert code == code_a == 1 and out == plain
    failing = {r["suite"]: r for r in json.loads(out)["results"] if r["failures"]}
    assert list(failing) == ["characteristic"]
    assert os.listdir(directory) == ["etclosure-characteristic-seed4.json"]
    with open(directory / "etclosure-characteristic-seed4.json") as fh:
        payload = json.load(fh)
    assert payload == {"suite": "characteristic", "seed": 4, "M": 2, "N": 3, "h_max": 2,
                       "k_max": 2, "mutate": 1,
                       "failed_cases": failing["characteristic"]["failed_cases"]}
    assert payload["failed_cases"]


def test_verify_derivative_suite_passes_at_seed_3(capsys):
    # a finite-difference stencil once read 1.88e-6 against a 1e-6 tolerance here
    code, out = run(capsys, "verify", "--M", "2", "--N", "3", "--suite", "derivative", "--seed", "3")
    assert code == 0
    (suite,) = json.loads(out)["results"]
    assert suite["failures"] == 0 and float(suite["max_residual"]) == 0


@pytest.mark.parametrize("argv, mu_block", [
    # finite differences in the truncated series once failed these intact runs
    (("--M", "2", "--N", "5", "--seed", "0"), "checked"),
    (("--M", "8", "--N", "1", "--hmax", "1"), "unchecked"),
    (("--M", "4", "--N", "5", "--hmax", "1", "--kmax", "0"), "unchecked"),
])
def test_verify_symmetry_passes_where_finite_differences_failed(capsys, argv, mu_block):
    code, out = run(capsys, "verify", *argv, "--suite", "symmetry")
    assert code == 0
    (suite,) = json.loads(out)["results"]
    assert (suite["route"], suite["tolerance"], suite["max_residual"]) == ("exact", "0", "0")
    assert suite["blocks"] == {"lambda": "checked", "mu": mu_block}


@pytest.mark.parametrize("argv", [
    ("closure", "--hmax", "-1"),
    ("closure", "--M", "2", "--N", "3", "--kmax", "-1"),
    ("verify", "--M", "2", "--N", "3", "--kmax", "-1", "--suite", "cross_route"),
    ("verify", "--hmax", "-1", "--suite", "roundtrip"),
    ("verify", "--mutate", "-1", "--suite", "roundtrip"),
    # the truncation (0, 0) holds only the zero tensor C_{0,0}: nothing to mutate
    ("verify", "--M", "2", "--N", "3", "--hmax", "0", "--kmax", "0",
     "--suite", "characteristic", "--mutate", "1"),
    ("verify", "--M", "2", "--N", "3", "--hmax", "0", "--kmax", "0",
     "--suite", "compatibility", "--mutate", "1"),
    ("verify", "--tol", "nan", "--suite", "roundtrip"),
    ("verify", "--tol", "-1", "--suite", "roundtrip"),
    ("verify", "--tol", "inf", "--suite", "roundtrip"),
    ("moments", "--hmax", "-1"),
])
def test_negative_orders_mutation_and_bad_tolerance_are_usage_errors(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


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


@pytest.mark.parametrize("argv", [
    ("moments", "--lambda", "nan"),
    ("equilibrium", "--lambda", "nan"),
    ("equilibrium", "--gamma", "inf"),
    ("moments", "--mu0", "nan"),
    ("equilibrium", "--mu3=-inf"),
    ("moments", "--m", "inf"),
])
def test_non_finite_state_flags_are_usage_errors(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --") and "must be finite" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # the kinetic moments' mass-shell trace residuals read 1: the trace is all cancellation
    ("moments", "--mu0", "1e-30"),
    ("moments", "--gamma", "1e-30"),
    ("moments", "--M", "2", "--N", "1", "--gamma", "1e-7"),
    ("moments", "--mu0", "1e-40"),  # gamma**(-k) overflows in the closure coefficients
    ("moments", "--gamma", "1e-40"),
])
def test_overflow_at_a_state_is_a_numerical_failure(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("route", ["kinetic_moment", "H_derivatives"])
def test_kinetic_integrand_overflow_is_a_convergence_error(route):
    # with f = nan the integrand never reads 0, so its powers of cosh and sinh overflow first
    from etclosure.equilibrium import ConvergenceError, H_derivatives, ThermoState
    from etclosure.moments import kinetic_moment
    from etclosure.tensors import FourVector

    state = ThermoState(float("nan"), FourVector((1.0, 0.0, 0.0, 0.0)), 1.0)
    with pytest.raises(ConvergenceError, match="overflows"):
        if route == "kinetic_moment":
            kinetic_moment(state, 2)
        else:
            H_derivatives(state.dist, state.lam, state.gamma, state.m)


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


@pytest.mark.parametrize("m", [1, 2])
def test_moments_series_runs_at_the_state_mass(capsys, monkeypatch, m):
    # the relative spread reads the same at every mass, so the spy says which one ran
    masses = []

    def spy(tensors, lam, mu):
        masses.append(tensors.spec.m)
        return first_order_symmetry(tensors, lam, mu)

    monkeypatch.setattr(cli, "first_order_symmetry", spy)
    code, out = run(capsys, "moments", "--M", "2", "--N", "3", "--m", str(m))
    assert code == 0 and masses == [m]
    state = ThermoState(1.0, FourVector((1.0, 0.0, 0.0, 0.0), "upper"), float(m))
    spec = ClosureSpec(2, 3, registry=FunctionRegistry.polynomials(0), m=m)
    spreads = first_order_symmetry(ClosureTensorSet.build(spec), state.lam, state.mu)
    want = max(spread for groups in spreads.values() for spread in groups.values())
    residuals = json.loads(out)["residuals"]
    assert residuals["symmetry"] == format(want, ".17g") and want < 1e-15
    assert residuals["symmetry_blocks"] == {"lambda": "checked", "mu": "checked"}


@pytest.mark.parametrize("flags,blocks", [
    (("--kmax", "0"), {"lambda": "checked", "mu": "unchecked"}),
    (("--hmax", "0"), {"lambda": "unchecked", "mu": "checked"}),
])
def test_moments_lists_the_symmetry_blocks_it_checked(capsys, flags, blocks):
    code, out = run(capsys, "moments", "--M", "2", "--N", "3", *flags)
    assert code == 0
    residuals = json.loads(out)["residuals"]
    assert residuals["symmetry_blocks"] == blocks and float(residuals["symmetry"]) < 1e-15


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


@pytest.mark.parametrize("suite", ["derivative", "characteristic", "compatibility", "equilibrium"])
def test_verify_refuses_a_truncation_past_the_rank_cap_before_any_suite(capsys, suite):
    # the top order (9, 9) has rank 46: refused before any suite, whichever suite reads it
    code, out = run(capsys, "verify", "--M", "2", "--N", "3", "--hmax", "9", "--kmax", "9",
                    "--suite", suite)
    assert code == 3
    assert out == ""


def test_verify_lists_the_orders_of_the_truncation(capsys):
    for h_max, k_max in ((2, 2), (1, 1)):
        code, out = run(capsys, "verify", "--M", "2", "--N", "3", "--hmax", str(h_max),
                        "--kmax", str(k_max), "--suite",
                        "derivative,characteristic,compatibility,cross_route,symmetry")
        assert code == 0
        want = list(iter_orders(ClosureSpec(2, 3, h_max=h_max, k_max=k_max)))
        results = {r["suite"]: r for r in json.loads(out)["results"]}
        orders = {name: [tuple(hk) for hk in r["orders"]] for name, r in results.items()
                  if "orders" in r}
        assert set(orders) == {"derivative", "characteristic", "compatibility", "cross_route"}
        assert all(set(listed) <= set(want) for listed in orders.values())
        assert orders["characteristic"] == orders["cross_route"] == want
        assert orders["derivative"] == want[1:] and want[0] == (0, 0)
        assert len(want) == results["characteristic"]["cases"] == results["cross_route"]["cases"]
        assert len(orders["derivative"]) * 3 == results["derivative"]["cases"]
        # (h_max, k_max) itself has no next order inside the truncation
        assert (h_max, k_max) not in orders["compatibility"]
    code, out = run(capsys, "verify", "--M", "2", "--N", "3", "--hmax", "0", "--kmax", "0",
                    "--suite", "compatibility")
    assert code == 0
    (suite,) = json.loads(out)["results"]
    assert (suite["orders"], suite["cases"]) == ([], 0)


@pytest.mark.parametrize("N", [3, 1])
def test_verify_runs_every_suite_with_a_scalar_lambda_block(capsys, N):
    # M = 0 admits no lambda orders: each suite checks what the truncation holds
    code, out = run(capsys, "verify", "--M", "0", "--N", str(N))
    assert code == 0
    assert json.loads(out)["passed"] is True


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


def test_config_key_no_subcommand_takes_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 2\nbogus = 1\n")
    code, out = run(capsys, "--config", str(cfg), "closure")
    assert code == 2
    assert out == ""


def test_config_key_of_another_subcommand_is_skipped(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 4\nlambda = 0.5\nseed = 3\n")
    code, out = run(capsys, "--config", str(cfg), "equilibrium")
    assert code == 0
    assert json.loads(out)["lambda"] == "0.5"
    code, out = run(capsys, "--config", str(cfg), "closure", "--N", "1", "--hmax", "1")
    assert code == 0
    assert json.loads(out)["M"] == 4


def suites_run(out):
    return [r["suite"] for r in json.loads(out)["results"]]


def test_config_suite_is_a_list_split_on_commas(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = equilibrium, kinetic\n")
    code, out = run(capsys, "--config", str(cfg), "verify")
    assert code == 0
    assert suites_run(out) == ["equilibrium", "kinetic"]


def test_suite_flags_replace_the_config_list(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = equilibrium\n")
    code, out = run(capsys, "--config", str(cfg), "verify", "--suite", "kinetic",
                    "--suite", "roundtrip")
    assert code == 0
    assert suites_run(out) == ["kinetic", "roundtrip"]


def test_verify_json_states_each_suites_tolerance_and_route(capsys):
    suites = "roundtrip,symmetry,derivative,equilibrium,kinetic"
    want = {"roundtrip": (0.0, "exact"), "symmetry": (0.0, "exact"), "derivative": (0.0, "exact"),
            "equilibrium": (1e-8, "quadrature"), "kinetic": (1e-8, "quadrature")}
    code, out = run(capsys, "verify", "--suite", suites)
    assert code == 0
    got = {r["suite"]: (float(r["tolerance"]), r["route"]) for r in json.loads(out)["results"]}
    assert got == want
    code, out = run(capsys, "verify", "--suite", suites, "--tol", "1e-5")
    assert code == 0
    got = {r["suite"]: float(r["tolerance"]) for r in json.loads(out)["results"]}
    assert got == {"roundtrip": 0.0, "symmetry": 0.0, "derivative": 0.0,
                   "equilibrium": 1e-5, "kinetic": 1e-5}
    # CSV rows keep their columns
    code, out = run(capsys, "verify", "--suite", "roundtrip", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "suite,cases,failures,max_residual,seed"


ORDERS = ("--M", "--N", "--hmax", "--kmax")
STATE = ("--lambda", "--gamma", "--mu0", "--mu1", "--mu2", "--mu3", "--m", "--stats")
REMOVED = ([("closure", flag) for flag in STATE + ("--tol", "--seed")]
           + [("verify", flag) for flag in STATE]
           + [("equilibrium", flag) for flag in ORDERS + ("--tol", "--seed")]
           + [("moments", "--tol")])


OUTPUT = ("--format", "--out")
FLAGS = {
    "closure": ORDERS + OUTPUT,
    "verify": ORDERS + ("--seed", "--tol", "--suite", "--mutate", "--artifacts") + OUTPUT,
    "equilibrium": STATE + OUTPUT,
    "moments": ORDERS + ("--seed",) + STATE + OUTPUT,
}


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for name, sp in subparsers.choices.items():
        taken = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
        assert taken == set(FLAGS[name]), name
    assert sum(map(len, FLAGS.values())) + 1 == 43  # plus the top-level --config
    assert len(set(REMOVED)) == 25


@pytest.mark.parametrize("command,flag", REMOVED)
def test_flag_a_subcommand_does_not_read_is_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "be" if flag == "--stats" else "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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
