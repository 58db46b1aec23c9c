from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etclosure import cli, verify
from etclosure.cli import _build_parser, main
from etclosure.closure import ClosureSpec, ClosureTensorSet, iter_orders
from etclosure.equilibrium import ThermoState
from etclosure.moments import first_order_symmetry
from etclosure.scalar import FunctionRegistry
from etclosure.tensors import DenseSymTensor, FourVector

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


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
                       "k_max": 2, "mutate": 1, "tol": None,
                       "failed_cases": failing["characteristic"]["failed_cases"]}
    assert payload["failed_cases"]


def test_verify_artifacts_keep_the_tolerance(tmp_path, capsys):
    # at 1e-16 the equilibrium suite fails where its default 1e-12 passes, so an
    # artifact without its tolerance would replay as a pass
    argv = ["verify", "--suite", "equilibrium", "--tol", "1e-16"]
    assert run(capsys, *argv[:3])[0] == 0
    code, _ = run(capsys, *argv, "--artifacts", str(tmp_path))
    assert code == 1
    with open(tmp_path / "etclosure-equilibrium-seed0.json") as fh:
        payload = json.load(fh)
    assert float(payload["tol"]) == 1e-16
    assert {k: payload[k] for k in ("suite", "seed", "M", "N", "h_max", "k_max", "mutate")} == {
        "suite": "equilibrium", "seed": 0, "M": 2, "N": 1, "h_max": 2, "k_max": 2, "mutate": 0}


def test_verify_derivative_suite_passes_at_seed_3(capsys):
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
    # an empty name list is not "all suites"
    ("verify", "--suite", ","),
    ("verify", "--suite", ""),
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


@pytest.mark.parametrize("argv", [
    ("equilibrium", "--gamma", "1e-162"),
    ("moments", "--gamma", "1e-200"),
    ("equilibrium", "--mu0", "1e-170", "--mu1", "1e-171"),
])
def test_timelike_mu_whose_square_underflows_is_a_numerical_failure(capsys, argv):
    # below about 1e-161 mu.mu underflows to 0 though mu^0 exceeds |mu^i|
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: mu.mu = 0 underflows") and captured.err.count("\n") == 1
    # a null mu is no underflow: still a usage error
    code = main(["equilibrium", "--mu0", "1", "--mu1", "1"])
    captured = capsys.readouterr()
    assert code == 2 and "timelike" in captured.err


@pytest.mark.parametrize("lam,gamma,want,message", [
    # the Gibbs stencil's steps shrink to stay above condensation
    ("-0.995", "1", 0, None),
    # below lambda + gamma m = 0 a boson would be a condensate
    ("-0.5", "0.1", 2, "lambda + gamma m"),
    # at lambda + gamma m = 0 no stencil fits
    ("-30", "30", 4, "condensation"),
])
def test_equilibrium_boson_near_condensation(capsys, lam, gamma, want, message):
    code = main(["equilibrium", "--stats", "be", "--lambda", lam, "--gamma", gamma])
    captured = capsys.readouterr()
    assert code == want
    if message is None:
        assert float(json.loads(captured.out)["gibbs_residual"]) <= 1e-5
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err


def test_equilibrium_numerical_failure_exit_code(capsys):
    # dH/dlambda underflows to 0 at gamma = 800, so the entropy is undefined
    code = main(["equilibrium", "--gamma", "800"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_equilibrium_below_the_normal_float_range_is_a_numerical_failure(capsys):
    # p reads 8.5e-320 at gamma 720: a subnormal float with a handful of digits
    code = main(["equilibrium", "--gamma", "720"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "normal float range" in captured.err and captured.err.count("\n") == 1
    code, out = run(capsys, "equilibrium", "--gamma", "650")
    assert code == 0
    assert float(json.loads(out)["p"]) == pytest.approx(2.75e-289, rel=1e-3)


@pytest.mark.parametrize("argv,want", [
    (("--stats", "fd", "--lambda", "-800"), 4),  # the occupancy overflows at every node
    (("--gamma", "720",), 4),
    (("--gamma", "650",), 0),  # most nodes underflow
    (("--stats", "fd", "--lambda", "-30", "--gamma", "1"), 0),  # stencil rows on quad
])
def test_equilibrium_sampling_lets_no_floating_point_warning_out(capsys, argv, want):
    # the radial nodes are sampled as numpy arrays, whose overflows and
    # underflows would warn outside the kernel's own error state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["equilibrium", *argv])
    captured = capsys.readouterr()
    assert code == want
    if want == 0:
        assert captured.err == "" and json.loads(captured.out)["statistics"]
    else:
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
    ("moments", "--mu0", "1", "--mu1", "-1e-3"),
    ("equilibrium", "--lambda", "-1e-1"),
    ("equilibrium", "--lambda", "-.5E+0", "--gamma", "2"),
])
def test_negative_values_with_an_exponent_are_values_not_flags(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    # the same output as the --flag=value form, which never looked like a flag
    flag, value = argv[-2:]
    assert run(capsys, *argv[:-2], f"{flag}={value}") == (0, out)
    # an int flag reads such a value too, and refuses it as argparse refuses any non-int
    with pytest.raises(SystemExit) as exc:
        main(["closure", "--M", "-2e0"])
    assert exc.value.code == 2 and "invalid int value: '-2e0'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # the kinetic moments' mass-shell trace residuals read 1: the trace is all cancellation
    ("moments", "--mu0", "1e-30"),
    ("moments", "--gamma", "1e-30"),
    ("moments", "--M", "2", "--N", "1", "--gamma", "1e-8"),
    ("moments", "--mu0", "1e-40"),  # gamma**(-k) overflows in the closure coefficients
    ("moments", "--gamma", "1e-40"),
])
def test_overflow_at_a_state_is_a_numerical_failure(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command,m,quantity", [
    ("equilibrium", "1e200", "m^3 of H"),
    ("equilibrium", "1e90", "m^4 of dH/dgamma"),
    ("moments", "1e200", "m^2 of kinetic radial(0, 0)"),
    ("moments", "1e80", "m^4 of kinetic radial(0, 2)"),
])
def test_overflowing_mass_names_the_quantity_and_m(capsys, command, m, quantity):
    # m^4 leaves the float range past about 1.3e77, m^3 past 5.6e102 and m^2 past
    # 1.3e154: the message says which power of which quantity, and m
    code = main([command, "--m", m])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.count("\n") == 1 and quantity in captured.err
    assert f"m = {float(m):.6g}" in captured.err and "(34," not in captured.err


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


@pytest.mark.parametrize("G,bound", [(1e3, 1e-9), (1e4, 1e-7)])
def test_boosted_beam_moments_print_the_rest_frame_densities(capsys, G, bound):
    # n, p and e are the invariant coefficients, so no contraction with u cancels as G^4;
    # what is left is gamma = sqrt(-mu.mu) read from the components (7.5e-9 at G = 1e4)
    head = ("moments", "--M", "2", "--N", "1", "--lambda", "0.5")
    code, out = run(capsys, *head, "--gamma", "1")
    assert code == 0
    rest = json.loads(out)["kinetic"]
    code, out = run(capsys, *head, "--mu0", repr(G), "--mu1", repr(-G * (1.0 - 1.0 / G**2) ** 0.5))
    assert code == 0
    doc = json.loads(out)
    for key in "npe":
        assert abs(float(doc["kinetic"][key]) / float(rest[key]) - 1.0) <= bound, key
    # the chain runs on the coefficients too, so it does not grow with the boost
    assert all(float(res) <= 1e-13 for res in doc["residuals"]["traces"].values())


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
        assert set(orders) == {"characteristic", "compatibility", "cross_route"}
        assert all(set(listed) <= set(want) for listed in orders.values())
        assert orders["characteristic"] == orders["cross_route"] == want
        assert len(want) == results["characteristic"]["cases"] == results["cross_route"]["cases"]
        # derivative checks one element per rank up to the top order's, reading no tensor
        top = 2 * h_max + 3 * k_max + 1
        assert [name for name, r in results.items() if "ranks" in r] == ["derivative"]
        assert results["derivative"]["ranks"] == list(range(1, top + 1))
        assert results["derivative"]["cases"] == top
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


@pytest.mark.parametrize("line,command,message", [
    # as on the command line, where these are argparse's usage errors
    ("format = xml", "closure", "invalid choice: 'xml' (choose from 'json', 'csv')"),
    ("stats = xx", "equilibrium", "invalid choice: 'xx' (choose from 'be', 'fd', 'mb')"),
    ("M = x", "closure", "invalid int value: 'x'"),
])
def test_config_value_its_flag_refuses_is_usage_error(tmp_path, capsys, line, command, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = main(["--config", str(cfg), command])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    key = line.split("=")[0].strip()
    assert captured.err == f"error: config key {key}: {message}\n"


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
            "equilibrium": (1e-12, "quadrature"), "kinetic": (1e-8, "quadrature")}
    code, out = run(capsys, "verify", "--suite", suites)
    assert code == 0
    got = {r["suite"]: (float(r["tolerance"]), r["route"]) for r in json.loads(out)["results"]}
    assert got == want
    code, out = run(capsys, "verify", "--suite", suites, "--tol", "1e-5")
    assert code == 0
    got = {r["suite"]: float(r["tolerance"]) for r in json.loads(out)["results"]}
    # the equilibrium suite holds only the series bound, which --tol can tighten, not loosen
    assert got == {"roundtrip": 0.0, "symmetry": 0.0, "derivative": 0.0,
                   "equilibrium": 1e-12, "kinetic": 1e-5}
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


def subcommands():
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    for name, sp in subcommands().items():
        taken = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
        assert taken == set(FLAGS[name]), name
    assert sum(map(len, FLAGS.values())) + 1 == 43  # plus the top-level --config
    assert len(set(REMOVED)) == 25


def test_defaults_name_every_flag_of_every_subcommand():
    dests = {a.dest for sp in subcommands().values() for a in sp._actions} - {"help"}
    assert set(cli.DEFAULTS) == dests


def test_parser_is_built_once_across_commands(capsys):
    for argv in (("closure", "--hmax", "1"), ("equilibrium",), ("closure",)):
        assert run(capsys, *argv)[0] == 0
    assert _build_parser.cache_info().misses == 1


def test_config_of_one_call_does_not_reach_the_next(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 4\nsuite = kinetic\n")
    code, out = run(capsys, "--config", str(cfg), "verify", "--N", "3")
    assert code == 0 and suites_run(out) == ["kinetic"]
    code, out = run(capsys, "verify")
    fresh = subprocess.run([sys.executable, "-m", "etclosure.cli", "verify"],
                           capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert code == fresh.returncode == 0
    assert out == fresh.stdout


# sha256 of `COLUMNS=80 etclosure [command] --help`, unchanged since the parser
# stopped carrying defaults
HELP_SHA256 = {
    (): "29e37d2b8b26c0802a1a83b70d3307369ca7a6990b6a9347b382f2a116bc0371",
    ("closure",): "2162ce75e6ae5be89c58d2c72eac3a00f8b998a950a7b1f3d25eef95a59ce4a6",
    ("verify",): "9d8f71d20e75d790eafcf86b1836f656981cc156b2d2f358cae3f55fa00ab0fe",
    ("equilibrium",): "daadfd3f5445cae9584c27e7033094422e7dcbc65ba68ca4d12f763e79489dde",
    ("moments",): "83a3bc5b693d953a128c38d598b4c05b60aca82372d400940090c1d83f94c605",
}


@pytest.mark.parametrize("argv", HELP_SHA256)
def test_help_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    if argv:
        options = text.split("\noptions:\n", 1)[1]
        flags = re.findall(r"^  (-[-\w]+)", options, flags=re.MULTILINE)
        assert flags == ["-h", *FLAGS[argv[0]]]
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[argv]


# sha256 of the stdout of two exact closure tables, taken from the commit
# before ScalarExpr's order-preserving operations stopped re-canonicalising
# their results: the exact algebra's output must not move by a byte
CLOSURE_SHA256 = {
    ("--M", "2", "--N", "3"):
        "88b0bbca97635c80e0744d2597934af14933e16186fd036d5c8c467f3dc1531a",
    ("--M", "2", "--N", "5", "--hmax", "5", "--kmax", "1"):
        "76130fe7c9d677c4ebc0c371c1ab8dc4725c84a372f7a8c44b75f6c06ed52d8e",
}


@pytest.mark.parametrize("argv", CLOSURE_SHA256)
def test_exact_closure_output_is_pinned(capsys, argv):
    code, out = run(capsys, "closure", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLOSURE_SHA256[argv]


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


def test_output_error_names_the_path_asked_for_and_leaves_nothing(tmp_path, capsys):
    # a missing directory, and a directory where the file should go
    missing = tmp_path / "missing" / "x.json"
    taken = tmp_path / "taken.json"
    taken.mkdir()
    for out in (missing, taken):
        messages = set()
        for _ in range(2):
            code = main(["closure", "--M", "2", "--N", "3", "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2
            messages.add(err)
        (err,) = messages  # the same message on every run
        assert repr(str(out)) in err and ".etclosure-" not in err, err
    assert [p.name for p in tmp_path.rglob("*")] == ["taken.json"]


def test_artifact_error_names_the_artifact_path_and_leaves_nothing(tmp_path, capsys):
    directory = tmp_path / "artifacts"
    blocked = directory / "etclosure-characteristic-seed4.json"
    blocked.mkdir(parents=True)
    code = main(["verify", "--M", "2", "--N", "3", "--suite", "characteristic", "--seed", "4",
                 "--mutate", "1", "--artifacts", str(directory)])
    err = capsys.readouterr().err
    assert code == 2
    assert repr(str(blocked)) in err and ".etclosure-" not in err, err
    assert [p.name for p in directory.rglob("*")] == [blocked.name]


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "verify", "--suite", "characteristic", "--seed", "5")
    _, out2 = run(capsys, "verify", "--suite", "characteristic", "--seed", "5")
    assert out1 == out2
    _, eq1 = run(capsys, "equilibrium", "--lambda", "0.5", "--gamma", "2", "--m", "1")
    _, eq2 = run(capsys, "equilibrium", "--lambda", "0.5", "--gamma", "2", "--m", "1")
    assert eq1 == eq2


# a seeded harness over main(): argv drawn per command from the flags it
# documents, and --config files of the same keys, with finite, zero, negative,
# huge, non-finite and non-numeric values.  verify runs only the cheap suites,
# or any suite past the rank cap, which is refused before a suite runs
REALS = ("0.5", "1", "1.3", "2", "1e-8", "0", "-1", "-0.5", "1e300", "-1e300", "5e-324",
         "nan", "inf", "-inf", "x", "")
INTS = tuple(map(str, range(-1, 10))) + ("1e300", "nan", "2.5", "x")
CHEAP_SUITES = tuple(s for s in verify.SUITES if s not in ("derivative", "symmetry"))
HARNESS_VALUES = {
    **{flag: INTS for flag in ORDERS + ("--seed", "--mutate")},
    **{flag: REALS for flag in STATE[:-1] + ("--tol",)},
    "--stats": ("mb", "fd", "be", "xx"),
    "--format": ("json", "csv", "xml"),
    # paths under the run's directory; "blocker" is a file there, "missing" no directory
    "--out": ("{tmp}/out.txt", "{tmp}/missing/out.txt"),
    "--artifacts": ("{tmp}/artifacts", "{tmp}/blocker/artifacts"),
}
# a config key is a flag's dest (``lambda`` names ``lam``), or one no subcommand takes
CONFIG_KEYS = {"lambda": "--lambda", "bogus": "--M",
               **{flag[2:]: flag for flag in FLAGS["moments"] + FLAGS["verify"] if flag != "--lambda"}}
NAN_OR_INF = re.compile(r"\b-?(nan|inf)\b", re.IGNORECASE)
# warnings Python shows by default, each a stderr line of the command
SHOWN = (UserWarning, RuntimeWarning, SyntaxWarning, FutureWarning, BytesWarning, UnicodeWarning)


def suites(names=CHEAP_SUITES):
    return st.one_of(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True).map(",".join),
                     st.sampled_from((",", "bogus")))


def harness_value(flag):
    return suites() if flag == "--suite" else st.sampled_from(HARNESS_VALUES[flag])


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    over_cap = command == "verify" and draw(st.integers(0, 4)) == 0
    argv = [command]
    for flag in draw(st.lists(st.sampled_from([f for f in FLAGS[command] if not (over_cap and f in ORDERS)]),
                              unique=True, max_size=4)):
        argv += [flag, draw(harness_value(flag))]
    if over_cap:  # rank 19 or more at h = 9
        argv += ["--M", "2", "--N", "3", "--hmax", "9", "--suite", draw(suites(tuple(verify.SUITES)))]
    elif command == "verify" and "--suite" not in argv:
        argv += ["--suite", draw(suites())]
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), unique=True, max_size=3))
    return argv, [(key, draw(harness_value(CONFIG_KEYS[key]))) for key in keys]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(invocations())
def test_cli_fuzz_ends_in_a_documented_exit_code(invocation):
    argv, config = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        open(os.path.join(tmp, "blocker"), "w").close()
        argv = [a.replace("{tmp}", tmp) for a in argv]
        if config:
            path = os.path.join(tmp, "fuzz.cfg")
            with open(path, "w") as fh:
                fh.write("".join(f"{key} = {value.replace('{tmp}', tmp)}\n" for key, value in config))
            argv = ["--config", path] + argv
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        written = pathlib.Path(tmp, "out.txt")
        text = out.getvalue() + (written.read_text() if written.exists() else "")
    # "wrote" lines name --artifacts files; a shown warning would be one more line
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("wrote ")]
    lines += [str(w.message) for w in caught if issubclass(w.category, SHOWN)]
    assert code in (0, 1, 2, 3, 4), (argv, config, code)
    assert len(lines) == (code != 0), (argv, config, code, lines)
    if code == 0:
        assert not NAN_OR_INF.search(text), (argv, config)


# ---------------------------------------------------------------------------
# the one-pass JSON writer against json.dumps over _render, byte for byte


def reference_json(obj):
    return json.dumps(cli._render(obj), sort_keys=True, indent=2) + "\n"


WRITER_CASES = {
    "empty": [{}, [], (), {"a": {}, "b": [], "c": ()}],
    "nested tuples": ((1, (2, (3, ()))), [(), [()], ({},)]),
    "int keys": {3: "c", 1: {2: [1]}, -1: None, 10: "x"},
    "colliding keys": {1: "int", "1": "str"},
    "text": ["caf\u00e9", "\u2603 \U0001F600", "tab\t nl\n cr\r", "\x00\x1f\x7f", '"q" \\ /',
             {"\u00e9\n": "key"}],
    "constants": [True, False, None, {"t": True, "f": False, "n": None}],
    "numbers": [Fraction(3, 4), Fraction(-6, 3), Fraction(0), 0.1, -0.0, 1e300, 5e-324,
                float("nan"), float("inf"), -float("inf"), 2 ** 70, -5, np.float64(0.25)],
    "tensors": [DenseSymTensor(2, {(0, 1): Fraction(1, 3), (2, 2): 0.5}),
                FourVector([Fraction(3, 2), 0, 1.5, -1], "lower")],
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_json_writer_matches_json_dumps_over_render(case):
    obj = WRITER_CASES[case]
    assert cli._to_json(obj) == reference_json(obj)


_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                    st.floats(), st.fractions(max_denominator=50))
_KEYS = st.one_of(st.text(max_size=3), st.integers(-20, 20))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=20))
def test_json_writer_matches_json_dumps_on_nested_values(obj):
    assert cli._to_json(obj) == reference_json(obj)


@pytest.mark.parametrize("bad", [object(), np.int64(1)], ids=["object", "int64"])
def test_json_writer_raises_the_type_error_json_raises(bad):
    for obj in (bad, {"a": [1, bad]}):
        with pytest.raises(TypeError) as want:
            reference_json(obj)
        with pytest.raises(TypeError) as got:
            cli._to_json(obj)
        assert str(got.value) == str(want.value)


# sha256 of the default stdout of four commands, taken before the one-pass JSON
# writer replaced json.dumps (Python 3.11.7, numpy 2.4.6, scipy 1.17.1: the float
# residuals of verify and the quadrature values follow the platform's libm); the
# two verify pins were re-taken when the quadrature suites' second route became
# the Bessel series, which moved the H_derivatives, bessel and cross_route residuals,
# again when the series took its K_nu from its own trapezoid rows and the
# redundant bessel case was dropped, and all three but equilibrium when the
# equilibrium suite dropped its gibbs and integrability cases for the series bound
# and the kinetic trace chain and p moved to the moments' invariant coefficients
STDOUT_SHA256 = {
    ("verify", "--M", "2", "--N", "3"):
        "3401bd5d69ea4886a4501aa4e35c383c72c574895ae52ef1e6c190fe7de7bdfe",
    ("verify", "--M", "2", "--N", "3", "--mutate", "1"):
        "e6ed7abd8b564e66d9985b85a8152ea3e6bbfec9f91fbaf9739908b1e3f09949",
    ("moments", "--M", "2", "--N", "3"):
        "3d32e01bfeb8ebab41a19aa7fafca0de2ad4727df073f235d9e38edfb6c50934",
    ("equilibrium",):
        "c7a2770fb9332f3ba0ef51f2783e3662d5785883893399c8ebdbbca04d069587",
}


@pytest.mark.parametrize("argv", STDOUT_SHA256, ids=" ".join)
def test_default_stdout_is_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == (1 if "--mutate" in argv else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
