"""scipy and numpy load on first use, not with the package.

The exact closure path (``closure`` and every verify suite but ``equilibrium``
and ``kinetic``) is Fraction arithmetic: it never integrates and makes no
array, so it may pay neither import.  ``equilibrium`` and ``moments`` at an
ordinary state integrate on the shared trapezoid grid, whose nodes are numpy
arrays, so they load numpy but not scipy.  The ``kinetic`` and ``equilibrium``
suites check that grid against the Bessel-K series, whose K_nu come from its
own numpy trapezoid rows, so they and a default ``verify`` load no scipy
module either: only a state whose grid is rejected loads ``scipy.integrate``,
for its ``quad`` fallback.  Each check of
sys.modules runs in a fresh interpreter, because the test process itself has
long since imported both.  So does the check that numpy loaded after the
package is still seen: a float64 batch then takes the batch kernels, bit for
bit what its points give one by one.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from scipy.integrate import quad

from etclosure import equilibrium, moments
from etclosure.equilibrium import QUAD_OPTIONS, mj_closed_form_H

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TESTS = pathlib.Path(__file__).resolve().parent

EXACT_SUITES = "characteristic,cross_route,compatibility,roundtrip,oracle,symmetry,derivative"

PROBE = """
import contextlib, io, json, sys
from etclosure import cli

def loaded():
    return {package: any(name == package or name.startswith(package + ".") for name in sys.modules)
            for package in ("numpy", "scipy", "scipy.special", "scipy.integrate")}

exact = ["verify", "--M", "2", "--N", "3", "--suite", sys.argv[1]]
report = {}
with contextlib.redirect_stdout(io.StringIO()):
    report["import"] = loaded()
    report["codes"] = [cli.main(["closure", "--M", "2", "--N", "3"])]
    report["closure"] = loaded()
    report["codes"] += [cli.main(exact), cli.main(exact + ["--mutate", "1"])]
    report["exact"] = loaded()
    report["codes"].append(cli.main(["equilibrium"]))
    report["equilibrium"] = loaded()
    report["codes"].append(cli.main(["moments"]))
    report["codes"].append(cli.main(["moments", "--M", "2", "--N", "3"]))
    report["moments"] = loaded()
    report["codes"].append(cli.main(["verify", "--suite", "kinetic"]))
    report["kinetic suite"] = loaded()
    report["codes"].append(cli.main(["verify", "--suite", "equilibrium"]))
    report["equilibrium suite"] = loaded()
    report["codes"].append(cli.main(["verify", "--M", "2", "--N", "3"]))
    report["verify"] = loaded()
    # a degenerate Fermi edge is narrower than any grid: quad
    report["codes"].append(cli.main(["equilibrium", "--stats", "fd", "--lambda", "-30", "--gamma", "1"]))
    report["quad"] = loaded()
print(json.dumps(report))
"""

LATE_NUMPY = """
import json, random, sys
from etclosure import cli, closure, equilibrium, family, moments, oracle, scalar, tensors, verify
from etclosure.closure import ClosureTensorSet
from etclosure.equilibrium import ThermoState
from etclosure.moments import MultiplierState, make_deviation, symmetry_residual
from etclosure.oracle import random_float_timelike, random_sym_tensor
from etclosure.verify import VerifyConfig

before = "numpy" in sys.modules
# the exact path asks whether its values are batches while numpy is absent
exact = [r.passed for r in verify.run_suites(["symmetry", "oracle"], VerifyConfig(M=2, N=3))]
import numpy
sys.path.insert(0, sys.argv[1])
from test_moments import _per_point_residual

spec = VerifyConfig(M=2, N=3).spec
sets = ClosureTensorSet.build(spec)
rng = random.Random(11)
base = ThermoState(rng.uniform(0.2, 1.0), random_float_timelike(rng), 1.0)
lam_dev = make_deviation(random_sym_tensor(2, rng, rational=False), 2).scale(1e-6)
mu_dev = make_deviation(random_sym_tensor(3, rng, rational=False), 3).scale(1e-6)
state = MultiplierState(base, lam_dev, mu_dev, spec)
plans = [tensors._derivative_plan.cache_info().misses, tensors._product_positions.cache_info().misses]
batched = symmetry_residual(state, step=1e-6, tensors=sets)
plans += [tensors._derivative_plan.cache_info().misses, tensors._product_positions.cache_info().misses]
print(json.dumps({"numpy_before": before, "exact": exact, "plans": plans, "batched": batched.hex(),
                  "per_point": _per_point_residual(state, 1e-6, sets).hex()}))
"""


def _fresh(script: str, *args: str) -> dict:
    """The last line of ``script``'s stdout, as JSON, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def probe() -> dict:
    return _fresh(PROBE, EXACT_SUITES)


def test_exact_commands_never_load_scipy_and_a_quadrature_does(probe):
    assert probe["codes"] == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    assert {step: seen["scipy"] for step, seen in probe.items() if step != "codes"} == {
        "import": False, "closure": False, "exact": False, "equilibrium": False,
        "moments": False, "kinetic suite": False, "equilibrium suite": False, "verify": False,
        "quad": True}


def test_exact_commands_never_load_numpy_and_a_radial_grid_does(probe):
    assert {step: seen["numpy"] for step, seen in probe.items() if step != "codes"} == {
        "import": False, "closure": False, "exact": False, "equilibrium": True,
        "moments": True, "kinetic suite": True, "equilibrium suite": True, "verify": True,
        "quad": True}


def test_the_quadrature_suites_load_no_scipy_and_only_quad_loads_scipy_integrate(probe):
    assert {step: (seen["scipy"], seen["scipy.special"], seen["scipy.integrate"])
            for step, seen in probe.items() if step.endswith("suite") or step == "verify"} == {
        "kinetic suite": (False, False, False), "equilibrium suite": (False, False, False),
        "verify": (False, False, False)}
    assert probe["quad"]["scipy.integrate"]


def test_numpy_loaded_after_the_package_still_runs_the_batch_kernels():
    report = _fresh(LATE_NUMPY, str(TESTS))
    assert report["numpy_before"] is False and report["exact"] == [True, True]
    derivative_before, product_before, derivative_after, product_after = report["plans"]
    assert derivative_after > derivative_before and product_after > product_before
    assert report["batched"] == report["per_point"]


NO_TEMPFILE = """
import contextlib, io, json, sys
from etclosure import cli
report = {"import": "tempfile" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    report["code"] = cli.main(["closure", "--M", "2", "--N", "3"])
report["closure"] = "tempfile" in sys.modules
print(json.dumps(report))
"""


def test_the_cli_and_a_default_closure_load_no_tempfile():
    # -S: no site hook may load tempfile first; only --out and --artifacts write a file
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", NO_TEMPFILE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"import": False, "code": 0, "closure": False}


def test_quad_forwards_to_scipy_exactly():
    def f(x):
        return math.exp(-1.5 * x) * x**2 / (1.0 + x)

    want = quad(f, 0.0, math.inf, **QUAD_OPTIONS)
    assert moments.quad is equilibrium.quad
    assert equilibrium.quad(f, 0.0, math.inf, **QUAD_OPTIONS) == want
    assert moments.quad(f, 0.0, 4.0, **QUAD_OPTIONS) == quad(f, 0.0, 4.0, **QUAD_OPTIONS)


def test_closed_form_H_is_unchanged_by_the_deferred_bessel_import():
    assert mj_closed_form_H(0.5, 2.0, 1.0).hex() == "0x1.10e824d49e282p-2"
