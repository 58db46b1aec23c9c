"""scipy loads on the first ``quad`` call, not with the package.

The exact closure path (``closure`` and every verify suite but ``equilibrium``
and ``kinetic``) is Fraction arithmetic and never integrates, and
``equilibrium`` and ``moments`` at an ordinary state integrate on the shared
trapezoid grid, so none of them may pay scipy's import; the ``equilibrium``
suite checks that grid against the half-line ``quad`` and must load it.  Each
check of sys.modules runs in a fresh interpreter, because the test process
itself has long since imported scipy.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys

from scipy.integrate import quad

from etclosure import equilibrium, moments
from etclosure.equilibrium import QUAD_OPTIONS, mj_closed_form_H

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

EXACT_SUITES = "characteristic,cross_route,compatibility,roundtrip,oracle,symmetry,derivative"

PROBE = """
import contextlib, io, json, sys
from etclosure import cli

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

report = {}
with contextlib.redirect_stdout(io.StringIO()):
    report["import"] = scipy_loaded()
    report["codes"] = [cli.main(["closure", "--M", "2", "--N", "3"]),
                       cli.main(["verify", "--M", "2", "--N", "3", "--suite", sys.argv[1]])]
    report["exact"] = scipy_loaded()
    report["codes"].append(cli.main(["equilibrium"]))
    report["equilibrium"] = scipy_loaded()
    report["codes"].append(cli.main(["moments"]))
    report["codes"].append(cli.main(["moments", "--M", "2", "--N", "3"]))
    report["moments"] = scipy_loaded()
    report["codes"].append(cli.main(["verify", "--suite", "equilibrium"]))
    report["quad"] = scipy_loaded()
print(json.dumps(report))
"""


def test_exact_commands_never_load_scipy_and_a_quadrature_does():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, EXACT_SUITES], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"import": False, "codes": [0, 0, 0, 0, 0, 0], "exact": False,
                      "equilibrium": False, "moments": False, "quad": True}


def test_quad_forwards_to_scipy_exactly():
    def f(x):
        return math.exp(-1.5 * x) * x**2 / (1.0 + x)

    want = quad(f, 0.0, math.inf, **QUAD_OPTIONS)
    assert moments.quad is equilibrium.quad
    assert equilibrium.quad(f, 0.0, math.inf, **QUAD_OPTIONS) == want
    assert moments.quad(f, 0.0, 4.0, **QUAD_OPTIONS) == quad(f, 0.0, 4.0, **QUAD_OPTIONS)


def test_closed_form_H_is_unchanged_by_the_deferred_bessel_import():
    assert mj_closed_form_H(0.5, 2.0, 1.0).hex() == "0x1.10e824d49e282p-2"
