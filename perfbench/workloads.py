"""The three workloads: inputs made from a seed, one round of operations, checks.

A workload is a fixed list of operations. Each operation calls etclosure
through a public entry point (``cli.main`` for the four commands, library
functions where the command line has no route) and returns its raw output;
its checker compares that output with ``reference`` (computed apart from the
program) or with a property the method must have, and returns the problems it
found plus, where the workload measures accuracy, the worst relative error.
The number and kind of operations per round never depend on the seed, only
their inputs do.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import reference as ref
from etclosure import cli, closure, family, moments
from etclosure.closure import ClosureSpec
from etclosure.equilibrium import ThermoState
from etclosure.scalar import FunctionRegistry, PolynomialFunction
from etclosure.tensors import DenseSymTensor, FourVector, canonical_indices

EXACT_SUITES = "characteristic,cross_route,compatibility,roundtrip,oracle"
SYMMETRY_TOL = 1e-6  # the symmetry suite's own tolerance
QUADRATURE_TOL = 1e-8  # the equilibrium and kinetic suites' tolerance
BESSEL_TOL = 1e-10  # quadrature at epsrel 1e-13 against Bessel-K closed forms
GIBBS_TOL = 1e-6  # five-point FD meter; reads 2.4e-8 for be at lambda 0.2, gamma 0.1


@dataclass
class Op:
    """One operation: `call()` returns the raw output, `check(output)` judges it."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], Tuple[List[str], Optional[float]]]


def cli_call(argv: List[str]) -> Callable[[], Tuple[int, str]]:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return call


def _flags(**kw) -> List[str]:
    out = []
    for key, val in kw.items():
        out += [f"--{key}", val if isinstance(val, str) else repr(val)]
    return out


def _mu_flags(mu) -> List[str]:
    return _flags(mu0=mu[0], mu1=mu[1], mu2=mu[2], mu3=mu[3])


def _float_timelike(rng: random.Random, gmin: float, gmax: float):
    v = [rng.uniform(-0.5, 0.5) for _ in range(3)]
    u0 = math.sqrt(1.0 + sum(x * x for x in v))
    g = rng.uniform(gmin, gmax)
    return (g * u0, g * v[0], g * v[1], g * v[2])


def _polynomials(rng: random.Random):
    """Eight degree-6 polynomials c_q; every coefficient is (odd, at most 5)/4."""
    polys = [[Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), 4) for _ in range(7)] for _ in range(8)]
    registry = FunctionRegistry({q: PolynomialFunction(c) for q, c in enumerate(polys)})
    return polys, registry


def _rational_state(rng: random.Random):
    """(lambda, gamma, mu^a) with rational gamma, all of one arithmetic size.

    Exact realize costs grow with the size of the fractions, so the seed only
    picks signs and orders: gamma = 7/2, rapidity parameter t = 1/2 (cosh 5/3,
    sinh 4/3), a signed permutation of the unit vector (1, 4, 8)/9, and
    lambda = +-(1, 3, 5 or 7)/4.
    """
    gamma, cosh, sinh = Fraction(7, 2), Fraction(5, 3), Fraction(4, 3)
    unit = [Fraction(rng.choice((-1, 1)) * c, 9) for c in rng.sample((1, 4, 8), 3)]
    lam = Fraction(rng.choice((-7, -5, -3, -1, 1, 3, 5, 7)), 4)
    return lam, gamma, (gamma * cosh,) + tuple(gamma * sinh * u for u in unit)


def _doc(output, expect_rc: int = 0):
    rc, text = output
    if rc != expect_rc:
        return None, [f"exit code {rc}, expected {expect_rc}"]
    return json.loads(text), []


# ---------------------------------------------------------------------------
# checkers shared by the workloads


def check_verify(output, suites, tol: float, count_accuracy: bool = False):
    doc, errors = _doc(output)
    if doc is None:
        return errors, None
    if doc["passed"] is not True:
        errors.append("verify did not pass")
    got = [r["suite"] for r in doc["results"]]
    if got != list(suites):
        errors.append(f"suites {got}, expected {list(suites)}")
    worst = 0.0
    for r in doc["results"]:
        res = float(r["max_residual"])
        worst = max(worst, res)
        if r["failures"] or not r["cases"] or not res <= tol:
            errors.append(f"{r['suite']}: {r['failures']}/{r['cases']} failed, residual {res}")
    return errors, (worst if count_accuracy else None)


def check_mutated(output):
    doc, errors = _doc(output, expect_rc=1)
    if doc is None:
        return errors, None
    if doc["passed"] is not False or not any(r["failures"] for r in doc["results"]):
        errors.append("mutated control reported no failure")
    return errors, None


def check_moments(output, stats, lam, mu, M, N):
    """Kinetic moments against boosted Bessel references; exact zero series."""
    doc, errors = _doc(output)
    if doc is None:
        return errors, None
    gamma = math.sqrt(mu[0] ** 2 - mu[1] ** 2 - mu[2] ** 2 - mu[3] ** 2)
    worst = 0.0
    for block, rank in (("A", M + 1), ("B", N + 1)):
        comps = {tuple(c["idx"]): float(c["value"]) for c in doc[block]["components"]}
        want = ref.boost(ref.rest_moment(stats, lam, gamma, 1.0, rank), mu)
        worst = max(worst, ref.tensor_relerr(comps, want))
    kin = ref.kinetic_densities(stats, lam, gamma, 1.0)
    for key, want in zip("npe", kin):
        worst = max(worst, ref.relerr(float(doc["kinetic"][key]), want))
    if not worst <= BESSEL_TOL:
        errors.append(f"moments off the Bessel reference by {worst:.3e}")
    if any(float(c) != 0.0 for c in doc["delta_hprime"]):
        errors.append(f"delta_hprime at equilibrium is {doc['delta_hprime']}, not 0")
    for name, res in doc["residuals"]["traces"].items():
        if not float(res) <= QUADRATURE_TOL:
            errors.append(f"trace chain {name} residual {res}")
    return errors, worst


def check_equilibrium(output, stats, lam, gamma):
    doc, errors = _doc(output)
    if doc is None:
        return errors, None
    want = ref.state_functions(stats, lam, gamma, 1.0)
    worst = max(ref.relerr(float(doc[key]), w) for key, w in zip("npe", want))
    if not worst <= BESSEL_TOL:
        errors.append(f"n, p, e off the Bessel reference by {worst:.3e}")
    if float(doc["T"]) != 1.0 / gamma:
        errors.append(f"T = {doc['T']} at gamma {gamma!r}")
    if not float(doc["gibbs_residual"]) <= GIBBS_TOL:
        errors.append(f"gibbs residual {doc['gibbs_residual']}")
    return errors, worst


# ---------------------------------------------------------------------------
# exact-closure


# (M, N, h_max, k_max): the largest truncation whose top order fits the rank cap
CLOSURE_PAIRS = ((2, 1, 7, 0), (4, 1, 3, 0), (6, 1, 2, 0), (2, 3, 3, 3), (4, 3, 3, 1), (2, 5, 5, 1))


def check_closure_table(output, M, N, h_max, k_max):
    doc, errors = _doc(output)
    if doc is None:
        return errors, None
    want = Counter()
    for h, k in ref.orders(M, N, h_max, k_max):
        coeffs = ref.closure_coeffs(M, N, h, k)
        if not any(coeffs):
            want[(h, k, None, None, Fraction(0), None, None, None)] += 1
        for s, terms in enumerate(coeffs):
            for c, g, mp, (q, order) in terms:
                want[(h, k, s, q, c, g, mp, (q, order))] += 1
    got = Counter(
        (r["h"], r["k"], r["s"], r["q"], Fraction(r["prefactor"]), r["gamma_pow"],
         r["msq_pow"], tuple(r["symbol"]) if r["symbol"] is not None else None)
        for r in doc["rows"]
    )
    if got != want:
        errors.append(f"closure table ({M},{N}) differs from the closed form in "
                      f"{sum(((got - want) + (want - got)).values())} rows")
    return errors, 0.0


def check_recursive(elem, M, N, h, k):
    want = ref.closure_coeffs(M, N, h, k)
    errors = []
    if elem.rank != M * h + N * k + 1 or len(elem.coeffs) != len(want):
        return [f"C_{h},{k} has rank {elem.rank}"], None
    for s, (phi, terms) in enumerate(zip(elem.coeffs, want)):
        if Counter(phi.terms) != Counter(terms):
            errors.append(f"recursive C_{h},{k} phi_{s} differs from the closed form")
    bad = ref.descent_residual(elem.rank, [phi.terms for phi in elem.coeffs])
    if bad:
        errors.append(f"recursive C_{h},{k} breaks the descent relation at {bad[:2]}")
    return errors, 0.0


def check_order(out, M, N, h, k):
    """The recursive route's C_{h,k} and the compatibility report, where each ran."""
    elem, report = out
    errors = []
    if elem is not None:
        errors += check_recursive(elem, M, N, h, k)[0]
    if report is not None:
        errors += check_compatibility(report, M, N, h, k)[0]
    return errors, 0.0


def check_compatibility(report, M, N, h, k):
    errors = []
    for block, active in (("lambda", M >= 2), ("mu", N >= 3)):
        if not active:
            continue
        residuals = report[f"{block}_residuals"]
        if report[f"{block}_ok"] is not True or any(r.terms for r in residuals):
            errors.append(f"{block} compatibility of C_{h},{k} is not exactly zero")
    return errors, 0.0


def check_realize(tensor, M, N, h, k, lam, gamma, mu, polys):
    n = M * h + N * k + 1
    values = dict(tensor.items())
    if tensor.rank != n or set(values) != set(itertools.combinations_with_replacement(range(4), n)):
        return [f"realized C_{h},{k} has rank {tensor.rank}"], None
    if any(not isinstance(v, (int, Fraction)) or isinstance(v, bool) for v in values.values()):
        return [f"realized C_{h},{k} left exact arithmetic"], None
    want = sum(
        (ref.evaluate_terms(terms, lam, gamma, 1, polys) * (-gamma * gamma) ** (n - s)
         for s, terms in enumerate(ref.closure_coeffs(M, N, h, k))),
        Fraction(0),
    )
    got = ref.full_mu_contraction(values, mu)
    if got != want:
        return [f"mu-contraction of realized C_{h},{k} is {got}, expected {want}"], None
    return [], 0.0


REST = FourVector((1.0, 0.0, 0.0, 0.0), "upper")


def exact_closure(seed: int):
    rng = random.Random(seed)
    polys, registry = _polynomials(rng)
    verify_seed = rng.randrange(10**6)
    ops: List[Op] = []
    realize_ops: List[Op] = []
    warm: List[Callable[[], object]] = []
    for M, N, h_max, k_max in CLOSURE_PAIRS:
        spec = ClosureSpec(M, N, h_max=h_max, k_max=k_max, registry=registry, m=1)
        table = ref.orders(M, N, h_max, k_max)
        ops.append(Op("closure", f"closure {M},{N}",
                      cli_call(["closure"] + _flags(M=M, N=N, hmax=h_max, kmax=k_max)),
                      lambda out, a=(M, N, h_max, k_max): check_closure_table(out, *a)))
        for h, k in table:
            # one op checks one order by both routes: the recursive construction
            # (tensor blocks only) and the compatibility with the next orders
            # (where they fit under the rank cap)
            derive = N >= 3
            compat = M * (h + 1) + N * k + 1 <= ref.RANK_CAP and not (
                N >= 3 and M * h + N * (k + 1) + 1 > ref.RANK_CAP)
            if derive or compat:
                ops.append(Op("order", f"order {M},{N} {h},{k}",
                              lambda s=spec, hk=(h, k), d=derive, c=compat: (
                                  closure.derive_C_from_E(s, *hk) if d else None,
                                  closure.verify_compatibility(s, *hk) if c else None),
                              lambda out, a=(M, N, h, k): check_order(out, *a)))
        lam, gamma, mu = _rational_state(rng)
        four = FourVector(mu, "upper")
        for h, k in table:
            elem = closure.build_closure_tensor(spec, h, k)
            realize_ops.append(Op(
                "realize", f"realize {M},{N} {h},{k}",
                lambda e=elem, l=lam, v=four: family.realize(e, l, v, 1, registry),
                lambda out, a=(M, N, h, k, lam, gamma, mu): check_realize(out, *a, polys)))
            # a float realize at rest builds every basis structure the round
            # uses, without the cost of exact arithmetic
            warm.append(lambda e=elem: family.realize(e, 0.5, REST, 1, registry))
    ops += realize_ops
    ops.append(Op("verify", "verify exact suites",
                  cli_call(["verify", "--M", "2", "--N", "3", "--suite", EXACT_SUITES]
                           + _flags(seed=verify_seed)),
                  lambda out: check_verify(out, EXACT_SUITES.split(","), 0.0)))
    ops.append(Op("verify_mutated", "verify exact suites --mutate 1",
                  cli_call(["verify", "--M", "2", "--N", "3", "--suite", EXACT_SUITES,
                            "--mutate", "1"] + _flags(seed=verify_seed)),
                  check_mutated))
    warm.append(ops[0].call)
    return ops, warm


# ---------------------------------------------------------------------------
# series-symmetry


SYMMETRY_SEEDS = 1  # verify --suite symmetry at (2,3), three states
# single (2,3) states through symmetry_residual, as one suite case each; with them a
# round has 21 ops, so ten lie beyond the median latency
SYMMETRY_CASES = 15
SERIES_MOMENTS = 3
# Intact (2,3) states at gamma < 1 can exceed the symmetry tolerance (lambda 0.558,
# gamma 0.836 reads 7.7e-6), so the single states are drawn where the worst of 80
# read 1.4e-9, and the suite runs only on seeds 0-39, whose states all pass.
SYMMETRY_LAMBDA = (0.6, 1.0)
SYMMETRY_GAMMA = (1.5, 3.0)
SUITE_SEEDS = 40
STATS = ("mb", "fd", "be")


def _symmetry_state(rng: random.Random, spec: ClosureSpec):
    """A seeded state with trace-free deviations of size 1e-6, as the symmetry suite draws
    them, at lambda and gamma in SYMMETRY_LAMBDA and SYMMETRY_GAMMA."""
    base = ThermoState(rng.uniform(*SYMMETRY_LAMBDA),
                       FourVector(_float_timelike(rng, *SYMMETRY_GAMMA), "upper"), 1.0)
    devs = []
    for rank in (spec.M, spec.N):
        raw = DenseSymTensor(rank, {idx: rng.uniform(-1.0, 1.0) for idx in canonical_indices(rank)})
        devs.append(moments.make_deviation(raw, rank, 1).scale(1e-6))
    return moments.MultiplierState(base, devs[0], devs[1], spec)


def check_symmetry_residual(out):
    if not out <= SYMMETRY_TOL:
        return [f"symmetry residual {out:.3e} above {SYMMETRY_TOL}"], None
    return [], out


def series_symmetry(seed: int):
    rng = random.Random(seed)
    _, registry = _polynomials(rng)
    ops: List[Op] = []
    for _ in range(SYMMETRY_SEEDS):
        ops.append(Op("verify", "verify symmetry 2,3",
                      cli_call(["verify", "--M", "2", "--N", "3", "--suite", "symmetry"]
                               + _flags(seed=rng.randrange(SUITE_SEEDS))),
                      lambda out: check_verify(out, ["symmetry"], SYMMETRY_TOL, count_accuracy=True)))
    specs = [ClosureSpec(2, 3, h_max=2, k_max=2, registry=registry, m=1),
             ClosureSpec(4, 3, h_max=2, k_max=2, registry=registry, m=1)]
    for spec in [specs[0]] * SYMMETRY_CASES + [specs[1]]:
        state = _symmetry_state(rng, spec)
        ops.append(Op("symmetry_residual", f"symmetry_residual {spec.M},{spec.N} (2,2)",
                      lambda st=state: moments.symmetry_residual(st, step=1e-6),
                      check_symmetry_residual))
    for i in range(SERIES_MOMENTS):
        stats, lam, mu = STATS[i % 3], rng.uniform(0.6, 1.0), _float_timelike(rng, 1.3, 1.7)
        ops.append(Op("moments", f"moments 2,3 {stats}",
                      cli_call(["moments", "--M", "2", "--N", "3", "--stats", stats]
                               + _flags(**{"lambda": lam}) + _mu_flags(mu)),
                      # accuracy here is the symmetry residuals' alone
                      lambda out, a=(stats, lam, mu): (check_moments(out, *a, 2, 3)[0], None)))
    ops.append(Op("verify_mutated", "verify symmetry --mutate 1",
                  cli_call(["verify", "--suite", "symmetry", "--mutate", "1"]
                           + _flags(seed=rng.randrange(10**6))),
                  check_mutated))
    base = ops[-2].call

    def warm_series():
        # float realize of every order fills the basis structures both specs use
        lam, mu = 0.5, FourVector(_float_timelike(random.Random(seed), 1.0, 1.0), "upper")
        for spec in specs:
            for h, k in closure.iter_orders(spec):
                family.realize(closure.build_closure_tensor(spec, h, k), lam, mu, 1, registry)

    return ops, [warm_series, base]


# ---------------------------------------------------------------------------
# thermo-kinetic


LAMBDAS = (0.2, 0.45, 1.0, 2.0)
GAMMAS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
JITTER = 0.03  # relative; quadrature cost moves with gamma, so the grid stays put
THERMO_MOMENTS = 6


def _jitter(rng: random.Random, x: float) -> float:
    return x * (1.0 + rng.uniform(-JITTER, JITTER))


def thermo_kinetic(seed: int):
    rng = random.Random(seed)
    ops: List[Op] = []
    for stats in STATS:
        for lam0 in LAMBDAS:
            for gamma0 in GAMMAS:
                lam, gamma = _jitter(rng, lam0), _jitter(rng, gamma0)
                ops.append(Op("equilibrium", f"equilibrium {stats}",
                              cli_call(["equilibrium", "--stats", stats]
                                       + _flags(**{"lambda": lam, "gamma": gamma})),
                              lambda out, a=(stats, lam, gamma): check_equilibrium(out, *a)))
    for i in range(THERMO_MOMENTS):
        stats, lam, mu = STATS[i % 3], rng.uniform(0.6, 1.0), _float_timelike(rng, 1.3, 1.7)
        ops.append(Op("moments", f"moments 2,1 {stats}",
                      cli_call(["moments", "--M", "2", "--N", "1", "--stats", stats]
                               + _flags(**{"lambda": lam}) + _mu_flags(mu)),
                      lambda out, a=(stats, lam, mu): check_moments(out, *a, 2, 1)))
    suites = ["equilibrium", "kinetic"]
    for M in (2, 4):
        ops.append(Op("verify", f"verify equilibrium,kinetic {M},1",
                      cli_call(["verify", "--M", str(M), "--N", "1", "--suite", "equilibrium",
                                "--suite", "kinetic"] + _flags(seed=rng.randrange(10**6))),
                      lambda out: check_verify(out, suites, QUADRATURE_TOL)))
    first_moments = len(LAMBDAS) * len(GAMMAS) * len(STATS)
    return ops, [ops[0].call, ops[first_moments].call]


WORKLOADS = {
    "exact-closure": exact_closure,
    "series-symmetry": series_symmetry,
    "thermo-kinetic": thermo_kinetic,
}
