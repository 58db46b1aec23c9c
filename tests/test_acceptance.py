"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises one headline property of the package at its stated
tolerance and runtime budget and emits exactly one [PASS]/[FAIL] line, so
a full run reads as a checklist.  Failures are collected per test and
reported together rather than aborting at the first bad case.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from etclosure.closure import (
    ClosureSpec,
    ClosureTensorSet,
    build_closure_tensor,
    closure_coeff,
    closure_coeff_N1,
    derive_C_from_E,
    verify_compatibility,
)
from etclosure.equilibrium import (
    H_from_distribution,
    JuttnerFamily,
    ThermoState,
    equilibrium_multipliers,
    gibbs_residual,
    integrability_residual,
    mj_closed_form_H,
    project_equilibrium,
)
from etclosure.family import (
    FFamilyElement,
    basis_mu_contraction,
    check_characteristic,
    lift,
    mu_derivative,
    realize,
    timelike_gamma,
    trace,
)
from etclosure.moments import (
    MultiplierState,
    equilibrium_moments_with_traces,
    make_deviation,
    symmetry_residual,
)
from etclosure.oracle import (
    brute_mu_contract,
    brute_realize_basis,
    brute_symmetrize,
    brute_trace,
    fd_mu_derivative,
    random_float_timelike,
    random_rational_timelike,
    random_sym_tensor,
)
from etclosure.scalar import ScalarExpr, SingularRatioError
from etclosure.tensors import DenseSymTensor, FourVector, contract_mu, gmu_basis, symmetrize, trace_pair
from etclosure.verify import mutate_tensor_set

SEED = 20260814


def _report(label: str, failures: list, elapsed: float, budget: float | None = None) -> None:
    ok = not failures and (budget is None or elapsed < budget)
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {elapsed:.2f} s"
    if budget is not None:
        line += f" (budget {budget:g} s)"
    if failures:
        line += f" -- {len(failures)} failure(s): {failures[:4]}"
    print(line)
    assert ok, line


def _rel(a: float, b: float, floor: float = 1e-10) -> float:
    return abs(a - b) / max(abs(b), floor)


def test_01_multiplier_round_trip_exact():
    rng = random.Random(SEED)
    failures = []
    t0 = time.perf_counter()
    for M in (0, 2, 4, 6):
        for N in (1, 3, 5):
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            mu = random_rational_timelike(rng)
            m = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            lam_t, mu_t = equilibrium_multipliers(lam, mu, M, N, m)
            lam_back, mu_back = project_equilibrium(lam_t, mu_t, m)
            if lam_back != lam or tuple(mu_back.components) != tuple(mu.lowered().components):
                failures.append((M, N))
    _report("equilibrium multiplier round-trip exact, M<=6 N<=5", failures,
            time.perf_counter() - t0, budget=1.0)


def test_02_characteristic_descent_zero_through_rank_12():
    failures = []
    count = 0
    t0 = time.perf_counter()
    for M, N in ((2, 1), (4, 1), (2, 3), (4, 3)):
        spec = ClosureSpec(M, N, h_max=5, k_max=3)
        k_top = 0 if N == 1 else 3
        for k in range(k_top + 1):
            for h in range(5 + 1):
                if spec.rank(h, k) > 12:
                    continue
                elem = build_closure_tensor(spec, h, k)
                ok, residuals = check_characteristic(elem)
                if not ok or any(not r.is_zero() for r in residuals):
                    failures.append((M, N, h, k))
                count += 1
    assert count == 34
    _report("characteristic descent identically zero through rank 12", failures,
            time.perf_counter() - t0, budget=30.0)


def test_03_closed_form_matches_recursive_route():
    failures = []
    t0 = time.perf_counter()
    spec = ClosureSpec(2, 3, h_max=2, k_max=2)
    for h in range(3):
        for k in range(3):
            if build_closure_tensor(spec, h, k) != derive_C_from_E(spec, h, k):
                failures.append(("recursive", h, k))
    for h in range(4):
        n = 2 * h + 1
        for s in range(n // 2 + 1):
            if closure_coeff(2, 1, h, 0, s) != closure_coeff_N1(2, h, s):
                failures.append(("k0-reduction", h, s))
    _report("closed-form closure equals recursive route, exact", failures,
            time.perf_counter() - t0, budget=60.0)


def test_04_descent_compatibility_exact():
    failures = []
    t0 = time.perf_counter()
    # caps one above the checked orders so the higher tensor of each
    # condition is constructible
    spec = ClosureSpec(2, 3, h_max=3, k_max=3)
    for h in range(3):
        for k in range(3):
            rep = verify_compatibility(spec, h, k)
            if rep["lambda_ok"] is not True or rep["mu_ok"] is not True:
                failures.append((2, 3, h, k))
    spec1 = ClosureSpec(2, 1, h_max=4, k_max=0)
    for h in range(4):
        rep = verify_compatibility(spec1, h, 0)
        if rep["lambda_ok"] is not True or rep["mu_ok"] is not None:
            failures.append((2, 1, h, 0))
    _report("descent compatibility conditions exact", failures,
            time.perf_counter() - t0)


def test_05_component_oracle_equivalence_rank_6(registry):
    rng = random.Random(SEED + 5)
    failures = []
    t0 = time.perf_counter()

    for rank in range(7):
        raw = {idx: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
               for idx in itertools.product(range(4), repeat=rank)}
        if symmetrize(raw, rank=rank) != brute_symmetrize(raw, rank=rank):
            failures.append(("symmetrize", rank))

    for n, s in ((2, 0), (2, 1), (3, 1), (4, 2), (5, 2), (6, 1), (6, 2), (6, 3)):
        mu = random_rational_timelike(rng)
        if gmu_basis(n, s, mu) != brute_realize_basis(n, s, mu):
            failures.append(("basis", n, s))

    for rank in range(2, 7):
        t = random_sym_tensor(rank, rng)
        mu = random_rational_timelike(rng)
        if trace_pair(t) != brute_trace(t):
            failures.append(("trace", rank))
        if contract_mu(t, mu) != brute_mu_contract(t, mu):
            failures.append(("contract", rank))

    for n in (4, 5, 6):
        lead = ScalarExpr.monomial(Fraction(5, 3), -6, 0, (0, 0)) + ScalarExpr.monomial(
            Fraction(-2, 7), -8, 0, (1, 0)
        )
        elem = FFamilyElement.from_leading(n, lead)
        mu = random_rational_timelike(rng)
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if realize(trace(elem), lam, mu, 1, registry) != brute_trace(
            realize(elem, lam, mu, 1, registry)
        ):
            failures.append(("family_trace", n))

    for n in (2, 4, 6):
        mu = random_rational_timelike(rng)
        gamma = timelike_gamma(mu)
        for r in range(1, n + 1):
            lhs = gmu_basis(n, n // 2)
            for _ in range(r):
                lhs = brute_mu_contract(lhs, mu)
            rhs = DenseSymTensor.zeros(n - r)
            for s, phi in enumerate(basis_mu_contraction(n, r)):
                if not phi.is_zero():
                    rhs = rhs + gmu_basis(n - r, s, mu).scale(phi.evaluate(0, gamma, 1))
            if lhs != rhs:
                failures.append(("contraction_table", n, r))

    for n in (4, 6):
        mu = random_rational_timelike(rng)
        if brute_mu_contract(gmu_basis(n, n // 2), mu) != gmu_basis(n - 1, (n - 2) // 2, mu):
            failures.append(("single_contraction", n))

    _report("coefficient-space operations equal brute force through rank 6", failures,
            time.perf_counter() - t0, budget=60.0)


def test_06_lift_trace_inversion_50_cases():
    rng = random.Random(SEED + 6)
    failures = []
    t0 = time.perf_counter()
    produced = 0
    attempts = 0
    while produced < 50 and attempts < 600:
        attempts += 1
        n = rng.randint(1, 4)
        r = rng.randint(1, 2)
        half = n // 2
        # exponents inside [n-half-1, n-half+r-2] hit the zero ratio
        p_pool = [p for p in range(0, 8) if p < n - half - 1 or p > n - half + r - 2]
        lead = ScalarExpr.zero()
        for p in rng.sample(p_pool, k=min(2, len(p_pool))):
            lead = lead + ScalarExpr.monomial(
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)), -6 - 2 * p, 0,
                (rng.randint(0, 3), 0),
            )
        if lead.is_zero():
            continue
        elem = FFamilyElement.from_leading(n, lead)
        free = None
        if rng.random() < 0.5:
            free = [
                ScalarExpr.monomial(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)), 0, 0,
                    (rng.randint(0, 3), 0),
                )
                for _ in range(r)
            ]
        back = lift(elem, r, free=free)
        for _ in range(r):
            back = trace(back)
        if back != elem:
            failures.append((n, r, produced))
        produced += 1
    if produced != 50:
        failures.append(("produced", produced))

    # resonant exponents must raise, never return a wrong element
    for n, r, p in ((1, 1, 0), (1, 2, 0), (1, 2, 1), (2, 1, 0), (3, 1, 1), (4, 2, 1), (4, 2, 2)):
        elem = FFamilyElement.from_leading(
            n, ScalarExpr.monomial(Fraction(3, 2), -6 - 2 * p, 0, (0, 0))
        )
        with pytest.raises(SingularRatioError):
            lift(elem, r)

    _report("lift/trace inversion on 50 seeded cases, violations raise", failures,
            time.perf_counter() - t0)


def test_07_mu_derivative_matches_finite_differences(registry):
    rng = random.Random(SEED + 7)
    failures = []
    t0 = time.perf_counter()
    spec21 = ClosureSpec(2, 1, h_max=3, k_max=0, registry=registry)
    spec23 = ClosureSpec(2, 3, h_max=2, k_max=2, registry=registry)
    elems = [build_closure_tensor(spec21, h, 0) for h in (1, 2, 3)]
    elems += [build_closure_tensor(spec23, h, k) for h, k in ((0, 1), (1, 1), (0, 2))]
    assert max(e.rank for e in elems) == 7
    for case in range(10):
        mu = random_float_timelike(rng)
        lam = rng.uniform(0.2, 1.0)
        for elem in elems:
            got = realize(mu_derivative(elem), lam, mu, 1.0, registry)
            want = fd_mu_derivative(elem, lam, mu, 1.0, registry)
            worst = max(_rel(got.get(idx), v) for idx, v in want.items())
            if worst > 1e-6:
                failures.append((case, elem.rank, f"{worst:.2e}"))
    _report("mu-derivative matches central differences to 1e-6 (rank <= 7)", failures,
            time.perf_counter() - t0)


def test_08_moment_symmetry_and_negative_control(registry):
    rng = random.Random(SEED + 8)
    failures = []
    t0 = time.perf_counter()
    # deviations scaled to 1e-6: the truncated series is symmetric only up
    # to the first omitted order, which is quadratic at orders <= 2
    devscale = 1e-6
    for M, N, k_max, mutate_seed in ((2, 1, 0, 3), (2, 3, 2, 1)):
        spec = ClosureSpec(M, N, h_max=2, k_max=k_max, registry=registry)
        tensors = ClosureTensorSet.build(spec)
        states = []
        for case in range(10):
            mu = random_float_timelike(rng)
            base = ThermoState(rng.uniform(0.2, 1.0), mu, 1.0)
            lam_dev = make_deviation(random_sym_tensor(M, rng, rational=False), M).scale(devscale)
            mu_dev = make_deviation(random_sym_tensor(N, rng, rational=False), N).scale(devscale)
            mstate = MultiplierState(base, lam_dev, mu_dev, spec)
            states.append(mstate)
            rel = symmetry_residual(mstate, step=1e-6, tensors=tensors)
            if rel > 1e-6:
                failures.append((M, N, case, f"{rel:.2e}"))
        # corrupt the lambda-block first-order tensor: metric-heavy terms of
        # the vector-block tensor annihilate against trace-free deviations,
        # so not every coefficient there is visible at first order
        bad = mutate_tensor_set(tensors, random.Random(mutate_seed), 1, orders=[(1, 0)])
        rel_bad = symmetry_residual(states[0], step=1e-6, tensors=bad)
        if rel_bad <= 1e-3:
            failures.append((M, N, "mutation", f"{rel_bad:.2e}"))
    _report("moment symmetry residual <= 1e-6 at 10 states; mutation > 1e-3", failures,
            time.perf_counter() - t0)


def test_09_equilibrium_thermodynamics_quadrature():
    failures = []
    t0 = time.perf_counter()
    dist = JuttnerFamily()
    for z in (0.1, 1.0, 10.0):
        for lam in (0.0, 1.0):
            got = H_from_distribution(dist.F, lam, z, 1.0)
            want = mj_closed_form_H(lam, z, 1.0)
            if _rel(got, want) > 1e-8:
                failures.append(("bessel", z, lam))
        state = ThermoState(1.0, FourVector([z, 0.0, 0.0, 0.0]), 1.0)
        g = gibbs_residual(state)
        i = integrability_residual(state)
        if g > 1e-8:
            failures.append(("gibbs", z, f"{g:.2e}"))
        if i > 1e-8:
            failures.append(("integrability", z, f"{i:.2e}"))
    _report("quadrature H equals Bessel oracle; Gibbs/integrability <= 1e-8", failures,
            time.perf_counter() - t0)


def test_10_kinetic_trace_chain():
    failures = []
    t0 = time.perf_counter()
    state = ThermoState(0.8, FourVector([1.3, 0.4, -0.2, 0.1]), 1.0)
    for M, N in ((0, 1), (2, 1)):
        spec = ClosureSpec(M, N, h_max=1, k_max=0)
        _, _, report = equilibrium_moments_with_traces(state, spec)
        for name, rel in report["traces"].items():
            if rel > 1e-8:
                failures.append((M, N, name, f"{rel:.2e}"))
    _report("kinetic moments satisfy the mass-shell trace chain to 1e-8", failures,
            time.perf_counter() - t0)
