from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from etclosure.closure import RANK_CAP, ClosureSpec, build_closure_tensor
from etclosure.family import (
    CharacteristicError,
    FFamilyElement,
    basis_mu_contraction,
    check_characteristic,
    leading_after_traces,
    lift,
    mu_derivative,
    realize,
    realize_tail,
    timelike_gamma,
    trace,
)
from etclosure.oracle import random_float_timelike, random_rational_timelike, random_sym_tensor
from etclosure.scalar import FunctionRegistry, ScalarExpr, SingularRatioError
from etclosure.tensors import DenseSymTensor, FourVector, contract_mu, contract_tail, gmu_basis, trace_pair


def monomial_element(rank: int, coeff=1, gamma_pow: int = 0, sym=None) -> FFamilyElement:
    lead = ScalarExpr.monomial(coeff, gamma_pow=gamma_pow, sym=sym)
    return FFamilyElement.from_leading(rank, lead)


def vector_flux(H: ScalarExpr) -> FFamilyElement:
    # H(lambda, gamma) mu^alpha
    return FFamilyElement(1, (H,))


def flux_derivative(H: ScalarExpr) -> FFamilyElement:
    # d(H mu)/d mu: coefficients (-1/gamma dH/dgamma, H)
    phi0 = H.diff_gamma().scale(-1, gamma_pow=-1)
    return FFamilyElement(2, (phi0, H))


def double_fact(n: int) -> int:
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


def d_gamma_sq(expr: ScalarExpr, times: int) -> ScalarExpr:
    out = expr
    for _ in range(times):
        out = out.diff_gamma_sq()
    return out


def test_characteristic_accepts_flux_derivative_shape():
    H = ScalarExpr.monomial(1, gamma_pow=-4)
    ok, residuals = check_characteristic(flux_derivative(H))
    assert ok
    assert all(r.is_zero() for r in residuals)


def test_characteristic_flags_violation_with_residual():
    bad = FFamilyElement(2, (ScalarExpr.zero(), ScalarExpr.monomial(1, gamma_pow=1)))
    ok, residuals = check_characteristic(bad)
    assert not ok
    # one residual per recurrence slot s = 1..smax; s = 1 carries 2/gamma
    assert len(residuals) == 1
    assert residuals[0] == ScalarExpr.monomial(2, gamma_pow=-1)


def test_characteristic_zero_element():
    ok, residuals = check_characteristic(FFamilyElement.zero(4))
    assert ok
    assert all(r.is_zero() for r in residuals)


def test_from_leading_regenerates_descent():
    H = ScalarExpr.monomial(Fraction(2, 3), gamma_pow=-8, sym=(0, 0))
    f = FFamilyElement.from_leading(5, H)
    assert f.rank == 5
    assert f.leading == H
    ok, _ = check_characteristic(f)
    assert ok


def test_descent_closed_form_matches_from_leading():
    # r-fold descent from the top slot as an explicit gamma^2-derivative
    for n in range(1, 10):
        s = n // 2
        lead = ScalarExpr.monomial(Fraction(5, 2), gamma_pow=-8)
        f = FFamilyElement.from_leading(n, lead)
        for r in range(0, s + 1):
            factor = Fraction(
                (-4) ** r * factorial(s) * factorial(n - 2 * s),
                factorial(s - r) * factorial(n - 2 * s + 2 * r),
            )
            assert f.coeffs[s - r] == d_gamma_sq(lead, r).scale(factor)


def test_mu_derivative_of_vector():
    f = monomial_element(1)  # mu^alpha itself
    df = mu_derivative(f)
    assert df.rank == 2
    assert df.coeffs[1] == ScalarExpr.monomial(1)
    assert df.coeffs[0].is_zero()


def test_mu_derivative_of_equilibrium_flux():
    H = ScalarExpr.monomial(1, gamma_pow=-4, sym=(0, 0))
    df = mu_derivative(vector_flux(H))
    assert df == flux_derivative(H)


def test_mu_derivative_zero():
    assert mu_derivative(FFamilyElement.zero(3)).is_zero()


def test_mu_derivative_requires_characteristic_shape():
    bad = FFamilyElement(2, (ScalarExpr.zero(), ScalarExpr.monomial(1, gamma_pow=1)))
    with pytest.raises(CharacteristicError):
        mu_derivative(bad)


def test_k_fold_derivative_leading_factor():
    # leading term of the k-fold mu-derivative reduces to a gamma^2
    # derivative of the starting leading coefficient
    for n in (1, 3, 5, 7, 9):
        for gamma_pow in (-6, -10, 4):
            lead = ScalarExpr.monomial(Fraction(7, 3), gamma_pow=gamma_pow)
            g = FFamilyElement.from_leading(n, lead)
            for k in range(1, 5):
                g = mu_derivative(g)
                half = k // 2
                factor = Fraction((-2) ** half * double_fact(n + 2 * half), double_fact(n))
                assert g.leading == d_gamma_sq(lead, half).scale(factor)
            g = FFamilyElement.from_leading(n, lead)


def test_trace_of_flux_derivative():
    # g_ab d(H mu^a)/d mu_b = 4 H + gamma dH/dgamma
    for gamma_pow in (-4, -6, 2):
        H = ScalarExpr.monomial(1, gamma_pow=gamma_pow, sym=(1, 0))
        t = trace(flux_derivative(H))
        assert t.rank == 0
        assert t.coeffs[0] == H.scale(4) + H.diff_gamma().scale(1, gamma_pow=1)


def test_trace_of_metric_square():
    y42 = FFamilyElement(4, (ScalarExpr.zero(), ScalarExpr.zero(), ScalarExpr.monomial(1)))
    t = trace(y42)
    assert t.coeffs[1] == ScalarExpr.monomial(2)
    assert t.coeffs[0].is_zero()


def test_trace_zero_and_rank_guard():
    assert trace(FFamilyElement.zero(4)).is_zero()
    with pytest.raises(ValueError):
        trace(monomial_element(1))


def test_lift_round_trips_through_trace():
    f = monomial_element(2, coeff=Fraction(3, 7), gamma_pow=-8, sym=(0, 1))
    lifted = lift(f, 1)
    assert lifted.rank == 4
    assert trace(lifted) == f
    deep = monomial_element(2, coeff=Fraction(3, 7), gamma_pow=-10, sym=(0, 1))
    lifted2 = lift(deep, 2)
    assert lifted2.rank == 6
    assert trace(trace(lifted2)) == deep
    # the shallower power sits inside the double-lift resonant band
    with pytest.raises(SingularRatioError):
        lift(f, 2)


def test_lift_leading_example():
    f = FFamilyElement.from_leading(1, ScalarExpr.symbol(0).scale(1, gamma_pow=-10))
    lifted = lift(f, 1)
    assert lifted.rank == 3
    assert lifted.leading == ScalarExpr.symbol(0).scale(Fraction(-3, 4), gamma_pow=-10)


def test_lift_resonant_band_raises():
    resonant = FFamilyElement.from_leading(1, ScalarExpr.symbol(0).scale(1, gamma_pow=-6))
    with pytest.raises(SingularRatioError):
        lift(resonant, 1)


def test_lift_zero_and_free_functions():
    assert lift(FFamilyElement.zero(2), 1).is_zero()
    f = monomial_element(2, gamma_pow=-8)
    # free functions depend on lambda only
    free = [ScalarExpr.symbol(2)]
    assert trace(lift(f, 1, free)) == f
    assert lift(f, 1, free) != lift(f, 1)
    with pytest.raises(ValueError):
        lift(f, 1, [ScalarExpr.monomial(1, gamma_pow=-2)])


def test_leading_after_traces_identity_and_null():
    f = monomial_element(4, coeff=Fraction(1, 2), gamma_pow=-8)
    assert leading_after_traces(f, 0) == f.leading
    # gamma^-6 leading (p = 0) dies after one trace: the eta factor
    # contains the zero even number
    null = monomial_element(4, gamma_pow=-6)
    assert leading_after_traces(null, 1).is_zero()


def test_leading_after_traces_agrees_with_iterated_trace():
    for n in range(2, 9):
        for p in (2, 5):
            f = monomial_element(n, coeff=Fraction(3, 5), gamma_pow=-2 * (3 + p), sym=(0, 1))
            t = f
            for r in range(1, 4):
                if t.rank < 2:
                    break
                t = trace(t)
                assert leading_after_traces(f, r) == t.leading


def test_basis_mu_contraction_identity_and_first_step():
    assert [c.terms for c in basis_mu_contraction(4, 0)] == [(), (), ((Fraction(1), 0, 0, None),)]
    assert [c.terms for c in basis_mu_contraction(2, 1)] == [((Fraction(1), 0, 0, None),)]
    assert [c.terms for c in basis_mu_contraction(2, 2)] == [((Fraction(-1), 2, 0, None),)]


def test_basis_mu_contraction_two_contractions_of_metric_square():
    # coefficients of (1/3)(2 mu mu - gamma^2 g)
    coeffs = basis_mu_contraction(4, 2)
    assert coeffs[0] == ScalarExpr.monomial(Fraction(2, 3))
    assert coeffs[1] == ScalarExpr.monomial(Fraction(-1, 3), gamma_pow=2)


def test_basis_mu_contraction_realizes_correctly(rng):
    for n in (2, 4, 6):
        for r in range(0, n + 1):
            mu = random_rational_timelike(rng)
            direct = gmu_basis(n, n // 2)
            for _ in range(r):
                direct = contract_mu(direct, mu)
            coeffs = basis_mu_contraction(n, r)
            built = None
            for s, c in enumerate(coeffs):
                val = c.evaluate(0, 1, 1, None)  # pure gamma powers
                term = gmu_basis(n - r, s, mu).scale(_eval_gamma(c, mu))
                built = term if built is None else _tensor_add(built, term)
            assert direct == built


def _eval_gamma(expr: ScalarExpr, mu: FourVector):
    total = Fraction(0)
    gsq = mu.gamma_sq()
    for coeff, gamma_pow, msq_pow, sym in expr.terms:
        assert sym is None and msq_pow == 0 and gamma_pow % 2 == 0
        total += Fraction(coeff) * gsq ** (gamma_pow // 2)
    return total


def _tensor_add(a, b):
    out = a
    for idx, v in b.items():
        out = out.with_entry(idx, out.get(idx) + v)
    return out


def test_realize_equilibrium_flux_derivative():
    H = ScalarExpr.monomial(1, gamma_pow=-4)
    t = realize(flux_derivative(H), 0, FourVector([1, 0, 0, 0]), 1)
    for i in range(4):
        for j in range(4):
            want = (3 if i == 0 else 1) if i == j else 0
            assert t.get((i, j)) == want


def test_realize_vector_and_zero():
    mu = FourVector([Fraction(5, 4), Fraction(3, 4), 0, 0])
    assert realize(monomial_element(1), 0, mu, 1) == gmu_basis(1, 0, mu)
    assert realize(FFamilyElement.zero(2), 0, mu, 1).max_abs() == 0


def _orders_to_the_cap(spec):
    return [(h, k) for h in range(RANK_CAP) for k in range(RANK_CAP)
            if spec.admits(h, k) and spec.rank(h, k) <= RANK_CAP]


@pytest.mark.parametrize("M, N", [(2, 1), (2, 3), (4, 3), (2, 5), (4, 5), (8, 1)])
def test_realize_tail_equals_contracting_the_realized_tensor(M, N):
    rng = random.Random(M * 10 + N)
    spec = ClosureSpec(M, N, registry=FunctionRegistry.polynomials(3))
    for i, (h, k) in enumerate(_orders_to_the_cap(spec)):
        elem = build_closure_tensor(spec, h, k)
        mu = random_rational_timelike(rng)
        if i % 2:  # every other order at gamma = 1/3, in the lowered variance
            mu = FourVector([c * Fraction(1, 3) / timelike_gamma(mu) for c in mu], "upper").lowered()
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = random_sym_tensor(elem.rank - 1, rng)
        got = realize_tail(elem, lam, mu, 1, spec.registry, p)
        assert got == contract_tail(realize(elem, lam, mu, 1, spec.registry), p), (h, k)
        assert all(type(v) is not float for _, v in got.items())


@pytest.mark.parametrize("M, N", [(2, 1), (2, 3), (4, 3), (2, 5)])
def test_realize_tail_at_float_states_within_rounding_of_the_realized_route(M, N):
    # the closed form rounds differently; 1e-13 of the largest component is ~500 ulps
    rng = random.Random(M * 10 + N)
    spec = ClosureSpec(M, N, registry=FunctionRegistry.polynomials(3))
    for h, k in _orders_to_the_cap(spec):
        elem = build_closure_tensor(spec, h, k)
        mu, lam = random_float_timelike(rng), rng.uniform(0.2, 1.0)
        p = random_sym_tensor(elem.rank - 1, rng, rational=False)
        got = realize_tail(elem, lam, mu, 1.0, spec.registry, p)
        want = contract_tail(realize(elem, lam, mu, 1.0, spec.registry), p)
        assert (got - want).max_abs() <= 1e-13 * want.max_abs(), (h, k)


def test_realize_tail_of_zero_inputs_and_zero_coefficients(registry, rng):
    mu = random_rational_timelike(rng)
    lead = ScalarExpr.monomial(Fraction(2, 3), gamma_pow=-8, sym=(0, 1))
    sparse = FFamilyElement(6, [ScalarExpr.zero(), lead, ScalarExpr.zero(), lead.scale(-1)])
    for elem in (sparse, FFamilyElement(5, [ScalarExpr.zero(), ScalarExpr.zero(), lead]),
                 FFamilyElement.zero(4), monomial_element(1, gamma_pow=-6)):
        for p in (random_sym_tensor(elem.rank - 1, rng), DenseSymTensor.zeros(elem.rank - 1)):
            got = realize_tail(elem, Fraction(1, 2), mu, 1, registry, p)
            assert got == contract_tail(realize(elem, Fraction(1, 2), mu, 1, registry), p)
            assert got.is_zero() == (p.is_zero() or elem.is_zero())
    with pytest.raises(ValueError):
        realize_tail(sparse, 0, mu, 1, registry, DenseSymTensor.zeros(6))


def test_element_arithmetic():
    f = monomial_element(3, coeff=Fraction(1, 3), gamma_pow=-8, sym=(1, 1))
    g = monomial_element(3, coeff=2, gamma_pow=-10)
    both = f + g
    assert both - g == f
    assert f.scale(Fraction(3)).coeffs[1] == f.coeffs[1].scale(3)
    assert f.diff_lambda().leading == f.leading.diff_lambda()


def test_rank_parity_of_coefficient_slots():
    f = monomial_element(6, gamma_pow=-10)
    assert len(f.coeffs) == 4
    g = monomial_element(5, gamma_pow=-10)
    assert len(g.coeffs) == 3
