from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from etclosure.scalar import FunctionRegistry, PolynomialFunction, ScalarExpr, SingularRatioError
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


def residuals_term_by_term(f: FFamilyElement):
    """(ok, residuals) built from diff_gamma, two scales and a merge, as the check once did."""
    n = f.rank
    residuals = [f.coeffs[s].diff_gamma().scale(2 * s, gamma_pow=-1)
                 + f.coeffs[s - 1].scale((n - 2 * s + 2) * (n - 2 * s + 1))
                 for s in range(1, n // 2 + 1)]
    return all(r.is_zero() for r in residuals), residuals


_TERMS = st.lists(st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    st.integers(-14, 4),  # gamma power
    st.integers(0, 3),  # (-m^2) power
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 2))),
), max_size=4)
CORRUPTIONS = ("intact", "scale", "drop", "new_key", "msq_pow", "gamma_pow_0")


@st.composite
def descent_elements(draw):
    """An element from_leading, intact or corrupted in one coefficient, and how."""
    f = FFamilyElement.from_leading(draw(st.integers(0, 10)), ScalarExpr(draw(_TERMS)))
    how = draw(st.sampled_from(CORRUPTIONS))
    coeffs = list(f.coeffs)
    s = draw(st.integers(0, len(coeffs) - 1))
    terms = list(coeffs[s].terms)
    if how == "scale":
        coeffs[s] = coeffs[s].scale(draw(st.sampled_from((2, -1, Fraction(1, 3)))))
    elif how == "drop" and terms:
        del terms[draw(st.integers(0, len(terms) - 1))]
        coeffs[s] = ScalarExpr(terms)
    elif how == "new_key":
        keys = {t[1:] for t in terms}
        term = draw(_TERMS.filter(bool))[0]
        if term[1:] not in keys:
            coeffs[s] = ScalarExpr(terms + [term])
    elif how == "msq_pow" and terms:
        i = draw(st.integers(0, len(terms) - 1))
        c, g, mp, sym = terms[i]
        terms[i] = (c, g, mp + draw(st.sampled_from((-1, 1))), sym)
        coeffs[s] = ScalarExpr(terms)
    elif how == "gamma_pow_0":
        # a gamma-free term of the leading coefficient has no d/d gamma
        s = len(coeffs) - 1
        coeffs[s] = coeffs[s] + ScalarExpr.monomial(draw(st.sampled_from((1, Fraction(-2, 3)))),
                                                    sym=draw(st.sampled_from((None, (1, 0)))))
    return FFamilyElement(f.rank, coeffs), how


@given(case=descent_elements())
@settings(max_examples=400, deadline=None)
def test_characteristic_matches_the_term_by_term_residuals(case):
    f, how = case
    ok, residuals = check_characteristic(f)
    assert (ok, residuals) == residuals_term_by_term(f)
    if how in ("intact", "gamma_pow_0"):
        assert ok


def test_characteristic_builds_no_residual_where_the_relation_holds(monkeypatch):
    elements = [build_closure_tensor(ClosureSpec(2, 3, registry=FunctionRegistry.polynomials(3)), 2, 2),
                monomial_element(9, Fraction(-5, 3), gamma_pow=-16, sym=(2, 1)),
                # the gamma-free c_1 in the leading coefficient takes no part in the descent
                FFamilyElement.from_leading(8, ScalarExpr.monomial(3, gamma_pow=-12) + ScalarExpr.symbol(1))]
    monkeypatch.setattr(ScalarExpr, "diff_gamma", None)  # any residual built would raise
    for f in elements:
        assert check_characteristic(f) == (True, [ScalarExpr.zero()] * (f.rank // 2))


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


def test_exact_realize_reads_each_symbol_once(monkeypatch):
    registry = FunctionRegistry.polynomials(3)
    elem = build_closure_tensor(ClosureSpec(2, 3, registry=registry), 2, 2)
    symbols = {t[3] for phi in elem.coeffs for t in phi.terms}
    calls = []
    read = FunctionRegistry.derivative_value
    monkeypatch.setattr(FunctionRegistry, "derivative_value",
                        lambda self, q, order, lam: calls.append((q, order)) or read(self, q, order, lam))
    mu = FourVector([Fraction(5, 2), Fraction(3, 2), 0, 0])
    realize(elem, Fraction(1, 3), mu, 1, registry)
    assert len(elem.coeffs) > 1 and sorted(calls) == sorted(symbols)


# sha256 of the JSON of the realized top tensor of each (M, N, h_max, k_max) of the
# exact-closure benchmark at one rational state, taken before exact realization
# ran on dense integer rows: every value and type must stay as it was
REALIZE_SHA256 = {
    (2, 1, 7, 0): "90e2170575d08d64100835b392e08089766b4b86ca77eeee2435a000ec5c05f2",
    (4, 1, 3, 0): "085b02dd9c1d19c582e4bdee73a4efb059805491c94a4a1f5169405e1227d537",
    (6, 1, 2, 0): "1bdd57c102e90a8a77df43083e5350fa5558ac195d3e9b3eafe295f1edb58550",
    (2, 3, 3, 3): "165e6f28934a82c42e65499512f0db37413da1d14845e5fd20271432d534c931",
    (4, 3, 3, 1): "a01b892664fd5430a74294ab77f64aaf2c43c28d2ff6b07b993018694fd0c6c2",
    (2, 5, 5, 1): "63c3c74a82ea557f0aa85e71dac3306138dc63983cf3356262c0104acd5c6e81",
}


@pytest.mark.parametrize("M, N, h, k", REALIZE_SHA256)
def test_exact_realize_of_the_top_tensors_is_pinned(M, N, h, k):
    # degree-9 c_q, so that D^7 c_q is not zero
    registry = FunctionRegistry({q: PolynomialFunction([Fraction((-1) ** j * (j + q + 1), j + 2)
                                                        for j in range(10)]) for q in range(8)})
    gamma, cosh, sinh = Fraction(7, 2), Fraction(5, 3), Fraction(4, 3)
    mu = FourVector((gamma * cosh,) + tuple(gamma * sinh * Fraction(c, 9) for c in (-4, 1, 8)))
    spec = ClosureSpec(M, N, h_max=h, k_max=k, registry=registry, m=1)
    t = realize(build_closure_tensor(spec, h, k), Fraction(-3, 4), mu, 1, registry)
    assert t.rank == spec.rank(h, k)
    text = json.dumps(t.to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REALIZE_SHA256[(M, N, h, k)]


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
