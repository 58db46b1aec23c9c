from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etclosure.scalar import (
    FunctionRegistry,
    MissingFunctionError,
    PolynomialFunction,
    ScalarExpr,
    SingularRatioError,
    double_factorial,
    double_factorial_ratio,
    eta,
)


def test_double_factorial_values():
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    assert double_factorial(0) == 1
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1


@pytest.mark.parametrize("n", [-2, -3, -6])
def test_double_factorial_rejects_deep_negatives(n):
    with pytest.raises(ValueError):
        double_factorial(n)


def test_double_factorial_ratio_values():
    assert double_factorial_ratio(6, 2) == 24
    assert double_factorial_ratio(-6, -4) == Fraction(-1, 4)
    assert double_factorial_ratio(0, 0) == 1
    assert double_factorial_ratio(2, 8) == Fraction(1, 192)
    assert double_factorial_ratio(5, 1) == 15


def test_double_factorial_ratio_matches_plain_quotient():
    for a in range(-1, 10):
        for b in range(-1, 10):
            if (a - b) % 2:
                continue
            assert double_factorial_ratio(a, b) == Fraction(double_factorial(a), double_factorial(b))


@pytest.mark.parametrize("a,b", [(2, -2), (-4, 2), (0, -2), (-2, 4)])
def test_double_factorial_ratio_zero_factor_is_singular(a, b):
    # a gap containing the factor 0 has no defined telescoping value
    with pytest.raises(SingularRatioError):
        double_factorial_ratio(a, b)


def test_double_factorial_ratio_parity_mismatch():
    with pytest.raises(ValueError):
        double_factorial_ratio(3, 2)


@given(
    a=st.integers(min_value=-10, max_value=10),
    b=st.integers(min_value=-10, max_value=10),
    c=st.integers(min_value=-10, max_value=10),
)
def test_double_factorial_ratio_composes(a, b, c):
    a, b, c = 2 * a, 2 * b, 2 * c
    try:
        ab = double_factorial_ratio(a, b)
        bc = double_factorial_ratio(b, c)
        ac = double_factorial_ratio(a, c)
    except SingularRatioError:
        return
    assert ab * bc == ac


def test_eta_values():
    assert eta(2, 6) == 48
    assert eta(8, 6) == 1
    assert eta(0, 4) == 0
    assert eta(-4, -2) == 8
    assert eta(3, 3) == 1


def test_eta_zero_exactly_when_zero_in_range():
    for a in range(-8, 9):
        for b in range(-8, 9):
            if a <= 0 <= b:
                assert eta(a, b) == 0
            else:
                assert eta(a, b) != 0


def test_eta_recurrence_peels_top_even_factor():
    for a in range(-6, 7):
        for b in range(-6, 7, 2):
            if b >= a:
                assert eta(a, b) == eta(a, b - 2) * b


def test_eval_symbolic_term(registry):
    # 3 * gamma^-6 * (-m^2) * d c0/d lambda with c0(lam) = lam gives -3
    reg = FunctionRegistry({0: PolynomialFunction([0, 1])})
    expr = ScalarExpr.monomial(3, gamma_pow=-6, msq_pow=1, sym=(0, 1))
    assert expr.evaluate(0, 1, 1, reg) == -3


def test_eval_empty_is_zero():
    assert ScalarExpr.zero().evaluate(2.0, 3.0, 1.0, None) == 0
    assert ScalarExpr.zero().is_zero()


def test_eval_gamma_power():
    expr = ScalarExpr.monomial(1, gamma_pow=-2)
    assert expr.evaluate(0, 2, 1, None) == Fraction(1, 4)


def test_batched_evaluation_matches_points_bit_for_bit(registry):
    # numpy's vectorised ** rounds some of these powers differently from
    # Python's pow; a batch of points must give what each point gives alone
    rng = random.Random(4)
    gammas = np.array([rng.uniform(0.3, 3.0) for _ in range(200)])
    lams = np.array([rng.uniform(-1.0, 1.0) for _ in range(200)])
    expr = ScalarExpr(
        [
            (Fraction(3, 7), -7, 1, (0, 2)),
            (Fraction(-5, 3), 3, 0, None),
            (Fraction(1, 9), -4, -1, (3, 0)),
        ]
    )
    by_gamma = expr.evaluate(0.4, gammas, 1.0, registry)
    by_lam = expr.evaluate(lams, 1.7, 1.0, registry)
    assert by_gamma.dtype == by_lam.dtype == np.float64
    assert by_gamma.tolist() == [expr.evaluate(0.4, g, 1.0, registry) for g in gammas.tolist()]
    assert by_lam.tolist() == [expr.evaluate(x, 1.7, 1.0, registry) for x in lams.tolist()]
    with pytest.raises(ValueError):
        expr.evaluate(0.4, np.array([1.0, -1.0]), 1.0, registry)


def test_eval_requires_registry_entry():
    expr = ScalarExpr.symbol(3)
    with pytest.raises(MissingFunctionError):
        expr.evaluate(1.0, 1.0, 1.0, FunctionRegistry({0: PolynomialFunction([1])}))
    with pytest.raises(MissingFunctionError):
        expr.evaluate(1.0, 1.0, 1.0, None)


def test_terms_merge_and_drop_zero():
    a = ScalarExpr.monomial(Fraction(1, 2), gamma_pow=-2)
    b = ScalarExpr.monomial(Fraction(3, 2), gamma_pow=-2)
    assert (a + b).terms == ((Fraction(2), -2, 0, None),)
    assert (a - a).is_zero()
    assert (a - a).terms == ()


raw_terms = st.lists(
    st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.one_of(
            st.none(),
            st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2)),
        ),
    ),
    min_size=0,
    max_size=8,
)


@given(terms=raw_terms, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=150, deadline=None)
def test_canonical_form_is_order_independent(terms, seed):
    shuffled = list(terms)
    random.Random(seed).shuffle(shuffled)
    assert ScalarExpr(terms) == ScalarExpr(shuffled)


@given(terms=raw_terms)
@settings(max_examples=150, deadline=None)
def test_add_then_subtract_restores_canonical_form(terms):
    base = ScalarExpr(terms)
    bump = ScalarExpr.monomial(Fraction(5, 7), gamma_pow=-1, msq_pow=1, sym=(2, 1))
    assert base + bump != base or bump.is_zero()
    assert (base + bump) - bump == base


def test_equality_agrees_with_exact_evaluation(registry):
    # canonical equality <=> agreement of exact evaluations once the
    # symbols are instantiated as polynomials
    rng = random.Random(7)
    states = [(Fraction(k, 3), Fraction(k + 2, 2)) for k in range(1, 6)]
    m = Fraction(3, 2)
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 6)):
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            if coeff == 0:
                coeff = Fraction(1)
            sym = None if rng.random() < 0.4 else (rng.randint(0, 3), rng.randint(0, 2))
            terms.append((coeff, rng.randint(-5, 5), rng.randint(0, 2), sym))
        e1 = ScalarExpr(terms)
        e2 = ScalarExpr(tuple(rng.sample(terms, len(terms))))
        assert e1 == e2
        vals = [e1.evaluate(lam, g, m, registry) for lam, g in states]
        assert vals == [e2.evaluate(lam, g, m, registry) for lam, g in states]
        e3 = e1 + ScalarExpr.monomial(Fraction(1, 7), gamma_pow=-2)
        assert e3 != e1
        assert any(
            e3.evaluate(lam, g, m, registry) != v for (lam, g), v in zip(states, vals)
        )


def test_diff_lambda_bumps_symbol_order():
    expr = ScalarExpr.monomial(2, gamma_pow=-4, sym=(1, 0))
    assert expr.diff_lambda().terms == ((Fraction(2), -4, 0, (1, 1)),)
    # constants vanish
    assert ScalarExpr.monomial(5, gamma_pow=3).diff_lambda().is_zero()


def test_diff_gamma_and_antiderivative_round_trip():
    expr = ScalarExpr.monomial(Fraction(7, 3), gamma_pow=-5, msq_pow=2, sym=(0, 1))
    assert expr.diff_gamma().terms == ((Fraction(-35, 3), -6, 2, (0, 1)),)


def test_diff_gamma_sq_halves_the_power_rule():
    expr = ScalarExpr.monomial(3, gamma_pow=-4)
    assert expr.diff_gamma_sq().terms == ((Fraction(-6), -6, 0, None),)


def test_json_round_trip():
    expr = ScalarExpr.monomial(Fraction(-3, 4), gamma_pow=-6, msq_pow=1, sym=(0, 2)) + ScalarExpr.monomial(2)
    again = ScalarExpr.from_json_obj(expr.to_json_obj())
    assert again == expr
    obj = expr.to_json_obj()
    assert {"coeff", "gamma_pow", "msq_pow", "sym"} <= set(obj[0])


def test_registry_functions():
    reg = FunctionRegistry({0: PolynomialFunction([1, 2, 3])})
    assert reg.has(0) and not reg.has(5)
    assert reg.derivative_value(0, 0, Fraction(1)) == 6
    assert reg.derivative_value(0, 1, Fraction(1)) == 8
    assert reg.derivative_value(0, 4, Fraction(1)) == 0
