from __future__ import annotations

import math
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
    power,
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


def test_registry_functions():
    reg = FunctionRegistry({0: PolynomialFunction([1, 2, 3])})
    assert reg.has(0) and not reg.has(5)
    assert reg.derivative_value(0, 0, Fraction(1)) == 6
    assert reg.derivative_value(0, 1, Fraction(1)) == 8
    assert reg.derivative_value(0, 4, Fraction(1)) == 0


def uncached_derivative_value(coeffs, order, lam):
    """The per-call formula: scale each coefficient by perm(k, order) at every call."""
    exact = isinstance(lam, (int, Fraction))
    acc = Fraction(0) if exact else 0 * lam
    for k in range(order, len(coeffs)):
        c = coeffs[k] * math.perm(k, order)
        acc = acc + (c if exact else float(c)) * power(lam, k - order)
    return acc


@pytest.mark.parametrize("seed", range(4))
def test_derivative_value_matches_the_uncached_formula_bit_for_bit(seed):
    rng = random.Random(seed)
    fn = PolynomialFunction([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)])
    points = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)), 3, rng.uniform(-2.0, 2.0)]
    batch = np.array([rng.uniform(-2.0, 2.0) for _ in range(9)])
    for _ in range(2):  # the second pass reads the cached coefficients
        for order in range(10):
            for lam in points:
                got = fn.derivative_value(order, lam)
                want = uncached_derivative_value(fn.coeffs, order, lam)
                assert type(got) is type(want) and got == want, (order, lam)
            got = fn.derivative_value(order, batch)
            want = uncached_derivative_value(fn.coeffs, order, batch)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), order


shifts = st.integers(min_value=-4, max_value=4)
nonzero_factors = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


def reference_canonical(raw):
    """The Fraction loop: equal (gamma_pow, msq_pow, sym) summed, zeros dropped, sorted."""
    merged = {}
    for c, g, mp, s in raw:
        merged[(g, mp, s)] = merged.get((g, mp, s), 0) + Fraction(c)
    kept = [(c, g, mp, s) for (g, mp, s), c in merged.items() if c != 0]
    kept.sort(key=lambda t: (t[3] is not None, t[3] or (0, 0), t[1], t[2]))
    return tuple(kept)


def assert_canonical_storage(expr):
    # integer numerators over one positive denominator, reduced, one per key, keys sorted
    den, nums, keys = expr._den, expr._nums, expr._keys
    assert type(den) is int and den > 0 and math.gcd(den, *nums) == 1
    assert all(type(n) is int and n != 0 for n in nums)
    assert len(nums) == len(keys) and list(keys) == sorted(set(keys))


@given(terms=raw_terms, other=raw_terms, f=nonzero_factors, gp=shifts, mp=shifts)
@settings(max_examples=200, deadline=None)
def test_ops_that_skip_the_constructor_return_canonical_terms(terms, other, f, gp, mp):
    # every op runs on the integer storage and reduces once: its storage must be
    # canonical, and its terms must be what the Fraction loop makes of its raw,
    # unmerged terms
    x, y = ScalarExpr(terms), ScalarExpr(other)
    ops = [
        (x, terms),
        (-x, [(-c, g, mp_, s) for c, g, mp_, s in x.terms]),
        (x.scale(f, gp, mp), [(c * f, g + gp, mp_ + mp, s) for c, g, mp_, s in x.terms]),
        (x.scale(1, gp, mp), [(c, g + gp, mp_ + mp, s) for c, g, mp_, s in x.terms]),
        (x.scale(-1), [(-c, g, mp_, s) for c, g, mp_, s in x.terms]),
        (x.scale(f.numerator, gp, divisor=-f.denominator),
         [(-c * f, g + gp, mp_, s) for c, g, mp_, s in x.terms]),
        (x.diff_gamma(), [(c * g, g - 1, mp_, s) for c, g, mp_, s in x.terms]),
        (x.diff_gamma_sq(), [(c * Fraction(g, 2), g - 2, mp_, s) for c, g, mp_, s in x.terms]),
        (x.diff_lambda(), [(c, g, mp_, (s[0], s[1] + 1)) for c, g, mp_, s in x.terms if s]),
        (x + y, x.terms + y.terms),
        (x - y, x.terms + (-y).terms),
        (y + x, y.terms + x.terms),
        (x - x, ()),
    ]
    for result, raw in ops:
        assert_canonical_storage(result)
        assert result.terms == reference_canonical(raw)
        assert result.terms == ScalarExpr(result.terms).terms
        copy = ScalarExpr(result.terms)
        assert copy == result and hash(copy) == hash(result)
    results = [result for result, _ in ops]
    for a in results:
        for b in results:
            assert (a == b) == (a.terms == b.terms)
            if a == b:
                assert hash(a) == hash(b)
    assert x.scale(0, gp, mp).is_zero()


class FloatFunction:
    """A registry function that returns floats even at an exact lambda."""

    def __init__(self, fn):
        self.fn = fn

    def derivative_value(self, order, lam):
        return float(self.fn.derivative_value(order, lam))


def reference_evaluate(expr, lam, gamma, m, registry):
    """The loop over the terms, coefficient by coefficient (the Fraction loop at Fraction inputs)."""
    exact = isinstance(gamma, (int, Fraction))
    msq = -(m * m)
    total = None
    for c, g, mp, s in expr.terms:
        val = (c if exact else float(c)) * power(gamma, g) * msq**mp
        if s is not None:
            val = val * registry.derivative_value(s[0], s[1], lam)
        total = val if total is None else total + val
    return 0 * gamma if total is None else total


EVAL_REGISTRY = FunctionRegistry.polynomials(11)
FLOAT_REGISTRY = FunctionRegistry({q: FloatFunction(EVAL_REGISTRY._functions[q]) for q in range(8)})

eval_terms = st.lists(
    st.tuples(
        st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-3, max_value=3),
        st.one_of(
            st.none(),
            st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=6)),
        ),
    ),
    min_size=0,
    max_size=8,
)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)
positive_rationals = st.one_of(
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=12).filter(lambda x: x > 0),
)
nonzero_masses = st.one_of(st.integers(min_value=1, max_value=3),
                           st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=8))


def same(got, want):
    """Equal values of one type; floats and float64 arrays bit for bit."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return type(got) is type(want) and got == want


@given(terms=eval_terms, lam=rationals, gamma=positive_rationals, m=nonzero_masses)
@settings(max_examples=200, deadline=None)
def test_exact_evaluate_matches_the_fraction_loop(terms, lam, gamma, m):
    expr = ScalarExpr(terms)
    exact = expr.evaluate(lam, gamma, m, EVAL_REGISTRY)
    if expr.terms:
        # an int gamma or m goes in as its Fraction: in the loop, an int to a
        # negative power is a float
        assert same(exact, reference_evaluate(expr, lam, Fraction(gamma), Fraction(m), EVAL_REGISTRY))
    else:
        assert same(exact, 0 * gamma)  # zero in the caller's numeric type
    # floats, and float64 arrays of gamma or lambda, stay on the float(c) path
    fl, fg, fm = float(lam), float(gamma), float(m)
    for args in ((fl, fg, fm), (fl, np.array([fg, fg + 0.25]), fm), (np.array([fl, fl - 0.5]), fg, fm)):
        assert same(expr.evaluate(*args, EVAL_REGISTRY), reference_evaluate(expr, *args, EVAL_REGISTRY))
    # mixed inputs keep the loop's result type: an exact gamma with a float
    # lambda or a float mass, and a registry that returns floats
    gamma, m = Fraction(gamma), Fraction(m)
    for args, registry in (((fl, gamma, m), EVAL_REGISTRY), ((lam, gamma, fm), EVAL_REGISTRY),
                           ((lam, gamma, m), FLOAT_REGISTRY)):
        assert same(expr.evaluate(*args, registry), reference_evaluate(expr, *args, registry))


def test_exact_evaluate_at_zero_mass():
    expr = ScalarExpr([(Fraction(2, 3), -2, 0, (1, 1)), (Fraction(5, 4), 3, 1, None)])
    got = expr.evaluate(Fraction(1, 2), Fraction(3, 2), 0, EVAL_REGISTRY)
    assert same(got, reference_evaluate(expr, Fraction(1, 2), Fraction(3, 2), 0, EVAL_REGISTRY))
    singular = ScalarExpr.monomial(1, msq_pow=-1)
    with pytest.raises(ZeroDivisionError):
        singular.evaluate(0, 1, 0, None)
