from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from etclosure.closure import ClosureSpec, build_closure_tensor
from etclosure.family import FFamilyElement, mu_derivative, realize
from etclosure.oracle import (
    brute_mu_contract,
    brute_realize_basis,
    brute_symmetrize,
    brute_trace,
    chain_mu_derivative,
    fd_mu_derivative,
    random_family_element,
    random_float_timelike,
    random_rational_timelike,
    random_sym_tensor,
)
from etclosure.scalar import FunctionRegistry, PolynomialFunction, ScalarExpr
from etclosure.tensors import (
    DenseSymTensor,
    FourVector,
    canonical_indices,
    contract_mu,
    gmu_basis,
    symmetrize,
    trace_pair,
)


def rel_diff(a: DenseSymTensor, b: DenseSymTensor) -> float:
    scale = max(float(b.max_abs()), 1e-10)
    worst = 0.0
    for idx, v in a.items():
        worst = max(worst, abs(float(v) - float(b.get(idx))) / scale)
    return worst


def test_brute_symmetrize_agrees_with_fast_path(rng):
    import itertools

    for _ in range(10):
        rank = rng.randint(0, 4)
        t = random_sym_tensor(rank, rng)
        raw = {idx: t.get(idx) + (rng.randint(-2, 2) if idx != tuple(sorted(idx)) else 0)
               for idx in itertools.product(range(4), repeat=rank)}
        assert brute_symmetrize(raw, rank) == symmetrize(raw, rank)


def test_brute_symmetrize_fixed_point_and_rank0(rng):
    t = random_sym_tensor(3, rng)
    import itertools

    raw = {idx: t.get(idx) for idx in itertools.product(range(4), repeat=3)}
    assert brute_symmetrize(raw, 3) == t
    s = DenseSymTensor.scalar(Fraction(5, 3))
    assert brute_symmetrize({(): Fraction(5, 3)}, 0) == s


def test_brute_trace_agrees(rng):
    for rank in range(2, 9):
        t = random_sym_tensor(rank, rng)
        assert brute_trace(t) == trace_pair(t)


def test_brute_mu_contract_agrees(rng):
    for rank in range(1, 9):
        t = random_sym_tensor(rank, rng)
        mu = random_rational_timelike(rng)
        assert brute_mu_contract(t, mu) == contract_mu(t, mu)


def test_brute_realize_basis_agrees(rng):
    for n in range(0, 9):
        for s in range(0, n // 2 + 1):
            mu = random_rational_timelike(rng)
            assert brute_realize_basis(n, s, mu) == gmu_basis(n, s, mu)


# literal Fraction references for the integer brute forces: every value is
# converted to a Fraction first and every sum runs over Fractions

G = ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def fraction_symmetrize(raw, rank):
    """Average over all rank! slot permutations."""
    vals = {}
    for idx in canonical_indices(rank):
        total = Fraction(0)
        for perm in itertools.permutations(idx):
            total += Fraction(raw.get(perm, 0))
        vals[idx] = total / math.factorial(rank)
    return DenseSymTensor(rank, vals)


def fraction_realize_basis(n, s, mu_up):
    """The product g x ... x g x mu x ... x mu at all 4^n tuples, averaged over the orderings of each key."""
    totals, orderings = {}, {}
    for idx in itertools.product(range(4), repeat=n):
        term = Fraction(1)
        for j in range(s):
            term *= G[idx[2 * j]][idx[2 * j + 1]]
        for j in range(2 * s, n):
            term *= Fraction(mu_up[idx[j]])
        key = tuple(sorted(idx))
        totals[key] = totals.get(key, Fraction(0)) + term
        orderings[key] = orderings.get(key, 0) + 1
    return DenseSymTensor(n, {key: totals[key] / orderings[key] for key in totals})


def fraction_trace(t):
    """The metric sum over all 16 pairs of the last two slots."""
    vals = {}
    for idx in canonical_indices(t.rank - 2):
        total = Fraction(0)
        for a in range(4):
            for b in range(4):
                total += G[a][b] * Fraction(t.get(idx + (a, b)))
        vals[idx] = total
    return DenseSymTensor(t.rank - 2, vals)


def exact_components(t):
    return all(type(v) in (int, Fraction) for _, v in t.items())


def int_tensor(rank, rng):
    return DenseSymTensor(rank, {idx: rng.randint(-9, 9) for idx in canonical_indices(rank)})


def mixed_tensor(rank, rng):
    return DenseSymTensor(rank, {idx: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(2, 9))))
                                 for idx in canonical_indices(rank)})


def test_integer_brute_symmetrize_matches_the_fraction_permutation_average(rng):
    draws = {
        "int": lambda: rng.randint(-9, 9),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "mixed": lambda: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(2, 9)))),
    }
    for kind, draw in draws.items():
        for rank in range(0, 5):
            raw = {idx: draw() for idx in itertools.product(range(4), repeat=rank) if rng.random() < 0.8}
            got = brute_symmetrize(raw, rank)
            assert got == fraction_symmetrize(raw, rank) and exact_components(got), (kind, rank)


def test_integer_brute_realize_basis_matches_the_full_tuple_loop(rng):
    mus = {
        "int": FourVector((3, 1, 0, -2)),
        "int lower": FourVector((-4, 0, 2, 1), "lower"),
        "fraction": random_rational_timelike(rng),
        "mixed": FourVector((Fraction(5, 2), 1, Fraction(-1, 3), 0)),
    }
    for kind, mu in mus.items():
        mu_up = mu.raised().components
        for n in range(0, 6):
            for s in range(0, n // 2 + 1):
                got = brute_realize_basis(n, s, mu)
                assert got == fraction_realize_basis(n, s, mu_up) and exact_components(got), (kind, n, s)
    for n in (0, 2, 4):
        # pure metric, no mu
        got = brute_realize_basis(n, n // 2)
        assert got == fraction_realize_basis(n, n // 2, (0, 0, 0, 0)) and exact_components(got), n


def test_integer_brute_trace_matches_the_sixteen_pair_sum(rng):
    inputs = [("int", gmu_basis(2, 1))] + [("mixed", gmu_basis(n, n // 2)) for n in (4, 6)]
    for rank in range(2, 7):
        inputs += [("int", int_tensor(rank, rng)), ("fraction", random_sym_tensor(rank, rng)),
                   ("mixed", mixed_tensor(rank, rng))]
    for kind, t in inputs:
        got = brute_trace(t)
        assert got == fraction_trace(t) and exact_components(got), (kind, t.rank)


def test_integer_brute_mu_contract_stays_exact(rng):
    mu = FourVector((Fraction(5, 2), 1, Fraction(-1, 3), 0))
    for rank in range(1, 6):
        for t in (int_tensor(rank, rng), random_sym_tensor(rank, rng), mixed_tensor(rank, rng)):
            got = brute_mu_contract(t, mu)
            assert got == contract_mu(t, mu) and exact_components(got), rank


def test_prop8_contraction_table(rng):
    # r-fold mu-contraction of the pure-metric basis element against the
    # coefficient table, brute force end to end
    from etclosure.family import basis_mu_contraction

    for n in (2, 4, 6):
        mu = random_rational_timelike(rng)
        gsq = mu.gamma_sq()
        for r in range(0, n + 1):
            direct = brute_realize_basis(n, n // 2, mu)
            for _ in range(r):
                direct = brute_mu_contract(direct, mu)
            total = DenseSymTensor.zeros(n - r)
            for s, coeff in enumerate(basis_mu_contraction(n, r)):
                weight = Fraction(0)
                for c, gamma_pow, msq_pow, sym in coeff.terms:
                    assert sym is None and msq_pow == 0 and gamma_pow % 2 == 0
                    weight += Fraction(c) * gsq ** (gamma_pow // 2)
                if weight:
                    term = brute_realize_basis(n - r, s, mu).scale(weight)
                    for idx, v in term.items():
                        total = total.with_entry(idx, total.get(idx) + v)
            assert direct == total


def test_single_contraction_identity_componentwise(rng):
    for n in (4, 6):
        mu = random_rational_timelike(rng)
        got = brute_mu_contract(brute_realize_basis(n, n // 2, mu), mu)
        assert got == brute_realize_basis(n - 1, n // 2 - 1, mu)


def test_fd_derivative_of_linear_element(rng):
    mu = random_float_timelike(rng)
    f = FFamilyElement(1, (ScalarExpr.monomial(1),))
    fd = fd_mu_derivative(f, 0.5, mu)
    exact = realize(mu_derivative(f), 0.5, mu, 1)
    assert rel_diff(fd, exact) <= 1e-10


def test_fd_derivative_of_flux_derivative_element():
    H = ScalarExpr.monomial(1, gamma_pow=-4)
    f = FFamilyElement(1, (H,))
    mu = FourVector([1.3, 0.2, -0.4, 0.1])
    fd = fd_mu_derivative(f, 0.0, mu)
    exact = realize(mu_derivative(f), 0.0, mu, 1)
    assert rel_diff(fd, exact) <= 1e-6


def test_fd_derivative_of_closure_tensor():
    reg = FunctionRegistry({q: PolynomialFunction([Fraction(1), Fraction(2), Fraction(1, 3)]) for q in range(4)})
    spec = ClosureSpec(2, 1, h_max=1, k_max=0, registry=reg)
    c10 = build_closure_tensor(spec, 1, 0)
    mu = FourVector([1.4, 0.3, 0.2, -0.1])
    fd = fd_mu_derivative(c10, 0.7, mu, registry=reg)
    exact = realize(mu_derivative(c10), 0.7, mu, 1, reg)
    assert rel_diff(fd, exact) <= 1e-6


@pytest.mark.parametrize("M, N, h, k", [(2, 1, 1, 0), (2, 1, 2, 0), (2, 3, 0, 1), (2, 3, 1, 1), (4, 3, 1, 0)])
def test_chain_rule_derivative_matches_coefficient_space_and_fd(rng, M, N, h, k):
    reg = FunctionRegistry({q: PolynomialFunction([Fraction(1), Fraction(2), Fraction(1, 3)]) for q in range(4)})
    elem = build_closure_tensor(ClosureSpec(M, N, registry=reg), h, k)
    mu = random_rational_timelike(rng)
    lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    assert chain_mu_derivative(elem, lam, mu, 1, reg) == realize(mu_derivative(elem), lam, mu, 1, reg)
    mu = FourVector([1.4, 0.3, 0.2, -0.1])
    chain = chain_mu_derivative(elem, 0.7, mu, 1, reg)
    assert rel_diff(fd_mu_derivative(elem, 0.7, mu, 1, reg), chain) <= 1e-6


def test_oracle_config_guards():
    with pytest.raises(ValueError):
        brute_trace(DenseSymTensor.zeros(9))


def test_random_rational_timelike_properties(rng):
    for _ in range(20):
        mu = random_rational_timelike(rng)
        assert mu.is_timelike_future()
        gsq = Fraction(mu.gamma_sq())
        num, den = gsq.numerator, gsq.denominator
        assert math.isqrt(num) ** 2 == num
        assert math.isqrt(den) ** 2 == den


def test_random_family_element_is_never_zero():
    # a zero element would pass any comparison it is put through
    for seed in range(300):
        rng = random.Random(seed)
        for rank in range(1, 17):
            elem = random_family_element(rank, rng)
            lead = elem.leading.terms
            assert len({gpow for _, gpow, _, _ in lead}) == 2 and all(sym for *_, sym in lead)
            assert elem.rank == rank and not elem.coeffs[0].is_zero(), (seed, rank)


def test_random_float_timelike_properties(rng):
    for _ in range(20):
        mu = random_float_timelike(rng)
        assert mu.is_timelike_future()
        assert all(isinstance(c, float) for c in mu.components)


def test_random_sym_tensor_modes(rng):
    t = random_sym_tensor(3, rng)
    assert t.rank == 3
    assert all(isinstance(v, (int, Fraction)) for _, v in t.items())
    tf = random_sym_tensor(2, rng, rational=False)
    assert any(isinstance(v, float) for _, v in tf.items())

