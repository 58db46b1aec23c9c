from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import pytest

from etclosure.closure import ClosureSpec, build_closure_tensor
from etclosure.family import FFamilyElement, mu_derivative, realize
from etclosure.oracle import (
    OracleConfig,
    brute_mu_contract,
    brute_realize_basis,
    brute_symmetrize,
    brute_trace,
    chain_mu_derivative,
    fd_mu_derivative,
    random_float_timelike,
    random_rational_timelike,
    random_sym_tensor,
    write_failure_artifact,
)
from etclosure.scalar import FunctionRegistry, PolynomialFunction, ScalarExpr
from etclosure.tensors import (
    DenseSymTensor,
    FourVector,
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
        OracleConfig(max_rank=9)
    cfg = OracleConfig()
    with pytest.raises(ValueError):
        brute_trace(DenseSymTensor.zeros(7), cfg)
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


def test_write_failure_artifact(tmp_path):
    path = write_failure_artifact("unit", {"seed": 42, "detail": "x"}, str(tmp_path))
    assert os.path.dirname(path) == str(tmp_path)
    assert "unit" in os.path.basename(path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload == {"seed": 42, "detail": "x"}
