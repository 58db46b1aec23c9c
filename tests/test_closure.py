from __future__ import annotations

from fractions import Fraction

import pytest

from etclosure.closure import (
    RANK_CAP,
    ClosureSpec,
    ClosureTensorSet,
    E_leading_closed,
    RankCapError,
    build_closure_tensor,
    closure_coeff,
    closure_coeff_N1,
    closure_table,
    derive_C_from_E,
    iter_orders,
    recursive_E,
    verify_compatibility,
)
from etclosure.family import check_characteristic, trace
from etclosure.scalar import ScalarExpr


def test_spec_validation():
    with pytest.raises(ValueError):
        ClosureSpec(1, 1)
    with pytest.raises(ValueError):
        ClosureSpec(2, 2)
    with pytest.raises(ValueError):
        ClosureSpec(-2, 1)
    spec = ClosureSpec(2, 3)
    assert (spec.M, spec.N, spec.h_max, spec.k_max) == (2, 3, 2, 2)


def test_closure_coeff_N1_equilibrium_order_is_empty():
    assert closure_coeff_N1(2, 0, 0).is_zero()


def test_closure_coeff_N1_first_order_values():
    assert closure_coeff_N1(2, 1, 1).terms == ((Fraction(3), -6, 1, (0, 1)),)
    assert closure_coeff_N1(2, 1, 0).terms == ((Fraction(6), -8, 1, (0, 1)),)


def test_closure_coeff_N1_second_order_leading():
    assert closure_coeff_N1(2, 2, 2).terms == (
        (Fraction(15, 2), -6, 2, (0, 2)),
        (Fraction(15), -8, 2, (1, 2)),
    )


def test_closure_coeff_N1_range_check():
    with pytest.raises(ValueError):
        closure_coeff_N1(2, 1, 2)
    with pytest.raises(ValueError):
        closure_coeff_N1(2, 1, -1)
    with pytest.raises(ValueError):
        closure_coeff_N1(3, 1, 0)


def test_closure_coeff_equilibrium_order_vanishes():
    assert closure_coeff(2, 3, 0, 0, 0).is_zero()


def test_closure_coeff_first_mu_order_values():
    # leading slot of C_{0,1} for (M,N) = (2,3), then its descent
    assert closure_coeff(2, 3, 0, 1, 2).terms == ((Fraction(3), -6, 1, (0, 0)),)
    assert closure_coeff(2, 3, 0, 1, 1).terms == ((Fraction(36), -8, 1, (0, 0)),)
    assert closure_coeff(2, 3, 0, 1, 0).terms == ((Fraction(48), -10, 1, (0, 0)),)


def test_closure_coeff_reduces_to_N1_at_k0():
    for h in range(0, 3):
        top = 2 * h // 2 + (1 if 2 * h % 2 else 0)
        for s in range(0, (2 * h + 1 + 1) // 2):
            assert closure_coeff(2, 1, h, 0, s) == closure_coeff_N1(2, h, s)
    assert closure_coeff(4, 1, 1, 0, 2) == closure_coeff_N1(4, 1, 2)


def test_closure_coeff_reduces_to_N1_up_to_the_rank_cap():
    for M in range(2, RANK_CAP, 2):
        for h in range((RANK_CAP - 1) // M + 1):
            for s in range(M * h // 2 + 1):
                assert closure_coeff(M, 1, h, 0, s) == closure_coeff_N1(M, h, s), (M, h, s)


def test_build_closure_tensor_shapes():
    spec = ClosureSpec(2, 1, h_max=2, k_max=0)
    assert build_closure_tensor(spec, 0, 0).is_zero()
    c10 = build_closure_tensor(spec, 1, 0)
    assert c10.rank == 3
    assert c10.coeffs[1] == closure_coeff_N1(2, 1, 1)
    assert c10.coeffs[0] == closure_coeff_N1(2, 1, 0)


@pytest.mark.parametrize("M,N,h,k", [(2, 1, 2, 0), (2, 3, 1, 1), (4, 1, 1, 0), (2, 3, 0, 2)])
def test_closure_tensors_satisfy_characteristic(M, N, h, k):
    spec = ClosureSpec(M, N, h_max=max(h, 1), k_max=max(k, 1))
    ok, residuals = check_characteristic(build_closure_tensor(spec, h, k))
    assert ok, [r.terms for r in residuals if not r.is_zero()]


def test_C11_leading_frozen():
    spec = ClosureSpec(2, 3, h_max=1, k_max=1)
    c11 = build_closure_tensor(spec, 1, 1)
    assert c11.rank == 6
    assert c11.leading.terms == (
        (Fraction(15, 2), -6, 2, (0, 1)),
        (Fraction(15), -8, 2, (1, 1)),
    )


def test_recursive_E_base_cases():
    spec = ClosureSpec(2, 3, h_max=1, k_max=1)
    assert recursive_E(spec, 0, 0).is_zero()
    e01 = recursive_E(spec, 0, 1)
    assert e01.rank == 3  # M h + (N-1) k + 1
    assert e01.leading == E_leading_closed(2, 3, 0, 1)


@pytest.mark.parametrize("h,k", [(0, 1), (1, 1), (0, 2), (2, 1)])
def test_recursive_E_leading_matches_closed_form(h, k):
    spec = ClosureSpec(2, 3, h_max=max(h, 1), k_max=max(k, 1))
    assert recursive_E(spec, h, k).leading == E_leading_closed(2, 3, h, k)


def test_E_trace_identity():
    # (N-1)/2-fold trace of E_{h,k+1} recovers (-m^2)^((N-1)/2) E_{h,k}
    spec = ClosureSpec(2, 3, h_max=1, k_max=2)
    for h in (0, 1):
        e_hi = recursive_E(spec, h, 2)
        e_lo = recursive_E(spec, h, 1)
        assert trace(e_hi) == e_lo.scale(1, msq_pow=1)


def test_derive_C_from_E_is_identity_at_k0():
    spec = ClosureSpec(2, 3, h_max=1, k_max=1)
    assert derive_C_from_E(spec, 1, 0) == recursive_E(spec, 1, 0)


@pytest.mark.parametrize("h,k", [(0, 1), (1, 1)])
def test_cross_route_equality(h, k):
    spec = ClosureSpec(2, 3, h_max=1, k_max=1)
    assert build_closure_tensor(spec, h, k) == derive_C_from_E(spec, h, k)


def test_compatibility_equilibrium_order():
    report = verify_compatibility(ClosureSpec(2, 1, h_max=1, k_max=0), 0, 0)
    assert report["lambda_ok"] is True
    assert report["mu_ok"] is None
    assert all(r.is_zero() for r in report["lambda_residuals"])


def test_compatibility_N1_tower():
    spec = ClosureSpec(2, 1, h_max=3, k_max=0)
    for h in range(0, 3):
        report = verify_compatibility(spec, h, 0)
        assert report["lambda_ok"] is True


def test_compatibility_N3_both_conditions():
    spec = ClosureSpec(2, 3, h_max=2, k_max=2)
    tensors = ClosureTensorSet.build(spec)
    for h in (0, 1):
        for k in (0, 1):
            report = verify_compatibility(spec, h, k, tensors)
            assert report["lambda_ok"] is True
            assert report["mu_ok"] is True
    # with a set, a condition whose next order lies outside it is not checked
    report = verify_compatibility(spec, 1, 2, tensors)
    assert report["lambda_ok"] is True and report["mu_ok"] is None
    assert verify_compatibility(spec, 2, 2, tensors)["lambda_ok"] is None


def test_tensor_set_build_and_get():
    spec = ClosureSpec(2, 1, h_max=2, k_max=0)
    tensors = ClosureTensorSet.build(spec)
    assert tensors.get(0, 0).is_zero()
    assert tensors.get(1, 0) == build_closure_tensor(spec, 1, 0)
    with pytest.raises(KeyError):
        tensors.get(5, 0)


def test_iter_orders_respects_block_structure():
    assert list(iter_orders(ClosureSpec(2, 1, h_max=2, k_max=2))) == [(0, 0), (1, 0), (2, 0)]
    assert list(iter_orders(ClosureSpec(0, 3, h_max=2, k_max=1))) == [(0, 0), (0, 1)]
    full = list(iter_orders(ClosureSpec(2, 3, h_max=1, k_max=1)))
    assert full == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_rank_cap_enforced():
    spec = ClosureSpec(6, 5, h_max=2, k_max=2)
    with pytest.raises(RankCapError):
        build_closure_tensor(spec, 2, 2)
    assert RANK_CAP == 16


def test_block_order_validation():
    with pytest.raises(ValueError):
        build_closure_tensor(ClosureSpec(0, 1, h_max=1, k_max=0), 1, 0)
    with pytest.raises(ValueError):
        build_closure_tensor(ClosureSpec(2, 1, h_max=1, k_max=1), 0, 1)


def test_closure_table_rows():
    rows = closure_table(ClosureSpec(2, 1, h_max=1, k_max=0))
    assert len(rows) == 3
    marker = rows[0]
    assert (marker["h"], marker["k"], marker["prefactor"]) == (0, 0, "0")
    assert marker["s"] is None
    data = {(r["h"], r["s"]): r for r in rows[1:]}
    assert data[(1, 0)]["prefactor"] == "6"
    assert data[(1, 0)]["gamma_pow"] == -8
    assert data[(1, 1)]["prefactor"] == "3"
    assert data[(1, 1)]["msq_pow"] == 1
    assert data[(1, 1)]["symbol"] == [0, 1]


def test_closure_table_fractional_prefactor_rendering():
    rows = closure_table(ClosureSpec(2, 1, h_max=2, k_max=0))
    prefs = {r["prefactor"] for r in rows}
    assert "15/2" in prefs
    assert all("/1" not in p for p in prefs)


def test_c_function_coherence():
    # orders with equal k + M h reference the same c_q symbols
    syms_20 = {t[3] for t in closure_coeff_N1(2, 2, 2).terms}
    qs_20 = {q for q, _ in syms_20}
    syms_k = {t[3] for t in closure_coeff(4, 1, 1, 0, 2).terms}
    qs_k = {q for q, _ in syms_k}
    assert qs_20 == qs_k == {0, 1}
