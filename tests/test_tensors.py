from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from etclosure.family import FFamilyElement, realize, timelike_gamma, trace
from etclosure.oracle import (
    brute_realize_basis,
    brute_transform,
    random_rational_timelike,
    random_sym_tensor,
)
from etclosure.scalar import ScalarExpr
from etclosure.tensors import (
    METRIC_DIAG,
    DenseSymTensor,
    FourVector,
    Metric,
    arrangements,
    canonical_indices,
    contract_mu,
    gmu_basis,
    is_zero,
    metric_flip,
    symmetrize,
    trace_pair,
    transform,
)

MU = FourVector([Fraction(3, 2), Fraction(1, 3), 0, Fraction(1, 4)])


def test_metric_basics():
    g = Metric()
    assert g.diag == (-1, 1, 1, 1)
    assert g.dot([1, 0, 0, 0], [1, 0, 0, 0]) == -1
    assert trace_pair(gmu_basis(2, 1)).get(()) == 4


def test_fourvector_norms():
    assert MU.gamma_sq() == Fraction(299, 144)
    assert MU.is_timelike_future()
    assert not FourVector([0, 1, 0, 0]).is_timelike_future()
    low = MU.lowered()
    assert low.variance == "lower"
    assert low.components[0] == -MU.components[0]
    assert low.components[1:] == MU.components[1:]
    assert low.raised().components == MU.components


def test_symmetrize_two_permutation_average():
    t = symmetrize({(0, 1): 1}, rank=2)
    assert t.get((0, 1)) == Fraction(1, 2)
    assert t.get((1, 0)) == Fraction(1, 2)
    assert t.get((0, 0)) == 0


def test_symmetrize_fixed_point_and_idempotence(rng):
    for rank in range(0, 5):
        t = random_sym_tensor(rank, rng)
        raw = {idx: t.get(idx) for idx in itertools.product(range(4), repeat=rank)}
        assert symmetrize(raw, rank) == t


def test_symmetrized_metric_square_traces_to_2g():
    raw = {
        (a, b, c, d): (METRIC_DIAG[a] if a == b else 0) * (METRIC_DIAG[c] if c == d else 0)
        for a, b, c, d in itertools.product(range(4), repeat=4)
    }
    y42 = symmetrize(raw, 4)
    assert y42 == gmu_basis(4, 2)
    assert trace_pair(y42) == gmu_basis(2, 1).scale(2)


def test_gmu_basis_small_cases():
    assert gmu_basis(1, 0, MU).get((2,)) == 0
    assert gmu_basis(1, 0, MU).get((0,)) == Fraction(3, 2)
    assert gmu_basis(2, 1).get((0, 0)) == -1
    assert gmu_basis(4, 1, [1, 0, 0, 0]).get((0, 0, 0, 0)) == -1


def test_gmu_basis_range_check():
    with pytest.raises(ValueError):
        gmu_basis(2, 2, MU)
    with pytest.raises(ValueError):
        gmu_basis(3, -1, MU)


def test_gmu_basis_matches_brute_force(rng):
    for n in range(0, 9):
        for s in range(0, n // 2 + 1):
            mu = random_rational_timelike(rng)
            assert gmu_basis(n, s, mu) == brute_realize_basis(n, s, mu)


def test_gmu_basis_exact_on_rational_input():
    t = gmu_basis(3, 1, MU)
    assert all(isinstance(v, (int, Fraction)) for _, v in t.items())
    tf = gmu_basis(3, 1, [1.5, 1 / 3, 0.0, 0.25])
    assert all(isinstance(v, float) for _, v in tf.items() if v != 0)


def test_trace_pair_small_cases():
    assert trace_pair(gmu_basis(2, 0, MU)).get(()) == -MU.gamma_sq()
    assert trace_pair(gmu_basis(2, 1)).get(()) == 4
    with pytest.raises(ValueError):
        trace_pair(DenseSymTensor.zeros(1))


def test_trace_of_basis_follows_recombination(registry, rng):
    # trace of a single basis element recombines into the two adjacent
    # lower-rank elements with the family coefficients; rational gamma
    # keeps the comparison exact
    for n in range(2, 7):
        for s in range(0, n // 2 + 1):
            mu = random_rational_timelike(rng)
            f = FFamilyElement(
                n, tuple(ScalarExpr.monomial(1) if j == s else ScalarExpr.zero() for j in range(n // 2 + 1))
            )
            direct = trace_pair(gmu_basis(n, s, mu))
            recombined = realize(trace(f), Fraction(1, 2), mu, Fraction(3, 2), registry)
            assert direct == recombined


def test_contract_mu_small_cases():
    assert contract_mu(gmu_basis(1, 0, MU), MU).get(()) == -MU.gamma_sq()
    assert contract_mu(gmu_basis(2, 1), MU) == gmu_basis(1, 0, MU)
    with pytest.raises(ValueError):
        contract_mu(DenseSymTensor.scalar(1), MU)


def test_contract_mu_twice_on_metric_square():
    # sym(g g) hit with two mu's: (1/3)(-gamma^2 g + 2 mu mu)
    got = contract_mu(contract_mu(gmu_basis(4, 2), MU), MU)
    want_map = {}
    gsq = MU.gamma_sq()
    for idx in canonical_indices(2):
        a, b = idx
        g_ab = METRIC_DIAG[a] if a == b else 0
        want_map[idx] = Fraction(-1, 3) * gsq * g_ab + Fraction(2, 3) * MU.components[a] * MU.components[b]
    want = DenseSymTensor(2, want_map)
    assert got == want


def test_single_contraction_of_pure_metric_basis():
    # one mu into the all-metric element lands exactly on the next basis
    # element down: the normalized symmetrization convention
    for n in (4, 6):
        assert contract_mu(gmu_basis(n, n // 2), MU) == gmu_basis(n - 1, n // 2 - 1, MU)


def test_permutation_invariant_lookup(rng):
    t = random_sym_tensor(3, rng)
    for idx in itertools.product(range(4), repeat=3):
        assert t.get(idx) == t.get(tuple(sorted(idx)))


def test_canonical_storage_size():
    for rank in range(0, 5):
        t = DenseSymTensor.zeros(rank)
        count = sum(1 for _ in t.items())
        # C(rank+3, 3) canonical multi-indices
        expect = (rank + 3) * (rank + 2) * (rank + 1) // 6
        assert count == expect
        assert len(list(canonical_indices(rank))) == expect


def test_arrangements_counts_distinct_permutations():
    assert arrangements((0, 0, 0)) == 1
    assert arrangements((0, 1, 2)) == 6
    assert arrangements((0, 0, 1, 2)) == 12


def test_metric_flip_is_involutive(rng):
    for rank in (1, 2, 3):
        t = random_sym_tensor(rank, rng)
        assert metric_flip(metric_flip(t)) == t
    # single flip negates entries with an odd number of time indices
    t = gmu_basis(2, 0, MU)
    f = metric_flip(t)
    assert f.get((0, 0)) == t.get((0, 0))
    assert f.get((0, 1)) == -t.get((0, 1))
    assert f.get((1, 2)) == t.get((1, 2))


def test_transform_preserves_contractions():
    # rational boost: cosh = 5/4, sinh = 3/4
    ch, sh = Fraction(5, 4), Fraction(3, 4)
    boost = [[ch, sh, 0, 0], [sh, ch, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    t = gmu_basis(2, 0, MU)
    tb = transform(t, boost)
    assert trace_pair(tb).get(()) == trace_pair(t).get(())
    # metric is invariant under the boost
    assert transform(gmu_basis(2, 1), boost) == gmu_basis(2, 1)


def rational_lorentz(rng) -> list:
    """A boost to a rational four-velocity after a rotation about z by (3/5, 4/5)."""
    mu = random_rational_timelike(rng)
    u = [c / timelike_gamma(mu) for c in mu.components]
    boost = [[u[0], u[1], u[2], u[3]]] + [
        [u[i]] + [(1 if i == j else 0) + u[i] * u[j] / (1 + u[0]) for j in (1, 2, 3)]
        for i in (1, 2, 3)
    ]
    rot = [[1, 0, 0, 0], [0, Fraction(3, 5), Fraction(-4, 5), 0],
           [0, Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 0, 1]]
    return [[sum(boost[i][k] * rot[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def test_transform_matches_brute_force(rng):
    for rank in range(0, 7):
        matrix = rational_lorentz(rng)
        # L^T g L = g
        for a, b in itertools.product(range(4), repeat=2):
            assert sum(METRIC_DIAG[j] * matrix[j][a] * matrix[j][b] for j in range(4)) == (
                METRIC_DIAG[a] if a == b else 0
            )
        t = random_sym_tensor(rank, rng)
        assert transform(t, matrix) == brute_transform(t, matrix)


def test_tensor_json_round_trip(rng):
    t = random_sym_tensor(3, rng)
    again = DenseSymTensor.from_json_obj(t.to_json_obj())
    assert again == t
    obj = t.to_json_obj()
    assert obj["rank"] == 3
    assert {"idx", "value"} <= set(obj["components"][0])


def test_with_entry_and_scale():
    t = DenseSymTensor.zeros(2).with_entry((1, 0), Fraction(2, 3))
    assert t.get((0, 1)) == Fraction(2, 3)
    assert t.scale(3).get((0, 1)) == 2
    assert t.max_abs() == Fraction(2, 3)


def test_get_rejects_indices_that_are_not_rank_n_over_0_to_3():
    t = DenseSymTensor.zeros(2).with_entry((1, 0), Fraction(2, 3))
    for bad in ((0, 1, 4), (0, 4), (1, -1), (1,), (0, 1, 1)):
        with pytest.raises(KeyError):
            t.get(bad)


def test_batched_components_stay_float64_and_match_each_entry():
    # exact components meeting a batch act as their floats, as against one float
    batch = np.array([0.5, -1.25, 3.0])
    exact = metric_flip(gmu_basis(4, 2)).scale(Fraction(1, 3))
    scaled = exact.scale(batch)
    moved = scaled - exact
    for t, point in ((scaled, lambda x: exact.scale(x)), (moved, lambda x: exact.scale(x) - exact)):
        for j, x in enumerate(batch.tolist()):
            want = point(x)
            for idx, v in t.items():
                assert v.dtype == np.float64
                assert v[j] == want.get(idx)
    assert is_zero(np.zeros(3)) and not is_zero(np.array([0.0, 1e-300]))


def test_batched_four_vector_checks_every_entry():
    mu = FourVector((np.array([2.0, 1.5]), np.array([0.5, 0.2]), 0.0, 0.0))
    gammas = timelike_gamma(mu)
    assert gammas.tolist() == [(2.0 * 2.0 - 0.5 * 0.5) ** 0.5, (1.5 * 1.5 - 0.2 * 0.2) ** 0.5]
    assert mu.is_timelike_future()
    spacelike_at_one = FourVector((np.array([2.0, 0.1]), np.array([0.5, 0.2]), 0.0, 0.0))
    assert not spacelike_at_one.is_timelike_future()
    with pytest.raises(ValueError):
        timelike_gamma(spacelike_at_one)
