from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etclosure.tensors as tensors
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
    contract_tail,
    gmu_basis,
    gmu_combination,
    index_counts,
    is_zero,
    metric_flip,
    sym_product,
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


# ---------------------------------------------------------------------------
# exact paths over integer numerators against the plain Fraction loops
#
# The reference runs the same loops directly on the input values, one Fraction
# (or float) operation per term.  The integer path must give the same component
# values and the same component types (a cancelled sum is Fraction(0), a slot
# no term reaches is int 0, int-only inputs leave ints where the multinomial
# is 1), since JSON encodes the types differently.


def _ref_coefficients(t):
    return {index_counts(idx): v * arrangements(idx) for idx, v in t.items()}


def _ref_from_coefficients(rank, poly):
    values = {}
    for idx in canonical_indices(rank):
        w, v = arrangements(idx), poly.get(index_counts(idx), 0)
        if w != 1 and (isinstance(v, np.ndarray) or v != 0):
            v = Fraction(v, w) if isinstance(v, int) else v / w
        values[idx] = v
    return DenseSymTensor(rank, values)


def _ref_linear(vector):
    units = [tuple(int(i == t) for i in range(4)) for t in range(4)]
    return {u: a for u, a in zip(units, vector) if not is_zero(a)}


def _ref_product(p, q):
    q_terms = [(b, y) for b, y in q.items() if not is_zero(y)]
    out = {}
    for a, x in p.items():
        for b, y in q_terms:
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0) + x * y
    return out


def _ref_substitute(poly, forms, t=0):
    if t == 4:
        return {(0, 0, 0, 0): next(iter(poly.values()))}
    by_power = {}
    for c, v in poly.items():
        by_power.setdefault(c[t], {})[c] = v
    acc = {}
    for a in range(max(by_power), -1, -1):
        acc = _ref_product(acc, forms[t])
        if a in by_power:
            for c, v in _ref_substitute(by_power[a], forms, t + 1).items():
                acc[c] = acc.get(c, 0) + v
    return acc


def ref_gmu_combination(n, coeffs, mu=None):
    low, top = min(coeffs), max(coeffs)
    ell = _ref_linear(mu) if n > 2 * low else {}
    ell_sq = _ref_product(ell, ell)
    squares = {tuple(2 * int(i == t) for i in range(4)): g for t, g in enumerate(METRIC_DIAG)}
    acc = {}
    for s in range(low, top + 1):
        if s > low:
            acc = _ref_product(acc, ell_sq)
        if s in coeffs:
            metric_power = {(0, 0, 0, 0): 1}
            for _ in range(s):
                metric_power = _ref_product(metric_power, squares)
            for c, v in metric_power.items():
                acc[c] = acc.get(c, 0) + coeffs[s] * v
    for _ in range(n - 2 * top):
        acc = _ref_product(acc, ell)
    return _ref_from_coefficients(n, acc)


def ref_sym_product(a, b):
    return _ref_from_coefficients(a.rank + b.rank, _ref_product(_ref_coefficients(a), _ref_coefficients(b)))


def ref_transform(t, matrix):
    forms = [_ref_linear([matrix[j][i] for j in range(4)]) for i in range(4)]
    return _ref_from_coefficients(t.rank, _ref_substitute(_ref_coefficients(t), forms))


def ref_contract_tail(c, p):
    weighted = [(idx, v * arrangements(idx)) for idx, v in p.items()]
    weighted = [(idx, w) for idx, w in weighted if not is_zero(w)]
    out = {}
    for a in range(4):
        total = 0
        for idx, w in weighted:
            total = total + w * c.get(idx + (a,))
        out[(a,)] = total
    return DenseSymTensor(1, out)


def assert_same_components(got, want):
    """Equal component by component, in value and in type (or bit for bit, for batches)."""
    assert got.rank == want.rank
    for (idx, g), (jdx, w) in zip(got.items(), want.items()):
        assert idx == jdx and type(g) is type(w), (idx, g, w)
        if isinstance(g, np.ndarray):
            assert g.dtype == w.dtype and g.tolist() == w.tolist(), (idx, g, w)
        else:
            assert g == w, (idx, g, w)
    if not any(isinstance(v, np.ndarray) for _, v in want.items()):
        assert got.to_json_obj() == want.to_json_obj()


_INTS = st.integers(-4, 4)
_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 9)))
EXACT_KINDS = {
    "int": _INTS,
    "whole": _INTS.map(Fraction),  # Fractions with denominator 1
    "fraction": _FRACTIONS,  # mixed denominators and signs
    "sparse": st.one_of(_FRACTIONS, st.just(0)),  # Fractions beside untouched int 0 slots
    "mixed": st.one_of(_INTS, _FRACTIONS),
}
exact_kind = st.sampled_from(sorted(EXACT_KINDS))


@st.composite
def exact_tensor(draw, rank, kind):
    values = EXACT_KINDS[kind]
    return DenseSymTensor(rank, {idx: draw(values) for idx in canonical_indices(rank)})


@st.composite
def exact_vector(draw, kind):
    # a zero component is a separate draw, so mu often has one
    return [draw(st.one_of(EXACT_KINDS[kind], st.sampled_from((0, Fraction(0))))) for _ in range(4)]


@given(data=st.data(), n=st.integers(0, 7), phi_kind=exact_kind, mu_kind=exact_kind)
@settings(max_examples=150, deadline=None)
def test_exact_gmu_combination_matches_fraction_loop(data, n, phi_kind, mu_kind):
    orders = data.draw(st.sets(st.integers(0, n // 2), min_size=1))
    coeffs = {s: data.draw(EXACT_KINDS[phi_kind]) for s in orders}
    if orders == {n // 2} and n % 2 == 0 and data.draw(st.booleans()):
        mu = None  # n == 2s needs no mu
    else:
        mu = data.draw(exact_vector(mu_kind))
    assert_same_components(gmu_combination(n, coeffs, mu), ref_gmu_combination(n, coeffs, mu))


def _dense_cases(n):
    """(coeffs, mu) at rank n: every order, sparse orders with a zero phi beside a zero
    component of mu, int phi against Fraction mu, and the metric power alone."""
    rng = random.Random(n)

    def frac():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6, 9)))

    boosted = [frac() for _ in range(4)]
    flat = [frac(), frac(), 0, frac()]  # x_2 only from the metric: odd c_2 is never reached
    top = (n - 1) // 2  # below n / 2, so every term has a factor of ell
    cases = [
        ({s: frac() for s in range(n // 2 + 1)}, boosted),
        ({0: frac(), 1: Fraction(0), n // 2: Fraction(0), n // 2 - 1: frac()}, flat),
        ({s: rng.randint(-5, 5) for s in range(0, top + 1, 2)}, flat),
    ]
    if n % 2 == 0:
        cases.append(({n // 2: frac()}, None))
    return cases


@pytest.mark.parametrize("n", range(8, 17))
def test_exact_gmu_combination_matches_fraction_loop_to_the_rank_cap(n):
    for coeffs, mu in _dense_cases(n):
        got = gmu_combination(n, coeffs, mu)
        assert_same_components(got, ref_gmu_combination(n, coeffs, mu))
        # a boosted mu reaches every slot; the other cases leave int 0s beside Fractions
        want = {Fraction} if mu is not None and 0 not in mu else {Fraction, int}
        assert {type(v) for _, v in got.items()} == want


@given(data=st.data(), ranks=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       kinds=st.tuples(exact_kind, exact_kind))
@settings(max_examples=100, deadline=None)
def test_exact_sym_product_matches_fraction_loop(data, ranks, kinds):
    a = data.draw(exact_tensor(ranks[0], kinds[0]))
    b = data.draw(exact_tensor(ranks[1], kinds[1]))
    assert_same_components(sym_product(a, b), ref_sym_product(a, b))


@given(data=st.data(), rank=st.integers(0, 3), kinds=st.tuples(exact_kind, exact_kind))
@settings(max_examples=100, deadline=None)
def test_exact_contract_tail_matches_fraction_loop(data, rank, kinds):
    c = data.draw(exact_tensor(rank + 1, kinds[0]))
    p = data.draw(exact_tensor(rank, kinds[1]))
    assert_same_components(contract_tail(c, p), ref_contract_tail(c, p))


@given(data=st.data(), rank=st.integers(0, 4), kinds=st.tuples(exact_kind, exact_kind))
@settings(max_examples=100, deadline=None)
def test_exact_transform_matches_fraction_loop(data, rank, kinds):
    t = data.draw(exact_tensor(rank, kinds[0]))
    matrix = [data.draw(exact_vector(kinds[1])) for _ in range(4)]
    assert_same_components(transform(t, matrix), ref_transform(t, matrix))


def test_exact_sums_that_cancel_stay_fraction_zero():
    half, third = Fraction(1, 2), Fraction(1, 3)
    # phi_0 (mu.x)^2 + phi_1 (x.x) with phi_1 = phi_0 mu0^2: the x0^2 term cancels
    mu = [Fraction(3, 2), third, 0, Fraction(1, 4)]
    gmu = gmu_combination(2, {0: half, 1: half * mu[0] ** 2}, mu)
    # (x0 + x1)(x0 - x1): the x0 x1 term cancels
    product = sym_product(DenseSymTensor(1, {(0,): third, (1,): third}),
                          DenseSymTensor(1, {(0,): half, (1,): -half}))
    # (x0 + x1)^2 under x0 -> y0 + y1, x1 -> y0 - y1: the y0 y1 term cancels
    square = DenseSymTensor(2, {(0, 0): third, (0, 1): third, (1, 1): third})
    moved = transform(square, [[half, half, 0, 0], [half, -half, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for got, idx in ((gmu, (0, 0)), (product, (0, 1)), (moved, (0, 1))):
        assert type(got.get(idx)) is Fraction and got.get(idx) == 0
        # a slot no term reaches stays the int 0
        assert type(got.get((2, 3))) is int and got.get((2, 3)) == 0
    tail = contract_tail(DenseSymTensor(2, {(0, 0): half, (0, 1): half}),
                         DenseSymTensor(1, {(0,): third, (1,): -third}))
    assert type(tail.get((0,))) is Fraction and tail.get((0,)) == 0
    assert type(tail.get((2,))) is Fraction and tail.get((2,)) == 0


def test_non_exact_inputs_never_take_the_integer_path(monkeypatch):
    integral = tensors._integral
    taken = []

    def spy(*polys):
        out = integral(*polys)
        if out is not None:
            taken.append(polys)
        return out

    monkeypatch.setattr(tensors, "_integral", spy)
    rng = random.Random(5)
    batch = np.array([0.5, -1.25, 3.0])
    objects = np.array([Fraction(1, 2), Fraction(-3, 4), Fraction(2)], dtype=object)
    lorentz = rational_lorentz(rng)
    exact = {rank: random_sym_tensor(rank, rng) for rank in (1, 2, 3, 4)}
    mu = exact[1].items()
    # one float, one float64 batch and one object array of each exact input
    for lift in (float, lambda v: v * batch, lambda v: v * objects):
        floats = [lift(v) for _, v in mu]
        for coeffs, vector in (({0: lift(Fraction(5, 4)), 2: lift(Fraction(-1, 3))}, [v for _, v in mu]),
                               ({0: Fraction(5, 4), 2: Fraction(-1, 3)}, floats)):
            assert_same_components(gmu_combination(5, coeffs, vector),
                                   ref_gmu_combination(5, coeffs, vector))
        t = exact[3].map_values(lift)
        for a, b in ((t, exact[1]), (exact[1], t)):
            assert_same_components(sym_product(a, b), ref_sym_product(a, b))
        for c, p in ((t, exact[2]), (exact[4], t)):
            assert_same_components(contract_tail(c, p), ref_contract_tail(c, p))
        matrix = [[lift(x) for x in row] for row in lorentz]
        for u, m in ((t, lorentz), (exact[3], matrix)):
            assert_same_components(transform(u, m), ref_transform(u, m))
    assert taken == []


# ---------------------------------------------------------------------------
# the float64 batch kernel of the polynomial product against the dict loop
#
# _product multiplies float64 batches through index plans (_batch_product).
# Each output must be the dict loop's array bit for bit, sign of zero
# included, in the loop's key order; inputs the kernel cannot reproduce keep
# the loop itself.

_ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.0)),
                     st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False))
_SCALARS = st.one_of(_ENTRIES, st.sampled_from((0, 1, -2, 3)))


@st.composite
def sparse_keys(draw):
    """Keys as the callers make them: metric powers, linear forms, or a subset of a layout."""
    kind = draw(st.sampled_from(("metric", "linear", "layout", "mixed degrees")))
    if kind == "metric":
        return [c for c, _ in tensors._gmu_structure(draw(st.integers(0, 3)))]
    if kind == "linear":
        units = [tuple(int(i == t) for i in range(4)) for t in range(4)]
        return draw(st.lists(st.sampled_from(units), min_size=1, max_size=4, unique=True))
    degrees = [draw(st.integers(0, 5))]
    if kind == "mixed degrees":
        degrees.append(draw(st.integers(0, 5)))
    pool = sorted({c for d in degrees for c in tensors._layout(d)[0]})
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))


@st.composite
def batch_values(draw, keys, width, arrays):
    """A value per key: float64 arrays (some all zero) if ``arrays``, else arrays and scalars."""
    def array():
        if draw(st.integers(0, 5)) == 0:
            return np.full(width, draw(st.sampled_from((0.0, -0.0))))
        return np.array([draw(_ENTRIES) for _ in range(width)])

    return {k: array() if arrays or draw(st.booleans()) else draw(_SCALARS) for k in keys}


def _entry(v, k):
    return float(v[k]) if isinstance(v, np.ndarray) else v


def per_entry_product(p, q, k):
    """Entry k of every output: the dict loop over the batch's terms, one float at a time."""
    q_terms = [(b, y) for b, y in q.items() if not is_zero(y)]
    out = {}
    for a, x in p.items():
        for b, y in q_terms:
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0) + _entry(x, k) * _entry(y, k)
    return out


@given(data=st.data(), width=st.integers(1, 4), all_arrays=st.sampled_from(("p", "q", "both")))
@settings(max_examples=300, deadline=None)
def test_batch_product_matches_the_loop_bit_for_bit(data, width, all_arrays):
    p = data.draw(batch_values(data.draw(sparse_keys()), width, all_arrays in ("p", "both")))
    q = data.draw(batch_values(data.draw(sparse_keys()), width, all_arrays in ("q", "both")))
    q_terms = [(b, y) for b, y in q.items() if not is_zero(y)]
    if q_terms:
        assert tensors._batch_product(p, q_terms) is not None
    got, want = tensors._product(p, q), _ref_product(p, q)
    assert list(got) == list(want)
    for key, v in got.items():
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (width,)
        assert v.tobytes() == want[key].tobytes(), key
    for k in range(width):
        entry = per_entry_product(p, q, k)
        assert list(entry) == list(got)
        assert [float(v[k]).hex() for v in got.values()] == [float(v).hex() for v in entry.values()]


def test_batch_product_sums_start_from_zero():
    # the loop starts every sum at 0, so a lone -0.0 term reads 0.0, as for one float
    p = {(1, 0, 0, 0): np.array([-0.0, 2.0]), (0, 1, 0, 0): np.array([-0.0, 3.0])}
    q = {(0, 1, 0, 0): 1.0, (1, 0, 0, 0): -1.0}
    got = tensors._product(p, q)
    assert list(got) == [(1, 1, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0)]
    assert [v.tolist() for v in got.values()] == [[0.0, -1.0], [0.0, -2.0], [0.0, 3.0]]
    assert not any(np.signbit(v[0]) for v in got.values())


def test_batch_product_keeps_the_loop_order_across_chunks():
    # a rank-6 layout times a rank-4 layout: 84 x 35 = 2940 pairs, a dozen
    # scatter-add chunks; entries of mixed magnitude make every sum's rounding
    # depend on the order of its terms
    rng = np.random.default_rng(14)
    width = 3

    def factor(rank):
        return {c: rng.standard_normal(width) * 10.0 ** rng.integers(-6, 7, width)
                for c in tensors._layout(rank)[0]}

    p, q = factor(6), factor(4)
    assert len(p) * len(q) == 2940 > 10 * tensors._CHUNK
    assert tensors._batch_product(p, list(q.items())) is not None
    got, want = tensors._product(p, q), _ref_product(p, q)
    assert list(got) == list(want)
    for key, v in got.items():
        assert v.tobytes() == want[key].tobytes(), key
    for k in range(width):
        entry = per_entry_product(p, q, k)
        assert [float(v[k]).hex() for v in got.values()] == [float(v).hex() for v in entry.values()]


def test_inputs_the_kernel_cannot_reproduce_keep_the_loop():
    batch = np.array([0.5, -1.25, 3.0])
    objects = np.array([Fraction(1, 2), Fraction(-3, 4), Fraction(2)], dtype=object)
    keys = [c for c, _ in tensors._gmu_structure(1)]
    cases = [
        ({k: Fraction(i + 1, 3) for i, k in enumerate(keys)}, {(0, 1, 0, 0): batch}),  # exact x batch
        ({k: i + 1 for i, k in enumerate(keys)}, {(0, 1, 0, 0): 2, (1, 0, 0, 0): -1}),  # ints
        ({k: batch for k in keys}, {(0, 1, 0, 0): objects}),  # an object array
        ({k: np.float64(i - 1.5) for i, k in enumerate(keys)}, {(0, 0, 1, 0): batch}),  # numpy scalars
        ({k: batch for k in keys}, {(0, 0, 1, 0): 2**60 + 1}),  # an int a float rounds
        ({keys[0]: batch, keys[1]: 0.5}, {(0, 0, 1, 0): batch, (0, 1, 0, 0): -1.0}),  # scalar x scalar
    ]
    for p, q in cases:
        q_terms = [(b, y) for b, y in q.items() if not is_zero(y)]
        assert tensors._batch_product(p, q_terms) is None
        got, want = tensors._product(p, q), _ref_product(p, q)
        assert list(got) == list(want)
        for key, v in got.items():
            assert type(v) is type(want[key])
            if isinstance(v, np.ndarray):
                assert v.dtype == want[key].dtype and v.tolist() == want[key].tolist()
            else:
                assert v == want[key]
    # arrays of two widths do not broadcast, in the loop either
    p, q_terms = {keys[0]: batch}, [((0, 0, 1, 0), batch[:2])]
    assert tensors._batch_product(p, q_terms) is None
    with pytest.raises(ValueError):
        tensors._product(p, dict(q_terms))


def test_batch_tensors_hold_their_own_components():
    # components are copied out of the product's rows, so no tensor keeps a whole block alive
    mu = FourVector((np.array([2.0, 1.5]), np.array([0.5, 0.2]), 0.0, -0.25))
    for t in (gmu_combination(5, {0: 1.5, 2: np.array([0.25, -1.0])}, mu),
              sym_product(gmu_basis(2, 0, mu), gmu_basis(3, 1, mu))):
        arrays = [v for _, v in t.items() if isinstance(v, np.ndarray)]
        assert arrays and all(v.base is None for v in arrays)
    assert tensors._product_plan.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# the float64 batch kernel of traces and mu-contractions against each entry
#
# _derivative stacks a batch's components once (_batch_derivative) and adds
# the four gathered terms in the loop's a = 0..3 order, so each entry of a
# batched trace_pair or contract_mu is the same call on that entry alone.


@given(data=st.data(), rank=st.integers(1, 6), width=st.integers(1, 4),
       weights=st.sampled_from(("scalar", "array", "mixed")))
@settings(max_examples=100, deadline=None)
def test_batch_trace_and_contraction_match_each_entry_bit_for_bit(data, rank, width, weights):
    t = DenseSymTensor._from_counts(
        rank, {c: np.array([data.draw(_ENTRIES) for _ in range(width)]) for c in tensors._layout(rank)[0]})
    mu = [data.draw(_SCALARS) if weights == "scalar" or (weights == "mixed" and a % 2)
          else np.array([data.draw(_ENTRIES) for _ in range(width)]) for a in range(4)]
    assert tensors._batch_derivative(t, mu, 1) is not None
    calls = [lambda u, k=None: contract_mu(u, [_entry(w, k) if k is not None else w for w in mu])]
    if rank >= 2:
        calls.append(lambda u, k=None: trace_pair(u))
    for call in calls:
        got = call(t)
        for _, v in got.items():
            assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (width,)
        for k in range(width):
            entry = call(t.map_values(lambda v: float(v[k])), k)
            assert [float(v[k]).hex() for _, v in got.items()] == [float(v).hex() for _, v in entry.items()]


def test_derivatives_the_kernel_cannot_reproduce_keep_the_loop():
    batch = np.array([0.5, -0.0, 3.0])
    objects = np.array([Fraction(1, 2), Fraction(-3, 4), Fraction(2)], dtype=object)
    mu = (2.0, 0.5, -1, 0.0)
    cases = [
        (random_sym_tensor(3, random.Random(1)), mu),  # exact
        (random_sym_tensor(3, random.Random(1), rational=False), mu),  # scalar floats
        (gmu_basis(3, 1, mu).map_values(lambda v: v * batch), (Fraction(1, 2), 1, 0, 0)),  # exact weight
        (gmu_basis(3, 1, mu).map_values(lambda v: v * batch), (batch[:2], 1, 0, 0)),  # two widths
        (gmu_basis(3, 1, mu).map_values(lambda v: v * objects), mu),  # object arrays
        (gmu_basis(3, 1, mu).map_values(lambda v: v * batch).with_entry((3, 3, 3), 1.0), mu),  # mixed
    ]
    for t, weights in cases:
        assert tensors._batch_derivative(t, weights, 1) is None
    exact = random_sym_tensor(4, random.Random(2))
    assert trace_pair(exact) == tensors._derivative(exact, METRIC_DIAG, 2)
    assert all(type(v) is Fraction for _, v in contract_mu(exact, (2, Fraction(1, 2), -1, 3)).items())


# ---------------------------------------------------------------------------
# the integer branches of trace_pair, contract_mu, symmetrize and scale against
# the Fraction loops they replace: the same values and the same component types


def ref_derivative(t, weights, order):
    out = {}
    for idx in canonical_indices(t.rank - order):
        total = None
        for a, w in enumerate(weights):
            term = w * t.get(idx + (a,) * order)
            total = term if total is None else total + term
        out[idx] = total
    return DenseSymTensor(t.rank - order, out)


def ref_symmetrize(raw, rank):
    poly = {}
    for idx, v in raw.items():
        c = index_counts(idx)
        poly[c] = poly[c] + v if c in poly else v
    return _ref_from_coefficients(rank, poly)


def ref_scale(t, factor):
    return DenseSymTensor(t.rank, {idx: v * factor for idx, v in t.items()})


@st.composite
def exact_raw(draw, rank, kind):
    # a sparse map: most multi-indices miss some of their orderings, some miss all
    return {idx: draw(EXACT_KINDS[kind]) for idx in itertools.product(range(4), repeat=rank)
            if draw(st.booleans())}


@given(data=st.data(), rank=st.integers(1, 5), kinds=st.tuples(exact_kind, exact_kind))
@settings(max_examples=150, deadline=None)
def test_exact_trace_and_contraction_match_fraction_loop(data, rank, kinds):
    t = data.draw(exact_tensor(rank, kinds[0]))
    weights = data.draw(exact_vector(kinds[1]))
    assert_same_components(contract_mu(t, weights), ref_derivative(t, weights, 1))
    mu = FourVector(weights)
    assert_same_components(contract_mu(t, mu), ref_derivative(t, mu.lowered().components, 1))
    if rank >= 2:
        assert_same_components(trace_pair(t), ref_derivative(t, METRIC_DIAG, 2))


@given(data=st.data(), rank=st.integers(0, 4), kind=exact_kind)
@settings(max_examples=150, deadline=None)
def test_exact_symmetrize_matches_fraction_loop(data, rank, kind):
    raw = data.draw(exact_raw(rank, kind))
    assert_same_components(symmetrize(raw, rank), ref_symmetrize(raw, rank))


@given(data=st.data(), rank=st.integers(0, 4), kind=exact_kind,
       factor=st.one_of(_INTS, _INTS.map(Fraction), _FRACTIONS))
@settings(max_examples=150, deadline=None)
def test_exact_scale_matches_fraction_loop(data, rank, kind, factor):
    t = data.draw(exact_tensor(rank, kind))
    assert_same_components(t.scale(factor), ref_scale(t, factor))


def test_exact_branches_keep_the_loop_types_at_their_edges():
    half = Fraction(1, 2)
    # a Fraction weight makes every output a Fraction, a cancelling one Fraction(0)
    t = DenseSymTensor(2, {(0, 0): 1, (0, 1): 1, (2, 2): half})
    got = contract_mu(t, (half, -half, 0, 0))
    assert type(got.get((0,))) is Fraction and got.get((0,)) == 0
    assert type(got.get((3,))) is Fraction and got.get((3,)) == 0
    # int weights: only outputs with a Fraction among their four components are Fractions
    got = contract_mu(t, (1, -1, 0, 0))
    assert [type(v) for _, v in got.items()] == [int, int, Fraction, int]
    # symmetrize: an int sum over a multinomial above 1 is a Fraction, a zero int sum
    # and a slot no raw value reaches stay the int 0, a cancelling Fraction sum is Fraction(0)
    raw = {(0, 1): 1, (1, 0): 2, (0, 2): 1, (2, 0): -1, (1, 1): 3, (2, 3): half, (3, 2): -half}
    got = symmetrize(raw, 2)
    assert type(got.get((0, 1))) is Fraction and got.get((0, 1)) == Fraction(3, 2)
    assert type(got.get((0, 2))) is int and got.get((0, 2)) == 0
    assert type(got.get((1, 1))) is int and got.get((1, 1)) == 3
    assert type(got.get((2, 3))) is Fraction and got.get((2, 3)) == 0
    assert type(got.get((3, 3))) is int and got.get((3, 3)) == 0


def _bits(t):
    """Every component as exact bits: float hex for floats, hex lists for batches."""
    out = []
    for idx, v in t.items():
        if isinstance(v, np.ndarray):
            assert v.dtype == np.float64
            out.append((idx, [float(x).hex() for x in v]))
        else:
            out.append((idx, type(v), float(v).hex() if isinstance(v, float) else v))
    return out


def test_float_and_batch_inputs_keep_the_old_paths_bit_for_bit(monkeypatch):
    integral = tensors._integral
    taken = []

    def spy(*polys):
        out = integral(*polys)
        if out is not None:
            taken.append(polys)
        return out

    monkeypatch.setattr(tensors, "_integral", spy)
    rng = random.Random(9)
    batch = np.array([0.5, -1.25, 3.0, -0.0])
    exact = random_sym_tensor(4, rng)
    raw = {idx: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
           for idx in itertools.product(range(4), repeat=3)}
    weights = [Fraction(3, 2), Fraction(-1, 3), 0, Fraction(1, 4)]
    for lift in (float, lambda v: float(v) * batch):
        t = exact.map_values(lift)
        floats = [float(w) for w in weights]
        lifted_raw = {idx: lift(v) for idx, v in raw.items()}
        cases = [
            (trace_pair(t), ref_derivative(t, METRIC_DIAG, 2)),
            (contract_mu(t, floats), ref_derivative(t, floats, 1)),
            (contract_mu(t, (1, -2, 0, 3)), ref_derivative(t, (1, -2, 0, 3), 1)),
            (symmetrize(lifted_raw, 3), ref_symmetrize(lifted_raw, 3)),
            (t.scale(0.75), DenseSymTensor(4, {idx: v * 0.75 for idx, v in t.items()})),
        ]
        if lift is float:
            # an exact operand meets floats: the loop's mixed arithmetic
            cases += [
                (contract_mu(exact, floats), ref_derivative(exact, floats, 1)),
                (contract_mu(t, weights), ref_derivative(t, weights, 1)),
                (t.scale(Fraction(1, 3)), ref_scale(t, Fraction(1, 3))),
            ]
        for got, want in cases:
            assert _bits(got) == _bits(want)
    assert taken == []
