"""Brute-force reference implementations for property tests.

Everything here recomputes results at the raw component level: literal
permutation averages, explicit metric sums, central finite differences, the
chain rule.  The point is independence, so this module deliberately
reimplements arithmetic that exists elsewhere in coefficient space and shares
no code with it beyond the container types and ``gmu_basis`` (checked against
:func:`brute_realize_basis`, which writes out the 4^s 4^(n-2s) index tuples
whose metric pairs are diagonal).

Exact arithmetic runs on Python ints.  Each function writes its exact inputs
as integer numerators over one common denominator, the lcm of theirs
(:func:`_integers`, this module's own helper, not the integer path of
``tensors`` that it checks), sums over the ints, and builds one Fraction per
output component (:func:`_quotient`).  A group of inputs with a float in it
stays as given over denominator 1, so the same loops give float results.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .family import FFamilyElement, realize, timelike_gamma
from .scalar import ScalarExpr
from .tensors import DenseSymTensor, FourVector, canonical_indices, gmu_basis

# literal metric components, written out rather than imported
_G = (
    (-1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
)


# the brute forces cost up to 4^rank terms; above this rank they are out of reach
MAX_RANK = 8


def _guard(rank: int) -> None:
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds oracle cap {MAX_RANK}")


def _integers(values: Iterable) -> Tuple[List, int]:
    """(numerators, den) with values[i] == numerators[i] / den.

    For ints and Fractions den is the lcm of their denominators and every
    numerator is an int.  If any value is anything else (a float), the values
    come back as given over den 1.
    """
    values = list(values)
    den = 1
    for v in values:
        if type(v) is Fraction:
            den = lcm(den, v.denominator)
        elif type(v) is not int:
            return values, 1
    return [v.numerator * (den // v.denominator) for v in values], den


def _quotient(total, den: int):
    """total / den, one Fraction for an integer total."""
    return Fraction(total, den) if type(total) is int else total / den


def _numerators(t: DenseSymTensor) -> Tuple[DenseSymTensor, int]:
    """t as (tensor of numerators, den), by :func:`_integers` over its components."""
    items = t.items()
    nums, den = _integers(v for _, v in items)
    return DenseSymTensor(t.rank, {idx: v for (idx, _), v in zip(items, nums)}), den


def _orderings(key: Tuple[int, ...]) -> int:
    """How many of the 4^n index tuples sort to ``key``: n! / (c0! c1! c2! c3!)."""
    out = factorial(len(key))
    for a in range(4):
        out //= factorial(key.count(a))
    return out


def brute_symmetrize(raw, rank: int):
    """Average over all rank! slot permutations, evaluated entrywise.

    `raw` maps full index tuples to values; absent tuples count as 0.
    """
    _guard(rank)
    nums, den = _integers(raw.values())
    num = dict(zip(raw, nums))
    den *= factorial(rank)
    vals = {}
    for idx in canonical_indices(rank):
        total = 0
        for perm in permutations(idx):
            total += num.get(perm, 0)
        vals[idx] = _quotient(total, den)
    return DenseSymTensor(rank, vals)


def brute_realize_basis(n: int, s: int, mu: Optional[FourVector] = None) -> DenseSymTensor:
    """sym(g x ... x g x mu x ... x mu) by literal permutation average.

    s metric blocks occupy the first 2s slots pairwise, the remaining n - 2s
    slots each carry a contravariant mu component.  The raw product is written
    out at every index tuple whose metric pairs are diagonal, 4^s 4^(n-2s) of
    them: at the other tuples of the 4^n some g_ab is 0.  The n! slot
    permutations of a multi-index hit each of its n!/c! distinct orderings
    equally often, so they average alike.
    """
    _guard(n)
    if not 0 <= 2 * s <= n:
        raise ValueError("need 0 <= 2s <= n")
    if n > 2 * s and mu is None:
        raise ValueError("mu required when n > 2s")
    mu_up: Sequence = (0, 0, 0, 0)
    if mu is not None:
        c = mu.components
        mu_up = (-c[0], c[1], c[2], c[3]) if mu.variance == "lower" else c
    mu_num, mu_den = _integers(mu_up)

    totals: Dict[Tuple[int, ...], object] = {}
    for pairs in product(range(4), repeat=s):
        metric = prod(_G[a][a] for a in pairs)
        head = tuple(a for a in pairs for _ in (0, 1))
        for rest in product(range(4), repeat=n - 2 * s):
            key = tuple(sorted(head + rest))
            totals[key] = totals.get(key, 0) + metric * prod(mu_num[b] for b in rest)
    den = mu_den ** (n - 2 * s)
    return DenseSymTensor(n, {key: _quotient(total, den * _orderings(key))
                              for key, total in totals.items()})


def brute_trace(t: DenseSymTensor) -> DenseSymTensor:
    """Metric contraction of the last two slots, summed over all 16 pairs."""
    _guard(t.rank)
    if t.rank < 2:
        raise ValueError("trace needs rank >= 2")
    num, den = _numerators(t)
    vals = {}
    for idx in canonical_indices(t.rank - 2):
        total = 0
        for a in range(4):
            for b in range(4):
                gab = _G[a][b]
                if gab != 0:
                    total += gab * num.get(idx + (a, b))
        vals[idx] = _quotient(total, den)
    return DenseSymTensor(t.rank - 2, vals)


def brute_mu_contract(t: DenseSymTensor, mu: FourVector) -> DenseSymTensor:
    """Contraction of the last slot with the covariant mu, written out."""
    _guard(t.rank)
    if t.rank < 1:
        raise ValueError("contraction needs rank >= 1")
    c = mu.components
    mu_low = (-c[0], c[1], c[2], c[3]) if mu.variance == "upper" else c
    mu_num, mu_den = _integers(mu_low)
    num, den = _numerators(t)
    den *= mu_den
    vals = {}
    for idx in canonical_indices(t.rank - 1):
        total = 0
        for a in range(4):
            total += mu_num[a] * num.get(idx + (a,))
        vals[idx] = _quotient(total, den)
    return DenseSymTensor(t.rank - 1, vals)


def brute_transform(t: DenseSymTensor, matrix: Sequence[Sequence]) -> DenseSymTensor:
    """T'^{j1..jn} = L^{j1}_{i1}...L^{jn}_{in} T^{i1..in}, summed over all 4^n tuples (i1..in)."""
    _guard(t.rank)
    vals = {}
    for jdx in canonical_indices(t.rank):
        total = 0
        for idx in product(range(4), repeat=t.rank):
            w = 1
            for j, i in zip(jdx, idx):
                w = w * matrix[j][i]
            if w != 0:
                total = total + w * t.get(idx)
        vals[jdx] = total
    return DenseSymTensor(t.rank, vals)


# the step h of :func:`fd_mu_derivative` in each covariant component of mu
FD_STEP = 1e-5


def fd_mu_derivative(f: FFamilyElement, lam, mu: FourVector, m=1, registry=None) -> DenseSymTensor:
    """d(realize(f))/d(mu_beta) by fourth-order central differences, rank n+1 components.

    Each derivative is (8 (f(+h) - f(-h)) - (f(+2h) - f(-2h))) / (12 h) at
    h = ``FD_STEP``, whose truncation error is O(h^4).  The derivative slot is
    placed first; for elements of the family the result is totally symmetric,
    so any slot assignment must agree with the coefficient-space derivative.
    """
    mu_low = [float(c) for c in mu.lowered().components]
    shifted = []
    for beta in range(4):
        at = {}
        for off in (1, -1, 2, -2):
            comps = list(mu_low)
            comps[beta] += off * FD_STEP
            vec = FourVector(tuple(comps), "lower")
            if float(vec.gamma_sq()) <= 0:
                raise ValueError("mu lies within FD_STEP of the light cone")
            at[off] = realize(f, lam, vec, m, registry)
        shifted.append(at)
    vals = {}
    for idx in canonical_indices(f.rank + 1):
        beta, rest = idx[0], idx[1:]
        p1, m1, p2, m2 = (float(shifted[beta][off].get(rest)) for off in (1, -1, 2, -2))
        vals[idx] = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * FD_STEP)
    return DenseSymTensor(f.rank + 1, vals)


def _combination(terms: Sequence[Tuple[object, DenseSymTensor]]) -> Tuple[Dict, int]:
    """sum_k c_k T_k over integers: ({sorted index: numerator}, den), all T_k of one rank."""
    if not terms:
        return {}, 1
    # every T_k lists its components in the one canonical order of its rank
    idxs = [idx for idx, _ in terms[0][1].items()]
    scalars, den = _integers(c for c, _ in terms)
    comps, comp_den = _integers(v for _, t in terms for _, v in t.items())
    row = [0] * len(idxs)
    for k, c in enumerate(scalars):
        row = [r + c * y for r, y in zip(row, comps[k * len(idxs):(k + 1) * len(idxs)])]
    return dict(zip(idxs, row)), den * comp_den


def chain_mu_derivative(f: FFamilyElement, lam, mu: FourVector, m=1, registry=None) -> DenseSymTensor:
    """d(realize(f))/d(mu_beta) by the chain rule, derivative slot first; exact at rational states.

    realize(f) = sum_s phi_s(gamma) Y^n_s(mu) with gamma^2 = -mu.mu, so component [beta, i] is
    mu^beta S[i] + g^{beta beta} count_beta(i) W[i minus one beta], with the two rows
    S = sum_s (-phi_s'(gamma)/gamma) Y^n_s  and  W = sum_s ((n-2s)/n) phi_s Y^{n-1}_s.
    """
    n, gamma, mu_up = f.rank, timelike_gamma(mu), mu.raised().components
    live = [(s, phi) for s, phi in enumerate(f.coeffs) if not phi.is_zero()]
    slope, slope_den = _combination([
        (-phi.diff_gamma().evaluate(lam, gamma, m, registry) / gamma, gmu_basis(n, s, mu))
        for s, phi in live])
    weight, weight_den = _combination([
        (Fraction(n - 2 * s, n) * phi.evaluate(lam, gamma, m, registry), gmu_basis(n - 1, s, mu))
        for s, phi in live if n > 2 * s])
    mu_num, mu_den = _integers(mu_up)
    den = lcm(slope_den * mu_den, weight_den)
    slope_factor, weight_factor = den // (slope_den * mu_den), den // weight_den
    vals = {}
    for idx in canonical_indices(n + 1):
        # idx is sorted, so when beta recurs in the rest it leads it
        beta, rest = idx[0], idx[1:]
        total = slope_factor * mu_num[beta] * slope.get(rest, 0)
        count = rest.count(beta)
        if count:
            total += weight_factor * _G[beta][beta] * count * weight.get(rest[1:], 0)
        vals[idx] = _quotient(total, den)
    return DenseSymTensor(n + 1, vals)


# ---------------------------------------------------------------------------
# seeded random inputs


def random_sym_tensor(rank: int, rng: random.Random, rational: bool = True) -> DenseSymTensor:
    vals = {}
    for idx in canonical_indices(rank):
        if rational:
            vals[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            vals[idx] = rng.uniform(-1.0, 1.0)
    return DenseSymTensor(rank, vals)


def random_rational_timelike(rng: random.Random) -> FourVector:
    """Future timelike four-vector with rational components and rational gamma.

    Built as gamma * (cosh, sinh * unit), with cosh = (1+t^2)/(1-t^2),
    sinh = 2t/(1-t^2) for rational t in (0,1) and a rational unit 3-vector
    from the Pythagorean parametrization, so gamma_sq is an exact rational
    square.
    """
    t = Fraction(rng.randint(0, 6), 10)
    cosh = (1 + t * t) / (1 - t * t)
    sinh = 2 * t / (1 - t * t)
    p, q, r = (rng.randint(1, 5) for _ in range(3))
    den = p * p + q * q + r * r
    unit = (Fraction(2 * p * r, den), Fraction(2 * q * r, den), Fraction(p * p + q * q - r * r, den))
    gamma = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return FourVector(
        (gamma * cosh, gamma * sinh * unit[0], gamma * sinh * unit[1], gamma * sinh * unit[2]),
        "upper",
    )


def random_family_element(rank: int, rng: random.Random) -> FFamilyElement:
    """The characteristic element whose leading term is a c_0 gamma^-6 + b c_1 gamma^-8,
    with seeded nonzero rationals a and b, so it is never zero."""
    lead = ScalarExpr.zero()
    for p in range(2):
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
        lead = lead + ScalarExpr.monomial(coeff, -6 - 2 * p, 0, (p, 0))
    return FFamilyElement.from_leading(rank, lead)


def random_float_timelike(rng: random.Random) -> FourVector:
    v = [rng.uniform(-0.5, 0.5) for _ in range(3)]
    v2 = sum(x * x for x in v)
    u0 = (1.0 + v2) ** 0.5
    gamma = rng.uniform(0.5, 3.0)
    return FourVector((gamma * u0, gamma * v[0], gamma * v[1], gamma * v[2]), "upper")
