"""Near-equilibrium moment assembly and its numeric verification.

A full multiplier pair (rank M and rank N symmetric tensors) splits into the
equilibrium dressing of a scalar lambda and a covector mu_alpha plus
trace-free deviations (:func:`make_deviation`).  The potential deviation
Delta h'^a is the truncated Taylor series whose coefficients are the closure
tensors, contracted with tensor powers of the deviations
(:func:`delta_hprime`).  The series never realizes a closure tensor: each
order pairs the coefficient sequence of C_{h,k} with the deviation product in
closed form (:func:`etclosure.family.realize_tail`).

Three checks live here:

* :func:`first_order_symmetry` measures the symmetry of the derived moments
  at equilibrium without a step: exact at rational states (the ``verify``
  symmetry suite), round-off at float ones (the ``moments`` command).

* :func:`symmetry_residual` differentiates Delta h'^a with respect to the
  full multiplier components (projection and deviation split recomputed at
  every perturbed point, all points of a block evaluated as one batch) and
  measures how far the resulting moment tensors are from total symmetry, at
  any state.  The closure construction guarantees symmetry, so the residual
  is finite-difference noise unless a coefficient is corrupted.

* :func:`equilibrium_moments_with_traces` computes the kinetic moments of the
  equilibrium distribution, each a combination of the metric and the
  four-velocity whose coefficients are one-dimensional quadratures (over the
  radial kernel and acceptance rule of the equilibrium module), and reports
  the mass-shell trace residuals.  The kinetic integrals use the positive
  occupancy f_eq(lambda, gamma E), so the densities extracted here are
  positive; they are not the multiplier-side n = gamma dH/dlambda of the
  equilibrium module, which carries the opposite sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.integrate import quad

from .closure import ClosureSpec, ClosureTensorSet, build_closure_tensor, iter_orders
from .equilibrium import (
    QUAD_OPTIONS,
    ThermoState,
    converged,
    equilibrium_hprime,
    equilibrium_multipliers,
    lambda_multiplier,
    mu_multiplier,
    project_equilibrium,
    radial_integrand,
)
from .family import realize, realize_tail
from .tensors import (
    DenseSymTensor,
    FourVector,
    arrangements,
    batch_safe,
    canonical_indices,
    contract_mu,
    contract_tail,
    gmu_combination,
    sym_product,
    trace_pair,
)


@dataclass(frozen=True)
class MultiplierState:
    """Equilibrium base plus trace-free deviations, as :func:`make_deviation` returns them."""

    base: ThermoState
    lam_dev: DenseSymTensor
    mu_dev: DenseSymTensor
    spec: ClosureSpec

    def __post_init__(self):
        if self.lam_dev.rank != self.spec.M:
            raise ValueError(
                f"lambda deviation rank {self.lam_dev.rank} != M = {self.spec.M}"
            )
        if self.mu_dev.rank != self.spec.N:
            raise ValueError(f"mu deviation rank {self.mu_dev.rank} != N = {self.spec.N}")

    @classmethod
    def at_equilibrium(cls, base: ThermoState, spec: ClosureSpec) -> "MultiplierState":
        return cls(base, DenseSymTensor.zeros(spec.M), DenseSymTensor.zeros(spec.N), spec)


@dataclass(frozen=True)
class MomentSet:
    """The two moment tensors, the potential, and the truncation orders."""

    A: DenseSymTensor
    B: DenseSymTensor
    hprime: FourVector
    truncation: Tuple[int, int]


def _split(full: DenseSymTensor, m):
    """(projection, deviation) of a full multiplier tensor: lambda at even rank, mu at odd."""
    if full.rank % 2 == 0:
        lam, _ = project_equilibrium(full, DenseSymTensor.zeros(1), m)
        return lam, full - lambda_multiplier(lam, full.rank, m)
    _, mu = project_equilibrium(DenseSymTensor.zeros(0), full, m)
    return mu, full - mu_multiplier(mu, full.rank, m)


def make_deviation(raw: DenseSymTensor, M_or_N: int, m=1) -> DenseSymTensor:
    """Trace-free deviation: raw minus its equilibrium-shaped projection.

    The even-rank (lambda-type) projection and the odd-rank (mu-type)
    projection are inverse to the equilibrium dressing, so the result
    projects to zero exactly in rational arithmetic and the map is
    idempotent.  Rank 0 and rank 1 blocks are pure equilibrium: their
    deviations vanish identically.
    """
    if raw.rank != M_or_N:
        raise ValueError(f"rank {raw.rank} does not match declared {M_or_N}")
    if raw.rank <= 1:
        return DenseSymTensor.zeros(raw.rank)
    return _split(raw, m)[1]


# ---------------------------------------------------------------------------
# the Delta h' series


def delta_hprime(
    state: MultiplierState, tensors: Optional[ClosureTensorSet] = None
) -> FourVector:
    """Truncated series sum_{h,k} (1/h!k!) C_{h,k} . lam_dev^h . mu_dev^k.

    The closure tensor of each order is contracted with the symmetric product
    of h copies of the lambda deviation and k copies of the mu deviation over
    its trailing slots; the free slot is the output index.  The contraction
    is taken in closed form from the tensor's coefficients at the base state
    (:func:`~etclosure.family.realize_tail`), so no C_{h,k} is realized.
    Orders whose deviation product vanishes are skipped.  Exact when the
    state and deviations are rational and gamma is rational.  Float64 arrays as the base lam, the
    components of the base mu or the deviation components evaluate a batch of
    states at once, returning arrays (see :mod:`etclosure.tensors`).
    """
    spec = state.spec
    lam_pows = [DenseSymTensor.scalar(1)]
    mu_pows = [DenseSymTensor.scalar(1)]
    comps = [0, 0, 0, 0]
    for h, k in iter_orders(spec):
        if h == 0 and k == 0:
            continue
        while len(lam_pows) <= h:
            lam_pows.append(sym_product(lam_pows[-1], state.lam_dev))
        while len(mu_pows) <= k:
            mu_pows.append(sym_product(mu_pows[-1], state.mu_dev))
        dev = sym_product(lam_pows[h], mu_pows[k])
        if dev.is_zero():
            continue
        elem = tensors.get(h, k) if tensors is not None else build_closure_tensor(spec, h, k)
        tail = realize_tail(elem, state.base.lam, state.base.mu, spec.m, spec.registry, dev)
        w = Fraction(1, factorial(h) * factorial(k))
        for a in range(4):
            v = tail.get((a,))
            comps[a] = comps[a] + batch_safe(w, v) * v
    return FourVector(tuple(comps), "upper")


# ---------------------------------------------------------------------------
# symmetry of the derived moments


def _group_spreads(rows: Dict[Tuple[int, ...], list]) -> Dict[Tuple[int, ...], object]:
    """Each sorted (a,) + i group of the values rows[i][a]: its max - min over the
    largest |value| of all rows (over 1 when every value is 0, so that it reads 0)."""
    groups: Dict[Tuple[int, ...], list] = {}
    for idx, row in rows.items():
        for a, value in enumerate(row):
            groups.setdefault(tuple(sorted((a,) + idx)), []).append(value)
    scale = max(abs(v) for row in rows.values() for v in row) or 1
    return {group: (max(vals) - min(vals)) / scale for group, vals in groups.items()}


# the first-order closure tensor of each multiplier block
FIRST_ORDER = {"lambda": (1, 0), "mu": (0, 1)}


def first_order_symmetry(
    tensors: ClosureTensorSet, lam, mu: FourVector
) -> Dict[str, Dict[Tuple[int, ...], object]]:
    """Relative index-group spreads of the derived moments at equilibrium, keyed by checked block.

    The deviation split is linear and every deviation is 0 at equilibrium, so
    d(Delta h'^a)/d(full multiplier component e_i) is the one contraction of
    the block's first-order tensor, realized at (lam, mu), with
    make_deviation(e_i).  Divided by the arrangement count of i, every value
    of one sorted (a,)+i group must be equal; a group's spread is max - min
    over the block's largest value, exactly 0 at a rational state unless a
    coefficient is corrupted.  A block whose tensor is outside the set is left out.
    """
    spec = tensors.spec
    out = {}
    for block, key in FIRST_ORDER.items():
        if key not in tensors.tensors:
            continue
        rank = spec.M if block == "lambda" else spec.N
        realized = realize(tensors.get(*key), lam, mu, spec.m, spec.registry)
        rows = {}
        for idx in canonical_indices(rank):
            unit = make_deviation(DenseSymTensor(rank, {idx: 1}), rank, spec.m)
            tail = contract_tail(realized, unit)
            rows[idx] = [Fraction(1, arrangements(idx)) * tail.get((a,)) for a in range(4)]
        out[block] = _group_spreads(rows)
    return out


def _as_float(v):
    return v if isinstance(v, np.ndarray) else float(v)


def series_at(
    state: MultiplierState, block: str, full: DenseSymTensor, tensors: ClosureTensorSet
) -> FourVector:
    """Delta h'^a with the ``block`` ("lam" or "mu") multiplier tensor replaced by ``full``.

    The equilibrium projection and the deviation split of that block are
    recomputed from ``full``; the other block keeps the state's own.  ``full``
    may be one tensor or a float64 batch, whose entries then come back as the
    entries of each component.
    """
    spec = state.spec
    m = spec.m
    lam, mu = state.base.lam, state.base.mu.lowered()
    lam_dev, mu_dev = state.lam_dev, state.mu_dev
    if block == "lam":
        lam, lam_dev = _split(full, m)
    else:
        mu, mu_dev = _split(full, m)
    mu = FourVector(tuple(_as_float(c) for c in mu.components), "lower")
    base = replace(state.base, lam=_as_float(lam), mu=mu, m=float(m))
    return delta_hprime(MultiplierState(base, lam_dev, mu_dev, spec), tensors)


def symmetry_residual(
    state: MultiplierState,
    step: float = 1e-4,
    tensors: Optional[ClosureTensorSet] = None,
) -> float:
    """Asymmetry of d(Delta h'^a)/d(multiplier components), relative, by finite differences.

    Each canonical component of the full rank-M and rank-N multiplier tensors
    is perturbed coherently (all index arrangements together); the
    equilibrium projection and the deviation split of the perturbed block are
    recomputed at every perturbed point, so this differentiates the genuine
    composite map.  The other block keeps the state's own projection and
    deviation, which its split returns exactly when the deviations project
    to zero (:func:`make_deviation`); else the blocks' base points differ.  The
    central-difference derivative divided by the arrangement count is the
    slot-wise derivative, and the assembled (rank+1) arrays must be totally
    symmetric.  Returns the worst relative mismatch over both blocks, or NaN
    when a derivative is not finite, so that ``residual <= tol`` fails.

    The stencil of a block with P canonical components has 2P points, and
    they go through :func:`series_at` together: one tensor whose components
    are float64 arrays of length 2P, entry 2i holding component i moved by +h
    and entry 2i+1 by -h.  So a residual makes one :func:`delta_hprime` call
    per non-scalar block, not one per point.  Every float operation is the one
    the point would get on its own, in the same order: rational constants meet
    the arrays as floats and powers of arrays use Python's ``pow`` per entry
    (:func:`etclosure.tensors.batch_safe`, :func:`etclosure.scalar.power`), so
    the residual is bit-identical to evaluating the points one by one.  With
    float deviations, as :func:`make_deviation` returns for float input, every
    array stays float64; exact deviations give the same residual through
    ``object`` arrays, more slowly.

    The trace and derivative descent between adjacent coefficient tensors
    makes every order below the truncation cancel exactly, so the residual
    of an intact series scales as the square of the deviation size (the
    first omitted order); keep deviations small relative to the equilibrium
    multipliers when interpreting the absolute number.
    """
    spec = state.spec
    if tensors is None:
        tensors = ClosureTensorSet.build(spec)
    eq_lam, eq_mu = equilibrium_multipliers(
        state.base.lam, state.base.mu, spec.M, spec.N, spec.m
    )
    full_lam = (eq_lam + state.lam_dev).map_values(float)
    full_mu = (eq_mu + state.mu_dev).map_values(float)

    worst = 0.0
    for block, tensor in (("lam", full_lam), ("mu", full_mu)):
        if tensor.rank == 0:
            continue
        entries = tensor.items()
        width = 2 * len(entries)
        steps = [step * max(1.0, abs(center)) for _, center in entries]
        stencil = {}
        for i, (bidx, center) in enumerate(entries):
            col = np.full(width, center)
            col[2 * i] = center + steps[i]
            col[2 * i + 1] = center - steps[i]
            stencil[bidx] = col
        g = series_at(state, block, DenseSymTensor(tensor.rank, stencil), tensors)
        rows = [np.broadcast_to(c, (width,)).tolist() for c in g.components]
        derivs = {}
        for i, (bidx, _) in enumerate(entries):
            denom = 2.0 * steps[i] * arrangements(bidx)
            derivs[bidx] = [(row[2 * i] - row[2 * i + 1]) / denom for row in rows]
        if not all(math.isfinite(d) for row in derivs.values() for d in row):
            return math.nan  # max() would drop a NaN and read a perfect pass
        worst = max(worst, max(_group_spreads(derivs).values()))
    return worst


# ---------------------------------------------------------------------------
# kinetic moments at equilibrium


def kinetic_moment(state: ThermoState, rank: int, _cache: Optional[dict] = None) -> DenseSymTensor:
    """Equilibrium moment with `rank` momentum factors, as one combination of g and u.

    On the mass shell p = m cosh x u + m sinh x w, with w a unit vector
    orthogonal to u, and the invariant measure is m^2 sinh^2 x dx dOmega(w).
    The sphere average of (w.y)^j is |y|^j/(j+1) at even j and 0 at odd j,
    and the part of x orthogonal to u has |y|^2 = x.x + (u.x)^2, so the
    moment's polynomial, the integral of f_eq (p.x)^rank, is the basis
    combination sum_s alpha_s (x.x)^s (u.x)^(rank-2s)
    (:func:`~etclosure.tensors.gmu_combination`) with

        alpha_s = 4 pi sum_{even j >= 2s} C(rank, j) C(j/2, s)/(j+1) radial(rank-j, j),
        radial(a, b) = m^(2+a+b) * integral_0^R f_eq(lambda, gamma m cosh x)
                       cosh^a x sinh^(b+2) x dx,

    with R = ``dist.window(lambda, gamma m)``, past which f_eq reads exactly
    0.0 (see :meth:`~etclosure.equilibrium.JuttnerFamily.window`).
    """
    dist = state.dist
    cache = _cache if _cache is not None else {}
    lam, gm = state.lam, state.gamma * state.m
    upper = dist.window(lam, gm)

    def radial(a: int, b: int) -> float:
        key = (a, b)
        if key not in cache:
            integrand = radial_integrand(dist.f_eq, lam, gm, a, b)
            val = converged(*quad(integrand, 0.0, upper, **QUAD_OPTIONS))
            cache[key] = state.m ** (2 + a + b) * val
        return cache[key]

    alpha = [0.0] * (rank // 2 + 1)
    for j in range(0, rank + 1, 2):
        weight = 4.0 * math.pi * comb(rank, j) / (j + 1) * radial(rank - j, j)
        for s in range(j // 2 + 1):
            alpha[s] += comb(j // 2, s) * weight
    # float components throughout: a slot no term reaches comes back as the int 0
    return gmu_combination(rank, dict(enumerate(alpha)), state.u).map_values(float)


def equilibrium_moments_with_traces(state: ThermoState, spec: ClosureSpec):
    """Kinetic moment tensors of one equilibrium state plus trace residuals.

    Returns (MomentSet, report).  The report carries the relative residuals
    of the mass-shell trace chain (metric trace of a rank r+2 moment equals
    -m^2 times the rank r moment) for both moment tensors, and the kinetic
    densities n, p, e extracted from the low-rank moments.
    """
    spec.check_top_order()
    cache: dict = {}
    a_mom = kinetic_moment(state, spec.M + 1, cache)
    b_mom = kinetic_moment(state, spec.N + 1, cache)
    hp, _, _ = equilibrium_hprime(state)
    mset = MomentSet(a_mom, b_mom, hp, (spec.h_max, spec.k_max))

    msq = float(state.m) ** 2
    report = {
        "traces": {},
        "kinetic": {},
        "orders": {"M": spec.M, "N": spec.N},
    }
    for name, mom in (("A", a_mom), ("B", b_mom)):
        if mom.rank < 2:
            continue
        lower = kinetic_moment(state, mom.rank - 2, cache)
        traced = trace_pair(mom)
        target = lower.scale(-msq)
        scale = max(traced.max_abs(), target.max_abs(), 1e-300)
        report["traces"][name] = (traced - target).max_abs() / scale

    t1 = kinetic_moment(state, 1, cache)
    t2 = kinetic_moment(state, 2, cache)
    n_kin = -contract_mu(t1, state.u).get(())
    e_kin = contract_mu(contract_mu(t2, state.u), state.u).get(())
    p_kin = (trace_pair(t2).get(()) + e_kin) / 3.0
    report["kinetic"] = {"n": n_kin, "p": p_kin, "e": e_kin}
    return mset, report
