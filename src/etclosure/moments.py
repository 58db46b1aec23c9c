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
  four-velocity whose coefficients are radial integrals, all of them on one
  trapezoid grid per state (:func:`kinetic_radials`, with ``quad`` as the
  fallback), and reports the mass-shell trace residuals and the densities
  n, p, e, both read from those coefficients (:func:`kinetic_alphas`), so
  they hold at any boost.  The kinetic integrals use the positive occupancy
  f_eq(lambda, gamma E), so the densities are positive; they are not the
  multiplier-side n = gamma dH/dlambda of the equilibrium module, which
  carries the opposite sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Optional, Tuple

from .closure import ClosureSpec, ClosureTensorSet, build_closure_tensor, iter_orders
from .equilibrium import (
    QUAD_OPTIONS,
    ThermoState,
    converged,
    equilibrium_multipliers,
    lambda_multiplier,
    mass_power,
    mu_multiplier,
    project_equilibrium,
    quad,
    quad_ranges,
    radial_integrand,
    trapezoid_radials,
)
from .family import realize, realize_tail, symbol_values
from .scalar import is_batch, numpy
from .tensors import (
    DenseSymTensor,
    FourVector,
    arrangements,
    batch_safe,
    canonical_indices,
    contract_tail,
    gmu_combination,
    sym_product,
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
    Orders whose deviation product vanishes are skipped; all orders read the
    registry through one :func:`~etclosure.family.symbol_values` view, so
    each D^h c_q(lambda) is computed once.  Exact when the state and
    deviations are rational and gamma is rational.  Float64 arrays as the
    base lam, the components of the base mu or the deviation components
    evaluate a batch of states at once, returning arrays (see
    :mod:`etclosure.tensors`).
    """
    spec = state.spec
    registry = symbol_values(spec.registry, state.base.lam)
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
        tail = realize_tail(elem, state.base.lam, state.base.mu, spec.m, registry, dev)
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
    return v if is_batch(v) else float(v)


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
    and entry 2i+1 by -h.  The tensor stacks them once into its (P x 2P)
    block, and the series runs on blocks from there: traces,
    mu-contractions and symmetric products read one block and write the next
    (see :mod:`etclosure.tensors`), and the symbol values D^h c_q(lambda) are
    computed once for all orders (:func:`~etclosure.family.symbol_values`).
    So a residual makes one :func:`delta_hprime` call per non-scalar block,
    not one per point.  The stencil is where this module makes arrays, so
    numpy is imported here, on first use.  Every float operation is the one
    the point would get on its own, in the same order: rational constants
    meet the arrays as floats and powers of arrays use Python's ``pow`` per
    entry (:func:`etclosure.tensors.batch_safe`,
    :func:`etclosure.scalar.power`), so the residual is bit-identical to
    evaluating the points one by one.  With float deviations, as
    :func:`make_deviation` returns for float input, every array stays
    float64; exact deviations give the same residual through ``object``
    arrays, more slowly.

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

    np = numpy()
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


def moment_ranks(M: int, N: int) -> Tuple[int, ...]:
    """Ranks of the kinetic moments :func:`equilibrium_moments_with_traces` reads."""
    return (M + 1, N + 1, M - 1, N - 1, 1, 2)


def radial_weights(ranks) -> Tuple[Tuple[int, int], ...]:
    """Every (a, b) = (rank - j, j), j even, that the kinetic moments of ``ranks`` need."""
    return tuple(sorted({(rank - j, j) for rank in ranks for j in range(0, rank + 1, 2)}))


def _radial_scale(m, a: int, b: int) -> float:
    """m^(2 + a + b), the mass factor of radial(a, b), by :func:`mass_power`."""
    return mass_power(m, 2 + a + b, f"kinetic radial({a}, {b})")


def grid_radials(state: ThermoState, weights) -> Optional[Dict[Tuple[int, int], float]]:
    """{(a, b): radial(a, b)} on one trapezoid grid, or None where it is not accepted.

    See :func:`~etclosure.equilibrium.trapezoid_radials`: f_eq is evaluated
    once per node for every weight.
    """
    dist, m = state.dist, state.m
    lam, gm = state.lam, state.gamma * m
    upper = dist.window(lam, gm)
    integrals = trapezoid_radials(dist, lam, gm, upper, [(dist.f_eq, a, b) for a, b in weights])
    if integrals is None:
        return None
    return {(a, b): _radial_scale(m, a, b) * val for (a, b), val in zip(weights, integrals)}


def quad_radials(state: ThermoState, weights) -> Dict[Tuple[int, int], float]:
    """{(a, b): radial(a, b)} by ``quad`` over the same window, split by
    :func:`~etclosure.equilibrium.quad_ranges`."""
    dist, m = state.dist, state.m
    lam, gm = state.lam, state.gamma * m
    ranges = quad_ranges(dist.window(lam, gm))
    return {(a, b): _radial_scale(m, a, b) * sum(converged(*quad(
        radial_integrand(dist.f_eq, lam, gm, a, b), lo, hi, **QUAD_OPTIONS)) for lo, hi in ranges)
        for a, b in weights}


def kinetic_radials(state: ThermoState, ranks) -> Dict[Tuple[int, int], float]:
    """{(a, b): radial(a, b)} for every weight the kinetic moments of ``ranks`` need.

    All of them run on one trapezoid grid (:func:`grid_radials`); where that
    grid is not accepted, each runs through ``quad`` (:func:`quad_radials`).
    """
    weights = radial_weights(ranks)
    radials = grid_radials(state, weights)
    return radials if radials is not None else quad_radials(state, weights)


def kinetic_alphas(state: ThermoState, rank: int,
                   radials: Optional[Dict[Tuple[int, int], float]] = None) -> List[float]:
    """The invariant coefficients alpha_s of the equilibrium moment with `rank` momentum factors.

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
    0.0 (see :meth:`~etclosure.equilibrium.JuttnerFamily.window`).  This
    function only assembles the alpha_s: the radials come from ``radials``,
    a :func:`kinetic_radials` result, or else from one such call for this
    rank alone.
    """
    if radials is None:
        radials = kinetic_radials(state, [rank])
    alpha = [0.0] * (rank // 2 + 1)
    for j in range(0, rank + 1, 2):
        weight = 4.0 * math.pi * comb(rank, j) / (j + 1) * radials[rank - j, j]
        for s in range(j // 2 + 1):
            alpha[s] += comb(j // 2, s) * weight
    return alpha


def kinetic_moment(state: ThermoState, rank: int,
                   radials: Optional[Dict[Tuple[int, int], float]] = None) -> DenseSymTensor:
    """Equilibrium moment with `rank` momentum factors: its :func:`kinetic_alphas` on g and u."""
    alpha = kinetic_alphas(state, rank, radials)
    # float components throughout: a slot no term reaches comes back as the int 0
    return gmu_combination(rank, dict(enumerate(alpha)), state.u).map_values(float)


def trace_alphas(alpha: List[float], rank: int) -> List[float]:
    """The alpha_s of the metric trace of a rank-`rank` moment: :func:`~etclosure.family.trace`'s
    recombination at gamma = 1, since the moments combine g and the unit u."""
    n = rank - 2
    return [(4 * (s + 1) * (n - s + 2) * alpha[s + 1] - (n + 2 - 2 * s) * (n + 1 - 2 * s) * alpha[s])
            / ((n + 2) * (n + 1)) for s in range(n // 2 + 1)]


def equilibrium_moments_with_traces(state: ThermoState, spec: ClosureSpec):
    """Kinetic moment tensors of one equilibrium state plus trace residuals.

    Returns (A, B, report): the moments of rank M+1 and N+1, and a report with
    the relative residuals of the mass-shell trace chain of both (the metric
    trace of a rank r+2 moment equals -m^2 times the rank r moment) and the
    kinetic densities n, p, e.  All the radials of their ranks
    (:func:`moment_ranks`) come from one :func:`kinetic_radials` call.  Only A
    and B are realized: the chain (:func:`trace_alphas` against -m^2 alpha_s)
    and n = alpha_0 of rank 1, p = alpha_1, e = alpha_0 - alpha_1 of rank 2
    are read from the invariant coefficients, so no contraction with u cancels
    at a large boost.  On the radials' one grid cosh^2 - sinh^2 = 1 holds node
    by node, so the chain checks the assembly of the coefficients and the
    rounding of its own cancellation, not the quadrature error.
    """
    spec.check_top_order()
    radials = kinetic_radials(state, moment_ranks(spec.M, spec.N))
    msq = float(state.m) ** 2
    traces = {}
    for name, rank in (("A", spec.M + 1), ("B", spec.N + 1)):
        if rank >= 2:
            traced = trace_alphas(kinetic_alphas(state, rank, radials), rank)
            target = [-msq * a for a in kinetic_alphas(state, rank - 2, radials)]
            scale = max(*map(abs, traced), *map(abs, target), 1e-300)
            traces[name] = max(abs(t - w) for t, w in zip(traced, target)) / scale
    (n_kin,) = kinetic_alphas(state, 1, radials)
    a0, p_kin = kinetic_alphas(state, 2, radials)
    report = {"traces": traces, "kinetic": {"n": n_kin, "p": p_kin, "e": a0 - p_kin}}
    a_mom = kinetic_moment(state, spec.M + 1, radials)
    b_mom = kinetic_moment(state, spec.N + 1, radials)
    return a_mom, b_mom, report
