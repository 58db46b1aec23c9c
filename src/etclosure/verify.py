"""Verification suites: the package's claims, runnable as one harness.

Each suite returns a :class:`SuiteResult` with case and failure counts, the
worst residual seen, and replayable failure payloads.  Exact suites (all
but equilibrium and kinetic) compare exact values or canonical forms and
record residual 0.0 or 1.0; the two quadrature suites record the worst
relative residual against their tolerance.

The suites that read closure tensors take them from one set, the config's
truncation (:attr:`VerifyConfig.tensors`).  The mutation harness corrupts
coefficients of a copy of that set before such a suite runs; a healthy
harness must then fail, which is the negative control wired to
`verify --mutate`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from .closure import (
    ClosureSpec,
    ClosureTensorSet,
    closure_coeff_N1,
    derive_C_from_E,
    verify_compatibility,
)
from .equilibrium import (
    STATISTICS,
    H_derivatives,
    JuttnerFamily,
    ThermoState,
    bessel_series,
    equilibrium_multipliers,
    project_equilibrium,
    thermo_with_residuals,
)
from .family import (
    CharacteristicError,
    FFamilyElement,
    check_characteristic,
    lift,
    mu_derivative,
    basis_mu_contraction,
    realize,
    timelike_gamma,
    trace,
)
from .moments import (
    FIRST_ORDER,
    equilibrium_moments_with_traces,
    first_order_symmetry,
    grid_radials,
    moment_ranks,
    radial_weights,
)
from .oracle import (
    brute_mu_contract,
    brute_realize_basis,
    brute_symmetrize,
    brute_trace,
    chain_mu_derivative,
    random_family_element,
    random_float_timelike,
    random_rational_timelike,
    random_sym_tensor,
)
from .scalar import FunctionRegistry, ScalarExpr, SingularRatioError
from .tensors import (
    contract_mu,
    gmu_basis,
    gmu_combination,
    symmetrize,
    trace_pair,
)


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs shared by all suites.

    A truncation whose top order passes the rank cap raises
    :class:`~etclosure.closure.RankCapError` here, before any suite runs,
    whichever suites would run.
    """

    M: int = 2
    N: int = 1
    h_max: int = 2
    k_max: int = 2
    seed: int = 0
    mutate: int = 0
    tol: Optional[float] = None

    def __post_init__(self):
        self.spec.check_top_order()
        if self.mutate < 0:
            raise ValueError(f"mutate must be non-negative, got {self.mutate}")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")

    @functools.cached_property
    def spec(self) -> ClosureSpec:
        """The truncation, with the seed's polynomial c_q and m = 1."""
        return ClosureSpec(self.M, self.N, h_max=self.h_max, k_max=self.k_max,
                           registry=FunctionRegistry.polynomials(self.seed), m=1)

    def tolerance(self, default: float) -> float:
        return self.tol if self.tol is not None else default

    @functools.cached_property
    def tensors(self) -> ClosureTensorSet:
        """The closure tensors at every order of the truncation, built once
        (:func:`~etclosure.closure.iter_orders`)."""
        return ClosureTensorSet.build(self.spec)


@dataclass
class SuiteResult:
    """Outcome of one suite.

    `route` says how the suite decides: "exact" (exact values or canonical
    forms compared for equality, tolerance 0) or "quadrature"; `tolerance` is
    the bound its residuals were held to, after any ``--tol`` override.
    `blocks`, set by the symmetry suite alone, says which multiplier blocks it
    "checked" and which it left "unchecked".  `orders`, set by characteristic,
    cross_route and compatibility, lists the orders they checked; `ranks`, set
    by derivative alone, lists the ranks it checked.  `max_residual_by_op`,
    set by the quadrature suites, holds the largest residual of each case
    kind (the ``op`` of its detail), which ``max_residual`` folds together.
    """

    name: str
    cases: int = 0
    failures: int = 0
    max_residual: float = 0.0
    seed: int = 0
    failed_cases: List[dict] = field(default_factory=list)
    tolerance: float = 0.0
    route: str = "exact"
    blocks: Optional[Dict[str, str]] = None
    orders: Optional[List[tuple]] = None
    ranks: Optional[List[int]] = None
    max_residual_by_op: Optional[Dict[str, float]] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, residual: float, detail: Optional[dict] = None) -> None:
        self.cases += 1
        self.max_residual = max(self.max_residual, residual)
        if self.max_residual_by_op is not None:
            op = detail["op"]
            self.max_residual_by_op[op] = max(self.max_residual_by_op.get(op, 0.0), residual)
        if not ok:
            self.failures += 1
            if detail is not None and len(self.failed_cases) < 20:
                self.failed_cases.append(detail)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "max_residual": self.max_residual,
            "seed": self.seed,
            "failed_cases": self.failed_cases,
            "tolerance": self.tolerance,
            "route": self.route,
            **({} if self.blocks is None else {"blocks": self.blocks}),
            **({} if self.orders is None else {"orders": [list(hk) for hk in self.orders]}),
            **({} if self.ranks is None else {"ranks": self.ranks}),
            **({} if self.max_residual_by_op is None
               else {"max_residual_by_op": self.max_residual_by_op}),
        }


def mutate_tensor_set(
    tensors: ClosureTensorSet,
    rng: random.Random,
    count: int = 1,
    orders: Optional[Sequence[tuple]] = None,
    skip_pure_metric: bool = False,
) -> ClosureTensorSet:
    """Copy of the set with one nonzero phi_s of `count` chosen tensors scaled.

    Draw j scales by (11+j)/10, so two draws never scale one tensor uniformly.
    The input set is left untouched.  `orders` restricts the candidate (h, k)
    keys.  `skip_pure_metric` leaves out the pure-metric s = n/2 of an even rank, which
    in a first-order tensor meets only the full trace of a deviation, and that is 0.
    """

    def choices(el: FFamilyElement) -> List[int]:
        return [s for s, phi in enumerate(el.coeffs)
                if not phi.is_zero() and not (skip_pure_metric and 2 * s == el.rank)]

    pool = dict(tensors.tensors)
    keys = sorted(key for key, el in pool.items() if choices(el) and (orders is None or key in orders))
    if not keys:
        raise ValueError("nothing to mutate: no nonzero tensor among the candidates")
    for j in range(count):
        key = keys[rng.randrange(len(keys))]
        el = pool[key]
        s_choices = choices(el)
        s = s_choices[rng.randrange(len(s_choices))]
        coeffs = list(el.coeffs)
        coeffs[s] = coeffs[s].scale(Fraction(11 + j, 10))
        pool[key] = FFamilyElement(el.rank, coeffs)
    return ClosureTensorSet(tensors.spec, pool)


def _suite_tensors(cfg: VerifyConfig, rng: random.Random, **kw) -> ClosureTensorSet:
    """The config's tensor set, or under `--mutate` a corrupted copy of it."""
    return mutate_tensor_set(cfg.tensors, rng, cfg.mutate, **kw) if cfg.mutate else cfg.tensors


# ---------------------------------------------------------------------------
# suites


def suite_characteristic(cfg: VerifyConfig) -> SuiteResult:
    """Descent relation holds for every closure tensor of the truncation."""
    res = SuiteResult("characteristic", seed=cfg.seed)
    tensors = _suite_tensors(cfg, random.Random(cfg.seed))
    res.orders = list(tensors.tensors)
    for (h, k), elem in tensors.tensors.items():
        ok, residuals = check_characteristic(elem)
        res.record(ok, 0.0 if ok else 1.0,
                   {"M": cfg.M, "N": cfg.N, "h": h, "k": k,
                    "bad_s": [i + 1 for i, r in enumerate(residuals) if not r.is_zero()]})
    return res


def suite_cross_route(cfg: VerifyConfig) -> SuiteResult:
    """Closed-form coefficients equal a second route exactly, at every order of the truncation.

    The recursive construction when N >= 3; at N = 1 the single-vector closed
    form, the general one's k = 0 reduction, at every h >= 1.
    """
    res = SuiteResult("cross_route", seed=cfg.seed)
    tensors = _suite_tensors(cfg, random.Random(cfg.seed))
    res.orders = [(h, k) for h, k in tensors.tensors if cfg.N >= 3 or h >= 1]
    for h, k in res.orders:
        direct = tensors.get(h, k)
        if cfg.N >= 3:
            ok = direct == derive_C_from_E(tensors.spec, h, k)
            res.record(ok, 0.0 if ok else 1.0, {"route": "recursive", "h": h, "k": k})
        else:
            for s, phi in enumerate(direct.coeffs):
                ok = phi == closure_coeff_N1(cfg.M, h, s)
                res.record(ok, 0.0 if ok else 1.0, {"route": "k0-reduction", "h": h, "s": s})
    return res


def suite_compatibility(cfg: VerifyConfig) -> SuiteResult:
    """Trace-vs-derivative descent to each next order inside the truncation, exact."""
    res = SuiteResult("compatibility", seed=cfg.seed, orders=[])
    tensors = _suite_tensors(cfg, random.Random(cfg.seed))
    for h, k in tensors.tensors:
        conds = [cond for cond, nxt in (("lambda", (h + 1, k)), ("mu", (h, k + 1)))
                 if nxt in tensors.tensors]
        if not conds:
            continue
        res.orders.append((h, k))
        try:
            report = verify_compatibility(tensors.spec, h, k, tensors=tensors)
        except CharacteristicError:
            # a corrupted tensor has no well-defined mu-derivative; that is
            # a detected incompatibility, not a harness error
            for cond in conds:
                res.record(False, 1.0, {"condition": cond, "h": h, "k": k,
                                        "error": "characteristic"})
            continue
        for cond in conds:
            ok = bool(report[f"{cond}_ok"])
            res.record(ok, 0.0 if ok else 1.0, {"condition": cond, "h": h, "k": k})
    return res


def suite_oracle(cfg: VerifyConfig) -> SuiteResult:
    """Coefficient-space operations agree with brute-force components."""
    res = SuiteResult("oracle", seed=cfg.seed)
    rng = random.Random(cfg.seed)

    # symmetrize vs literal permutation average
    for rank in (0, 1, 2, 3, 4, 5):
        raw = {}
        for idx in itertools.product(range(4), repeat=rank):
            raw[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        ok = symmetrize(raw, rank=rank) == brute_symmetrize(raw, rank=rank)
        res.record(ok, 0.0 if ok else 1.0, {"op": "symmetrize", "rank": rank})

    # basis realization vs brute permutation average
    for n, s in ((2, 0), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (6, 2)):
        mu = random_rational_timelike(rng)
        ok = gmu_basis(n, s, mu) == brute_realize_basis(n, s, mu)
        res.record(ok, 0.0 if ok else 1.0, {"op": "basis", "n": n, "s": s})

    # tensor-level trace and contraction
    for rank in (2, 3, 4, 5):
        t = random_sym_tensor(rank, rng)
        mu = random_rational_timelike(rng)
        ok = trace_pair(t) == brute_trace(t)
        res.record(ok, 0.0 if ok else 1.0, {"op": "trace_pair", "rank": rank})
        ok = contract_mu(t, mu) == brute_mu_contract(t, mu)
        res.record(ok, 0.0 if ok else 1.0, {"op": "contract_mu", "rank": rank})

    # coefficient-space trace of family elements vs brute component trace
    reg = cfg.spec.registry
    for n in (4, 5, 6):
        elem = random_family_element(n, rng)
        mu = random_rational_timelike(rng)
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        ok = realize(trace(elem), lam, mu, 1, reg) == brute_trace(realize(elem, lam, mu, 1, reg))
        res.record(ok, 0.0 if ok else 1.0, {"op": "family_trace", "n": n})

    # contraction table of the maximal-metric element; the r-fold brute
    # contraction is one more contraction of the (r-1)-fold one
    for n in (2, 4, 6):
        mu = random_rational_timelike(rng)
        gamma = timelike_gamma(mu)
        lhs = gmu_basis(n, n // 2)
        for r in range(1, n + 1):
            lhs = brute_mu_contract(lhs, mu)
            coeffs = basis_mu_contraction(n, r)
            rhs = gmu_combination(n - r, {s: phi.evaluate(0, gamma, 1)
                                          for s, phi in enumerate(coeffs) if not phi.is_zero()}, mu)
            ok = lhs == rhs
            res.record(ok, 0.0 if ok else 1.0, {"op": "mu_contraction_table", "n": n, "r": r})

    # single-contraction identity: top element eats one mu
    for n in (4, 6):
        mu = random_rational_timelike(rng)
        lhs = brute_mu_contract(gmu_basis(n, n // 2), mu)
        ok = lhs == gmu_basis(n - 1, (n - 2) // 2, mu)
        res.record(ok, 0.0 if ok else 1.0, {"op": "single_contraction", "n": n})
    return res


def suite_roundtrip(cfg: VerifyConfig) -> SuiteResult:
    """Equilibrium multiplier round-trip and lift/trace inversion, exact."""
    res = SuiteResult("roundtrip", seed=cfg.seed)
    rng = random.Random(cfg.seed)

    for M in (0, 2, 4, 6):
        for N in (1, 3, 5):
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            mu = random_rational_timelike(rng)
            m = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            lam_t, mu_t = equilibrium_multipliers(lam, mu, M, N, m)
            lam_back, mu_back = project_equilibrium(lam_t, mu_t, m)
            ok = lam_back == lam and tuple(mu_back.components) == tuple(
                mu.lowered().components
            )
            res.record(ok, 0.0 if ok else 1.0, {"op": "multiplier_roundtrip", "M": M, "N": N})

    reg = cfg.spec.registry
    produced = 0
    attempts = 0
    while produced < 50 and attempts < 500:
        attempts += 1
        n = rng.randint(1, 4)
        r = rng.randint(1, 2)
        half = n // 2
        # admissible exponents sit outside the resonant band [n-half-1, n-half+r-2]
        p_pool = [p for p in range(0, 8) if p < n - half - 1 or p > n - half + r - 2]
        lead = ScalarExpr.zero()
        for p in rng.sample(p_pool, k=min(2, len(p_pool))):
            lead = lead + ScalarExpr.monomial(
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)), -6 - 2 * p, 0, (rng.randint(0, 3), 0)
            )
        if lead.is_zero():
            continue
        elem = FFamilyElement.from_leading(n, lead)
        free = None
        if rng.random() < 0.5:
            free = [
                ScalarExpr.monomial(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), 0, 0, (rng.randint(0, 3), 0))
                for _ in range(r)
            ]
        lifted = lift(elem, r, free=free)
        back = lifted
        for _ in range(r):
            back = trace(back)
        ok = back == elem
        res.record(ok, 0.0 if ok else 1.0,
                   {"op": "lift_trace", "n": n, "r": r, "attempt": attempts})
        produced += 1

    # resonant exponents must raise, never return a wrong value
    for n, r in ((2, 1), (3, 1), (4, 1), (2, 2), (4, 2)):
        half = n // 2
        band = range(max(0, n - half - 1), n - half + r - 1)
        for p in band:
            elem = FFamilyElement.from_leading(
                n, ScalarExpr.monomial(Fraction(1), -6 - 2 * p, 0, (0, 0))
            )
            try:
                lift(elem, r)
                ok = False
            except SingularRatioError:
                ok = True
            res.record(ok, 0.0 if ok else 1.0, {"op": "lift_resonance", "n": n, "r": r, "p": p})
    return res


def suite_derivative(cfg: VerifyConfig) -> SuiteResult:
    """Coefficient-space mu derivative equals the chain rule on realize, exactly.

    One seeded element per rank up to the truncation's top rank, at its own
    rational state: beyond the characteristic relation, which the characteristic
    suite checks, this does not depend on the element, so no closure tensor is
    read.  :func:`~etclosure.oracle.chain_mu_derivative` avoids the coefficient recursion.
    """
    res = SuiteResult("derivative", seed=cfg.seed)
    rng = random.Random(cfg.seed)
    spec = cfg.spec
    res.ranks = list(range(1, spec.rank(*spec.top_order) + 1))
    for n in res.ranks:
        elem = random_family_element(n, rng)
        mu = random_rational_timelike(rng)
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        exact = realize(mu_derivative(elem), lam, mu, 1, spec.registry)
        ok = exact == chain_mu_derivative(elem, lam, mu, 1, spec.registry)
        res.record(ok, 0.0 if ok else 1.0, {"op": "chain_mu", "rank": n})
    return res


def suite_symmetry(cfg: VerifyConfig) -> SuiteResult:
    """Moment symmetry of the Delta h' series, exactly, by linearity at equilibrium.

    :func:`~etclosure.moments.first_order_symmetry` at three seeded rational
    states must read exactly 0.  `--mutate` corrupts only the checked first-order tensors.
    """
    res = SuiteResult("symmetry", seed=cfg.seed, blocks=dict.fromkeys(FIRST_ORDER, "unchecked"))
    rng = random.Random(cfg.seed)
    tensors = _suite_tensors(cfg, rng, orders=list(FIRST_ORDER.values()), skip_pure_metric=True)
    for case in range(3):
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        mu = random_rational_timelike(rng)
        for block, groups in first_order_symmetry(tensors, lam, mu).items():
            res.blocks[block] = "checked"
            bad = [group for group, spread in groups.items() if spread]
            res.record(not bad, 1.0 if bad else 0.0,
                       {"op": "symmetry", "block": block, "case": case, "lambda": lam,
                        "mu": list(mu.components), "groups": bad[:5]})
    return res


# the bound on the trapezoid grid against the Bessel series, in both quadrature suites:
# at seeds 0-39 and (M,N) = (2,1), (2,3), (4,1), (4,3), (2,5) the worst residuals read
# 3.9e-16 (H_derivatives) and 3.7e-16 (cross_route)
KINETIC_CROSS_ROUTE_TOL = 1e-12


def suite_equilibrium(cfg: VerifyConfig) -> SuiteResult:
    """Trapezoid H vs the Bessel series; Gibbs and integrability residuals.

    The trapezoid route the commands print (:func:`H_derivatives`) is checked
    against :func:`bessel_series`, which reads no occupancy code, for every
    statistics, to KINETIC_CROSS_ROUTE_TOL (or a tighter ``--tol``); the
    nondegenerate triple is the centre of the Gibbs stencil, and its series
    is the closed form 4 pi/gamma m^3 e^{-lambda} K_1(z)/z.
    """
    tol = cfg.tolerance(1e-8)
    series_tol = min(tol, KINETIC_CROSS_ROUTE_TOL)
    res = SuiteResult("equilibrium", seed=cfg.seed, tolerance=tol, route="quadrature",
                      max_residual_by_op={})
    lam = 1.0
    for z in (0.1, 1.0, 10.0):
        centre, gibbs, integrability = thermo_with_residuals(ThermoState.rest(lam, z, 1.0))
        for stats in STATISTICS:
            got = ((centre.H, centre.H_lambda, centre.H_gamma) if stats == "nondegenerate"
                   else H_derivatives(JuttnerFamily(stats), lam, z, 1.0))
            want, _ = bessel_series(stats, lam, z, 1.0)
            rel = max(abs(g - w) / abs(w) for g, w in zip(got, want))
            res.record(rel <= series_tol, rel, {"op": "H_derivatives", "statistics": stats, "z": z,
                                                "tolerance": series_tol})
        res.record(gibbs <= tol, gibbs, {"op": "gibbs", "z": z})
        res.record(integrability <= tol, integrability, {"op": "integrability", "z": z})
    return res


def suite_kinetic(cfg: VerifyConfig) -> SuiteResult:
    """The kinetic radials by two routes, and the mass-shell trace chain.

    The moments the commands print take their radial integrals from one
    trapezoid grid per state (:func:`~etclosure.moments.kinetic_radials`).
    The ``cross_route`` case checks every radial weight of the suite's pairs
    on that grid against the Bessel series (:func:`bessel_series`), which
    reads no occupancy code, for each statistics at the suite's rest state,
    to KINETIC_CROSS_ROUTE_TOL (or a tighter ``--tol``); a grid that is not
    accepted there fails it.  The trace chain (metric trace of a rank r+2
    moment equals -m^2 times the rank r moment) runs on the grid's radials:
    cosh^2 - sinh^2 = 1 holds node by node, so the chain checks the assembly
    of the moments from the radials and the rounding of its own
    cancellation, not the quadrature error.  It runs for the nondegenerate
    family at rest and at a seeded boosted state, at (0, 1) and the suite's
    pair, and for fermions and bosons at rest at the suite's pair.
    """
    tol = cfg.tolerance(1e-8)
    cross_tol = min(tol, KINETIC_CROSS_ROUTE_TOL)
    res = SuiteResult("kinetic", seed=cfg.seed, tolerance=tol, route="quadrature",
                      max_residual_by_op={})
    rng = random.Random(cfg.seed)
    pairs = [(0, 1)]
    if (cfg.M, cfg.N) != (0, 1):
        pairs.append((cfg.M, cfg.N))
    weights = radial_weights([rank for pair in pairs for rank in moment_ranks(*pair)])
    for stats in STATISTICS:
        state = ThermoState.rest(0.5, 1.3, 1.0, statistics=stats)
        grid = grid_radials(state, weights)
        if grid is None:
            rel = math.inf
        else:
            _, want = bessel_series(stats, state.lam, state.gamma, state.m, weights)
            rel = max(abs(grid[w] - v) / abs(v) for w, v in zip(weights, want))
        res.record(rel <= cross_tol, rel, {"op": "cross_route", "statistics": stats,
                                           "tolerance": cross_tol})
    chains = [(pair, "nondegenerate", boosted) for pair in pairs for boosted in (False, True)]
    chains += [(pairs[-1], stats, False) for stats in ("fermion", "boson")]
    specs = {(M, N): ClosureSpec(M, N, h_max=cfg.h_max, k_max=cfg.k_max) for M, N in pairs}
    for (M, N), stats, boosted in chains:
        if boosted:
            state = ThermoState(0.5, random_float_timelike(rng), 1.0, statistics=stats)
        else:
            state = ThermoState.rest(0.5, 1.3, 1.0, statistics=stats)
        _, _, report = equilibrium_moments_with_traces(state, specs[M, N])
        for name, rel in report["traces"].items():
            res.record(rel <= tol, rel,
                       {"op": "trace_chain", "M": M, "N": N, "tensor": name,
                        "boosted": boosted, "statistics": stats})
    return res


SUITES: Dict[str, Callable[[VerifyConfig], SuiteResult]] = {
    "characteristic": suite_characteristic,
    "cross_route": suite_cross_route,
    "compatibility": suite_compatibility,
    "oracle": suite_oracle,
    "roundtrip": suite_roundtrip,
    "derivative": suite_derivative,
    "symmetry": suite_symmetry,
    "equilibrium": suite_equilibrium,
    "kinetic": suite_kinetic,
}


def run_suites(names: Optional[Sequence[str]] = None, cfg: Optional[VerifyConfig] = None):
    """Run the named suites (all when none are named) in order.

    Every name is checked before any suite runs, so a typo costs no work.
    """
    cfg = cfg or VerifyConfig()
    chosen = list(SUITES) if not names else list(names)
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    return [SUITES[name](cfg) for name in chosen]
