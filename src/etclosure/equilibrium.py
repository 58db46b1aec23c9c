"""Equilibrium thermodynamics: multipliers, the scalar potential H, state functions.

The equilibrium state is a scalar multiplier lambda and a timelike covector
mu_alpha; the full multiplier tensors at equilibrium are metric dressings of
these (:func:`equilibrium_multipliers`) and the inverse projection
(:func:`project_equilibrium`) recovers them exactly in rational arithmetic.

The potential h'^alpha = H(lambda, gamma) mu^alpha is generated by a
distribution-family antiderivative F through a one-dimensional quadrature
(:func:`H_derivatives`); state functions follow algebraically
(:func:`state_functions`) and the Gibbs relation and the change-of-variables
integrability condition hold identically, so their finite-difference
residuals measure only numerical error (the ``equilibrium`` command prints
the Gibbs one; ``verify`` checks H and both derivatives against the Bessel
series instead, which implies both identities).

Every radial integral, H with dH/dlambda and dH/dgamma (:func:`H_derivatives`)
and the weights of the kinetic moments
(:func:`etclosure.moments.kinetic_radials`), runs on one trapezoid kernel
over the family's window (:func:`trapezoid_radials_many`), all the weights of
a state on one grid: the integrands are even in the rapidity and analytic in a
strip around the real axis, so the rule converges geometrically once its step
is well inside that strip.  The kernel samples its nodes as numpy arrays over
states x nodes, every node of the 64-interval grid in its first pass, so the
nine points of the Gibbs stencil (:func:`H_derivatives_many`) cost one pass.
numpy's vectorised exp and cosh may differ from libm in the last bit, so
printed values can differ between machines in their last digits; a state
reads the same bits alone as in a batch.  Where no grid is accepted
(degenerate fermions, bosons near condensation) each integral falls back to
``quad``.  Every ``quad`` integral (those fallbacks and the half-line
:func:`H_from_distribution`) runs over one kernel (:func:`radial_integrand`)
under one acceptance rule (:func:`converged`) through one entry point
(:func:`quad`).  The ``verify`` suites check the grid against the Bessel-K
series (:func:`bessel_series`, every statistics, lambda + gamma m >= 0.5),
which reads no occupancy code and takes its e^w K_nu(w) from its own
trapezoid rows (:func:`_scaled_bessel_k`).  ``scipy.integrate`` is imported
on the first ``quad`` call, not with the module, and ``scipy.special`` only
by the tests' closed form (:func:`mj_closed_form_H`): no command loads any
scipy module unless a grid is rejected and ``quad`` runs.  numpy is
imported on the first grid (:func:`trapezoid_radials_many`, the array form
``F_and_f_eq`` of each family, and the first pass's nodes,
:func:`_first_pass`), by the series and by a boson state's check, not with
the module, so the exact closure path never loads it.

Units are natural: k_B = c = 1 and the occupancy's amplitude w/h^3 = 1, so
T = 1/gamma and every occupancy depends on lambda + gamma m cosh r alone.

Sign convention: H here multiplies the multiplier covector mu_alpha directly,
so for the nondegenerate family H = p > 0 while n = gamma dH/dlambda < 0
(the generating F is negative and decreasing in lambda). The kinetic-side
moments with their own positive densities live in the moments module.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, List, Tuple

from .scalar import double_factorial, numpy
from .tensors import (
    DenseSymTensor,
    FourVector,
    batch_safe,
    gmu_basis,
    gmu_combination,
    metric_flip,
    trace_pair,
)

if TYPE_CHECKING:
    import numpy as np

STATISTICS = ("nondegenerate", "fermion", "boson")

FOUR_PI = 4.0 * math.pi


class ConvergenceError(RuntimeError):
    """A quadrature or finite-difference stencil cannot reach its accuracy target, or a
    float of the state leaves the range it must hold (mu.mu of a timelike mu reads 0)."""


class EntropyUndefinedError(ZeroDivisionError):
    """Entropy needs dH/dlambda != 0."""


# ---------------------------------------------------------------------------
# multipliers


def equilibrium_multipliers(
    lam, mu: FourVector, M: int, N: int, m=1
) -> Tuple[DenseSymTensor, DenseSymTensor]:
    """Equilibrium multiplier tensors (covariant components).

    lambda_{b1..bM} = lambda g_{(b1b2}...g_{bM-1 bM)} (-m^2)^(-M/2)
    mu_{b1..bN}     = mu_{(b1} g_{b2b3}...g_{bN-1 bN)} (-m^2)^(-(N-1)/2)

    Exact when lambda, the components of mu and m are rational.
    """
    return lambda_multiplier(lam, M, m), mu_multiplier(mu, N, m)


def lambda_multiplier(lam, M: int, m=1) -> DenseSymTensor:
    """The even-rank block lambda_{b1..bM} of :func:`equilibrium_multipliers`."""
    if M < 0 or M % 2 != 0:
        raise ValueError(f"M must be even and non-negative, got {M}")
    if M == 0:
        return DenseSymTensor.scalar(lam)
    den = (-(m * m)) ** (M // 2)
    # an integer lam becomes an exact Fraction; a float or a batch stays float
    scale = lam * batch_safe(Fraction(1, 1), lam) / batch_safe(den, lam)
    return metric_flip(gmu_basis(M, M // 2)).scale(scale)


def mu_multiplier(mu: FourVector, N: int, m=1) -> DenseSymTensor:
    """The odd-rank block mu_{b1..bN} of :func:`equilibrium_multipliers`."""
    if N < 1 or N % 2 != 1:
        raise ValueError(f"N must be odd and positive, got {N}")
    if N == 1:
        return DenseSymTensor(1, {(i,): c for i, c in enumerate(mu.lowered().components)})
    scale = Fraction(1, 1) / ((-(m * m)) ** ((N - 1) // 2))
    return metric_flip(gmu_basis(N, (N - 1) // 2, mu)).scale(scale)


def project_equilibrium(lam_tensor: DenseSymTensor, mu_tensor: DenseSymTensor, m=1):
    """Scalar and vector parts of equilibrium multiplier tensors.

    lambda = 2 ((M-1)!!/(M+2)!!) (-m^2)^(M/2) [full metric contraction]
    mu_a   = 8 (N!!/(N+3)!!)   (-m^2)^((N-1)/2) [metric contraction to rank 1]

    For M = 0 and N = 1 both maps reduce to the identity.  Batched (float64
    array) components give batched results.
    """
    M = lam_tensor.rank
    N = mu_tensor.rank
    if M % 2 != 0:
        raise ValueError(f"lambda tensor must have even rank, got {M}")
    if N % 2 != 1:
        raise ValueError(f"mu tensor must have odd rank, got {N}")
    msq = m * m
    t = lam_tensor
    for _ in range(M // 2):
        t = trace_pair(t)
    full = t.get(())
    pref = 2 * Fraction(double_factorial(M - 1), double_factorial(M + 2)) * ((-msq) ** (M // 2))
    lam = batch_safe(pref, full) * full
    t = mu_tensor
    for _ in range((N - 1) // 2):
        t = trace_pair(t)
    pref = 8 * Fraction(double_factorial(N), double_factorial(N + 3)) * ((-msq) ** ((N - 1) // 2))
    comps = [t.get((i,)) for i in range(4)]
    mu = FourVector(tuple(batch_safe(pref, v) * v for v in comps), "lower")
    return lam, mu


# ---------------------------------------------------------------------------
# distribution families


# exp(-z) is exactly 0.0 in IEEE double for z > 745.14; past this exponent
# every occupancy and antiderivative below reads 0.0
_UNDERFLOW_EXPONENT = 746.0


def _occupancy(statistics: str):
    """(F, f_eq, F_and_f_eq) of one statistics.

    F and f_eq take floats (libm); F_and_f_eq(x, y) takes arrays and gives
    both from one numpy exponential.
    """
    exp, log1p = math.exp, math.log1p
    if statistics == "nondegenerate":
        def F(x: float, y: float) -> float:
            return -exp(-(x + y))

        def f_eq(x: float, y: float) -> float:
            return exp(-(x + y))

        def F_and_f_eq(x, y):
            ez = numpy().exp(-(x + y))
            return -ez, ez

    elif statistics == "fermion":
        def F(x: float, y: float) -> float:
            return -log1p(exp(-(x + y)))

        def f_eq(x: float, y: float) -> float:
            ez = exp(-(x + y))
            return ez / (1.0 + ez)

        def F_and_f_eq(x, y):
            np = numpy()
            ez = np.exp(-(x + y))
            return -np.log1p(ez), ez / (1.0 + ez)

    else:
        def F(x: float, y: float) -> float:
            z = x + y
            if z <= 0:
                raise ValueError("boson antiderivative needs X + Y > 0")
            return log1p(-exp(-z))

        def f_eq(x: float, y: float) -> float:
            z = x + y
            if z <= 0:
                raise ValueError("boson occupancy needs X + Y > 0")
            ez = exp(-z)
            return ez / (1.0 - ez)

        def F_and_f_eq(x, y):
            np = numpy()
            z = x + y
            if np.any(z <= 0):
                raise ValueError("boson antiderivative needs X + Y > 0")
            ez = np.exp(-z)
            return np.log1p(-ez), ez / (1.0 - ez)

    return F, f_eq, F_and_f_eq


@dataclass(frozen=True)
class JuttnerFamily:
    """F(X, Y) and f_eq = dF/dX for the three equilibrium statistics.

    All three depend on X and Y through X + Y only, so dF/dY = dF/dX.
    ``F`` and ``f_eq`` are plain functions of float (X, Y) bound when the
    family is made: the statistics branch is chosen once, not on every call
    of a quadrature integrand.  ``F_and_f_eq`` is their array form, both
    from one exponential, for the trapezoid nodes.
    """

    statistics: str = "nondegenerate"
    F: Callable[[float, float], float] = field(init=False, repr=False, compare=False)
    f_eq: Callable[[float, float], float] = field(init=False, repr=False, compare=False)
    F_and_f_eq: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.statistics not in STATISTICS:
            raise ValueError(f"unknown statistics {self.statistics!r}")
        for name, fn in zip(("F", "f_eq", "F_and_f_eq"), _occupancy(self.statistics)):
            object.__setattr__(self, name, fn)

    def window(self, lam: float, gm: float) -> float:
        """Rapidity R past which F(lam, gm cosh r) and f_eq read exactly 0.0.

        cosh R = (746 - lam)/(gm): there lam + gm cosh r >= 746 and exp of
        its negative underflows to 0.0 in double precision.  R is 0 when the
        whole range underflows, and infinite when the ratio is not finite (a
        NaN lam or gm included), so no range is ever dropped by mistake.
        gm = gamma m must be positive.
        """
        if gm <= 0:
            raise ValueError(f"gamma m must be positive, got {gm}")
        ratio = (_UNDERFLOW_EXPONENT - lam) / gm
        if not math.isfinite(ratio):
            return math.inf
        if ratio <= 1.0:
            return 0.0
        return math.acosh(ratio)

    def strip(self, lam: float, gm: float) -> float:
        """Distance from the real r axis to the nearest complex singularity of
        F and f_eq at (lam, gm cosh r), capped at pi/2.

        The Bose and Fermi occupancies have poles, and their antiderivatives
        branch points, where lam + gm cosh r = 2 pi i j for a boson and
        i pi (2j + 1) for a fermion, j any integer: cosh r = w_j =
        (-lam + i s_j)/gm.
        Their distance is the imaginary part of acosh(w_j) in [0, pi].  It
        grows with |j| when lam < 0, so j = 0 is nearest; when lam >= 0 it
        falls towards pi/2 as |j| grows, which is the cap.  The nondegenerate
        family is entire: infinite.
        """
        if self.statistics == "nondegenerate":
            return math.inf
        if lam >= 0:
            return math.pi / 2
        shift = 0.0 if self.statistics == "boson" else math.pi
        return abs(cmath.acosh(complex(-lam, shift) / gm).imag)


# ---------------------------------------------------------------------------
# thermodynamic state


@dataclass(frozen=True)
class ThermoState:
    """One equilibrium state: scalar multiplier, covector multiplier, particle data."""

    lam: float
    mu: FourVector
    m: float
    statistics: str = "nondegenerate"

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")
        self.dist  # the family checks statistics
        if not self.mu.is_timelike_future():
            up, gamma_sq = self.mu.raised().components, self.mu.gamma_sq()
            if isinstance(gamma_sq, float) and up[0] > math.hypot(*up[1:]):
                raise ConvergenceError(f"mu.mu = {-gamma_sq:.3g} underflows or cancels at this state, "
                                       f"though mu^0 = {up[0]:.6g} exceeds |mu^i| = {math.hypot(*up[1:]):.6g}")
            raise ValueError("mu must be timelike and future-directed")
        # below lambda + gamma m = 0 a boson's occupancy is negative at small momenta;
        # a batched state (float64 components) must keep it at every entry
        if self.statistics == "boson":
            np = numpy()
            gap = self.lam + np.sqrt(np.asarray(self.mu.gamma_sq(), dtype=float)) * self.m
            if np.any(gap < 0):
                raise ValueError(f"a boson needs lambda + gamma m >= 0, got {np.min(gap):.6g}")

    @classmethod
    def rest(cls, lam: float, gamma: float, m: float, **kw) -> "ThermoState":
        """State whose four-vector mu^a = (gamma, 0, 0, 0)."""
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return cls(lam, FourVector((gamma, 0.0, 0.0, 0.0), "upper"), m, **kw)

    @cached_property
    def gamma(self) -> float:
        return math.sqrt(float(self.mu.gamma_sq()))

    @cached_property
    def u(self) -> FourVector:
        g = self.gamma
        return FourVector(tuple(float(c) / g for c in self.mu.raised().components), "upper")

    @cached_property
    def dist(self) -> JuttnerFamily:
        return JuttnerFamily(self.statistics)


# ---------------------------------------------------------------------------
# the potential H and its derivatives


# the quad options of every radial integral; :func:`converged` is their acceptance rule
QUAD_OPTIONS = {"epsabs": 1e-300, "epsrel": 1e-13, "limit": 400}

_scipy_quad = None


def quad(func, a, b, **options):
    """``scipy.integrate.quad(func, a, b, **options)``, imported on the first call."""
    global _scipy_quad
    if _scipy_quad is None:
        from scipy.integrate import quad as _scipy_quad
    return _scipy_quad(func, a, b, **options)


def radial_integrand(fn: Callable[[float, float], float], lam, gm, a: int, b: int):
    """x -> fn(lam, gm cosh x) cosh^a x sinh^(b+2) x, the one radial kernel.

    H and its derivatives, where they run through ``quad``, take (a, b) =
    (0, 0) and (1, 0), a kinetic moment its own (a, b).  It reads 0.0 where cosh overflows and where fn has
    underflowed (without evaluating sinh, so no 0 * inf), and raises
    :class:`ConvergenceError` where the powers overflow while fn is nonzero.
    """
    cosh, sinh = math.cosh, math.sinh
    # float exponents: the same powers, without an int-to-float conversion per point
    a, power = float(a), float(b + 2)

    def integrand(x: float) -> float:
        try:
            c = cosh(x)
        except OverflowError:
            return 0.0
        f = fn(lam, gm * c)
        if f == 0.0:
            return 0.0
        try:
            return f * c**a * sinh(x) ** power
        except OverflowError:
            raise ConvergenceError(
                f"radial integrand overflows at x = {x:.6g} before the "
                f"distribution decays (f = {f:.3e})"
            ) from None

    return integrand


def converged(val: float, err: float) -> float:
    """``val`` of a ``quad`` result (val, err), if its error estimate is acceptable."""
    if not math.isfinite(val) or err > 1e-8 * max(abs(val), 1e-300):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}"
        )
    return val


def mass_power(m, k: int, quantity: str) -> float:
    """m**k, or :class:`ConvergenceError` naming `quantity` and m where it overflows."""
    try:
        return m**k
    except OverflowError:
        raise ConvergenceError(f"the m^{k} of {quantity} overflows the float range "
                               f"at m = {m:.6g}") from None


def quad_ranges(upper: float) -> Tuple[Tuple[float, float], ...]:
    """The ranges a ``quad`` radial integral over [0, upper] runs as, split at r = min(1, upper).

    One rule misses the narrow peak at r = 0 of a boson near condensation:
    at lambda = -1 + 1e-7, gamma = m = 1 the weight (0, 2) reads 1.4e-11 off
    over [0, R] and 1.5e-17 split.  The tail runs first, so an integrand
    that never decays (a NaN state) fails by :func:`radial_integrand`'s overflow.
    """
    if upper <= 1.0:
        return ((0.0, upper),)
    return ((1.0, upper), (0.0, 1.0))


def H_from_distribution(F: Callable[[float, float], float], lam, gamma, m) -> float:
    """H(lambda, gamma) = -(4 pi / gamma) m^3 integral_0^inf F(lambda, gamma m cosh r) sinh^2 r dr.

    F is any callable, so the range is the whole half-line, integrated by
    ``quad`` over :func:`quad_ranges`; this makes the function an
    independent check of :func:`H_derivatives`' windowed trapezoid rule.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    integrand = radial_integrand(F, lam, gamma * m, 0, 0)
    pieces = [converged(*quad(integrand, a, b, **QUAD_OPTIONS)) for a, b in quad_ranges(math.inf)]
    return -(FOUR_PI / gamma) * m**3 * sum(pieces)


# the trapezoid rule of :func:`trapezoid_radials_many`: its first grid, the relative
# agreement of two successive grids that stops it, the grid past which it gives
# way to ``quad``, and the widest step it accepts, as a fraction of the
# distance from the real axis to the occupancy's nearest complex singularity
TRAPEZOID_FIRST_INTERVALS = 8
TRAPEZOID_RTOL = 1e-10
TRAPEZOID_MAX_INTERVALS = 512
TRAPEZOID_STRIP_FRACTION = 0.25

# The first pass samples every interior node k of the grid with eight times
# TRAPEZOID_FIRST_INTERVALS (64), and k = 0 (r = 0, where sinh r = 0), which
# is set to read 0.0.  Position 8 q + j holds k = 8 q + (0, 4, 2, 6, 1, 3, 5, 7)[j],
# so halving a row down to eight slots (:func:`_fold`) leaves in slot j the
# sum over k = that offset mod 8: the first grid's nodes (slot 0), the next
# grid's new ones (1), the third's (2, 3) and the fourth's (4 to 7).  The
# running sum of the slots at the pass's prefixes is then the node sum of
# each of its grids.
_FIRST_PASS_INTERVALS = 8 * TRAPEZOID_FIRST_INTERVALS


@lru_cache(maxsize=None)
def _first_pass():
    """(nodes, grids, prefixes) of the first pass as arrays, built on the first grid."""
    np = numpy()
    nodes = np.array([8.0 * q + j for q in range(TRAPEZOID_FIRST_INTERVALS)
                      for j in (0, 4, 2, 6, 1, 3, 5, 7)])
    grids = TRAPEZOID_FIRST_INTERVALS * np.array([1.0, 2.0, 4.0, 8.0])
    return nodes, grids, np.array([0, 1, 3, 7])


def _fold(values: np.ndarray, width: int) -> np.ndarray:
    """Sum the last axis, a power of two long, by halves down to ``width`` slots.

    Slot j sums the positions equal to j mod ``width``.  Each row's sums use
    that row's values alone, in a fixed order, so a state reads the same bits
    in any batch.
    """
    while values.shape[-1] > width:
        half = values.shape[-1] // 2
        values = values[..., :half] + values[..., half:]
    return values


def _sample(dist: JuttnerFamily, columns, powers, lams, gms, uppers, nodes, n) -> np.ndarray:
    """Node values (states x weights x nodes) of every weight at r = upper k / n, k in ``nodes``.

    ``columns[w]`` is 0 for F and 1 for f_eq, ``powers[w]`` is (a, b).
    """
    np = numpy()
    x = uppers[:, None] * nodes / n
    c = np.cosh(x)
    s = np.sinh(x)
    s2 = s * s
    F, f = dist.F_and_f_eq(lams[:, None], gms[:, None] * c)
    at = (F * s2, f * s2)
    # cosh^a r sinh^b r, once per distinct (a, b); (0, 0) needs none
    factors = {}
    for a, b in set(powers) - {(0, 0)}:
        if b == 0:
            factors[a, b] = c if a == 1 else c ** a
        elif a == 0:
            factors[a, b] = s ** b
        else:
            factors[a, b] = c ** a * s ** b
    return np.stack([at[column] * factors[power] if power in factors else at[column]
                     for column, power in zip(columns, powers)], axis=1)


_REFINE = object()


def _settle(grids, integrals, previous, upper, widest):
    """(verdict, last integrals) of one state over successive grids.

    The verdict is the first accepted grid's integrals, None when a grid's
    integrals are not finite or the finest grid is not accepted, or _REFINE
    when the state needs a finer grid than ``grids``.
    """
    for n, current in zip(grids, integrals):
        if not all(map(math.isfinite, current)):
            return None, current
        if previous is not None and upper / n <= widest and all(
                abs(new - old) <= TRAPEZOID_RTOL * abs(new) for new, old in zip(current, previous)):
            return current, current
        if n >= TRAPEZOID_MAX_INTERVALS:
            return None, current
        previous = current
    return _REFINE, previous


def trapezoid_radials_many(dist: JuttnerFamily, lams, gms, uppers, weights):
    """[integral_0^upper fn(lam, gm cosh r) cosh^a r sinh^(b+2) r dr for (fn, a, b) in weights]
    at every state (lams[i], gms[i], uppers[i]), or None where no grid is accepted.

    Every weight runs on one grid, and fn is the family's F or f_eq (else
    ``ValueError``): each node evaluates both from one exponential
    (``dist.F_and_f_eq``).  Each integrand is even in r, analytic in a
    strip around the real axis as wide as :meth:`JuttnerFamily.strip`, and
    reads 0.0 (with all its derivatives) from ``upper`` on, so the plain
    trapezoid rule converges geometrically once the step is well inside that
    strip (Trefethen & Weideman, SIAM Review 56 (2014) 385).  The grids are
    nested: 8 intervals first, each next one halving the step.  A grid is
    accepted when it agrees with the one before to TRAPEZOID_RTOL in every
    integral and its step is at most TRAPEZOID_STRIP_FRACTION of the strip's
    width: wider steps over a nearby pole (a boson near condensation) err by
    halves from one grid to the next, so two neighbours agree while both are
    wrong.  A state reads None when ``upper`` is infinite, when no grid up to
    TRAPEZOID_MAX_INTERVALS can be accepted (a feature narrower than the
    grid, such as a degenerate Fermi edge or a boson near condensation) or
    when a grid's integral is not finite (an overflow).

    The nodes are sampled as arrays over states x nodes.  One first pass
    takes every node of the 64-interval grid at every state, and the 8-, 16-,
    32- and 64-interval sums follow from it (:func:`_first_pass`);
    only the states that none of those grids settles sample the new nodes of
    128, then 256 and 512 intervals.  An overflow reads inf or NaN inside the
    kernel, so no floating-point warning leaves it.  A state's integrals do
    not depend on the other states of the call.
    """
    columns, powers = [], []
    for fn, a, b in weights:
        if fn is not dist.F and fn is not dist.f_eq:
            raise ValueError("the weights take the family's F or f_eq")
        columns.append(int(fn is dist.f_eq))
        powers.append((a, b))
    results = [None] * len(lams)
    rows, widest = [], []
    for i, (lam, gm, upper) in enumerate(zip(lams, gms, uppers)):
        if math.isfinite(upper):
            width = TRAPEZOID_STRIP_FRACTION * dist.strip(lam, gm)
            if not upper / TRAPEZOID_MAX_INTERVALS > width:
                rows.append(i)
                widest.append(width)
    if not rows:
        return results
    np = numpy()
    nodes, grids, prefixes = _first_pass()
    lam, gm, upper = np.array([(lams[i], gms[i], uppers[i]) for i in rows], dtype=float).T
    last = [None] * len(rows)  # per sampled state, its last grid's integrals
    with np.errstate(all="ignore"):
        first = _sample(dist, columns, powers, lam, gm, upper, nodes, _FIRST_PASS_INTERVALS)
        first[:, :, 0] = 0.0  # r = 0
        # node sums (states x weights x grids) of every grid of this pass
        sums = np.add.accumulate(_fold(first, 8), axis=-1)[..., prefixes]
        while True:
            integrals = sums * (upper[:, None] / grids)[:, None, :]
            kept, ns = [], grids.tolist()
            for k, per_grid in enumerate(integrals.transpose(0, 2, 1).tolist()):
                i = rows[k]
                verdict, last[k] = _settle(ns, per_grid, last[k], uppers[i], widest[k])
                if verdict is _REFINE:
                    kept.append(k)
                else:
                    results[i] = verdict
            if not kept:
                return results
            # the states still open, and their sums so far
            rows, widest, last = ([v[k] for k in kept] for v in (rows, widest, last))
            lam, gm, upper, sums = lam[kept], gm[kept], upper[kept], sums[kept][..., -1:]
            n = 2.0 * grids[-1]
            new = _sample(dist, columns, powers, lam, gm, upper, np.arange(1.0, n, 2.0), n)
            sums = sums + _fold(new, 1)
            grids = np.array([n])


def trapezoid_radials(dist: JuttnerFamily, lam, gm, upper, weights):
    """:func:`trapezoid_radials_many` at one state: its list of integrals, or None."""
    return trapezoid_radials_many(dist, [lam], [gm], [upper], weights)[0]


def H_derivatives_many(dist: JuttnerFamily, points, m) -> List[Tuple[float, float, float]]:
    """[H_derivatives(dist, lam, gamma, m) for (lam, gamma) in points].

    Every point's trapezoid grid is sampled in one :func:`trapezoid_radials_many`
    call; the ``quad`` fallback, the scaling and the subnormal check of
    :func:`H_derivatives` run per point, in order.
    """
    for _, gamma in points:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
    lams = [lam for lam, _ in points]
    gms = [gamma * m for _, gamma in points]
    uppers = [dist.window(lam, gm) for lam, gm in zip(lams, gms)]
    weights = ((dist.F, 0, 0), (dist.f_eq, 0, 0), (dist.f_eq, 1, 0))
    grids = trapezoid_radials_many(dist, lams, gms, uppers, weights)
    m3, m4 = mass_power(m, 3, "H and dH/dlambda"), mass_power(m, 4, "dH/dgamma")
    out = []
    for (lam, gamma), gm, upper, integrals in zip(points, gms, uppers, grids):
        if integrals is None:
            integrals = [sum(converged(*quad(radial_integrand(fn, lam, gm, a, b), lo, hi,
                                             **QUAD_OPTIONS)) for lo, hi in quad_ranges(upper))
                         for fn, a, b in weights]
        i_val, i_lam, i_gam = integrals
        h_val = -(FOUR_PI / gamma) * m3 * i_val
        h_lam = -(FOUR_PI / gamma) * m3 * i_lam
        h_gam = -h_val / gamma - (FOUR_PI / gamma) * m4 * i_gam
        subnormal = [v for v in (*integrals, h_val, h_lam, h_gam)
                     if 0.0 < abs(v) < sys.float_info.min]
        if subnormal:
            raise ConvergenceError(f"H integrals fall below the normal float range at this state "
                                   f"({subnormal[0]:.3e}): too few digits are left")
        out.append((h_val, h_lam, h_gam))
    return out


def H_derivatives(dist: JuttnerFamily, lam, gamma, m) -> Tuple[float, float, float]:
    """(H, dH/dlambda, dH/dgamma) by differentiating under the integral.

    dF/dX = f_eq gives the lambda derivative; dF/dY = f_eq (the families
    depend on X + Y) gives the gamma derivative an extra m cosh factor.  The
    three integrals run over [0, R] with R = ``dist.window(lam, gamma m)``,
    dropping only the range where F and f_eq are exactly 0.0, on one shared
    trapezoid grid (:func:`trapezoid_radials_many`).  Where R is infinite or
    no grid is accepted, each runs through ``quad`` over :func:`quad_ranges`
    instead.  A nonzero integral or result below the normal float range
    keeps only a few digits, so it raises :class:`ConvergenceError`, as does
    an m whose m^3 or m^4 overflows.  This is :func:`H_derivatives_many` at
    one point.
    """
    return H_derivatives_many(dist, [(lam, gamma)], m)[0]


# ---------------------------------------------------------------------------
# state functions


@dataclass(frozen=True)
class EquilibriumFunctions:
    """H with its first derivatives and the derived state functions."""

    H: float
    H_lambda: float
    H_gamma: float
    lam: float
    gamma: float
    n: float
    p: float
    e: float
    s: float
    T: float


def state_functions(H: float, H_lambda: float, H_gamma: float, lam: float, gamma: float):
    """n, p, e, s, T from H and its first derivatives.

    n = gamma dH/dlambda, p = H, e = -H - gamma dH/dgamma,
    s = -lambda - gamma (dH/dgamma)/(dH/dlambda), T = 1/gamma.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if H_lambda == 0:
        raise EntropyUndefinedError("entropy undefined: dH/dlambda = 0")
    return EquilibriumFunctions(
        H=H,
        H_lambda=H_lambda,
        H_gamma=H_gamma,
        lam=lam,
        gamma=gamma,
        n=gamma * H_lambda,
        p=H,
        e=-H - gamma * H_gamma,
        s=-lam - gamma * H_gamma / H_lambda,
        T=1.0 / gamma,
    )


def thermo_functions(state: ThermoState) -> EquilibriumFunctions:
    """Quadrature evaluation of the full state-function set at one state."""
    h_val, h_lam, h_gam = H_derivatives(state.dist, state.lam, state.gamma, state.m)
    return state_functions(h_val, h_lam, h_gam, state.lam, state.gamma)


# ---------------------------------------------------------------------------
# residual diagnostics


_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # f' ~ sum c_i f(x+ih) / 12h
_REL_STEP = 1e-2


def _fd(values, h: float) -> float:
    """Five-point derivative from the values at the _STENCIL offsets, in order."""
    total = 0.0
    for (_, c), value in zip(_STENCIL, values):
        total += c * value
    return total / (12.0 * h)


def _stencil_functions(state: ThermoState):
    """State functions at the centre and at each _STENCIL offset of both directions.

    Returns (centre, (points along lambda, h_lambda), (points along gamma,
    h_gamma)); the nine points are evaluated once each, in one
    :func:`H_derivatives_many` call.  A boson's occupancy has its pole at
    lambda + gamma m = 0, so a step whose lowest point would not stay above
    it shrinks to move lambda + gamma m by a quarter of the centre's value;
    at the pole itself no stencil fits, which raises :class:`ConvergenceError`.
    """
    dist, m, lam, gamma = state.dist, state.m, state.lam, state.gamma
    h_lam = _REL_STEP
    h_gam = _REL_STEP / (m + 3.0 / gamma)
    if state.statistics == "boson":
        gap = lam + gamma * m
        if not gap > 0.0:
            raise ConvergenceError("no finite-difference stencil fits a boson at "
                                   "lambda + gamma m = 0 (condensation)")
        if not lam - 2.0 * h_lam + gamma * m > 0.0:
            h_lam = gap / 4.0
        if not lam + (gamma - 2.0 * h_gam) * m > 0.0:
            h_gam = gap / (4.0 * m)
    points = [(lam, gamma)]
    points += [(lam + off * h_lam, gamma) for off, _ in _STENCIL]
    points += [(lam, gamma + off * h_gam) for off, _ in _STENCIL]
    funcs = [state_functions(*H, *point)
             for H, point in zip(H_derivatives_many(dist, points, m), points)]
    return funcs[0], (funcs[1:5], h_lam), (funcs[5:], h_gam)


def gibbs_residual(state: ThermoState) -> float:
    """Normalized residual of T ds - d(e/n) - p d(1/n) along both directions.

    Derivatives with respect to lambda and gamma come from five-point central
    differences of the quadrature state functions; the relation is an exact
    identity, so the residual is a numerical-error meter.
    """
    return _gibbs(*_stencil_functions(state))


def _gibbs(centre: EquilibriumFunctions, *directions) -> float:
    worst = 0.0
    for points, h in directions:
        ds = _fd([f.s for f in points], h)
        de_n = _fd([f.e / f.n for f in points], h)
        dinv_n = _fd([1.0 / f.n for f in points], h)
        terms = (centre.T * ds, de_n, centre.p * dinv_n)
        res = terms[0] - terms[1] - terms[2]
        scale = max(max(abs(t) for t in terms), 1e-300)
        worst = max(worst, abs(res) / scale)
    return worst


def integrability_residual(state: ThermoState) -> float:
    """Normalized residual of (e+p) n_p - gamma n_gamma|_p = n e_p.

    The pressure derivatives use the change of variables (lambda, gamma) ->
    (gamma, p) with p = H: n_p = n_lambda / H_lambda and
    n_gamma|_p = n_gamma|_lambda - n_lambda H_gamma / H_lambda.
    """
    c, (along_lam, h_lam), (along_gam, h_gam) = _stencil_functions(state)
    n_lam = _fd([f.n for f in along_lam], h_lam)
    e_lam = _fd([f.e for f in along_lam], h_lam)
    n_gam = _fd([f.n for f in along_gam], h_gam)
    n_p = n_lam / c.H_lambda
    e_p = e_lam / c.H_lambda
    n_gamma_at_p = n_gam - n_lam * c.H_gamma / c.H_lambda
    terms = ((c.e + c.p) * n_p, state.gamma * n_gamma_at_p, c.n * e_p)
    res = terms[0] - terms[1] - terms[2]
    scale = max(max(abs(t) for t in terms), 1e-300)
    return abs(res) / scale


def thermo_with_residuals(state: ThermoState) -> Tuple[EquilibriumFunctions, float]:
    """(thermo_functions, gibbs_residual) from one stencil pass.

    The state functions are those of the stencil's centre point, so each of
    the nine points is evaluated once.
    """
    stencil = _stencil_functions(state)
    return stencil[0], _gibbs(*stencil)


# ---------------------------------------------------------------------------
# equilibrium potential and moments


def equilibrium_hprime(state: ThermoState):
    """(h'^a, A^a, B^{ab}) at equilibrium.

    h'^a = H mu^a, A^a = (dH/dlambda) mu^a = n u^a and
    B^{ab} = -(1/gamma)(dH/dgamma) mu^a mu^b + H g^{ab} = e u^a u^b + p h^{ab}
    with h^{ab} the projector orthogonal to u.
    """
    f = thermo_functions(state)
    mu_up = [float(ci) for ci in state.mu.raised().components]
    hprime = FourVector(tuple(f.H * ci for ci in mu_up), "upper")
    a_vec = FourVector(tuple(f.H_lambda * ci for ci in mu_up), "upper")
    b_tensor = gmu_combination(2, {0: -f.H_gamma / state.gamma, 1: f.H}, mu_up)
    return hprime, a_vec, b_tensor


# ---------------------------------------------------------------------------
# Bessel-K closed forms: the series for every statistics, the nondegenerate H


# the Bessel series stops at j = ceil(_SERIES_EXPONENT / (lambda + gamma m)), where
# e^{-j (lambda + gamma m)}, and so each further term, is below 1e-17 of the first
_SERIES_EXPONENT = 39.2

# the trapezoid rule of :func:`_scaled_bessel_k`: each w's grid reaches where
# w (cosh t - 1) = _K_REACH + t, in _K_NODES steps or more, none longer than _K_STEP
_K_REACH = 45.0
_K_NODES = 48
_K_STEP = 0.25


def _scaled_bessel_k(nu_max: int, w: np.ndarray) -> np.ndarray:
    """Rows e^w K_nu(w), nu = 0..nu_max (at least 1), at every w > 0 of the array ``w``.

    e^w K_nu(w) = integral_0^inf e^{-2 w sinh^2(t/2)} cosh(nu t) dt, an even
    integrand analytic in a strip around the real axis, so the trapezoid
    rule converges geometrically (Trefethen & Weideman, SIAM Review 56
    (2014) 385): a step h of 0.25 leaves e^{-pi^2/h} ~ 1e-17 where w is
    small, and 0.7/sqrt(w) leaves e^{-2 pi^2/(h^2 w)} as small where w is
    large.  Each w runs on its own grid, out to the reach T of
    w (cosh T - 1) = 45 + T (two fixed-point steps from below), in one
    common node count: 48 nodes keep both steps from w = 1e-3 to beyond
    4e4, and smaller w take more.  cosh t - 1 is written 2 sinh^2(t/2),
    since cosh t - 1 cancels at large w (9.3e-13 off near w = 3.6e4), and
    K_1's cosh t as 1 + 2 sinh^2(t/2).  The higher orders follow from
    K_{nu+1} = K_{nu-1} + (2 nu/w) K_nu, stable upward since every term is
    positive.  Over nu <= 12 the rows read within 9e-16 of 40-digit
    mpmath, and each w the bits it reads alone while w >= 1e-3.
    """
    np = numpy()
    reach = np.arccosh(1.0 + _K_REACH / w)
    for _ in range(2):
        reach = np.arccosh(1.0 + (_K_REACH + reach) / w)
    nodes = max(_K_NODES, math.ceil(float(reach.max()) / _K_STEP))
    step = reach / nodes
    squares = np.sinh((0.5 * step)[:, None] * np.arange(nodes + 1.0))  # sinh^2(t/2)
    squares *= squares
    at = np.exp(-2.0 * w[:, None] * squares)
    at[:, 0] *= 0.5  # t = 0 is the rule's end point
    rows = np.empty((nu_max + 1, w.size))
    rows[0] = step * at.sum(axis=1)
    rows[1] = rows[0] + 2.0 * step * (at * squares).sum(axis=1)
    for nu in range(1, nu_max):
        rows[nu + 1] = rows[nu - 1] + (2.0 * nu / w) * rows[nu]
    return rows


def bessel_series(statistics: str, lam, gamma, m, weights=()):
    """((H, dH/dlambda, dH/dgamma), [radial(a, b) for (a, b) in weights]) by the Bessel-K series.

    With x = lambda + gamma m cosh r, every occupancy expands as f_eq =
    sum_j s_j e^{-j x} and F = -sum_j s_j e^{-j x}/j, s_j = 1 (nondegenerate:
    j = 1 alone; boson) or (-1)^(j+1) (fermion).  Term by term the radial
    integrals are Bessel-K closed forms (de Groot, van Leeuwen & van Weert,
    *Relativistic Kinetic Theory*, 1980): with kve(nu, w) = e^w K_nu(w) and
    I(a, k; w) = e^w integral_0^inf e^{-w cosh r} cosh^a r sinh^2k r dr,
    I(0, k) = (2k-1)!! kve(k, w)/w^k, I(1, k) = (2k-1)!! kve(k+1, w)/w^k and
    I(a+2, k) = I(a, k) + I(a, k+1), all positive.  With z = gamma m and
    c_j = s_j e^{-j (lambda + z)},

        radial(a, b) = m^(2+a+b) sum_j c_j I(a, b/2 + 1; j z)    (b even)
        H            = (4 pi/gamma) m^3 sum_j (c_j/j) I(0, 1; j z)
        dH/dlambda   = -(4 pi/gamma) m^3 sum_j c_j I(0, 1; j z)
        dH/dgamma    = -H/gamma - (4 pi/gamma) m^4 sum_j c_j I(1, 1; j z),

    the convention of :func:`H_derivatives` and of the radials of
    :func:`etclosure.moments.kinetic_moment`.  No term overflows, and no
    occupancy code is read, so the series checks the trapezoid grid
    independently.  It runs where lambda + z >= 0.5 and z > 0, else
    ``ValueError`` (degenerate fermions stay with ``quad``).  The kve rows
    come from :func:`_scaled_bessel_k`, so the series needs numpy but no
    scipy; being scaled by e^w, they stay finite however large w grows.
    """
    if statistics not in STATISTICS:
        raise ValueError(f"unknown statistics {statistics!r}")
    z = gamma * m
    if not lam + z >= 0.5:
        raise ValueError(f"the Bessel series needs lambda + gamma m >= 0.5, got {lam + z:.6g}")
    if not z > 0:
        raise ValueError(f"the Bessel series needs gamma m > 0, got {z:.6g}")
    np = numpy()
    terms = 1 if statistics == "nondegenerate" else math.ceil(_SERIES_EXPONENT / (lam + z))
    j = np.arange(1.0, terms + 1.0)
    c = np.exp(-j * (lam + z))
    if statistics == "fermion":
        c[1::2] = -c[1::2]
    w, table = j * z, {}
    # I(a, k) reaches kve(k + ceil(a/2)); H and dH/dgamma need kve(2)
    kve = _scaled_bessel_k(max([2] + [b // 2 + 1 + (a + 1) // 2 for a, b in weights]), w)

    def integral(a: int, k: int):  # I(a, k; w) at every j
        if (a, k) not in table:
            table[a, k] = (double_factorial(2 * k - 1) * kve[k + a] / w**k if a < 2
                           else integral(a - 2, k) + integral(a - 2, k + 1))
        return table[a, k]

    h_val = FOUR_PI / gamma * m**3 * float(c / j @ integral(0, 1))
    h_lam = -(FOUR_PI / gamma) * m**3 * float(c @ integral(0, 1))
    h_gam = -h_val / gamma - (FOUR_PI / gamma) * m**4 * float(c @ integral(1, 1))
    return (h_val, h_lam, h_gam), [m ** (2 + a + b) * float(c @ integral(a, b // 2 + 1))
                                   for a, b in weights]


def mj_closed_form_H(lam, gamma, m) -> float:
    """Nondegenerate H via the Bessel identity.

    integral exp(-z cosh r) sinh^2 r dr = K_1(z)/z at z = gamma m turns the
    quadrature of (the nondegenerate) F into
    H = (4 pi / gamma) m^3 exp(-lambda) K_1(z)/z.  K_1 comes from scipy's
    exponentially scaled k1e(z) = exp(z) K_1(z), an independent route from
    the quadrature and the series it checks in the tests; no command calls it.
    """
    from scipy.special import k1e

    z = gamma * m
    k1 = math.exp(-(lam + z)) * float(k1e(z))
    return (FOUR_PI / gamma) * m**3 * k1 / z
