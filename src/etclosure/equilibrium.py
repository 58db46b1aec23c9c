"""Equilibrium thermodynamics: multipliers, the scalar potential H, state functions.

The equilibrium state is a scalar multiplier lambda and a timelike covector
mu_alpha; the full multiplier tensors at equilibrium are metric dressings of
these (:func:`equilibrium_multipliers`) and the inverse projection
(:func:`project_equilibrium`) recovers them exactly in rational arithmetic.

The potential h'^alpha = H(lambda, gamma) mu^alpha is generated by a
distribution-family antiderivative F through a one-dimensional quadrature
(:func:`H_from_distribution`); state functions follow algebraically
(:func:`state_functions`) and the Gibbs relation and the change-of-variables
integrability condition hold identically, so their finite-difference
residuals measure only numerical error.

Every radial integral, here and in the kinetic moments, runs over one kernel
(:func:`radial_integrand`) under one acceptance rule (:func:`converged`); the
nondegenerate closed form that checks them takes K_1 from ``scipy.special``.

Sign convention: H here multiplies the multiplier covector mu_alpha directly,
so for the nondegenerate family H = p > 0 while n = gamma dH/dlambda < 0
(the generating F is negative and decreasing in lambda). The kinetic-side
moments with their own positive densities live in the moments module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Tuple

from scipy.integrate import quad
from scipy.special import k1e

from .scalar import double_factorial
from .tensors import (
    DenseSymTensor,
    FourVector,
    batch_safe,
    gmu_basis,
    gmu_combination,
    metric_flip,
    trace_pair,
)

STATISTICS = ("nondegenerate", "fermion", "boson")

FOUR_PI = 4.0 * math.pi


class ConvergenceError(RuntimeError):
    """A quadrature failed to reach its accuracy target."""


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


def _occupancy(statistics: str, k: float):
    """(F, f_eq) of one statistics as closures over k_B, at amplitude w/h^3 = 1."""
    exp, log1p = math.exp, math.log1p
    neg_k = -k
    if statistics == "nondegenerate":
        def F(x: float, y: float) -> float:
            return neg_k * exp(-((x + y) / k))

        def f_eq(x: float, y: float) -> float:
            return exp(-((x + y) / k))

    elif statistics == "fermion":
        def F(x: float, y: float) -> float:
            return neg_k * log1p(exp(-((x + y) / k)))

        def f_eq(x: float, y: float) -> float:
            ez = exp(-((x + y) / k))
            return ez / (1.0 + ez)

    else:
        def F(x: float, y: float) -> float:
            z = (x + y) / k
            if z <= 0:
                raise ValueError("boson antiderivative needs X + Y > 0")
            return k * log1p(-exp(-z))

        def f_eq(x: float, y: float) -> float:
            z = (x + y) / k
            if z <= 0:
                raise ValueError("boson occupancy needs X + Y > 0")
            ez = exp(-z)
            return ez / (1.0 - ez)

    return F, f_eq


@dataclass(frozen=True)
class JuttnerFamily:
    """F(X, Y) and f_eq = dF/dX for the three equilibrium statistics.

    All three depend on X and Y through (X + Y)/k_B only, so dF/dY = dF/dX.
    The amplitude w/h^3 is 1 (natural units).  ``F`` and ``f_eq`` are plain
    functions of (X, Y) bound when the family is made: the statistics branch
    is chosen once, not on every call of a quadrature integrand.
    """

    statistics: str = "nondegenerate"
    k_B: float = 1.0
    F: Callable[[float, float], float] = field(init=False, repr=False, compare=False)
    f_eq: Callable[[float, float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.statistics not in STATISTICS:
            raise ValueError(f"unknown statistics {self.statistics!r}")
        if not self.k_B > 0:
            raise ValueError(f"k_B must be positive, got {self.k_B}")
        F, f_eq = _occupancy(self.statistics, self.k_B)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "f_eq", f_eq)

    def window(self, lam: float, gm: float) -> float:
        """Rapidity R past which F(lam, gm cosh r) and f_eq read exactly 0.0.

        cosh R = (746 k_B - lam)/(gm): there (lam + gm cosh r)/k_B >= 746 and
        exp of its negative underflows to 0.0 in double precision.  R is 0
        when the whole range underflows, and infinite when the ratio is not
        finite (a NaN lam or gm included), so no range is ever dropped by
        mistake.  gm = gamma m must be positive.
        """
        if gm <= 0:
            raise ValueError(f"gamma m must be positive, got {gm}")
        ratio = (_UNDERFLOW_EXPONENT * self.k_B - lam) / gm
        if not math.isfinite(ratio):
            return math.inf
        if ratio <= 1.0:
            return 0.0
        return math.acosh(ratio)


# ---------------------------------------------------------------------------
# thermodynamic state


@dataclass(frozen=True)
class ThermoState:
    """One equilibrium state: scalar multiplier, covector multiplier, particle data."""

    lam: float
    mu: FourVector
    m: float
    statistics: str = "nondegenerate"
    k_B: float = 1.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")
        self.dist  # the family checks statistics and k_B
        if not self.mu.is_timelike_future():
            raise ValueError("mu must be timelike and future-directed")

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
        return JuttnerFamily(self.statistics, self.k_B)


# ---------------------------------------------------------------------------
# the potential H and its derivatives


# the quad options of every radial integral; :func:`converged` is their acceptance rule
QUAD_OPTIONS = {"epsabs": 1e-300, "epsrel": 1e-13, "limit": 400}


def radial_integrand(fn: Callable[[float, float], float], lam, gm, a: int, b: int):
    """x -> fn(lam, gm cosh x) cosh^a x sinh^(b+2) x, the one radial kernel.

    H and its derivatives take (a, b) = (0, 0) and (1, 0), a kinetic moment
    its own (a, b).  It reads 0.0 where cosh overflows and where fn has
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


def _radial_integral(fn, lam, gm, upper, a: int = 0) -> float:
    """integral_0^upper fn(lam, gm cosh r) cosh^a r sinh^2 r dr.

    `upper` is infinite or the family's :meth:`JuttnerFamily.window`.
    """
    return converged(*quad(radial_integrand(fn, lam, gm, a, 0), 0.0, upper, **QUAD_OPTIONS))


def H_from_distribution(F: Callable[[float, float], float], lam, gamma, m) -> float:
    """H(lambda, gamma) = -(4 pi / gamma) m^3 integral_0^inf F(lambda, gamma m cosh r) sinh^2 r dr.

    F is any callable, so the range is the whole half-line; this makes the
    function an independent check of :func:`H_derivatives`' windowed range.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return -(FOUR_PI / gamma) * m**3 * _radial_integral(F, lam, gamma * m, math.inf)


def H_derivatives(dist: JuttnerFamily, lam, gamma, m) -> Tuple[float, float, float]:
    """(H, dH/dlambda, dH/dgamma) by differentiating under the integral.

    dF/dX = f_eq gives the lambda derivative; dF/dY = f_eq (the families
    depend on X + Y) gives the gamma derivative an extra m cosh factor.  The
    three integrals run over [0, R] with R = ``dist.window(lam, gamma m)``,
    dropping only the range where F and f_eq are exactly 0.0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    gm = gamma * m
    upper = dist.window(lam, gm)
    h_val = -(FOUR_PI / gamma) * m**3 * _radial_integral(dist.F, lam, gm, upper)
    h_lam = -(FOUR_PI / gamma) * m**3 * _radial_integral(dist.f_eq, lam, gm, upper)
    h_gam = -h_val / gamma - (FOUR_PI / gamma) * m**4 * _radial_integral(
        dist.f_eq, lam, gm, upper, a=1
    )
    return h_val, h_lam, h_gam


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
    h_gamma)); each of the nine points costs one :func:`H_derivatives` call.
    """
    dist, m = state.dist, state.m

    def funcs(lam, gamma):
        return state_functions(*H_derivatives(dist, lam, gamma, m), lam, gamma)

    h_lam = _REL_STEP * state.k_B
    h_gam = _REL_STEP / (state.m / state.k_B + 3.0 / state.gamma)
    centre = funcs(state.lam, state.gamma)
    along_lam = [funcs(state.lam + off * h_lam, state.gamma) for off, _ in _STENCIL]
    along_gam = [funcs(state.lam, state.gamma + off * h_gam) for off, _ in _STENCIL]
    return centre, (along_lam, h_lam), (along_gam, h_gam)


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
    return _integrability(state.gamma, *_stencil_functions(state))


def _integrability(gamma: float, c: EquilibriumFunctions, lam_direction, gam_direction) -> float:
    (along_lam, h_lam), (along_gam, h_gam) = lam_direction, gam_direction
    n_lam = _fd([f.n for f in along_lam], h_lam)
    e_lam = _fd([f.e for f in along_lam], h_lam)
    n_gam = _fd([f.n for f in along_gam], h_gam)
    n_p = n_lam / c.H_lambda
    e_p = e_lam / c.H_lambda
    n_gamma_at_p = n_gam - n_lam * c.H_gamma / c.H_lambda
    terms = ((c.e + c.p) * n_p, gamma * n_gamma_at_p, c.n * e_p)
    res = terms[0] - terms[1] - terms[2]
    scale = max(max(abs(t) for t in terms), 1e-300)
    return abs(res) / scale


def thermo_with_residuals(state: ThermoState) -> Tuple[EquilibriumFunctions, float, float]:
    """(thermo_functions, gibbs_residual, integrability_residual) from one stencil pass.

    The state functions are those of the stencil's centre point, so each of
    the nine points is evaluated once.
    """
    stencil = _stencil_functions(state)
    return stencil[0], _gibbs(*stencil), _integrability(state.gamma, *stencil)


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
# nondegenerate closed form and its independent oracle


def mj_closed_form_H(lam, gamma, m) -> float:
    """Nondegenerate H via the Bessel identity, at k_B = 1.

    integral exp(-z cosh r) sinh^2 r dr = K_1(z)/z at z = gamma m turns the
    quadrature of (the nondegenerate) F into
    H = (4 pi / gamma) m^3 exp(-lambda) K_1(z)/z.  K_1 comes from scipy's
    exponentially scaled k1e(z) = exp(z) K_1(z), an independent route from
    the quadrature it checks.
    """
    z = gamma * m
    k1 = math.exp(-(lam + z)) * float(k1e(z))
    return (FOUR_PI / gamma) * m**3 * k1 / z
