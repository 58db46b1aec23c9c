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

Sign convention: H here multiplies the multiplier covector mu_alpha directly,
so for the nondegenerate family H = p > 0 while n = gamma dH/dlambda < 0
(the generating F is negative and decreasing in lambda). The kinetic-side
moments with their own positive densities live in the moments module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Tuple

import numpy as np
from scipy.integrate import quad

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


@dataclass(frozen=True)
class JuttnerFamily:
    """F(X, Y) and f_eq = dF/dX for the three equilibrium statistics.

    All three depend on X and Y through (X + Y)/k_B only, so dF/dY = dF/dX.
    """

    statistics: str = "nondegenerate"
    k_B: float = 1.0
    h_planck: float = 1.0
    w: float = 1.0

    def __post_init__(self):
        if self.statistics not in STATISTICS:
            raise ValueError(f"unknown statistics {self.statistics!r}")

    @property
    def _amp(self) -> float:
        return self.w / self.h_planck**3

    def F(self, x: float, y: float) -> float:
        z = (x + y) / self.k_B
        k, a = self.k_B, self._amp
        if self.statistics == "nondegenerate":
            return -k * a * math.exp(-z)
        if self.statistics == "fermion":
            return -k * a * math.log1p(math.exp(-z))
        if z <= 0:
            raise ValueError("boson antiderivative needs X + Y > 0")
        return k * a * math.log1p(-math.exp(-z))

    def f_eq(self, x: float, y: float) -> float:
        z = (x + y) / self.k_B
        a = self._amp
        ez = math.exp(-z)
        if self.statistics == "nondegenerate":
            return a * ez
        if self.statistics == "fermion":
            return a * ez / (1.0 + ez)
        if z <= 0:
            raise ValueError("boson occupancy needs X + Y > 0")
        return a * ez / (1.0 - ez)


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
    h_planck: float = 1.0
    w: float = 1.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.statistics not in STATISTICS:
            raise ValueError(f"unknown statistics {self.statistics!r}")
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

    @property
    def dist(self) -> JuttnerFamily:
        return JuttnerFamily(self.statistics, self.k_B, self.h_planck, self.w)


# ---------------------------------------------------------------------------
# the potential H and its derivatives


def _z10_integral(fn: Callable[[float, float], float], lam, gamma, m, cosh_weight=0):
    """integral_0^inf fn(lambda, gamma m cosh r) cosh^w r sinh^2 r dr."""

    gm = gamma * m

    def integrand(rho: float) -> float:
        try:
            c = math.cosh(rho)
            s = math.sinh(rho)
        except OverflowError:
            return 0.0
        f = fn(lam, gm * c)
        if f == 0.0:
            # decay has underflowed; avoid 0 * inf from the sinh factor
            return 0.0
        val = f * s * s
        if cosh_weight:
            val *= c**cosh_weight
        return val

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-300, epsrel=1e-13, limit=400)
    if not math.isfinite(val) or err > 1e-8 * max(abs(val), 1e-300):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}"
        )
    return val


def H_from_distribution(F: Callable[[float, float], float], lam, gamma, m) -> float:
    """H(lambda, gamma) = -(4 pi / gamma) m^3 integral F(lambda, gamma m cosh r) sinh^2 r dr."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return -(FOUR_PI / gamma) * m**3 * _z10_integral(F, lam, gamma, m)


def H_derivatives(dist: JuttnerFamily, lam, gamma, m) -> Tuple[float, float, float]:
    """(H, dH/dlambda, dH/dgamma) by differentiating under the integral.

    dF/dX = f_eq gives the lambda derivative; dF/dY = f_eq (the families
    depend on X + Y) gives the gamma derivative an extra m cosh factor.
    """
    h_val = H_from_distribution(dist.F, lam, gamma, m)
    h_lam = -(FOUR_PI / gamma) * m**3 * _z10_integral(dist.f_eq, lam, gamma, m)
    h_gam = -h_val / gamma - (FOUR_PI / gamma) * m**4 * _z10_integral(
        dist.f_eq, lam, gamma, m, cosh_weight=1
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


def _steps(state: ThermoState, rel: float) -> Tuple[float, float]:
    h_lam = rel * state.k_B
    h_gam = rel / (state.m / state.k_B + 3.0 / state.gamma)
    return h_lam, h_gam


def _stencil_functions(state: ThermoState, rel_step: float):
    """State functions at the centre and at each _STENCIL offset of both directions.

    Returns (centre, (points along lambda, h_lambda), (points along gamma,
    h_gamma)); each of the nine points costs one :func:`H_derivatives` call.
    """
    dist, m = state.dist, state.m

    def funcs(lam, gamma):
        return state_functions(*H_derivatives(dist, lam, gamma, m), lam, gamma)

    h_lam, h_gam = _steps(state, rel_step)
    centre = funcs(state.lam, state.gamma)
    along_lam = [funcs(state.lam + off * h_lam, state.gamma) for off, _ in _STENCIL]
    along_gam = [funcs(state.lam, state.gamma + off * h_gam) for off, _ in _STENCIL]
    return centre, (along_lam, h_lam), (along_gam, h_gam)


def gibbs_residual(state: ThermoState, rel_step: float = _REL_STEP) -> float:
    """Normalized residual of T ds - d(e/n) - p d(1/n) along both directions.

    Derivatives with respect to lambda and gamma come from five-point central
    differences of the quadrature state functions; the relation is an exact
    identity, so the residual is a numerical-error meter.
    """
    return _gibbs(*_stencil_functions(state, rel_step))


def thermo_with_gibbs(state: ThermoState) -> Tuple[EquilibriumFunctions, float]:
    """(thermo_functions(state), gibbs_residual(state)) from one stencil pass.

    The state functions are those of the stencil's centre point, so the
    centre is evaluated once instead of twice.
    """
    stencil = _stencil_functions(state, _REL_STEP)
    return stencil[0], _gibbs(*stencil)


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


def integrability_residual(state: ThermoState, rel_step: float = _REL_STEP) -> float:
    """Normalized residual of (e+p) n_p - gamma n_gamma|_p = n e_p.

    The pressure derivatives use the change of variables (lambda, gamma) ->
    (gamma, p) with p = H: n_p = n_lambda / H_lambda and
    n_gamma|_p = n_gamma|_lambda - n_lambda H_gamma / H_lambda.
    """
    c, (along_lam, h_lam), (along_gam, h_gam) = _stencil_functions(state, rel_step)
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def bessel_k1_quadrature(z: float) -> float:
    """K_1(z) = integral_0^inf exp(-z cosh t) cosh t dt by composite Gauss-Legendre.

    Panels of width 1/2 up to t = 14 leave a tail below 1e-300 for z >= 0.05.
    """
    if z <= 0.05:
        raise ValueError("quadrature window tuned for z > 0.05")
    total = 0.0
    width = 0.5
    for i in range(28):
        a = i * width
        mid = a + 0.5 * width
        half = 0.5 * width
        t_vals = mid + half * _GL_NODES
        total += half * float(
            np.sum(_GL_WEIGHTS * np.exp(-z * np.cosh(t_vals)) * np.cosh(t_vals))
        )
    return total


def mj_closed_form_H(lam, gamma, m, k_B=1.0, h_planck=1.0, w=1.0) -> float:
    """Nondegenerate H via the Bessel identity.

    integral exp(-z cosh r) sinh^2 r dr = K_1(z)/z at z = gamma m / k_B turns
    the quadrature of (the nondegenerate) F into
    H = (4 pi / gamma) m^3 k_B (w/h^3) exp(-lambda/k_B) K_1(z)/z.
    """
    z = gamma * m / k_B
    amp = w / h_planck**3
    return (FOUR_PI / gamma) * m**3 * k_B * amp * math.exp(-lam / k_B) * bessel_k1_quadrature(z) / z
