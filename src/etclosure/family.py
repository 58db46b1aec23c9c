"""Coefficient-space calculus for tensors symmetric together with their
mu-derivative.

A rank-n element of the family is the sum over s of phi^n_s times the
symmetrized product of s metrics and n-2s copies of mu (see
:func:`etclosure.tensors.gmu_basis`).  Such an element stays totally symmetric
under d/d mu_beta exactly when its coefficients satisfy the characteristic
descent relation

    (2s/gamma) d(phi^n_s)/d gamma + (n-2s+2)(n-2s+1) phi^n_{s-1} = 0

for s = 1..floor(n/2), so the leading coefficient phi^n_{floor(n/2)}
determines all the others.  Everything here happens on exact
:class:`~etclosure.scalar.ScalarExpr` coefficients; numeric realization is the
only lossy step and only when evaluated at float states.

All coefficient lists are ordered s = 0..floor(n/2).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .scalar import (
    FunctionRegistry,
    ScalarExpr,
    double_factorial,
    double_factorial_ratio,
    eta,
    power,
)
from .tensors import DenseSymTensor, FourVector, gmu_combination, is_zero


class CharacteristicError(ValueError):
    """An element's coefficients violate the characteristic descent relation."""


class FFamilyElement:
    """Rank-n family element as its coefficient sequence phi^n_s."""

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: Sequence[ScalarExpr]):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        expected = rank // 2 + 1
        if len(coeffs) != expected:
            raise ValueError(
                f"rank {rank} needs {expected} coefficients, got {len(coeffs)}"
            )
        self.rank = rank
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, rank: int) -> "FFamilyElement":
        return cls(rank, [ScalarExpr.zero()] * (rank // 2 + 1))

    @classmethod
    def from_leading(cls, rank: int, leading: ScalarExpr) -> "FFamilyElement":
        """Build the unique element with the given leading coefficient.

        Lower coefficients follow from the descent relation
        phi_{s-1} = -(2s / ((n-2s+2)(n-2s+1))) (1/gamma) d(phi_s)/d gamma.
        """
        smax = rank // 2
        coeffs: List[ScalarExpr] = [ScalarExpr.zero()] * (smax + 1)
        coeffs[smax] = leading
        for s in range(smax, 0, -1):
            denom = (rank - 2 * s + 2) * (rank - 2 * s + 1)
            coeffs[s - 1] = coeffs[s].diff_gamma().scale(
                Fraction(-2 * s, denom), gamma_pow=-1
            )
        return cls(rank, coeffs)

    @property
    def leading(self) -> ScalarExpr:
        return self.coeffs[self.rank // 2]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FFamilyElement):
            return NotImplemented
        return self.rank == other.rank and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"FFamilyElement(rank={self.rank}, coeffs={list(self.coeffs)})"

    def __add__(self, other: "FFamilyElement") -> "FFamilyElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FFamilyElement(
            self.rank, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "FFamilyElement") -> "FFamilyElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FFamilyElement(
            self.rank, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def scale(self, factor, gamma_pow: int = 0, msq_pow: int = 0) -> "FFamilyElement":
        return FFamilyElement(
            self.rank,
            [c.scale(factor, gamma_pow=gamma_pow, msq_pow=msq_pow) for c in self.coeffs],
        )

    def diff_lambda(self) -> "FFamilyElement":
        return FFamilyElement(self.rank, [c.diff_lambda() for c in self.coeffs])

    def to_json_obj(self) -> dict:
        return {"rank": self.rank, "phi": [c.to_json_obj() for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, obj) -> "FFamilyElement":
        return cls(int(obj["rank"]), [ScalarExpr.from_json_obj(p) for p in obj["phi"]])


def check_characteristic(f: FFamilyElement) -> Tuple[bool, List[ScalarExpr]]:
    """Exact check of the descent relation; returns (ok, residual per s >= 1)."""
    n = f.rank
    residuals: List[ScalarExpr] = []
    for s in range(1, n // 2 + 1):
        res = f.coeffs[s].diff_gamma().scale(2 * s, gamma_pow=-1) + f.coeffs[
            s - 1
        ].scale((n - 2 * s + 2) * (n - 2 * s + 1))
        residuals.append(res)
    return all(r.is_zero() for r in residuals), residuals


def mu_derivative(f: FFamilyElement) -> "FFamilyElement":
    """d/d mu_beta in coefficient space; raises rank by one.

    phi^{n+1}_0 = -(1/gamma) d(phi^n_0)/d gamma and
    phi^{n+1}_s = ((n+1)/(2s)) (n-2s+2) phi^n_{s-1} for s >= 1.  The result
    satisfies the characteristic relation whenever the input does.
    """
    ok, _ = check_characteristic(f)
    if not ok:
        raise CharacteristicError("input violates the characteristic relation")
    n = f.rank
    new_smax = (n + 1) // 2
    coeffs: List[ScalarExpr] = []
    coeffs.append(f.coeffs[0].diff_gamma().scale(-1, gamma_pow=-1))
    for s in range(1, new_smax + 1):
        factor = Fraction((n + 1) * (n - 2 * s + 2), 2 * s)
        coeffs.append(f.coeffs[s - 1].scale(factor))
    return FFamilyElement(n + 1, coeffs)


def trace(f: FFamilyElement) -> "FFamilyElement":
    """Metric contraction of one index pair; lowers rank by two.

    Coefficient recombination:
    phi^n_s = [4(s+1)(n-s+2) phi^{n+2}_{s+1} - gamma^2 (n+2-2s)(n+1-2s)
               phi^{n+2}_s] / ((n+2)(n+1)).
    """
    if f.rank < 2:
        raise ValueError("trace needs rank >= 2")
    n = f.rank - 2
    denom = (n + 2) * (n + 1)
    coeffs: List[ScalarExpr] = []
    for s in range(n // 2 + 1):
        term = f.coeffs[s + 1].scale(Fraction(4 * (s + 1) * (n - s + 2), denom))
        term = term + f.coeffs[s].scale(
            Fraction(-(n + 2 - 2 * s) * (n + 1 - 2 * s), denom), gamma_pow=2
        )
        coeffs.append(term)
    return FFamilyElement(n, coeffs)


def _leading_monomial_p(gamma_pow: int) -> int:
    """Solve gamma_pow = -2(3+p) for integer p."""
    if gamma_pow % 2 != 0:
        raise ValueError(f"leading monomial gamma power must be even, got {gamma_pow}")
    return (-gamma_pow - 6) // 2


def leading_after_traces(f: FFamilyElement, r: int) -> ScalarExpr:
    """Leading coefficient of the r-fold trace, monomial by monomial.

    Each monomial f(lambda) gamma^{-2(3+p)} of the rank-n leading term picks
    up the factor

        [(2L-2r-1)!!/(2L-1)!!] * eta(2L-2r-2-2p, 2L-4-2p),  L = floor((n+1)/2)

    with the gamma power unchanged.  Requires p >= 0 on every monomial.
    """
    if r < 0:
        raise ValueError("trace count must be non-negative")
    if r == 0:
        return f.leading
    n = f.rank
    if n - 2 * r < 0:
        raise ValueError(f"cannot trace rank {n} element {r} times")
    big_l = (n + 1) // 2
    out = ScalarExpr.zero()
    for coeff, gpow, mpow, sym in f.leading.terms:
        p = _leading_monomial_p(gpow)
        if p < 0:
            raise ValueError(
                f"monomial gamma^{gpow} is not of the admissible gamma^(-2(3+p)) form"
            )
        factor = double_factorial_ratio(2 * big_l - 2 * r - 1, 2 * big_l - 1)
        factor *= eta(2 * big_l - 2 * r - 2 - 2 * p, 2 * big_l - 4 - 2 * p)
        if factor != 0:
            out = out + ScalarExpr.monomial(coeff * factor, gpow, mpow, sym)
    return out


def lift(
    f: FFamilyElement,
    r: int,
    free: Optional[Sequence[Optional[ScalarExpr]]] = None,
) -> "FFamilyElement":
    """An element of rank n+2r whose r-fold trace returns f exactly.

    The particular part scales each leading monomial f(lambda) gamma^{-2(3+p)}
    by

        ((n+2r)!/n!) * (2[n/2])!!/(2[n/2]+2r)!!
                     * (2n-2[n/2]-2p-4)!!/(2n-2[n/2]+2r-2p-4)!!

    (a telescoped ratio: a zero factor means the excluded-exponent hypothesis
    p < n-[n/2]-1 or p > n-[n/2]+r-2 is violated and raises
    :class:`SingularRatioError`).  The homogeneous part adds, for
    i = 0..r-1, free_i(lambda) * gamma^{-2(3+n+i-[(n+2)/2])}; each free_i must
    be a pure lambda-expression (no gamma dependence).  Lower coefficients are
    regenerated from the leading term by descent.
    """
    if r < 0:
        raise ValueError("lift count must be non-negative")
    if r == 0:
        if free:
            raise ValueError("free functions supplied for r = 0")
        return f
    if free is None:
        free = [None] * r
    if len(free) != r:
        raise ValueError(f"need exactly {r} free functions, got {len(free)}")
    n = f.rank
    half = n // 2
    lead = ScalarExpr.zero()
    for coeff, gpow, mpow, sym in f.leading.terms:
        p = _leading_monomial_p(gpow)
        ratio = double_factorial_ratio(2 * half, 2 * half + 2 * r)
        ratio *= double_factorial_ratio(
            2 * n - 2 * half - 2 * p - 4, 2 * n - 2 * half + 2 * r - 2 * p - 4
        )
        scalefac = Fraction(factorial(n + 2 * r), factorial(n)) * ratio
        lead = lead + ScalarExpr.monomial(coeff * scalefac, gpow, mpow, sym)
    for i, fn in enumerate(free):
        if fn is None:
            continue
        if any(gpow != 0 for _, gpow, _, _ in fn.terms):
            raise ValueError("free functions must not depend on gamma")
        gpow_free = -2 * (3 + n + i - (n + 2) // 2)
        lead = lead + fn.scale(1, gamma_pow=gpow_free)
    return FFamilyElement.from_leading(n + 2 * r, lead)


def basis_mu_contraction(n: int, r: int) -> List[ScalarExpr]:
    """Coefficients of the maximal-metric basis element contracted r times.

    For even n, contracting g^{(a1 a2}...g^{a_{n-1} a_n)} with r copies of
    mu gives a rank n-r combination with coefficients (s = 0..floor((n-r)/2)):

      r <= 1:  1 at s = floor((n-r)/2), else 0
      r >= 2:  r!(n-r)! / ((2s+2r-n)!! (2s)!! (n-r-2s)! (n-1)!!)
               * (-gamma^2)^(s+r-n/2)   for n/2-r <= s <= floor((n-r)/2)
               and 0 for s <= n/2-r-1.
    """
    if n % 2 != 0 or n < 0:
        raise ValueError(f"n must be even and non-negative, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}")
    smax = (n - r) // 2
    out: List[ScalarExpr] = []
    for s in range(smax + 1):
        if r <= 1:
            out.append(ScalarExpr.rational(1) if s == smax else ScalarExpr.zero())
            continue
        if s < n // 2 - r:
            out.append(ScalarExpr.zero())
            continue
        num = Fraction(factorial(r) * factorial(n - r))
        den = (
            double_factorial(2 * s + 2 * r - n)
            * double_factorial(2 * s)
            * factorial(n - r - 2 * s)
            * double_factorial(n - 1)
        )
        e = s + r - n // 2
        coeff = num / den * (-1) ** e
        out.append(ScalarExpr.monomial(coeff, gamma_pow=2 * e))
    return out


def timelike_gamma(mu: FourVector):
    """gamma = sqrt(-mu.mu), exact (a Fraction) whenever mu.mu is a rational square.

    Batched (float64 array) components give the array of gamma at each point.
    """
    gsq = mu.gamma_sq()
    if isinstance(gsq, np.ndarray):
        if (gsq <= 0).any():
            raise ValueError("mu must be timelike at every point")
        return power(gsq, 0.5)
    if gsq <= 0:
        raise ValueError("mu must be timelike")
    if isinstance(gsq, (int, Fraction)):
        q = Fraction(gsq)
        rn, rd = isqrt(q.numerator), isqrt(q.denominator)
        if rn * rn == q.numerator and rd * rd == q.denominator:
            return Fraction(rn, rd)
        return float(gsq) ** 0.5
    return gsq**0.5


def realize(
    f: FFamilyElement,
    lam,
    mu: FourVector,
    m,
    registry: Optional[FunctionRegistry] = None,
) -> DenseSymTensor:
    """Evaluate an element to components: sum_s phi^n_s(lam, gamma, m) Y^n_s(mu).

    Exact when fed Fraction state values whose gamma is rational.  A float64
    array for lam or for the components of mu realizes a batch of states at
    once (see :mod:`etclosure.tensors`).
    """
    gamma = timelike_gamma(mu)
    values = {}
    for s, phi in enumerate(f.coeffs):
        if phi.is_zero():
            continue
        value = phi.evaluate(lam, gamma, m, registry)
        if not is_zero(value):
            values[s] = value
    return gmu_combination(f.rank, values, mu)
