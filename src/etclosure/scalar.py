"""Exact formal scalars for closure coefficients.

A :class:`ScalarExpr` is a finite sum of terms

    coeff * gamma**gamma_pow * (-m**2)**msq_pow * D^h c_q(lambda)

with exact rational ``coeff``, integer powers, and an optional formal symbol
``D^h c_q`` standing for the h-th lambda-derivative of the registered function
c_q.  Expressions are kept in canonical merged form, so equality is decidable
exactly.  Numeric evaluation is generic: feeding ``fractions.Fraction`` values
(and a registry of exact polynomial functions) yields exact rational results,
feeding floats yields floats.

The module also provides the combinatorial helpers used throughout the
coefficient formulas: double factorials (with the (-1)!! = 1 convention),
telescoped double-factorial ratios valid at negative even arguments, and the
even-product function eta.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

RationalLike = Union[int, Fraction]
SymKey = Optional[Tuple[int, int]]


class SingularRatioError(ArithmeticError):
    """A telescoped double-factorial ratio hit a zero factor."""


class MissingFunctionError(KeyError):
    """The function registry has no entry for a requested symbol."""


def double_factorial(n: int) -> int:
    """n!! for n >= -1, with 0!! = 1 and (-1)!! = 1.

    Arguments below -1 are rejected: isolated negative-even double factorials
    are undefined and only ever appear inside ratios (use
    :func:`double_factorial_ratio`).
    """
    if n < -1:
        raise ValueError(f"double_factorial undefined for n={n}; use double_factorial_ratio")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def double_factorial_ratio(a: int, b: int) -> Fraction:
    """a!!/b!! as a telescoping product, valid for negative arguments.

    Both arguments must have the same parity.  For a > b the value is the
    product of the ladder b+2, b+4, ..., a; for a < b it is the reciprocal of
    the ladder a+2, ..., b; for a == b it is 1.  A zero factor in the ladder
    (possible only on the even ladder through 0) raises
    :class:`SingularRatioError`.
    """
    if (a - b) % 2 != 0:
        raise ValueError(f"double_factorial_ratio needs equal parity, got ({a}, {b})")
    if a == b:
        return Fraction(1)
    lo, hi = (b, a) if a > b else (a, b)
    prod = 1
    k = lo + 2
    while k <= hi:
        if k == 0:
            raise SingularRatioError(f"zero factor in double-factorial ratio ({a})!!/({b})!!")
        prod *= k
        k += 2
    return Fraction(prod) if a > b else Fraction(1, prod)


def eta(a: int, b: int) -> int:
    """Product of all even integers e with a <= e <= b; 1 on an empty range.

    Zero whenever the range contains 0.
    """
    if a > b:
        return 1
    first = a if a % 2 == 0 else a + 1
    if first > b:
        return 1
    prod = 1
    for e in range(first, b + 1, 2):
        prod *= e
    return prod


def power(x, e):
    """x ** e; for a float64 array, Python's float pow applied entry by entry.

    numpy's vectorised ``**`` can differ from Python's ``pow`` in the last bit
    (at integer exponents from 3 up, and at some inputs for 0.5, 2 and -1), so
    a batch of points would not reproduce the same points evaluated one by one.
    """
    if isinstance(x, np.ndarray):
        return np.array([v**e for v in x.tolist()])
    return x**e


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


class ScalarExpr:
    """Canonical sum of rational * gamma^p * (-m^2)^j * (optional D^h c_q).

    Immutable.  Terms with equal (gamma_pow, msq_pow, sym) are merged and
    zero-coefficient terms dropped, so ``==`` is exact structural equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Tuple[Fraction, int, int, SymKey]] = ()):
        merged: dict = {}
        for coeff, gpow, mpow, sym in terms:
            coeff = _as_fraction(coeff)
            if sym is not None:
                q, h = sym
                if q < 0 or h < 0:
                    raise ValueError(f"invalid symbol (q={q}, h={h})")
                sym = (int(q), int(h))
            key = (int(gpow), int(mpow), sym)
            merged[key] = merged.get(key, Fraction(0)) + coeff
        kept = [
            (c, g, mp, s)
            for (g, mp, s), c in merged.items()
            if c != 0
        ]
        kept.sort(key=lambda t: (t[3] is not None, t[3] or (0, 0), t[1], t[2]))
        self._terms = tuple(kept)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ScalarExpr":
        return cls()

    @classmethod
    def monomial(
        cls,
        coeff: RationalLike,
        gamma_pow: int = 0,
        msq_pow: int = 0,
        sym: SymKey = None,
    ) -> "ScalarExpr":
        return cls([(_as_fraction(coeff), gamma_pow, msq_pow, sym)])

    @classmethod
    def rational(cls, value: RationalLike) -> "ScalarExpr":
        return cls.monomial(value)

    @classmethod
    def symbol(cls, q: int, h: int = 0) -> "ScalarExpr":
        """The formal symbol D^h c_q."""
        return cls.monomial(1, sym=(q, h))

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple[Fraction, int, int, SymKey], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "ScalarExpr(0)"
        parts = []
        for coeff, gpow, mpow, sym in self._terms:
            bits = [str(coeff)]
            if gpow:
                bits.append(f"g^{gpow}")
            if mpow:
                bits.append(f"(-m2)^{mpow}")
            if sym is not None:
                q, h = sym
                bits.append(f"D{h}c{q}" if h else f"c{q}")
            parts.append("*".join(bits))
        return "ScalarExpr(" + " + ".join(parts) + ")"

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return ScalarExpr(self._terms + other._terms)

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr((-c, g, mp, s) for c, g, mp, s in self._terms)

    def scale(self, factor: RationalLike, gamma_pow: int = 0, msq_pow: int = 0) -> "ScalarExpr":
        """Multiply by factor * gamma^gamma_pow * (-m^2)^msq_pow."""
        f = _as_fraction(factor)
        if f == 0:
            return ScalarExpr()
        return ScalarExpr(
            (c * f, g + gamma_pow, mp + msq_pow, s) for c, g, mp, s in self._terms
        )

    # -- calculus -----------------------------------------------------

    def diff_gamma(self) -> "ScalarExpr":
        """Termwise d/d gamma."""
        return ScalarExpr(
            (c * g, g - 1, mp, s) for c, g, mp, s in self._terms if g != 0
        )

    def diff_gamma_sq(self) -> "ScalarExpr":
        """Termwise d/d(gamma^2) = (1/(2 gamma)) d/d gamma."""
        return ScalarExpr(
            (c * Fraction(g, 2), g - 2, mp, s) for c, g, mp, s in self._terms if g != 0
        )

    def diff_lambda(self) -> "ScalarExpr":
        """d/d lambda: bumps the derivative order of each symbol, drops constants."""
        return ScalarExpr(
            (c, g, mp, (s[0], s[1] + 1)) for c, g, mp, s in self._terms if s is not None
        )

    # -- evaluation ---------------------------------------------------

    def evaluate(self, lam, gamma, m, registry: Optional["FunctionRegistry"] = None):
        """Sum of coeff * gamma^p * (-m^2)^j * (D^h c_q)(lambda).

        Generic over the numeric type: Fraction inputs with an exact registry
        give an exact Fraction, floats give floats, and float64 arrays of
        lambda or gamma values (one entry per point) give the float64 array of
        the values at each point.  gamma must be positive.
        """
        if isinstance(gamma, np.ndarray):
            if (gamma <= 0).any():
                raise ValueError("gamma must be positive at every point")
        elif gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        # against a float gamma a rational coefficient acts as its float, and
        # it must not meet an array as a Fraction (that gives an object array)
        exact = isinstance(gamma, (int, Fraction))
        msq = -(m * m)
        total = None
        for c, g, mp, s in self._terms:
            val = (c if exact else float(c)) * power(gamma, g) * msq**mp
            if s is not None:
                if registry is None or not registry.has(s[0]):
                    raise MissingFunctionError(f"no registry entry for c_{s[0]}")
                val = val * registry.derivative_value(s[0], s[1], lam)
            total = val if total is None else total + val
        if total is None:
            return 0 * gamma  # zero in the caller's numeric type
        return total


class PolynomialFunction:
    """Exact polynomial of lambda with rational coefficients.

    Derivatives of any order are exact, which makes registries built from
    these suitable for rational-arithmetic property tests.
    """

    def __init__(self, coeffs: Sequence[RationalLike]):
        self.coeffs = tuple(_as_fraction(c) for c in coeffs)

    def derivative_value(self, order: int, lam):
        """The order-th derivative at lam: exact at a rational lam, else float (or a float64 array)."""
        exact = isinstance(lam, (int, Fraction))
        acc = Fraction(0) if exact else 0 * lam
        for k in range(order, len(self.coeffs)):
            c = self.coeffs[k] * math.perm(k, order)
            acc = acc + (c if exact else float(c)) * power(lam, k - order)
        return acc


class FunctionRegistry:
    """Map q -> smooth function of lambda, queried by derivative order.

    Read-only after construction.  The closure formulas index their free
    functions by q alone: the same q appearing at different truncation orders
    always refers to one function.
    """

    def __init__(self, functions: Mapping[int, object]):
        self._functions = dict(functions)
        for q in self._functions:
            if q < 0:
                raise ValueError(f"function index must be non-negative, got {q}")

    def has(self, q: int) -> bool:
        return q in self._functions

    def derivative_value(self, q: int, order: int, lam):
        try:
            fn = self._functions[q]
        except KeyError:
            raise MissingFunctionError(f"no registry entry for c_{q}") from None
        return fn.derivative_value(order, lam)

    @classmethod
    def polynomials(cls, seed: int) -> "FunctionRegistry":
        """Seeded registry of exact rational polynomials c_0..c_7 of degree 6 (for exact tests)."""
        import random

        rng = random.Random(seed)
        funcs = {}
        for q in range(8):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)]
            # keep the top coefficient nonzero so degrees are as advertised
            if coeffs[-1] == 0:
                coeffs[-1] = Fraction(1, 2)
            funcs[q] = PolynomialFunction(coeffs)
        return cls(funcs)
