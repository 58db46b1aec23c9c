"""Exact formal scalars for closure coefficients.

A :class:`ScalarExpr` is a finite sum of terms

    coeff * gamma**gamma_pow * (-m**2)**msq_pow * D^h c_q(lambda)

with exact rational ``coeff``, integer powers, and an optional formal symbol
``D^h c_q`` standing for the h-th lambda-derivative of the registered function
c_q.  Expressions are kept in canonical merged form, so equality is decidable
exactly.  The coefficients are stored as integer numerators over one positive
denominator, reduced so that the denominator and all numerators have gcd 1;
every operation runs on these integers and reduces its result once, and the
``(Fraction, gamma_pow, msq_pow, sym)`` terms are a view built on first read
and kept.  Numeric evaluation is generic: feeding ``fractions.Fraction`` values
(and a registry of exact polynomial functions) yields exact rational results,
summed as one integer numerator over one denominator; feeding floats yields
floats; feeding float64 arrays yields the array of the values at each point.

The module also provides the combinatorial helpers used throughout the
coefficient formulas: double factorials (with the (-1)!! = 1 convention),
telescoped double-factorial ratios valid at negative even arguments, and the
even-product function eta.  It is the lowest layer that meets batches, so it
holds the package's one test of whether a value is a batch
(:func:`array_type`, :func:`is_batch`) and its one numpy import
(:func:`numpy`, on first use): the exact path never loads numpy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

RationalLike = Union[int, Fraction]
SymKey = Optional[Tuple[int, int]]
Term = Tuple[Fraction, int, int, SymKey]
# the stored key of a term: (q, h, gamma_pow, msq_pow), with q = h = -1 where
# there is no symbol, so that tuple order is the canonical term order
Key = Tuple[int, int, int, int]


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


_numpy = None
_ndarray = None


def numpy():
    """The numpy module, imported on the first call.

    Only code that makes arrays calls it: the exact path never does, so
    neither the package nor its Fraction arithmetic loads numpy.
    """
    global _numpy
    if _numpy is None:
        import numpy as _numpy
    return _numpy


class _NoArray:
    """numpy's array type while numpy is not loaded: nothing is an instance of it."""


def array_type() -> type:
    """numpy's ``ndarray`` once numpy is loaded, else a type that nothing is an instance of.

    The one place that decides whether a value is a batch.  No array can
    exist before someone has loaded numpy, so it reads ``sys.modules`` and
    never imports; "not loaded" is never kept, so numpy loaded later is seen.
    Loops resolve it once per call and test ``type(v) is`` or ``isinstance``
    against the result.
    """
    global _ndarray
    if _ndarray is None:
        module = sys.modules.get("numpy")
        if module is None:
            return _NoArray
        _ndarray = module.ndarray
    return _ndarray


def is_batch(v) -> bool:
    """Whether v is a batch (a numpy array); floats, ints and Fractions are answered first."""
    t = type(v)
    if t is float or t is Fraction or t is int:
        return False
    return isinstance(v, array_type())


def power(x, e):
    """x ** e; for a float64 array, Python's float pow applied entry by entry.

    numpy's vectorised ``**`` can differ from Python's ``pow`` in the last bit
    (at integer exponents from 3 up, and at some inputs for 0.5, 2 and -1), so
    a batch of points would not reproduce the same points evaluated one by one.
    """
    if is_batch(x):
        return numpy().array([v**e for v in x.tolist()])
    return x**e


def _rational(x: RationalLike) -> RationalLike:
    """x itself, if it is an int or a Fraction: either has numerator and denominator."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def _key(gamma_pow: int, msq_pow: int, sym: SymKey) -> Key:
    if sym is None:
        return (-1, -1, int(gamma_pow), int(msq_pow))
    q, h = sym
    if q < 0 or h < 0:
        raise ValueError(f"invalid symbol (q={q}, h={h})")
    return (int(q), int(h), int(gamma_pow), int(msq_pow))


def _merged(den: int, pairs: Iterable[Tuple[int, Key]]) -> "ScalarExpr":
    """The expression sum num/den over (num, key) pairs: equal keys summed, zeros dropped, sorted."""
    merged: dict = {}
    for num, key in pairs:
        merged[key] = merged.get(key, 0) + num
    kept = sorted([(key, num) for key, num in merged.items() if num])
    return ScalarExpr._reduced(den, [num for _, num in kept], [key for key, _ in kept])


class ScalarExpr:
    """Canonical sum of rational * gamma^p * (-m^2)^j * (optional D^h c_q).

    Immutable.  The coefficients are stored as integer numerators over one
    positive denominator ``den``, reduced so that gcd(den, *numerators) = 1;
    each numerator sits beside its key (q, h, gamma_pow, msq_pow), with
    q = h = -1 for a term without a symbol.  Terms with equal keys are merged
    and zero numerators dropped, and the keys are sorted, which puts the
    constants first, then orders by symbol, gamma_pow and msq_pow.  The
    storage is therefore unique, and ``==`` and ``hash`` compare it
    structurally.  ``terms`` is the public ``(Fraction, gamma_pow, msq_pow,
    sym)`` view of it, built on first read and kept.

    The public constructor validates and merges arbitrary terms, as does
    :meth:`from_numerators` for integer numerators over a given denominator.
    Every operation runs on the integers and reduces its result once, with one
    gcd over the denominator and all numerators: ``+`` brings the two
    denominators to their lcm and merges the keys, sorting only when the
    second operand brings a new one.  Negation, ``scale`` by a nonzero factor
    (a constant shift of both powers), ``diff_gamma`` and ``diff_gamma_sq`` (a
    constant shift of gamma_pow, dropping gamma_pow 0) and ``diff_lambda``
    (h -> h + 1 on every symbol, dropping constants) keep every key distinct
    and the order unchanged.  ``scale`` by p/q needs no gcd per term: it
    divides p by gcd(p, den) and q by gcd(q, *numerators).  Every stored tuple
    is built from a list, never from a generator, whose tuple would be
    over-allocated for as long as the expression lives.
    """

    __slots__ = ("_den", "_nums", "_keys", "_terms")

    def __init__(self, terms: Iterable[Term] = ()):
        checked = [(_rational(coeff), _key(gpow, mpow, sym)) for coeff, gpow, mpow, sym in terms]
        den = math.lcm(*[c.denominator for c, _ in checked])
        merged = _merged(den, [(c.numerator * (den // c.denominator), key) for c, key in checked])
        self._den, self._nums, self._keys, self._terms = merged._den, merged._nums, merged._keys, None

    @classmethod
    def _wrap(cls, den: int, nums: Tuple[int, ...], keys: Tuple[Key, ...]) -> "ScalarExpr":
        """Wrap storage that is already canonical, without checking it."""
        expr = object.__new__(cls)
        expr._den, expr._nums, expr._keys, expr._terms = den, nums, keys, None
        return expr

    @classmethod
    def _reduced(cls, den: int, nums: Sequence[int], keys: Sequence[Key]) -> "ScalarExpr":
        """Wrap distinct, sorted keys with nonzero numerators over den > 0, divided by their gcd."""
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
        return cls._wrap(den, tuple(nums), tuple(keys))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_numerators(cls, den: int, terms: Iterable[Tuple[int, int, int, SymKey]]) -> "ScalarExpr":
        """sum num/den * gamma^p * (-m^2)^j * sym over integer (num, p, j, sym) terms, den > 0."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        return _merged(den, [(int(num), _key(gpow, mpow, sym)) for num, gpow, mpow, sym in terms])

    @classmethod
    def zero(cls) -> "ScalarExpr":
        return cls._wrap(1, (), ())

    @classmethod
    def monomial(
        cls,
        coeff: RationalLike,
        gamma_pow: int = 0,
        msq_pow: int = 0,
        sym: SymKey = None,
    ) -> "ScalarExpr":
        return cls([(coeff, gamma_pow, msq_pow, sym)])

    @classmethod
    def rational(cls, value: RationalLike) -> "ScalarExpr":
        return cls.monomial(value)

    @classmethod
    def symbol(cls, q: int, h: int = 0) -> "ScalarExpr":
        """The formal symbol D^h c_q."""
        return cls.monomial(1, sym=(q, h))

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> Tuple[Term, ...]:
        """The (Fraction, gamma_pow, msq_pow, sym) terms in canonical order."""
        terms = self._terms
        if terms is None:
            den = self._den
            terms = self._terms = tuple([
                (Fraction(n, den), g, mp, None if q < 0 else (q, h))
                for n, (q, h, g, mp) in zip(self._nums, self._keys)
            ])
        return terms

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return (self._den == other._den and self._nums == other._nums
                and self._keys == other._keys)

    def __hash__(self) -> int:
        return hash((self._den, self._nums, self._keys))

    def __repr__(self) -> str:
        if not self._nums:
            return "ScalarExpr(0)"
        parts = []
        for coeff, gpow, mpow, sym in self.terms:
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

    def _plus(self, other: "ScalarExpr", sign: int) -> "ScalarExpr":
        """self + sign * other over the lcm of the two denominators."""
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        a, b = d2 // g, sign * (d1 // g)
        merged = dict(zip(self._keys, self._nums if a == 1 else [n * a for n in self._nums]))
        size = len(merged)
        for key, n in zip(other._keys, other._nums):
            merged[key] = merged.get(key, 0) + n * b
        # no new key keeps self's (sorted) order
        items = merged.items() if len(merged) == size else sorted(merged.items())
        kept = [(key, n) for key, n in items if n]
        return ScalarExpr._reduced(d1 * a, [n for _, n in kept], [key for key, _ in kept])

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other
        return self._plus(other, 1)

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return -other
        return self._plus(other, -1)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr._wrap(self._den, tuple([-n for n in self._nums]), self._keys)

    def scale(
        self, factor: RationalLike, gamma_pow: int = 0, msq_pow: int = 0, divisor: int = 1
    ) -> "ScalarExpr":
        """Multiply by (factor / divisor) * gamma^gamma_pow * (-m^2)^msq_pow."""
        f = _rational(factor)
        p, q = f.numerator, f.denominator * divisor
        if q < 0:
            p, q = -p, -q
        elif q == 0:
            raise ZeroDivisionError("scale by a zero divisor")
        if p == 0 or not self._nums:
            return ScalarExpr.zero()
        den, nums = self._den, self._nums
        g = math.gcd(p, q)
        if g != 1:
            p, q = p // g, q // g
        g = math.gcd(p, den)
        if g != 1:
            p, den = p // g, den // g
        if q != 1:
            g = math.gcd(q, *nums)
            if g != 1:
                q, nums = q // g, [n // g for n in nums]
            den *= q
        if p != 1:
            nums = [n * p for n in nums]
        dg, dm = int(gamma_pow), int(msq_pow)
        keys = self._keys if not (dg or dm) else tuple(
            [(qq, h, g + dg, mp + dm) for qq, h, g, mp in self._keys])
        return ScalarExpr._wrap(den, tuple(nums), keys)

    # -- calculus -----------------------------------------------------

    def _power_rule(self, shift: int, den: int) -> "ScalarExpr":
        """Termwise n g^p / den -> n p g^(p - shift) / (den * self's den), dropping p = 0."""
        nums, keys = [], []
        for n, (q, h, g, mp) in zip(self._nums, self._keys):
            if g:
                nums.append(n * g)
                keys.append((q, h, g - shift, mp))
        return ScalarExpr._reduced(den * self._den, nums, keys)

    def diff_gamma(self) -> "ScalarExpr":
        """Termwise d/d gamma."""
        return self._power_rule(1, 1)

    def diff_gamma_sq(self) -> "ScalarExpr":
        """Termwise d/d(gamma^2) = (1/(2 gamma)) d/d gamma."""
        return self._power_rule(2, 2)

    def diff_lambda(self) -> "ScalarExpr":
        """d/d lambda: bumps the derivative order of each symbol, drops constants."""
        nums, keys = [], []
        for n, (q, h, g, mp) in zip(self._nums, self._keys):
            if q >= 0:
                nums.append(n)
                keys.append((q, h + 1, g, mp))
        return ScalarExpr._reduced(self._den, nums, keys)

    def gamma_derivative_cancels(self, other: "ScalarExpr", a: int, b: int) -> bool:
        """Whether (a/gamma) d(self)/d gamma + b other is exactly zero, without building it.

        Shifting gamma_pow keeps the canonical order, so the sum vanishes
        exactly when the gamma_pow != 0 terms n g^p / den of self, moved to
        g^(p-2), have other's keys in other's order and each pair of
        numerators meets n p a / den + b n' / den' = 0, compared over integers.
        """
        moved = [(n, key) for n, key in zip(self._nums, self._keys) if key[2]]
        if len(moved) != len(other._keys):
            return False
        x, y = a * other._den, -b * self._den
        for (n, (q, h, g, mp)), n_other, key in zip(moved, other._nums, other._keys):
            if key != (q, h, g - 2, mp) or n * g * x != y * n_other:
                return False
        return True

    # -- evaluation ---------------------------------------------------

    def evaluate(self, lam, gamma, m, registry: Optional["FunctionRegistry"] = None):
        """Sum of coeff * gamma^p * (-m^2)^j * (D^h c_q)(lambda).

        Generic over the numeric type: Fraction inputs with an exact registry
        give an exact Fraction, floats give floats, and float64 arrays of
        lambda or gamma values (one entry per point) give the float64 array of
        the values at each point.  gamma must be positive.  Where gamma, m and
        every symbol value are ints or Fractions, the sum runs over integers
        and one Fraction is built at the end.
        """
        if is_batch(gamma):
            if (gamma <= 0).any():
                raise ValueError("gamma must be positive at every point")
        elif gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if not self._nums:
            return 0 * gamma  # zero in the caller's numeric type
        symbols = []
        for q, h, _, _ in self._keys:
            if q < 0:
                symbols.append(None)
            elif registry is None or not registry.has(q):
                raise MissingFunctionError(f"no registry entry for c_{q}")
            else:
                symbols.append(registry.derivative_value(q, h, lam))
        # against a float gamma a rational coefficient acts as its float, and
        # it must not meet an array as a Fraction (that gives an object array)
        exact = isinstance(gamma, (int, Fraction))
        if exact and isinstance(m, (int, Fraction)) and all(
                isinstance(v, (int, Fraction)) for v in symbols if v is not None):
            return self._evaluate_exact(gamma, m, symbols)
        coeffs = [t[0] for t in self.terms] if exact else [n / self._den for n in self._nums]
        msq = -(m * m)
        total = None
        for c, (_, _, g, mp), value in zip(coeffs, self._keys, symbols):
            val = c * power(gamma, g) * msq**mp
            if value is not None:
                val = val * value
            total = val if total is None else total + val
        return total

    def _evaluate_exact(self, gamma: RationalLike, m: RationalLike, symbols: list) -> Fraction:
        """The exact value as one integer numerator over one denominator.

        With gamma = a/b and -m^2 = x/y, each term's a^(p-pmin) b^(pmax-p)
        x^(j-jmin) y^(jmax-j) is an integer, and a^pmin b^-pmax x^jmin y^-jmax
        is common to all of them; the symbol values come over their lcm.
        """
        a, b, x, y = gamma.numerator, gamma.denominator, -m.numerator**2, m.denominator**2
        keys = self._keys
        gs = [g for _, _, g, _ in keys]
        mps = [mp for _, _, _, mp in keys]
        g0, g1, j0, j1 = min(gs), max(gs), min(mps), max(mps)
        sym_den = math.lcm(*[v.denominator for v in symbols if v is not None])
        total = 0
        for n, g, mp, value in zip(self._nums, gs, mps, symbols):
            term = n * a ** (g - g0) * b ** (g1 - g) * x ** (mp - j0) * y ** (j1 - mp)
            if value is None:
                total += term * sym_den
            else:
                total += term * value.numerator * (sym_den // value.denominator)
        num, den = total, self._den * sym_den
        for base, e in ((a, g0), (b, -g1), (x, j0), (y, -j1)):
            if e >= 0:
                num *= base**e
            else:
                den *= base ** (-e)
        return Fraction(num, den)


class PolynomialFunction:
    """Exact polynomial of lambda with rational coefficients.

    Derivatives of any order are exact, which makes registries built from
    these suitable for rational-arithmetic property tests.
    """

    def __init__(self, coeffs: Sequence[RationalLike]):
        self.coeffs = tuple(Fraction(_rational(c)) for c in coeffs)
        self._derived = {}

    def _derivative_coeffs(self, order: int):
        """(exact, float) coefficients of the order-th derivative, lowest power first; cached."""
        try:
            return self._derived[order]
        except KeyError:
            exact = tuple(c * math.perm(k, order) for k, c in enumerate(self.coeffs) if k >= order)
            return self._derived.setdefault(order, (exact, tuple(map(float, exact))))

    def derivative_value(self, order: int, lam):
        """The order-th derivative at lam: exact at a rational lam, else float (or a float64 array)."""
        exact_coeffs, float_coeffs = self._derivative_coeffs(order)
        if isinstance(lam, (int, Fraction)):
            # Horner's rule: exact arithmetic gives the same Fraction as the power sum
            acc = Fraction(0)
            for c in reversed(exact_coeffs):
                acc = acc * lam + c
            return acc
        # the float and float64-array sum stays a power sum: Horner would round differently
        acc = 0 * lam
        for j, c in enumerate(float_coeffs):
            acc = acc + c * power(lam, j)
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
