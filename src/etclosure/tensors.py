"""Totally symmetric spacetime tensors, stored and operated on as polynomials.

The metric is diag(-1, +1, +1, +1); timelike squared norms are negative, which
is the convention forced by the mass shell p.p = -m^2 and by
gamma = sqrt(-mu.mu) > 0.

A rank-n totally symmetric tensor T is the degree-n homogeneous polynomial
p_T(x) = T_{i1..in} x^{i1} ... x^{in} in four variables (Comon, Golub, Lim &
Mourrain, *Symmetric tensors and symmetric tensor rank*, SIAM J. Matrix Anal.
Appl. 30, 2008).  A monomial x^c is named by its exponent counts
c = (c0, c1, c2, c3), which are also the counts of each index value in a
multi-index, and its coefficient in p_T is the multinomial n!/c! times the
component T_c.  :class:`DenseSymTensor` stores the components T_c keyed by c,
C(n+3, 3) of them, one per canonical sorted multi-index; sorted multi-indices
are the I/O format.  Values may be floats or exact ``fractions.Fraction``;
every operation is generic over the two.

A value may also be a float64 numpy array: a batch of same-rank tensors, entry
j of every component belonging to the j-th tensor.  Every operation then does
for each entry the float operations it does on one float tensor, in the same
order, so a batch reproduces its tensors bit for bit.  Two rules keep it so: a
rational constant meets an array as its float (:func:`batch_safe`), as it does
a float, and zero-skipping (:func:`is_zero`) skips an array only when every
entry is zero, since skipping an exact 0.0 term changes a sum at most in the
sign of a zero.  Whether a value is a batch is read from
:func:`etclosure.scalar.array_type`, which knows numpy's array type only once
numpy is loaded, and numpy is imported only where arrays are made: by the
batch kernels below, which run only on arrays.  Exact and float tensors never
load it.

Products of batches (:func:`_batch_product`) do the dict loop's arithmetic
on stacked rows: the outputs start from 0, and each term of p in turn adds
its products with every term of q to its output rows in one update.  One
term's output rows are distinct, so every output adds its terms in the
loop's order and is the loop's array bit for bit, in the loop's key order.
The kernel runs where every term has an array factor and every value is a
1-D float64 array, a float, or an int a float holds exactly
(:func:`_batch_side`); exact values, object arrays, numpy scalars and
anything else keep the loop.  Traces and mu-contractions of batches
(:func:`_batch_derivative`) evaluate the loop's expression on stacked rows
under the same rules.

Exact inputs follow one rule, decided in one place (:func:`_integral`): where
every input of an operation is an int or a ``Fraction`` and at least one is a
``Fraction``, the operation writes each input as integer numerators over one
common denominator, computes on Python ints, divides once per output
component, and gives a ``Fraction`` for every component.  Basis realization,
traces and mu-contractions, symmetrization, symmetric products, the tail
contraction and scaling take this route.  Basis realization
(:func:`gmu_combination`) runs its Horner steps on dense integer rows in
canonical order (:func:`_dense_gmu`), the representation of FLINT's
``fmpq_poly``: a product with mu.x gathers, for each output component, the
four components one index lower (:func:`_times_x_plan`), and the metric powers
are cached as (position, coefficient) pairs (:func:`_metric_row`).  Int-only
inputs, floats and batches run the plain loops on the values as given (an
int-only input gives ints except where a multinomial above 1 divides), and
Lorentz transforms always run their loop.

Each operation is the polynomial operation it is (see its docstring).  On
components a derivative is an index shift with no weight, so traces and
contractions read the stored values directly; products and substitutions act
on the multinomial-weighted coefficients.

Note on overall signs: the storage layer is variance-agnostic (the fixed
diagonal metric has identical co- and contravariant components), so covariant
multiplier tensors and contravariant moment tensors share this container.
Which variance a given tensor carries is part of its meaning at the call site.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .scalar import array_type, is_batch, numpy

if TYPE_CHECKING:
    import numpy as np

METRIC_DIAG: Tuple[int, int, int, int] = (-1, 1, 1, 1)
DIM = 4

Index = Tuple[int, ...]
Counts = Tuple[int, int, int, int]
Poly = Dict[Counts, object]

_ONE: Counts = (0, 0, 0, 0)
_UNITS: Tuple[Counts, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def is_zero(v) -> bool:
    """v == 0 for a number; for a batch (a numpy array), whether every entry is 0."""
    if is_batch(v):
        return not v.any()
    return v == 0


def batch_safe(c, other):
    """c ready to combine with ``other``: float(c) when c is exact and other is a batch.

    An exact rational against a float acts as its float; against a numpy
    array it would make an ``object`` array instead, slow and no longer
    float64.  Otherwise c is returned unchanged.
    """
    if isinstance(c, (int, Fraction)) and is_batch(other):
        return float(c)
    return c


class Metric:
    """The fixed diagonal spacetime metric, identical up and down."""

    diag = METRIC_DIAG

    @staticmethod
    def dot(x: Sequence, y: Sequence):
        """g_{ab} x^a y^b (equivalently g^{ab} x_a y_b)."""
        return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]

    @staticmethod
    def flip(x: Sequence) -> Tuple:
        """Raise or lower a four-vector's index."""
        return (-x[0], x[1], x[2], x[3])


class FourVector:
    """Four components plus a variance tag ('upper' or 'lower')."""

    __slots__ = ("components", "variance")

    def __init__(self, components: Sequence, variance: str = "upper"):
        if len(components) != DIM:
            raise ValueError("four components required")
        if variance not in ("upper", "lower"):
            raise ValueError(f"variance must be 'upper' or 'lower', got {variance!r}")
        self.components = tuple(components)
        self.variance = variance

    def raised(self) -> "FourVector":
        if self.variance == "upper":
            return self
        return FourVector(Metric.flip(self.components), "upper")

    def lowered(self) -> "FourVector":
        if self.variance == "lower":
            return self
        return FourVector(Metric.flip(self.components), "lower")

    def norm_sq(self):
        """x^a x_a (sign convention: negative for timelike)."""
        up = self.raised().components
        return Metric.dot(up, up)

    def gamma_sq(self):
        """-x^a x_a, positive for timelike vectors."""
        return -self.norm_sq()

    def is_timelike_future(self) -> bool:
        """Timelike and future-directed; for batched components, at every entry."""
        return _positive(self.gamma_sq()) and _positive(self.raised().components[0])

    def __getitem__(self, i: int):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __repr__(self) -> str:
        return f"FourVector({self.components}, {self.variance!r})"


def _positive(v) -> bool:
    """v > 0; for a batch, at every entry."""
    return bool((v > 0).all()) if is_batch(v) else bool(v > 0)


def canonical_indices(rank: int) -> Iterable[Index]:
    """All sorted multi-indices of the given rank (C(rank+3, 3) of them)."""
    return itertools.combinations_with_replacement(range(DIM), rank)


def index_counts(idx: Index) -> Counts:
    return (idx.count(0), idx.count(1), idx.count(2), idx.count(3))


def _multinomial(c: Counts) -> int:
    return factorial(sum(c)) // (
        factorial(c[0]) * factorial(c[1]) * factorial(c[2]) * factorial(c[3])
    )


def arrangements(idx: Index) -> int:
    """Number of distinct orderings of a multi-index."""
    return _multinomial(index_counts(idx))


def _index(c: Counts) -> Index:
    """The sorted multi-index with counts c."""
    return (0,) * c[0] + (1,) * c[1] + (2,) * c[2] + (3,) * c[3]


@lru_cache(maxsize=None)
def _layout(rank: int) -> Tuple[Tuple[Counts, ...], Tuple[int, ...]]:
    """The counts of every component in canonical order, and their multinomials."""
    counts = tuple(index_counts(idx) for idx in canonical_indices(rank))
    return counts, tuple(_multinomial(c) for c in counts)


class DenseSymTensor:
    """Totally symmetric rank-n tensor: one component per monomial x^c of degree n."""

    __slots__ = ("rank", "_values")

    def __init__(self, rank: int, values: Optional[Mapping[Index, object]] = None):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.rank = rank
        vals: Dict[Counts, object] = dict.fromkeys(_layout(rank)[0], 0)
        if values:
            for idx, v in values.items():
                key = index_counts(idx)
                if len(idx) != rank or key not in vals:
                    raise ValueError(f"index {idx} is not a rank-{rank} multi-index over 0..3")
                vals[key] = v
        self._values = vals

    @classmethod
    def _from_counts(cls, rank: int, values: Mapping[Counts, object]) -> "DenseSymTensor":
        """Tensor whose component at counts c is values[c], 0 where absent."""
        out = cls.__new__(cls)
        out.rank = rank
        out._values = {c: values.get(c, 0) for c in _layout(rank)[0]}
        return out

    @classmethod
    def zeros(cls, rank: int) -> "DenseSymTensor":
        return cls(rank)

    @classmethod
    def scalar(cls, value) -> "DenseSymTensor":
        return cls._from_counts(0, {_ONE: value})

    def get(self, idx: Sequence[int]):
        """Component at any index order; permuted lookups hit the canonical entry."""
        if len(idx) != self.rank:
            raise KeyError(tuple(idx))
        return self._values[index_counts(idx)]

    def items(self):
        """(sorted multi-index, component) for every canonical entry, zeros included."""
        return [(_index(c), self._values[c]) for c in _layout(self.rank)[0]]

    def with_entry(self, idx: Sequence[int], value) -> "DenseSymTensor":
        """Copy with one canonical entry replaced."""
        key = index_counts(idx)
        if len(idx) != self.rank or key not in self._values:
            raise ValueError(f"index {tuple(idx)} is not a rank-{self.rank} multi-index over 0..3")
        out = DenseSymTensor._from_counts(self.rank, self._values)
        out._values[key] = value
        return out

    def map_values(self, fn) -> "DenseSymTensor":
        return DenseSymTensor._from_counts(
            self.rank, {k: fn(v) for k, v in self._values.items()}
        )

    def __add__(self, other: "DenseSymTensor") -> "DenseSymTensor":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "DenseSymTensor") -> "DenseSymTensor":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "DenseSymTensor", op) -> "DenseSymTensor":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        b = other._values
        return DenseSymTensor._from_counts(
            self.rank,
            {k: op(batch_safe(v, b[k]), batch_safe(b[k], v)) for k, v in self._values.items()},
        )

    def scale(self, factor) -> "DenseSymTensor":
        """Every component times factor, on integer numerators where :func:`_integral` gives them."""
        exact = _integral({_ONE: factor}, self._values)
        if exact:
            ((f, fden), (nums, den)) = exact
            p, q = f[_ONE], fden * den
            return DenseSymTensor._from_counts(
                self.rank, {c: Fraction(n * p, q) for c, n in nums.items()})
        return self.map_values(lambda v: batch_safe(v, factor) * batch_safe(factor, v))

    def max_abs(self) -> float:
        return max((abs(v) for v in self._values.values()), default=0)

    def is_zero(self) -> bool:
        """Whether every component is zero (:func:`is_zero` on each)."""
        return all(is_zero(v) for v in self._values.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseSymTensor):
            return NotImplemented
        return self.rank == other.rank and self._values == other._values

    def __repr__(self) -> str:
        nonzero = sum(1 for v in self._values.values() if not is_zero(v))
        return f"DenseSymTensor(rank={self.rank}, nonzero={nonzero})"

    def to_json_obj(self) -> dict:
        """Rank and components; an exact component by its value: an int if integral, else "n/d"."""
        def enc(v):
            if isinstance(v, Fraction):
                return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            return v

        return {
            "rank": self.rank,
            "components": [{"idx": list(idx), "value": enc(v)} for idx, v in self.items()],
        }


def symmetrize(raw: Mapping[Index, object], rank: int) -> DenseSymTensor:
    """Weight-one (idempotent) symmetrization of raw components keyed by index tuples.

    Symmetrization keeps the polynomial: sum over tuples of raw[idx] x^idx is
    already the polynomial of the result, so each coefficient collects the raw
    values at the orderings of one multi-index, and its component is their
    average over all of them, absent tuples counting as 0.  That equals the
    average over all n! slot permutations.
    """
    den = None
    exact = _integral(raw)
    if exact:
        ((raw, den),) = exact
    poly: Poly = {}
    for idx, v in raw.items():
        c = index_counts(idx)
        poly[c] = poly[c] + v if c in poly else v
    return _from_coefficients(rank, poly, den)


# ---------------------------------------------------------------------------
# polynomial arithmetic on {counts: coefficient} maps


def _coefficients(t: DenseSymTensor) -> Poly:
    """The coefficients of p_T: each component times its multinomial."""
    return {c: t._values[c] * w for c, w in zip(*_layout(t.rank))}


def _from_coefficients(rank: int, poly: Poly, den: Optional[int] = None) -> DenseSymTensor:
    """The tensor whose polynomial is ``poly`` (homogeneous of degree ``rank``).

    With ``den``, poly holds integer numerators over den (:func:`_integral`),
    and every component is the Fraction poly[c] / (multinomial * den).
    """
    if den is not None:
        return DenseSymTensor._from_counts(
            rank, {c: Fraction(poly.get(c, 0), w * den) for c, w in zip(*_layout(rank))})
    values = {}
    ndarray = array_type()
    for c, w in zip(*_layout(rank)):
        v = poly.get(c, 0)
        # a batch is divided whole: its zero entries stay zero
        if w != 1 and (isinstance(v, ndarray) or v != 0):
            v = Fraction(v, w) if isinstance(v, int) else v / w
        elif isinstance(v, ndarray) and v.base is not None:
            v = v.copy()  # a row of a batch product would keep the whole product alive
        values[c] = v
    return DenseSymTensor._from_counts(rank, values)


def _integral(*polys: Mapping) -> Optional[List[Tuple[dict, int]]]:
    """Each poly over integers, (numerators, den) with poly = numerators / den, or None.

    The one test of the exact route: it answers only where every value of
    every poly is an int or a Fraction and some value is a Fraction, and the
    caller then makes every output component a Fraction.  Int-only inputs,
    floats, float64 batches and object arrays get None and keep their loops.
    den is the lcm of that poly's denominators.
    """
    dens, fraction = [], False
    for poly in polys:
        den = 1
        for v in poly.values():
            if type(v) is Fraction:
                den, fraction = lcm(den, v.denominator), True
            elif type(v) is not int:
                return None
        dens.append(den)
    if not fraction:
        return None
    return [
        ({k: v * den if type(v) is int else v.numerator * (den // v.denominator)
          for k, v in poly.items()}, den)
        for poly, den in zip(polys, dens)
    ]


def _linear(vector: Sequence) -> Poly:
    """The linear form sum_t vector[t] x_t, zero terms dropped."""
    return {unit: a for unit, a in zip(_UNITS, vector) if not is_zero(a)}


def _batch_side(values: List) -> Optional[Tuple[int, bool]]:
    """(width, every value an array) for one factor of a batch kernel, else None.

    Every value must be a 1-D float64 array, a float, or an int that a float
    holds exactly; the arrays must share one length (width 0 when there are
    none).  Anything else (Fractions, object arrays, numpy scalars, huge ints)
    returns None.
    """
    np = numpy()
    ndarray, f64 = np.ndarray, np.dtype(np.float64)
    width, arrays = None, 0
    for v in values:
        t = type(v)
        if t is ndarray:
            if v.dtype is not f64 or v.ndim != 1 or (width is not None and len(v) != width):
                return None
            width, arrays = len(v), arrays + 1
        elif not (t is float or (t is int and -(2**53) <= v <= 2**53)):
            return None
    return (width or 0), arrays == len(values)


def _rows(values: List, arrays: bool, width: int) -> np.ndarray:
    """values stacked as float64 rows; an all-scalar factor is one column that broadcasts."""
    np = numpy()
    if arrays:
        return np.array(values)
    if not any(type(v) is np.ndarray for v in values):
        return np.array(values, dtype=np.float64)[:, None]
    rows = np.empty((len(values), width))
    for r, v in enumerate(values):
        rows[r] = v
    return rows


@lru_cache(maxsize=64)
def _product_plan(p_keys: Tuple[Counts, ...], q_keys: Tuple[Counts, ...]):
    """(keys, rows): the product loop's output keys in first-encounter order, and
    rows[i, j], the output row of p term i times q term j."""
    np = numpy()
    index: Dict[Counts, int] = {}
    rows = [[index.setdefault((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]), len(index))
             for b in q_keys] for a in p_keys]
    return tuple(index), np.array(rows, dtype=np.intp)


def _batch_product(p: Poly, q_terms: List[Tuple[Counts, object]]) -> Optional[Poly]:
    """p * q over stacked float64 rows, or None where the product loop must run.

    It runs when every value is a batch-ready number (:func:`_batch_side`) and
    one factor is all arrays, so that every term has an array factor and
    every output is an array, as in the loop.  Term i of p adds x_i times
    every q row to its output rows, which are distinct, so each output adds
    its terms in the loop's order, starting from 0: the loop's array bit for bit.
    """
    ndarray = array_type()
    if type(next(iter(p.values()))) is not ndarray and type(q_terms[0][1]) is not ndarray:
        return None  # neither factor is all arrays
    ys = [y for _, y in q_terms]
    sides = _batch_side(list(p.values())), _batch_side(ys)
    if None in sides or not (sides[0][1] or sides[1][1]):
        return None
    (wx, _), (wy, y_arrays) = sides
    if wx and wy and wx != wy:
        return None
    keys, rows = _product_plan(tuple(p), tuple(b for b, _ in q_terms))
    y = _rows(ys, y_arrays, wx or wy)
    out = numpy().zeros((len(keys), wx or wy))
    for at, x in zip(rows, p.values()):
        out[at] += x * y
    return dict(zip(keys, out))


def _product(p: Poly, q: Poly) -> Poly:
    """p * q; zero coefficients of q are skipped, so a zero q gives {}.

    Float64 batches go through :func:`_batch_product`, which sums the same
    terms in the same order.
    """
    q_terms = [(b, y) for b, y in q.items() if not is_zero(y)]
    if p and q_terms:
        batch = _batch_product(p, q_terms)
        if batch is not None:
            return batch
    out: Poly = {}
    for a, x in p.items():
        for b, y in q_terms:
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
            out[key] = out.get(key, 0) + x * y
    return out


def _substitute(poly: Poly, forms: Sequence[Poly], t: int = 0) -> Poly:
    """``poly`` with x_t, ..., x_3 replaced by the linear forms forms[t:].

    Horner's rule in x_t: poly = sum_a x_t^a q_a becomes
    (...(q_top l_t + q_{top-1}) l_t + ...) + q_0 with l_t = forms[t], each q_a
    substituted in the remaining variables first.
    """
    if t == DIM:
        # every key agrees in all four counts, so only one term is left
        return {_ONE: next(iter(poly.values()))}
    by_power: Dict[int, Poly] = {}
    for c, v in poly.items():
        by_power.setdefault(c[t], {})[c] = v
    acc: Poly = {}
    for a in range(max(by_power), -1, -1):
        acc = _product(acc, forms[t])
        if a in by_power:
            for c, v in _substitute(by_power[a], forms, t + 1).items():
                acc[c] = acc.get(c, 0) + v
    return acc


@lru_cache(maxsize=None)
def _gmu_structure(s: int) -> Tuple[Tuple[Counts, int], ...]:
    """The terms of (x.x)^s = (-x0^2 + x1^2 + x2^2 + x3^2)^s, the mu-free part of the basis."""
    if s == 0:
        return ((_ONE, 1),)
    squares = {(2 * u[0], 2 * u[1], 2 * u[2], 2 * u[3]): g for u, g in zip(_UNITS, METRIC_DIAG)}
    return tuple(_product(dict(_gmu_structure(s - 1)), squares).items())


@lru_cache(maxsize=None)
def _metric_row(s: int) -> Tuple[Tuple[int, int], ...]:
    """(x.x)^s as (canonical position, coefficient) pairs over the rank-2s layout."""
    position = {c: i for i, c in enumerate(_layout(2 * s)[0])}
    return tuple((position[c], v) for c, v in _gmu_structure(s))


@lru_cache(maxsize=None)
def _times_x_plan(rank: int) -> Tuple[Tuple[int, ...], ...]:
    """For each axis a, the position of c - e_a in the rank layout for every component
    c of rank + 1; len(layout) where c_a = 0, which a row padded with one 0 reads as 0."""
    position = {c: i for i, c in enumerate(_layout(rank)[0])}
    pad = len(position)
    return tuple(
        tuple(position.get((c[0] - u[0], c[1] - u[1], c[2] - u[2], c[3] - u[3]), pad)
              for c in _layout(rank + 1)[0])
        for u in _UNITS
    )


def _times_linear(row: List[int], rank: int, weights: Sequence[int]) -> List[int]:
    """A dense rank row times sum_a weights[a] x_a, as the dense rank + 1 row."""
    w0, w1, w2, w3 = weights
    row = row + [0]
    return [w0 * row[a] + w1 * row[b] + w2 * row[c] + w3 * row[d]
            for a, b, c, d in zip(*_times_x_plan(rank))]


def _dense_gmu(n: int, coeffs: Mapping[int, int], ell: Mapping[Counts, int], den: int) -> DenseSymTensor:
    """The exact :func:`gmu_combination` on integer rows: phi_s and ell over integers, / den.

    The same Horner steps run on dense rows in canonical order; ell^2 is two
    steps of ell.
    """
    low, top = min(coeffs), max(coeffs)
    weights = [ell.get(u, 0) for u in _UNITS]
    row = [0] * len(_layout(2 * low)[0])
    for s in range(low, top + 1):
        if s > low:
            row = _times_linear(_times_linear(row, 2 * s - 2, weights), 2 * s - 1, weights)
        if s in coeffs:
            phi = coeffs[s]
            for pos, v in _metric_row(s):
                row[pos] += phi * v
    for rank in range(2 * top, n):
        row = _times_linear(row, rank, weights)
    return _from_coefficients(n, dict(zip(_layout(n)[0], row)), den)


# ---------------------------------------------------------------------------
# operations


def gmu_combination(
    n: int, coeffs: Mapping[int, object], mu: Union[FourVector, Sequence, None] = None
) -> DenseSymTensor:
    """sum_s coeffs[s] * gmu_basis(n, s, mu), built as one polynomial.

    The polynomial sum_s phi_s (x.x)^s (mu.x)^(n-2s) is evaluated by Horner's
    rule in (mu.x)^2 from the smallest s up, so the only powers expanded on
    their own are the cached metric powers (x.x)^s.  An empty ``coeffs`` gives
    zeros at once.  mu may be omitted when every s has n = 2s.
    """
    for s in coeffs:
        if not 0 <= 2 * s <= n:
            raise ValueError(f"need 0 <= s <= n/2, got n={n}, s={s}")
    if not coeffs:
        return DenseSymTensor.zeros(n)
    low, top = min(coeffs), max(coeffs)
    if n > 2 * low and mu is None:
        raise ValueError("mu required when n > 2s")
    mu_up = mu.raised().components if isinstance(mu, FourVector) else mu
    ell = _linear(mu_up) if n > 2 * low else {}
    exact = _integral(coeffs, ell)
    if exact:
        # mu over l: the acc of step s carries l^(2(s-low)), so phi_s does too
        (coeffs, d), (ell, l) = exact
        return _dense_gmu(n, {s: phi * l ** (2 * (s - low)) for s, phi in coeffs.items()},
                          ell, d * l ** (n - 2 * low))
    ell_sq = _product(ell, ell)
    acc: Poly = {}
    for s in range(low, top + 1):
        if s > low:
            acc = _product(acc, ell_sq)
        if s in coeffs:
            phi = coeffs[s]
            for c, v in _gmu_structure(s):
                acc[c] = acc.get(c, 0) + phi * v
    for _ in range(n - 2 * top):
        acc = _product(acc, ell)
    return _from_coefficients(n, acc)


def gmu_basis(n: int, s: int, mu: Union[FourVector, Sequence, None] = None) -> DenseSymTensor:
    """Symmetrized product of s metrics and n-2s copies of mu (contravariant).

    Its polynomial is (x.x)^s (mu.x)^(n-2s).  The weight-one symmetrization
    makes the family idempotent: the rank-2, s=1 element is exactly g^{ab},
    and the rank-1, s=0 element is mu itself.  mu may be omitted when n = 2s.
    """
    return gmu_combination(n, {s: 1}, mu)


@lru_cache(maxsize=None)
def _derivative_positions(rank: int, order: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """For every c of rank - order, the canonical positions of c + order e_a, a = 0..3."""
    position = {c: i for i, c in enumerate(_layout(rank)[0])}
    return tuple(
        tuple(position[(c[0] + order * u[0], c[1] + order * u[1], c[2] + order * u[2],
                        c[3] + order * u[3])] for u in _UNITS)
        for c in _layout(rank - order)[0]
    )


@lru_cache(maxsize=None)
def _derivative_plan(rank: int, order: int) -> Tuple[np.ndarray, ...]:
    """For each unit e_a, the canonical position of c + order e_a for every c of rank - order."""
    np = numpy()
    return tuple(np.array(at, dtype=np.intp) for at in zip(*_derivative_positions(rank, order)))


def _batch_derivative(t: DenseSymTensor, weights: Sequence, order: int) -> Optional[Dict]:
    """:func:`_derivative` over stacked float64 rows, or None where its loop must run.

    It runs when every component is an array and the components and the
    weights are batch-ready numbers of one width (:func:`_batch_side`, as for
    products).  The loop's expression on the gathered rows is the loop's
    arithmetic, so each output entry is the loop's bit for bit.
    """
    values = list(t._values.values())
    if type(values[0]) is not array_type():
        return None  # the cheap test first: exact and scalar tensors keep the loop
    side, weight_side = _batch_side(values), _batch_side(list(weights))
    if side is None or not side[1] or weight_side is None or weight_side[0] not in (0, side[0]):
        return None
    rows = numpy().array(values)
    a, b, c, d = _derivative_plan(t.rank, order)
    w0, w1, w2, w3 = weights
    out = w0 * rows[a] + w1 * rows[b] + w2 * rows[c] + w3 * rows[d]
    return dict(zip(_layout(t.rank - order)[0], out))


def _derivative(t: DenseSymTensor, weights: Sequence, order: int) -> DenseSymTensor:
    """sum_a weights[a] d_a^order p_T, rescaled to components: R_c = sum_a w_a T_{c + order e_a}.

    Float64 batches go through :func:`_batch_derivative`, which does the same
    float operations in the same order.  Anything else runs one positional
    loop, w0 T_a + w1 T_b + w2 T_c + w3 T_d, on integer numerators divided
    once where :func:`_integral` gives them.
    """
    batch = _batch_derivative(t, weights, order)
    if batch is not None:
        return DenseSymTensor._from_counts(t.rank - order, batch)
    values, den = t._values, None
    exact = _integral(values, dict(enumerate(weights)))
    if exact:
        (values, vden), (ws, wden) = exact
        weights, den = list(ws.values()), vden * wden
    v = list(values.values())
    w0, w1, w2, w3 = weights
    out = [w0 * v[a] + w1 * v[b] + w2 * v[c] + w3 * v[d]
           for a, b, c, d in _derivative_positions(t.rank, order)]
    if den is not None:
        out = [Fraction(x, den) for x in out]
    return DenseSymTensor._from_counts(t.rank - order, dict(zip(_layout(t.rank - order)[0], out)))


def trace_pair(t: DenseSymTensor) -> DenseSymTensor:
    """Contract the last two slots with the metric: T^{...ab} g_{ab}.

    On the polynomial this is the wave operator -d0^2 + d1^2 + d2^2 + d3^2
    divided by n(n-1).
    """
    if t.rank < 2:
        raise ValueError("trace_pair needs rank >= 2")
    return _derivative(t, METRIC_DIAG, 2)


def metric_flip(t: DenseSymTensor) -> DenseSymTensor:
    """Raise or lower every slot with the diagonal metric (an involution).

    The sign of the monomial x^c is (-1)^c0.
    """
    return DenseSymTensor._from_counts(
        t.rank, {c: -v if c[0] % 2 else v for c, v in t._values.items()}
    )


def contract_mu(t: DenseSymTensor, mu: Union[FourVector, Sequence]) -> DenseSymTensor:
    """Contract the last slot with a covariant four-vector.

    On the polynomial this is the directional derivative (mu.d)/n.
    """
    if t.rank < 1:
        raise ValueError("contract_mu needs rank >= 1")
    return _derivative(t, mu.lowered().components if isinstance(mu, FourVector) else mu, 1)


def transform(t: DenseSymTensor, matrix: Sequence[Sequence]) -> DenseSymTensor:
    """Apply a linear map L to every slot: T'^{j1..jn} = L^{j1}_{i1}...T^{i1..in}.

    On the polynomial this is the substitution x_i -> sum_j L^j_i y_j.
    """
    forms = [_linear([matrix[j][i] for j in range(DIM)]) for i in range(DIM)]
    return _from_coefficients(t.rank, _substitute(_coefficients(t), forms))


def sym_product(a: DenseSymTensor, b: DenseSymTensor) -> DenseSymTensor:
    """Symmetrized tensor product sym(a x b), the product of the two polynomials."""
    p, q, den = _coefficients(a), _coefficients(b), None
    exact = _integral(p, q)
    if exact:
        (p, dp), (q, dq) = exact
        den = dp * dq
    return _from_coefficients(a.rank + b.rank, _product(p, q), den)


def contract_tail(c: DenseSymTensor, p: DenseSymTensor) -> DenseSymTensor:
    """The vector C^{a i2..in} P_{i2..in}: every slot of C but the first paired with P."""
    if c.rank != p.rank + 1:
        raise ValueError(f"contract_tail needs rank {p.rank + 1}, got {c.rank}")
    weights, v, den = _coefficients(p), c._values, None
    exact = _integral(weights, v)
    if exact:
        (weights, dp), (v, dc) = exact
        den = dp * dc
    weighted = [(k, w) for k, w in weights.items() if not is_zero(w)]
    out = {}
    for unit in _UNITS:
        total = 0
        for (k0, k1, k2, k3), w in weighted:
            total = total + w * v[(k0 + unit[0], k1 + unit[1], k2 + unit[2], k3 + unit[3])]
        out[unit] = total if den is None else Fraction(total, den)
    return DenseSymTensor._from_counts(1, out)
