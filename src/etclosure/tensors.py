"""Component-level symmetric spacetime tensors over the fixed metric.

The metric is diag(-1, +1, +1, +1); timelike squared norms are negative, which
is the convention forced by the mass shell p.p = -m^2 and by
gamma = sqrt(-mu.mu) > 0.

A rank-n totally symmetric tensor stores one value per canonical sorted
multi-index (i1 <= ... <= in, each in 0..3), C(n+3, 3) entries in all; lookups
with permuted indices return the canonical entry.  Values may be floats or
exact ``fractions.Fraction``; every operation is generic over the two.

Note on overall signs: the storage layer is variance-agnostic (the fixed
diagonal metric has identical co- and contravariant components), so covariant
multiplier tensors and contravariant moment tensors share this container.
Which variance a given tensor carries is part of its meaning at the call site.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

METRIC_DIAG: Tuple[int, int, int, int] = (-1, 1, 1, 1)
DIM = 4

Index = Tuple[int, ...]


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
        return self.gamma_sq() > 0 and self.raised().components[0] > 0

    def __getitem__(self, i: int):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __repr__(self) -> str:
        return f"FourVector({self.components}, {self.variance!r})"


def canonical_indices(rank: int) -> Iterable[Index]:
    """All sorted multi-indices of the given rank (C(rank+3, 3) of them)."""
    return itertools.combinations_with_replacement(range(DIM), rank)


def index_counts(idx: Index) -> Tuple[int, int, int, int]:
    return (idx.count(0), idx.count(1), idx.count(2), idx.count(3))


def arrangements(idx: Index) -> int:
    """Number of distinct orderings of a multi-index."""
    n0, n1, n2, n3 = index_counts(idx)
    return factorial(len(idx)) // (
        factorial(n0) * factorial(n1) * factorial(n2) * factorial(n3)
    )


def distinct_permutations(idx: Index) -> Iterable[Index]:
    """All distinct orderings of a multi-index, without repetition."""
    pool = sorted(idx)
    n = len(pool)
    if n == 0:
        yield ()
        return
    seq = list(pool)
    while True:
        yield tuple(seq)
        # next multiset permutation, lexicographic
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


class DenseSymTensor:
    """Totally symmetric rank-n tensor on canonical sorted multi-indices."""

    __slots__ = ("rank", "_values")

    def __init__(self, rank: int, values: Optional[Mapping[Index, object]] = None):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.rank = rank
        vals: Dict[Index, object] = {idx: 0 for idx in canonical_indices(rank)}
        if values:
            for idx, v in values.items():
                key = tuple(sorted(idx))
                if len(key) != rank:
                    raise ValueError(f"index {idx} has wrong rank (expected {rank})")
                vals[key] = v
        self._values = vals

    @classmethod
    def zeros(cls, rank: int) -> "DenseSymTensor":
        return cls(rank)

    @classmethod
    def scalar(cls, value) -> "DenseSymTensor":
        t = cls(0)
        t._values[()] = value
        return t

    def get(self, idx: Sequence[int]):
        """Component at any index order; permuted lookups hit the canonical entry."""
        return self._values[tuple(sorted(idx))]

    def items(self):
        return self._values.items()

    def with_entry(self, idx: Sequence[int], value) -> "DenseSymTensor":
        """Copy with one canonical entry replaced."""
        out = DenseSymTensor(self.rank, self._values)
        out._values[tuple(sorted(idx))] = value
        return out

    def map_values(self, fn) -> "DenseSymTensor":
        out = DenseSymTensor(self.rank)
        out._values = {k: fn(v) for k, v in self._values.items()}
        return out

    def __add__(self, other: "DenseSymTensor") -> "DenseSymTensor":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = DenseSymTensor(self.rank)
        out._values = {k: self._values[k] + other._values[k] for k in self._values}
        return out

    def __sub__(self, other: "DenseSymTensor") -> "DenseSymTensor":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = DenseSymTensor(self.rank)
        out._values = {k: self._values[k] - other._values[k] for k in self._values}
        return out

    def scale(self, factor) -> "DenseSymTensor":
        return self.map_values(lambda v: v * factor)

    def max_abs(self) -> float:
        return max((abs(v) for v in self._values.values()), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseSymTensor):
            return NotImplemented
        return self.rank == other.rank and self._values == other._values

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in self._values.items() if v != 0}
        return f"DenseSymTensor(rank={self.rank}, nonzero={len(nonzero)})"

    def to_json_obj(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            return v

        return {
            "rank": self.rank,
            "components": [
                {"idx": list(idx), "value": enc(v)} for idx, v in sorted(self._values.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "DenseSymTensor":
        def dec(v):
            if isinstance(v, str):
                return Fraction(v)
            return v

        values = {tuple(c["idx"]): dec(c["value"]) for c in obj["components"]}
        return cls(int(obj["rank"]), values)


def symmetrize(raw: Union[Mapping[Index, object], Sequence], rank: Optional[int] = None) -> DenseSymTensor:
    """Weight-one (idempotent) symmetrization of a raw component array.

    ``raw`` is either a map from full index tuples to values or a nested
    sequence indexable as raw[i1][i2]...[in].  The canonical entry is the
    average of raw over the distinct orderings of the multi-index, which
    equals the average over all n! slot permutations.
    """
    if isinstance(raw, Mapping):
        if rank is None:
            rank = len(next(iter(raw))) if raw else 0

        def fetch(idx: Index):
            return raw.get(idx, 0)

    else:
        if rank is None:
            rank = 0
            probe = raw
            while isinstance(probe, (list, tuple)) or (
                hasattr(probe, "__len__") and hasattr(probe, "__getitem__") and not isinstance(probe, str)
            ):
                if len(probe) != DIM:
                    break
                rank += 1
                probe = probe[0]

        def fetch(idx: Index):
            v = raw
            for i in idx:
                v = v[i]
            return v

    out = DenseSymTensor(rank)
    for idx in canonical_indices(rank):
        vals = [fetch(p) for p in distinct_permutations(idx)]
        total = vals[0]
        for v in vals[1:]:
            total = total + v
        if isinstance(total, (int, Fraction)):
            out._values[idx] = Fraction(total, len(vals)) if isinstance(total, int) else total / len(vals)
        else:
            out._values[idx] = total / len(vals)
    return out


@lru_cache(maxsize=None)
def _gmu_structure(n: int, s: int):
    """Per canonical index: ((exact weight, float weight, mu exponents), ...).

    The weight distributes the s metric pairs over the four index values and
    already includes the symmetrization prefactor and the metric signs, so
    evaluating an entry is just sum(weight * prod(mu_t ** p_t)).
    """
    nfree = n - 2 * s
    pref = Fraction(2**s * factorial(s) * factorial(nfree), factorial(n)) if n else Fraction(1)
    rows = []
    for idx in canonical_indices(n):
        counts = index_counts(idx)
        terms = []
        for k0 in range(0, min(s, counts[0] // 2) + 1):
            for k1 in range(0, min(s - k0, counts[1] // 2) + 1):
                for k2 in range(0, min(s - k0 - k1, counts[2] // 2) + 1):
                    k3 = s - k0 - k1 - k2
                    if 2 * k3 > counts[3]:
                        continue
                    weight = pref
                    for t in range(4):
                        nt, kt = counts[t], (k0, k1, k2, k3)[t]
                        weight *= Fraction(
                            factorial(nt), (2**kt) * factorial(kt) * factorial(nt - 2 * kt)
                        )
                        weight *= METRIC_DIAG[t] ** kt
                    powers = tuple(counts[t] - 2 * (k0, k1, k2, k3)[t] for t in range(4))
                    terms.append((weight, float(weight), powers))
        rows.append((idx, tuple(terms)))
    return tuple(rows)


def gmu_basis(n: int, s: int, mu: Union[FourVector, Sequence, None] = None) -> DenseSymTensor:
    """Symmetrized product of s metrics and n-2s copies of mu (contravariant).

    The weight-one symmetrization makes the family idempotent: the rank-2,
    s=1 element is exactly g^{ab}, and the rank-1, s=0 element is mu itself.
    mu may be omitted when n = 2s.
    """
    if not 0 <= 2 * s <= n:
        raise ValueError(f"need 0 <= s <= n/2, got n={n}, s={s}")
    if n > 2 * s:
        if mu is None:
            raise ValueError("mu required when n > 2s")
        mu_up = mu.raised().components if isinstance(mu, FourVector) else tuple(mu)
    else:
        mu_up = (0, 0, 0, 0)

    floats = any(isinstance(c, float) for c in mu_up)
    # mu powers up to the largest exponent, one table per index value
    pows = [[1] * (n + 1) for _ in range(4)]
    for t in range(4):
        for p in range(1, n - 2 * s + 1):
            pows[t][p] = pows[t][p - 1] * mu_up[t]
    out = DenseSymTensor(n)
    for idx, terms in _gmu_structure(n, s):
        if not terms:
            out._values[idx] = 0
            continue
        total = 0.0 if floats else Fraction(0)
        for w_exact, w_float, powers in terms:
            term = w_float if floats else w_exact
            for t in range(4):
                p = powers[t]
                if p:
                    term = term * pows[t][p]
            total = total + term
        out._values[idx] = total
    return out


def trace_pair(t: DenseSymTensor) -> DenseSymTensor:
    """Contract the last two slots with the metric: T^{...ab} g_{ab}."""
    if t.rank < 2:
        raise ValueError("trace_pair needs rank >= 2")
    out = DenseSymTensor(t.rank - 2)
    for idx in canonical_indices(t.rank - 2):
        total = -t.get(idx + (0, 0))
        for i in (1, 2, 3):
            total = total + t.get(idx + (i, i))
        out._values[idx] = total
    return out


def metric_flip(t: DenseSymTensor) -> DenseSymTensor:
    """Raise or lower every slot with the diagonal metric (an involution)."""
    out = DenseSymTensor(t.rank)
    for idx, v in t.items():
        sign = 1
        for i in idx:
            sign *= METRIC_DIAG[i]
        out._values[idx] = v if sign == 1 else -v
    return out


def contract_mu(t: DenseSymTensor, mu: Union[FourVector, Sequence]) -> DenseSymTensor:
    """Contract the last slot with a covariant four-vector."""
    if t.rank < 1:
        raise ValueError("contract_mu needs rank >= 1")
    mu_low = mu.lowered().components if isinstance(mu, FourVector) else tuple(mu)
    out = DenseSymTensor(t.rank - 1)
    for idx in canonical_indices(t.rank - 1):
        total = None
        for a in range(DIM):
            contrib = mu_low[a] * t.get(idx + (a,))
            total = contrib if total is None else total + contrib
        out._values[idx] = total
    return out


def transform(t: DenseSymTensor, matrix: Sequence[Sequence]) -> DenseSymTensor:
    """Apply a linear map L to every slot: T'^{j1..jn} = L^{j1}_{i1}...T^{i1..in}.

    Cost grows as 4^rank; intended for the small ranks of moment tensors.
    """
    out = DenseSymTensor(t.rank)
    if t.rank == 0:
        out._values[()] = t.get(())
        return out
    for jdx in canonical_indices(t.rank):
        total = None
        for idx in itertools.product(range(DIM), repeat=t.rank):
            w = None
            for j, i in zip(jdx, idx):
                w = matrix[j][i] if w is None else w * matrix[j][i]
            if w == 0:
                continue
            contrib = w * t.get(idx)
            total = contrib if total is None else total + contrib
        out._values[jdx] = total if total is not None else 0
    return out
