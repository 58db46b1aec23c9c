"""Closure coefficient tensors.

Two independent constructions of the Taylor coefficients C_{h,k} of the
potential deviation about equilibrium are provided:

* :func:`build_closure_tensor` evaluates the closed-form coefficients
  :func:`closure_coeff` (:func:`closure_coeff_N1`, the single-vector-multiplier
  case written out on its own, is kept as an independent reference), and

* :func:`derive_C_from_E` builds the auxiliary E tensors recursively (base
  leading term, trace descent, lambda derivatives, characteristic descent)
  and then applies k coefficient-space mu-derivatives.

The two routes share no formulas beyond the family calculus, so their exact
agreement is a meaningful cross-check and is part of the acceptance suite.

The free functions c_q(lambda) are indexed by q alone: whenever the same q
appears at different truncation orders it refers to the same function, which
is what makes coefficient tables for different (h, k) coherent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Dict, List, Optional, Tuple

from .family import (
    CharacteristicError,
    FFamilyElement,
    check_characteristic,
    leading_after_traces,
    mu_derivative,
    trace,
)
from .scalar import FunctionRegistry, ScalarExpr, double_factorial

RANK_CAP = 16


class RankCapError(ValueError):
    """A requested order exceeds the combinatorial rank cap."""


def _admits(M: int, N: int, h: int, k: int) -> bool:
    """The order rule: (h, k) is an order of the (M, N) closure when M >= 0 is
    even, N >= 1 odd, h, k >= 0, M = 0 admits no lambda orders (h = 0) and
    N = 1 no mu orders (k = 0).  The rank cap is not part of it."""
    return (M >= 0 and M % 2 == 0 and N >= 1 and N % 2 == 1 and h >= 0 and k >= 0
            and (h == 0 or M > 0) and (k == 0 or N > 1))


def _check_admits(M: int, N: int, h: int, k: int) -> None:
    if not _admits(M, N, h, k):
        raise ValueError(f"(h,k)=({h},{k}) is no order of the (M,N)=({M},{N}) closure "
                         "(see ClosureSpec.admits)")


@dataclass(frozen=True)
class ClosureSpec:
    """One closure instance: multiplier ranks, truncation orders, functions."""

    M: int
    N: int
    h_max: int = 2
    k_max: int = 2
    registry: Optional[FunctionRegistry] = None
    m: object = 1

    def __post_init__(self):
        if self.M < 0 or self.M % 2 != 0:
            raise ValueError(f"M must be even and non-negative, got {self.M}")
        if self.N < 1 or self.N % 2 != 1:
            raise ValueError(f"N must be odd and positive, got {self.N}")
        if self.h_max < 0 or self.k_max < 0:
            raise ValueError(f"h_max and k_max must be non-negative, got {self.h_max}, {self.k_max}")

    def rank(self, h: int, k: int) -> int:
        return self.M * h + self.N * k + 1

    def admits(self, h: int, k: int) -> bool:
        """Whether C_{h,k} exists, whatever h_max, k_max and the rank cap."""
        return _admits(self.M, self.N, h, k)

    def check_orders(self, h: int, k: int) -> None:
        """ValueError unless the spec admits (h, k); RankCapError past the rank cap."""
        _check_admits(self.M, self.N, h, k)
        if self.rank(h, k) > RANK_CAP:
            raise RankCapError(
                f"rank {self.rank(h, k)} at (h,k)=({h},{k}) "
                f"exceeds cap {RANK_CAP}; lower --hmax/--kmax"
            )

    @property
    def top_order(self) -> Tuple[int, int]:
        """The highest admitted (h, k) of the truncation."""
        return (self.h_max if self.admits(1, 0) else 0, self.k_max if self.admits(0, 1) else 0)

    def check_top_order(self) -> None:
        """Raise RankCapError when the highest requested order passes the rank cap.

        The rank grows with h and k, so once the top order fits every order
        does; :func:`iter_orders` calls this, so nothing that sums over the
        truncation silently covers less than was requested.
        """
        self.check_orders(*self.top_order)


def closure_coeff_N1(M: int, h: int, s: int) -> ScalarExpr:
    """Coefficient C^h_s for the single-vector-multiplier closure (k = 0).

    C^h_s = 2^(Mh-2s) ((Mh/2)!/s!) (1/(Mh+1-2s)!) gamma^(-6-Mh+2s)
            * sum_q [ (Mh+1)!!/(Mh-2q-2)!! (-m^2)^(Mh/2) D^h c_q
                      ((q+2+Mh/2-s)!/(q+2)!) gamma^(-2q) ]

    with q running over 0..(Mh-2)/2; the h = 0 sum is empty.
    """
    if M < 2 or M % 2 != 0:
        raise ValueError(f"M must be even and >= 2, got {M}")
    if h < 0:
        raise ValueError("h must be non-negative")
    mh = M * h
    if not 0 <= 2 * s <= mh:
        raise ValueError(f"need 0 <= s <= Mh/2, got s={s}")
    qmax = (mh - 2) // 2
    if qmax < 0:
        return ScalarExpr.zero()
    pref = Fraction(
        2 ** (mh - 2 * s) * factorial(mh // 2),
        factorial(s) * factorial(mh + 1 - 2 * s),
    )
    terms = []
    for q in range(qmax + 1):
        coeff = pref * Fraction(
            double_factorial(mh + 1) * factorial(q + 2 + mh // 2 - s),
            double_factorial(mh - 2 * q - 2) * factorial(q + 2),
        )
        terms.append((coeff, -6 - mh + 2 * s - 2 * q, mh // 2, (q, h)))
    return ScalarExpr(terms)


def closure_coeff(M: int, N: int, h: int, k: int, s: int) -> ScalarExpr:
    """Coefficient C^{h,k}_s of the general closure.

    With rank n = Mh+Nk+1, L = floor(n/2) and A = Mh+k(N-1):

    C^{h,k}_s = 2^(2L+[k/2]-2s) (L!/s!) (1/(n-2s)!) gamma^(-6-Mh-(N+1)k+2s)
                * sum_q [ (A+1+2[k/2])!!/(A-2q-2)!!
                          (-m^2)^(A/2) D^h c_q
                          ((q+2+(Mh+(N+1)k)/2-s)!/(q+2)!) gamma^(-2q) ]

    with q over 0..(A-2)/2.  At k = 0 this reduces exactly to
    :func:`closure_coeff_N1`; at s = L it is the leading-term closed form.
    """
    _check_admits(M, N, h, k)
    n = M * h + N * k + 1
    big_l = n // 2
    if not 0 <= s <= big_l:
        raise ValueError(f"need 0 <= s <= {big_l}, got s={s}")
    a = M * h + k * (N - 1)
    qmax = (a - 2) // 2
    if qmax < 0:
        return ScalarExpr.zero()
    khalf = k // 2
    # the q-th prefactor is top (q+2+shift)! / ((A-2q-2)!! (q+2)!) over pref_den,
    # written over the lcm of the q-dependent denominators
    top = 2 ** (2 * big_l + khalf - 2 * s) * factorial(big_l) * double_factorial(a + 1 + 2 * khalf)
    pref_den = factorial(s) * factorial(n - 2 * s)
    gpow_base = -6 - M * h - (N + 1) * k + 2 * s
    msq = a // 2
    shift = (M * h + (N + 1) * k) // 2 - s
    dens = [double_factorial(a - 2 * q - 2) * factorial(q + 2) for q in range(qmax + 1)]
    common = lcm(*dens)
    return ScalarExpr.from_numerators(pref_den * common, [
        (top * factorial(q + 2 + shift) * (common // d), gpow_base - 2 * q, msq, (q, h))
        for q, d in enumerate(dens)
    ])


def build_closure_tensor(spec: ClosureSpec, h: int, k: int) -> FFamilyElement:
    """Closure tensor C_{h,k} from the closed-form coefficients.

    Every coefficient (not only the leading one) comes from the closed form;
    the redundant lower coefficients are then checked against the
    characteristic descent relation rather than trusted.
    """
    spec.check_orders(h, k)
    n = spec.rank(h, k)
    if h == 0 and k == 0:
        return FFamilyElement.zero(n)
    coeffs = [closure_coeff(spec.M, spec.N, h, k, s) for s in range(n // 2 + 1)]
    elem = FFamilyElement(n, coeffs)
    ok, residuals = check_characteristic(elem)
    if not ok:
        bad = [i + 1 for i, r in enumerate(residuals) if not r.is_zero()]
        raise CharacteristicError(
            f"closed-form coefficients violate the descent relation at s={bad}"
        )
    return elem


def E_leading_closed(M: int, N: int, h: int, k: int) -> ScalarExpr:
    """Closed form of the E_{h,k} leading coefficient (comparison target).

    gamma^-6 sum_q (-m^2)^(A/2) D^h c_q [(A+1)!!/(A-2q-2)!!] gamma^(-2q),
    A = Mh + (N-1)k, q over 0..(A-2)/2.
    """
    a = M * h + (N - 1) * k
    qmax = (a - 2) // 2
    terms = []
    for q in range(qmax + 1):
        coeff = Fraction(double_factorial(a + 1), double_factorial(a - 2 * q - 2))
        terms.append((coeff, -6 - 2 * q, a // 2, (q, h)))
    return ScalarExpr(terms)


def recursive_E(spec: ClosureSpec, h: int, k: int) -> FFamilyElement:
    """E_{h,k} by the recursive route, independent of its closed form.

    Construction: (i) the base leading term of E_{0, k+Mh}, (ii)
    Mh(N-2)/2 leading-term traces and a (-m^2) renormalization, (iii) h
    lambda-derivatives, (iv) descent to the lower coefficients.
    """
    if spec.N < 3:
        raise ValueError("the recursive route needs a tensor multiplier block (N >= 3)")
    spec.check_orders(h, k)
    n_e = spec.M * h + (spec.N - 1) * k + 1
    kk = k + spec.M * h
    base_rank = (spec.N - 1) * kk + 1
    base_lead = E_leading_closed(spec.M, spec.N, 0, kk)
    if base_lead.is_zero():
        return FFamilyElement.zero(n_e)
    base = FFamilyElement.from_leading(base_rank, base_lead)
    r_tr = spec.M * h * (spec.N - 2) // 2
    lead = leading_after_traces(base, r_tr)
    lead = lead.scale(1, msq_pow=-((spec.N - 2) * spec.M * h) // 2)
    for _ in range(h):
        lead = lead.diff_lambda()
    return FFamilyElement.from_leading(n_e, lead)


def derive_C_from_E(spec: ClosureSpec, h: int, k: int) -> FFamilyElement:
    """C_{h,k} as the k-fold mu-derivative of the recursive E_{h,k}."""
    elem = recursive_E(spec, h, k)
    for _ in range(k):
        elem = mu_derivative(elem)
    return elem


def verify_compatibility(
    spec: ClosureSpec, h: int, k: int, tensors: Optional["ClosureTensorSet"] = None
) -> dict:
    """Exact residuals of the two descent compatibility conditions.

    lambda descent: (M/2)-fold trace of C_{h+1,k} minus
    (-m^2)^(M/2) d/d lambda C_{h,k}.
    mu descent: ((N-1)/2)-fold trace of C_{h,k+1} minus
    (-m^2)^((N-1)/2) d/d mu C_{h,k}.

    Each residual is a coefficient list that must vanish identically; a block
    is reported as None when the spec does not admit its next order
    (:meth:`ClosureSpec.admits`) or, given a prebuilt tensor set, when the set
    lacks it; every tensor then comes from the set.
    """
    report: dict = {"h": h, "k": k, "lambda_ok": None, "mu_ok": None,
                    "lambda_residuals": None, "mu_residuals": None}
    base = build_closure_tensor(spec, h, k) if tensors is None else tensors.get(h, k)
    for block, nxt, traces, derivative in (
        ("lambda", (h + 1, k), spec.M // 2, FFamilyElement.diff_lambda),
        ("mu", (h, k + 1), (spec.N - 1) // 2, mu_derivative),
    ):
        if not spec.admits(*nxt):
            continue
        lhs = build_closure_tensor(spec, *nxt) if tensors is None else tensors.tensors.get(nxt)
        if lhs is None:
            continue
        for _ in range(traces):
            lhs = trace(lhs)
        diff = lhs - derivative(base).scale(1, msq_pow=traces)
        report[f"{block}_residuals"] = list(diff.coeffs)
        report[f"{block}_ok"] = diff.is_zero()
    return report


@dataclass
class ClosureTensorSet:
    """All closure tensors of one spec up to its truncation orders."""

    spec: ClosureSpec
    tensors: Dict[Tuple[int, int], FFamilyElement] = field(default_factory=dict)

    @classmethod
    def build(cls, spec: ClosureSpec) -> "ClosureTensorSet":
        out = cls(spec)
        for h, k in iter_orders(spec):
            out.tensors[(h, k)] = build_closure_tensor(spec, h, k)
        return out

    def get(self, h: int, k: int) -> FFamilyElement:
        return self.tensors[(h, k)]


def iter_orders(spec: ClosureSpec):
    """All (h, k) within the truncation orders; RankCapError past the rank cap."""
    spec.check_top_order()
    hmax, kmax = spec.top_order
    for h in range(hmax + 1):
        for k in range(kmax + 1):
            yield (h, k)


def closure_table(spec: ClosureSpec) -> List[dict]:
    """Coefficient table rows for all orders of a spec.

    One row per (h, k, s, q) term carrying the exact rational prefactor, the
    gamma and (-m^2) powers and the function symbol; empty tensors contribute
    a single marker row so the covered orders are explicit in the output.
    """
    rows: List[dict] = []
    for h, k in iter_orders(spec):
        elem = build_closure_tensor(spec, h, k)
        wrote = False
        for s, phi in enumerate(elem.coeffs):
            for coeff, gpow, mpow, sym in phi.terms:
                q, order = sym if sym is not None else (None, None)
                rows.append(
                    {
                        "h": h,
                        "k": k,
                        "s": s,
                        "q": q,
                        "prefactor": str(coeff.numerator)
                        if coeff.denominator == 1
                        else f"{coeff.numerator}/{coeff.denominator}",
                        "gamma_pow": gpow,
                        "msq_pow": mpow,
                        "symbol": [q, order] if sym is not None else None,
                    }
                )
                wrote = True
        if not wrote:
            rows.append(
                {
                    "h": h,
                    "k": k,
                    "s": None,
                    "q": None,
                    "prefactor": "0",
                    "gamma_pow": None,
                    "msq_pow": None,
                    "symbol": None,
                }
            )
    return rows
