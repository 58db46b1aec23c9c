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
from math import factorial
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
        if (self.M + self.N) % 2 != 1:
            raise ValueError("M + N must be odd")
        if self.h_max < 0 or self.k_max < 0:
            raise ValueError(f"h_max and k_max must be non-negative, got {self.h_max}, {self.k_max}")

    def rank(self, h: int, k: int) -> int:
        return self.M * h + self.N * k + 1

    def check_orders(self, h: int, k: int) -> None:
        if h < 0 or k < 0:
            raise ValueError("orders must be non-negative")
        if self.M == 0 and h > 0:
            raise ValueError("scalar multiplier block admits no deviation orders (h must be 0)")
        if self.N == 1 and k > 0:
            raise ValueError("vector multiplier block admits no deviation orders (k must be 0)")
        if self.rank(h, k) > RANK_CAP:
            raise RankCapError(
                f"rank {self.rank(h, k)} exceeds cap {RANK_CAP} for (h,k)=({h},{k})"
            )

    def check_top_order(self) -> None:
        """Raise RankCapError when the highest requested order passes the rank cap.

        The rank grows with h and k, so once the top order fits every order
        does; :func:`iter_orders` calls this, so nothing that sums over the
        truncation silently covers less than was requested.
        """
        top_h = self.h_max if self.M >= 2 else 0
        top_k = self.k_max if self.N >= 3 else 0
        if self.rank(top_h, top_k) > RANK_CAP:
            raise RankCapError(
                f"rank {self.rank(top_h, top_k)} at (h,k)=({top_h},{top_k}) "
                f"exceeds cap {RANK_CAP}; lower --hmax/--kmax"
            )


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
    if M < 0 or M % 2 != 0:
        raise ValueError(f"M must be even and non-negative, got {M}")
    if N < 1 or N % 2 != 1:
        raise ValueError(f"N must be odd and positive, got {N}")
    if h < 0 or k < 0:
        raise ValueError("orders must be non-negative")
    if N == 1 and k > 0:
        raise ValueError("k > 0 is empty for a rank-1 multiplier block")
    if M == 0 and h > 0:
        raise ValueError("h > 0 is empty for a scalar multiplier block")
    n = M * h + N * k + 1
    big_l = n // 2
    if not 0 <= s <= big_l:
        raise ValueError(f"need 0 <= s <= {big_l}, got s={s}")
    a = M * h + k * (N - 1)
    qmax = (a - 2) // 2
    if qmax < 0:
        return ScalarExpr.zero()
    khalf = k // 2
    pref = Fraction(
        2 ** (2 * big_l + khalf - 2 * s) * factorial(big_l),
        factorial(s) * factorial(n - 2 * s),
    )
    gpow_base = -6 - M * h - (N + 1) * k + 2 * s
    msq = a // 2
    shift = (M * h + (N + 1) * k) // 2 - s
    terms = []
    for q in range(qmax + 1):
        coeff = pref * Fraction(
            double_factorial(a + 1 + 2 * khalf) * factorial(q + 2 + shift),
            double_factorial(a - 2 * q - 2) * factorial(q + 2),
        )
        terms.append((coeff, gpow_base - 2 * q, msq, (q, h)))
    return ScalarExpr(terms)


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
    is reported as None when the higher order is not constructible (M = 0
    admits no lambda orders, N = 1 no mu orders).  A prebuilt tensor set can
    be supplied (any (h, k) it lacks is built from the closed forms).
    """

    def fetch(hh: int, kk: int) -> FFamilyElement:
        if tensors is not None and (hh, kk) in tensors.tensors:
            return tensors.get(hh, kk)
        return build_closure_tensor(spec, hh, kk)

    report: dict = {"h": h, "k": k, "lambda_ok": None, "mu_ok": None,
                    "lambda_residuals": None, "mu_residuals": None}
    base = fetch(h, k)
    if spec.M >= 2:
        lhs = fetch(h + 1, k)
        for _ in range(spec.M // 2):
            lhs = trace(lhs)
        rhs = base.diff_lambda().scale(1, msq_pow=spec.M // 2)
        diff = lhs - rhs
        report["lambda_residuals"] = list(diff.coeffs)
        report["lambda_ok"] = diff.is_zero()
    if spec.N >= 3:
        lhs = fetch(h, k + 1)
        for _ in range((spec.N - 1) // 2):
            lhs = trace(lhs)
        rhs = mu_derivative(base).scale(1, msq_pow=(spec.N - 1) // 2)
        diff = lhs - rhs
        report["mu_residuals"] = list(diff.coeffs)
        report["mu_ok"] = diff.is_zero()
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
    hmax = spec.h_max if spec.M >= 2 else 0
    kmax = spec.k_max if spec.N >= 3 else 0
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
