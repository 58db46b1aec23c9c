"""Independent references the workload checkers compare against.

Nothing here calls etclosure. The closure coefficients are the paper's closed
form, recomputed in plain ``Fraction`` arithmetic; the thermodynamics and the
kinetic moments are Bessel-K closed forms (``scipy.special.kv``); boosts are
numpy contractions of full 4^r arrays. scipy.special and numpy are imported
lazily, so they are loaded only when a checker first runs, after the timed
operations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import factorial

RANK_CAP = 16
METRIC = (-1, 1, 1, 1)


# ---------------------------------------------------------------------------
# exact closure coefficients


def dfact(n: int) -> int:
    """Double factorial with (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def orders(M: int, N: int, h_max: int, k_max: int):
    """(h, k) pairs a closure table over these truncation orders must cover."""
    hmax = h_max if M >= 2 else 0
    kmax = k_max if N >= 3 else 0
    return [
        (h, k)
        for h in range(hmax + 1)
        for k in range(kmax + 1)
        if M * h + N * k + 1 <= RANK_CAP
    ]


def closure_terms(M: int, N: int, h: int, k: int, s: int):
    """Terms (prefactor, gamma power, (-m^2) power, (q, h)) of C^{h,k}_s.

    With n = Mh+Nk+1, L = floor(n/2), A = Mh+k(N-1) and q = 0..(A-2)/2:

      2^(2L+[k/2]-2s) L!/(s!(n-2s)!) gamma^(-6-Mh-(N+1)k+2s-2q) (-m^2)^(A/2)
      * (A+1+2[k/2])!!/(A-2q-2)!! * (q+2+(Mh+(N+1)k)/2-s)!/(q+2)! * D^h c_q
    """
    n = M * h + N * k + 1
    big_l = n // 2
    a = M * h + k * (N - 1)
    khalf = k // 2
    pref = Fraction(2 ** (2 * big_l + khalf - 2 * s) * factorial(big_l),
                    factorial(s) * factorial(n - 2 * s))
    shift = (M * h + (N + 1) * k) // 2 - s
    terms = []
    for q in range((a - 2) // 2 + 1):
        coeff = pref * Fraction(dfact(a + 1 + 2 * khalf) * factorial(q + 2 + shift),
                                dfact(a - 2 * q - 2) * factorial(q + 2))
        terms.append((coeff, -6 - M * h - (N + 1) * k + 2 * s - 2 * q, a // 2, (q, h)))
    return terms


def closure_coeffs(M: int, N: int, h: int, k: int):
    """All coefficient term lists of C_{h,k}, s = 0..floor(n/2)."""
    n = M * h + N * k + 1
    if h == 0 and k == 0:
        return [[] for _ in range(n // 2 + 1)]
    return [closure_terms(M, N, h, k, s) for s in range(n // 2 + 1)]


def descent_residual(rank: int, coeffs) -> list:
    """Nonzero terms of (2s/gamma) d phi_s/d gamma + (n-2s+2)(n-2s+1) phi_{s-1}."""
    bad = []
    for s in range(1, rank // 2 + 1):
        acc = {}
        for c, g, mp, sym in coeffs[s]:
            key = (g - 2, mp, sym)
            acc[key] = acc.get(key, 0) + 2 * s * g * c
        for c, g, mp, sym in coeffs[s - 1]:
            key = (g, mp, sym)
            acc[key] = acc.get(key, 0) + (rank - 2 * s + 2) * (rank - 2 * s + 1) * c
        bad.extend((s, key, v) for key, v in acc.items() if v != 0)
    return bad


def poly_derivative(coeffs, order: int, lam):
    """order-th derivative of sum_k coeffs[k] lam^k, exact for Fraction input."""
    total = Fraction(0)
    for k in range(order, len(coeffs)):
        total += coeffs[k] * math.perm(k, order) * lam ** (k - order)
    return total


def evaluate_terms(terms, lam, gamma, m, polys):
    """sum coeff gamma^g (-m^2)^j D^h c_q(lam) over the terms."""
    msq = -(m * m)
    total = Fraction(0)
    for c, g, mp, (q, order) in terms:
        total += c * Fraction(gamma) ** g * Fraction(msq) ** mp * poly_derivative(polys[q], order, lam)
    return total


def multiplicity(idx) -> int:
    """Number of index orders that sort to the canonical multi-index idx."""
    out = factorial(len(idx))
    for t in range(4):
        out //= factorial(idx.count(t))
    return out


def full_mu_contraction(components, mu_upper):
    """T^{a1..an} mu_{a1}..mu_{an} over canonical components {idx: value}."""
    mu_low = [METRIC[t] * mu_upper[t] for t in range(4)]
    total = Fraction(0)
    for idx, val in components.items():
        w = multiplicity(idx)
        for t in idx:
            w *= mu_low[t]
        total += val * w
    return total


# ---------------------------------------------------------------------------
# Juttner thermodynamics and kinetic moments by Bessel K


def _sinh_cosh_integral(a: int, nu: int, w: float) -> float:
    """integral_0^inf exp(-w cosh x) cosh^a x sinh^(2 nu) x dx.

    The a = 0 integral is (2nu-1)!! G_nu(w) with G_nu = w^-nu K_nu(w), and
    -d/dw (w^p G_n) = -p w^(p-1) G_n + w^(p+1) G_(n+1) supplies the cosh
    powers one at a time.
    """
    from scipy.special import kv

    terms = {(0, nu): float(dfact(2 * nu - 1))}
    for _ in range(a):
        nxt = {}
        for (p, n), c in terms.items():
            if p:
                nxt[(p - 1, n)] = nxt.get((p - 1, n), 0.0) - p * c
            nxt[(p + 1, n + 1)] = nxt.get((p + 1, n + 1), 0.0) + c
        terms = nxt
    return sum(c * w ** (p - n) * float(kv(n, w)) for (p, n), c in terms.items())


def _occupancy_series(stats: str, lam: float, z: float, fn):
    """sum_j sign_j exp(-j lam) fn(j, j z) for the Juttner occupancy of `stats`.

    mb keeps the j = 1 term; fd alternates the sign (1/(e^x+1)) and be does
    not (1/(e^x-1)); the series is summed until the terms stop mattering.
    """
    total = 0.0
    for j in range(1, 4000):
        sign = -1.0 if (stats == "fd" and j % 2 == 0) else 1.0
        term = sign * math.exp(-j * lam) * fn(j, j * z)
        total += term
        if stats == "mb" or abs(term) <= 1e-18 * abs(total):
            return total
    raise ArithmeticError(f"{stats} Bessel series did not converge at lam={lam}, z={z}")


def state_functions(stats: str, lam: float, gamma: float, m: float):
    """(n, p, e) of the multiplier-side potential H for one Juttner state.

    With sign_j and w = j gamma m as in the occupancy series:
      n = -4 pi m^3 sum sign_j e^(-j lam) K_1(w)/w
      p = (4 pi m^3/gamma) sum sign_j e^(-j lam) K_1(w)/(j w)
      e = 4 pi m^4 sum sign_j e^(-j lam) K_2(w)/w
    """
    from scipy.special import kv

    z = gamma * m
    four_pi = 4.0 * math.pi
    n = -four_pi * m**3 * _occupancy_series(stats, lam, z, lambda j, w: kv(1, w) / w)
    p = four_pi * m**3 / gamma * _occupancy_series(stats, lam, z, lambda j, w: kv(1, w) / (j * w))
    e = four_pi * m**4 * _occupancy_series(stats, lam, z, lambda j, w: kv(2, w) / w)
    return n, p, e


def _sphere_moment(b1: int, b2: int, b3: int) -> float:
    if b1 % 2 or b2 % 2 or b3 % 2:
        return 0.0
    return 4.0 * math.pi * dfact(b1 - 1) * dfact(b2 - 1) * dfact(b3 - 1) / dfact(b1 + b2 + b3 + 1)


def rest_moment(stats: str, lam: float, gamma: float, m: float, rank: int):
    """Rest-frame kinetic moment as a full numpy array of shape (4,)*rank.

    p = m (cosh x, sinh x w): a component with a time slots and spatial counts
    (b1, b2, b3) is m^(2+a+b) * radial(a, b) * sphere moment of w^b.
    """
    import numpy as np

    z = gamma * m
    out = np.zeros((4,) * rank)
    cache = {}
    for idx in itertools.product(range(4), repeat=rank):
        counts = [idx.count(t) for t in range(4)]
        ang = _sphere_moment(*counts[1:])
        if not ang:
            continue
        a, b = counts[0], sum(counts[1:])
        if (a, b) not in cache:
            cache[(a, b)] = m ** (2 + a + b) * _occupancy_series(
                stats, lam, z, lambda j, w: _sinh_cosh_integral(a, (b + 2) // 2, w))
        out[idx] = cache[(a, b)] * ang
    return out


def boost(tensor, mu_upper):
    """Boost a rest-frame tensor to the frame of u = mu / |mu| with numpy."""
    import numpy as np

    mu = np.asarray(mu_upper, dtype=float)
    gamma = math.sqrt(mu[0] ** 2 - mu[1:] @ mu[1:])
    u = mu / gamma
    lam = np.empty((4, 4))
    lam[0, 0] = u[0]
    lam[0, 1:] = u[1:]
    lam[1:, 0] = u[1:]
    lam[1:, 1:] = np.eye(3) + np.outer(u[1:], u[1:]) / (1.0 + u[0])
    out = np.asarray(tensor, dtype=float)
    for axis in range(out.ndim):
        out = np.moveaxis(np.tensordot(lam, out, axes=([1], [axis])), 0, axis)
    return out


def kinetic_densities(stats: str, lam: float, gamma: float, m: float):
    """(n, p, e) of the kinetic moments: rest-frame T^0, T^{ii}/3 and T^{00}."""
    r1 = rest_moment(stats, lam, gamma, m, 1)
    r2 = rest_moment(stats, lam, gamma, m, 2)
    return r1[0], (r2[1, 1] + r2[2, 2] + r2[3, 3]) / 3.0, r2[0, 0]


def relerr(got, want) -> float:
    """|got - want| / |want|, with 0 for an exact zero match."""
    if got == want:
        return 0.0
    return abs(got - want) / abs(want) if want else math.inf


def tensor_relerr(components, reference) -> float:
    """max |T - ref| / max |ref| over canonical components {idx: float}."""
    scale = max(abs(float(v)) for v in reference.flat)
    worst = max(abs(float(val) - float(reference[tuple(idx)])) for idx, val in components.items())
    return worst / scale
