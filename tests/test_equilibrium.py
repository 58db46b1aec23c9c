from __future__ import annotations

import math
from fractions import Fraction

import pytest
import scipy.special

from etclosure import cli, equilibrium, verify
from etclosure.equilibrium import (
    EntropyUndefinedError,
    JuttnerFamily,
    STATISTICS,
    ThermoState,
    equilibrium_hprime,
    equilibrium_multipliers,
    gibbs_residual,
    H_derivatives,
    H_from_distribution,
    integrability_residual,
    mj_closed_form_H,
    project_equilibrium,
    state_functions,
    thermo_functions,
    thermo_with_residuals,
)
from etclosure.oracle import random_rational_timelike
from etclosure.tensors import DenseSymTensor, FourVector, canonical_indices, gmu_basis, transform

REST = FourVector([1.0, 0, 0, 0])
BOOSTED = FourVector([1.3, 0.4, -0.2, 0.1])


def test_thermostate_validation():
    with pytest.raises(ValueError):
        ThermoState(1.0, FourVector([0, 1, 0, 0]), 1.0)
    with pytest.raises(ValueError):
        ThermoState(1.0, FourVector([-1, 0, 0, 0]), 1.0)
    with pytest.raises(ValueError):
        ThermoState(1.0, REST, -1.0)
    with pytest.raises(ValueError):
        ThermoState(1.0, REST, 1.0, statistics="maxwellian")
    with pytest.raises(ValueError):
        ThermoState(1.0, REST, 1.0, k_B=0.0)
    st = ThermoState(0.5, BOOSTED, 2.0)
    assert st.gamma == pytest.approx(math.sqrt(-BOOSTED.norm_sq()))


def test_multiplier_tensors_shapes():
    lam = Fraction(3, 5)
    mu = FourVector([Fraction(5, 4), Fraction(3, 4), 0, 0])
    m = Fraction(2)
    lam0, mu1 = equilibrium_multipliers(lam, mu, 0, 1, m)
    assert lam0.rank == 0 and lam0.get(()) == lam
    assert mu1.rank == 1
    assert [mu1.get((i,)) for i in range(4)] == list(mu.lowered().components)
    lam2, mu3 = equilibrium_multipliers(lam, mu, 2, 3, m)
    # lambda g_ab (-m^2)^{-1} on lowered indices
    assert lam2.get((0, 0)) == lam * Fraction(-1) / (-m * m)
    assert lam2.get((1, 1)) == lam / (-m * m)
    assert lam2.get((0, 1)) == 0
    # mu_(a g_bc) (-m^2)^{-1}
    low = mu.lowered().components
    want_001 = (low[0] * 0 + low[0] * 0 + low[1] * (-1)) / (3 * (-m * m))
    assert mu3.get((0, 0, 1)) == want_001
    with pytest.raises(ValueError):
        equilibrium_multipliers(lam, mu, 3, 1, m)
    with pytest.raises(ValueError):
        equilibrium_multipliers(lam, mu, 2, 2, m)


@pytest.mark.parametrize("M", [0, 2, 4])
@pytest.mark.parametrize("N", [1, 3])
def test_projection_round_trip_exact(M, N, rng):
    lam = Fraction(7, 3)
    m = Fraction(3, 2)
    mu = random_rational_timelike(rng)
    lam_t, mu_t = equilibrium_multipliers(lam, mu, M, N, m)
    lam_back, mu_back = project_equilibrium(lam_t, mu_t, m)
    assert lam_back == lam
    assert tuple(mu_back.components) == tuple(mu.lowered().components)


def test_projection_identity_for_scalar_vector():
    lam_t = DenseSymTensor.scalar(Fraction(5, 7))
    mu_t = DenseSymTensor.zeros(1).with_entry((0,), Fraction(-2)).with_entry((1,), Fraction(1, 3))
    lam_back, mu_back = project_equilibrium(lam_t, mu_t, 1)
    assert lam_back == Fraction(5, 7)
    assert mu_back.components == (Fraction(-2), Fraction(1, 3), 0, 0)


def test_H_quadrature_matches_closed_form():
    dist = JuttnerFamily()
    for lam in (0.0, 1.0, -0.5):
        for z in (0.01, 0.1, 1.0, 10.0):
            got = H_from_distribution(dist.F, lam, z, 1.0)
            want = mj_closed_form_H(lam, z, 1.0)
            assert got == pytest.approx(want, rel=1e-8)


def test_H_zero_distribution():
    assert H_from_distribution(lambda X, Y: 0.0, 1.0, 1.0, 1.0) == 0.0


def test_H_scaling_invariance():
    # doubled gamma and halved mass leave gamma*m fixed; the prefactor
    # m^3/gamma drops by 16
    base = mj_closed_form_H(0.3, 1.0, 1.0)
    assert mj_closed_form_H(0.3, 2.0, 0.5) == pytest.approx(base / 16, rel=1e-12)
    got = H_from_distribution(JuttnerFamily().F, 0.3, 2.0, 0.5)
    assert got == pytest.approx(base / 16, rel=1e-8)


def test_state_functions_identities():
    fn = state_functions(2.0, -3.0, -5.0, 0.7, 2.0)
    assert fn.p == 2.0
    assert fn.n == 2.0 * -3.0
    assert fn.e == -2.0 - 2.0 * -5.0
    assert fn.T == 0.5
    assert fn.s == -0.7 - 2.0 * (-5.0) / (-3.0)
    # gamma-independent H has e = -H
    flat = state_functions(2.0, -3.0, 0.0, 0.7, 2.0)
    assert flat.e == -2.0


def test_state_functions_entropy_guard():
    with pytest.raises(EntropyUndefinedError):
        state_functions(1.0, 0.0, -1.0, 0.5, 1.0)


def test_monomial_H_closed_forms():
    # H = exp(-lam) gamma^-4: n = -exp(-lam) gamma^-3, e = 3p, s = -lam - 4
    lam, gamma = 0.4, 1.7
    H = math.exp(-lam) * gamma**-4
    fn = state_functions(H, -H, -4 * H / gamma, lam, gamma)
    assert fn.e == pytest.approx(3 * fn.p, rel=1e-14)
    assert fn.n == pytest.approx(-math.exp(-lam) * gamma**-3, rel=1e-14)
    assert fn.s == pytest.approx(-lam - 4, rel=1e-14)


@pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
def test_gibbs_relation_holds(z):
    st = ThermoState(0.3, FourVector([z, 0, 0, 0]), 1.0)
    assert abs(gibbs_residual(st)) <= 1e-8


@pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
def test_integrability_condition_holds(z):
    st = ThermoState(0.3, FourVector([z, 0, 0, 0]), 1.0)
    assert abs(integrability_residual(st)) <= 1e-8


def equilibrium_command(state: ThermoState) -> None:
    argv = ["equilibrium", "--lambda", repr(state.lam), "--m", repr(state.m)]
    for i, c in enumerate(state.mu.components):
        argv += [f"--mu{i}", repr(c)]
    assert cli.main(argv) == 0


def equilibrium_suite(state: ThermoState) -> None:
    # the suite draws its own three rest states; the argument is not used
    assert verify.suite_equilibrium(verify.VerifyConfig()).passed


@pytest.mark.parametrize("residual,states", [
    pytest.param(call, states, id=call.__name__)
    for call, states in ((gibbs_residual, 1), (integrability_residual, 1),
                         (equilibrium_command, 1), (equilibrium_suite, 3))
])
def test_residuals_evaluate_each_stencil_point_once(residual, states, monkeypatch):
    # per state: centre plus four offsets along lambda and four along gamma
    points = []

    def counted(dist, lam, gamma, m):
        points.append((lam, gamma))
        return H_derivatives(dist, lam, gamma, m)

    monkeypatch.setattr(equilibrium, "H_derivatives", counted)
    residual(ThermoState(0.3, BOOSTED, 1.0))
    assert len(points) == 9 * states
    assert len(set(points)) == 9 * states


def test_thermo_with_residuals_matches_the_single_calls():
    # bit-identical at the equilibrium suite's three states
    for z in (0.1, 1.0, 10.0):
        state = ThermoState.rest(1.0, z, 1.0)
        assert thermo_with_residuals(state) == (
            thermo_functions(state), gibbs_residual(state), integrability_residual(state))


@pytest.mark.parametrize("stats", STATISTICS)
def test_degenerate_statistics_thermodynamics(stats):
    st = ThermoState(1.0, REST, 1.0, statistics=stats)
    fn = thermo_functions(st)
    assert math.isfinite(fn.H) and fn.H > 0
    assert abs(gibbs_residual(st)) <= 1e-8
    assert abs(integrability_residual(st)) <= 1e-8


def test_statistics_ordering():
    # same state: Fermi blocking lowers H, Bose enhancement raises it
    vals = {}
    for stats in STATISTICS:
        vals[stats] = thermo_functions(ThermoState(1.0, REST, 1.0, statistics=stats)).H
    assert vals["fermion"] < vals["nondegenerate"] < vals["boson"]


def test_H_derivatives_match_closed_form():
    dist = JuttnerFamily()
    lam, gamma, m = 0.6, 1.3, 1.0
    H, H_lam, H_gam = H_derivatives(dist, lam, gamma, m)
    assert H == pytest.approx(mj_closed_form_H(lam, gamma, m), rel=1e-9)
    # MJ factorizes in lambda: H_lambda = -H
    assert H_lam == pytest.approx(-H, rel=1e-8)
    eps = 1e-5
    fd = (mj_closed_form_H(lam, gamma + eps, m) - mj_closed_form_H(lam, gamma - eps, m)) / (2 * eps)
    assert H_gam == pytest.approx(fd, rel=1e-7)


def test_equilibrium_hprime_shapes():
    st = ThermoState(1.0, BOOSTED, 1.0)
    hprime, A, B = equilibrium_hprime(st)
    fn = thermo_functions(st)
    gamma = st.gamma
    u = [c / gamma for c in BOOSTED.components]
    for i in range(4):
        assert hprime.components[i] == pytest.approx(fn.H * BOOSTED.components[i], rel=1e-12)
        assert A.components[i] == pytest.approx(fn.n * u[i], rel=1e-12)
    # B u u = e with u_alpha = g u
    u_low = [-u[0], u[1], u[2], u[3]]
    buu = sum(B.get((i, j)) * u_low[i] * u_low[j] for i in range(4) for j in range(4))
    assert buu == pytest.approx(fn.e, rel=1e-12)
    tr = sum(B.get((i, i)) * (-1 if i == 0 else 1) for i in range(4))
    assert tr == pytest.approx(-fn.e + 3 * fn.p, rel=1e-12)


def test_positivity_of_kinetic_set():
    from etclosure.moments import kinetic_moment

    for z in (0.1, 1.0, 10.0):
        st = ThermoState(0.5, FourVector([z, 0, 0, 0]), 1.0)
        n = kinetic_moment(st, 1).get((0,))
        B = kinetic_moment(st, 2)
        e, p = B.get((0, 0)), B.get((1, 1))
        assert n > 0 and p > 0 and e > 0
        # multiplier-side pressure and energy stay positive too
        fn = thermo_functions(st)
        assert fn.p > 0 and fn.e > 0


def test_extreme_gamma_quadrature_is_finite():
    # the radial integrand overflows cosh at rho ~ 710 unless guarded
    fn = thermo_functions(ThermoState(1.0, FourVector([400.0, 0, 0, 0]), 1.0))
    assert math.isfinite(fn.H) and fn.H > 0
    assert math.isfinite(fn.e)
    # complete underflow degenerates the state functions explicitly
    with pytest.raises(EntropyUndefinedError):
        thermo_functions(ThermoState(1.0, FourVector([800.0, 0, 0, 0]), 1.0))


# ---------------------------------------------------------------------------
# degenerate statistics against Bessel-K series
#
# f_eq = a e^(-z) / (1 + sigma e^(-z)) with z = (lambda + gamma m cosh r)/k_B
# expands as a sum_j c_j e^(-j z), c_j = (-sigma)^(j-1): sigma = 1 gives the
# alternating fermion series, sigma = -1 the plain boson series, sigma = 0
# the single nondegenerate term.  Each term integrates through
# integral_0^inf e^(-w cosh r) cosh(n r) dr = K_n(w) at w = j gamma m / k_B.

SIGMA = {"nondegenerate": 0, "fermion": 1, "boson": -1}
SERIES_STATES = [(lam, gamma, 1.0, 1.0) for lam in (0.2, 2.0) for gamma in (0.1, 30.0)]
SERIES_STATES.append((0.2, 0.1, 0.5, 2.0))  # (lambda, gamma, m, k_B)


def k_series(stats, lam, gamma, m, k_B, term):
    """sum_j c_j e^(-j lambda/k_B) term(j, w_j), summed until the terms stop mattering."""
    sigma = SIGMA[stats]
    total = 0.0
    for j in range(1, 5000):
        t = (-sigma) ** (j - 1) * math.exp(-j * lam / k_B) * term(j, j * gamma * m / k_B)
        total += t
        if sigma == 0 or abs(t) <= 1e-18 * abs(total):
            return total
    raise AssertionError("Bessel series did not converge")


def cosh_power_integral(n, w):
    """integral_0^inf e^(-w cosh r) cosh^n r dr from cosh^n r = 2^-n sum_i C(n,i) cosh((n-2i) r)."""
    return sum(math.comb(n, i) * scipy.special.kv(abs(n - 2 * i), w) for i in range(n + 1)) / 2**n


def radial_integral(a, b, w):
    """integral_0^inf e^(-w cosh r) cosh^a r sinh^(b+2) r dr for even b, via sinh^2 = cosh^2 - 1."""
    half = (b + 2) // 2
    return sum(math.comb(half, i) * (-1) ** (half - i) * cosh_power_integral(a + 2 * i, w)
               for i in range(half + 1))


def sphere_moment(counts):
    """integral over the unit sphere of w1^b1 w2^b2 w3^b3, by the Gamma-function form."""
    if any(b % 2 for b in counts):
        return 0.0
    num = math.prod(math.gamma((b + 1) / 2) for b in counts)
    return 2.0 * num / math.gamma((sum(counts) + 3) / 2)


def rel(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("stats", STATISTICS)
@pytest.mark.parametrize("lam,gamma,m,k_B", SERIES_STATES)
def test_state_functions_match_bessel_series(stats, lam, gamma, m, k_B):
    # multiplier-side convention: n = gamma dH/dlambda < 0, p = H, e = -H - gamma dH/dgamma
    fn = thermo_functions(ThermoState.rest(lam, gamma, m, statistics=stats, k_B=k_B))
    four_pi = 4.0 * math.pi
    n = -four_pi * m**3 * k_series(stats, lam, gamma, m, k_B,
                                   lambda j, w: scipy.special.kv(1, w) / w)
    p = four_pi * m**3 * k_B / gamma * k_series(stats, lam, gamma, m, k_B,
                                                lambda j, w: scipy.special.kv(1, w) / (j * w))
    e = four_pi * m**4 * k_series(stats, lam, gamma, m, k_B,
                                  lambda j, w: scipy.special.kv(2, w) / w)
    assert rel(fn.n, n) <= 1e-10
    assert rel(fn.p, p) <= 1e-10
    assert rel(fn.e, e) <= 1e-10


@pytest.mark.parametrize("stats", STATISTICS)
@pytest.mark.parametrize("lam,gamma,m,k_B", SERIES_STATES)
def test_rank4_kinetic_moment_matches_bessel_series(stats, lam, gamma, m, k_B):
    from etclosure.moments import kinetic_moment

    state = ThermoState.rest(lam, gamma, m, statistics=stats, k_B=k_B)
    got = kinetic_moment(state, 4)
    for idx in ((0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 2, 2), (3, 3, 3, 3), (0, 1, 1, 1)):
        a = idx.count(0)
        counts = [idx.count(i) for i in (1, 2, 3)]
        ang = sphere_moment(counts)
        if ang == 0.0:
            assert got.get(idx) == 0.0
            continue
        b = sum(counts)
        want = m ** (2 + a + b) * ang * k_series(
            stats, lam, gamma, m, k_B, lambda j, w: radial_integral(a, b, w))
        assert rel(got.get(idx), want) <= 1e-10, idx


def boost_matrix(u):
    """The pure boost taking (1, 0, 0, 0) to the unit four-velocity u (upper components)."""
    return [list(u)] + [[u[i]] + [(i == j) + u[i] * u[j] / (1.0 + u[0]) for j in (1, 2, 3)]
                        for i in (1, 2, 3)]


# (lambda, gamma, m, k_B, spatial velocity u^i)
BOOSTED_SERIES_STATES = [(0.2, 0.1, 0.5, 2.0, (0.6, -0.3, 0.2)),
                         (2.0, 30.0, 1.0, 1.0, (-0.4, 0.1, 1.5))]


@pytest.mark.parametrize("stats", STATISTICS)
@pytest.mark.parametrize("lam,gamma,m,k_B,velocity", BOOSTED_SERIES_STATES)
def test_boosted_kinetic_moments_match_the_boosted_bessel_series(stats, lam, gamma, m, k_B,
                                                                 velocity):
    # the rest-frame tensor component by component from the Bessel series and
    # the sphere moments, carried to the moving frame by tensors.transform
    from etclosure.moments import kinetic_moment

    u = (math.sqrt(1.0 + sum(v * v for v in velocity)),) + velocity
    state = ThermoState(lam, FourVector([gamma * c for c in u]), m, statistics=stats, k_B=k_B)
    series = {}
    for rank in range(7):
        rest = {}
        for idx in canonical_indices(rank):
            a = idx.count(0)
            counts = [idx.count(i) for i in (1, 2, 3)]
            ang = sphere_moment(counts)
            b = sum(counts)
            if ang and (a, b) not in series:
                series[a, b] = m ** (2 + a + b) * k_series(
                    stats, lam, gamma, m, k_B, lambda j, w: radial_integral(a, b, w))
            rest[idx] = ang * series[a, b] if ang else 0.0
        want = transform(DenseSymTensor(rank, rest), boost_matrix(u))
        got = kinetic_moment(state, rank)
        assert (got - want).max_abs() <= 1e-10 * want.max_abs(), rank


@pytest.mark.parametrize("stats", STATISTICS)
def test_windowed_H_derivatives_match_the_half_line(stats):
    # H_from_distribution integrates any callable over [0, inf); H_derivatives
    # stops at the family's window, which drops only exact zeros
    for lam, gamma, m, k_B in SERIES_STATES + [(-3.0, 4.0, 1.0, 1.0), (1.0, 400.0, 1.0, 1.0)]:
        dist = JuttnerFamily(stats, k_B=k_B)
        h_val, h_lam, h_gam = H_derivatives(dist, lam, gamma, m)
        want_val = H_from_distribution(dist.F, lam, gamma, m)
        want_lam = H_from_distribution(dist.f_eq, lam, gamma, m)
        # dF/dY = f_eq, and Y = gamma m cosh r, so the cosh-weighted term is f_eq(X, Y) Y / gamma
        want_gam = -want_val / gamma + H_from_distribution(
            lambda x, y: dist.f_eq(x, y) * y / gamma, lam, gamma, m)
        assert rel(h_val, want_val) <= 1e-13
        assert rel(h_lam, want_lam) <= 1e-13
        assert rel(h_gam, want_gam) <= 1e-13


@pytest.mark.parametrize("stats", STATISTICS)
def test_occupancy_is_exactly_zero_past_the_window(stats):
    for lam, gm, k_B in ((0.2, 0.1, 1.0), (2.0, 30.0, 1.0), (-3.0, 4.0, 1.0), (0.2, 0.05, 2.0)):
        dist = JuttnerFamily(stats, k_B=k_B)
        R = dist.window(lam, gm)
        assert 0.0 < R < math.inf
        for x in (R, math.nextafter(R, math.inf), R * (1 + 1e-9), R + 1.0, 2.0 * R):
            assert dist.f_eq(lam, gm * math.cosh(x)) == 0.0
            assert dist.F(lam, gm * math.cosh(x)) == 0.0
        # the window is tight: one percent inside it the occupancy is still nonzero
        inside = math.acosh(0.99 * math.cosh(R))
        assert dist.f_eq(lam, gm * math.cosh(inside)) > 0.0
    dist = JuttnerFamily(stats)
    # the whole range underflows: an empty window (equilibrium --gamma 800)
    assert dist.window(1.0, 800.0) == 0.0
    assert dist.f_eq(1.0, 800.0) == 0.0
    # a ratio that is not finite never reads as an empty window
    assert dist.window(float("nan"), 1.0) == math.inf
    with pytest.raises(ValueError):
        JuttnerFamily(stats, k_B=0.0)


@pytest.mark.parametrize("gm", [0.0, -1.0])
def test_window_needs_positive_gamma_m(gm):
    dist = JuttnerFamily()
    with pytest.raises(ValueError, match="gamma m must be positive"):
        dist.window(1.0, gm)
    with pytest.raises(ValueError, match="gamma m must be positive"):
        H_derivatives(dist, 1.0, 1.0, gm)
    # a NaN gamma m is not rejected: its window is the whole half-line
    assert dist.window(1.0, float("nan")) == math.inf
