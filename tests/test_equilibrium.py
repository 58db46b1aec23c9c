from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from etclosure import cli, equilibrium, moments, verify
from etclosure.equilibrium import (
    ConvergenceError,
    EntropyUndefinedError,
    JuttnerFamily,
    STATISTICS,
    ThermoState,
    equilibrium_hprime,
    equilibrium_multipliers,
    gibbs_residual,
    H_derivatives,
    H_derivatives_many,
    H_from_distribution,
    bessel_series,
    integrability_residual,
    mj_closed_form_H,
    project_equilibrium,
    state_functions,
    thermo_functions,
    thermo_with_residuals,
)
from etclosure.moments import quad_radials, radial_weights
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
    # a boson below lambda + gamma m = 0 would be a condensate; at 0 it is the edge
    with pytest.raises(ValueError, match="lambda \\+ gamma m"):
        ThermoState(-2.0, BOOSTED, 1.0, statistics="boson")
    assert ThermoState.rest(-1.0, 1.0, 1.0, statistics="boson").lam == -1.0
    # a batched state (as the symmetry stencil builds) is checked at every entry
    ThermoState(np.array([0.5, -1.0]), REST, 1.0, statistics="boson")
    with pytest.raises(ValueError, match="got -0.5"):
        ThermoState(np.array([0.5, -1.5]), REST, 1.0, statistics="boson")
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
    # per state: one batched call with the centre plus four offsets along
    # lambda and four along gamma
    batches = []

    def counted(dist, points, m):
        batches.append(list(points))
        return H_derivatives_many(dist, points, m)

    monkeypatch.setattr(equilibrium, "H_derivatives_many", counted)
    residual(ThermoState(0.3, BOOSTED, 1.0))
    # the equilibrium suite also checks the fermion and boson H_derivatives against
    # the Bessel series one point at a time; the nondegenerate one is the stencil's centre
    stencils = [points for points in batches if len(points) > 1]
    assert len(stencils) == states
    assert len(batches) == states * (3 if residual is equilibrium_suite else 1)
    assert all(len(points) == 9 for points in stencils)
    assert len({point for points in stencils for point in points}) == 9 * states


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
# f_eq = a e^(-z) / (1 + sigma e^(-z)) with z = lambda + gamma m cosh r
# expands as a sum_j c_j e^(-j z), c_j = (-sigma)^(j-1): sigma = 1 gives the
# alternating fermion series, sigma = -1 the plain boson series, sigma = 0
# the single nondegenerate term.  Each term integrates through
# integral_0^inf e^(-w cosh r) cosh(n r) dr = K_n(w) at w = j gamma m.
#
# A state given with a Boltzmann constant k_B runs at its natural-units image
# (lambda/k_B, gamma/k_B): the occupancy reads (lambda + gamma m cosh r)/k_B only.

SIGMA = {"nondegenerate": 0, "fermion": 1, "boson": -1}
SERIES_STATES = [(lam, gamma, 1.0, 1.0) for lam in (0.2, 2.0) for gamma in (0.1, 30.0)]
SERIES_STATES.append((0.2, 0.1, 0.5, 2.0))  # (lambda, gamma, m, k_B)


def natural(lam, gamma, k_B):
    """The natural-units image (lambda/k_B, gamma/k_B) of a state given with k_B."""
    return lam / k_B, gamma / k_B


def k_series(stats, lam, gamma, m, term):
    """sum_j c_j e^(-j lambda) term(j, w_j), summed until the terms stop mattering."""
    sigma = SIGMA[stats]
    total = 0.0
    for j in range(1, 5000):
        t = (-sigma) ** (j - 1) * math.exp(-j * lam) * term(j, j * gamma * m)
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
    lam, gamma = natural(lam, gamma, k_B)
    fn = thermo_functions(ThermoState.rest(lam, gamma, m, statistics=stats))
    four_pi = 4.0 * math.pi
    n = -four_pi * m**3 * k_series(stats, lam, gamma, m, lambda j, w: scipy.special.kv(1, w) / w)
    p = four_pi * m**3 / gamma * k_series(stats, lam, gamma, m,
                                          lambda j, w: scipy.special.kv(1, w) / (j * w))
    e = four_pi * m**4 * k_series(stats, lam, gamma, m, lambda j, w: scipy.special.kv(2, w) / w)
    assert rel(fn.n, n) <= 1e-10
    assert rel(fn.p, p) <= 1e-10
    assert rel(fn.e, e) <= 1e-10


@pytest.mark.parametrize("stats", STATISTICS)
@pytest.mark.parametrize("lam,gamma,m,k_B", SERIES_STATES)
def test_rank4_kinetic_moment_matches_bessel_series(stats, lam, gamma, m, k_B):
    from etclosure.moments import kinetic_moment

    lam, gamma = natural(lam, gamma, k_B)
    state = ThermoState.rest(lam, gamma, m, statistics=stats)
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
            stats, lam, gamma, m, lambda j, w: radial_integral(a, b, w))
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

    lam, gamma = natural(lam, gamma, k_B)
    u = (math.sqrt(1.0 + sum(v * v for v in velocity)),) + velocity
    state = ThermoState(lam, FourVector([gamma * c for c in u]), m, statistics=stats)
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
                    stats, lam, gamma, m, lambda j, w: radial_integral(a, b, w))
            rest[idx] = ang * series[a, b] if ang else 0.0
        want = transform(DenseSymTensor(rank, rest), boost_matrix(u))
        got = kinetic_moment(state, rank)
        assert (got - want).max_abs() <= 1e-10 * want.max_abs(), rank


# states where the trapezoid grid does not settle by TRAPEZOID_MAX_INTERVALS, so
# H_derivatives takes the quad fallback: a degenerate fermion and a boson near condensation
FALLBACK_STATES = {"fermion": (-30.0, 1.0, 1.0), "boson": (-0.999999999, 1.0, 1.0)}


@pytest.mark.parametrize("stats", STATISTICS)
def test_windowed_H_derivatives_match_the_half_line(stats):
    # H_from_distribution integrates any callable over [0, inf) by quad;
    # H_derivatives stops at the family's window, which drops only exact zeros
    fallback = [FALLBACK_STATES[stats]] if stats in FALLBACK_STATES else []
    states = [(*natural(lam, gamma, k_B), m) for lam, gamma, m, k_B in SERIES_STATES]
    states += [(-3.0, 4.0, 1.0), (1.0, 400.0, 1.0)] + fallback
    dist = JuttnerFamily(stats)
    for lam, gamma, m in states:
        h_val, h_lam, h_gam = H_derivatives(dist, lam, gamma, m)
        want_val = H_from_distribution(dist.F, lam, gamma, m)
        want_lam = H_from_distribution(dist.f_eq, lam, gamma, m)
        # dF/dY = f_eq, and Y = gamma m cosh r, so the cosh-weighted term is f_eq(X, Y) Y / gamma
        want_gam = -want_val / gamma + H_from_distribution(
            lambda x, y: dist.f_eq(x, y) * y / gamma, lam, gamma, m)
        bound = 1e-12 if stats == "boson" and fallback == [(lam, gamma, m)] else 1e-13
        assert rel(h_val, want_val) <= bound
        assert rel(h_lam, want_lam) <= bound
        assert rel(h_gam, want_gam) <= bound


def test_half_line_H_resolves_the_peak_of_a_boson_near_condensation():
    # the mpmath value; QUADPACK's infinite-range rule alone read 3.8032169266694633
    lam, gamma, m = FALLBACK_STATES["boson"]
    got = H_from_distribution(JuttnerFamily("boson").f_eq, lam, gamma, m)
    assert rel(got, -4.0 * math.pi * 3.8032169252013839) <= 1e-12


def test_boson_gibbs_stencil_shrinks_only_a_step_that_would_reach_condensation():
    # lambda + gamma m - 2 h is 0.01 along lambda and 0.025 along gamma at -0.97
    # (both fit); at -0.98 the lambda stencil would reach 0, at -0.995 both would
    default = (equilibrium._REL_STEP, equilibrium._REL_STEP / 4.0)
    for lam, shrunk in ((-0.97, ()), (-0.98, (0,)), (-0.995, (0, 1))):
        state = ThermoState.rest(lam, 1.0, 1.0, statistics="boson")
        _, *directions = equilibrium._stencil_functions(state)
        gap = lam + 1.0
        assert [h for _, h in directions] == [gap / 4.0 if i in shrunk else default[i]
                                              for i in (0, 1)]
        assert all(f.lam + f.gamma > 0.0 for points, _ in directions for f in points)
    # the fermion stencil crosses lambda + gamma m = 0 freely
    _, *directions = equilibrium._stencil_functions(
        ThermoState.rest(-0.995, 1.0, 1.0, statistics="fermion"))
    assert [h for _, h in directions] == list(default)
    with pytest.raises(ConvergenceError, match="condensation"):
        gibbs_residual(ThermoState.rest(-30.0, 30.0, 1.0, statistics="boson"))


def test_H_derivatives_refuse_integrals_below_the_normal_float_range():
    # dH/dgamma reads -3.552e-317 here, 1.0e-6 off 40-digit mpmath
    with pytest.raises(ConvergenceError, match="normal float range"):
        H_derivatives(JuttnerFamily("boson"), *natural(-0.0539, 287.9, 1.29), 3.23)


@pytest.mark.parametrize("stats,state", FALLBACK_STATES.items())
def test_H_derivatives_fall_back_to_quad_where_the_grid_does_not_settle(stats, state, monkeypatch):
    lam, gamma, m = state
    dist = JuttnerFamily(stats)
    calls = []

    def counted_quad(func, a, b, **options):
        calls.append((a, b))
        return quad(func, a, b, **options)

    quad = equilibrium.quad
    monkeypatch.setattr(equilibrium, "quad", counted_quad)
    H_derivatives(dist, lam, gamma, m)
    # each integral splits at r = 1, as the half-line one does
    upper = dist.window(lam, gamma * m)
    assert upper > 1.0
    assert calls == [(1.0, upper), (0.0, 1.0)] * 3


THERMO_KINETIC_GRID = [(stats, lam * j, gamma * j) for stats in STATISTICS
                       for lam in (0.2, 0.45, 1.0, 2.0) for gamma in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
                       for j in (0.97, 1.03)]


def test_H_derivatives_settle_on_the_grid_without_quad(monkeypatch):
    # every state of the thermo-kinetic benchmark grid (lambda and gamma at the
    # ends of its 3 % jitter) and each Gibbs stencil point around it settles
    # within 64 intervals, and never reaches quad or scipy
    def no_quad(*args, **kwargs):
        raise AssertionError("H_derivatives fell back to quad")

    monkeypatch.setattr(equilibrium, "quad", no_quad)
    monkeypatch.setattr(equilibrium, "TRAPEZOID_MAX_INTERVALS", 64)
    for stats, lam, gamma in THERMO_KINETIC_GRID:
        thermo_with_residuals(ThermoState.rest(lam, gamma, 1.0, statistics=stats))


def test_batched_H_derivatives_match_the_one_state_calls_bit_for_bit(monkeypatch):
    # every statistics' share of the benchmark grid as one batch
    for stats in STATISTICS:
        dist = JuttnerFamily(stats)
        points = [(lam, gamma) for s, lam, gamma in THERMO_KINETIC_GRID if s == stats]
        assert H_derivatives_many(dist, points, 1.0) == [
            H_derivatives(dist, lam, gamma, 1.0) for lam, gamma in points]
    # a fermion batch where one row settles in the first pass, one needs 256
    # intervals, the degenerate lambda = -30 row falls back to quad and one is cold
    dist = JuttnerFamily("fermion")
    points = [(0.5, 1.0), (-10.0, 3.0), (-30.0, 1.0), (2.0, 30.0)]
    calls = []

    def counted_quad(func, a, b, **options):
        calls.append((a, b))
        return quad(func, a, b, **options)

    quad = equilibrium.quad
    monkeypatch.setattr(equilibrium, "quad", counted_quad)
    batch = H_derivatives_many(dist, points, 1.0)
    assert calls == [(1.0, dist.window(-30.0, 1.0)), (0.0, 1.0)] * 3
    assert batch == [H_derivatives(dist, lam, gamma, 1.0) for lam, gamma in points]


def test_batched_trapezoid_radials_match_the_one_state_calls_bit_for_bit():
    # the kinetic weights of moments --M 2 --N 3, at a first-pass state, two that
    # refine to 256 and 512 intervals, one the strip test rejects, one with no
    # finite window and one whose grid never settles
    dist = JuttnerFamily("boson")
    weights = [(dist.f_eq, a, b) for a, b in moments.radial_weights(moments.moment_ranks(2, 3))]
    weights.append((dist.F, 0, 0))
    states = [(0.5, 1.0), (-0.97, 1.0), (-0.297, 0.3), (1e-7 - 1.0, 1.0), (float("nan"), 1.0),
              (-0.998, 1.0)]
    lams, gms = zip(*states)
    uppers = [dist.window(lam, gm) for lam, gm in states]
    batch = equilibrium.trapezoid_radials_many(dist, lams, gms, uppers, weights)
    assert batch == [equilibrium.trapezoid_radials(dist, lam, gm, upper, weights)
                     for lam, gm, upper in zip(lams, gms, uppers)]
    assert [row is None for row in batch] == [False, False, False, True, True, True]


def loop_radials(dist, lam, gm, upper, weights):
    """The trapezoid rule node by node, in libm and math.fsum: the reference for the array kernel."""
    if not math.isfinite(upper):
        return None
    widest = equilibrium.TRAPEZOID_STRIP_FRACTION * dist.strip(lam, gm)
    if upper / equilibrium.TRAPEZOID_MAX_INTERVALS > widest:
        return None
    nodes, n, ks, previous = [], 8, range(1, 8), None
    try:
        while True:
            for k in ks:
                x = upper * k / n
                c, s = math.cosh(x), math.sinh(x)
                nodes.append([fn(lam, gm * c) * s**2 * c**a * s**b for fn, a, b in weights])
            h = upper / n
            current = [h * math.fsum(column) for column in zip(*nodes)]
            if previous is not None and h <= widest and all(
                    abs(new - old) <= equilibrium.TRAPEZOID_RTOL * abs(new)
                    for new, old in zip(current, previous)):
                return current if all(map(math.isfinite, current)) else None
            if n >= equilibrium.TRAPEZOID_MAX_INTERVALS:
                return None
            previous, n, ks = current, 2 * n, range(1, 2 * n, 2)
    except OverflowError:
        return None


def test_array_kernel_matches_the_node_loop_within_1e_14():
    # numpy's exp and cosh and the pairwise sums differ from libm and fsum in
    # the last bits; over these states and weights they read at most 2.6e-15
    # apart, and every state settles or falls back alike
    states = [(stats, lam, gamma) for stats, lam, gamma in THERMO_KINETIC_GRID]
    states += [(stats, lam, gm) for stats in ("fermion", "boson") for lam, gm in
               ((-3.0, 4.0), (-10.0, 3.0), (-30.0, 1.0), (-7.0, 30.0), (-0.97, 1.0), (-0.297, 0.3))
               if stats == "fermion" or lam + gm >= 0]
    for stats, lam, gm in states:
        dist = JuttnerFamily(stats)
        weights = [(dist.F, 0, 0)]
        weights += [(dist.f_eq, a, b) for a, b in moments.radial_weights([5, 3, 2, 1])]
        upper = dist.window(lam, gm)
        want = loop_radials(dist, lam, gm, upper, weights)
        got = equilibrium.trapezoid_radials(dist, lam, gm, upper, weights)
        assert (got is None) == (want is None), (stats, lam, gm)
        if want is not None:
            assert max(rel(g, w) for g, w in zip(got, want)) <= 1e-14, (stats, lam, gm)


@pytest.mark.parametrize("stats", STATISTICS)
def test_occupancy_is_exactly_zero_past_the_window(stats):
    dist = JuttnerFamily(stats)
    for lam, gm in ((0.2, 0.1), (2.0, 30.0), (-3.0, 4.0), natural(0.2, 0.05, 2.0)):
        R = dist.window(lam, gm)
        assert 0.0 < R < math.inf
        for x in (R, math.nextafter(R, math.inf), R * (1 + 1e-9), R + 1.0, 2.0 * R):
            assert dist.f_eq(lam, gm * math.cosh(x)) == 0.0
            assert dist.F(lam, gm * math.cosh(x)) == 0.0
        # the window is tight: one percent inside it the occupancy is still nonzero
        inside = math.acosh(0.99 * math.cosh(R))
        assert dist.f_eq(lam, gm * math.cosh(inside)) > 0.0
    # the whole range underflows: an empty window (equilibrium --gamma 800)
    assert dist.window(1.0, 800.0) == 0.0
    assert dist.f_eq(1.0, 800.0) == 0.0
    # a ratio that is not finite never reads as an empty window
    assert dist.window(float("nan"), 1.0) == math.inf


@pytest.mark.parametrize("gm", [0.0, -1.0])
def test_window_needs_positive_gamma_m(gm):
    dist = JuttnerFamily()
    with pytest.raises(ValueError, match="gamma m must be positive"):
        dist.window(1.0, gm)
    with pytest.raises(ValueError, match="gamma m must be positive"):
        H_derivatives(dist, 1.0, 1.0, gm)
    # a NaN gamma m is not rejected: its window is the whole half-line
    assert dist.window(1.0, float("nan")) == math.inf


# the shared trapezoid grid of the kinetic radials, against 40-digit mpmath
# (mpmath.quad of the same windowed integral, split at the peak and at each
# unit of r; 30 digits agree with it to 1e-26): (stats, lam, gamma m) ->
# {(a, b): integral_0^R f_eq(lam, gm cosh r) cosh^a r sinh^(b+2) r dr}, m = 1
SETTLED_RADIALS = {
    # the worst settled state of a sweep of 210 states by 10 weights (2.3e-15)
    ("fermion", -7.0, 30.0): {(0, 0): 7.9240226392501722576e-13,
                              (1, 0): 8.3234199497557885895e-13,
                              (2, 0): 8.7563646342403970219e-13},
    # the steps widest against the strip (0.235 and 0.233 of it) among accepted grids
    ("boson", -0.297, 0.3): {(0, 2): 1088.9071720589239292, (4, 0): 226409.36682693700126,
                             (0, 4): 224204.41242461032617},
    ("boson", -0.97, 1.0): {(0, 4): 291.28954889135708666, (2, 2): 306.25591247423903701,
                            (1, 2): 60.94588467762540902},
    ("nondegenerate", 1.0, 30.0): {(0, 4): 5.0508438369360915048e-18,
                                   (0, 2): 2.7921963295795329706e-17,
                                   (2, 2): 3.2972807132731421211e-17},
}
# bosons at gamma m = 1 near condensation: the Bose pole sits about
# sqrt(2 (lam + gm)/gm) off the real axis, so successive grids agree while
# they are still 1e-11 to 1e-8 off; the strip test must send them to quad.
# A degenerate fermion's Fermi edge is too narrow for 512 intervals too.
HAZARD_STATES = [("boson", 6.1e-9 - 1.0, 1.0), ("boson", 1e-7 - 1.0, 1.0),
                 ("fermion", -30.0, 1.0)]
HAZARD_WEIGHTS = ((1, 2), (0, 2), (2, 2))


@pytest.mark.parametrize("state", SETTLED_RADIALS)
def test_kinetic_radials_settle_on_the_grid_within_1e_12_of_mpmath(state, monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("kinetic_radials fell back to quad")

    monkeypatch.setattr(moments, "quad", no_quad)
    stats, lam, gm = state
    want = SETTLED_RADIALS[state]
    got = moments.grid_radials(ThermoState.rest(lam, gm, 1.0, statistics=stats), list(want))
    assert got is not None
    for key, value in want.items():
        assert rel(got[key], value) <= 1e-12, key


@pytest.mark.parametrize("state", HAZARD_STATES)
def test_kinetic_radials_fall_back_to_quad_near_a_pole(state, monkeypatch):
    stats, lam, gm = state
    st = ThermoState.rest(lam, gm, 1.0, statistics=stats)
    dist = st.dist
    # the bosons' poles are too near for any grid up to the finest, so no node is sampled
    narrow = dist.window(lam, gm) / equilibrium.TRAPEZOID_MAX_INTERVALS > (
        equilibrium.TRAPEZOID_STRIP_FRACTION * dist.strip(lam, gm))
    assert narrow == (stats == "boson")
    assert moments.grid_radials(st, HAZARD_WEIGHTS) is None
    calls = []

    def counted_quad(func, a, b, **options):
        calls.append((a, b))
        return quad(func, a, b, **options)

    quad = moments.quad
    monkeypatch.setattr(moments, "quad", counted_quad)
    radials = moments.kinetic_radials(st, [4])
    assert set(radials) == {(4, 0), (2, 2), (0, 4)}
    upper = dist.window(lam, gm)
    assert upper > 1.0
    assert calls == [(1.0, upper), (0.0, 1.0)] * 3


# a boson at lambda = -1 + 1e-7, gamma = m = 1, against 40-digit mpmath
# (mpmath.quad of the windowed integrals, split at 1e-4, 1e-3, 0.01, 0.1 and
# each unit of r): {(fn, a, b): integral_0^R fn(lam, cosh r) cosh^a r sinh^(b+2) r dr}
NEAR_CONDENSATION_RADIALS = {("F", 0, 0): -2.117722121020841015829685,
                             ("f_eq", 0, 0): 3.801952530761901551500925,
                             ("f_eq", 1, 0): 7.353874892660795887384123,
                             ("f_eq", 0, 2): 15.57584137592048432554378}


def test_quad_fallbacks_resolve_the_peak_of_a_boson_near_condensation():
    # one quad call over [0, R] reads the weight (0, 2) 1.4e-11 off; split, 1.5e-17
    state = ThermoState.rest(1e-7 - 1.0, 1.0, 1.0, statistics="boson")
    assert moments.grid_radials(state, [(0, 2)]) is None
    want = {(a, b): v for (fn, a, b), v in NEAR_CONDENSATION_RADIALS.items() if fn == "f_eq"}
    got = moments.quad_radials(state, list(want))
    for key, value in want.items():
        assert rel(got[key], value) <= 1e-13, key
    i_val, i_lam, i_gam = (NEAR_CONDENSATION_RADIALS[key] for key in
                           (("F", 0, 0), ("f_eq", 0, 0), ("f_eq", 1, 0)))
    four_pi = 4.0 * math.pi
    want_H = (-four_pi * i_val, -four_pi * i_lam, four_pi * (i_val - i_gam))
    for got_H, value in zip(H_derivatives(state.dist, state.lam, 1.0, 1.0), want_H):
        assert rel(got_H, value) <= 1e-13


@pytest.mark.parametrize("fraction,lam,gamma,weight,want,off", [
    # the strip test off, at the first hazard state
    (math.inf, 6.1e-9 - 1.0, 1.0, (1, 2), 63.075048022560306174, 1e-11),
    # steps up to 4 strip widths, at a boson the sweep found (lambda -0.999,
    # gamma 1 at k_B = 2)
    (4.0, *natural(-0.999, 1.0, 2.0), (0, 4), 12612.829612010151385, 1e-11),
], ids=["strip_off", "strip_4x"])
def test_strip_test_is_what_rejects_the_near_condensed_grids(fraction, lam, gamma, weight, want,
                                                             off, monkeypatch):
    state = ThermoState.rest(lam, gamma, 1.0, statistics="boson")
    assert moments.grid_radials(state, [weight]) is None
    # with a looser strip test two successive grids agree, wrongly
    monkeypatch.setattr(equilibrium, "TRAPEZOID_STRIP_FRACTION", fraction)
    got = moments.grid_radials(state, [weight])
    assert got is not None and rel(got[weight], want) > off


def test_kinetic_radials_make_no_quad_call_at_an_ordinary_state(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("kinetic_radials fell back to quad")

    monkeypatch.setattr(moments, "quad", no_quad)
    for stats in STATISTICS:
        state = ThermoState(0.8, BOOSTED, 1.0, statistics=stats)
        radials = moments.kinetic_radials(state, [5, 3, 2, 1])
        assert len(radials) == len(moments.radial_weights([5, 3, 2, 1])) == 8


def test_trapezoid_radials_take_only_the_familys_F_and_f_eq():
    dist = JuttnerFamily("fermion")
    upper = dist.window(0.5, 1.0)
    for fn in (lambda x, y: 0.0, JuttnerFamily("fermion").f_eq):
        with pytest.raises(ValueError, match="F or f_eq"):
            equilibrium.trapezoid_radials(dist, 0.5, 1.0, upper, [(fn, 0, 0)])
    # F alone, f_eq alone and both run on the one node loop
    both = equilibrium.trapezoid_radials(dist, 0.5, 1.0, upper, [(dist.F, 0, 0), (dist.f_eq, 2, 2)])
    alone = [equilibrium.trapezoid_radials(dist, 0.5, 1.0, upper, [weight])[0]
             for weight in ((dist.F, 0, 0), (dist.f_eq, 2, 2))]
    assert both == alone


@pytest.mark.parametrize("stats", STATISTICS)
def test_strip_is_the_distance_to_the_nearest_singularity(stats):
    import cmath

    dist = JuttnerFamily(stats)
    for lam, gm in (natural(lam, gm, 1.7) for lam, gm in
                    ((-20.0, 1.0), (-0.5, 0.6), (0.0, 2.0), (0.4, 0.1), (3.0, 30.0))):
        if stats == "nondegenerate":
            assert dist.strip(lam, gm) == math.inf
            continue
        # lam + gm cosh r = 2 pi i j (bosons) or i pi (2j + 1) (fermions)
        step = 2 * math.pi
        shift = 0.0 if stats == "boson" else step / 2
        brute = min(abs(cmath.acosh(complex(-lam, shift + j * step) / gm).imag)
                    for j in range(-5000, 5000))
        assert dist.strip(lam, gm) == pytest.approx(min(brute, math.pi / 2), rel=1e-6)


# the most units in the last place that the array F_and_f_eq was seen to differ
# from the scalar (libm) F and f_eq over the 2000 draws below: 1 and 1
# (nondegenerate), 1 and 2 (fermion), 2 and 3 (boson), where numpy's exp runs on
# AVX-512; the bound leaves one more
F_AND_F_EQ_ULPS = 4


@pytest.mark.parametrize("stats", STATISTICS)
def test_F_and_f_eq_is_one_exponential_within_ulps_of_F_and_f_eq(stats, monkeypatch):
    import random

    exps = []

    def counted_exp(z):
        exps.append(z)
        return np_exp(z)

    np_exp = np.exp
    monkeypatch.setattr(np, "exp", counted_exp)
    dist = JuttnerFamily(stats)  # binds the counted exp
    rng = random.Random(4)
    draws = []
    for _ in range(2000):
        k_B = rng.uniform(0.1, 10.0)
        draws.append(natural(rng.uniform(-5.0, 50.0), rng.uniform(5.0, 800.0), k_B))
    xs, ys = zip(*draws)
    got_F, got_f = dist.F_and_f_eq(np.array(xs), np.array(ys))
    assert len(exps) == 1
    for got, fn in ((got_F, dist.F), (got_f, dist.f_eq)):
        want = np.array([fn(x, y) for x, y in zip(xs, ys)])
        assert np.all(np.abs(got - want) <= F_AND_F_EQ_ULPS * np.spacing(np.abs(want)))
    if stats == "boson":
        with pytest.raises(ValueError, match="X \\+ Y > 0"):
            dist.F_and_f_eq(np.array([-2.0, 1.0]), np.array([1.0, 1.0]))


# (lambda, gamma, m) from lambda + gamma m = 0.5, where the series starts, to 30
SERIES_QUAD_STATES = [(-0.5, 1.0, 1.0), (0.4, 0.1, 1.0), (0.2, 0.4, 2.0), (1.0, 1.3, 1.0),
                      (-2.0, 5.0, 1.0), (2.0, 8.0, 1.0), (0.0, 30.0, 1.0), (20.0, 10.0, 1.0)]


@pytest.mark.parametrize("stats", STATISTICS)
@pytest.mark.parametrize("lam,gamma,m", SERIES_QUAD_STATES)
def test_bessel_series_matches_quad(stats, lam, gamma, m):
    # H, dH/dlambda and dH/dgamma against the half-line quad, every radial up to rank 7 against
    # quad over the window
    dist = JuttnerFamily(stats)
    weights = radial_weights(range(8))
    triple, radials = bessel_series(stats, lam, gamma, m, weights)
    h_val = H_from_distribution(dist.F, lam, gamma, m)
    want = (h_val, H_from_distribution(dist.f_eq, lam, gamma, m),
            -h_val / gamma + H_from_distribution(lambda x, y: dist.f_eq(x, y) * y / gamma,
                                                 lam, gamma, m))
    assert max(rel(g, w) for g, w in zip(triple, want)) <= 1e-12
    quad = quad_radials(ThermoState.rest(lam, gamma, m, statistics=stats), weights)
    assert max(rel(got, quad[w]) for w, got in zip(weights, radials)) <= 1e-12


def test_nondegenerate_bessel_series_is_the_closed_form():
    # one term: the rounding of the two routes, 2 ulp each, beyond the disagreement of
    # their K_1 (the series' own rows against scipy's k1e, 3 ulp apart at z = 1.9)
    for z in (0.1, 0.3, 1.0, 1.9, 3.0, 10.0, 30.0):
        series_k1 = equilibrium._scaled_bessel_k(1, np.array([z]))[1, 0]
        k1_apart = abs(series_k1 / scipy.special.k1e(z) - 1.0)
        for lam in (-0.05, 0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
            if lam + z >= 0.5:
                (h_val, _, _), _ = bessel_series("nondegenerate", lam, z, 1.0)
                closed = mj_closed_form_H(lam, z, 1.0)
                assert abs(h_val - closed) <= 4 * math.ulp(closed) + k1_apart * closed, (lam, z)


# e^w K_nu(w) from the series' own trapezoid rows, against 40-digit mpmath: from w = 1e-3
# to 4e4, single terms and whole series arrays, and above w = 1e4, where the form
# cosh t - 1 reads up to 9.3e-13 off; measured worst 9.0e-16 over nu 0..12 (scipy's kve:
# 2.2e-15)
K_ROWS_RTOL = 4e-15
K_ORDERS = 12
K_SINGLE_W = [1e-3, 3e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 1.9, 3.0, 7.0, 10.0, 30.0, 100.0,
              300.0, 1e3, 3e3, 1e4, 2e4, 3.8e4, 4e4]


def _mpmath_scaled_k(w: float, orders: int, direct: bool = True):
    """e^w K_nu(w), nu = 0..orders, at 40 digits: every order from mpmath.besselk, or (not
    ``direct``) K_0 and K_1 from it and the rest by the upward recurrence at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        x = mpmath.mpf(w)
        if direct:
            return [mpmath.besselk(nu, x) * mpmath.exp(x) for nu in range(orders + 1)]
        rows = [mpmath.besselk(0, x) * mpmath.exp(x), mpmath.besselk(1, x) * mpmath.exp(x)]
        for nu in range(1, orders):
            rows.append(rows[nu - 1] + 2 * nu / x * rows[nu])
        return rows


def _worst_rel(rows, w, want_at):
    worst = 0.0
    for i, wi in enumerate(w):
        for nu, want in enumerate(want_at(float(wi))):
            worst = max(worst, abs(float((rows[nu, i] - want) / want)))
    return worst


@pytest.mark.parametrize("w", K_SINGLE_W)
def test_bessel_k_rows_match_mpmath_at_one_term(w):
    rows = equilibrium._scaled_bessel_k(K_ORDERS, np.array([w]))
    assert rows.shape == (K_ORDERS + 1, 1)
    assert _worst_rel(rows, [w], lambda x: _mpmath_scaled_k(x, K_ORDERS)) <= K_ROWS_RTOL


@pytest.mark.parametrize("lam,z", [(0.4, 0.1), (-1.0, 3.0), (-300.0, 500.0)])
def test_bessel_k_rows_match_mpmath_over_a_series_array(lam, z):
    # w = j z over every term the series takes at this state: 79 at lambda + z = 0.5
    terms = math.ceil(equilibrium._SERIES_EXPONENT / (lam + z))
    w = z * np.arange(1.0, terms + 1.0)
    rows = equilibrium._scaled_bessel_k(K_ORDERS, w)
    assert rows.shape == (K_ORDERS + 1, terms)
    assert _worst_rel(rows, w, lambda x: _mpmath_scaled_k(x, K_ORDERS, direct=False)) <= K_ROWS_RTOL
    # each term reads the bits it reads alone
    for i in (0, terms // 2, terms - 1):
        assert np.array_equal(rows[:, i], equilibrium._scaled_bessel_k(K_ORDERS, w[i:i + 1])[:, 0])


def test_bessel_k_rows_match_scipy_kve():
    w = np.array(K_SINGLE_W + list(0.1 * np.arange(1.0, 80.0)))
    rows = equilibrium._scaled_bessel_k(K_ORDERS, w)
    for nu in range(K_ORDERS + 1):
        assert np.max(np.abs(rows[nu] / scipy.special.kve(nu, w) - 1.0)) <= K_ROWS_RTOL, nu


def test_bessel_k_rows_reach_small_w_with_more_nodes():
    # below w = 1e-3 the reach passes 12 and the grid takes more than 48 nodes, each step 0.25
    w = np.array([1e-8, 1e-5])
    rows = equilibrium._scaled_bessel_k(4, w)
    assert _worst_rel(rows, w, lambda x: _mpmath_scaled_k(x, 4)) <= K_ROWS_RTOL


@pytest.mark.parametrize("stats", STATISTICS)
def test_bessel_series_needs_lambda_plus_gamma_m_of_one_half(stats):
    bessel_series(stats, 0.0, 0.5, 1.0)
    for lam, gamma, m in ((0.0, 0.499, 1.0), (-1.0, 0.7, 2.0), (math.nan, 1.0, 1.0)):
        with pytest.raises(ValueError, match="lambda \\+ gamma m >= 0.5"):
            bessel_series(stats, lam, gamma, m)
    for gamma, m in ((0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)):
        with pytest.raises(ValueError, match="gamma m > 0"):
            bessel_series(stats, 2.0, gamma, m)
    with pytest.raises(ValueError, match="unknown statistics"):
        bessel_series("photon", 1.0, 1.0, 1.0)
