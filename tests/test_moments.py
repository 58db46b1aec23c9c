from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from etclosure import moments as moments_module
from etclosure.closure import ClosureSpec, ClosureTensorSet, RankCapError, build_closure_tensor
from etclosure.equilibrium import (
    ThermoState,
    equilibrium_hprime,
    equilibrium_multipliers,
    thermo_functions,
)
from etclosure.moments import (
    MultiplierState,
    delta_hprime,
    equilibrium_moments_with_traces,
    kinetic_moment,
    make_deviation,
    series_at,
    symmetry_residual,
)
from etclosure.oracle import random_float_timelike, random_rational_timelike, random_sym_tensor
from etclosure.tensors import DenseSymTensor, FourVector, arrangements, canonical_indices
from etclosure.verify import VerifyConfig, mutate_tensor_set


def poly_registry():
    from etclosure.scalar import FunctionRegistry, PolynomialFunction

    return FunctionRegistry(
        {q: PolynomialFunction([Fraction(1), Fraction(q + 1), Fraction(1, q + 2)]) for q in range(8)}
    )


def n1_state(spec: ClosureSpec, lam_dev: DenseSymTensor, lam=0.5, mu=None) -> MultiplierState:
    base = ThermoState(lam, mu or FourVector([1.2, 0.3, -0.1, 0.2]), 1.0)
    return MultiplierState(base, lam_dev, DenseSymTensor.zeros(1), spec)


def test_make_deviation_annihilates_equilibrium_shape(rng):
    lam = Fraction(7, 5)
    mu = random_rational_timelike(rng)
    lam_t, mu_t = equilibrium_multipliers(lam, mu, 2, 3, 1)
    assert make_deviation(lam_t, 2).max_abs() == 0
    assert make_deviation(mu_t, 3).max_abs() == 0


def test_make_deviation_kills_projection_exactly(rng):
    from etclosure.equilibrium import project_equilibrium

    for M_or_N, other_rank in ((2, 3), (4, 1), (3, 2)):
        raw = random_sym_tensor(M_or_N, rng)
        dev = make_deviation(raw, M_or_N)
        if M_or_N % 2 == 0:
            lam_back, _ = project_equilibrium(dev, DenseSymTensor.zeros(1), 1)
            assert lam_back == 0
        else:
            _, mu_back = project_equilibrium(DenseSymTensor.scalar(0), dev, 1)
            assert all(c == 0 for c in mu_back.components)
        # idempotence
        assert make_deviation(dev, M_or_N) == dev


def test_rank1_deviation_vanishes_identically(rng):
    # the vector projection is the identity, so nothing survives subtraction
    raw = random_sym_tensor(1, rng)
    assert make_deviation(raw, 1).max_abs() == 0


def test_multiplier_state_validation(rng):
    spec = ClosureSpec(2, 1, h_max=1, k_max=0, registry=poly_registry())
    base = ThermoState(0.5, FourVector([1.2, 0, 0, 0]), 1.0)
    with pytest.raises(ValueError):
        MultiplierState(base, DenseSymTensor.zeros(3), DenseSymTensor.zeros(1), spec)
    with pytest.raises(ValueError):
        MultiplierState(base, DenseSymTensor.zeros(2), DenseSymTensor.zeros(3), spec)


def test_delta_hprime_zero_at_equilibrium():
    spec = ClosureSpec(2, 1, h_max=2, k_max=0, registry=poly_registry())
    st = n1_state(spec, DenseSymTensor.zeros(2))
    assert all(c == 0 for c in delta_hprime(st).components)


def test_delta_hprime_linear_order_is_explicit_contraction(rng):
    from etclosure.family import realize

    reg = poly_registry()
    spec = ClosureSpec(2, 1, h_max=1, k_max=0, registry=reg)
    tensors = ClosureTensorSet.build(spec)
    lam_dev = make_deviation(random_sym_tensor(2, rng, rational=False), 2)
    st = n1_state(spec, lam_dev)
    got = delta_hprime(st, tensors)
    c10 = realize(tensors.get(1, 0), st.base.lam, st.base.mu, st.base.m, reg)
    for a in range(4):
        want = sum(
            arrangements(idx) * c10.get((a,) + idx) * lam_dev.get(idx)
            for idx in canonical_indices(2)
        )
        assert got.components[a] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_delta_hprime_exact_against_component_contraction(rng):
    from etclosure.family import realize

    reg = poly_registry()
    spec = ClosureSpec(2, 3, h_max=1, k_max=1, registry=reg)
    mu = random_rational_timelike(rng)
    base = ThermoState(Fraction(1, 2), mu, 1)
    lam_dev = make_deviation(random_sym_tensor(2, rng), 2)
    mu_dev = make_deviation(random_sym_tensor(3, rng), 3)
    got = delta_hprime(MultiplierState(base, lam_dev, mu_dev, spec))
    # C^{a i1..} lam_{i1 i2} mu_{i3 i4 i5} / (h! k!) summed over every index tuple
    want = [Fraction(0)] * 4
    for h, k in ((1, 0), (0, 1), (1, 1)):
        c = realize(build_closure_tensor(spec, h, k), base.lam, mu, 1, reg)
        devs = [lam_dev] * h + [mu_dev] * k
        for a in range(4):
            for tail in itertools.product(range(4), repeat=c.rank - 1):
                term = c.get((a,) + tail)
                start = 0
                for dev in devs:
                    term *= dev.get(tail[start:start + dev.rank])
                    start += dev.rank
                want[a] += term / (math.factorial(h) * math.factorial(k))
    assert any(want)
    assert list(got.components) == want


def test_delta_hprime_scales_by_order(rng):
    spec = ClosureSpec(2, 1, h_max=2, k_max=0, registry=poly_registry())
    lam_dev = make_deviation(random_sym_tensor(2, rng, rational=False), 2)
    states = {
        t: n1_state(spec, lam_dev.scale(t))
        for t in (1.0, 2.0, 3.0)
    }
    deltas = {t: delta_hprime(st) for t, st in states.items()}
    for a in range(4):
        d1, d2, d3 = (deltas[t].components[a] for t in (1.0, 2.0, 3.0))
        # solve d(t) = c1 t + c2 t^2 from t=1,2 and predict t=3
        c2 = (d2 - 2 * d1) / 2
        c1 = d1 - c2
        assert d3 == pytest.approx(3 * c1 + 9 * c2, rel=1e-9, abs=1e-18)


def test_symmetry_residual_at_equilibrium_is_noise_floor():
    spec = ClosureSpec(2, 1, h_max=2, k_max=0, registry=poly_registry())
    st = n1_state(spec, DenseSymTensor.zeros(2))
    assert symmetry_residual(st, step=1e-6) <= 1e-10


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("block, idx, bad",
                         [("lam", (1, 2), math.nan), ("mu", (1, 2, 3), math.inf)])
def test_symmetry_residual_is_nan_for_a_non_finite_deviation(block, idx, bad):
    # a NaN derivative must fail ``residual <= tol`` instead of reading as 0
    spec = ClosureSpec(2, 3, registry=poly_registry())
    devs = {"lam": DenseSymTensor.zeros(2), "mu": DenseSymTensor.zeros(3)}
    devs[block] = devs[block].with_entry(idx, bad)
    base = ThermoState(0.8, FourVector([2.0, 0.3, 0.1, -0.2]), 1.0)
    residual = symmetry_residual(MultiplierState(base, devs["lam"], devs["mu"], spec), step=1e-6)
    assert math.isnan(residual)


def _recording_delta_hprime(monkeypatch):
    seen = []

    def recording(state, tensors=None):
        seen.append(state)
        return delta_hprime(state, tensors)

    monkeypatch.setattr(moments_module, "delta_hprime", recording)
    return seen


def _points_nonzero(dev: DenseSymTensor, width: int):
    """Whether the batched deviation is nonzero at each of its `width` points."""
    rows = np.array([np.broadcast_to(v, (width,)) for _, v in dev.items()])
    return [bool(col.any()) for col in rows.T]


def _exact_zero(dev: DenseSymTensor) -> bool:
    return all(not isinstance(v, np.ndarray) and v == 0 for _, v in dev.items())


def test_symmetry_residual_keeps_the_other_block_exact(monkeypatch):
    # at a boosted equilibrium only the perturbed block may carry a deviation,
    # at every point of its stencil
    spec = ClosureSpec(2, 3, h_max=1, k_max=1, registry=poly_registry())
    st = MultiplierState.at_equilibrium(
        ThermoState(0.8, FourVector([1.3, 0.35, -0.2, 0.25]), 1.0), spec
    )
    seen = _recording_delta_hprime(monkeypatch)
    symmetry_residual(st, step=1e-6)
    # one batched call per block, lambda first: 2 points for each of the 10
    # lambda and 20 mu components
    assert len(seen) == 2
    lam_call, mu_call = seen
    assert _exact_zero(lam_call.mu_dev)
    assert _points_nonzero(lam_call.lam_dev, 20) == [True] * 20
    assert _exact_zero(mu_call.lam_dev)
    assert _points_nonzero(mu_call.mu_dev, 40) == [True] * 40


@pytest.mark.parametrize("M, N", [(2, 1), (2, 3), (0, 3), (4, 3)])
def test_symmetry_residual_batches_each_block_in_float64(monkeypatch, M, N):
    spec = ClosureSpec(M, N, h_max=1, k_max=1, registry=poly_registry())
    rng = random.Random(5)
    base = ThermoState(0.7, random_float_timelike(rng), 1.0)
    lam_dev = make_deviation(random_sym_tensor(M, rng, rational=False), M).scale(1e-6)
    mu_dev = make_deviation(random_sym_tensor(N, rng, rational=False), N).scale(1e-6)
    seen = _recording_delta_hprime(monkeypatch)
    symmetry_residual(MultiplierState(base, lam_dev, mu_dev, spec), step=1e-6)
    assert len(seen) == (1 if M == 0 else 2)
    for state in seen:
        values = [state.base.lam, *state.base.mu.components]
        values += [v for _, v in state.lam_dev.items()] + [v for _, v in state.mu_dev.items()]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        assert arrays
        assert all(v.dtype == np.float64 for v in arrays)


def _per_point_residual(state: MultiplierState, step: float, tensors) -> float:
    """symmetry_residual as one series_at call per stencil point (the reference)."""
    spec = state.spec
    eq_lam, eq_mu = equilibrium_multipliers(
        state.base.lam, state.base.mu, spec.M, spec.N, spec.m
    )
    worst = 0.0
    for block, eq, dev in (("lam", eq_lam, state.lam_dev), ("mu", eq_mu, state.mu_dev)):
        tensor = (eq + dev).map_values(float)
        if tensor.rank == 0:
            continue
        derivs = {}
        for bidx in canonical_indices(tensor.rank):
            center = tensor.get(bidx)
            h = step * max(1.0, abs(center))
            gp = series_at(state, block, tensor.with_entry(bidx, center + h), tensors)
            gm = series_at(state, block, tensor.with_entry(bidx, center - h), tensors)
            mult = arrangements(bidx)
            derivs[bidx] = [
                (float(gp[a]) - float(gm[a])) / (2.0 * h * mult) for a in range(4)
            ]
        scale = max(abs(v) for row in derivs.values() for v in row)
        grouped = {}
        for bidx, row in derivs.items():
            for a in range(4):
                grouped.setdefault(tuple(sorted((a,) + bidx)), []).append(row[a])
        spread = max(max(vals) - min(vals) for vals in grouped.values())
        worst = max(worst, spread / max(scale, 1e-300))
    return worst


@pytest.mark.parametrize("M, N", [(2, 1), (2, 3), (4, 3), (0, 3), (2, 5)])
def test_batched_symmetry_residual_is_bit_identical_to_per_point(M, N):
    spec = VerifyConfig(M=M, N=N).spec
    tensors = ClosureTensorSet.build(spec)
    # seed 11's states hold the symmetry tolerance, and the mutation below runs at
    # its last; seeds 0-4 pin the bits alone, since some intact states exceed it
    # (see SYMMETRY_GAMMA in perfbench/workloads.py)
    for seed in (0, 1, 2, 3, 4, 11):
        rng = random.Random(seed)
        base = ThermoState(rng.uniform(0.2, 1.0), random_float_timelike(rng), 1.0)
        lam_dev = make_deviation(random_sym_tensor(M, rng, rational=False), M).scale(1e-6)
        mu_dev = make_deviation(random_sym_tensor(N, rng, rational=False), N).scale(1e-6)
        for st in (
            MultiplierState.at_equilibrium(base, spec),
            MultiplierState(base, lam_dev, mu_dev, spec),
        ):
            batched = symmetry_residual(st, step=1e-6, tensors=tensors)
            assert batched.hex() == _per_point_residual(st, 1e-6, tensors).hex(), seed
            assert batched <= 1e-6 or seed != 11
    if M:
        bad = mutate_tensor_set(tensors, random.Random(3), count=1, orders=[(1, 0)])
        assert symmetry_residual(st, step=1e-6, tensors=bad) > 1e-6


def test_library_refuses_orders_past_the_rank_cap():
    # the top order (9, 9) has rank 46; no call may quietly sum fewer orders
    spec = ClosureSpec(2, 3, h_max=9, k_max=9, registry=poly_registry())
    base = ThermoState(0.8, FourVector([1.2, 0.3, 0, -0.1]), 1.0)
    st = MultiplierState.at_equilibrium(base, spec)
    calls = (
        lambda: delta_hprime(st),
        lambda: symmetry_residual(st),
        lambda: equilibrium_moments_with_traces(base, spec),
        lambda: ClosureTensorSet.build(spec),
    )
    for call in calls:
        with pytest.raises(RankCapError):
            call()


def test_symmetry_residual_small_on_intact_series(rng):
    spec = ClosureSpec(2, 1, h_max=2, k_max=0, registry=poly_registry())
    tensors = ClosureTensorSet.build(spec)
    for _ in range(3):
        lam_dev = make_deviation(random_sym_tensor(2, rng, rational=False), 2).scale(1e-6)
        st = n1_state(spec, lam_dev)
        assert symmetry_residual(st, step=1e-6, tensors=tensors) <= 1e-6


def test_symmetry_residual_detects_corrupted_coefficient(rng):
    spec = ClosureSpec(2, 1, h_max=2, k_max=0, registry=poly_registry())
    tensors = ClosureTensorSet.build(spec)
    bad = mutate_tensor_set(tensors, random.Random(3), count=1, orders=[(1, 0)])
    lam_dev = make_deviation(random_sym_tensor(2, rng, rational=False), 2).scale(1e-6)
    st = n1_state(spec, lam_dev)
    assert symmetry_residual(st, step=1e-6, tensors=bad) > 1e-3
    # the original set is untouched by the mutation
    assert tensors.get(1, 0) == ClosureTensorSet.build(spec).get(1, 0)


def test_kinetic_moment_rest_frame_isotropy():
    st = ThermoState(0.8, FourVector([1.2, 0, 0, 0]), 1.0)
    A = kinetic_moment(st, 1)
    B = kinetic_moment(st, 2)
    assert A.get((0,)) > 0
    assert all(A.get((i,)) == 0 for i in range(1, 4))
    p_vals = [B.get((i, i)) for i in range(1, 4)]
    assert p_vals[0] == pytest.approx(p_vals[1], rel=1e-12)
    assert p_vals[1] == pytest.approx(p_vals[2], rel=1e-12)
    assert all(B.get((i, j)) == 0 for i in range(4) for j in range(4) if i != j)
    assert B.get((0, 0)) > 3 * p_vals[0] > 0


def test_kinetic_moment_boosted_first_moment_parallel_to_u():
    gamma = 1.2
    rest = ThermoState(0.8, FourVector([gamma, 0, 0, 0]), 1.0)
    boosted = ThermoState(0.8, FourVector([1.3, 0.35, -0.2, 0.25]), 1.0)
    # same gamma in both frames keeps the scalar density invariant
    assert boosted.gamma != pytest.approx(gamma)
    A = kinetic_moment(boosted, 1)
    u = [c / boosted.gamma for c in boosted.mu.components]
    n_val = A.get((0,)) / u[0]
    for i in range(4):
        assert A.get((i,)) == pytest.approx(n_val * u[i], rel=1e-10, abs=1e-13)


def test_equilibrium_moments_trace_chain():
    for M, N in ((0, 1), (2, 1)):
        spec = ClosureSpec(M, N, h_max=1, k_max=0, registry=poly_registry())
        st = ThermoState(0.8, FourVector([1.2, 0.3, 0, -0.1]), 1.0)
        A, B, report = equilibrium_moments_with_traces(st, spec)
        assert A.rank == M + 1
        assert B.rank == N + 1
        for value in report["traces"].values():
            assert abs(value) <= 1e-8
        assert report["kinetic"]["n"] > 0


def test_equilibrium_moments_rest_frame_shapes():
    spec = ClosureSpec(0, 1, h_max=1, k_max=0, registry=poly_registry())
    st = ThermoState(0.8, FourVector([1.2, 0, 0, 0]), 1.0)
    A, B, report = equilibrium_moments_with_traces(st, spec)
    n = report["kinetic"]["n"]
    e = report["kinetic"]["e"]
    p = report["kinetic"]["p"]
    # A = n u, B = diag(e, p, p, p) in the rest frame
    assert A.get((0,)) == pytest.approx(n, rel=1e-12)
    assert all(A.get((i,)) == 0 for i in range(1, 4))
    assert B.get((0, 0)) == pytest.approx(e, rel=1e-12)
    for i in range(1, 4):
        assert B.get((i, i)) == pytest.approx(p, rel=1e-12)


def test_ultrarelativistic_trace_trend():
    # e - 3p shrinks like (gamma m)^2 towards the massless limit
    spec = ClosureSpec(0, 1, h_max=1, k_max=0, registry=poly_registry())
    rel = {}
    for z in (0.1, 0.01):
        st = ThermoState(0.8, FourVector([z, 0, 0, 0]), 1.0)
        _, _, report = equilibrium_moments_with_traces(st, spec)
        k = report["kinetic"]
        rel[z] = (k["e"] - 3 * k["p"]) / k["e"]
        assert rel[z] > 0
    assert rel[0.01] < rel[0.1] / 50
    assert rel[0.01] < 1e-4


def test_hprime_block_matches_equilibrium_flux():
    st = ThermoState(0.8, FourVector([1.2, 0.2, 0, 0]), 1.0)
    hprime, _, _ = equilibrium_hprime(st)
    H = thermo_functions(st).H
    for i in range(4):
        assert hprime.components[i] == pytest.approx(H * st.mu.components[i], rel=1e-12)
