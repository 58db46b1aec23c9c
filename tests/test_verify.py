from __future__ import annotations

import random
from fractions import Fraction

import pytest

from etclosure import equilibrium, family, moments, oracle, verify
from etclosure.closure import ClosureSpec, ClosureTensorSet
from etclosure.equilibrium import (
    H_derivatives,
    H_from_distribution,
    JuttnerFamily,
    ThermoState,
)
from etclosure.family import FFamilyElement
from etclosure.moments import (
    equilibrium_moments_with_traces,
    grid_radials,
    kinetic_radials,
    moment_ranks,
    quad_radials,
    radial_weights,
)
from etclosure.oracle import random_float_timelike
from etclosure.scalar import FunctionRegistry
from etclosure.verify import SUITES, SuiteResult, VerifyConfig, mutate_tensor_set, run_suites


def test_suite_registry_names():
    assert set(SUITES) == {
        "characteristic",
        "cross_route",
        "compatibility",
        "oracle",
        "roundtrip",
        "derivative",
        "symmetry",
        "equilibrium",
        "kinetic",
    }


def test_default_config():
    cfg = VerifyConfig()
    assert (cfg.M, cfg.N, cfg.h_max, cfg.k_max) == (2, 1, 2, 2)
    assert cfg.mutate == 0


def test_run_all_suites_clean():
    results = run_suites()
    assert len(results) == len(SUITES)
    for res in results:
        assert isinstance(res, SuiteResult)
        assert res.failures == 0, (res.name, res.failed_cases)
        assert res.cases > 0


def test_run_selected_suite():
    results = run_suites(["equilibrium"])
    assert [r.name for r in results] == ["equilibrium"]
    with pytest.raises(KeyError):
        run_suites(["no_such_suite"])


def test_exact_suites_report_zero_residual():
    for name in ("characteristic", "compatibility", "roundtrip"):
        (res,) = run_suites([name])
        assert res.max_residual == 0


def test_suites_cover_vector_valued_block():
    # second-order truncation, with both first-order tensors inside it, so the
    # symmetry suite checks the lambda and the mu block
    cfg = VerifyConfig(M=2, N=3, h_max=2, k_max=2)
    results = run_suites(None, cfg)
    assert all(r.failures == 0 for r in results), [
        (r.name, r.failed_cases) for r in results if r.failures
    ]


def test_mutation_is_detected():
    cfg = VerifyConfig(M=2, N=3, h_max=1, k_max=1, mutate=1)
    results = run_suites(["characteristic"], cfg)
    assert results[0].failures > 0


def test_mutation_detected_by_symmetry_suite():
    cfg = VerifyConfig(M=2, N=1, h_max=2, k_max=0, mutate=1)
    (res,) = run_suites(["symmetry"], cfg)
    assert res.failures > 0
    assert res.max_residual > 1e-3


def test_mutate_tensor_set_copies():
    spec = ClosureSpec(2, 1, h_max=2, k_max=0)
    tensors = ClosureTensorSet.build(spec)
    before = tensors.get(1, 0)
    mutated = mutate_tensor_set(tensors, random.Random(0), count=1)
    assert tensors.get(1, 0) == before
    changed = sum(
        1 for key in ((1, 0), (2, 0)) if mutated.get(*key) != tensors.get(*key)
    )
    assert changed == 1


def test_mutate_tensor_set_respects_order_filter():
    spec = ClosureSpec(2, 1, h_max=2, k_max=0)
    tensors = ClosureTensorSet.build(spec)
    mutated = mutate_tensor_set(tensors, random.Random(1), count=1, orders=[(1, 0)])
    assert mutated.get(1, 0) != tensors.get(1, 0)
    assert mutated.get(2, 0) == tensors.get(2, 0)
    with pytest.raises(ValueError):
        mutate_tensor_set(tensors, random.Random(1), orders=[(0, 0)])


def test_seed_reproducibility():
    # a mutated symmetry run fails, and its failed cases carry the drawn lambda and mu
    def run(seed):
        return run_suites(["symmetry"], VerifyConfig(M=2, N=3, seed=seed, mutate=1))[0].to_json_obj()

    first, again, other = run(7), run(7), run(8)
    assert first["failures"] > 0 and other["failures"] > 0
    assert first == again
    assert first["failed_cases"] != other["failed_cases"]


EXACT_SPECS = [(2, 1), (2, 3), (2, 5), (4, 3)]


@pytest.mark.parametrize("M, N", EXACT_SPECS)
@pytest.mark.parametrize("name, seeds", [("symmetry", (0, 1, 6)), ("derivative", (0,))])
def test_exact_suites_read_zero_with_tolerance_zero(name, seeds, M, N):
    # symmetry seeds 1 and 6 each draw a state with gamma < 1 (1/4 and 3/4)
    for seed in seeds:
        (res,) = run_suites([name], VerifyConfig(M=M, N=N, seed=seed, tol=1e-3))
        assert (res.route, res.tolerance, res.max_residual) == ("exact", 0.0, 0.0)
        assert res.passed and res.cases > 0, (seed, res.failed_cases)


@pytest.mark.parametrize("M, N, seeds", [
    # at (2,3) these seeds once drew the pure-metric coefficient of C_{0,1},
    # which no first-order check can see
    (2, 3, (1, 3, 14, 19, 26, 28, 33, 37)),
    (2, 1, (0, 1)), (2, 5, (0, 1)), (4, 3, (0, 1)),
])
def test_symmetry_negative_control_fails(M, N, seeds):
    for seed in seeds:
        (res,) = run_suites(["symmetry"], VerifyConfig(M=M, N=N, seed=seed, mutate=1))
        assert not res.passed and res.max_residual == 1.0, seed


def test_two_mutations_of_one_first_order_tensor_are_detected():
    # both draws land on the two visible coefficients of C_{1,0}; scaled alike,
    # the tensor would stay symmetric
    (res,) = run_suites(["symmetry"], VerifyConfig(M=2, N=3, seed=653159, mutate=2))
    assert not res.passed and res.max_residual == 1.0


def test_symmetry_reports_which_blocks_it_checked(monkeypatch):
    blocks = {}
    for M, N, h_max, k_max in ((2, 3, 2, 2), (2, 1, 2, 2), (2, 3, 0, 1)):
        (res,) = run_suites(["symmetry"], VerifyConfig(M=M, N=N, h_max=h_max, k_max=k_max))
        assert res.passed
        blocks[M, N, h_max, k_max] = (res.blocks, res.cases)
    assert blocks == {
        (2, 3, 2, 2): ({"lambda": "checked", "mu": "checked"}, 6),
        (2, 1, 2, 2): ({"lambda": "checked", "mu": "unchecked"}, 3),
        (2, 3, 0, 1): ({"lambda": "unchecked", "mu": "checked"}, 3),
    }
    # a block counts as checked only once a state has checked it
    with monkeypatch.context() as patch:
        patch.setattr(verify, "first_order_symmetry", lambda *args: {})
        (res,) = run_suites(["symmetry"], VerifyConfig(M=2, N=3))
    assert (res.blocks, res.cases) == ({"lambda": "unchecked", "mu": "unchecked"}, 0)
    (res,) = run_suites(["roundtrip"])
    assert "blocks" not in res.to_json_obj()


def test_mutation_can_skip_the_pure_metric_coefficient():
    spec = ClosureSpec(2, 3, h_max=0, k_max=1)
    tensors = ClosureTensorSet.build(spec)
    c01 = tensors.get(0, 1)
    assert c01.rank == 4 and not c01.coeffs[2].is_zero()
    for seed in range(20):
        mutated = mutate_tensor_set(tensors, random.Random(seed), skip_pure_metric=True)
        changed = [s for s, (a, b) in enumerate(zip(mutated.get(0, 1).coeffs, c01.coeffs)) if a != b]
        assert len(changed) == 1 and changed[0] != 2


def scaled_psi(s):
    """mu_derivative with its coefficient psi_s scaled by 11/10."""
    def corrupted(f):
        out = family.mu_derivative(f)
        coeffs = list(out.coeffs)
        coeffs[s] = coeffs[s].scale(Fraction(11, 10))
        return FFamilyElement(out.rank, coeffs)
    return corrupted


def scaled_component(fn):
    """fn with the first nonzero component of its result scaled by 11/10."""
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs)
        idx, value = next((idx, value) for idx, value in out.items() if value)
        return out.with_entry(idx, value * Fraction(11, 10))
    return corrupted


@pytest.mark.parametrize("target, corrupted", [
    ("mu_derivative", scaled_psi(0)),
    ("mu_derivative", scaled_psi(1)),
    ("chain_mu_derivative", scaled_component(oracle.chain_mu_derivative)),
], ids=["psi_0", "psi_1", "chain"])
def test_derivative_negative_control_fails(monkeypatch, target, corrupted):
    monkeypatch.setattr(verify, target, corrupted)
    for seed in range(40):
        (res,) = run_suites(["derivative"], VerifyConfig(M=2, N=1, seed=seed))
        assert not res.passed and res.max_residual == 1.0, seed
    # a seed draws the same ranks 1-5 at (2,3) as at (2,1), so ask there that
    # every rank fails, the higher ones too
    for seed in (0, 1):
        (res,) = run_suites(["derivative"], VerifyConfig(M=2, N=3, seed=seed))
        assert res.failures == res.cases == 11, seed


# the cases of each op in the oracle suite, and the coefficient-space operation it checks
ORACLE_OPS = {
    "symmetrize": ("symmetrize", 6),
    "basis": ("gmu_basis", 7),
    "trace_pair": ("trace_pair", 4),
    "contract_mu": ("contract_mu", 4),
    "family_trace": ("realize", 3),
    "mu_contraction_table": ("gmu_combination", 12),
}


def test_oracle_suite_runs_every_op_it_lists():
    for seed in range(10):
        (res,) = run_suites(["oracle"], VerifyConfig(M=2, N=3, seed=seed))
        # the two single_contraction cases compare with gmu_basis alone
        assert res.passed and res.cases == sum(count for _, count in ORACLE_OPS.values()) + 2, seed


@pytest.mark.parametrize("op", ORACLE_OPS)
def test_oracle_negative_control_fails(monkeypatch, op):
    # one component 11/10 off in the coefficient-space result fails every case
    # of the op that checks it, so brute forces that agreed with anything fail here
    target, count = ORACLE_OPS[op]
    monkeypatch.setattr(verify, target, scaled_component(getattr(verify, target)))
    for seed in range(10):
        (res,) = run_suites(["oracle"], VerifyConfig(M=2, N=3, seed=seed))
        failed = [case for case in res.failed_cases if case["op"] == op]
        assert len(failed) == count and res.max_residual == 1.0, (seed, res.failed_cases)


def test_kinetic_cross_route_fails_when_one_grid_radial_is_off(monkeypatch):
    # negative control: one radial 1e-8 off, relative, is a failure at every statistics
    def perturbed(state, weights):
        radials = grid_radials(state, weights)
        radials[weights[-1]] *= 1.0 + 1e-8
        return radials

    monkeypatch.setattr(verify, "grid_radials", perturbed)
    (res,) = run_suites(["kinetic"], VerifyConfig(M=2, N=3))
    assert res.failures == 3
    assert [case["op"] for case in res.failed_cases] == ["cross_route"] * 3
    assert 0.9e-8 < res.max_residual < 1.1e-8


def test_kinetic_trace_chain_fails_when_only_the_fermion_moments_are_off(monkeypatch):
    # negative control: the top radial 1e-6 off for fermions alone breaks their trace chain
    def perturbed(state, ranks):
        radials = kinetic_radials(state, ranks)
        if state.statistics == "fermion":
            radials[max(radials)] *= 1.0 + 1e-6
        return radials

    monkeypatch.setattr(moments, "kinetic_radials", perturbed)
    for M, N in [(2, 1), (2, 3), (4, 1)]:
        (res,) = run_suites(["kinetic"], VerifyConfig(M=M, N=N))
        assert not res.passed, (M, N)
        failed = {(case["op"], case["statistics"], case["M"], case["N"]) for case in res.failed_cases}
        assert failed == {("trace_chain", "fermion", M, N)}


@pytest.mark.parametrize("M,N", [(2, 1), (2, 3), (4, 1)])
def test_kinetic_cross_route_and_trace_chain_pass_at_seeds_0_to_39(M, N):
    spec = ClosureSpec(M, N, registry=FunctionRegistry.polynomials(0), m=1)
    for seed in range(40):
        (res,) = run_suites(["kinetic"], VerifyConfig(M=M, N=N, seed=seed))
        # cross_route, (0, 1) at rest and boosted, (M, N) at rest and boosted,
        # (M, N) at rest for fd and be
        assert res.passed and res.cases == 3 + 2 + 4 + 4, seed
        # the suite's boosted trace chains run at mb; its first boosted state, at fd and be too
        mu = random_float_timelike(random.Random(seed))
        for stats in ("fermion", "boson"):
            _, _, report = equilibrium_moments_with_traces(
                ThermoState(0.5, mu, 1.0, statistics=stats), spec)
            assert max(report["traces"].values()) <= 1e-8, (seed, stats)


def _scaled_occupancy(faulty: str):
    """``equilibrium._occupancy`` with F, f_eq and F_and_f_eq of ``faulty`` scaled by 1 + 1e-6."""
    occupancy, factor = equilibrium._occupancy, 1.0 + 1e-6

    def scaled(statistics):
        F, f_eq, F_and_f_eq = occupancy(statistics)
        if statistics != faulty:
            return F, f_eq, F_and_f_eq
        return (lambda x, y: factor * F(x, y), lambda x, y: factor * f_eq(x, y),
                lambda x, y: tuple(factor * v for v in F_and_f_eq(x, y)))

    return scaled


@pytest.mark.parametrize("faulty", ["fermion", "boson"])
def test_a_wrong_occupancy_fails_the_series_checks_though_quad_agrees(monkeypatch, faulty):
    # negative control: the Bessel series reads no occupancy code, so a wrong
    # Fermi or Bose occupancy fails H_derivatives and cross_route for that statistics alone
    monkeypatch.setattr(equilibrium, "_occupancy", _scaled_occupancy(faulty))
    eq, kin = run_suites(["equilibrium", "kinetic"], VerifyConfig(M=2, N=3))
    assert [(case["op"], case["statistics"], case["z"]) for case in eq.failed_cases] == [
        ("H_derivatives", faulty, z) for z in (0.1, 1.0, 10.0)]
    assert [(case["op"], case["statistics"]) for case in kin.failed_cases] == [("cross_route", faulty)]
    assert 0.9e-6 < eq.max_residual_by_op["H_derivatives"] < 1.1e-6
    # grid against quad, the check that shares the occupancy, still agrees under the fault
    dist = JuttnerFamily(faulty)
    for z in (0.1, 1.0, 10.0):
        h_val, h_lam, _ = H_derivatives(dist, 1.0, z, 1.0)
        assert abs(h_val / H_from_distribution(dist.F, 1.0, z, 1.0) - 1.0) <= 1e-12
        assert abs(h_lam / H_from_distribution(dist.f_eq, 1.0, z, 1.0) - 1.0) <= 1e-12
    state = ThermoState.rest(0.5, 1.3, 1.0, statistics=faulty)
    weights = radial_weights(moment_ranks(0, 1) + moment_ranks(2, 3))
    grid, want = grid_radials(state, weights), quad_radials(state, weights)
    assert max(abs(grid[w] / want[w] - 1.0) for w in weights) <= 1e-12


def test_a_wrong_dH_dgamma_weight_fails_H_derivatives(monkeypatch):
    # negative control: the cosh weight (f_eq, 1, 0) of dH/dgamma taken as (f_eq, 0, 0)
    radials_many = equilibrium.trapezoid_radials_many

    def wrong(dist, lams, gms, uppers, weights):
        assert weights == ((dist.F, 0, 0), (dist.f_eq, 0, 0), (dist.f_eq, 1, 0))
        return radials_many(dist, lams, gms, uppers, weights[:2] + ((dist.f_eq, 0, 0),))

    monkeypatch.setattr(equilibrium, "trapezoid_radials_many", wrong)
    (res,) = run_suites(["equilibrium"], VerifyConfig())
    failed = {(case["statistics"], case["z"]) for case in res.failed_cases
              if case["op"] == "H_derivatives"}
    assert failed == {(stats, z) for stats in equilibrium.STATISTICS for z in (0.1, 1.0, 10.0)}


@pytest.mark.parametrize("tol, bound", [(None, 1e-12), (1e-12, 1e-12), (1e-13, 1e-13),
                                        (1e-6, 1e-12)])
def test_H_derivatives_takes_the_cross_route_bound(monkeypatch, tol, bound):
    # a grid 1e-9 off passes the suite's 1e-8 but not H_derivatives' 1e-12; --tol only tightens it
    def off(*args):
        return tuple(v * (1.0 + 1e-9) for v in H_derivatives(*args))

    monkeypatch.setattr(verify, "H_derivatives", off)
    (res,) = run_suites(["equilibrium"], VerifyConfig(tol=tol))
    # the fermion and boson triples come from H_derivatives, the nondegenerate one from the stencil
    failed = [case for case in res.failed_cases if case["op"] == "H_derivatives"]
    assert [(case["statistics"], case["tolerance"]) for case in failed] == [
        (stats, bound) for _ in range(3) for stats in ("fermion", "boson")]


@pytest.mark.parametrize("M,N", [(2, 1), (2, 3)])
def test_a_grid_1e_11_off_fails_exactly_the_series_cases(monkeypatch, M, N):
    # negative control for the 1e-12 bound: every grid integral scaled by 1 + 1e-11 (a fault
    # the former 1e-10 bound let pass) fails every H_derivatives and cross_route case, and
    # nothing else, since the Gibbs, integrability and trace-chain residuals do not see a scale
    radials_many = equilibrium.trapezoid_radials_many

    def off(*args):
        return [None if row is None else [v * (1.0 + 1e-11) for v in row]
                for row in radials_many(*args)]

    monkeypatch.setattr(equilibrium, "trapezoid_radials_many", off)
    failed = sorted((case["op"], case["statistics"], case.get("z", 0.0))
                    for res in run_suites(["equilibrium", "kinetic"], VerifyConfig(M=M, N=N))
                    for case in res.failed_cases)
    assert failed == sorted([("H_derivatives", stats, z) for stats in equilibrium.STATISTICS
                             for z in (0.1, 1.0, 10.0)]
                            + [("cross_route", stats, 0.0) for stats in equilibrium.STATISTICS])


def test_quadrature_suites_report_the_largest_residual_of_each_case_kind(capsys):
    # max_residual folds every case together, so in the kinetic suite the trace
    # chain hides the cross_route residuals, which alone follow the quadrature
    results = run_suites(["kinetic", "equilibrium", "roundtrip"], VerifyConfig(M=2, N=3))
    kinetic, equilibrium, roundtrip = (r.to_json_obj() for r in results)
    assert set(kinetic["max_residual_by_op"]) == {"cross_route", "trace_chain"}
    assert set(equilibrium["max_residual_by_op"]) == {"H_derivatives", "gibbs", "integrability"}
    for doc, res in zip((kinetic, equilibrium), results):
        assert max(doc["max_residual_by_op"].values()) == res.max_residual
    assert kinetic["max_residual_by_op"]["cross_route"] < results[0].max_residual
    assert "max_residual_by_op" not in roundtrip
    # the CSV rows keep their columns
    from etclosure.cli import main

    assert main(["verify", "--suite", "kinetic", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "suite,cases,failures,max_residual,seed"
