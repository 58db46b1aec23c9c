from __future__ import annotations

import random
from fractions import Fraction

import pytest

from etclosure import family, oracle, verify
from etclosure.closure import ClosureSpec, ClosureTensorSet
from etclosure.family import FFamilyElement
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
    cfg = VerifyConfig(M=2, N=3, h_max=2, k_max=2, states=2)
    results = run_suites(None, cfg)
    assert all(r.failures == 0 for r in results), [
        (r.name, r.failed_cases) for r in results if r.failures
    ]


def test_mutation_is_detected():
    cfg = VerifyConfig(M=2, N=3, h_max=1, k_max=1, states=2, mutate=1)
    results = run_suites(["characteristic"], cfg)
    assert results[0].failures > 0


def test_mutation_detected_by_symmetry_suite():
    cfg = VerifyConfig(M=2, N=1, h_max=2, k_max=0, states=2, mutate=1)
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


def test_symmetry_reports_which_blocks_it_checked():
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
    (res,) = run_suites(["symmetry"], VerifyConfig(M=2, N=3, states=0))
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


def scaled_component(*args):
    """chain_mu_derivative with its first nonzero component scaled by 11/10."""
    out = oracle.chain_mu_derivative(*args)
    idx, value = next((idx, value) for idx, value in out.items() if value)
    return out.with_entry(idx, value * Fraction(11, 10))


@pytest.mark.parametrize("target, corrupted", [
    ("mu_derivative", scaled_psi(0)),
    ("mu_derivative", scaled_psi(1)),
    ("chain_mu_derivative", scaled_component),
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
