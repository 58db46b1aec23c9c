"""Entropy-principle moment closure for relativistic kinetic theory.

The package constructs, exactly, the coefficient tensors of the Taylor
expansion of the entropy-flux potential about equilibrium for a two-block
moment hierarchy (an even-rank and an odd-rank multiplier), together with
the symmetric-tensor calculus the construction lives in, equilibrium
thermodynamics of the generating scalar potential, and brute-force oracles
plus verification suites for all of it.

Layers, bottom up:

- :mod:`etclosure.scalar`: exact scalar expressions f(lambda) gamma^a (-m^2)^b
  and the combinatorial helpers (double factorials, ratio ladders).
- :mod:`etclosure.tensors`: symmetric tensors as homogeneous polynomials,
  the metric, the g-mu basis.
- :mod:`etclosure.family`: elements symmetric together with their
  mu-derivative; descent, trace, lift, derivative, realization.
- :mod:`etclosure.closure`: the closure coefficient tensors by closed form
  and by the independent recursive route, plus compatibility checks.
- :mod:`etclosure.equilibrium`: multiplier dressing/projection, the potential
  H by quadrature, state functions, Gibbs diagnostics.
- :mod:`etclosure.moments`: the near-equilibrium series, moment symmetry
  verification, kinetic equilibrium moments with trace reports.
- :mod:`etclosure.oracle`: brute-force reference implementations.
- :mod:`etclosure.verify`: the suite harness behind `etclosure verify`.
"""

from .closure import (
    ClosureSpec,
    ClosureTensorSet,
    RankCapError,
    build_closure_tensor,
    closure_coeff,
    closure_coeff_N1,
    closure_table,
    derive_C_from_E,
    recursive_E,
    verify_compatibility,
)
from .equilibrium import (
    ConvergenceError,
    EquilibriumFunctions,
    JuttnerFamily,
    ThermoState,
    H_from_distribution,
    equilibrium_hprime,
    equilibrium_multipliers,
    gibbs_residual,
    integrability_residual,
    mj_closed_form_H,
    project_equilibrium,
    state_functions,
    thermo_functions,
)
from .family import (
    CharacteristicError,
    FFamilyElement,
    basis_mu_contraction,
    check_characteristic,
    leading_after_traces,
    lift,
    mu_derivative,
    realize,
    trace,
)
from .moments import (
    MomentSet,
    MultiplierState,
    delta_hprime,
    equilibrium_moments_with_traces,
    make_deviation,
    symmetry_residual,
)
from .oracle import brute_symmetrize, fd_mu_derivative
from .scalar import (
    FunctionRegistry,
    MissingFunctionError,
    ScalarExpr,
    SingularRatioError,
    double_factorial,
    double_factorial_ratio,
    eta,
)
from .tensors import DenseSymTensor, FourVector, Metric, gmu_basis, symmetrize
from .verify import SuiteResult, VerifyConfig, run_suites

__version__ = "0.1.0"

__all__ = [
    "CharacteristicError",
    "ClosureSpec",
    "ClosureTensorSet",
    "ConvergenceError",
    "DenseSymTensor",
    "EquilibriumFunctions",
    "FFamilyElement",
    "FourVector",
    "FunctionRegistry",
    "H_from_distribution",
    "JuttnerFamily",
    "Metric",
    "MissingFunctionError",
    "MomentSet",
    "MultiplierState",
    "RankCapError",
    "ScalarExpr",
    "SingularRatioError",
    "SuiteResult",
    "ThermoState",
    "VerifyConfig",
    "basis_mu_contraction",
    "brute_symmetrize",
    "build_closure_tensor",
    "check_characteristic",
    "closure_coeff",
    "closure_coeff_N1",
    "closure_table",
    "delta_hprime",
    "derive_C_from_E",
    "double_factorial",
    "double_factorial_ratio",
    "equilibrium_hprime",
    "equilibrium_moments_with_traces",
    "equilibrium_multipliers",
    "eta",
    "fd_mu_derivative",
    "gibbs_residual",
    "gmu_basis",
    "integrability_residual",
    "leading_after_traces",
    "lift",
    "make_deviation",
    "mj_closed_form_H",
    "mu_derivative",
    "project_equilibrium",
    "realize",
    "recursive_E",
    "run_suites",
    "state_functions",
    "symmetrize",
    "symmetry_residual",
    "thermo_functions",
    "trace",
    "verify_compatibility",
]
