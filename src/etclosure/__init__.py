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

Callers import these submodules; the package root exports nothing.
"""
