#!/usr/bin/env python3
"""Shows that the benchmark's correctness gate can fail.

    python3 perfbench/selftest.py

For each workload it runs a few cheap operations, checks that their real
outputs pass, then perturbs each output slightly (a closure prefactor by
1/10^9, a density by 1e-9 relative, a mutated control's exit code to 0, ...)
and checks that the workload's checker rejects it. Exits 1 if any checker
accepts a perturbed output or rejects a real one.
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from etclosure.family import FFamilyElement  # noqa: E402
from etclosure.scalar import ScalarExpr  # noqa: E402

FAILURES = []


def expect(name: str, result, ok: bool) -> None:
    errors, _ = result
    passed = (not errors) == ok
    print(f"[{'ok' if passed else 'FAIL'}] {name}: {'accepted' if not errors else errors[0][:100]}")
    if not passed:
        FAILURES.append(name)


def edit(output, fn):
    """Apply fn to the parsed JSON of a CLI output and re-serialize it."""
    rc, text = output
    doc = json.loads(text)
    fn(doc)
    return rc, json.dumps(doc)


def by_kind(ops, kind):
    return next(op for op in ops if op.kind == kind)


def scale_str(value: str, factor: float) -> str:
    return repr(float(value) * factor)


def exact_closure():
    ops, _ = wl.exact_closure(0)
    table = by_kind(ops, "closure")
    out = table.call()
    expect("closure table", table.check(out), True)

    def bump(doc):
        row = next(r for r in doc["rows"] if r["s"] is not None)
        row["prefactor"] = str(Fraction(row["prefactor"]) + Fraction(1, 10**9))
    expect("closure prefactor + 1/10^9", table.check(edit(out, bump)), False)

    order = next(op for op in ops if op.label == "order 2,3 1,1")
    elem, report = order.call()
    expect("recursive route and compatibility", order.check((elem, report)), True)
    s = next(i for i, phi in enumerate(elem.coeffs) if phi.terms)
    c, g, mp, sym = elem.coeffs[s].terms[0]
    coeffs = list(elem.coeffs)
    coeffs[s] = ScalarExpr(((c + Fraction(1, 10**9), g, mp, sym),) + elem.coeffs[s].terms[1:])
    expect("recursive coefficient + 1/10^9",
           order.check((FFamilyElement(elem.rank, coeffs), report)), False)
    broken = dict(report, mu_residuals=[ScalarExpr.monomial(Fraction(1, 10**9))])
    expect("compatibility residual 1/10^9", order.check((elem, broken)), False)

    realize = next(op for op in ops if op.kind == "realize" and "2,3 1,1" in op.label)
    tensor = realize.call()
    expect("exact realize", realize.check(tensor), True)
    idx, val = next((i, v) for i, v in tensor.items() if v)
    expect("realize component + 1/10^9",
           realize.check(tensor.with_entry(idx, val + Fraction(1, 10**9))), False)
    expect("realize component as float", realize.check(tensor.with_entry(idx, float(val))), False)

    mutated = by_kind(ops, "verify_mutated")
    out = mutated.call()
    expect("mutated control", mutated.check(out), True)
    expect("mutated control exiting 0", mutated.check((0, out[1])), False)


def series_symmetry():
    ops, _ = wl.series_symmetry(0)
    moments = by_kind(ops, "moments")
    out = moments.call()
    expect("moments 2,3", moments.check(out), True)

    def nudge(doc):
        comp = max(doc["B"]["components"], key=lambda c: abs(float(c["value"])))
        comp["value"] = scale_str(comp["value"], 1 + 1e-9)
    expect("moment component * (1 + 1e-9)", moments.check(edit(out, nudge)), False)

    def series(doc):
        doc["delta_hprime"][2] = "1e-300"
    expect("delta_hprime not exactly zero", moments.check(edit(out, series)), False)

    residual = by_kind(ops, "symmetry_residual")
    expect("symmetry residual 1e-9", residual.check(1e-9), True)
    expect("symmetry residual 2e-6", residual.check(2e-6), False)

    symmetry = by_kind(ops, "verify")
    # the (2,1) control without --mutate is a cheap intact symmetry run
    intact = wl.cli_call(["verify", "--suite", "symmetry"])()
    expect("intact symmetry suite", symmetry.check(intact), True)

    def loosen(doc):
        doc["results"][0]["max_residual"] = "2e-6"
    expect("symmetry residual above tolerance", symmetry.check(edit(intact, loosen)), False)

    mutated = by_kind(ops, "verify_mutated")
    out = mutated.call()
    expect("mutated symmetry control", mutated.check(out), True)
    expect("mutated symmetry control exiting 0", mutated.check((0, out[1])), False)


def thermo_kinetic():
    ops, _ = wl.thermo_kinetic(0)
    eq = by_kind(ops, "equilibrium")
    out = eq.call()
    expect("equilibrium", eq.check(out), True)
    for key in "npe":
        def nudge(doc, key=key):
            doc[key] = scale_str(doc[key], 1 + 1e-9)
        expect(f"equilibrium {key} * (1 + 1e-9)", eq.check(edit(out, nudge)), False)

    moments = by_kind(ops, "moments")
    out = moments.call()
    expect("moments 2,1", moments.check(out), True)

    def kinetic(doc):
        doc["kinetic"]["n"] = scale_str(doc["kinetic"]["n"], 1 + 1e-9)
    expect("kinetic n * (1 + 1e-9)", moments.check(edit(out, kinetic)), False)

    verify = by_kind(ops, "verify")
    out = verify.call()
    expect("verify equilibrium,kinetic", verify.check(out), True)

    def worse(doc):
        doc["results"][1]["max_residual"] = "2e-8"
    expect("kinetic residual above tolerance", verify.check(edit(out, worse)), False)


if __name__ == "__main__":
    exact_closure()
    series_symmetry()
    thermo_kinetic()
    print(f"{len(FAILURES)} checker self-test failures")
    sys.exit(1 if FAILURES else 0)
