"""Command-line front door.

Subcommands: closure (coefficient tables), verify (suite harness),
equilibrium (state functions of one state), moments (kinetic moments and
residual blocks).  Each takes only the flags it reads: closure the orders
(--M --N --hmax --kmax) and output (--format --out) groups, verify those plus
--seed --tol --suite --mutate --artifacts, equilibrium the state (--lambda
--gamma --mu0..3 --m --stats) and output groups, moments all three plus --seed.
Any other flag, an abbreviated flag, or a --config key no subcommand takes is a
usage error.

Output is deterministic: floats are rendered as 17-significant-digit strings,
rationals as "p/q" strings, keys are sorted, and files are written atomically
(temp file then rename).  CSV is a projection of the same rows as the JSON.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
(a requested order past the rank cap, for every command that sums over orders),
4 numerical failure at this state (a quadrature that does not converge, a float
that overflows, kinetic moments off their mass-shell trace chain, or an entropy
undefined because dH/dlambda underflows to 0).  Every state flag (--lambda,
--gamma, --mu0..3, --m) must be finite.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .closure import ClosureSpec, ClosureTensorSet, RankCapError, closure_table
from .equilibrium import (
    ConvergenceError,
    EntropyUndefinedError,
    ThermoState,
    thermo_with_residuals,
)
from .moments import (
    FIRST_ORDER,
    MultiplierState,
    delta_hprime,
    equilibrium_moments_with_traces,
    first_order_symmetry,
)
from .oracle import write_failure_artifact
from .scalar import FunctionRegistry
from .tensors import DenseSymTensor, FourVector
from .verify import SUITES, VerifyConfig, run_suites

STATS_ALIASES = {"mb": "nondegenerate", "fd": "fermion", "be": "boson"}
# relative trace residual past which no digit of the moments holds on the mass
# shell: 1e-15 at gamma 1, about 1 below gamma 1e-8 where the trace is all cancellation
TRACE_FAILURE = 0.1


# ---------------------------------------------------------------------------
# canonical rendering


def _render(obj):
    """Recursively convert values to their canonical JSON-ready forms."""
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return str(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _render(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(v) for v in obj]
    if isinstance(obj, DenseSymTensor):
        return _render(obj.to_json_obj())
    if isinstance(obj, FourVector):
        return {"components": _render(list(obj.components)), "variance": obj.variance}
    return obj


def _to_json(obj) -> str:
    return json.dumps(_render(obj), sort_keys=True, indent=2) + "\n"


def _to_csv(rows: List[dict]) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    fields = list(rows[0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        flat = {}
        for key in fields:
            val = _render(row.get(key))
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
            flat[key] = "" if val is None else val
        writer.writerow(flat)
    return buf.getvalue()


def _write_out(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".etclosure-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument plumbing


def _orders(p: argparse.ArgumentParser) -> None:
    p.add_argument("--M", type=int, default=2, help="even rank of the first multiplier")
    p.add_argument("--N", type=int, default=1, help="odd rank of the second multiplier")
    p.add_argument("--hmax", type=int, default=2)
    p.add_argument("--kmax", type=int, default=2)


def _state(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    for i in range(4):
        p.add_argument(f"--mu{i}", type=float, default=None,
                       help="contravariant component (overrides --gamma)")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--stats", choices=sorted(STATS_ALIASES), default="mb")


def _output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)


class _ReplacingAppend(argparse._AppendAction):
    """A repeatable flag whose first use replaces the default list instead of extending it.

    A --config file sets that default, so flags on the command line override
    the file's list, as they override every other key.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is self.default:
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etclosure",
        description="Moment-closure coefficient tables, verification suites, "
        "and equilibrium thermodynamics.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key = value file merged under explicit flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p_closure = sub.add_parser("closure", help="emit the coefficient table", allow_abbrev=False)
    _orders(p_closure)
    _output(p_closure)

    p_verify = sub.add_parser("verify", help="run verification suites", allow_abbrev=False)
    _orders(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="tolerance of the equilibrium and kinetic suites, finite "
                          "and >= 0; the other seven check exact equality")
    p_verify.add_argument("--suite", action=_ReplacingAppend, default=None,
                          help=f"suite name (repeatable); one of: {', '.join(SUITES)}")
    p_verify.add_argument("--mutate", type=int, default=0,
                          help="corrupt K >= 0 coefficients first (negative control)")
    p_verify.add_argument("--artifacts", default=None, metavar="DIR",
                          help="write each failing suite's failed cases to "
                          "DIR/etclosure-<suite>-seed<seed>.json for replay")
    _output(p_verify)

    p_eq = sub.add_parser("equilibrium", help="state functions of one state",
                          allow_abbrev=False)
    _state(p_eq)
    _output(p_eq)

    p_mom = sub.add_parser("moments", help="kinetic moments plus residual blocks",
                           allow_abbrev=False)
    _orders(p_mom)
    p_mom.add_argument("--seed", type=int, default=0, help="seed of the free functions c_q")
    _state(p_mom)
    _output(p_mom)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    """Merge a --config file's keys into the subcommands' defaults.

    A key sets the default of every subcommand that takes that flag and is
    skipped by the others, so one file can serve several commands; a key
    that no subcommand takes is a usage error.  A repeatable flag's value
    becomes a one-entry list, read like one use of the flag.
    """
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    values: Dict[str, str] = {}
    with open(known.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key = value: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[{"lambda": "lam"}.get(key, key)] = val
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    taken = set()
    for sp in subparsers.choices.values():
        flags = {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
        defaults = {}
        for key, val in values.items():
            if key in flags:
                action = flags[key]
                if action.type is not None:
                    val = action.type(val)
                defaults[key] = [val] if isinstance(action, argparse._AppendAction) else val
                taken.add(key)
        sp.set_defaults(**defaults)
    unknown = sorted(set(values) - taken)
    if unknown:
        raise ValueError(f"config key(s) no subcommand takes: {', '.join(unknown)}")


def _state_from_args(args) -> ThermoState:
    mu_given = [getattr(args, f"mu{i}") for i in range(4)]
    given = [("lambda", args.lam), ("gamma", args.gamma), ("m", args.m)]
    for flag, value in given + [(f"mu{i}", c) for i, c in enumerate(mu_given)]:
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{flag} must be finite, got {value}")
    if any(c is not None for c in mu_given):
        comps = tuple(0.0 if c is None else float(c) for c in mu_given)
        mu = FourVector(comps, "upper")
    else:
        if args.gamma <= 0:
            raise ValueError("gamma must be positive")
        mu = FourVector((args.gamma, 0.0, 0.0, 0.0), "upper")
    return ThermoState(args.lam, mu, args.m, statistics=STATS_ALIASES[args.stats])


def _spec_from_args(args, registry: Optional[FunctionRegistry] = None, m=1) -> ClosureSpec:
    """The (M, N, truncation) spec; commands that evaluate pass a registry and m."""
    return ClosureSpec(args.M, args.N, h_max=args.hmax, k_max=args.kmax, registry=registry, m=m)


# ---------------------------------------------------------------------------
# subcommands


def cmd_closure(args) -> int:
    spec = _spec_from_args(args)
    rows = closure_table(spec)
    if args.format == "csv":
        _write_out(_to_csv(rows), args.out)
    else:
        doc = {"M": spec.M, "N": spec.N, "h_max": spec.h_max, "k_max": spec.k_max,
               "rows": rows}
        _write_out(_to_json(doc), args.out)
    return 0


def cmd_verify(args) -> int:
    names = None
    if args.suite:
        names = []
        for entry in args.suite:
            names.extend(s.strip() for s in entry.split(",") if s.strip())
    cfg = VerifyConfig(
        M=args.M, N=args.N, h_max=args.hmax, k_max=args.kmax,
        seed=args.seed, mutate=args.mutate, tol=args.tol,
    )
    results = run_suites(names, cfg)
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        for r in results:
            if not r.passed:
                payload = _render({"suite": r.name, "seed": cfg.seed, "M": cfg.M, "N": cfg.N,
                                   "h_max": cfg.h_max, "k_max": cfg.k_max, "mutate": cfg.mutate,
                                   "failed_cases": r.failed_cases})
                path = write_failure_artifact(f"{r.name}-seed{cfg.seed}", payload, args.artifacts)
                print(f"wrote {path}", file=sys.stderr)
    doc = {
        "passed": all(r.passed for r in results),
        "seed": args.seed,
        "mutate": args.mutate,
        "results": [r.to_json_obj() for r in results],
    }
    if args.format == "csv":
        rows = [
            {"suite": r.name, "cases": r.cases, "failures": r.failures,
             "max_residual": r.max_residual, "seed": r.seed}
            for r in results
        ]
        _write_out(_to_csv(rows), args.out)
    else:
        _write_out(_to_json(doc), args.out)
    return 0 if doc["passed"] else 1


def cmd_equilibrium(args) -> int:
    state = _state_from_args(args)
    funcs, gibbs, _ = thermo_with_residuals(state)
    doc = {
        "lambda": state.lam,
        "gamma": state.gamma,
        "m": state.m,
        "statistics": state.statistics,
        "n": funcs.n,
        "p": funcs.p,
        "e": funcs.e,
        "s": funcs.s,
        "T": funcs.T,
        "gibbs_residual": gibbs,
    }
    if args.format == "csv":
        _write_out(_to_csv([doc]), args.out)
    else:
        _write_out(_to_json(doc), args.out)
    return 0


def cmd_moments(args) -> int:
    state = _state_from_args(args)
    spec = _spec_from_args(args, FunctionRegistry.polynomials(args.seed), state.m)
    mset, report = equilibrium_moments_with_traces(state, spec)
    worst = max(report["traces"].values(), default=0.0)
    if not worst < TRACE_FAILURE:
        raise ConvergenceError(f"kinetic moments miss the mass-shell trace chain at this state "
                               f"(relative residual {worst:.3g})")
    mstate = MultiplierState.at_equilibrium(state, spec)
    delta = delta_hprime(mstate)
    tensors = ClosureTensorSet.build(spec)
    spreads = first_order_symmetry(tensors, state.lam, state.mu)
    doc = {
        "A": mset.A,
        "B": mset.B,
        "hprime": mset.hprime,
        "truncation": list(mset.truncation),
        "delta_hprime": [float(c) for c in delta.components],
        "residuals": {
            "symmetry": float(max((max(g.values()) for g in spreads.values()), default=0.0)),
            "symmetry_blocks": {b: "checked" if b in spreads else "unchecked" for b in FIRST_ORDER},
            "traces": report["traces"],
            "orders": report["orders"],
        },
        "kinetic": report["kinetic"],
    }
    if args.format == "csv":
        rows = []
        for block in ("A", "B"):
            tensor: DenseSymTensor = getattr(mset, block)
            for idx, val in tensor.items():
                rows.append({"block": block, "index": "".join(map(str, idx)), "value": val})
        for i, c in enumerate(mset.hprime.components):
            rows.append({"block": "hprime", "index": str(i), "value": c})
        _write_out(_to_csv(rows), args.out)
    else:
        _write_out(_to_json(doc), args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if args.command == "closure":
            return cmd_closure(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "equilibrium":
            return cmd_equilibrium(args)
        return cmd_moments(args)
    except RankCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EntropyUndefinedError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OverflowError as exc:
        print(f"error: float overflow at this state: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
