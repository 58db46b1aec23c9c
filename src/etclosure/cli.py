"""Command-line front door.

Subcommands: closure (coefficient tables), verify (suite harness),
equilibrium (state functions of one state), moments (kinetic moments and
residual blocks).  Each takes only the flags it reads: closure the orders
(--M --N --hmax --kmax) and output (--format --out) groups, verify those plus
--seed --tol --suite --mutate --artifacts, equilibrium the state (--lambda
--gamma --mu0..3 --m --stats) and output groups, moments all three plus --seed.
Any other flag, an abbreviated flag, or a --config key no subcommand takes is a
usage error.

A flag's value comes from the command line, else the --config file, else
DEFAULTS.  The parser, built once per process, holds no defaults: in process
``equilibrium`` takes 0.6-1.1 ms, 1.7-2.8 ms when each call rebuilt the parser
(best of 7 batches of 50 calls, 2-vCPU Intel Xeon VM, Python 3.11.7).

Output is deterministic: floats are rendered as 17-significant-digit strings,
rationals as "p/q" strings, keys are sorted, and files are written atomically
(temp file then rename; an error names the path asked for, not the temp
file).  JSON is rendered and written in one recursive pass; CSV is a
projection of the same rows as the JSON.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
(a requested order past the rank cap, for every command that sums over orders),
4 numerical failure at this state (a quadrature that does not converge, a float
that overflows, kinetic moments off their mass-shell trace chain, an entropy
undefined because dH/dlambda underflows to 0, an H integral below the normal
float range, or mu.mu underflowing to 0 for a timelike mu).  Every failing
command writes one line to stderr.  Every state flag (--lambda, --gamma,
--mu0..3, --m) must be finite.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from .closure import ClosureSpec, ClosureTensorSet, RankCapError, closure_table
from .equilibrium import (
    ConvergenceError,
    EntropyUndefinedError,
    ThermoState,
    equilibrium_hprime,
    thermo_with_residuals,
)
from .moments import (
    FIRST_ORDER,
    MultiplierState,
    delta_hprime,
    equilibrium_moments_with_traces,
    first_order_symmetry,
)
from .scalar import FunctionRegistry
from .tensors import DenseSymTensor, FourVector
from .verify import SUITES, VerifyConfig, run_suites

STATS_ALIASES = {"mb": "nondegenerate", "fd": "fermion", "be": "boson"}
# relative trace residual past which no digit of the moments holds on the mass
# shell.  The radials share one grid, on which cosh^2 - sinh^2 = 1 node by node,
# so the residual is the rounding of the trace's cancellation: 1e-15 at gamma 1,
# noise about 0.1 at gamma 1e-7, and 1 or more from gamma 1e-8 on, where the
# trace is all cancellation
TRACE_FAILURE = 0.1


# ---------------------------------------------------------------------------
# canonical rendering


_quote = json.encoder.encode_basestring_ascii


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
    """``json.dumps(_render(obj), sort_keys=True, indent=2) + "\\n"``, rendered and written in one pass."""
    chunks: List[str] = []
    _write_json(obj, chunks.append, "\n")
    chunks.append("\n")
    return "".join(chunks)


# the JSON text of a value of each of these exact types, as _render then json write it
_SCALARS: Dict[type, Callable[[object], str]] = {
    str: _quote,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
    float: lambda v: _quote(_render(v)),
    Fraction: lambda v: _quote(_render(v)),
}


def _write_json(obj, emit: Callable[[str], None], newline: str) -> None:
    """Emit the JSON of ``_render(obj)`` in json's indent=2 layout, sorted keys.

    ``newline`` is the line break and indentation of obj's own level.  Values
    of the exact types in _SCALARS are written at once; any other value takes
    the branch of :func:`_render`, then of json's encoder, that its kind
    takes there (no value is of two kinds, so the order of the checks does
    not matter), and a value json cannot write raises json's TypeError.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        emit(scalar(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # the keys as _render has them: str(k), the last value of equal ones
        for key, value in sorted(dict(zip(map(str, obj), obj.values())).items()):
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                emit(sep + _quote(key) + ": ")
                _write_json(value, emit, inner)
            else:
                emit(sep + _quote(key) + ": " + scalar(value))
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                emit(sep)
                _write_json(value, emit, inner)
            else:
                emit(sep + scalar(value))
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(obj, DenseSymTensor):
        _write_json(obj.to_json_obj(), emit, newline)
    elif isinstance(obj, FourVector):
        _write_json({"components": list(obj.components), "variance": obj.variance}, emit, newline)
    elif isinstance(obj, (float, Fraction)):
        emit(_quote(_render(obj)))
    elif isinstance(obj, str):
        emit(_quote(obj))
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


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
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".etclosure-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, out) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# argument plumbing

# the built-in value of every flag, by dest; a --config file overrides these
# and the command line overrides both
DEFAULTS = {"M": 2, "N": 1, "hmax": 2, "kmax": 2, "seed": 0, "tol": None, "suite": None,
            "mutate": 0, "artifacts": None, "lam": 1.0, "gamma": 1.0, "m": 1.0, "stats": "mb",
            "format": "json", "out": None, **{f"mu{i}": None for i in range(4)}}
# the converter of each flag's value, and the values a flag with choices allows,
# by dest, recorded as _build_parser adds them
_TYPES: Dict[str, Callable[[str], object]] = {}
_CHOICES: Dict[str, Sequence[str]] = {}


def _add(p: argparse.ArgumentParser, flag: str, **kw) -> None:
    action = p.add_argument(flag, **kw)
    _TYPES[action.dest] = action.type or str
    if action.choices is not None:
        _CHOICES[action.dest] = action.choices


def _orders(p: argparse.ArgumentParser) -> None:
    _add(p, "--M", type=int, help="even rank of the first multiplier")
    _add(p, "--N", type=int, help="odd rank of the second multiplier")
    _add(p, "--hmax", type=int)
    _add(p, "--kmax", type=int)


def _state(p: argparse.ArgumentParser) -> None:
    _add(p, "--lambda", dest="lam", type=float)
    _add(p, "--gamma", type=float)
    for i in range(4):
        _add(p, f"--mu{i}", type=float, help="contravariant component (overrides --gamma)")
    _add(p, "--m", type=float)
    _add(p, "--stats", choices=sorted(STATS_ALIASES))


def _output(p: argparse.ArgumentParser) -> None:
    _add(p, "--format", choices=("json", "csv"))
    _add(p, "--out")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, reading a negative number with an exponent as a value.

    argparse's own pattern takes -1 and -0.5 for values but -1e-3 for a flag,
    which makes ``--mu1 -1e-3`` a usage error.  The pattern is an instance
    attribute of every parser (Python 3.10-3.13), and argparse makes the
    subparsers of the parser's own class, so they read such values too, and
    write a usage error as one line, without the usage text.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        """Exit 2 with argparse's error line alone, as every failing command writes one line."""
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser; a parsed namespace holds only the flags given on the command line."""
    parser = _Parser(
        prog="etclosure",
        description="Moment-closure coefficient tables, verification suites, "
        "and equilibrium thermodynamics.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key = value file merged under explicit flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, allow_abbrev=False,
                              argument_default=argparse.SUPPRESS)

    p_closure = command("closure", "emit the coefficient table")
    _orders(p_closure)
    _output(p_closure)

    p_verify = command("verify", "run verification suites")
    _orders(p_verify)
    _add(p_verify, "--seed", type=int)
    _add(p_verify, "--tol", type=float,
         help="tolerance of the equilibrium and kinetic suites, finite "
         "and >= 0; the other seven check exact equality")
    _add(p_verify, "--suite", action="append",
         help=f"suite name (repeatable); one of: {', '.join(SUITES)}")
    _add(p_verify, "--mutate", type=int,
         help="corrupt K >= 0 coefficients first (negative control)")
    _add(p_verify, "--artifacts", metavar="DIR",
         help="write each failing suite's failed cases to "
         "DIR/etclosure-<suite>-seed<seed>.json for replay")
    _output(p_verify)

    p_eq = command("equilibrium", "state functions of one state")
    _state(p_eq)
    _output(p_eq)

    p_mom = command("moments", "kinetic moments plus residual blocks")
    _orders(p_mom)
    _add(p_mom, "--seed", type=int, help="seed of the free functions c_q")
    _state(p_mom)
    _output(p_mom)
    return parser


def _read_config(path: str) -> Dict[str, object]:
    """A --config file's ``key = value`` lines as flag values, by dest.

    ``lambda`` names ``lam``; each value goes through its flag's type and
    must be one of its choices (a usage error in argparse's wording when it
    is not), and a ``suite`` value becomes a one-entry list, read like one
    use of the flag.  A key of a flag the running subcommand does not take is
    ignored, so one file can serve several commands; a key no subcommand
    takes is a usage error.  Runs after :func:`_build_parser`, which records
    the types and choices.
    """
    values: Dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key = value: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[{"lambda": "lam"}.get(key, key)] = val
    unknown = sorted(set(values) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"config key(s) no subcommand takes: {', '.join(unknown)}")
    config = {}
    for key, val in values.items():
        try:
            value = [val] if key == "suite" else _TYPES[key](val)
        except ValueError:
            raise ValueError(f"config key {key}: invalid {_TYPES[key].__name__} value: "
                             f"{val!r}") from None
        if key in _CHOICES and value not in _CHOICES[key]:
            allowed = ", ".join(map(repr, _CHOICES[key]))
            raise ValueError(f"config key {key}: invalid choice: {value!r} "
                             f"(choose from {allowed})")
        config[key] = value
    return config


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
    if args.suite is not None:
        names = [s.strip() for entry in args.suite for s in entry.split(",") if s.strip()]
        if not names:
            raise ValueError(f"--suite names no suite; one of: {', '.join(SUITES)}")
    cfg = VerifyConfig(
        M=args.M, N=args.N, h_max=args.hmax, k_max=args.kmax,
        seed=args.seed, mutate=args.mutate, tol=args.tol,
    )
    results = run_suites(names, cfg)
    failed = [r.name for r in results if not r.passed]
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        for r in results:
            if not r.passed:
                path = os.path.join(args.artifacts, f"etclosure-{r.name}-seed{cfg.seed}.json")
                # every VerifyConfig field, so the payload replays the same checks
                _write_out(_to_json({"suite": r.name, **dataclasses.asdict(cfg),
                                     "failed_cases": r.failed_cases}), path)
                print(f"wrote {path}", file=sys.stderr)
    doc = {
        "passed": not failed,
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
    if failed:
        print(f"error: {len(failed)} of {len(results)} suites failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


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
    a_mom, b_mom, report = equilibrium_moments_with_traces(state, spec)
    hprime, _, _ = equilibrium_hprime(state)
    worst = max(report["traces"].values(), default=0.0)
    if not worst < TRACE_FAILURE:
        raise ConvergenceError(f"kinetic moments miss the mass-shell trace chain at this state "
                               f"(relative residual {worst:.3g})")
    mstate = MultiplierState.at_equilibrium(state, spec)
    delta = delta_hprime(mstate)
    tensors = ClosureTensorSet.build(spec)
    spreads = first_order_symmetry(tensors, state.lam, state.mu)
    doc = {
        "A": a_mom,
        "B": b_mom,
        "hprime": hprime,
        "truncation": [spec.h_max, spec.k_max],
        "delta_hprime": [float(c) for c in delta.components],
        "residuals": {
            "symmetry": float(max((max(g.values()) for g in spreads.values()), default=0.0)),
            "symmetry_blocks": {b: "checked" if b in spreads else "unchecked" for b in FIRST_ORDER},
            "traces": report["traces"],
            "orders": {"M": spec.M, "N": spec.N},
        },
        "kinetic": report["kinetic"],
    }
    if args.format == "csv":
        rows = []
        for block, tensor in (("A", a_mom), ("B", b_mom)):
            for idx, val in tensor.items():
                rows.append({"block": block, "index": "".join(map(str, idx)), "value": val})
        for i, c in enumerate(hprime.components):
            rows.append({"block": "hprime", "index": str(i), "value": c})
        _write_out(_to_csv(rows), args.out)
    else:
        _write_out(_to_json(doc), args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    given = vars(_build_parser().parse_args(argv))
    try:
        config = _read_config(given["config"]) if given["config"] else {}
        args = argparse.Namespace(**{**DEFAULTS, **config, **given})
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
