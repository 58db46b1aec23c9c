"""Spans around calls into etclosure's public functions, from outside the package.

Each traced function is replaced by a wrapper in every etclosure module
namespace that holds it (``realize`` lives in ``family``, ``moments``,
``verify`` and ``oracle``), on its class for methods, and in ``verify.SUITES``
for the suites. Spans stay in memory until the run ends. Span stacks are per
thread; a span opened on a thread with an empty stack (a ``verify`` pool
worker) takes the innermost open span of the installing thread as its parent,
so suite time is charged as a child of the command that launched the pool.
Counts use ``itertools.count``, whose ``next`` is atomic under the GIL, so pool
threads lose no increments.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

# (span name, module holding the original, attribute path in that module)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.closure", "cli", "cmd_closure"),
    ("cli.verify", "cli", "cmd_verify"),
    ("cli.equilibrium", "cli", "cmd_equilibrium"),
    ("cli.moments", "cli", "cmd_moments"),
    ("closure.build_closure_tensor", "closure", "build_closure_tensor"),
    ("closure.derive_C_from_E", "closure", "derive_C_from_E"),
    ("closure.verify_compatibility", "closure", "verify_compatibility"),
    ("closure.ClosureTensorSet.build", "closure", "ClosureTensorSet.build"),
    ("closure.closure_table", "closure", "closure_table"),
    ("family.realize", "family", "realize"),
    ("family.check_characteristic", "family", "check_characteristic"),
    ("family.mu_derivative", "family", "mu_derivative"),
    ("family.trace", "family", "trace"),
    ("tensors.gmu_basis", "tensors", "gmu_basis"),
    ("tensors.transform", "tensors", "transform"),
    ("tensors.trace_pair", "tensors", "trace_pair"),
    ("scalar.evaluate", "scalar", "ScalarExpr.evaluate"),
    ("equilibrium.H_derivatives", "equilibrium", "H_derivatives"),
    ("equilibrium.thermo_functions", "equilibrium", "thermo_functions"),
    ("equilibrium.gibbs_residual", "equilibrium", "gibbs_residual"),
    ("equilibrium.integrability_residual", "equilibrium", "integrability_residual"),
    ("equilibrium.project_equilibrium", "equilibrium", "project_equilibrium"),
    ("equilibrium.equilibrium_multipliers", "equilibrium", "equilibrium_multipliers"),
    ("moments.delta_hprime", "moments", "delta_hprime"),
    ("moments.symmetry_residual", "moments", "symmetry_residual"),
    ("moments.kinetic_moment", "moments", "kinetic_moment"),
    ("moments.equilibrium_moments_with_traces", "moments", "equilibrium_moments_with_traces"),
    ("oracle.brute_symmetrize", "oracle", "brute_symmetrize"),
    ("oracle.brute_realize_basis", "oracle", "brute_realize_basis"),
    ("oracle.brute_trace", "oracle", "brute_trace"),
    ("oracle.brute_mu_contract", "oracle", "brute_mu_contract"),
    ("oracle.fd_mu_derivative", "oracle", "fd_mu_derivative"),
)

# modules whose `quad` (scipy.integrate.quad, imported by name) is counted
QUAD_MODULES = ("equilibrium", "moments")


@dataclass
class Span:
    id: int
    parent: int
    name: str
    thread: int
    start: int
    end: int = 0


class Tracer:
    """Installs wrappers, records spans and counts, and restores the originals."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._patches = []
        self.quad_calls = {name: itertools.count() for name in QUAD_MODULES}
        self.integrand_evals = {name: itertools.count() for name in QUAD_MODULES}

    # -- spans -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = 0
        span = Span(next(self._ids), parent, name, threading.get_ident(), time.perf_counter_ns())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_quad(self, module: str, quad):
        calls, evals = self.quad_calls[module], self.integrand_evals[module]

        def counted_quad(func, *args, **kwargs):
            next(calls)

            def integrand(*a):
                next(evals)
                return func(*a)

            return quad(integrand, *args, **kwargs)

        counted_quad.__wrapped__ = quad
        return counted_quad

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if (name == "etclosure" or name.startswith("etclosure.")) and m is not None]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every target in every namespace that holds it."""
        self._main_stack = self._stack()
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for span_name, mod_name, path in TARGETS:
            owner = by_name[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(span_name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(span_name, raw))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        verify = by_name["verify"]
        for suite, fn in list(verify.SUITES.items()):
            wrapper = self._wrap(f"verify.{suite}", fn)
            self._patches.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = wrapper
        for mod_name in QUAD_MODULES:
            owner = by_name[mod_name]
            self._set(owner, "quad", self._wrap_quad(mod_name, owner.quad))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._main_stack = None

    # -- results ---------------------------------------------------------

    def counts(self) -> dict:
        """Current value of every counter, read without changing it."""
        out = {}
        for module in QUAD_MODULES:
            out[f"{module}.quad.calls"] = _peek(self.quad_calls[module])
            out[f"{module}.integrand.evals"] = _peek(self.integrand_evals[module])
        return out

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals (ns)."""
        children = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append((span.start, span.end))
        out = {}
        for span in self.spans:
            covered = 0
            cursor = span.start
            for start, end in sorted(children.get(span.id, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out[span.id] = span.end - span.start - covered
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"id": span.id, "parent": span.parent, "name": span.name,
                                     "thread": span.thread, "start_ns": span.start,
                                     "end_ns": span.end}) + "\n")


def _peek(counter) -> int:
    # itertools.count's repr shows the next value without advancing it
    return int(repr(counter)[len("count("):-1])
