"""The benchmark's tracer patches etclosure by name; those names must exist.

perfbench/tracer.py is read, not imported or changed: its TARGETS and
QUAD_MODULES literals are parsed, and every name they give is looked up in the
package, so a rename fails here instead of breaking a traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_literals() -> dict:
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "QUAD_MODULES"):
                out[name] = ast.literal_eval(node.value)
    return out


def test_tracer_hooks_resolve():
    literals = tracer_literals()
    assert literals["TARGETS"] and literals["QUAD_MODULES"]
    for span, module, path in literals["TARGETS"]:
        owner = importlib.import_module(f"etclosure.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), span
    for module in literals["QUAD_MODULES"]:
        assert callable(importlib.import_module(f"etclosure.{module}").quad)
    tensors = importlib.import_module("etclosure.tensors")
    assert callable(tensors._gmu_structure.cache_info)
