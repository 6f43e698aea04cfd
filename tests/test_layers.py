"""The package's modules are the benchmark's layers: perfbench/tracer.py
names them in LAYERS and attributes each span to the module its wrapped
function is defined in, so a module outside LAYERS would drop out of every
layer's share, and a moved entry point would be traced under the wrong one."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tracer_constant(name):
    """The literal assigned to name in perfbench/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py assigns no {name}")


def test_modules_are_the_tracer_layers():
    layers = tracer_constant("LAYERS")
    stems = {p.stem for p in (ROOT / "src" / "gateflow").glob("*.py")} - {"__init__"}
    assert stems == set(layers)
    modules = {f"gateflow.{layer}" for layer in layers}
    for module_name, attr in tracer_constant("ENTRY_POINTS"):
        fn = getattr(importlib.import_module(module_name), attr)
        assert fn.__module__ in modules, (module_name, attr)
