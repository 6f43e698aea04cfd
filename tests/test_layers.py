"""The package's modules are the benchmark's layers: perfbench/tracer.py
names them in LAYERS and attributes each span to the module its wrapped
function is defined in, so a module outside LAYERS would drop out of every
layer's share, and a moved entry point would be traced under the wrong one.
The benchmark's copy of the acceptance cases is checked here too, read from
its file like those names, so perfbench/ is never imported by the tests."""

import ast
import importlib
from pathlib import Path

from conftest import BENCH_CASES

ROOT = Path(__file__).resolve().parents[1]


def perfbench_constant(filename, name):
    """The literal assigned to name in perfbench/filename, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} assigns no {name}")


def test_modules_are_the_tracer_layers():
    layers = perfbench_constant("tracer.py", "LAYERS")
    stems = {p.stem for p in (ROOT / "src" / "gateflow").glob("*.py")} - {"__init__"}
    assert stems == set(layers)
    modules = {f"gateflow.{layer}" for layer in layers}
    for module_name, attr in perfbench_constant("tracer.py", "ENTRY_POINTS"):
        fn = getattr(importlib.import_module(module_name), attr)
        assert fn.__module__ in modules, (module_name, attr)


def test_acceptance_cases_are_the_bench_cases():
    # acceptance_checked times the runs bench_runs checks, in the same order:
    # an edit to one list alone would silently time other runs than tier-1 checks.
    assert tuple(BENCH_CASES.values()) == perfbench_constant("worker.py", "ACCEPTANCE_CASES")
