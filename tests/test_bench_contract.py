"""The benchmark in perfbench/ reaches into gform_lab by name: the tracer wraps
the functions listed in its TRACED table and the worker calls the package's
exports. A renamed or deleted function would only show as a KeyError or an
AttributeError inside a benchmark run, so these tests read both files (with
ast, without importing or writing anything there) and resolve every name.
"""

import ast
import importlib
from pathlib import Path

import gform_lab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _traced_table():
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


def test_every_traced_path_resolves():
    table = _traced_table()
    assert table
    for metric, module_name, path in table:
        assert metric.startswith(f"{module_name}."), metric
        home = importlib.import_module(f"gform_lab.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            home = getattr(home, part)
        # the tracer looks the function up in the dict of its owner
        assert attr in vars(home), f"{module_name}.{path}"
        assert callable(vars(home)[attr]), f"{module_name}.{path}"


def test_every_name_the_worker_uses_is_exported():
    tree = _tree("worker.py")
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "gl"
    }
    assert used
    missing = sorted(name for name in used if not hasattr(gform_lab, name))
    assert missing == []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gform_lab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
