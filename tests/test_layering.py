"""Structural rules of the package, checked on its source.

An import inside a function body is how a cycle between two modules hides:
the import graph stays acyclic only while every import sits at the top.

Each module imports on its own: the package itself imports nothing, so a
module that forgets an import fails at once instead of borrowing one.

Only `initializers.py` maps a strategy kind to what it does: every other
module asks the strategy for its guesses instead of testing its kind.

The episode loop leaves each replanning decision to `replan.decide`: it
asks for no guesses and plans and picks nothing itself.

Only `errors.py` decides what counts as a number or an integer in input:
every other module calls its predicates instead of testing for bools, so no
second definition grows back.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import neotraj

PACKAGE = Path(neotraj.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]) if m.name != "__main__")


def _loaded_after(statement: str) -> list[str]:
    """The neotraj modules a fresh interpreter holds after running `statement`."""
    code = f"{statement}; import sys; print(*sorted(m for m in sys.modules if 'neotraj' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    return proc.stdout.split()


def test_package_import_loads_no_module():
    assert _loaded_after("import neotraj") == ["neotraj"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    assert f"neotraj.{module}" in _loaded_after(f"import neotraj.{module}")


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert not found, found


def test_strategy_kind_is_tested_only_in_initializers():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "initializers.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            kind = any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands)
            literal = any(isinstance(o, ast.Constant) and isinstance(o.value, str)
                          for o in operands)
            if kind and literal:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_run_episode_leaves_the_decision_to_decide():
    tree = ast.parse((PACKAGE / "replan.py").read_text())
    episode = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "run_episode")
    found = []
    for node in ast.walk(episode):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", ""))  # f(...) or x.f(...)
        if name in ("plan", "cheapest", "guesses"):
            found.append(f"replan.py:{node.lineno} calls {name}")
    assert not found, found


def test_only_errors_tells_a_bool_from_a_number():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance":
                kinds = node.args[1:] + getattr(node.args[-1], "elts", [])
                if any(getattr(k, "id", "") == "bool" for k in kinds):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found
