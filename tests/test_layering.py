"""Structural rules of the package, checked on its source.

An import inside a function body is how a cycle between two modules hides:
the import graph stays acyclic only while every import sits at the top.

Only `initializers.py` maps a strategy kind to what it does: every other
module asks the strategy for its guesses instead of testing its kind.
"""

import ast
from pathlib import Path

import neotraj

PACKAGE = Path(neotraj.__file__).parent


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
