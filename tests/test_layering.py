"""The package's modules import each other only at module level.

An import inside a function body is how a cycle between two modules hides:
the import graph stays acyclic only while every import sits at the top.
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
