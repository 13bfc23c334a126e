"""The differential oracles live under ``tests/``; the package never reaches
back into the test tree, so an installed ``repro`` runs without it."""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def test_no_src_module_imports_tests():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports {module}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, module in _imported_modules(ast.parse(path.read_text(), str(path)))
        if module == "tests" or module.startswith("tests.")
    ]
    assert not offenders, "\n".join(offenders)


def test_isolation_check_sees_a_tests_import():
    tree = ast.parse("import numpy\nfrom tests.oracles import AstInterp\n")
    assert [m for _, m in _imported_modules(tree)] == ["numpy", "tests.oracles"]
