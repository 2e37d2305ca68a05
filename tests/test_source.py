"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "semiortho"

# imported but unused on purpose: bench/tests checks that the tracer
# replaces this copy of detect_type_gram
ALLOWED_UNUSED = {("cli", "detect_type_gram")}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return set(imported) - used


def test_no_unused_module_level_imports():
    unused = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))}
    assert unused == ALLOWED_UNUSED


def test_unused_import_check_sees_a_planted_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nimport os.path as osp\nfrom sys import argv, exit\n"
                     "def f():\n    return exit(argv)\n")
    assert _unused_imports(tree) == {"os", "osp"}
