"""Static checks on the package, test and script sources."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src/semiortho/*.py", "tests/*.py", "scripts/*.py")

# imported but unused on purpose: bench/tests checks that the tracer
# replaces this copy of detect_type_gram
ALLOWED_UNUSED = {("src/semiortho/cli.py", "detect_type_gram")}

# what tests may take from the CLI: the entry point and the limits it enforces
CLI_EXPORTS = {"main", "K0_MAX_N", "K0_CLASSIFY_MAX_N"}


def _trees():
    for pattern in SOURCES:
        for path in sorted(ROOT.glob(pattern)):
            yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(), str(path))


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
    unused = {(path, name) for path, tree in _trees() for name in _unused_imports(tree)}
    assert unused == ALLOWED_UNUSED


def test_unused_import_check_sees_a_planted_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nimport os.path as osp\nfrom sys import argv, exit\n"
                     "def f():\n    return exit(argv)\n")
    assert _unused_imports(tree) == {"os", "osp"}


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _unread_private_names(trees) -> set[tuple[str, str]]:
    """Module-level names with one leading underscore that no other top-level
    statement of any of the modules reads, by name or as an attribute."""
    stmts = [(path, stmt) for path, tree in trees for stmt in tree.body]
    reads = [{n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)}
             | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
             for _, stmt in stmts]
    return {(path, name) for k, (path, stmt) in enumerate(stmts)
            for name in _defined_names(stmt)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != k)}


def test_every_private_module_name_is_read():
    src = [(path, tree) for path, tree in _trees() if path.startswith("src/")]
    assert _unread_private_names(src) == set()


def test_private_name_check_sees_a_planted_orphan():
    a = ast.parse("__all__ = []\n_USED = 1\n_ORPHAN, _PAIRED = 2, 3\n_typed: int = 4\n"
                  "def _recursive(x):\n    return _recursive(x - 1)\n"
                  "def _called():\n    return _USED + _PAIRED\n"
                  "class _Shape:\n    pass\n")
    b = ast.parse("import a\nfrom a import _called\nx = _called(a._Shape)\n")
    assert _unread_private_names([("a.py", a), ("b.py", b)]) == {
        ("a.py", "_ORPHAN"), ("a.py", "_typed"), ("a.py", "_recursive")}


def _cli_reads(tree: ast.Module) -> set[str]:
    """Names taken from semiortho.cli, by import or as attributes of the module; a
    monkeypatch target named in a string is not a read."""
    nodes = list(ast.walk(tree))
    cli = {"semiortho.cli"} | {a.asname or a.name for n in nodes if isinstance(n, ast.ImportFrom)
                               and n.module == "semiortho" for a in n.names if a.name == "cli"}
    cli |= {a.asname for n in nodes if isinstance(n, ast.Import)
            for a in n.names if a.name == "semiortho.cli" and a.asname}
    return ({a.name for n in nodes if isinstance(n, ast.ImportFrom) and n.module == "semiortho.cli"
             for a in n.names}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute) and ast.unparse(n.value) in cli})


def test_tests_take_only_the_entry_point_from_the_cli():
    taken = {(path, name) for path, tree in _trees() if path.startswith("tests/")
             for name in _cli_reads(tree)}
    assert {name for _, name in taken} <= CLI_EXPORTS, taken


def test_cli_read_check_sees_planted_reads():
    tree = ast.parse("import semiortho.cli\nimport semiortho.cli as c2\n"
                     "from semiortho import cli\nfrom semiortho.cli import main\n"
                     "cli.random_son_gram(1)\nc2.SUITES\nsemiortho.cli.K0_MAX_N\n"
                     "monkeypatch.setattr(cli, 'apply_braid', None)\n")
    assert _cli_reads(tree) == {"main", "random_son_gram", "SUITES", "K0_MAX_N"}
