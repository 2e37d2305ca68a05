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
