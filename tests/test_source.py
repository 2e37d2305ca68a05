"""Static checks on the package, test and script sources."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src/semiortho/*.py", "tests/*.py", "scripts/*.py")
TRACER = "bench/tracer.py"

# imported but unused on purpose: bench/tests checks that the tracer
# replaces this copy of detect_type_gram
ALLOWED_UNUSED = {("src/semiortho/cli.py", "detect_type_gram")}

# the public names of src/, and the public members of its classes ("Class.member"),
# that only tests read so far: no command, script or bench/tracer.py reads them.
# Each waits for the ROADMAP item that gives it a reader; an entry goes when its
# name gets one.
_CLS, _K0 = "src/semiortho/classification.py", "src/semiortho/k0_pn.py"
AWAITING = {
    (_CLS, "biorthogonal_split"): "item 3: the root-space split, first step of `congruent`",
    (_CLS, "standard_type1_gram"): "item 3: the standard forms `congruent` compares against",
    (_CLS, "standard_type2_gram"): "item 3: the standard forms `congruent` compares against",
    (_CLS, "zeta_from_kappa"): "item 3: zeta carries the adjoint involution of a type-1 block",
    (_CLS, "kappa_from_zeta"): "item 3: the way back from zeta to kappa",
    ("src/semiortho/serialize.py", "decode_rat_matrix"):
        "item 3: reads the rational Grams `congruent` takes",
    (_CLS, "type1_isometry_from_odd"): "item 6: the isometry series of a type-1 form",
    (_CLS, "is_type1_isometry"): "item 6: the isometry law f(-z) f(z) = 1",
    (_CLS, "isometry_orbit_invariant"): "item 6: the invariant `k0 invariants` prints",
    (_K0, "integrality_test"): "item 6: the lattice Z[nabla]/nabla^(n+1) of `k0 isometries`",
    (_K0, "eta_pn"): "item 6: the nilpotent part of kappa on K0(P^n)",
    (_K0, "zeta_pn"): "item 6: zeta on K0(P^n), the variable of its isometry series",
    (_K0, "chern_inverse"): "item 6: the class A gamma_n of an integral series A",
    (_K0, "chern"): "item 6: the series A of a class v = A gamma_n that `k0 invariants` takes",
    ("src/semiortho/mutations.py", "mutation_through_submodule"):
        "item 10: the laws of mutation through a submodule, as a `verify` suite",
}

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


def _attributes(node: ast.AST) -> set[str]:
    """The attribute names a node reads, as in `x.name`."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _reads(node: ast.AST) -> set[str]:
    """The names a node reads: loaded names, attributes and the names it imports."""
    nodes = list(ast.walk(node))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | _attributes(node)
            | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})


def _layer_reads(tree: ast.Module) -> set[str]:
    """The identifiers in the "module.name" strings of a module-level LAYERS table,
    the functions bench/tracer.py wraps by name."""
    return {part for stmt in tree.body if "LAYERS" in _defined_names(stmt)
            for n in ast.walk(stmt) if isinstance(n, ast.Constant) and isinstance(n.value, str)
            for part in n.value.split(".")}


def _unread_names(trees, readers: set[str] = frozenset()) -> set[tuple[str, str]]:
    """Module-level names, dunders aside, that no other top-level statement of any of
    the modules reads, by name, as an attribute or by import, and that are not in
    `readers`, the names read from outside the modules."""
    stmts = [(path, stmt) for path, tree in trees for stmt in tree.body]
    reads = [_reads(stmt) for _, stmt in stmts]
    return {(path, name) for k, (path, stmt) in enumerate(stmts)
            for name in _defined_names(stmt)
            if not name.startswith("__") and name not in readers
            and not any(name in r for j, r in enumerate(reads) if j != k)}


def _private(names: set[tuple[str, str]]) -> set[tuple[str, str]]:
    return {(path, name) for path, name in names if name.startswith("_")}


def test_every_private_module_name_is_read():
    src = [(path, tree) for path, tree in _trees() if path.startswith("src/")]
    assert _private(_unread_names(src)) == set()


def test_private_name_check_sees_a_planted_orphan():
    a = ast.parse("__all__ = []\n_USED = 1\n_ORPHAN, _PAIRED = 2, 3\n_typed: int = 4\n"
                  "def _recursive(x):\n    return _recursive(x - 1)\n"
                  "def _called():\n    return _USED + _PAIRED\n"
                  "class _Shape:\n    pass\n")
    b = ast.parse("import a\nfrom a import _called\nx = _called(a._Shape)\n")
    assert _private(_unread_names([("a.py", a), ("b.py", b)])) == {
        ("a.py", "_ORPHAN"), ("a.py", "_typed"), ("a.py", "_recursive")}


def _awaiting_errors(unread: set[tuple[str, str]], awaiting: dict) -> list[str]:
    """What keeps the unread public names from being exactly the keys of `awaiting`,
    each of which must name the ROADMAP item that will read it."""
    return ([f"{path}: {name} has no reader outside the tests"
             for path, name in sorted(unread - awaiting.keys())]
            + [f"{path}: {name} is read now; take it out of AWAITING"
               for path, name in sorted(awaiting.keys() - unread)]
            + [f"{path}: {name} names no ROADMAP item" for (path, name), why
               in sorted(awaiting.items()) if not re.match(r"item \d+: ", why)])


def _public_readers(read=_reads) -> set[str]:
    """What `read` finds in scripts/ and in bench/tracer.py, with the identifiers of
    the tracer's LAYERS strings."""
    tracer = ast.parse((ROOT / TRACER).read_text(), TRACER)
    return set().union(read(tracer), _layer_reads(tracer),
                       *(read(tree) for path, tree in _trees() if path.startswith("scripts/")))


def _members(trees):
    """(path, "Class.member", def) for each public method or property of a module-level
    class whose bases are all classes of the modules: a class that subclasses one from
    outside (an exception, cli._Parser) has hooks that the framework calls."""
    classes = {s.name for _, tree in trees for s in tree.body if isinstance(s, ast.ClassDef)}
    for path, tree in trees:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and all(
                    isinstance(b, ast.Name) and b.id in classes for b in cls.bases):
                yield from ((path, f"{cls.name}.{d.name}", d) for d in cls.body
                            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"))


def _unread_members(trees, readers: set[str] = frozenset()) -> set[tuple[str, str]]:
    """The members of `_members` whose name no statement of the modules outside the
    member's own body reads as an attribute, and that are not in `readers`.

    An AST has no types: a method counts as read when any `x.name` has its name, so a
    name defined on two classes counts as read for both, and a local variable of the
    same name reads nothing."""
    units = [u for _, tree in trees for stmt in tree.body
             for u in (stmt.body + stmt.bases + stmt.decorator_list
                       if isinstance(stmt, ast.ClassDef) else [stmt])]
    reads = [(u, _attributes(u)) for u in units]
    return {(path, name) for path, name, d in _members(trees)
            if (attr := name.split(".")[1]) not in readers
            and not any(attr in r for u, r in reads if u is not d)}


def test_every_public_module_name_has_a_reader():
    """Module-level names, and the public methods and properties of the classes, that
    only tests read are exactly the keys of AWAITING."""
    src = [(path, tree) for path, tree in _trees() if path.startswith("src/")]
    unread = {(path, name) for path, name in _unread_names(src, _public_readers())
              if not name.startswith("_")}
    unread |= _unread_members(src, _public_readers(_attributes))
    assert _awaiting_errors(unread, AWAITING) == []


def test_public_name_check_sees_planted_reads_and_a_stale_entry():
    a = ast.parse("def helper():\n    return 1\n"
                  "def orphan():\n    return helper()\n"
                  "def traced():\n    return 2\n"
                  "class Kernel:\n    pass\n")
    script = ast.parse("from a import Kernel\n")
    tracer = ast.parse('LAYERS = {"a": ["traced", "Kernel.mul"]}\n'
                       '"""orphan, named in a string outside LAYERS"""\n')
    readers = _reads(script) | _reads(tracer) | _layer_reads(tracer)
    assert readers == {"Kernel", "a", "traced", "mul"}
    unread = _unread_names([("a.py", a)], readers)
    assert unread == {("a.py", "orphan")}
    assert _awaiting_errors(unread, {("a.py", "orphan"): "item 1: a reader"}) == []
    assert _awaiting_errors(unread, {}) == ["a.py: orphan has no reader outside the tests"]
    stale = {("a.py", "orphan"): "item 1: a reader", ("a.py", "traced"): "item 2: read now"}
    assert _awaiting_errors(unread, stale) == ["a.py: traced is read now; take it out of AWAITING"]
    assert _awaiting_errors(unread, {("a.py", "orphan"): "some day"}) == [
        "a.py: orphan names no ROADMAP item"]


def test_member_check_sees_planted_reads_and_exempts_framework_subclasses():
    a = ast.parse("import argparse\n"
                  "class Kernel:\n"
                  "    def mul(self):\n        return 1\n"
                  "    def used(self):\n        return 2\n"
                  "    def recursive(self, k):\n        return self.recursive(k - 1)\n"
                  "    def row(self):\n        return 3\n"
                  "    def _private(self):\n        return 4\n"
                  "    def __len__(self):\n        return 0\n"
                  "class Parser(argparse.ArgumentParser):\n"
                  "    def error(self, message):\n        pass\n"
                  "class Child(Kernel):\n"
                  "    def extra(self):\n        return 5\n"
                  "def rows(m):\n    row = m.entries\n    return row\n")
    b = ast.parse("from a import Kernel\nKernel().used()\n")
    tracer = ast.parse('LAYERS = {"a": ["Kernel.mul"]}\n')
    trees = [("a.py", a), ("b.py", b)]
    unread = {("a.py", "Kernel.recursive"), ("a.py", "Kernel.row"), ("a.py", "Child.extra")}
    assert _unread_members(trees) == unread | {("a.py", "Kernel.mul")}
    assert _unread_members(trees, _attributes(tracer) | _layer_reads(tracer)) == unread


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
