"""Static checks on the package, test and script sources."""

import ast
import re
from functools import cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src/semiortho/*.py", "tests/*.py", "scripts/*.py")
TRACER = "bench/tracer.py"

# imported but unused on purpose: bench/tests checks that the tracer
# replaces this copy of detect_type_gram
ALLOWED_UNUSED = {("src/semiortho/cli.py", "detect_type_gram")}

# the names of src/, and the public members of its classes ("Class.member"), that
# only tests read so far: no command, script or bench/tracer.py reads them, nor
# anything of src/ that they read.  Each waits for the ROADMAP item that gives it a
# reader; an entry goes when its name gets one.
_CLS, _K0, _MUT = ("src/semiortho/classification.py", "src/semiortho/k0_pn.py",
                   "src/semiortho/mutations.py")
AWAITING = {
    (_CLS, "biorthogonal_split"): "item 3: the root-space split, first step of `congruent`",
    (_CLS, "standard_type1_gram"): "item 3: the standard forms `congruent` compares against",
    (_CLS, "standard_type2_gram"): "item 3: the standard forms `congruent` compares against",
    (_CLS, "zeta_from_kappa"): "item 3: zeta carries the adjoint involution of a type-1 block",
    (_CLS, "kappa_from_zeta"): "item 3: the way back from zeta to kappa",
    (_CLS, "SplitSummand"): "item 3: one summand of `biorthogonal_split`",
    (_CLS, "IrrationalSpectrumError"): "item 3: `biorthogonal_split` on an irrational spectrum",
    ("src/semiortho/exact_linalg.py", "RatMatrix.scale"):
        "item 3: the sign eps in `zeta_from_kappa` and `kappa_from_zeta`",
    ("src/semiortho/serialize.py", "decode_rat_matrix"):
        "item 3: reads the rational Grams `congruent` takes",
    (_CLS, "type1_isometry_from_odd"): "item 6: the isometry series of a type-1 form",
    (_CLS, "is_type1_isometry"): "item 6: the isometry law f(-z) f(z) = 1",
    (_CLS, "isometry_orbit_invariant"): "item 6: the invariant `k0 invariants` prints",
    ("src/semiortho/bilinear_form.py", "is_reflexive"):
        "item 6: `isometry_orbit_invariant` takes only operators of the canonical algebra",
    (_CLS, "odd_coefficient_count"): "item 6: the free parameters of `type1_isometry_from_odd`",
    (_K0, "integrality_test"): "item 6: the lattice Z[nabla]/nabla^(n+1) of `k0 isometries`",
    (_K0, "eta_pn"): "item 6: the nilpotent part of kappa on K0(P^n)",
    (_K0, "zeta_pn"): "item 6: zeta on K0(P^n), the variable of its isometry series",
    (_K0, "chern_inverse"): "item 6: the class A gamma_n of an integral series A",
    (_K0, "chern"): "item 6: the series A of a class v = A gamma_n that `k0 invariants` takes",
    (_K0, "kappa_pn"): "item 6: kappa on K0(P^n) as a series, whose nilpotent part is `eta_pn`",
    (_K0, "NumPoly"): "item 6: the class v that `chern` takes and `chern_inverse` gives",
    (_K0, "NumPoly.from_coords"): "item 6: `chern_inverse` builds its class with it",
    (_K0, "DSeries.nabla_coords"): "item 6: `chern_inverse` and `integrality_test` read it",
    (_K0, "DSeries.scale"): "item 6: the sign (-1)^n of `kappa_pn` and `eta_pn`",
    (_K0, "DSeries.negate_variable"): "item 6: f(-z) in the isometry law of `is_type1_isometry`",
    (_K0, "_substitute"): "item 6: the change of variable of `chern` and `DSeries.nabla_coords`",
    (_K0, "_d_in_nabla"): "item 6: D as a series in nabla, for `DSeries.nabla_coords`",
    (_MUT, "mutation_through_submodule"):
        "item 10: the laws of mutation through a submodule, as a `verify` suite",
    (_MUT, "AdmissibleSubmodule"): "item 10: the submodule U of `mutation_through_submodule`",
    (_MUT, "AdmissibleSubmodule.basis_matrix"): "item 10: the projections read it",
    (_MUT, "InadmissibleError"): "item 10: a U whose restricted Gram is not unimodular",
    (_MUT, "MembershipError"): "item 10: a vector outside the orthogonal it is mutated from",
    (_MUT, "left_projection"): "item 10: the L mutation through a submodule",
    (_MUT, "right_projection"): "item 10: the R mutation through a submodule",
}

# what tests may take from the CLI: the entry point, the limits it enforces and
# the command-line reader, which tests compare against the argparse parser it replaced
CLI_EXPORTS = {"main", "K0_MAX_N", "K0_CLASSIFY_MAX_N", "_read"}


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


def _reads(node: ast.AST, imports: bool = True) -> set[str]:
    """The names a node reads: loaded names, attributes and, with `imports`, the
    names it imports.  A unit of src/ reads what it imports only where it uses it,
    which may be inside an AWAITING name; scripts/ and bench/tracer.py are read
    whole, and their imports count."""
    nodes = list(ast.walk(node))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | _attributes(node)
            | {a.name for n in nodes if imports and isinstance(n, ast.ImportFrom)
               for a in n.names})


def _layer_reads(tree: ast.Module) -> set[str]:
    """The identifiers in the "module.name" strings of a module-level LAYERS table,
    the functions bench/tracer.py wraps by name."""
    return {part for stmt in tree.body if "LAYERS" in _defined_names(stmt)
            for n in ast.walk(stmt) if isinstance(n, ast.Constant) and isinstance(n.value, str)
            for part in n.value.split(".")}


def _private(names: set[tuple[str, str]]) -> set[tuple[str, str]]:
    return {(path, name) for path, name in names if name.startswith("_")}


def test_every_private_module_name_is_read():
    """The private module-level names that only AWAITING names read are exactly the
    private keys of AWAITING."""
    awaiting = {key: why for key, why in AWAITING.items() if key[1].startswith("_")}
    assert _awaiting_errors(_private(_src_unread()), awaiting) == []


def test_private_name_check_sees_a_planted_orphan():
    a = ast.parse("__all__ = []\n_USED = 1\n_ORPHAN, _PAIRED = 2, 3\n_typed: int = 4\n"
                  "def _recursive(x):\n    return _recursive(x - 1)\n"
                  "def _called():\n    return _USED + _PAIRED\n"
                  "class _Shape:\n    pass\n")
    b = ast.parse("import a\nfrom a import _called\nprint(_called(a._Shape))\n")
    assert _private(_unread([("a.py", a), ("b.py", b)])) == {
        ("a.py", "_ORPHAN"), ("a.py", "_typed"), ("a.py", "_recursive")}


def _awaiting_errors(unread: set[tuple[str, str]], awaiting: dict) -> list[str]:
    """What keeps the unread names from being exactly the keys of `awaiting`,
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


class _Unit(NamedTuple):
    """A piece of a module whose reads count: a top-level statement, or a piece of a
    module-level class (a statement of its body, a base, a keyword or a decorator)."""

    stmt: ast.stmt  # the top-level statement it belongs to
    node: ast.AST
    names: set[tuple[str, str]]  # what its statement defines, as (path, name)
    member: tuple[str, str] | None  # (path, "Class.member") for a checked member
    reads: set[str]
    attributes: set[str]


def _units(trees) -> list[_Unit]:
    """The units of the modules.  A member is checked when it is a public method or
    property of a class whose bases are all classes of the modules: a class that
    subclasses one from outside (an exception, a NamedTuple such as cli._Arg) has
    hooks or members that the framework defines."""
    classes = {s.name for _, tree in trees for s in tree.body if isinstance(s, ast.ClassDef)}
    units = []
    for path, tree in trees:
        for stmt in tree.body:
            names = {(path, name) for name in _defined_names(stmt)}
            if not isinstance(stmt, ast.ClassDef):
                units.append(_Unit(stmt, stmt, names, None, _reads(stmt, imports=False),
                                   _attributes(stmt)))
                continue
            checked = all(isinstance(b, ast.Name) and b.id in classes for b in stmt.bases)
            for node in stmt.body + stmt.bases + stmt.keywords + stmt.decorator_list:
                member = (path, f"{stmt.name}.{node.name}") if checked and isinstance(
                    node, ast.FunctionDef) and not node.name.startswith("_") else None
                units.append(_Unit(stmt, node, names, member, _reads(node, imports=False),
                                   _attributes(node)))
    return units


def _unread(trees, readers: set[str] = frozenset(), attr_readers: set[str] = frozenset(),
            awaiting=frozenset()) -> set[tuple[str, str]]:
    """The module-level names (dunders aside) and the checked members of the modules
    that no live unit reads.

    A name counts as read when a unit of another top-level statement reads it, by name
    or as an attribute, but not by import alone, or when it is in `readers`, the names read from
    outside the modules.  A member counts as read when another unit reads its name as
    an attribute, or when it is in `attr_readers`.  A unit is dead when its member, or
    every name its statement defines, is dead: a key of `awaiting`, which only tests
    read so far, or unread.  What a dead unit reads is no read, so the check repeats
    until no more names fall out.

    An AST has no types: a method counts as read when any `x.name` has its name, so a
    name defined on two classes counts as read for both, and a local variable of the
    same name reads nothing."""
    units = _units(trees)
    defined = {key: u.stmt for u in units for key in u.names if not key[1].startswith("__")}
    dead = set(awaiting)
    while True:
        live = [u for u in units if (not u.names or u.names - dead) and u.member not in dead]
        unread = {key for key, stmt in defined.items() if key[1] not in readers
                  and not any(key[1] in u.reads for u in live if u.stmt is not stmt)}
        unread |= {u.member for u in units if u.member
                   and (attr := u.member[1].split(".")[1]) not in attr_readers
                   and not any(attr in v.attributes for v in live if v is not u)}
        if unread <= dead:
            return unread
        dead |= unread


@cache
def _src_unread() -> frozenset[tuple[str, str]]:
    """`_unread` on src/, with the reads of scripts/ and bench/tracer.py and the
    AWAITING names dead from the start; both reader checks read it."""
    src = [(path, tree) for path, tree in _trees() if path.startswith("src/")]
    return frozenset(_unread(src, _public_readers(), _public_readers(_attributes),
                             AWAITING.keys()))


def test_every_public_module_name_has_a_reader():
    """The public module-level names, and the public methods and properties of the
    classes, that only tests and AWAITING names read are exactly the public keys of
    AWAITING."""
    unread = _src_unread()
    awaiting = {key: why for key, why in AWAITING.items() if not key[1].startswith("_")}
    assert _awaiting_errors(unread - _private(unread), awaiting) == []


def test_public_name_check_sees_planted_reads_and_a_stale_entry():
    a = ast.parse("def helper():\n    return 1\n"
                  "def orphan():\n    return helper()\n"
                  "def traced():\n    return helper() + 1\n"
                  "class Kernel:\n    pass\n")
    script = ast.parse("from a import Kernel\n")
    tracer = ast.parse('LAYERS = {"a": ["traced", "Kernel.mul"]}\n'
                       '"""orphan, named in a string outside LAYERS"""\n')
    readers = _reads(script) | _reads(tracer) | _layer_reads(tracer)
    assert readers == {"Kernel", "a", "traced", "mul"}
    unread = _unread([("a.py", a)], readers)
    assert unread == {("a.py", "orphan")}
    assert _awaiting_errors(unread, {("a.py", "orphan"): "item 1: a reader"}) == []
    assert _awaiting_errors(unread, {}) == ["a.py: orphan has no reader outside the tests"]
    stale = {("a.py", "orphan"): "item 1: a reader", ("a.py", "traced"): "item 2: read now"}
    assert _awaiting_errors(unread, stale) == ["a.py: traced is read now; take it out of AWAITING"]
    assert _awaiting_errors(unread, {("a.py", "orphan"): "some day"}) == [
        "a.py: orphan names no ROADMAP item"]


def _members(names: set[tuple[str, str]]) -> set[tuple[str, str]]:
    return {(path, name) for path, name in names if "." in name}


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
    assert _members(_unread(trees)) == unread | {("a.py", "Kernel.mul")}
    assert _members(_unread(trees, attr_readers=_attributes(tracer) | _layer_reads(tracer))) \
        == unread


def test_reader_check_drops_what_only_awaiting_names_read():
    # waiting is AWAITING; helper is read only by waiting, inner only by helper, the
    # member Series.nabla only by waiting and _substitute only by that member
    a = ast.parse("def waiting(s):\n    return helper() + s.nabla()\n"
                  "def helper():\n    return inner()\n"
                  "def inner():\n    return 1\n"
                  "def _substitute():\n    return 2\n"
                  "class Series:\n"
                  "    def used(self):\n        return 3\n"
                  "    def nabla(self):\n        return _substitute()\n"
                  "def main():\n    return Series().used()\n")
    trees = [("a.py", a)]
    awaiting = {("a.py", "waiting"): "item 1: a reader"}
    unread = _unread(trees, {"main"}, awaiting=awaiting.keys())
    assert unread == {("a.py", "waiting"), ("a.py", "helper"), ("a.py", "inner"),
                      ("a.py", "Series.nabla"), ("a.py", "_substitute")}
    # an unread name is dropped whether AWAITING lists it or not
    assert _unread(trees, {"main"}) == unread
    assert _awaiting_errors(unread, awaiting) == [
        f"a.py: {name} has no reader outside the tests"
        for name in ("Series.nabla", "_substitute", "helper", "inner")]


def test_reader_check_counts_no_import_as_a_read():
    # b imports reflexive and uses it only inside waiting, which is AWAITING; a
    # script that imports a name reads it
    a = ast.parse("def reflexive():\n    return 1\n")
    b = ast.parse("from a import reflexive\n"
                  "def waiting():\n    return reflexive()\n"
                  "def main():\n    return 2\n")
    trees = [("a.py", a), ("b.py", b)]
    unread = {("a.py", "reflexive"), ("b.py", "waiting")}
    assert _unread(trees, {"main"}, awaiting={("b.py", "waiting")}) == unread
    script = ast.parse("from a import reflexive as r\n")
    assert _unread(trees, {"main"} | _reads(script), awaiting={("b.py", "waiting")}) == \
        {("b.py", "waiting")}


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
