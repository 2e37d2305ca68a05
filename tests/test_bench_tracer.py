"""The benchmark's tracer still finds every function it wraps.

`bench/tracer.py` names functions of the package by module and attribute;
installing it fails on a name the package no longer has, and uninstalling
must put every original back.
"""

import importlib
from pathlib import Path

import semiortho.cli  # noqa: F401  (loads every module of the package)
from semiortho import bilinear_form, mutations
from semiortho.exact_linalg import IntMatrix

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracer")

    def namespaces():
        return {(owner, attr): value for owner in tracing.package_namespaces()
                for attr, value in vars(owner).items()}

    before = namespaces()
    t = tracing.Tracer()
    t.install()  # raises on any name in tracer.LAYERS the package lacks
    try:
        lat = bilinear_form.BilinearLattice.from_rows([[1, 3], [0, 1]])
        bilinear_form.canonical_operator(lat)
        mutations.SonCollection.standard_basis(lat).gram()
        assert t.calls["bilinear_form.canonical_operator"] == 1
        # checked at construction, then read once here
        assert t.calls["mutations.SonCollection.gram"] == 2
        assert t.calls["mutations.is_semiorthonormal"] == 1
        # kappa of the unitriangular Gram is one back substitution: no product
        assert t.calls["exact_linalg.IntMatrix.mul"] == 0
        # the lattice keeps its kappa: asking again solves and multiplies nothing
        inverses, products = (t.calls["exact_linalg.inverse_unimodular"],
                              t.calls["exact_linalg.IntMatrix.mul"])
        bilinear_form.canonical_operator(lat)
        assert t.calls["bilinear_form.canonical_operator"] == 2
        assert t.calls["exact_linalg.inverse_unimodular"] == inverses
        assert t.calls["exact_linalg.IntMatrix.mul"] == products
    finally:
        t.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_one_inverse_per_form(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    t = importlib.import_module("tracer").Tracer()
    t.install()
    try:
        l1 = bilinear_form.BilinearLattice.from_rows([[1, 3, 3], [0, 1, 3], [0, 0, 1]])
        l2 = bilinear_form.BilinearLattice.from_rows([[2, 1], [1, 1]])
        for lat in (l1, l2):
            kappa = bilinear_form.canonical_operator(lat)
            bilinear_form.left_dual(kappa)
            bilinear_form.right_dual(kappa)
            assert bilinear_form.is_isometry(kappa)
            assert bilinear_form.is_reflexive(kappa)
        coupling = IntMatrix.from_rows([[1, 0], [2, -1], [0, 3]])
        bilinear_form.sum_projections(l1, l2, coupling)
        assert t.calls["exact_linalg.inverse_unimodular"] == 2
        u = mutations.AdmissibleSubmodule(l1, [(0, 1, 0)])
        v = (1, -3, 1)  # <e1, v> = 0: in the right orthogonal of U
        mutations.right_projection(u, v)
        mutations.left_projection(u, v)
        w = mutations.mutation_through_submodule(u, v, "R")
        mutations.mutation_through_submodule(u, w, "L")
        mutations.left_projection(u, w)
        assert t.calls["exact_linalg.inverse_unimodular"] == 3
    finally:
        t.uninstall()


def test_tracer_counts_root_candidates(monkeypatch, capsys):
    # the twist Gram of K0(P^3): its kappa is not triangular, so its roots are
    # searched for; the char poly is (x + 1)^4, so +1 misses once and -1 is
    # divided out four times before the polynomial is constant
    monkeypatch.syspath_prepend(str(BENCH))
    t = importlib.import_module("tracer").Tracer()
    t.install()
    try:
        gram = '{"gram": [[1, 4, 10, 20], [0, 1, 4, 10], [0, 0, 1, 4], [0, 0, 0, 1]]}'
        assert semiortho.cli.main(["classify", "--inline", gram]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert t.counters["roots.hits"] == 4
    assert t.counters["roots.candidates"] == 5


def test_k0_classify_ranks_one_power(monkeypatch, capsys):
    # kappa on K0(P^8) is one Jordan block at 1, read off its subdiagonal:
    # kappa_matrix is lower triangular with diagonal 1 and no zero just below
    # it, so the partition needs no rank and no power of kappa - 1
    monkeypatch.syspath_prepend(str(BENCH))
    t = importlib.import_module("tracer").Tracer()
    t.install()
    try:
        assert semiortho.cli.main(["k0", "classify", "-n", "8", "--basis", "twists"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert t.calls["classification._jordan_partition"] == 1
    assert t.calls["exact_linalg.rank_over_q"] == 0
    assert t.calls["exact_linalg.IntMatrix.mul"] == 0


def test_k0_classify_builds_no_gram(monkeypatch, capsys):
    # every basis classifies the integer kappa of k0_pn.kappa_matrix: no Gram,
    # no solve, no rational product, one char poly, and no root search, since
    # that kappa is triangular and its roots are its diagonal
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracer")
    for basis in ("twists", "adams", "binomial"):
        t = tracing.Tracer()
        t.install()
        try:
            assert semiortho.cli.main(["k0", "classify", "-n", "8", "--basis", basis]) == 0
        finally:
            t.uninstall()
        capsys.readouterr()
        assert t.calls["k0_pn.gram_matrix"] == 0, basis
        assert t.calls["classification.kappa_of_gram"] == 0, basis
        assert t.calls["exact_linalg.RatMatrix.mul"] == 0, basis
        assert t.calls["exact_linalg.char_poly_rat"] == 1, basis
        assert t.calls["classification.rational_roots"] == 0, basis
        assert t.counters["roots.candidates"] == 0, basis


def test_tracer_counts_orbit_attempts(monkeypatch, capsys):
    # the orbit search calls both kernels through their module names once per
    # attempted mutation, which new_state_ratio is built from
    monkeypatch.syspath_prepend(str(BENCH))
    t = importlib.import_module("tracer").Tracer()
    t.install()
    try:
        collection = '{"ambient": {"rank": 3, "gram": [[1, 3, 6], [0, 1, 3], [0, 0, 1]]}, ' \
                     '"vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'
        argv = ["orbit", "--inline", collection, "--max-nodes", "50",
                "--height-bound", str(10**30)]
        assert semiortho.cli.main(argv) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    # the search stops at the first state the cap refuses and never mutates a
    # state back along the move that made it
    assert t.counters["orbit.attempts"] == 73
    assert t.calls["mutations._mutate_gram"] == 73
    assert t.calls["mutations._sign_canonical"] == 75  # plus the start and the Markov target
    assert t.calls["mutations.SonCollection.gram"] == 2  # checked at construction, searched from once
    assert t.calls["bilinear_form.pair"] == 9  # the one 3x3 Gram, kept by the collection
    assert t.counters["mutations.orbit_search.nodes"] == 50
    assert t.counters["orbit.new_states"] == 49


def test_verify_sigma_pairs_without_a_series_product(monkeypatch, capsys):
    # both sides of the sigma law are read from integer tables: the moment table
    # and the sigma table, with no product of series
    monkeypatch.syspath_prepend(str(BENCH))
    t = importlib.import_module("tracer").Tracer()
    t.install()
    try:
        assert semiortho.cli.main(["verify", "--suite", "sigma", "--seed", "0"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert t.calls["k0_pn.hilbert_pairing"] == 125
    assert t.calls["k0_pn.sigma_pairing"] == 125
    assert t.calls["k0_pn.DSeries.mul"] == 0
