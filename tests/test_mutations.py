"""Collections, projections, pair mutations, braid identities, orbit search."""

import random
from fractions import Fraction

import pytest

from semiortho.bilinear_form import BilinearLattice, pair
from semiortho.exact_linalg import IntMatrix, RatMatrix, ShapeError
from semiortho.mutations import (
    AdmissibleSubmodule,
    BraidWord,
    InadmissibleError,
    MembershipError,
    SonCollection,
    _mutate_gram,
    _sign_canonical,
    apply_braid,
    collection_height,
    is_semiorthonormal,
    left_projection,
    mutate_pair,
    mutation_through_submodule,
    orbit_search,
    right_projection,
)

from conftest import random_son_gram, random_son_lattice, random_unimodular


def random_son_collection(rng, n):
    """Random semiorthonormal collection in a non-trivial ambient form."""
    s = random_unimodular(rng, n)
    core = random_son_gram(rng, n, bound=3)
    sinv_t = IntMatrix.from_rows(
        [[int(x) for x in row] for row in
         _int_inverse(s).transpose().entries])
    ambient = BilinearLattice(sinv_t * core * _int_inverse(s))
    return SonCollection.from_vectors(ambient, [s.transpose().row(i) for i in range(n)])


def _int_inverse(m):
    from semiortho.exact_linalg import inverse_unimodular
    return inverse_unimodular(m)


def test_random_collections_are_semiorthonormal():
    rng = random.Random(1)
    for _ in range(20):
        c = random_son_collection(rng, rng.randint(2, 5))
        assert is_semiorthonormal(c)


def test_standard_basis_and_gram():
    lat = BilinearLattice.from_rows([[1, 3, 6], [0, 1, 3], [0, 0, 1]])
    c = SonCollection.standard_basis(lat)
    assert c.gram().entries == lat.gram.entries
    assert is_semiorthonormal(c)
    assert collection_height(c.gram().entries) == 6
    flipped = c.flip_sign(0)
    g = flipped.gram()
    assert (g[0, 1], g[0, 2], g[1, 2]) == (-3, -6, 3)


def test_admissible_submodule_validation():
    lat = BilinearLattice.from_rows([[1, 3], [0, 1]])
    AdmissibleSubmodule.from_basis(lat, [(1, 0)])
    with pytest.raises(InadmissibleError):
        AdmissibleSubmodule.from_basis(lat, [(1, 1)])  # <v,v> = 5
    # every construction path checks the restricted form, not only from_basis
    with pytest.raises(InadmissibleError):
        AdmissibleSubmodule(BilinearLattice.from_rows([[1, 2], [0, 1]]), ((1, 1),))  # <v,v> = 4
    AdmissibleSubmodule.from_basis(lat, [(0, 1)])
    # (3/2, 0) is not a lattice vector, though it truncates to the admissible (1, 0)
    with pytest.raises(ValueError, match="integer"):
        AdmissibleSubmodule.from_basis(lat, [(Fraction(3, 2), 0)])
    with pytest.raises(ValueError, match="integer"):
        SonCollection.from_vectors(lat, [(1.5, 0)])
    assert SonCollection.from_vectors(lat, [(Fraction(2, 2), 0)]).vectors == ((1, 0),)


def test_projections_characterized_by_pairings():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        lat = random_son_lattice(rng, n)
        k = rng.randint(1, n - 1)
        basis = [tuple(int(i == j) for j in range(n)) for i in range(k)]
        u = AdmissibleSubmodule.from_basis(lat, basis)
        v = [rng.randint(-4, 4) for _ in range(n)]
        rho = right_projection(u, v)
        lam = left_projection(u, v)
        for b in basis:
            assert pair(lat, b, rho) == pair(lat, b, v)
            assert pair(lat, lam, b) == pair(lat, v, b)


def test_projections_match_fraction_solve():
    # oracle: the coordinates solved over Q by RatMatrix.solve
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        c = random_son_collection(rng, n)
        lat, basis = c.ambient, c.vectors[:rng.randint(0, n)]
        u = AdmissibleSubmodule.from_basis(lat, basis)
        v = [rng.randint(-5, 5) for _ in range(n)]
        g = RatMatrix.from_rows(u.form.gram.entries)
        for project, gu, rhs in (
                (right_projection, g, [pair(lat, b, v) for b in basis]),
                (left_projection, g.transpose(), [pair(lat, v, b) for b in basis])):
            got = project(u, v)
            if not basis:
                assert got == (0,) * n
                continue
            x = gu.solve(RatMatrix.from_rows([[t] for t in rhs])).transpose().row(0)
            assert got == tuple(sum(xi * b[k] for xi, b in zip(x, basis)) for k in range(n))
            assert all(type(t) is int for t in got)


def test_mutation_through_submodule_inverse_pair():
    lat = BilinearLattice.from_rows([[1, 2, 1], [0, 1, 3], [0, 0, 1]])
    u = AdmissibleSubmodule.from_basis(lat, [(0, 1, 0)])
    rng = random.Random(5)
    for _ in range(20):
        # subtracting the right projection lands in the right orthogonal of U
        raw = [rng.randint(-4, 4) for _ in range(3)]
        rho = right_projection(u, raw)
        v = tuple(a - b for a, b in zip(raw, rho))
        assert pair(lat, (0, 1, 0), v) == 0
        w = mutation_through_submodule(u, v, "R")
        assert pair(lat, w, (0, 1, 0)) == 0  # lands in the left orthogonal
        back = mutation_through_submodule(u, w, "L")
        assert back == v
        # mutation preserves self-pairing (isometry between the orthogonals)
        assert pair(lat, w, w) == pair(lat, v, v)


def test_mutation_membership_errors():
    lat = BilinearLattice.from_rows([[1, 2], [0, 1]])
    u = AdmissibleSubmodule.from_basis(lat, [(1, 0)])
    with pytest.raises(MembershipError):
        mutation_through_submodule(u, (1, 1), "L")  # <v, e0> = 1, not left-orthogonal
    with pytest.raises(ValueError):
        mutation_through_submodule(u, (0, 0), "X")
    # through U = 0 a mutation is the identity, on vectors of the ambient rank only
    empty = AdmissibleSubmodule.from_basis(BilinearLattice.standard(2), [])
    assert mutation_through_submodule(empty, (1, 2), "L") == (1, 2)
    for direction in ("L", "R"):
        with pytest.raises(ShapeError):
            mutation_through_submodule(empty, (1, 2, 3, 4), direction)
    with pytest.raises(ValueError):
        mutation_through_submodule(empty, (1, 2), "X")
    # vectors are never truncated: int() would read (1.5, -3.0, 1.5) as the
    # right-orthogonal (1, -3, 1) and (1/2, 0, 0) as 0
    lat3 = BilinearLattice.from_rows([[1, 2, 0], [0, 1, 3], [0, 0, 1]])
    u3 = AdmissibleSubmodule.from_basis(lat3, [(0, 1, 0)])
    with pytest.raises(ValueError, match="integer"):
        mutation_through_submodule(u3, (1.5, -3.0, 1.5), "R")
    for project in (right_projection, left_projection):
        with pytest.raises(ValueError, match="integer"):
            project(u3, (Fraction(1, 2), 0, 0))
    # integral non-int entries still pass
    assert mutation_through_submodule(u3, (1.0, -3.0, Fraction(2, 2)), "R") \
        == mutation_through_submodule(u3, (1, -3, 1), "R")


def test_pair_mutation_rules():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 5)
        c = random_son_collection(rng, n)
        nu = rng.randint(1, n - 1)
        a, b = c.vectors[nu - 1], c.vectors[nu]
        ab = pair(c.ambient, a, b)
        left = mutate_pair(c, nu, "L")
        assert left.vectors[nu] == a
        assert left.vectors[nu - 1] == tuple(x - ab * y for x, y in zip(b, a))
        assert is_semiorthonormal(left)
        right = mutate_pair(c, nu, "R")
        assert right.vectors[nu - 1] == b
        assert is_semiorthonormal(right)
    with pytest.raises(IndexError):
        mutate_pair(random_son_collection(rng, 3), 3, "L")


def test_braid_relations():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(3, 5)
        c = random_son_collection(rng, n)
        for nu in range(1, n):
            assert apply_braid(c, BraidWord.parse(f"L{nu} R{nu}")).vectors == c.vectors
            assert apply_braid(c, BraidWord.parse(f"R{nu} L{nu}")).vectors == c.vectors
        for nu in range(2, n):
            lhs = apply_braid(c, BraidWord.parse(f"L{nu} L{nu-1} L{nu}"))
            rhs = apply_braid(c, BraidWord.parse(f"L{nu-1} L{nu} L{nu-1}"))
            assert lhs.vectors == rhs.vectors
        # far commutation
        for nu in range(1, n):
            for mu in range(nu + 2, n):
                lhs = apply_braid(c, BraidWord.parse(f"L{nu} L{mu}"))
                rhs = apply_braid(c, BraidWord.parse(f"L{mu} L{nu}"))
                assert lhs.vectors == rhs.vectors


def test_braid_word_parsing():
    w = BraidWord.parse("L1 R2  l3")
    assert str(w) == "L1 R2 L3"
    assert BraidWord.parse("").letters == ()
    for bad in ("X1", "L0", "L", "L1a"):
        with pytest.raises(ValueError):
            BraidWord.parse(bad)


def test_orbit_search_markov_form():
    lat = BilinearLattice.from_rows([[1, 3, 6], [0, 1, 3], [0, 0, 1]])
    c = SonCollection.standard_basis(lat)
    report = orbit_search(c, height_bound=60, max_nodes=2000)
    assert report.reached_markov_canonical
    assert report.truncated  # the orbit is infinite; the bound cuts it
    assert report.orbit_size > 1


def test_orbit_search_trivial_cases():
    c = SonCollection.standard_basis(BilinearLattice.standard(1))
    r = orbit_search(c, height_bound=10, max_nodes=10)
    assert r.orbit_size == 1 and not r.truncated
    c2 = SonCollection.standard_basis(
        BilinearLattice.from_rows([[1, 5, 0], [0, 1, 0], [0, 0, 1]]))
    r2 = orbit_search(c2, height_bound=0, max_nodes=100)
    assert r2.truncated
    # a state whose height equals the bound is still expanded
    c3 = SonCollection.standard_basis(BilinearLattice.from_rows([[1, 5], [0, 1]]))
    r3 = orbit_search(c3, height_bound=5, max_nodes=10)
    assert r3.orbit_size == 1 and not r3.truncated
    assert orbit_search(c3, height_bound=4, max_nodes=10).truncated
    with pytest.raises(ValueError):
        orbit_search(c, height_bound=10, max_nodes=0)


def test_orbit_search_finite_orbit():
    # identity ambient form: mutations only permute/negate basis vectors
    c = SonCollection.standard_basis(BilinearLattice.standard(3))
    r = orbit_search(c, height_bound=10, max_nodes=1000)
    assert not r.truncated
    assert r.orbit_size == 1  # sign-canonical Gram never changes


def _sign_canonical_scan(g):
    """Reference: the lex-least Gram over all 2^n sign choices."""
    n = len(g)
    best = None
    for mask in range(1 << n):
        s = [1 - 2 * ((mask >> i) & 1) for i in range(n)]
        cand = tuple(tuple(s[i] * s[j] * g[i][j] for j in range(n)) for i in range(n))
        if best is None or cand < best:
            best = cand
    return best


def test_sign_canonical_matches_full_scan():
    rng = random.Random(13)
    for k in range(2400):
        n = k % 8
        full = k % 16 >= 8  # upper-triangular Grams in one half, full ones in the other
        zero_rate = rng.choice((0.0, 0.3, 0.7))
        g = tuple(tuple(
            (rng.randint(-5, 5) if rng.random() >= zero_rate else 0)
            if (full or j > i) and i != j else int(i == j)
            for j in range(n)) for i in range(n))
        assert _sign_canonical(g) == _sign_canonical_scan(g), g


def test_mutate_gram_matches_mutated_collection():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(2, 6)
        c = random_son_collection(rng, n)
        g = c.gram().entries
        for nu in range(1, n):
            for d in ("L", "R"):
                assert _mutate_gram(g, nu, d) == mutate_pair(c, nu, d).gram().entries
