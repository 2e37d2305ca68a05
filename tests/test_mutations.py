"""Collections, projections, pair mutations, braid identities, orbit search."""

import random
from collections import deque
from fractions import Fraction

import pytest

from semiortho import mutations
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
    # the constructor itself checks
    std = BilinearLattice.standard(2)
    with pytest.raises(ShapeError):
        SonCollection(std, ((1, 0, 5), (0, 1, 7)))
    with pytest.raises(ValueError, match="integer"):
        SonCollection(std, ((1.5, 0), (0, 1)))
    assert SonCollection(std, [[Fraction(2, 2), 0], (0, 1)]).vectors == ((1, 0), (0, 1))


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
    # a caller that has the Gram already passes it on
    assert orbit_search(c, height_bound=60, max_nodes=2000, gram=c.gram()) == report


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
    # the unit diagonal counts: every Gram of rank >= 1 has height >= 1
    for n in (1, 3):
        ident = SonCollection.standard_basis(BilinearLattice.standard(n))
        r0 = orbit_search(ident, height_bound=0, max_nodes=10)
        assert r0.orbit_size == 1 and r0.truncated
        assert not orbit_search(ident, height_bound=1, max_nodes=10).truncated
    empty = orbit_search(SonCollection.standard_basis(BilinearLattice.standard(0)),
                         height_bound=0, max_nodes=10)
    assert empty.orbit_size == 1 and not empty.truncated and empty.canonical_gram == ()


def test_orbit_search_finite_orbit():
    # identity ambient form: mutations only permute/negate basis vectors
    c = SonCollection.standard_basis(BilinearLattice.standard(3))
    r = orbit_search(c, height_bound=10, max_nodes=1000)
    assert not r.truncated
    assert r.orbit_size == 1  # sign-canonical Gram never changes


def _flat(rows):
    """Strict upper triangle of a Gram, row-major: the orbit search's state."""
    return tuple(x for i, row in enumerate(rows) for x in row[i + 1:])


def _expand(s, n):
    """Unitriangular Gram with strict upper triangle s."""
    flat = iter(s)
    return tuple(tuple(1 if j == i else next(flat) if j > i else 0 for j in range(n))
                 for i in range(n))


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


def _full_sign_canonical(g):
    """The former union-find over a full n x n Gram, kept as a reference."""
    n = len(g)
    comp = list(range(n))
    sign = [1] * n
    for i, row in enumerate(g):
        for j, x in enumerate(row):
            if x == 0 or comp[i] == comp[j]:
                continue
            old, flip = comp[j], sign[i] * sign[j] * x > 0
            for k in range(n):
                if comp[k] == old:
                    comp[k] = comp[i]
                    if flip:
                        sign[k] = -sign[k]
    return tuple(tuple(s * t * x for t, x in zip(sign, row))
                 for s, row in zip(sign, g))


def _full_mutate_gram(g, nu, direction):
    """The former full-matrix Gram mutation, kept as a reference."""
    a, b = nu - 1, nu
    ab = g[a][b]
    rows = [list(r) for r in g]
    if direction == "L":
        for r in rows:
            r[a], r[b] = r[b] - ab * r[a], r[a]
        rows[a], rows[b] = [y - ab * x for x, y in zip(rows[a], rows[b])], rows[a]
    else:
        for r in rows:
            r[a], r[b] = r[b], r[a] - ab * r[b]
        rows[a], rows[b] = rows[b], [x - ab * y for x, y in zip(rows[a], rows[b])]
    return tuple(map(tuple, rows))


def _full_orbit_search(c, height_bound, max_nodes):
    """The former BFS over full Grams, kept as a reference; it records a
    truncation reason wherever it used to set `truncated`."""
    n = len(c)
    target = _full_sign_canonical(((1, 3, 3), (0, 1, 3), (0, 0, 1))) if n == 3 else None
    start = _full_sign_canonical(c.gram().entries)
    seen = {start}
    queue = deque([start])
    stops = set()
    reached = start == target
    used = set()
    while queue:
        g = queue.popleft()
        if collection_height(g) > height_bound:
            stops.add("height")
            continue
        for nu in range(1, n):
            for d in ("L", "R"):
                cang = _full_sign_canonical(_full_mutate_gram(g, nu, d))
                if cang in seen:
                    continue
                if len(seen) >= max_nodes:
                    stops.add("node_cap")
                    continue
                seen.add(cang)
                used.add(f"{d}{nu}")
                if cang == target:
                    reached = True
                queue.append(cang)
    return {"orbit_size": len(seen), "truncated": bool(stops),
            "truncated_by": tuple(sorted(stops)), "canonical_gram": min(seen),
            "generators_used": tuple(sorted(used)), "reached_markov_canonical": reached}


def test_sign_canonical_matches_full_scan(monkeypatch):
    rng = random.Random(13)
    tied = []  # states the union-find saw; a row 0 with no zero is read in O(n)
    union_find = mutations._tied_signs
    monkeypatch.setattr(mutations, "_tied_signs", lambda s, n: tied.append(s) or union_find(s, n))
    row0_zero = row0_full = 0
    for k in range(2400):
        n = k % 8
        full = k % 16 >= 8  # upper-triangular Grams in one half, full ones in the other
        zero_rate = rng.choice((0.0, 0.3, 0.7))
        g = tuple(tuple(
            (rng.randint(-5, 5) if rng.random() >= zero_rate else 0)
            if (full or j > i) and i != j else int(i == j)
            for j in range(n)) for i in range(n))
        # the flat state holds the upper triangle; the former full-matrix
        # union-find still answers for the full Grams
        want = _sign_canonical_scan(g)
        assert _full_sign_canonical(g) == want, g
        s = _flat(g)
        upper = _expand(s, n)
        before = len(tied)
        assert _sign_canonical(s, n) == _flat(want if upper == g else _sign_canonical_scan(upper)), g
        # the union-find runs exactly when row 0 has a zero
        assert len(tied) - before == (n > 1 and not all(g[0][1:])), g
        if n > 1:
            row0_full += all(g[0][1:])
            row0_zero += not all(g[0][1:])
    # both the row 0 path and the union-find ran often
    assert row0_full > 300 and row0_zero > 300
    for g in (((1, 0, 4, -2), (0, 1, 3, 0), (0, 0, 1, 5), (0, 0, 0, 1)),
              ((1, 0, 0), (0, 1, -2), (0, 0, 1)),
              ((1, 2, 0), (0, 1, 0), (0, 0, 1)),
              ((1, -1, 3, 0, 2), (0, 1, 0, 4, 0), (0, 0, 1, -1, 0), (0, 0, 0, 1, 3),
               (0, 0, 0, 0, 1))):
        before = len(tied)
        assert _sign_canonical(_flat(g), len(g)) == _flat(_sign_canonical_scan(g)), g
        assert len(tied) == before + 1, g


def test_mutate_gram_matches_mutated_collection():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(2, 6)
        c = random_son_collection(rng, n)
        g = c.gram().entries
        for nu in range(1, n):
            for d in ("L", "R"):
                mutated = mutate_pair(c, nu, d).gram().entries
                assert _mutate_gram(_flat(g), n, nu, d) == _flat(mutated)
                assert _full_mutate_gram(g, nu, d) == mutated


def test_orbit_search_matches_full_matrix_reference():
    rng = random.Random(17)
    for n in range(7):
        for _ in range(3):
            c = random_son_collection(rng, n) if n > 1 else \
                SonCollection.standard_basis(BilinearLattice.standard(n))
            h = collection_height(c.gram().entries)
            caps = (1, rng.randint(2, 299), 300)
            for bound in sorted({0, 1, h, max(h - 1, 0), 10**30}):
                for cap in caps:
                    got = orbit_search(c, bound, cap)
                    want = _full_orbit_search(c, bound, cap)
                    assert {f: getattr(got, f) for f in want} == want, (n, bound, cap)
                    assert got.truncated == bool(got.truncated_by)


def test_orbit_report_truncation_reasons():
    twist = SonCollection.standard_basis(
        BilinearLattice.from_rows([[1, 3, 6], [0, 1, 3], [0, 0, 1]]))
    short = SonCollection.standard_basis(BilinearLattice.from_rows([[1, 5], [0, 1]]))
    assert orbit_search(short, height_bound=4, max_nodes=10).truncated_by == ("height",)
    assert orbit_search(short, height_bound=5, max_nodes=10).truncated_by == ()
    assert orbit_search(twist, 10**30, 50).truncated_by == ("node_cap",)
    assert orbit_search(twist, 1000, 50).truncated_by == ("height", "node_cap")
