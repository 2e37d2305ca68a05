"""Lattices with unimodular forms, canonical operators, duals, sums."""

import random
from fractions import Fraction

import pytest

from semiortho.bilinear_form import (
    BilinearLattice,
    OperatorOnLattice,
    canonical_operator,
    extension_trace_check,
    is_isometry,
    left_dual,
    pair,
    restricted_gram,
    right_dual,
    semiorthogonal_sum,
    sum_projections,
    verify_canmatr,
)
from semiortho.exact_linalg import (
    IntMatrix,
    RatMatrix,
    ShapeError,
    UnimodularityError,
    char_poly_rat,
)

from conftest import is_reflexive, random_son_lattice, random_unimodular_gram, zero_matrix


def test_lattice_validation():
    with pytest.raises(UnimodularityError):
        BilinearLattice.from_rows([[2, 0], [0, 1]])
    with pytest.raises(ShapeError):
        BilinearLattice.from_rows([[1, 0]])
    assert BilinearLattice.from_rows([]).rank == 0
    assert BilinearLattice.standard(3).rank == 3
    # entries are never truncated: this is not the unimodular diag(1, -1)
    with pytest.raises(ValueError, match="integer"):
        BilinearLattice.from_rows([[1.5, 0], [0, Fraction(-3, 2)]])
    assert BilinearLattice.from_rows([[Fraction(2, 2), 0], [0, Fraction(-3, 3)]]).gram \
        == IntMatrix.from_rows([[1, 0], [0, -1]])


def test_operator_matrix_must_be_integral():
    lat = BilinearLattice.standard(2)
    assert OperatorOnLattice(IntMatrix.identity(2), lat).matrix == IntMatrix.identity(2)
    with pytest.raises(TypeError):
        OperatorOnLattice(RatMatrix.identity(2), lat)
    with pytest.raises(ShapeError):
        OperatorOnLattice(IntMatrix.identity(3), lat)


def test_pair_convention():
    # gram[i][j] = <e_i, e_j>
    lat = BilinearLattice.from_rows([[1, 5], [0, 1]])
    assert pair(lat, [1, 0], [0, 1]) == 5
    assert pair(lat, [0, 1], [1, 0]) == 0


def test_pair_matches_fraction_reference():
    rng = random.Random(14)

    def entry():
        if rng.random() < 0.5:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(300):
        n = rng.randint(0, 5)
        lat = BilinearLattice(random_unimodular_gram(rng, n))
        v = [entry() for _ in range(n)]
        w = [entry() for _ in range(n)]
        ref = sum((Fraction(v[i]) * lat.gram[i, j] * Fraction(w[j])
                   for i in range(n) for j in range(n)), Fraction(0))
        got = pair(lat, v, w)
        assert got == ref
        if all(type(x) is int for x in v + w):
            assert type(got) is int
    with pytest.raises(ShapeError):
        pair(BilinearLattice.standard(2), [1, 0], [1])


def test_restricted_gram_matches_pairwise_reference():
    # the n^2 pair calls restricted_gram made before it became one product V (X V^t)
    rng = random.Random(31)
    for _ in range(300):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        big = rng.random() < 0.5
        bound = 10**300 if big else 6
        lat = random_son_lattice(rng, n, bound) if big else \
            BilinearLattice(random_unimodular_gram(rng, n))
        vectors = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)]
        got = restricted_gram(lat, vectors)
        assert (got.rows, got.cols) == (m, m)
        assert got == IntMatrix.from_rows([[pair(lat, v, w) for w in vectors]
                                           for v in vectors], m)
    lat = BilinearLattice.from_rows([[1, 2], [0, 1]])
    with pytest.raises(ShapeError):
        restricted_gram(lat, [(1, 0), (1, 0, 0)])
    # <v, v> = (1 + 2 + 1) / 4: an integral Fraction result is kept as an int
    assert restricted_gram(lat, [(Fraction(1, 2), Fraction(1, 2))]) \
        == IntMatrix.from_rows([[1]])
    with pytest.raises(ValueError, match="integer"):
        restricted_gram(lat, [(Fraction(1, 2), 0)])


def test_canonical_operator_defining_identity():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 5)
        lat = BilinearLattice(random_unimodular_gram(rng, n))
        kappa = canonical_operator(lat)
        assert isinstance(kappa.matrix, IntMatrix)
        for _ in range(5):
            v = [rng.randint(-4, 4) for _ in range(n)]
            w = [rng.randint(-4, 4) for _ in range(n)]
            kv = kappa.matrix.apply([Fraction(x) for x in v])
            assert pair(lat, v, w) == pair(lat, w, kv)
        # kappa is an isometry and reflexive
        assert is_isometry(kappa)
        assert is_reflexive(kappa)


def test_canonical_operator_markov_form():
    lat = BilinearLattice.from_rows([[1, 3, 3], [0, 1, 3], [0, 0, 1]])
    kappa = canonical_operator(lat)
    assert kappa.matrix.trace() == 3
    # oracle: symbolic expansion of det(xI - kappa) gives (x-1)^3
    assert char_poly_rat(kappa.matrix) == (-1, 3, -3, 1)


def test_duals_are_adjoints():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 4)
        lat = BilinearLattice(random_unimodular_gram(rng, n))
        phi = OperatorOnLattice(IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]), lat)
        lphi = left_dual(phi)
        rphi = right_dual(phi)
        for _ in range(4):
            v = [rng.randint(-3, 3) for _ in range(n)]
            w = [rng.randint(-3, 3) for _ in range(n)]
            fv = [Fraction(x) for x in v]
            fw = [Fraction(x) for x in w]
            assert pair(lat, lphi.matrix.apply(fv), w) == pair(lat, v, phi.matrix.apply(fw))
            assert pair(lat, v, rphi.matrix.apply(fw)) == pair(lat, phi.matrix.apply(fv), w)
        # dual of dual in mixed order recovers phi
        assert (left_dual(rphi).matrix - phi.matrix).is_zero()
        assert (right_dual(lphi).matrix - phi.matrix).is_zero()


def test_reflexive_iff_duals_agree():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 4)
        lat = BilinearLattice(random_unimodular_gram(rng, n))
        phi = OperatorOnLattice(IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]), lat)
        duals_agree = (left_dual(phi).matrix - right_dual(phi).matrix).is_zero()
        assert duals_agree == is_reflexive(phi)


def test_dual_of_kappa_is_inverse():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 4)
        lat = BilinearLattice(random_unimodular_gram(rng, n))
        k = canonical_operator(lat)
        assert (right_dual(k).matrix * k.matrix - RatMatrix.identity(n)).is_zero()
        assert (left_dual(k).matrix * k.matrix - RatMatrix.identity(n)).is_zero()


def test_selfdual_antiselfdual():
    lat = BilinearLattice.standard(2)  # symmetric form: dual = transpose
    sym = OperatorOnLattice(IntMatrix.from_rows([[1, 2], [2, 0]]), lat)
    skew = OperatorOnLattice(IntMatrix.from_rows([[0, 1], [-1, 0]]), lat)
    # selfdual: right_dual(phi) = phi; antiselfdual: right_dual(phi) = -phi
    assert right_dual(sym).matrix == sym.matrix and right_dual(sym).matrix != -sym.matrix
    assert right_dual(skew).matrix == -skew.matrix and right_dual(skew).matrix != skew.matrix


def test_semiorthogonal_sum_and_projections():
    rng = random.Random(10)
    for _ in range(40):
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        l1 = BilinearLattice(random_unimodular_gram(rng, r1))
        l2 = BilinearLattice(random_unimodular_gram(rng, r2))
        coupling = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(r2)] for _ in range(r1)], r2)
        total = semiorthogonal_sum(l1, l2, coupling)
        assert total.rank == r1 + r2
        lam2, rho1 = sum_projections(l1, l2, coupling)
        assert isinstance(lam2, IntMatrix) and isinstance(rho1, IntMatrix)
        # <u1, v2> = <lam2 u1, v2>_2 = <u1, rho1 v2>_1
        for i in range(r1):
            for j in range(r2):
                u = [Fraction(int(k == i)) for k in range(r1)]
                v = [Fraction(int(k == j)) for k in range(r2)]
                lhs = coupling[i, j]
                assert pair(l2, lam2.apply(u), v) == lhs
                assert pair(l1, u, rho1.apply(v)) == lhs
        assert verify_canmatr(l1, l2, coupling)


def test_semiorthogonal_sum_at_rank_zero():
    empty, two = BilinearLattice.standard(0), BilinearLattice.standard(2)
    for r1 in range(4):
        for r2 in range(4):
            l1, l2 = BilinearLattice.standard(r1), BilinearLattice.standard(r2)
            lam2, rho1 = sum_projections(l1, l2, zero_matrix(IntMatrix, r1, r2))
            assert (lam2.rows, lam2.cols, rho1.rows, rho1.cols) == (r2, r1, r1, r2)
            assert verify_canmatr(l1, l2, zero_matrix(IntMatrix, r1, r2))
    # a coupling must be rank(l1) x rank(l2) also when one side is empty
    for l1, l2, coupling in ((empty, two, zero_matrix(IntMatrix, 0, 7)),
                             (empty, two, zero_matrix(IntMatrix, 0, 0)),
                             (two, empty, zero_matrix(IntMatrix, 2, 1)),
                             (two, empty, zero_matrix(IntMatrix, 3, 0))):
        with pytest.raises(ShapeError):
            semiorthogonal_sum(l1, l2, coupling)
    assert semiorthogonal_sum(empty, two, zero_matrix(IntMatrix, 0, 2)).gram == two.gram
    assert semiorthogonal_sum(two, empty, zero_matrix(IntMatrix, 2, 0)).gram == two.gram


def test_extension_trace_values():
    # rank-1 W, ell = 3 e0: <ell,ell> = 9, so tr = 1 + 1 - 9 = -7, <ke,e> = -8
    w = BilinearLattice.standard(1)
    assert extension_trace_check(w, [3]) == (-7, -8)
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        w = BilinearLattice(random_unimodular_gram(rng, n))
        ell = [rng.randint(-4, 4) for _ in range(n)]
        tr_m, kee = extension_trace_check(w, ell)
        ll = pair(w, ell, ell)
        assert kee == 1 - ll
        assert tr_m == int(canonical_operator(w).matrix.trace()) + 1 - ll
