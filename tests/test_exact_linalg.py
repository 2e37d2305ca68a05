"""Exact linear algebra: determinants, inverses, char polys, kernels."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiortho import exact_linalg
from semiortho.exact_linalg import (
    IntMatrix,
    IntPolynomial,
    RatMatrix,
    ShapeError,
    UnimodularityError,
    char_poly,
    char_poly_rat,
    clear_denominators,
    det,
    exact_int,
    inverse_unimodular,
    kernel_basis,
    mul_trunc,
    nilpotency_index,
    rank_over_q,
)
from semiortho.k0_pn import DSeries

from conftest import fraction_product, fraction_rank, fraction_rref, random_unimodular


def naive_det(m: IntMatrix) -> int:
    """Leibniz expansion; the independent oracle for the Bareiss algorithm."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def faddeev_leverrier(m: RatMatrix) -> tuple[Fraction, ...]:
    """The former char-poly routine, kept as the reference for Berkowitz.

    M_k = m (M_(k-1) + c_(n-k+1) I) and c_(n-k) = -tr(M_k) / k; it divides
    by k, so it works over Q only.  Coefficients lowest degree first.
    """
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = RatMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        c = -mk.trace() / k
        coeffs[n - k] = c
        mk = mk + RatMatrix.identity(n).scale(c)
    return tuple(coeffs)


def _oracle_cases(rng, entry):
    """Square matrices of size 0-8: dense, singular, nilpotent, zero and scalar."""
    for n in range(9):
        dense = [[entry() for _ in range(n)] for _ in range(n)]
        yield dense
        if n:
            # a repeated row makes it singular
            yield dense[:-1] + [dense[0]]
            # strictly upper triangular, conjugated by a unimodular matrix: nilpotent
            s = random_unimodular(rng, n)
            s_inv = inverse_unimodular(s)
            upper = IntMatrix.from_rows([[rng.randint(-3, 3) if j > i else 0
                                          for j in range(n)] for i in range(n)])
            yield [list(r) for r in (s * upper * s_inv).entries]
        yield [[0] * n for _ in range(n)]
        yield [[entry() if i == j else 0 for j in range(n)] for i in range(n)]


def test_berkowitz_matches_faddeev_leverrier_int():
    rng = random.Random(17)
    count = 0
    for _ in range(4):
        for rows in _oracle_cases(rng, lambda: rng.randint(-9, 9)):
            m = IntMatrix.from_rows(rows)
            p = char_poly(m)
            assert all(type(c) is int for c in p.coeffs)
            assert p.coeffs == faddeev_leverrier(m.to_rat())
            count += 1
    assert count == 4 * (9 * 5 - 2)


def test_berkowitz_matches_faddeev_leverrier_rat():
    rng = random.Random(19)
    for _ in range(3):
        for rows in _oracle_cases(rng, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7))):
            m = RatMatrix.from_rows(rows)
            cp = char_poly_rat(m)
            assert all(type(c) is Fraction for c in cp)
            assert cp == faddeev_leverrier(m)
    nilpotent = RatMatrix.from_rows([[0, 2, 5], [0, 0, Fraction(1, 3)], [0, 0, 0]])
    assert char_poly_rat(nilpotent) == (0, 0, 0, 1)
    with pytest.raises(ShapeError):
        char_poly_rat(RatMatrix.from_rows([[1, 2]]))


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n, max_size=n))


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_det_matches_leibniz_oracle(rows):
    m = IntMatrix.from_rows(rows)
    assert det(m) == naive_det(m)


@given(small_matrices, small_matrices)
@settings(max_examples=60, deadline=None)
def test_det_multiplicative(r1, r2):
    if len(r1) != len(r2):
        return
    a, b = IntMatrix.from_rows(r1), IntMatrix.from_rows(r2)
    assert det(a * b) == det(a) * det(b)


def test_det_empty_and_shape_errors():
    assert det(IntMatrix.from_rows([])) == 1
    with pytest.raises(ShapeError):
        det(IntMatrix.from_rows([[1, 2]]))
    with pytest.raises(ShapeError):
        IntMatrix.from_rows([[1], [1, 2]])


def test_inverse_unimodular():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_unimodular(rng, n)
        inv = inverse_unimodular(m)
        assert (m * inv - IntMatrix.identity(n)).is_zero()
        assert (inv * m - IntMatrix.identity(n)).is_zero()
    with pytest.raises(UnimodularityError):
        inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_rat_inverse_and_det():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(n)]
        m = RatMatrix.from_rows(rows)
        if m.det() == 0:
            continue
        assert (m * m.inverse() - RatMatrix.identity(n)).is_zero()


def test_rat_det_matches_leibniz_oracle():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(0, 5)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            rows[-1] = [2 * x for x in rows[0]]
        m = RatMatrix.from_rows(rows)
        d = m.det()
        assert type(d) is Fraction and d == naive_det(m)
    with pytest.raises(ShapeError):
        RatMatrix.from_rows([[1, 2]]).det()


def test_rat_inverse_of_singular_matrix_raises():
    for rows in ([[0]], [[1, 2], [2, 4]], [[Fraction(1, 2), 1, 0], [0, 0, 0], [3, 1, 1]],
                 [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        with pytest.raises(ValueError, match="singular"):
            RatMatrix.from_rows(rows).inverse()
    with pytest.raises(ShapeError):
        RatMatrix.from_rows([[1, 2]]).inverse()


def test_mixed_integer_and_rational_arithmetic_is_rational():
    a = IntMatrix.from_rows([[1, 2], [0, -3]])
    half = RatMatrix.identity(2).scale(Fraction(1, 2))
    ar = a.to_rat()
    for out, ref in ((a * half, ar * half), (half * a, half * ar), (a + half, ar + half),
                     (half + a, half + ar), (a - half, ar - half), (half - a, half - ar)):
        assert type(out) is RatMatrix and out == ref
        assert all(type(x) is Fraction for row in out.entries for x in row)
    assert (a * half)[0, 1] == 1 and (a - half)[1, 1] == Fraction(-7, 2)
    with pytest.raises(ShapeError):
        a * RatMatrix.identity(3)
    with pytest.raises(ShapeError):
        a - RatMatrix.identity(3)


def test_shared_base_keeps_the_entry_type():
    a = IntMatrix.from_rows([[1, 2], [0, 1]])
    r = a.to_rat()
    for m, kind, cast in ((a, IntMatrix, int), (r, RatMatrix, Fraction)):
        for out in (m.transpose(), m + m, m - m, -m, m * m, m.power(3),
                    kind.identity(2), kind.zero(2, 3)):
            assert type(out) is kind
            assert all(type(x) is cast for row in out.entries for x in row)
        assert type(m.trace()) is cast and type(kind.from_rows([]).trace()) is cast
        assert all(type(x) is cast for x in m.apply([1, 1]))
        assert all(type(x) is cast for x in kind.from_rows([[], []]).apply([]))
    assert a.power(0) == IntMatrix.identity(2) and a.power(5)[0, 1] == 10
    assert a != r and a.to_rat() == r
    with pytest.raises(ValueError, match="negative power"):
        a.power(-1)
    assert r.power(-2) == r.inverse() * r.inverse()
    with pytest.raises(ShapeError):
        IntMatrix.from_rows([[1, 2]]).power(2)
    # integer entries are cast exactly: integral values pass, others raise
    assert exact_int(Fraction(-6, 3)) == -2 and type(exact_int(Fraction(4, 2))) is int
    assert IntMatrix.from_rows([[Fraction(4, 2), 1.0]]).entries == ((2, 1),)
    for bad in (1.5, Fraction(-3, 2), Fraction(1, 3)):
        with pytest.raises(ValueError, match="integer"):
            exact_int(bad)
        with pytest.raises(ValueError, match="integer"):
            IntMatrix.from_rows([[1, 0], [0, bad]])


def test_char_poly_cayley_hamilton():
    # the minimal independent check: p(m) = 0 for p = char poly
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)]
                                 for _ in range(n)])
        p = char_poly(m)
        assert DSeries.from_coeffs(p.degree, p.coeffs).matrix_in(m.to_rat()).is_zero()
        # constant term is (-1)^n det, top coefficient 1
        coeffs = p.coeffs
        assert coeffs[-1] == 1
        assert coeffs[0] == (-1) ** n * det(m)


def test_char_poly_companion_matrix():
    # companion matrix of x^3 - 2x + 5 must return exactly that polynomial
    m = IntMatrix.from_rows([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(m).coeffs == (5, -2, 0, 1)


def test_char_poly_rat_trace_and_det():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = RatMatrix.from_rows([[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                  for _ in range(n)] for _ in range(n)])
        cp = char_poly_rat(m)
        assert cp[n] == 1
        assert cp[n - 1] == -m.trace()
        assert cp[0] == (-1) ** n * m.det()


def test_nilpotency_index():
    shift = RatMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nilpotency_index(shift) == 3
    assert nilpotency_index(RatMatrix.zero(2, 2)) == 1
    assert nilpotency_index(RatMatrix.identity(2)) is None
    assert nilpotency_index(RatMatrix.from_rows([])) == 1


def test_rank_and_kernel():
    rng = random.Random(21)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = RatMatrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(nc)]
                                 for _ in range(nr)])
        r = rank_over_q(m)
        ker = kernel_basis(m)
        assert r + len(ker) == nc  # rank-nullity
        for v in ker:
            assert all(x == 0 for x in m.apply(list(v)))
        # kernel vectors are linearly independent
        if ker:
            km = RatMatrix.from_rows([list(v) for v in ker])
            assert rank_over_q(km) == len(ker)


def _rank_by_minors(m: RatMatrix) -> int:
    """Largest k with a nonzero k x k minor: a rank oracle without elimination."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                if naive_det(RatMatrix.from_rows([[m[i, j] for j in cs] for i in rs])):
                    return k
    return 0


def test_rank_and_kernel_wide_and_tall():
    rng = random.Random(29)
    for nr, nc in ((1, 6), (2, 5), (3, 6), (6, 3), (5, 2), (6, 1), (4, 4)):
        for k in range(min(nr, nc) + 1):
            # a product through a k-dimensional space has rank at most k
            left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                    for _ in range(nr)]
            right = [[Fraction(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(k)]
            m = RatMatrix.from_rows([[sum((a * b for a, b in zip(row, col)), Fraction(0))
                                      for col in zip(*right)] if right else [Fraction(0)] * nc
                                     for row in left])
            r = rank_over_q(m)
            assert r == _rank_by_minors(m) <= k
            ker = kernel_basis(m)
            assert len(ker) == nc - r
            for v in ker:
                assert len(v) == nc and all(type(x) is Fraction for x in v)
                assert all(x == 0 for x in m.apply(list(v)))
            if ker:
                assert rank_over_q(RatMatrix.from_rows([list(v) for v in ker])) == len(ker)


def test_mul_trunc_matches_full_product():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(0, 6)
        for entry, zero in ((lambda: rng.choice([0, 0, rng.randint(-5, 5)]), 0),
                            (lambda: Fraction(rng.choice([0, rng.randint(-5, 5)]),
                                              rng.randint(1, 4)), Fraction(0))):
            a = [entry() for _ in range(n + 1)]
            b = [entry() for _ in range(n + 1)]
            full = [zero] * (2 * n + 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    full[i + j] += x * y
            assert mul_trunc(a, b, n) == tuple(full[:n + 1])


def test_int_polynomial_basics():
    p = IntPolynomial.from_coeffs([1, 0, -1])  # 1 - x^2
    assert p(2) == -3
    assert p.degree == 2
    assert IntPolynomial.from_coeffs([0, 0]).is_zero()


# Denominators a row draws from: small, mixed and past 2^64, so rows of one
# matrix clear to very different scales.
_DENOMINATORS = ((1,), (1, 2, 3), (4, 9, 25, 49), (2 ** 64 + 13, 3), (10 ** 30 + 57, 7 ** 20, 1))


def _rational_cases(rng):
    """Seeded rational matrices of 0-8 rows and columns: square, wide and tall.

    Each row draws its entries over its own set of denominators.  Every shape
    comes dense, sparse and rank-deficient (a product through a smaller space).
    """
    shapes = [(n, n) for n in range(9)] + [(1, 6), (2, 7), (3, 8), (5, 8), (8, 3), (7, 2),
                                           (6, 1), (0, 3), (3, 0), (4, 6), (6, 4)]
    for nr, nc in shapes:
        def entry(dens, zeros=0.0):
            if rng.random() < zeros:
                return Fraction(0)
            return Fraction(rng.randint(-9, 9) * rng.choice((1, 1, 10 ** 12)), rng.choice(dens))

        row_dens = [rng.choice(_DENOMINATORS) for _ in range(nr)]
        yield [[entry(d) for _ in range(nc)] for d in row_dens]
        yield [[entry(d, zeros=0.6) for _ in range(nc)] for d in row_dens]
        k = rng.randint(0, max(0, min(nr, nc) - 1))
        left = [[entry(d) for _ in range(k)] for d in row_dens]
        right = [[entry(rng.choice(_DENOMINATORS)) for _ in range(nc)] for _ in range(k)]
        yield [[sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in zip(*right)]
               if right else [Fraction(0)] * nc for r in left]


def _reference_kernel(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    rows, pivots = fraction_rref([list(r) for r in m.entries], m.cols)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def _reference_inverse(m: RatMatrix) -> RatMatrix | None:
    n = m.rows
    rows, pivots = fraction_rref([list(r) + [int(i == j) for j in range(n)]
                                  for i, r in enumerate(m.entries)], n)
    return RatMatrix(tuple(tuple(r[n:]) for r in rows)) if len(pivots) == n else None


def _entry_types(m) -> set:
    return {type(x) for r in m.entries for x in r}


def test_integer_elimination_matches_fraction_rref():
    rng = random.Random(37)
    count = 0
    for _ in range(3):
        for rows in _rational_cases(rng):
            m = RatMatrix.from_rows(rows)
            assert rank_over_q(m) == fraction_rank(m)
            ker = kernel_basis(m)
            assert ker == _reference_kernel(m)
            assert all(type(x) is Fraction for v in ker for x in v)
            if m.is_square:
                ref = _reference_inverse(m)
                if ref is None:
                    with pytest.raises(ValueError, match="singular"):
                        m.inverse()
                else:
                    inv = m.inverse()
                    assert inv == ref and _entry_types(inv) <= {Fraction}
                    rhs = RatMatrix.from_rows([r[::-1] + r[:1] for r in rows])
                    assert m.solve(rhs) == fraction_product(ref, rhs)
            count += 1
    assert count == 3 * 3 * 20


def test_rank_of_integer_matrices_matches_fraction_rref():
    rng = random.Random(41)
    for _ in range(200):
        nr, nc = rng.randint(0, 8), rng.randint(0, 8)
        k = rng.randint(0, min(nr, nc))
        left = IntMatrix.from_rows([[rng.randint(-40, 40) for _ in range(k)] for _ in range(nr)])
        right = IntMatrix.from_rows([[rng.randint(-40, 40) for _ in range(nc)] for _ in range(k)])
        m = left * right if k else IntMatrix.from_rows([[0] * nc for _ in range(nr)])
        assert rank_over_q(m) == fraction_rank(m) == rank_over_q(m.to_rat())


def test_inverse_unimodular_matches_fraction_rref():
    rng = random.Random(43)
    for n in range(9):
        for _ in range(12):
            m = random_unimodular(rng, n, steps=rng.randint(0, 6 * n))
            inv = inverse_unimodular(m)
            assert inv.to_rat() == _reference_inverse(m.to_rat())
            assert _entry_types(inv) <= {int}
    for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0]], [[3, 1, 0], [5, 2, 0], [0, 0, -7]]):
        m = IntMatrix.from_rows(rows)
        with pytest.raises(UnimodularityError, match=f"determinant is {det(m)}, expected"):
            inverse_unimodular(m)
    big = 7 ** 6000
    message = f"determinant is a {big.bit_length()}-bit integer"
    with pytest.raises(UnimodularityError, match=message):
        inverse_unimodular(IntMatrix.from_rows([[big, 0], [0, 1]]))
    with pytest.raises(ShapeError, match="inverse of non-square matrix"):
        inverse_unimodular(IntMatrix.from_rows([[1, 2]]))


def test_rat_product_matches_fraction_product():
    rng = random.Random(47)
    cases = list(_rational_cases(rng))
    for a_rows in cases:
        a = RatMatrix.from_rows(a_rows)
        for b_rows in rng.sample(cases, 6):
            b = RatMatrix.from_rows(b_rows)
            if a.cols != b.rows:
                b = b.transpose() if b.cols == a.cols else RatMatrix.zero(a.cols, 2)
            p = a * b
            assert p == fraction_product(a, b) and _entry_types(p) <= {Fraction}
            assert (p.rows, p.cols) == (a.rows, b.cols)
    with pytest.raises(ShapeError):
        RatMatrix.zero(2, 3) * RatMatrix.zero(2, 3)


def test_char_poly_rat_with_mixed_row_denominators():
    rng = random.Random(53)
    for rows in _rational_cases(rng):
        if len(rows) and len(rows) != len(rows[0]):
            continue
        m = RatMatrix.from_rows(rows)
        cp = char_poly_rat(m)
        assert all(type(c) is Fraction for c in cp)
        assert cp == faddeev_leverrier(m)
    c, cm = clear_denominators(RatMatrix.from_rows([[Fraction(1, 6), 2], [Fraction(3, 4), 0]]))
    assert (c, cm) == (12, IntMatrix.from_rows([[2, 24], [9, 0]]))


def test_char_poly_rat_triangular_path_matches_berkowitz(monkeypatch):
    # prod (x - a_ii) for an upper, lower or diagonal matrix, with no Berkowitz
    # call; Berkowitz, counted through the module, stays the oracle
    berkowitz = exact_linalg._berkowitz
    calls = []
    monkeypatch.setattr(exact_linalg, "_berkowitz", lambda m: calls.append(m) or berkowitz(m))

    def oracle(m):
        c, cm = clear_denominators(m)
        return tuple(Fraction(b, c ** (m.rows - k)) for k, b in enumerate(berkowitz(cm)))

    rng = random.Random(59)
    entries = {IntMatrix: lambda: rng.randint(-9, 9),
               RatMatrix: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7))}
    keep = {"upper": lambda i, j: i <= j, "lower": lambda i, j: i >= j,
            "diagonal": lambda i, j: i == j}
    for cls, entry in entries.items():
        for shape, kept in keep.items():
            for n in range(7):
                m = cls.from_rows([[entry() if kept(i, j) else 0 for j in range(n)]
                                   for i in range(n)])
                cp = char_poly_rat(m)
                assert all(type(c) is Fraction for c in cp)
                assert cp == oracle(m), (cls, shape, n)
                assert not calls, (cls, shape, n)
    # one nonzero entry on each side of the diagonal: Berkowitz
    full = RatMatrix.from_rows([[1, Fraction(1, 2), 0], [0, 2, 0], [3, 0, 5]])
    assert char_poly_rat(full) == oracle(full) and len(calls) == 1
    with pytest.raises(ShapeError):
        char_poly_rat(IntMatrix.from_rows([[1, 2, 3], [0, 4, 5]]))
