"""Form classification: rational splitting, standard models, isometry series."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiortho.classification import (
    DecomposableRational,
    IrrationalSpectrum,
    IrrationalSpectrumError,
    Type1,
    Type2,
    biorthogonal_split,
    detect_type,
    detect_type_gram,
    is_type1_isometry,
    isometry_orbit_invariant,
    kappa_from_zeta,
    kappa_of_gram,
    odd_coefficient_count,
    rational_roots,
    standard_type1_gram,
    standard_type2_gram,
    type1_isometry_from_odd,
    zeta_from_kappa,
)
from semiortho.classification import _jordan_partition
from semiortho.bilinear_form import (
    BilinearLattice,
    OperatorOnLattice,
    canonical_operator,
)
from semiortho.exact_linalg import RatMatrix, char_poly_rat, nilpotency_index
from semiortho.k0_pn import DSeries, gram_matrix

from conftest import (
    fraction_product,
    fraction_rank,
    fraction_rref,
    random_son_gram,
    random_unimodular,
)


def test_rational_roots_extraction():
    # (x-1)^2 (x+1/2) (x^2+1), built by multiplying the factors
    poly = [Fraction(1)]
    for factor in ([-1, 1], [-1, 1], [Fraction(1, 2), 1], [1, 0, 1]):
        new = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                new[i + j] += a * Fraction(b)
        poly = new
    roots, remainder = rational_roots(poly)
    assert dict(roots) == {Fraction(1): 2, Fraction(-1, 2): 1}
    assert remainder == (Fraction(1), Fraction(0), Fraction(1))


def test_standard_type1_gram_values():
    g = standard_type1_gram(2)
    assert [[int(x) for x in r] for r in g.entries] == [[0, 0, 1], [0, -1, 1], [1, -1, 0]]
    assert [[int(x) for x in r] for r in standard_type1_gram(0).entries] == [[1]]


def test_standard_type2_gram_values():
    g = standard_type2_gram(1, 2)
    assert [[int(x) for x in r] for r in g.entries] == [[0, 2], [1, 0]]
    with pytest.raises(ValueError):
        standard_type2_gram(1, 1)  # mu = (-1)^(k+1) forbidden
    with pytest.raises(ValueError):
        standard_type2_gram(2, -1)
    with pytest.raises(ValueError):
        standard_type2_gram(1, 0)


@pytest.mark.parametrize("n", range(0, 8))
def test_type1_round_trip(n):
    rep = detect_type_gram(standard_type1_gram(n))
    assert rep.verdict == Type1(n, (-1) ** n)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mu", [2, 3, -2, Fraction(5, 2), Fraction(-7, 3)])
def test_type2_round_trip(k, mu):
    mu = Fraction(mu)
    rep = detect_type_gram(standard_type2_gram(k, mu))
    assert rep.verdict == Type2(k, mu)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_type2_epsilon_case(k):
    mu = Fraction((-1) ** k)
    rep = detect_type_gram(standard_type2_gram(k, mu))
    assert rep.verdict == Type2(k, mu)


def test_detect_type_markov_and_identity():
    rep = detect_type(BilinearLattice.from_rows([[1, 3, 3], [0, 1, 3], [0, 0, 1]]))
    assert rep.verdict == Type1(2, 1)
    rep = detect_type(BilinearLattice.standard(2))
    assert rep.verdict == DecomposableRational((Type1(0, 1), Type1(0, 1)))


def test_detect_type_irrational():
    rep = detect_type(BilinearLattice.from_rows([[1, 3], [0, 1]]))
    assert isinstance(rep.verdict, IrrationalSpectrum)
    assert rep.verdict.remainder == (Fraction(1), Fraction(7), Fraction(1))
    with pytest.raises(IrrationalSpectrumError):
        biorthogonal_split(RatMatrix.from_rows([[1, 3], [0, 1]]))


def _direct_sum(*mats):
    size = sum(m.rows for m in mats)
    rows = [[Fraction(0)] * size for _ in range(size)]
    off = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                rows[off + i][off + j] = m.entries[i][j]
        off += m.rows
    return RatMatrix.from_rows(rows)


def test_detect_type_direct_sums():
    g = _direct_sum(standard_type1_gram(1), standard_type2_gram(2, 3))
    rep = detect_type_gram(g)
    assert rep.verdict == DecomposableRational((Type1(1, -1), Type2(2, Fraction(3))))


def test_biorthogonal_split_summands():
    g = _direct_sum(standard_type1_gram(2), standard_type2_gram(1, 2))
    split = biorthogonal_split(g)
    by_dim = sorted(split, key=lambda s: len(s.basis))
    assert len(by_dim) == 2
    assert detect_type_gram(by_dim[0].restricted_gram).verdict == Type2(1, Fraction(2))
    assert detect_type_gram(by_dim[1].restricted_gram).verdict == Type1(2, 1)


def test_zeta_round_trip_and_nilpotency():
    for n in range(1, 6):
        g = standard_type1_gram(n)
        kap = kappa_of_gram(g)
        z = zeta_from_kappa(kap, n)
        assert (kappa_from_zeta(z, n) - kap).is_zero()
        assert nilpotency_index(z) == n + 1
        # zeta is antiselfdual for the form g
        lat_q = g
        zdual = lat_q.inverse() * z.transpose() * lat_q
        assert (zdual + z).is_zero()


def test_zeta_rejects_non_type1():
    with pytest.raises(ValueError):
        zeta_from_kappa(RatMatrix.identity(2).scale(Fraction(-1)), 2)


def test_zeta_series_arithmetic():
    f = DSeries.from_coeffs(3, [1, 2])
    g = DSeries.from_coeffs(3, [1, 0, 1])
    prod = f * g
    assert prod.coeffs == (1, 2, 1, 2)
    assert f.negate_variable().coeffs == (1, -2, 0, 0)
    assert DSeries.one(3).is_one()


@given(st.integers(min_value=1, max_value=6),
       st.lists(st.fractions(max_denominator=6), min_size=6, max_size=6),
       st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_isometry_solver_property(n, odds, sign):
    k = odd_coefficient_count(n)
    f = type1_isometry_from_odd(odds[:k], sign, n)
    assert is_type1_isometry(f)
    assert f.coeffs[0] == sign
    # odd coefficients are preserved verbatim
    for i in range(k):
        assert f.coeffs[2 * i + 1] == Fraction(odds[i])


def test_isometry_group_structure():
    n = 5
    k = odd_coefficient_count(n)
    rng = random.Random(17)
    for _ in range(20):
        f = type1_isometry_from_odd(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)],
            rng.choice([1, -1]), n)
        g = type1_isometry_from_odd(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)],
            rng.choice([1, -1]), n)
        prod = f * g
        assert is_type1_isometry(prod)
        # the group is Abelian (functions of one nilpotent variable)
        assert (f * g).coeffs == (g * f).coeffs
        # solver reproduces the product from its odd part and sign
        rebuilt = type1_isometry_from_odd(
            [prod.coeffs[2 * i + 1] for i in range(k)], int(prod.coeffs[0]), n)
        assert rebuilt.coeffs == prod.coeffs


def test_isometry_series_acts_as_matrix_isometry():
    for n in (2, 3, 4):
        g = standard_type1_gram(n)
        kap = kappa_of_gram(g)
        z = zeta_from_kappa(kap, n)
        k = odd_coefficient_count(n)
        f = type1_isometry_from_odd([Fraction(1, 2)] * k, -1, n)
        fm = f.matrix_in(z)
        assert (fm.transpose() * g * fm - g).is_zero()


def test_isometry_solver_input_validation():
    with pytest.raises(ValueError):
        type1_isometry_from_odd([1], 2, 3)
    with pytest.raises(ValueError):
        type1_isometry_from_odd([1, 2, 3], 1, 3)


def test_isometry_orbit_invariant():
    lat = BilinearLattice.from_rows([[1, 3, 3], [0, 1, 3], [0, 0, 1]])
    kappa = canonical_operator(lat)
    inv = isometry_orbit_invariant(kappa)
    # kappa* kappa = identity since kappa is an isometry
    assert (inv.matrix - RatMatrix.identity(3)).is_zero()
    # non-commuting operator rejected
    from semiortho.exact_linalg import IntMatrix
    bad = OperatorOnLattice(
        IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), lat)
    with pytest.raises(ValueError):
        isometry_orbit_invariant(bad)


def fraction_jordan_partition(m: RatMatrix, mu: Fraction, mult: int) -> Counter:
    """The former Fraction _jordan_partition, kept as the reference for the integer one.

    Kernel ranks of (m - mu)^k for k = 1..mult, all in Fractions.
    """
    n = m.rows
    shifted = m - RatMatrix.identity(n).scale(mu)
    kdims = [0]
    power = RatMatrix.identity(n)
    for _ in range(mult):
        power = fraction_product(power, shifted)
        kdims.append(n - fraction_rank(power))
    at_least = [kdims[j] - kdims[j - 1] for j in range(1, mult + 1)]
    partition: Counter = Counter()
    for m_len in range(1, mult + 1):
        cnt = at_least[m_len - 1] - (at_least[m_len] if m_len < mult else 0)
        if cnt:
            partition[m_len] = cnt
    return partition


def _congruent(rng, gram: RatMatrix) -> RatMatrix:
    p = random_unimodular(rng, gram.rows).to_rat()
    return p.transpose() * gram * p


def _jordan_cases(rng):
    """K0(P^n) Grams, standard models and their congruent sums, unitriangular Grams."""
    for n in range(11):
        for basis in ("twists", "adams", "binomial"):
            yield gram_matrix(n, basis)
    for n in range(8):
        yield standard_type1_gram(n)
    for k in range(1, 5):
        for mu in (2, Fraction(-3, 2), Fraction(5, 7), (-1) ** k):
            yield standard_type2_gram(k, mu)
    # several chains of one eigenvalue, hidden by a change of basis
    t1, t2 = standard_type1_gram, standard_type2_gram
    for parts in ((t1(2), t1(2), t1(0)), (t1(1), t1(3), t2(1, -1)), (t2(2, 2), t2(1, 2), t2(1, 3)),
                  (t2(2, Fraction(-3, 2)), t2(2, Fraction(-2, 3)), t1(4))):
        yield _congruent(rng, _direct_sum(*parts))
    for n in range(1, 8):
        for _ in range(6):
            yield random_son_gram(rng, n, bound=rng.choice((1, 2, 4))).to_rat()


def test_integer_jordan_partition_matches_fraction_reference():
    rng = random.Random(59)
    checked = 0
    for gram in _jordan_cases(rng):
        n = gram.rows
        kappa = kappa_of_gram(gram)
        rows, pivots = fraction_rref([list(r) + list(c) for r, c in
                                      zip(gram.entries, gram.transpose().entries)], n)
        assert len(pivots) == n and kappa == RatMatrix.from_rows([r[n:] for r in rows])
        roots, _ = rational_roots(char_poly_rat(kappa))
        for mu, mult in roots:
            assert _jordan_partition(kappa, mu, mult) == fraction_jordan_partition(kappa, mu, mult)
            checked += 1
    assert checked > 100


def test_kappa_of_degenerate_gram_raises():
    for rows in ([[0]], [[1, 1], [1, 1]], [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 1]]):
        with pytest.raises(ValueError, match="degenerate form"):
            kappa_of_gram(RatMatrix.from_rows(rows))
