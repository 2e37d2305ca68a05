"""Form classification: rational splitting, standard models, isometry series."""

import math
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
    kappa_from_zeta,
    kappa_of_gram,
    odd_coefficient_count,
    rational_roots,
    standard_type1_gram,
    standard_type2_gram,
    type1_isometry_from_odd,
    zeta_from_kappa,
)
from semiortho import classification
from semiortho.classification import SplitSummand, _divisors, _jordan_partition
from semiortho.bilinear_form import (
    BilinearLattice,
    OperatorOnLattice,
    canonical_operator,
    right_dual,
)
from semiortho.exact_linalg import (
    IntMatrix,
    RatMatrix,
    char_poly_rat,
    clear_denominators,
    det,
    kernel_basis,
    rank_over_q,
)
from semiortho.k0_pn import DSeries, gram_matrix, kappa_matrix

from conftest import (
    fraction_product,
    fraction_rank,
    fraction_rref,
    is_reflexive,
    matrix_in,
    nilpotency_index,
    power,
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
        fm = matrix_in(f, z)
        assert (fm.transpose() * g * fm - g).is_zero()


def test_isometry_solver_input_validation():
    with pytest.raises(ValueError):
        type1_isometry_from_odd([1], 2, 3)
    with pytest.raises(ValueError):
        type1_isometry_from_odd([1, 2, 3], 1, 3)


def isometry_orbit_invariant(a: OperatorOnLattice) -> OperatorOnLattice:
    """A* A; equal invariants characterize one orbit of the isometry group.  The
    oracle for the A(-D) A(D) that `k0 invariants` is to print in nabla-coordinates."""
    if not is_reflexive(a):
        raise ValueError("operator is not in the canonical algebra")
    if det(a.matrix) == 0:
        raise ValueError("operator must be invertible over Q")
    return OperatorOnLattice(right_dual(a).matrix * a.matrix, a.ambient)


def test_isometry_orbit_invariant():
    lat = BilinearLattice.from_rows([[1, 3, 3], [0, 1, 3], [0, 0, 1]])
    kappa = canonical_operator(lat)
    inv = isometry_orbit_invariant(kappa)
    # kappa* kappa = identity since kappa is an isometry
    assert (inv.matrix - RatMatrix.identity(3)).is_zero()
    # non-commuting operator rejected
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
    u = random_unimodular(rng, gram.rows)
    p = RatMatrix.from_rows(u.entries, u.cols)
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
            yield RatMatrix.from_rows(random_son_gram(rng, n, bound=rng.choice((1, 2, 4))).entries)
    # one chain still growing after two powers: {5, 1} at 1, {3, 1} at 2 and 1/2
    yield _congruent(rng, _direct_sum(t1(4), t1(0)))
    yield _congruent(rng, _direct_sum(t2(3, 2), t2(1, 2)))


def full_chain_jordan_partition(m, mu: Fraction, mult: int) -> Counter:
    """The integer _jordan_partition before its early stop, kept as its reference.

    Ranks every power of c q m - c p I until the kernel reaches the multiplicity.
    """
    n = m.rows
    c, cm = clear_denominators(m)
    p, q = mu.numerator, mu.denominator
    shifted = IntMatrix(tuple(tuple(q * a - (c * p if i == j else 0) for j, a in enumerate(r))
                              for i, r in enumerate(cm.entries)))
    power = shifted
    kdims = [0, n - rank_over_q(power)]
    while kdims[-1] < mult and len(kdims) <= mult:
        power = power * shifted
        kdims.append(n - rank_over_q(power))
    kdims += [kdims[-1]] * (mult + 1 - len(kdims))
    at_least = [kdims[j] - kdims[j - 1] for j in range(1, mult + 1)] + [0]
    return Counter({k: at_least[k - 1] - at_least[k] for k in range(1, mult + 1)
                    if at_least[k - 1] != at_least[k]})


def test_early_stop_matches_full_chain_reference():
    rng = random.Random(59)
    checked = 0
    for gram in _jordan_cases(rng):
        kappa = kappa_of_gram(gram)
        for mu, mult in rational_roots(char_poly_rat(kappa))[0]:
            assert _jordan_partition(kappa, mu, mult) == full_chain_jordan_partition(kappa, mu, mult)
            checked += 1
    assert checked > 100


def test_single_block_shape_matches_rank_path(monkeypatch):
    # kappa of K0(P^n), and random integer triangular matrices with diagonal
    # +-1 and entries in -3..3, lower and upper; those with a zero next to the
    # diagonal fail the shape test, so the rank path decides them
    cases = [(kappa_matrix(n), Fraction((-1) ** n), n + 1, True) for n in range(41)]
    rng = random.Random(67)
    for _ in range(300):
        n, mu, lower = rng.randint(2, 7), rng.choice((1, -1)), rng.random() < 0.5
        rows = [[mu if i == j else rng.randint(-3, 3) if (i > j) == lower else 0
                 for j in range(n)] for i in range(n)]
        cases.append((IntMatrix.from_rows(rows), Fraction(mu), n, lower))
    with monkeypatch.context() as patch:
        patch.setattr(classification, "_is_single_block", lambda m, mu: False)
        rank_path = [_jordan_partition(m, mu, mult) for m, mu, mult, _ in cases]
    shapes = Counter()
    for (m, mu, mult, lower), expected in zip(cases, rank_path):
        single = classification._is_single_block(m, mu)
        shapes[single, lower] += 1
        assert single == (expected == Counter({mult: 1}))
        assert _jordan_partition(m, mu, mult) == expected
        # the full chain ranks every power: 0.1 s for kappa to n = 20, 3.4 s to 40
        if m.rows <= 21:
            assert full_chain_jordan_partition(m, mu, mult) == expected
    assert all(classification._is_single_block(m, mu) for m, mu, _, _ in cases[:41])
    assert min(shapes[single, lower] for single in (True, False)
               for lower in (True, False)) > 20


def test_jordan_partition_stops_once_one_chain_grows(monkeypatch):
    ranks = []

    def counted_rank(m):
        ranks.append(m.rows)
        return rank_over_q(m)

    monkeypatch.setattr(classification, "rank_over_q", counted_rank)
    rng = random.Random(61)
    t1, t2 = standard_type1_gram, standard_type2_gram
    three_one = Counter({3: 1, 1: 1})
    cases = [(_congruent(rng, _direct_sum(t1(4), t1(0))), {1: Counter({5: 1, 1: 1})}),
             (_congruent(rng, _direct_sum(t2(3, 2), t2(1, 2))),
              {2: three_one, Fraction(1, 2): three_one}),
             (gram_matrix(8, "twists"), {1: Counter({9: 1})})]
    for gram, expected in cases:
        kappa = kappa_of_gram(gram)
        roots = rational_roots(char_poly_rat(kappa))[0]
        assert {mu for mu, _ in roots} == set(expected)
        for mu, mult in roots:
            ranks.clear()
            assert _jordan_partition(kappa, mu, mult) == expected[mu]
            # two chains at k = 1, one at k = 2; a single block needs one rank
            assert len(ranks) == (1 if len(expected[mu]) == 1 else 2)
            assert full_chain_jordan_partition(kappa, mu, mult) == expected[mu]


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


def fraction_rational_roots(coeffs):
    """The former Fraction rational_roots, kept as the reference for the integer one.

    Each root p/q is found by Fraction Horner over all divisor pairs of the
    current polynomial, then divided out by synthetic division.
    """
    def evaluate(cur, x):
        acc = Fraction(0)
        for c in reversed(cur):
            acc = acc * x + c
        return acc

    def deflate(cur, root):
        out = [Fraction(0)] * (len(cur) - 1)
        carry = Fraction(0)
        for i in range(len(cur) - 1, 0, -1):
            carry = cur[i] + carry * root
            out[i - 1] = carry
        assert cur[0] + carry * root == 0
        return tuple(out)

    cur = tuple(Fraction(c) for c in coeffs)
    roots: Counter = Counter()
    while len(cur) > 1:
        if cur[0] == 0:
            roots[Fraction(0)] += 1
            cur = cur[1:]
            continue
        scale = math.lcm(*(c.denominator for c in cur))
        ints = [int(c * scale) for c in cur]
        found = next((x for p in _divisors(ints[0]) for q in _divisors(ints[-1])
                      for x in (Fraction(p, q), Fraction(-p, q)) if evaluate(cur, x) == 0), None)
        if found is None:
            break
        roots[found] += 1
        cur = deflate(cur, found)
    return sorted(roots.items()), cur


def _poly_product(factors):
    poly = [Fraction(1)]
    for factor in factors:
        new = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                new[i + j] += a * b
        poly = new
    return poly


def test_integer_rational_roots_match_fraction_reference():
    rng = random.Random(71)
    cases = [[], [0], [5], [Fraction(-2, 3)], [0, 0], [0, 0, 0], [1, 2, 0], [0, 1, 0]]
    for _ in range(250):
        factors = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.random()
            if kind < 0.45:  # a linear factor with root p/q
                factors.append([Fraction(-rng.randint(-8, 8)), Fraction(rng.randint(1, 6))])
            elif kind < 0.75:  # x^2 + b x + c with b^2 < 4c: no rational root
                c = rng.randint(2, 9)
                b = rng.randint(-2, 2)
                factors.append([Fraction(c), Fraction(b), Fraction(1)])
            else:  # a zero root
                factors.append([Fraction(0), Fraction(1)])
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
        cases.append([lead * c for c in _poly_product(factors)])
    for poly in cases:
        roots, remainder = rational_roots(poly)
        expected_roots, expected_remainder = fraction_rational_roots(poly)
        assert roots == expected_roots
        assert all(type(r) is Fraction and type(m) is int for r, m in roots)
        assert remainder == expected_remainder
        assert all(type(c) is Fraction for c in remainder)


def test_triangular_spectrum_matches_root_search(monkeypatch):
    # the roots of a triangular matrix are read off its diagonal; the divisor
    # search of rational_roots on its char poly is the oracle.  Diagonals draw
    # from a small pool so values repeat, with zero, negative and (for a
    # RatMatrix) non-integral values; lower, upper and diagonal shapes
    rng = random.Random(73)
    keep = {"lower": lambda i, j: i >= j, "upper": lambda i, j: i <= j,
            "diagonal": lambda i, j: i == j}
    cases = [kappa_matrix(n) for n in range(41)]
    for kind in (IntMatrix, RatMatrix):
        for kept in keep.values():
            for _ in range(340):
                n = rng.randint(0, 7)
                pool = [rng.randint(-4, 4) if kind is IntMatrix or rng.random() < 0.5
                        else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                        for _ in range(rng.randint(1, 3))]
                rows = [[rng.choice(pool) if i == j else rng.randint(-3, 3) if kept(i, j) else 0
                         for j in range(n)] for i in range(n)]
                cases.append(kind.from_rows(rows))
    expected = [(char_poly_rat(m), *rational_roots(char_poly_rat(m))) for m in cases]

    def no_search(coeffs):
        raise AssertionError("a triangular matrix searched for its roots")

    monkeypatch.setattr(classification, "rational_roots", no_search)
    seen = Counter()
    for m, (cp, roots, remainder) in zip(cases, expected):
        spectrum = classification._spectrum(m)
        assert spectrum == (cp, roots, remainder)
        assert all(type(r) is Fraction and type(k) is int for r, k in spectrum[1])
        assert all(type(c) is Fraction for c in spectrum[2])
        seen["repeated"] += any(k > 1 for _, k in roots)
        seen["zero"] += any(r == 0 for r, _ in roots)
        seen["negative"] += any(r < 0 for r, _ in roots)
        seen["non-integral"] += any(r.denominator > 1 for r, _ in roots)
        seen["distinct"] += len(roots) > 1
    assert len(cases) >= 2000 and min(seen.values()) > 200


def fraction_biorthogonal_split(gram: RatMatrix) -> list[SplitSummand]:
    """The former Fraction biorthogonal_split, kept as the reference for the integer chain.

    Each root space is the kernel of (kappa - mu)^mult, and every pair of
    vectors from different summands is paired one at a time.
    """
    kappa = kappa_of_gram(gram)
    roots, remainder = fraction_rational_roots(char_poly_rat(kappa))
    if len(remainder) > 1:
        raise IrrationalSpectrumError("irrational eigenvalues remain")
    n = gram.rows
    mults = dict(roots)
    seen = set()
    out = []
    for mu, _ in roots:
        if mu in seen:
            continue
        evs = (mu,) if mu in (1, -1) else (mu, 1 / mu)
        seen.update(evs)
        basis = [v for ev in evs for v in kernel_basis(
            power(kappa - RatMatrix.identity(n).scale(ev), mults[ev], RatMatrix.identity(n)))]
        b = RatMatrix.from_rows(basis).transpose()
        out.append(SplitSummand(evs, tuple(basis), b.transpose() * gram * b))
    for i, s1 in enumerate(out):
        for j, s2 in enumerate(out):
            if i == j:
                continue
            for v in s1.basis:
                for w in s2.basis:
                    gw = gram.apply(w)
                    if sum((x * y for x, y in zip(v, gw)), Fraction(0)) != 0:
                        raise AssertionError("root summands fail biorthogonality")
    return out


def test_integer_split_matches_fraction_reference():
    rng = random.Random(59)
    checked = 0
    for gram in _jordan_cases(rng):
        try:
            expected = fraction_biorthogonal_split(gram)
        except IrrationalSpectrumError:
            with pytest.raises(IrrationalSpectrumError):
                biorthogonal_split(gram)
            continue
        split = biorthogonal_split(gram)
        assert [s.eigenvalues for s in split] == [s.eigenvalues for s in expected]
        assert [s.basis for s in split] == [s.basis for s in expected]
        assert [s.restricted_gram for s in split] == [s.restricted_gram for s in expected]
        checked += 1
    assert checked > 60


def _summands_of(report):
    verdict = report.verdict
    return verdict.summands if isinstance(verdict, DecomposableRational) else (verdict,)


def test_split_and_verdict_agree_summand_for_summand():
    """The verdicts of the restricted Grams of the split, read in order, are the
    summands of the verdict of the whole Gram."""
    rng = random.Random(59)
    checked = 0
    for gram in _jordan_cases(rng):
        try:
            split = biorthogonal_split(gram)
        except IrrationalSpectrumError:
            continue
        pieces = [x for s in split for x in _summands_of(detect_type_gram(s.restricted_gram))]
        assert tuple(pieces) == _summands_of(detect_type_gram(gram))
        checked += 1
    assert checked > 60


def test_split_detects_a_planted_cross_pairing(monkeypatch):
    def shifted_basis(m):
        return [(v[0] + 1,) + v[1:] for v in kernel_basis(m)]

    monkeypatch.setattr(classification, "kernel_basis", shifted_basis)
    g = _direct_sum(standard_type1_gram(2), standard_type2_gram(1, 2))
    with pytest.raises(AssertionError, match="root summands fail biorthogonality"):
        biorthogonal_split(g)
