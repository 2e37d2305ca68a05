"""Numerical-polynomial model: bases, pairing, printed matrices, rank, chern."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from semiortho.classification import (
    Type1,
    _report,
    detect_type_gram,
    standard_type1_gram,
)
from semiortho.exact_linalg import IntMatrix, RatMatrix, mul_trunc, solve_unimodular
from semiortho.k0_pn import (
    DSeries,
    NumPoly,
    chern,
    chern_inverse,
    eta_pn,
    gram_matrix,
    hilbert_pairing,
    integrality_test,
    kappa_matrix,
    kappa_pn,
    rank,
    sigma_pairing,
    xi_basis,
    zeta_pn,
)
from semiortho import k0_pn
from semiortho.k0_pn import _basis_series
from semiortho.properties import sigma_failures

from conftest import power

F = Fraction


def value(f: NumPoly, t) -> Fraction:
    """f(t): the numerical polynomial evaluated at a rational t."""
    t = F(t)
    val = F(0)
    for k, c in enumerate(f.coords):
        val += c * gamma_value(f.n - k, t)
    return val


def gamma_value(j: int, t: Fraction) -> Fraction:
    # gamma_j(t) = (t+1)(t+2)...(t+j) / j!
    num = F(1)
    for i in range(1, j + 1):
        num *= t + i
    return num / factorial(j)


def gamma_basis(n: int) -> list[NumPoly]:
    """[gamma_n, ..., gamma_0] as elements of the rank n+1 lattice."""
    return [NumPoly.from_coords(n, [0] * k + [1]) for k in range(n + 1)]


def twist_class(n: int, k: int) -> NumPoly:
    """Class of the k-th twisting sheaf, gamma_n(t + k): Chern character e^(kD)."""
    return chern_inverse(DSeries.exp(n, k))


def nabla(f: NumPoly) -> NumPoly:
    """Left difference f(t) - f(t-1); shifts the gamma chain down one step."""
    return NumPoly(f.n, (0,) + f.coords[:-1])


def alpha_form(k: int, a_coords, b_coords) -> Fraction:
    """alpha_k(A, B) = sum_v (-1)^v binom(k, v) a_v b_{k-v}, Adams coordinates."""
    a = [F(c) for c in a_coords]
    b = [F(c) for c in b_coords]
    total = F(0)
    for v in range(k + 1):
        av = a[v] if v < len(a) else F(0)
        bk = b[k - v] if k - v < len(b) else F(0)
        total += (-1) ** v * comb(k, v) * av * bk
    return total

PRINTED_ADAMS = {
    2: (2, [[2, 3, 1], [-3, -2, 0], [1, 0, 0]]),
    3: (6, [[6, 11, 6, 1], [-11, -12, -3, 0], [6, 3, 0, 0], [-1, 0, 0, 0]]),
    4: (24, [[24, 50, 35, 10, 1], [-50, -70, -30, -4, 0], [35, 30, 6, 0, 0],
             [-10, -4, 0, 0, 0], [1, 0, 0, 0, 0]]),
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_printed_adams_matrices(n):
    scale, rows = PRINTED_ADAMS[n]
    expected = RatMatrix.from_rows([[F(x, scale) for x in r] for r in rows])
    assert (gram_matrix(n, "adams") - expected).is_zero()


def test_gamma_basis_and_twists():
    g = gamma_basis(2)
    assert value(g[2], 7) == 1  # gamma_0 is the constant 1
    assert value(g[0], 0) == 1 and value(g[0], 1) == 3
    assert value(twist_class(2, 1), 0) == 3
    assert twist_class(2, 0).coords == (1, 0, 0)
    # negative twists are legal
    assert value(twist_class(2, -1), 1) == 1
    for n in (2, 3):
        for k in (-2, 0, 1, 3):
            tc = twist_class(n, k)
            for t in range(-3, 4):
                prod = 1
                for i in range(1, n + 1):
                    prod *= t + k + i
                assert value(tc, t) == F(prod, factorial(n))


def test_nabla_chain():
    g = gamma_basis(3)
    assert nabla(g[0]).coords == g[1].coords
    assert nabla(g[3]).coords == (0, 0, 0, 0)  # constant 1 -> 0
    f = twist_class(2, 1)
    assert value(nabla(f), 0) == 2
    # nabla f agrees with f(t) - f(t-1) pointwise
    nf = nabla(f)
    for t in range(-3, 4):
        assert value(nf, t) == value(f, t) - value(f, t - 1)


def test_hilbert_pairing_examples():
    assert hilbert_pairing(2, DSeries.one(2), DSeries.one(2)) == 1
    assert hilbert_pairing(2, DSeries.one(2), DSeries.from_coeffs(2, [0, 1])) == F(3, 2)
    for n in (1, 2, 3, 4):
        g0 = _basis_series(n, "binomial")[n]
        assert hilbert_pairing(n, g0, g0) == 0
    with pytest.raises(Exception):
        hilbert_pairing(2, DSeries.one(2), DSeries.one(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_twist_gram_is_euler_characteristic(n):
    t = gram_matrix(n, "twists")
    for i in range(n + 1):
        for j in range(n + 1):
            expected = comb(n + j - i, n) if j >= i else 0
            assert t.entries[i][j] == expected


def test_twist_gram_n2_printed():
    t = gram_matrix(2, "twists")
    assert [[int(x) for x in r] for r in t.entries] == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]


def test_xi_basis_gram():
    x = gram_matrix(2, "xi")
    assert (x - standard_type1_gram(2)).is_zero()
    with pytest.raises(ValueError):
        xi_basis(3)
    with pytest.raises(ValueError):
        gram_matrix(4, "xi")
    with pytest.raises(ValueError):
        gram_matrix(2, "nonsense")


def test_alpha_form_symmetry():
    rng = random.Random(2)
    for _ in range(30):
        a = [F(rng.randint(-5, 5)) for _ in range(5)]
        b = [F(rng.randint(-5, 5)) for _ in range(5)]
        for k in range(5):
            lhs = alpha_form(k, a, b)
            rhs = alpha_form(k, b, a)
            assert lhs == (rhs if k % 2 == 0 else -rhs)
        assert alpha_form(1, a, a) == 0
        assert alpha_form(0, a, b) == a[0] * b[0]


def test_sigma_formula_matches_pairing():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            a = DSeries.from_coeffs(
                n, [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 1)])
            b = DSeries.from_coeffs(
                n, [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 1)])
            assert sigma_failures(a, b) == 0


def test_kappa_eta_zeta():
    assert kappa_pn(1).coeffs == (F(-1), F(2))
    for n in range(1, 6):
        kap = kappa_pn(n)
        eta = eta_pn(n)
        assert power(eta, n, DSeries.one(n)).coeffs != (F(0),) * (n + 1)
        assert power(eta, n + 1, DSeries.one(n)).coeffs == (F(0),) * (n + 1)
        # duality and isometry of kappa
        basis = _basis_series(n, "adams")
        for a in basis[:3]:
            for b in basis[:3]:
                assert hilbert_pairing(n, a, b) == hilbert_pairing(n, b, kap * a)
                assert hilbert_pairing(n, kap * a, kap * b) == hilbert_pairing(n, a, b)
        # zeta satisfies (eps k + 1) z = eps k - 1
        eps = (-1) ** n
        z = zeta_pn(n)
        assert (z * (kap.scale(eps) + DSeries.one(n))).coeffs \
            == (kap.scale(eps) - DSeries.one(n)).coeffs
        assert integrality_test(kap)


def test_kappa_acts_as_signed_translation():
    for n in (2, 3):
        f = twist_class(n, 2)
        coords = (kappa_pn(n) * chern(f)).nabla_coords()
        g = NumPoly(n, tuple(int(c) for c in coords))
        for t in range(-4, 5):
            assert value(g, t) == (-1) ** n * value(f, t - n - 1)


@pytest.mark.parametrize("n", range(0, 7))
def test_twist_gram_detects_type1(n):
    rep = detect_type_gram(gram_matrix(n, "twists"))
    assert rep.verdict == Type1(n, (-1) ** n)


def test_rank_functional():
    assert rank(chern(NumPoly.from_coords(2, [1]))) == 1
    assert rank(chern(NumPoly.from_coords(3, [0, 1]))) == 0
    with pytest.raises(TypeError):
        rank([1, 2])
    rng = random.Random(4)
    for n in (2, 3, 4):
        nabn = _basis_series(n, "binomial")[n]
        dn = DSeries.from_coeffs(n, [0] * n + [1])
        for _ in range(15):
            a = DSeries.from_coeffs(
                n, [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n + 1)])
            b = DSeries.from_coeffs(n, [F(rng.randint(-5, 5)) for _ in range(n + 1)])
            # rk(A)rk(B) = <A, nabla^n B>; with B = A this gives rk^2 = <A, D^n A>
            assert rank(a) * rank(b) == hilbert_pairing(n, a, nabn * b)
            assert rank(a) ** 2 == hilbert_pairing(n, a, dn * a)


def test_rank_multiplicative_on_integral_classes():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(20):
            a = chern(NumPoly.from_coords(n, [rng.randint(-4, 4) for _ in range(n + 1)]))
            b = chern(NumPoly.from_coords(n, [rng.randint(-4, 4) for _ in range(n + 1)]))
            assert rank(a * b) == rank(a) * rank(b)


def test_chern_isomorphism():
    n = 4
    g = gamma_basis(n)
    assert chern(g[0]).coeffs == (1, 0, 0, 0, 0)
    for k in range(n + 1):
        assert chern(g[k]).nabla_coords() == tuple(int(i == k) for i in range(n + 1))
        assert chern(g[k]).coeffs == _basis_series(n, "binomial")[k].coeffs
    nab = chern(g[1])
    assert chern_inverse(nab * nab).coords == g[2].coords
    # ring law: gamma_(n-i) * gamma_(n-j) = gamma_(n-i-j)
    rng = random.Random(6)
    for _ in range(20):
        a = chern(NumPoly.from_coords(n, [rng.randint(-3, 3) for _ in range(n + 1)]))
        b = chern(NumPoly.from_coords(n, [rng.randint(-3, 3) for _ in range(n + 1)]))
        assert chern(chern_inverse(a * b)).coeffs == (a * b).coeffs
        assert chern_inverse(a).n == n


@pytest.mark.parametrize("n", range(0, 7))
def test_chern_of_a_twist_is_the_exponential(n):
    for k in range(-3, 4):
        assert chern(twist_class(n, k)).coeffs == DSeries.exp(n, k).coeffs


def test_chern_is_multiplicative_and_inverted_by_chern_inverse():
    rng = random.Random(7)
    for n in range(0, 6):
        for _ in range(15):
            f = NumPoly.from_coords(n, [rng.randint(-5, 5) for _ in range(n + 1)])
            g = NumPoly.from_coords(n, [rng.randint(-5, 5) for _ in range(n + 1)])
            # the product of K0 classes: gamma_(n-i) gamma_(n-j) = gamma_(n-i-j)
            fg = NumPoly.from_coords(n, mul_trunc(f.coords, g.coords, n))
            assert (chern(f) * chern(g)).coeffs == chern(fg).coeffs
            assert chern_inverse(chern(f)) == f
            assert chern_inverse(chern(f) * chern(g)) == fg


def test_integrality():
    assert not integrality_test(DSeries.from_coeffs(2, [0, 1]))  # D on P^2
    # D = nabla + nabla^2 / 2 has no numerical polynomial as its class
    with pytest.raises(ValueError, match="integer"):
        chern_inverse(DSeries.from_coeffs(2, [0, 1]))
    with pytest.raises(ValueError, match="integer"):
        NumPoly.from_coords(2, [F(1, 2)])
    assert NumPoly.from_coords(2, [F(4, 2)]).coords == (2, 0, 0)
    # the truncation check of DSeries.from_coeffs, not a poly with no coordinates
    for make in (NumPoly.from_coords, DSeries.from_coeffs):
        with pytest.raises(ValueError, match="truncation order n must be >= 0, got -1"):
            make(-1, [])
    for n in (2, 3):
        for k in range(n + 1):
            nabk = _basis_series(n, "binomial")[k]
            assert integrality_test(DSeries(n, nabk.coeffs))
    # translations are integral for all integer steps
    assert integrality_test(DSeries.exp(3, -2))


def test_basis_change_congruence():
    for n in (2, 3, 4):
        adams = _basis_series(n, "adams")
        g_adams = gram_matrix(n, "adams")
        for other in ("twists", "binomial"):
            series = _basis_series(n, other)
            p = RatMatrix.from_rows(
                [[s.adams_coords()[i] for s in series] for i in range(n + 1)])
            g_other = gram_matrix(n, other)
            assert (p.transpose() * g_adams * p - g_other).is_zero()


def test_series_inverse():
    a = DSeries.from_coeffs(3, [1, 2, 0, 5])
    assert (a * a.inverse()).coeffs == (F(1), F(0), F(0), F(0))
    with pytest.raises(ValueError):
        DSeries.from_coeffs(2, [0, 1]).inverse()


def moments(n: int) -> list[Fraction]:
    """D^m gamma_n at 0: m! times the coefficient of t^m in (t+1)(t+2)...(t+n) / n!."""
    poly = [1]  # coefficients of prod_i (t + i), constant term first
    for i in range(1, n + 1):
        poly = [i * a + b for a, b in zip(poly + [0], [0] + poly)]
    return [F(factorial(m) * c, factorial(n)) for m, c in enumerate(poly)]


def series_pairing(n: int, a: DSeries, b: DSeries) -> Fraction:
    """The former hilbert_pairing: the series A(-D) B(D) dotted with the moments."""
    a_neg = [-c if k & 1 else c for k, c in enumerate(a.coeffs)]
    prod = mul_trunc(a_neg, b.coeffs, n)
    return sum((c * m for c, m in zip(prod, moments(n))), F(0))


def test_both_pairings_match_the_series_product():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(0, 9)

        def series():
            return DSeries.from_coeffs(n, [rng.choice((0, rng.randint(-9, 9),
                                                       F(rng.randint(-20, 20), rng.randint(1, 12))))
                                           for _ in range(n + 1)])

        a, b = series(), series()
        ref = series_pairing(n, a, b)
        for val in (hilbert_pairing(n, a, b), sigma_pairing(n, a.adams_coords(), b.adams_coords())):
            assert type(val) is F and val == ref, (n, a, b)


def test_hankel_gram_matches_pairwise_pairing():
    for basis, sizes in (("twists", range(10)), ("adams", range(10)),
                         ("binomial", range(10)), ("xi", (2,))):
        for n in sizes:
            series = _basis_series(n, basis)
            ref = RatMatrix.from_rows([[series_pairing(n, a, b) for b in series]
                                       for a in series])
            g = gram_matrix(n, basis)
            assert g == ref, (basis, n)
            assert all(type(x) is F for r in g.entries for x in r)


def double_loop_sigma(n: int, a_coords, b_coords) -> Fraction:
    """The former sigma_pairing: every alpha_k summed in full."""
    # e_k(1..n) read off prod_i (1 + i x)
    e = [1]
    for i in range(1, n + 1):
        e = [a + i * b for a, b in zip(e + [0], [0] + e)]
    return sum((e[n - k] * alpha_form(k, a_coords, b_coords) for k in range(n + 1)),
               F(0)) / factorial(n)


def test_sparse_sigma_pairing_matches_double_loop():
    rng = random.Random(61)
    for _ in range(400):
        n = rng.randint(0, 7)

        def coords():
            return [rng.choice((0, 0, rng.randint(-6, 6), F(rng.randint(-6, 6), rng.randint(1, 9))))
                    for _ in range(rng.randint(0, n + 3))]

        a, b = coords(), coords()
        val = sigma_pairing(n, a, b)
        assert type(val) is F and val == double_loop_sigma(n, a, b), (n, a, b)
    # ints and Fractions side by side, each list over several denominators
    for _ in range(200):
        n = rng.randint(0, 9)

        def mixed():
            return [rng.randint(-9, 9) if k % 3 == 0
                    else F(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 5, 6, 7, 12, 35)))
                    for k in range(rng.randint(1, n + 3))]

        a, b = mixed(), mixed()
        val = sigma_pairing(n, a, b)
        assert type(val) is F and val == double_loop_sigma(n, a, b), (n, a, b)


def test_adams_cross_check_catches_a_wrong_sigma_pairing(monkeypatch):
    # the sigma side of the adams Gram takes binom(k+l, k) from k0_pn.comb, the
    # Hankel side does not
    for n in (0, 1, 4):
        # off by one in binom(n, n), met only in the entry pairing Psi_n with Psi_0
        def wrong(a, b, n=n):
            return comb(a, b) + (1 if a == b == n else 0)

        monkeypatch.setattr(k0_pn, "comb", wrong)
        with pytest.raises(AssertionError, match="sigma-formula disagrees"):
            gram_matrix(n, "adams")
        monkeypatch.setattr(k0_pn, "comb", comb)
        assert gram_matrix(n, "adams") == gram_matrix(n, "adams")


def hankel_gram(n: int, basis: str) -> RatMatrix:
    """The former gram_matrix: the Fraction product A H A^t of the basis
    coefficients A and the Hankel moment matrix H[i][j] = (-1)^i m_(i+j)."""
    m = moments(n)
    hankel = RatMatrix.from_rows([[(-1) ** i * m[i + j] if i + j <= n else 0
                                   for j in range(n + 1)] for i in range(n + 1)])
    coeffs = RatMatrix.from_rows([a.coeffs for a in _basis_series(n, basis)])
    return coeffs * hankel * coeffs.transpose()


def dense_hankel_product(n: int, rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The dense IntMatrix product C H' C^t of the rows C and the moment table H'."""
    sigma = k0_pn._elementary_symmetric(n)
    hankel = IntMatrix(tuple(tuple((-1) ** k * factorial(k + l) * sigma[n - k - l]
                                   if k + l <= n else 0 for l in range(n + 1))
                             for k in range(n + 1)))
    c = IntMatrix(tuple(map(tuple, rows)))
    return (c * hankel * c.transpose()).entries


def test_sparse_hankel_product_matches_the_dense_product():
    rng = random.Random(67)
    for _ in range(150):
        n = rng.randint(0, 12)
        rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(rng.randint(1, n + 2))]
        terms = [[(k, x) for k, x in enumerate(r) if x] for r in rows]
        sparse = tuple(tuple(k0_pn._bilinear(k0_pn._hankel(n), a, b) for b in terms)
                       for a in terms)
        assert sparse == dense_hankel_product(n, rows), (n, rows)


def test_gram_matrix_matches_the_hankel_product():
    for n in range(25):
        for basis in ("twists", "binomial", "adams") + (("xi",) if n == 2 else ()):
            g = gram_matrix(n, basis)
            assert g == hankel_gram(n, basis), (basis, n)
            assert all(type(x) is F for r in g.entries for x in r)


def entrywise_kappa_matrix(n: int) -> IntMatrix:
    """kappa_matrix before its Toeplitz build, kept as its reference: one
    binomial per entry, (-1)^(n+i-j) C(n+1, i-j) in each row i >= j."""
    return IntMatrix(tuple(tuple((-1) ** (n + i - j) * comb(n + 1, i - j) if j <= i else 0
                                 for j in range(n + 1)) for i in range(n + 1)))


def test_kappa_matrix_is_kappa_of_the_binomial_gram():
    for n in range(65):
        assert kappa_matrix(n) == entrywise_kappa_matrix(n), n
    for n in range(41):
        k = kappa_matrix(n)
        assert type(k) is IntMatrix
        # kappa = G^-1 G^t, solved in integers on the closed-form Gram
        g = IntMatrix.from_rows(gram_matrix(n, "binomial").entries)
        assert solve_unimodular(g, g.transpose()) == k, n
    for n in range(13):
        # the series kappa_pn(n) on the nabla coordinates, the Z-basis gamma_n .. gamma_0
        coords = kappa_pn(n).nabla_coords()
        assert [row[0] for row in kappa_matrix(n).entries] == list(coords)
    with pytest.raises(ValueError, match=">= 0"):
        kappa_matrix(-1)


def test_kappa_matrix_binomials_match_comb():
    # the first column comes from the binomial recurrence; math.comb is its oracle
    for n in range(301):
        col = [row[0] for row in kappa_matrix(n).entries]
        assert col == [(-1) ** (n + k) * comb(n + 1, k) for k in range(n + 1)], n


def test_kappa_matrix_report_is_the_gram_report_in_every_basis():
    for n in range(13):
        report = _report(kappa_matrix(n))
        assert report.verdict == Type1(n, (-1) ** n)
        for basis in ("twists", "binomial", "adams") + (("xi",) if n == 2 else ()):
            assert report == detect_type_gram(gram_matrix(n, basis)), (n, basis)
