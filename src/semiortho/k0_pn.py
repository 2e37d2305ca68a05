"""Exact model of the Grothendieck group of projective n-space.

A class is a numerical polynomial, held in the binomial basis gamma_n ..
gamma_0 (`NumPoly`).  The Chern character sends it to the truncated power
series in D = d/dt (`DSeries`) of the operator A with A gamma_n equal to it;
the integral classes are the series with integer coordinates over the powers
of nabla = 1 - e^(-D).  All series (exponentials, tanh, logarithms) are
generated from their defining recurrences in exact rationals.  The Euler
pairing is read from two integer tables by one sparse evaluator, `_bilinear`:
the moment table `_hankel` and the sigma table `_sigma_table`.  The Grams come
from closed binomial forms in the twist and binomial bases and from the sigma
table in the Adams basis, checked there against the moment table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact_linalg import (IntMatrix, RatMatrix, ShapeError, _cleared, _linear_factors, exact_int,
                           mul_trunc)


def _check_order(n: int):
    if n < 0:
        raise ValueError(f"truncation order n must be >= 0, got {n}")


def check_truncation(n: int, count: int):
    """Raise ValueError unless `count` coefficients fit truncation order n."""
    _check_order(n)
    if count > n + 1:
        raise ValueError("too many coefficients for truncation order")


def _as_fracs(coeffs, n: int) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    check_truncation(n, len(cs))
    return tuple(cs + [Fraction(0)] * (n + 1 - len(cs)))


@dataclass(frozen=True)
class NumPoly:
    """Numerical polynomial of degree <= n in the binomial basis.

    coords[k] is the integer coefficient of gamma_(n-k), where
    gamma_j(t) = binom(t+j, j); so coords run gamma_n first, gamma_0 last.
    """

    n: int
    coords: tuple[int, ...]

    @staticmethod
    def from_coords(n: int, coords) -> "NumPoly":
        cs = [exact_int(c) for c in coords]
        check_truncation(n, len(cs))
        cs += [0] * (n + 1 - len(cs))
        return NumPoly(n, tuple(cs))

@dataclass(frozen=True)
class DSeries:
    """Element of Q[D]/D^(n+1), D the derivative in t.

    The same algebra, with the variable read as zeta, is the canonical
    algebra Q[zeta]/zeta^(n+1) of a type-1 form (see classification).
    """

    n: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(n: int, coeffs) -> "DSeries":
        return DSeries(n, _as_fracs(coeffs, n))

    @staticmethod
    def one(n: int) -> "DSeries":
        return DSeries.from_coeffs(n, [1])

    @staticmethod
    def exp(n: int, c) -> "DSeries":
        """e^(cD) truncated: translation by c when c is an integer."""
        c = Fraction(c)
        return DSeries(n, tuple(c ** k / factorial(k) for k in range(n + 1)))

    def __add__(self, other: "DSeries") -> "DSeries":
        self._check(other)
        return DSeries(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DSeries") -> "DSeries":
        self._check(other)
        return DSeries(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DSeries":
        return DSeries(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "DSeries") -> "DSeries":
        self._check(other)
        return DSeries(self.n, mul_trunc(self.coeffs, other.coeffs, self.n))

    def scale(self, c) -> "DSeries":
        c = Fraction(c)
        return DSeries(self.n, tuple(c * a for a in self.coeffs))

    def negate_variable(self) -> "DSeries":
        """A(D) -> A(-D)."""
        return DSeries(self.n, tuple(a if k % 2 == 0 else -a
                                     for k, a in enumerate(self.coeffs)))

    def inverse(self) -> "DSeries":
        """Multiplicative inverse; requires nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("series with zero constant term is not invertible")
        inv = [Fraction(1) / self.coeffs[0]]
        for k in range(1, self.n + 1):
            s = sum(self.coeffs[j] * inv[k - j] for j in range(1, k + 1))
            inv.append(-s / self.coeffs[0])
        return DSeries(self.n, tuple(inv))

    def adams_coords(self) -> tuple[Fraction, ...]:
        """Coordinates over the basis Psi_k = D^k / k!."""
        return tuple(factorial(k) * c for k, c in enumerate(self.coeffs))

    def nabla_coords(self) -> tuple[Fraction, ...]:
        """Coordinates over powers of nabla = 1 - e^(-D)."""
        return _substitute(self.coeffs, _d_in_nabla(self.n), self.n)

    def _check(self, other: "DSeries"):
        if self.n != other.n:
            raise ShapeError("mismatched truncation orders")


def _substitute(coeffs, var_series: tuple[Fraction, ...], n: int) -> tuple[Fraction, ...]:
    # Horner evaluation of sum coeffs[k] * s^k mod x^(n+1)
    out = (Fraction(0),) * (n + 1)
    for c in reversed(list(coeffs)):
        out = mul_trunc(out, var_series, n)
        out = tuple(a + (c if i == 0 else 0) for i, a in enumerate(out))
    return out


@lru_cache(maxsize=None)
def _nabla_in_d(n: int) -> tuple[Fraction, ...]:
    # nabla = 1 - e^(-D)
    return (DSeries.one(n) - DSeries.exp(n, -1)).coeffs


@lru_cache(maxsize=None)
def _d_in_nabla(n: int) -> tuple[Fraction, ...]:
    # D = -log(1 - nabla) = sum_{k>=1} nabla^k / k
    return tuple(Fraction(0) if k == 0 else Fraction(1, k) for k in range(n + 1))


@lru_cache(maxsize=None)
def _elementary_symmetric(n: int) -> tuple[int, ...]:
    # sigma[k] = e_k(1, 2, ..., n), the coefficient of x^(n-k) in (x + 1)...(x + n)
    return tuple(_linear_factors(range(-n, 0))[::-1])


@lru_cache(maxsize=None)
def _hankel(n: int) -> tuple[tuple[int, ...], ...]:
    """The moment table: row k holds (-1)^k (k+l)! sigma_{n-k-l}(1..n) for l <= n - k,
    n! times the pairing of D^k with D^l, since D^m gamma_n(0) = m! sigma_{n-m} / n!."""
    sigma = _elementary_symmetric(n)
    return tuple(tuple((-1) ** k * factorial(k + l) * sigma[n - k - l] for l in range(n + 1 - k))
                 for k in range(n + 1))


def _sigma_table(n: int) -> list[list[int]]:
    """The sigma table: row k holds (-1)^k binom(k+l, k) sigma_{n-k-l}(1..n) for
    l <= n - k, n! times the sigma-formula pairing of the unit Adams coordinates."""
    sigma = _elementary_symmetric(n)
    return [[(-1) ** k * comb(k + l, k) * sigma[n - k - l] for l in range(n + 1 - k)]
            for k in range(n + 1)]


def _terms(coords) -> tuple[int, list[tuple[int, int]]]:
    """(s, the nonzero (k, s * coords[k])) with s the least common denominator."""
    s, cleared = _cleared(coords)
    return s, [(k, x) for k, x in enumerate(cleared) if x]


def _bilinear(table, a, b) -> int:
    """The sum of table[k][l] x y over the nonzero terms (k, x) of a and (l, y) of b,
    as `_terms` gives them; row k stops where the table cuts it."""
    total = 0
    for k, x in a:
        row = table[k]
        for l, y in b:
            if l >= len(row):
                break
            total += row[l] * x * y
    return total


def hilbert_pairing(n: int, a: DSeries, b: DSeries) -> Fraction:
    """Euler pairing (A(-D) B(D)) gamma_n evaluated at 0, read from the moment table."""
    if a.n != n or b.n != n:
        raise ShapeError("series dimension must match n")
    s, x = _terms(a.coeffs)
    t, y = _terms(b.coeffs)
    return Fraction(_bilinear(_hankel(n), x, y), s * t * factorial(n))


def sigma_pairing(n: int, a_coords, b_coords) -> Fraction:
    """The pairing as (1/n!) sum_k sigma_{n-k}(1..n) alpha_k(A, B) of the Adams
    coordinates, read from the sigma table.

    Each coordinate list is cleared of its denominators once, the sum is taken
    in integers and divided once by the two scales and n!.
    """
    s, a = _terms(a_coords[:n + 1])
    t, b = _terms(b_coords[:n + 1])
    return Fraction(_bilinear(_sigma_table(n), a, b), s * t * factorial(n))


def kappa_pn(n: int) -> DSeries:
    """Canonical operator: (-1)^n e^(-(n+1)D), i.e. f(t) -> (-1)^n f(t-n-1)."""
    return DSeries.exp(n, -(n + 1)).scale((-1) ** n)


def kappa_matrix(n: int) -> IntMatrix:
    """The integer matrix of kappa_pn(n) over the binomial basis nabla^0 .. nabla^n,
    the Z-basis gamma_n .. gamma_0 of K0(P^n).

    e^(-D) = 1 - nabla, so kappa = (-1)^n (1 - nabla)^(n+1) and column j holds
    (-1)^n (-1)^(i-j) C(n+1, i-j) in each row i >= j: lower triangular, the
    diagonal all (-1)^n.  It equals kappa_of_gram(gram_matrix(n, "binomial"))
    without a Gram or a solve, and every basis of K0(P^n) gives a similar
    matrix, so its char poly and Jordan type are those of the form in any basis.

    Multiplying by a series in nabla is Toeplitz: every column is the first
    one, col[k] = (-1)^(n+k) C(n+1, k), shifted down.  So the rows are windows
    of n+1 entries on one line, col reversed and then n zeros: row i is the
    window that puts col[0] at column i.  The n+1 binomials of col are the only
    ones computed, each from the one before it:
    C(n+1, k+1) = C(n+1, k) (n+1-k) / (k+1).
    """
    _check_order(n)
    col = [(-1) ** n]
    for k in range(n):
        col.append(-col[k] * (n + 1 - k) // (k + 1))
    line = tuple(reversed(col)) + (0,) * n
    return IntMatrix(tuple(line[n - i:2 * n + 1 - i] for i in range(n + 1)))


def eta_pn(n: int) -> DSeries:
    """kappa - (-1)^n: nilpotent of index exactly n+1."""
    return kappa_pn(n) - DSeries.one(n).scale((-1) ** n)


def zeta_pn(n: int) -> DSeries:
    """zeta = -tanh((n+1) D / 2) = -(e^(cD) - e^(-cD)) (e^(cD) + e^(-cD))^-1, c = (n+1)/2."""
    c = Fraction(n + 1, 2)
    up, down = DSeries.exp(n, c), DSeries.exp(n, -c)
    return -((up - down) * (up + down).inverse())


_XI_BASIS_N2 = (
    (Fraction(0), Fraction(0), Fraction(3, 2)),
    (Fraction(0), Fraction(-1), Fraction(0)),
    (Fraction(2, 3), Fraction(0), Fraction(-1, 3)),
)


def xi_basis(n: int) -> list[DSeries]:
    """The orthogonalized basis; known explicitly only in dimension 2."""
    if n != 2:
        raise ValueError(
            "xi basis is implemented only for n = 2; for other n the basis "
            "operators involve irrational coefficients or are not known in "
            "closed form")
    return [DSeries.from_coeffs(2, row) for row in _XI_BASIS_N2]


# the bases of K0(P^n) that gram_matrix takes by name
BASES = ("adams", "binomial", "twists", "xi")


def _basis_series(n: int, basis: str) -> list[DSeries]:
    if basis == "binomial":
        # gamma_{n-k} corresponds to the operator nabla^k
        nab = DSeries(n, _nabla_in_d(n))
        powers = [DSeries.one(n)]
        for _ in range(n):
            powers.append(powers[-1] * nab)
        return powers
    if basis == "adams":
        return [DSeries.from_coeffs(n, [0] * k + [Fraction(1, factorial(k))])
                for k in range(n + 1)]
    if basis == "twists":
        return [DSeries.exp(n, k) for k in range(n + 1)]
    if basis == "xi":
        return xi_basis(n)
    raise ValueError(f"unknown basis {basis!r}")


def gram_matrix(n: int, basis: str) -> RatMatrix:
    """Exact Gram matrix of the Euler pairing in the requested basis.

    No two Fractions are added or multiplied: each entry is an integer, or an
    integer over one denominator, built as a Fraction once.
    - twists: chi(O(i), O(j)) = binom(n+j-i, n), which is 0 for j < i;
    - binomial (nabla^0 .. nabla^n): (-1)^i binom(n-j, i), which is 0 for
      i + j > n, since nabla^i(-D) = (-1)^i e^(iD) nabla^i(D) and nabla
      shifts the gamma chain down one step;
    - xi: the moment table on the basis coefficients, each row cleared of
      its denominators, over the two row scales and n!;
    - adams (Psi_k = D^k / k!): the sigma table over n!, which is 0 for
      k + l > n; it is cross-checked in integers against the moment table.
    """
    _check_order(n)
    if basis == "twists":
        return RatMatrix(tuple(tuple(Fraction(comb(n + j - i, n)) for j in range(n + 1))
                               for i in range(n + 1)))
    if basis == "binomial":
        return RatMatrix(tuple(tuple(Fraction((-1) ** i * comb(n - j, i)) for j in range(n + 1))
                               for i in range(n + 1)))
    cleared = [_terms(a.coeffs) for a in _basis_series(n, basis)]
    hankel = _hankel(n)
    direct = [[_bilinear(hankel, a, b) for _, b in cleared] for _, a in cleared]
    nf = factorial(n)
    if basis == "xi":
        return RatMatrix(tuple(tuple(Fraction(p, s * t * nf) for (t, _), p in zip(cleared, row))
                               for (s, _), row in zip(cleared, direct)))
    # Psi_k = D^k / k! has the unit Adams coordinates e_k, so n! <Psi_k, Psi_l> is
    # entry (k, l) of the sigma table; the row of Psi_k clears to scale k!
    via_sigma = [row + [0] * k for k, row in enumerate(_sigma_table(n))]
    if any(x * s * t != p for (s, _), xs, ps in zip(cleared, via_sigma, direct)
           for (t, _), x, p in zip(cleared, xs, ps)):
        raise AssertionError("sigma-formula disagrees with direct pairing")
    return RatMatrix(tuple(tuple(Fraction(x, nf) for x in xs) for xs in via_sigma))


def rank(a: DSeries) -> Fraction:
    """The rank functional: the constant term, the same over D and over nabla."""
    if not isinstance(a, DSeries):
        raise TypeError("rank expects a DSeries")
    return a.coeffs[0]


def chern(f: NumPoly) -> DSeries:
    """Chern character: the ring isomorphism sending gamma_(n-k) to nabla^k.

    chern(f) is the operator A with A gamma_n = f, so a twist O(k) goes to e^(kD).
    """
    return DSeries(f.n, _substitute(f.coords, _nabla_in_d(f.n), f.n))


def chern_inverse(a: DSeries) -> NumPoly:
    """Inverse isomorphism A -> A gamma_n; ValueError unless A is integral."""
    return NumPoly.from_coords(a.n, a.nabla_coords())


def integrality_test(a: DSeries) -> bool:
    """True iff the operator preserves the lattice of numerical polynomials."""
    return all(c.denominator == 1 for c in a.nabla_coords())
