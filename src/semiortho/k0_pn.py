"""Exact model of the Grothendieck group of projective n-space.

A class is a numerical polynomial, held in the binomial basis gamma_n ..
gamma_0 (`NumPoly`).  The Chern character sends it to the truncated power
series in D = d/dt (`DSeries`) of the operator A with A gamma_n equal to it;
the integral classes are the series with integer coordinates over the powers
of nabla = 1 - e^(-D).  All series (exponentials, tanh, logarithms) are
generated from their defining recurrences in exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact_linalg import IntMatrix, RatMatrix, ShapeError, exact_int, mul_trunc


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

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        val = Fraction(0)
        for k, c in enumerate(self.coords):
            val += c * _gamma_value(self.n - k, t)
        return val


def _gamma_value(j: int, t: Fraction) -> Fraction:
    # gamma_j(t) = (t+1)(t+2)...(t+j) / j!
    num = Fraction(1)
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

    def power(self, k: int) -> "DSeries":
        acc = DSeries.one(self.n)
        for _ in range(k):
            acc = acc * self
        return acc

    def negate_variable(self) -> "DSeries":
        """A(D) -> A(-D)."""
        return DSeries(self.n, tuple(a if k % 2 == 0 else -a
                                     for k, a in enumerate(self.coeffs)))

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def matrix_in(self, m: RatMatrix) -> RatMatrix:
        """Substitute a square matrix for the variable, by Horner's rule."""
        acc = RatMatrix.zero(m.rows, m.cols)
        for c in reversed(self.coeffs):
            acc = acc * m + RatMatrix.identity(m.rows).scale(c)
        return acc

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

    def apply(self, f: NumPoly) -> tuple[Fraction, ...]:
        """Action on a numerical polynomial; gamma-coordinates of the result."""
        if f.n != self.n:
            raise ShapeError("mismatched dimensions")
        return (self * chern(f)).nabla_coords()

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
def _moments(n: int) -> tuple[Fraction, ...]:
    # D^m gamma_n at 0 equals m! sigma_{n-m}(1..n) / n!
    sigma = _elementary_symmetric(n)
    return tuple(Fraction(factorial(m) * sigma[n - m], factorial(n))
                 for m in range(n + 1))


@lru_cache(maxsize=None)
def _elementary_symmetric(n: int) -> tuple[int, ...]:
    # sigma[k] = e_k(1, 2, ..., n)
    e = [1] + [0] * n
    for i in range(1, n + 1):
        for k in range(min(i, n), 0, -1):
            e[k] += i * e[k - 1]
    return tuple(e)


def hilbert_pairing(n: int, a: DSeries, b: DSeries) -> Fraction:
    """Euler pairing (A(-D) B(D)) gamma_n evaluated at 0."""
    if a.n != n or b.n != n:
        raise ShapeError("series dimension must match n")
    prod = a.negate_variable() * b
    m = _moments(n)
    return sum((c * m[k] for k, c in enumerate(prod.coeffs)), Fraction(0))


def alpha_form(k: int, a_coords, b_coords) -> Fraction:
    """alpha_k(A, B) = sum_v (-1)^v binom(k, v) a_v b_{k-v}, Adams coordinates."""
    a = [Fraction(c) for c in a_coords]
    b = [Fraction(c) for c in b_coords]
    total = Fraction(0)
    for v in range(k + 1):
        av = a[v] if v < len(a) else Fraction(0)
        bk = b[k - v] if k - v < len(b) else Fraction(0)
        total += (-1) ** v * comb(k, v) * av * bk
    return total


def sigma_pairing(n: int, a_coords, b_coords) -> Fraction:
    """The pairing as (1/n!) sum_k sigma_{n-k}(1..n) alpha_k(A, B).

    Summed term by term: (-1)^v binom(v+w, v) sigma_{n-v-w} a_v b_w over the
    nonzero a_v, b_w with v + w <= n.
    """
    sigma = _elementary_symmetric(n)
    b = [(w, Fraction(y)) for w, y in enumerate(b_coords[:n + 1]) if y]
    total = Fraction(0)
    for v, x in enumerate(a_coords[:n + 1]):
        if not x:
            continue
        x = Fraction(x)
        for w, y in b:
            if v + w > n:
                break
            total += (-1) ** v * comb(v + w, v) * sigma[n - v - w] * x * y
    return total / factorial(n)


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
    """
    _check_order(n)
    return IntMatrix(tuple(tuple((-1) ** (n + i - j) * comb(n + 1, i - j) if j <= i else 0
                                 for j in range(n + 1)) for i in range(n + 1)))


def eta_pn(n: int) -> DSeries:
    """kappa - (-1)^n: nilpotent of index exactly n+1."""
    return kappa_pn(n) - DSeries.one(n).scale((-1) ** n)


def zeta_pn(n: int) -> DSeries:
    """zeta = -tanh((n+1) D / 2), generated from the sinh/cosh recurrences."""
    c = Fraction(n + 1, 2)
    sinh = DSeries(n, tuple(c ** k / factorial(k) if k % 2 else Fraction(0)
                            for k in range(n + 1)))
    cosh = DSeries(n, tuple(c ** k / factorial(k) if k % 2 == 0 else Fraction(0)
                            for k in range(n + 1)))
    return -(sinh * cosh.inverse())


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

    hilbert_pairing(A, B) = sum over i + j <= n of (-1)^i a_i b_j m_(i+j), so
    the Gram matrix is the product A H A^t of the basis coefficients A and
    the Hankel moment matrix H.  The Adams matrix is produced by the
    sigma-formula and cross-checked against that product.
    """
    _check_order(n)
    series = _basis_series(n, basis)
    m = _moments(n)
    hankel = RatMatrix.from_rows([[(-1) ** i * m[i + j] if i + j <= n else 0
                                   for j in range(n + 1)] for i in range(n + 1)])
    coeffs = RatMatrix.from_rows([a.coeffs for a in series])
    direct = coeffs * hankel * coeffs.transpose()
    if basis == "adams":
        adams = [a.adams_coords() for a in series]
        via_sigma = RatMatrix.from_rows([[sigma_pairing(n, a, b) for b in adams] for a in adams])
        if not (via_sigma - direct).is_zero():
            raise AssertionError("sigma-formula disagrees with direct pairing")
        return via_sigma
    return direct


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
