"""Exact dense linear algebra over arbitrary-precision integers and rationals.

Integer matrices use Python ints (arbitrary precision), rational matrices use
fractions.Fraction, which keeps every entry reduced with positive denominator.
All matrices are immutable values; every operation returns a fresh matrix.
Rational kernels clear denominators and compute in integers: products,
fraction-free elimination and the char poly never add two Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class UnimodularityError(ValueError):
    """Determinant is not +1 or -1 where unimodularity is required."""


def exact_int(x) -> int:
    """int(x), or ValueError when that would drop a fractional part."""
    i = int(x)
    if i != x:
        raise ValueError(f"expected an integer, got a non-integral {type(x).__name__}")
    return i


def _freeze_rows(rows, cast):
    out = tuple(tuple(cast(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ShapeError("ragged rows")
    return out


@dataclass(frozen=True)
class _Matrix:
    """Dense row-major matrix; subclasses fix the entry type by `_cast`."""

    entries: tuple[tuple, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]):
        return cls(_freeze_rows(rows, cls._cast))

    @classmethod
    def identity(cls, n: int):
        one, zero = cls._cast(1), cls._cast(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(tuple((cls._cast(0),) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def transpose(self):
        return type(self)(tuple(zip(*self.entries)) if self.entries else ())

    def __add__(self, other):
        _check_same_shape(self, other)
        return _sum_type(self, other)(tuple(tuple(a + b for a, b in zip(r, s))
                                            for r, s in zip(self.entries, other.entries)))

    def __sub__(self, other):
        _check_same_shape(self, other)
        return _sum_type(self, other)(tuple(tuple(a - b for a, b in zip(r, s))
                                            for r, s in zip(self.entries, other.entries)))

    def __neg__(self):
        return type(self)(tuple(tuple(-a for a in r) for r in self.entries))

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        return tuple(sum((a * b for a, b in zip(r, v)), self._cast(0)) for r in self.entries)

    def power(self, k: int):
        if not self.is_square:
            raise ShapeError("power of non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = self.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def trace(self):
        if not self.is_square:
            raise ShapeError("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), self._cast(0))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)


def _check_product(a, b):
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")


def _check_same_shape(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def _sum_type(a, b):
    # a sum or difference is integral only when both operands are
    return IntMatrix if type(a) is type(b) is IntMatrix else RatMatrix


class IntMatrix(_Matrix):
    """Dense matrix with integer entries, row-major."""

    _cast = staticmethod(exact_int)

    def __mul__(self, other: _Matrix) -> _Matrix:
        """The product; a RatMatrix when the other factor is one."""
        if not isinstance(other, IntMatrix):
            return RatMatrix.__mul__(self, other)
        _check_product(self, other)
        cols = tuple(zip(*other.entries))
        return IntMatrix(tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.entries))

    def to_rat(self) -> "RatMatrix":
        return RatMatrix(_freeze_rows(self.entries, Fraction))


class RatMatrix(_Matrix):
    """Dense matrix with exact rational entries (Fraction keeps them reduced).

    Products, inverses and solves clear denominators and run in integers;
    only the result entries are built as Fractions.
    """

    _cast = Fraction

    def __mul__(self, other: _Matrix) -> "RatMatrix":
        # also the product of an IntMatrix with a RatMatrix: ints clear as p/1
        _check_product(self, other)
        rows = [_cleared(r) for r in self.entries]
        cols = [_cleared(c) for c in zip(*other.entries)]
        return RatMatrix(tuple(tuple(Fraction(sum(map(mul, r, c)), s * t) for t, c in cols)
                               for s, r in rows))

    def power(self, k: int) -> "RatMatrix":
        return self.inverse().power(-k) if k < 0 else super().power(k)

    def scale(self, c) -> "RatMatrix":
        c = Fraction(c)
        return RatMatrix(tuple(tuple(c * a for a in r) for r in self.entries))

    def det(self) -> Fraction:
        """Bareiss determinant of the matrix with each row's denominators cleared."""
        cleared = [_cleared(r) for r in self.entries]
        return Fraction(det(IntMatrix(tuple(tuple(r) for _, r in cleared))),
                        math.prod(s for s, _ in cleared))

    def solve(self, rhs: "RatMatrix") -> "RatMatrix":
        """The x with self * x = rhs, by one elimination of the block row [self | rhs]."""
        if not self.is_square:
            raise ShapeError("a non-square matrix has no inverse")
        if rhs.rows != self.rows:
            raise ShapeError(f"cannot solve {self.rows}x{self.cols} against {rhs.rows} rows")
        n = self.rows
        # scaling a block row by its common denominator leaves the solution alone
        rows = [_cleared(r + b)[1] for r, b in zip(self.entries, rhs.entries)]
        pivots, d, _ = _rref(rows, n)
        if len(pivots) < n:
            raise ValueError("singular matrix")
        return RatMatrix(tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows))

    def inverse(self) -> "RatMatrix":
        return self.solve(RatMatrix.identity(self.rows))


def _cleared(entries) -> tuple[int, list[int]]:
    """(s, s * entries) with s the least common denominator; ints count as p/1."""
    s = math.lcm(*(a.denominator for a in entries))
    return s, [a.numerator * (s // a.denominator) for a in entries]


def clear_denominators(m: _Matrix) -> tuple[int, IntMatrix]:
    """(c, c * m) with c the least common denominator of all entries of m."""
    c = math.lcm(*(a.denominator for r in m.entries for a in r))
    return c, IntMatrix(tuple(tuple(a.numerator * (c // a.denominator) for a in r)
                              for r in m.entries))


def int_text(x: int) -> str:
    """x in decimal, or its bit length when it is over Python's int-to-decimal limit."""
    try:
        return str(x)
    except ValueError:
        return f"a {x.bit_length()}-bit integer"


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, trimmed."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> "IntPolynomial":
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if not m.is_square:
        raise ShapeError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _rref(rows: list[list[int]], ncols: int, full: bool = True) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan reduction over Z, in place, pivots in the first `ncols` columns.

    Bareiss's exact division (Math. Comp. 22, 1968), applied to the rows
    above each pivot as well as below, keeps every entry an integer minor of
    the input.  On return each pivot row holds the same value d at its pivot
    column and 0 at the other pivot columns, so the pivot rows divided by d
    are the reduced row echelon form over Q.  Columns past `ncols` (an
    augmented block) are carried along.  Returns the pivot columns, d and the
    sign of the row permutation: a square matrix of full rank has
    determinant sign * d.  With full=False only the rows below each pivot
    are reduced (a row echelon form), which is all a rank needs.
    """
    pivots: list[int] = []
    d, sign = 1, 1
    for col in range(ncols):
        top = len(pivots)
        if top == len(rows):
            break
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            sign = -sign
        prow = rows[top]
        p = prow[col]
        for r in range(0 if full else top + 1, len(rows)):
            row = rows[r]
            f = row[col]
            if r == top or (not f and p == d):
                continue
            rows[r] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        d = p
        pivots.append(col)
    return pivots, d, sign


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    if not m.is_square:
        raise ShapeError("inverse of non-square matrix")
    n = m.rows
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.entries)]
    pivots, d, sign = _rref(rows, n)
    if len(pivots) < n or d not in (1, -1):
        found = sign * d if len(pivots) == n else 0
        raise UnimodularityError(f"determinant is {int_text(found)}, expected +-1")
    # the reduced rows are [d I | d m^-1] with d = +-1 = 1/d
    return IntMatrix(tuple(tuple(d * x for x in row[n:]) for row in rows))


def _berkowitz(m: IntMatrix) -> list:
    """Coefficients of det(xI - m), lowest degree first, by Berkowitz's algorithm.

    S. J. Berkowitz, IPL 18 (1984): the char poly of each leading block is a
    Toeplitz matrix times that of the block before.  Only ring operations are
    used, so int entries give ints.
    """
    if not m.is_square:
        raise ShapeError("characteristic polynomial of non-square matrix")
    a = m.entries
    poly = [1]  # highest degree first, of the leading r x r block
    for r in range(m.rows):
        block = [a[i][:r] for i in range(r)]
        row, col = a[r][:r], [a[i][r] for i in range(r)]
        # first column of the Toeplitz matrix: 1, -a_rr, -R C, -R A C, ...
        toeplitz = [poly[0], -a[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(map(mul, row, col)))
            col = [sum(map(mul, b, col)) for b in block]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return poly[::-1]


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - m), exact coefficients."""
    return IntPolynomial.from_coeffs(_berkowitz(m))


def _is_triangular(m: _Matrix) -> bool:
    """Square, with zeros everywhere above or everywhere below the diagonal."""
    a = m.entries
    return m.is_square and (not any(x for i, r in enumerate(a) for x in r[i + 1:])
                            or not any(x for i, r in enumerate(a) for x in r[:i]))


def _linear_factors(roots: Iterable) -> list:
    """Coefficients of the product of (x - r) over the roots, lowest degree first."""
    poly = [1]
    for r in roots:
        poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
    return poly


def char_poly_rat(m: _Matrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial of an integer or rational matrix, as Fractions.

    Returns coefficients lowest degree first; leading coefficient is 1.
    With c the common denominator, det(xI - m) = det(cxI - cm) / c^n, so the
    integer char poly of cm gives coefficient k of this one over c^(n-k).
    A triangular cm has char poly prod (x - cm_ii); any other goes through
    Berkowitz.
    """
    c, cm = clear_denominators(m)
    n = m.rows
    ints = (_linear_factors(cm[i, i] for i in range(n)) if _is_triangular(cm)
            else _berkowitz(cm))
    return tuple(Fraction(b, c ** (n - k)) for k, b in enumerate(ints))


def nilpotency_index(m: RatMatrix) -> int | None:
    """Smallest k with m^k = 0, or None if m is not nilpotent."""
    if not m.is_square:
        raise ShapeError("nilpotency index of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    # nilpotent iff char poly is x^n
    cp = char_poly_rat(m)
    if any(cp[i] != 0 for i in range(n)):
        return None
    power = RatMatrix.identity(n)
    for k in range(n + 1):
        if power.is_zero():
            return k
        power = power * m
    return n  # unreachable: Cayley-Hamilton forces m^n = 0


def rank_over_q(m: _Matrix) -> int:
    """Rank over Q of an integer or rational matrix, by fraction-free elimination."""
    return len(_rref([_cleared(r)[1] for r in m.entries], m.cols, full=False)[0])


def kernel_basis(m: _Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : m v = 0}, via reduced row echelon form."""
    ncols = m.cols
    rows = [_cleared(r)[1] for r in m.entries]
    pivots, d, _ = _rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][fc], d)
        basis.append(tuple(v))
    return basis


def mul_trunc(a: Sequence, b: Sequence, n: int) -> tuple[Fraction, ...]:
    """Product of two coefficient sequences, lowest degree first, cut after degree n."""
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > n:
                break
            out[i + j] += x * y
    return tuple(out)
