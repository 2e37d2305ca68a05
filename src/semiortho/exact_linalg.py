"""Exact dense linear algebra over arbitrary-precision integers and rationals.

Integer matrices use Python ints (arbitrary precision), rational matrices use
fractions.Fraction, which keeps every entry reduced with positive denominator.
All matrices are immutable values; every operation returns a fresh matrix.
A matrix keeps its column count, so r x 0 and 0 x c are shapes like any other.
Rational kernels clear denominators and compute in integers: products,
fraction-free elimination and the char poly never add two Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
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


_set = object.__setattr__


@dataclass(frozen=True, init=False)
class _Matrix:
    """Dense row-major matrix; subclasses fix the entry type by `_cast`.  Both sizes are
    stored, `cols` read off the first row, so only a matrix with no rows needs it given."""

    entries: tuple[tuple, ...]
    rows: int
    cols: int

    def __init__(self, entries: tuple[tuple, ...], cols: int = 0):
        _set(self, "entries", entries)
        _set(self, "rows", len(entries))
        _set(self, "cols", len(entries[0]) if entries else cols)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None):
        """The matrix with these rows, each of length `cols` (by default the first's)."""
        entries = tuple([tuple(map(cls._cast, row)) for row in rows])
        if cols is None:
            cols = len(entries[0]) if entries else 0
        if any(len(r) != cols for r in entries):
            raise ShapeError(f"every row must have {cols} entries")
        return cls(entries, cols)

    @classmethod
    def identity(cls, n: int):
        one, zero = cls._cast(1), cls._cast(0)
        return cls(tuple([tuple([one if i == j else zero for j in range(n)]) for i in range(n)]))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self):
        return type(self)(_columns(self), self.rows)

    def __add__(self, other):
        return _entrywise(add, self, other)

    def __sub__(self, other):
        return _entrywise(sub, self, other)

    def __neg__(self):
        return type(self)(tuple([tuple([-a for a in r]) for r in self.entries]), self.cols)

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        return tuple([sum(map(mul, r, v), self._cast(0)) for r in self.entries])

    def trace(self):
        if not self.is_square:
            raise ShapeError("trace of non-square matrix")
        return sum([r[i] for i, r in enumerate(self.entries)], self._cast(0))

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))


def _columns(m: _Matrix) -> tuple[tuple, ...]:
    """The columns of m as tuples: m.cols empty ones when m has no rows."""
    return tuple(zip(*m.entries)) or ((),) * m.cols


def _check_product(a, b):
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")


def _entrywise(op, a, b):
    """op of a and b entry by entry; integral only when both operands are."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    kind = IntMatrix if type(a) is type(b) is IntMatrix else RatMatrix
    return kind(tuple([tuple(map(op, r, s)) for r, s in zip(a.entries, b.entries)]), a.cols)


class IntMatrix(_Matrix):
    """Dense matrix with integer entries, row-major."""

    _cast = staticmethod(exact_int)

    def __mul__(self, other: _Matrix) -> _Matrix:
        """The product; a RatMatrix when the other factor is one."""
        if not isinstance(other, IntMatrix):
            return RatMatrix.__mul__(self, other)
        _check_product(self, other)
        cols = _columns(other)
        return IntMatrix(tuple([tuple([sum(map(mul, r, c)) for c in cols])
                                for r in self.entries]), other.cols)


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
        cols = [_cleared(c) for c in _columns(other)]
        return RatMatrix(tuple(tuple(Fraction(sum(map(mul, r, c)), s * t) for t, c in cols)
                               for s, r in rows), other.cols)

    def scale(self, c) -> "RatMatrix":
        c = Fraction(c)
        return RatMatrix(tuple(tuple(c * a for a in r) for r in self.entries), self.cols)

    def det(self) -> Fraction:
        """`det` of the matrix with each row's denominators cleared, over their product."""
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
        return RatMatrix(tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows),
                         rhs.cols)

    def inverse(self) -> "RatMatrix":
        return self.solve(RatMatrix.identity(self.rows))


def _cleared(entries) -> tuple[int, list[int]]:
    """(s, s * entries) with s the least common denominator; ints count as p/1."""
    s = math.lcm(*(a.denominator for a in entries))
    return s, [a.numerator * (s // a.denominator) for a in entries]


def clear_denominators(m: _Matrix) -> tuple[int, IntMatrix]:
    """(c, c * m) with c the least common denominator of all entries of m: (1, m) itself
    for an IntMatrix."""
    if isinstance(m, IntMatrix):
        return 1, m
    c = math.lcm(*(a.denominator for r in m.entries for a in r))
    return c, IntMatrix(tuple(tuple(a.numerator * (c // a.denominator) for a in r)
                              for r in m.entries), m.cols)


def int_text(x: int) -> str:
    """x in decimal, or its bit length when it is over Python's int-to-decimal limit."""
    try:
        return str(x)
    except ValueError:
        return f"a {x.bit_length()}-bit integer"


def det(m: IntMatrix) -> int:
    """Exact determinant: prod a_ii of a triangular m, else sign * d from `_rref`, or 0
    when it finds fewer than n pivots."""
    if not m.is_square:
        raise ShapeError("determinant of non-square matrix")
    n = m.rows
    if _is_triangular(m):
        return math.prod(m.entries[i][i] for i in range(n))
    pivots, d, sign = _rref([list(r) for r in m.entries], n)
    return sign * d if len(pivots) == n else 0


def _rref(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan reduction over Z, in place, pivots in the first `ncols` columns.

    Bareiss's exact division (Math. Comp. 22, 1968), applied to the rows
    above each pivot as well as below, keeps every entry an integer minor of
    the input.  On return each pivot row holds the same value d at its pivot
    column and 0 at the other pivot columns, so the pivot rows divided by d
    are the reduced row echelon form over Q.  Columns past `ncols` (an
    augmented block) are carried along.  Returns the pivot columns, d and the
    sign of the row permutation: a square matrix of full rank has
    determinant sign * d.
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
        for r in range(len(rows)):
            row = rows[r]
            f = row[col]
            if r == top or (not f and p == d):
                continue
            rows[r] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        d = p
        pivots.append(col)
    return pivots, d, sign


def solve_unimodular(m: IntMatrix, rhs: IntMatrix) -> IntMatrix:
    """The integer x with m x = rhs, for m of determinant +-1: by back substitution,
    x_i = m_ii (b_i - sum_{k>i} m_ik x_k) from the bottom row up with no division, when m is
    upper triangular with +-1 on its diagonal, else by one elimination of [m | rhs]."""
    if not m.is_square:
        raise ShapeError("inverse of non-square matrix")
    if rhs.rows != m.rows:
        raise ShapeError(f"cannot solve {m.rows}x{m.cols} against {rhs.rows} rows")
    n, a = m.rows, m.entries
    if all(a[i][i] in (1, -1) and not any(a[i][:i]) for i in range(n)):
        x = [()] * n
        for i in reversed(range(n)):
            row, acc = a[i], rhs.entries[i]
            for k in range(i + 1, n):
                if c := row[k]:
                    acc = [s - c * t for s, t in zip(acc, x[k])]
            x[i] = tuple(acc) if row[i] == 1 else tuple([-s for s in acc])
        return IntMatrix(tuple(x), rhs.cols)
    rows = [list(r + b) for r, b in zip(a, rhs.entries)]
    pivots, d, sign = _rref(rows, n)
    if len(pivots) < n or d not in (1, -1):
        found = sign * d if len(pivots) == n else 0
        raise UnimodularityError(f"determinant is {int_text(found)}, expected +-1")
    # the reduced rows are [d I | d x] with d = +-1 = 1/d
    return IntMatrix(tuple([tuple([d * v for v in row[n:]]) for row in rows]), rhs.cols)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    return solve_unimodular(m, IntMatrix.identity(m.rows))


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


def _is_triangular(m: _Matrix) -> bool:
    """Square, with zeros everywhere above or everywhere below the diagonal; each row's
    part off the diagonal is one slice for the builtin `any`, with no Python step per entry."""
    a = m.entries
    return m.is_square and (not any(any(r[i + 1:]) for i, r in enumerate(a))
                            or not any(any(r[:i]) for i, r in enumerate(a)))


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
    A triangular cm has char poly prod (x - cm_ii), expanded from its
    diagonal; any other goes through Berkowitz.  The roots of a triangular m
    are read off its diagonal by `classification._spectrum`, not off this
    expansion.
    """
    c, cm = clear_denominators(m)
    n = m.rows
    ints = (_linear_factors(cm[i, i] for i in range(n)) if _is_triangular(cm)
            else _berkowitz(cm))
    return tuple(Fraction(b, c ** (n - k)) for k, b in enumerate(ints))


def rank_over_q(m: _Matrix) -> int:
    """Rank over Q of an integer or rational matrix, by fraction-free elimination."""
    return len(_rref([_cleared(r)[1] for r in m.entries], m.cols)[0])


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
