"""Shared random generators for property tests.

Everything is seeded explicitly inside each test; these helpers only build
structured random objects (unimodular matrices, semiorthonormal data).
"""

import random
from fractions import Fraction

from semiortho.bilinear_form import BilinearLattice, OperatorOnLattice
from semiortho.exact_linalg import IntMatrix, RatMatrix, ShapeError, char_poly_rat
from semiortho.properties import random_son_gram


def random_unimodular(rng: random.Random, n: int, steps: int = None) -> IntMatrix:
    """Random element of GL_n(Z) built from elementary row operations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if steps is None:
        steps = 3 * n
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def random_unimodular_gram(rng: random.Random, n: int) -> IntMatrix:
    """Random Gram matrix with determinant +-1, not necessarily triangular."""
    s = random_unimodular(rng, n)
    core = random_son_gram(rng, n, bound=3)
    return s.transpose() * core * s


def random_son_lattice(rng: random.Random, n: int, bound: int = 4) -> BilinearLattice:
    return BilinearLattice(random_son_gram(rng, n, bound))


def is_reflexive(phi: OperatorOnLattice) -> bool:
    """True iff phi commutes with the canonical operator."""
    k = phi.ambient.kappa
    return (phi.matrix * k - k * phi.matrix).is_zero()


def fraction_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """The former Gauss-Jordan reduction over Q, kept as the reference for the integer one.

    Returns the reduced rows (columns past `ncols` carried along) and the
    pivot columns.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        if top == len(rows):
            break
        pivot = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = 1 / rows[top][col]
        rows[top] = [x * inv for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def fraction_rank(m) -> int:
    return len(fraction_rref([list(r) for r in m.entries], m.cols)[1])


def fraction_product(a, b) -> RatMatrix:
    """Matrix product summed in Fractions, the reference for RatMatrix.__mul__."""
    cols = [[r[j] for r in b.entries] for j in range(b.cols)]
    return RatMatrix(tuple(tuple(sum((Fraction(x) * y for x, y in zip(r, c)), Fraction(0))
                                 for c in cols) for r in a.entries), b.cols)


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


def zero_matrix(kind, rows: int, cols: int):
    """The rows x cols zero matrix of the matrix class `kind`, entries of its own type."""
    return kind(tuple((kind._cast(0),) * cols for _ in range(rows)), cols)


def power(x, k: int, one):
    """x^k for k >= 0 by square and multiply, `one` the unit of x's ring (an identity
    matrix or DSeries.one)."""
    while k:
        if k & 1:
            one = one * x
        x = x * x
        k >>= 1
    return one


def matrix_in(series, m: RatMatrix) -> RatMatrix:
    """A series (a DSeries) with a square matrix substituted for its variable, by Horner's rule."""
    acc = zero_matrix(RatMatrix, m.rows, m.cols)
    for c in reversed(series.coeffs):
        acc = acc * m + RatMatrix.identity(m.rows).scale(c)
    return acc
