"""Free lattices with a unimodular bilinear form and their canonical operators.

Conventions: vectors are coordinate columns, the pairing is <v,w> = v^t X w
where X is the Gram matrix with X[i][j] = <e_i, e_j>.  The canonical operator
is the unique kappa with <v,w> = <w, kappa v>; in matrix form X kappa = X^t, one
integer solve that a lattice makes once and keeps: a back substitution when X
is the unitriangular Gram of a semiorthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Sequence

from .exact_linalg import (IntMatrix, ShapeError, UnimodularityError, det, int_text,
                           inverse_unimodular, solve_unimodular)


@dataclass(frozen=True)
class BilinearLattice:
    """Free Z-module of finite rank with a unimodular Gram matrix.

    Rank 0 is legal (empty Gram, trivially unimodular); it is the base case
    for recursive constructions.
    """

    gram: IntMatrix

    def __post_init__(self):
        if not self.gram.is_square:
            raise ShapeError("Gram matrix must be square")
        d = det(self.gram)
        if d not in (1, -1):
            raise UnimodularityError(f"Gram determinant is {int_text(d)}, expected +-1")

    @staticmethod
    def from_rows(rows) -> "BilinearLattice":
        return BilinearLattice(IntMatrix.from_rows(rows))

    @staticmethod
    def standard(rank: int) -> "BilinearLattice":
        return BilinearLattice(IntMatrix.identity(rank))

    @property
    def rank(self) -> int:
        return self.gram.rows

    @cached_property
    def inverse(self) -> IntMatrix:
        """X^-1, integral because X is unimodular; computed on first use."""
        return inverse_unimodular(self.gram)

    @cached_property
    def kappa(self) -> IntMatrix:
        """The canonical operator's matrix, solved from X kappa = X^t on first use."""
        return solve_unimodular(self.gram, self.gram.transpose())


@dataclass(frozen=True)
class OperatorOnLattice:
    """Integral linear operator on a lattice, acting on coordinate columns."""

    matrix: IntMatrix
    ambient: BilinearLattice

    def __post_init__(self):
        if not isinstance(self.matrix, IntMatrix):
            raise TypeError("operator matrix must be an IntMatrix")
        if not self.matrix.is_square or self.matrix.rows != self.ambient.rank:
            raise ShapeError("operator dimension must equal lattice rank")


def pair(lattice: BilinearLattice, v: Sequence, w: Sequence):
    """<v,w> = v^t . gram . w, an int for integer v, w: one dot product per nonzero v_i."""
    n = lattice.gram.rows
    if len(v) != n or len(w) != n:
        raise ShapeError("vector length must equal lattice rank")
    return sum([a * sum(map(mul, row, w)) for a, row in zip(v, lattice.gram.entries) if a])


def restricted_gram(ambient: BilinearLattice, vectors: Sequence[Sequence]) -> IntMatrix:
    """Gram matrix [<v, w>] of integer vectors under the lattice form, as V (X V^t): X w
    once per vector, then one dot product per entry.  Each vector's length is checked
    once; a non-integral entry of the result raises ValueError."""
    n = ambient.gram.rows
    if any(len(v) != n for v in vectors):
        raise ShapeError("vector length must equal lattice rank")
    xw = [[sum(map(mul, row, w)) for row in ambient.gram.entries] for w in vectors]
    return IntMatrix.from_rows([[sum(map(mul, v, c)) for c in xw] for v in vectors])


def canonical_operator(lattice: BilinearLattice) -> OperatorOnLattice:
    """kappa = X^-1 X^t; integer because X is unimodular."""
    return OperatorOnLattice(lattice.kappa, lattice)


def left_dual(phi: OperatorOnLattice) -> OperatorOnLattice:
    """The operator with <left_dual(phi) v, w> = <v, phi w>."""
    lat = phi.ambient
    m = lat.inverse.transpose() * phi.matrix.transpose() * lat.gram.transpose()
    return OperatorOnLattice(m, lat)


def right_dual(phi: OperatorOnLattice) -> OperatorOnLattice:
    """The operator with <v, right_dual(phi) w> = <phi v, w>."""
    lat = phi.ambient
    return OperatorOnLattice(lat.inverse * phi.matrix.transpose() * lat.gram, lat)


def is_isometry(phi: OperatorOnLattice) -> bool:
    """phi^t X phi = X, equivalently right_dual(phi) phi = id."""
    x = phi.ambient.gram
    return (phi.matrix.transpose() * x * phi.matrix - x).is_zero()


def semiorthogonal_sum(l1: BilinearLattice, l2: BilinearLattice,
                       coupling: IntMatrix) -> BilinearLattice:
    """Block Gram [[g1, coupling], [0, g2]]; coupling[i][j] = <u_i, v_j>."""
    if (coupling.rows, coupling.cols) != (l1.rank, l2.rank):
        raise ShapeError("coupling must be rank(l1) x rank(l2)")
    top = tuple([g + c for g, c in zip(l1.gram.entries, coupling.entries)])
    bottom = tuple([(0,) * l1.rank + g for g in l2.gram.entries])
    return BilinearLattice(IntMatrix(top + bottom))


def sum_projections(l1: BilinearLattice, l2: BilinearLattice,
                    coupling: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Projections induced by a semiorthogonal sum.

    lam2: M1 -> M2 with <u1, v2> = <lam2 u1, v2>_2,
    rho1: M2 -> M1 with <u1, v2> = <u1, rho1 v2>_1.
    Both are integral since the component Grams are unimodular.
    """
    return l2.inverse.transpose() * coupling.transpose(), l1.inverse * coupling


def verify_canmatr(l1: BilinearLattice, l2: BilinearLattice,
                   coupling: IntMatrix) -> bool:
    """Check the block-matrix formula for kappa of a semiorthogonal sum.

    kappa_M = [[k1 - rho1 k2 lam2, -rho1 k2], [k2 lam2, k2]].
    """
    total = semiorthogonal_sum(l1, l2, coupling)
    k1, k2 = l1.kappa, l2.kappa
    lam2, rho1 = sum_projections(l1, l2, coupling)
    rho1_k2 = rho1 * k2
    top_left, top_right = k1 - rho1_k2 * lam2, -rho1_k2
    bot_left = k2 * lam2
    rows = [a + b for a, b in zip(top_left.entries, top_right.entries)]
    rows += [a + b for a, b in zip(bot_left.entries, k2.entries)]
    return (IntMatrix(tuple(rows)) - total.kappa).is_zero()


def extension_trace_check(w: BilinearLattice, ell: Sequence[int]):
    """Extend W by a unit vector e with projection ell and verify the trace law.

    Builds M = Ze (+) W with <e, w_j> = <ell, w_j>_W, returns
    (tr kappa_M, <kappa_M e, e>) and asserts
    tr kappa_M = tr kappa_W + 1 - <ell,ell> and <kappa_M e, e> = 1 - <ell,ell>.
    """
    if len(ell) != w.rank:
        raise ShapeError("ell must lie in W")
    coupling_row = w.gram.transpose().apply(list(ell))  # ell^t . gram_W
    coupling = IntMatrix.from_rows([coupling_row])
    unit = BilinearLattice.standard(1)
    total = semiorthogonal_sum(unit, w, coupling)
    kappa = total.kappa
    tr_m = kappa.trace()
    e = [1] + [0] * w.rank
    kappa_e_e = pair(total, kappa.apply(e), e)
    ll = pair(w, ell, ell)
    tr_w = w.kappa.trace()
    if tr_m != tr_w + 1 - ll or kappa_e_e != 1 - ll:
        raise AssertionError("extension trace law violated (implementation bug)")
    return tr_m, kappa_e_e
