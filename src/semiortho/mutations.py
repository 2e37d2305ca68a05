"""Semiorthonormal collections, projections, mutations and the braid action.

A collection is an ordered list of lattice vectors whose Gram matrix is upper
triangular with units on the diagonal.  Left/right mutations of adjacent pairs
generate a braid group action; per-vector sign flips are kept as a separate
generator set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Literal, Sequence

from .bilinear_form import BilinearLattice, pair, restricted_gram
from .exact_linalg import IntMatrix, ShapeError, UnimodularityError, exact_int


class InadmissibleError(ValueError):
    """Submodule with non-unimodular restricted form."""


class MembershipError(ValueError):
    """Vector is not in the required orthogonal complement."""


Direction = Literal["L", "R"]


def _int_vector(v) -> tuple[int, ...]:
    return tuple(exact_int(x) for x in v)


def _ambient_vector(ambient: BilinearLattice, v) -> tuple[int, ...]:
    v = _int_vector(v)
    if len(v) != ambient.rank:
        raise ShapeError("vector length must equal ambient rank")
    return v


@dataclass(frozen=True)
class SonCollection:
    """Ordered vectors in an ambient lattice, semiorthonormal by contract.

    The collection need not span the ambient lattice; the ambient form stays
    fixed while mutations rewrite the vectors.
    """

    ambient: BilinearLattice
    vectors: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_vectors(ambient: BilinearLattice, vectors) -> "SonCollection":
        return SonCollection(ambient, tuple(_ambient_vector(ambient, v) for v in vectors))

    @staticmethod
    def standard_basis(ambient: BilinearLattice) -> "SonCollection":
        return SonCollection(ambient, IntMatrix.identity(ambient.rank).entries)

    def __len__(self) -> int:
        return len(self.vectors)

    def gram(self) -> IntMatrix:
        """Gram matrix of the collection under the ambient form."""
        return restricted_gram(self.ambient, self.vectors)

    def flip_sign(self, i: int) -> "SonCollection":
        vs = list(self.vectors)
        vs[i] = tuple(-x for x in vs[i])
        return SonCollection(self.ambient, tuple(vs))


def is_semiorthonormal(c: SonCollection) -> bool:
    g = c.gram()
    n = len(c)
    for i in range(n):
        if g[i, i] != 1:
            return False
        for j in range(i):
            if g[i, j] != 0:
                return False
    return True


@dataclass(frozen=True)
class AdmissibleSubmodule:
    """Submodule spanned by given basis vectors, with unimodular restricted form.

    `form` is the restricted form, built and checked on construction.
    """

    ambient: BilinearLattice
    basis: tuple[tuple[int, ...], ...]
    form: BilinearLattice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            form = BilinearLattice(restricted_gram(self.ambient, self.basis))
        except UnimodularityError:
            raise InadmissibleError("restricted Gram is not unimodular") from None
        object.__setattr__(self, "form", form)

    @staticmethod
    def from_basis(ambient: BilinearLattice, basis) -> "AdmissibleSubmodule":
        return AdmissibleSubmodule(ambient, tuple(map(_int_vector, basis)))

    def basis_matrix(self) -> IntMatrix:
        """Columns are the basis vectors in ambient coordinates (rank x 0 for no basis)."""
        return IntMatrix(tuple(zip(*self.basis)) or ((),) * self.ambient.rank)


# With B the basis columns and G_U = B^t X B unimodular (admissibility), both
# projections are B x for an integer x: G_U x = [<b_i, v>] for rho_U and
# G_U^t x = [<v, b_i>] for lambda_U.

def right_projection(u: AdmissibleSubmodule, v: Sequence[int]) -> tuple[int, ...]:
    """rho_U(v): the unique vector in U with <u, v> = <u, rho_U v> for u in U."""
    v = _ambient_vector(u.ambient, v)
    rhs = [pair(u.ambient, b, v) for b in u.basis]
    return u.basis_matrix().apply(u.form.inverse.apply(rhs))


def left_projection(u: AdmissibleSubmodule, v: Sequence[int]) -> tuple[int, ...]:
    """lambda_U(v): the unique vector in U with <v, u> = <lambda_U v, u> for u in U."""
    v = _ambient_vector(u.ambient, v)
    rhs = [pair(u.ambient, v, b) for b in u.basis]
    return u.basis_matrix().apply(u.form.inverse.transpose().apply(rhs))


def _in_left_orthogonal(u: AdmissibleSubmodule, v) -> bool:
    # ^perp U = {w : <w, u> = 0 for all u in U}
    return all(pair(u.ambient, v, b) == 0 for b in u.basis)


def _in_right_orthogonal(u: AdmissibleSubmodule, v) -> bool:
    # U^perp = {w : <u, w> = 0 for all u in U}
    return all(pair(u.ambient, b, v) == 0 for b in u.basis)


def mutation_through_submodule(u: AdmissibleSubmodule, v: Sequence[int],
                               direction: Direction) -> tuple[int, ...]:
    """Left mutation maps the left orthogonal of U onto the right one; right
    mutation is its inverse.  Both are isometries."""
    v = _ambient_vector(u.ambient, v)
    if direction == "L":
        if not _in_left_orthogonal(u, v):
            raise MembershipError("vector is not in the left orthogonal of U")
        p = right_projection(u, v)
    elif direction == "R":
        if not _in_right_orthogonal(u, v):
            raise MembershipError("vector is not in the right orthogonal of U")
        p = left_projection(u, v)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return tuple(a - b for a, b in zip(v, p))


def mutate_pair(c: SonCollection, nu: int, direction: Direction) -> SonCollection:
    """Replace the pair (e_{nu-1}, e_nu) by its left or right mutation.

    L(a,b) = (b - <a,b> a, a) and R(a,b) = (b, a - <a,b> b).
    """
    if not 1 <= nu <= len(c) - 1:
        raise IndexError(f"mutation index {nu} out of range 1..{len(c) - 1}")
    a = c.vectors[nu - 1]
    b = c.vectors[nu]
    if pair(c.ambient, a, a) != 1 or pair(c.ambient, b, b) != 1 \
            or pair(c.ambient, b, a) != 0:
        # mutations are defined on semiorthonormal pairs only
        raise ValueError("pair is not semiorthonormal")
    ab = pair(c.ambient, a, b)
    if direction == "L":
        new = (tuple(x - ab * y for x, y in zip(b, a)), a)
    elif direction == "R":
        new = (b, tuple(x - ab * y for x, y in zip(a, b)))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    vs = list(c.vectors)
    vs[nu - 1], vs[nu] = new
    return SonCollection(c.ambient, tuple(vs))


@dataclass(frozen=True)
class BraidWord:
    """Word in the generators L_nu / R_nu, applied left to right."""

    letters: tuple[tuple[int, Direction], ...]

    @staticmethod
    def parse(text: str) -> "BraidWord":
        letters = []
        for token in text.split():
            d = token[0].upper()
            if d not in ("L", "R") or not token[1:].isdigit():
                raise ValueError(f"bad braid letter {token!r}")
            nu = int(token[1:])
            if nu < 1:
                raise ValueError(f"braid index must be >= 1 in {token!r}")
            letters.append((nu, d))
        return BraidWord(tuple(letters))

    def __str__(self) -> str:
        return " ".join(f"{d}{nu}" for nu, d in self.letters)


def apply_braid(c: SonCollection, word: BraidWord) -> SonCollection:
    for nu, d in word.letters:
        c = mutate_pair(c, nu, d)
    return c


def collection_height(gram_rows: Sequence[Sequence[int]]) -> int:
    """Height of a collection = max |Gram entry|, from the rows of its Gram matrix."""
    return max((abs(x) for row in gram_rows for x in row), default=0)


def _sign_canonical(g: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    # lexicographically least Gram matrix over all per-vector sign choices;
    # flipping vector i negates row i and column i, so entry (i, j) depends
    # only on the relative sign s_i s_j.  One row-major pass over the entries:
    # a nonzero entry between vectors whose relative sign is still free ties
    # their components so that it reads -|g|; inside one component it is
    # forced.  Tying two components leaves the relative signs inside each
    # unchanged, so no earlier entry moves and the greedy choice is lex-least.
    n = len(g)
    comp = list(range(n))  # component label of each vector
    sign = [1] * n  # sign of each vector relative to its component
    for i, row in enumerate(g):
        for j, x in enumerate(row):
            if x == 0 or comp[i] == comp[j]:
                continue
            old, flip = comp[j], sign[i] * sign[j] * x > 0
            for k in range(n):
                if comp[k] == old:
                    comp[k] = comp[i]
                    if flip:
                        sign[k] = -sign[k]
    return tuple(tuple(s * t * x for t, x in zip(sign, row))
                 for s, row in zip(sign, g))


MARKOV_CANONICAL_GRAM = ((1, 3, 3), (0, 1, 3), (0, 0, 1))


@dataclass(frozen=True)
class OrbitReport:
    orbit_size: int
    truncated: bool
    canonical_gram: tuple[tuple[int, ...], ...]
    generators_used: tuple[str, ...]
    reached_markov_canonical: bool


def orbit_search(c: SonCollection, height_bound: int, max_nodes: int) -> OrbitReport:
    """BFS over mutations modulo the sign action on basis vectors.

    States are Gram matrices of the collection, canonicalized to the lex-least
    representative over sign flips.  States whose height exceeds the bound are
    not expanded; hitting either bound flags the report as truncated.
    """
    if height_bound < 0 or max_nodes <= 0:
        raise ValueError("height bound must be >= 0 and node cap >= 1")
    if not is_semiorthonormal(c):
        raise ValueError("collection is not semiorthonormal")
    n = len(c)
    target = _sign_canonical(MARKOV_CANONICAL_GRAM) if n == 3 else None
    start = _sign_canonical(c.gram().entries)
    seen = {start}
    queue = deque([start])
    truncated = False
    reached = start == target
    generators = [f"{d}{nu}" for nu in range(1, n) for d in ("L", "R")]
    used: set[str] = set()
    while queue:
        g = queue.popleft()
        if collection_height(g) > height_bound:
            truncated = True
            continue
        for nu in range(1, n):
            for d in ("L", "R"):
                ng = _mutate_gram(g, nu, d)
                cang = _sign_canonical(ng)
                if cang in seen:
                    continue
                if len(seen) >= max_nodes:
                    truncated = True
                    continue
                seen.add(cang)
                used.add(f"{d}{nu}")
                if cang == target:
                    reached = True
                queue.append(cang)
    canonical = min(seen)
    return OrbitReport(orbit_size=len(seen), truncated=truncated,
                       canonical_gram=canonical,
                       generators_used=tuple(sorted(used)),
                       reached_markov_canonical=bool(reached))


def _mutate_gram(g: tuple[tuple[int, ...], ...], nu: int,
                 direction: Direction) -> tuple[tuple[int, ...], ...]:
    # Gram effect of mutating the pair (e_{nu-1}, e_nu): the base change
    # touches only columns nu-1, nu and then rows nu-1, nu.
    # L: (a,b) -> (b - <a,b> a, a); R: (a,b) -> (b, a - <a,b> b).
    a, b = nu - 1, nu
    ab = g[a][b]
    rows = [list(r) for r in g]
    if direction == "L":
        # f_{nu-1} = e_nu - ab * e_{nu-1}, f_nu = e_{nu-1}
        for r in rows:
            r[a], r[b] = r[b] - ab * r[a], r[a]
        rows[a], rows[b] = [y - ab * x for x, y in zip(rows[a], rows[b])], rows[a]
    else:
        # f_{nu-1} = e_nu, f_nu = e_{nu-1} - ab * e_nu
        for r in rows:
            r[a], r[b] = r[b], r[a] - ab * r[b]
        rows[a], rows[b] = rows[b], [x - ab * y for x, y in zip(rows[a], rows[b])]
    return tuple(map(tuple, rows))
