"""Semiorthonormal collections, projections, mutations and the braid action.

A collection is an ordered list of lattice vectors whose Gram matrix is upper
triangular with units on the diagonal.  Left/right mutations of adjacent pairs
generate a braid group action, and per-vector sign flips act alongside it;
`BraidWord` spells both, and `apply_braid` applies them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache
from typing import Literal, Sequence

from .bilinear_form import BilinearLattice, pair, restricted_gram
from .exact_linalg import IntMatrix, ShapeError, UnimodularityError, exact_int


class InadmissibleError(ValueError):
    """Submodule with non-unimodular restricted form."""


class MembershipError(ValueError):
    """Vector is not in the required orthogonal complement."""


Direction = Literal["L", "R"]
Letter = Literal["L", "R", "F"]


def _ambient_vector(ambient: BilinearLattice, v) -> tuple[int, ...]:
    # a non-integral entry raises ValueError, a vector of the wrong length ShapeError
    v = tuple(exact_int(x) for x in v)
    if len(v) != ambient.rank:
        raise ShapeError("vector length must equal ambient rank")
    return v


@dataclass(frozen=True)
class SonCollection:
    """Ordered vectors in an ambient lattice, semiorthonormal by construction.

    The collection need not span the ambient lattice; the ambient form stays
    fixed while mutations rewrite the vectors.  Construction checks that each
    vector is integral and of the ambient rank, stores it as a tuple of ints,
    and raises ValueError unless the Gram is upper unitriangular.
    """

    ambient: BilinearLattice
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors",
                           tuple(_ambient_vector(self.ambient, v) for v in self.vectors))
        if not is_semiorthonormal(self):
            raise ValueError("collection is not semiorthonormal")

    def _derived(self, vectors: tuple[tuple[int, ...], ...]) -> "SonCollection":
        # a mutation or a sign flip of a semiorthonormal collection is
        # semiorthonormal, so they skip the checks of __post_init__
        c = object.__new__(SonCollection)
        object.__setattr__(c, "ambient", self.ambient)
        object.__setattr__(c, "vectors", vectors)
        return c

    @staticmethod
    def standard_basis(ambient: BilinearLattice) -> "SonCollection":
        return SonCollection(ambient, IntMatrix.identity(ambient.rank).entries)

    def __len__(self) -> int:
        return len(self.vectors)

    def gram(self) -> IntMatrix:
        """Gram matrix of the collection under the ambient form, built once."""
        if "_gram" not in self.__dict__:
            object.__setattr__(self, "_gram", restricted_gram(self.ambient, self.vectors))
        return self._gram

    def flip_sign(self, i: int) -> "SonCollection":
        _check_letter(i, "F", len(self))
        vs = list(self.vectors)
        vs[i] = tuple(-x for x in vs[i])
        return self._derived(tuple(vs))


def _check_letter(nu: int, d: str, n: int, letters: tuple[str, ...] = ("L", "R", "F")):
    """Raise unless the letter d<nu> is one of `letters` and acts on n vectors:
    a mutation L/R needs 1 <= nu <= n-1, a sign flip F needs 0 <= nu <= n-1."""
    if d not in letters:
        raise ValueError(f"unknown direction {d!r}")
    low, kind = (0, "sign flip") if d == "F" else (1, "mutation")
    if not low <= nu < n:
        if low >= n:
            raise IndexError(f"{kind} index {nu} out of range: no {kind} acts on "
                             f"{n} vector{'' if n == 1 else 's'}")
        raise IndexError(f"{kind} index {nu} out of range {low}..{n - 1}")


def is_semiorthonormal(c: SonCollection) -> bool:
    return is_unitriangular(c.gram())


def is_unitriangular(gram: IntMatrix) -> bool:
    """Units on the diagonal and zeros below it: the Gram of a semiorthonormal collection."""
    return all(x == int(i == j) for i, row in enumerate(gram.entries)
               for j, x in enumerate(row[:i + 1]))


@dataclass(frozen=True)
class AdmissibleSubmodule:
    """Submodule spanned by given basis vectors, with unimodular restricted form.

    Construction checks the basis vectors as `SonCollection` checks its own and
    builds and checks `form`, the restricted form.
    """

    ambient: BilinearLattice
    basis: tuple[tuple[int, ...], ...]
    form: BilinearLattice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "basis",
                           tuple(_ambient_vector(self.ambient, v) for v in self.basis))
        try:
            form = BilinearLattice(restricted_gram(self.ambient, self.basis))
        except UnimodularityError:
            raise InadmissibleError("restricted Gram is not unimodular") from None
        object.__setattr__(self, "form", form)

    def basis_matrix(self) -> IntMatrix:
        """Columns are the basis vectors in ambient coordinates."""
        return IntMatrix(self.basis, self.ambient.rank).transpose()


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


def mutation_through_submodule(u: AdmissibleSubmodule, v: Sequence[int],
                               direction: Direction) -> tuple[int, ...]:
    """Left mutation maps ^perp U = {w : <w, U> = 0} onto U^perp = {w : <U, w> = 0};
    right mutation is its inverse.  Both are isometries."""
    v = _ambient_vector(u.ambient, v)
    if direction == "L":
        if any(pair(u.ambient, v, b) for b in u.basis):
            raise MembershipError("vector is not in the left orthogonal of U")
        p = right_projection(u, v)
    elif direction == "R":
        if any(pair(u.ambient, b, v) for b in u.basis):
            raise MembershipError("vector is not in the right orthogonal of U")
        p = left_projection(u, v)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return tuple(a - b for a, b in zip(v, p))


def mutate_pair(c: SonCollection, nu: int, direction: Direction) -> SonCollection:
    """Replace the pair (e_{nu-1}, e_nu) by its left or right mutation.

    L(a,b) = (b - <a,b> a, a) and R(a,b) = (b, a - <a,b> b).
    """
    _check_letter(nu, direction, len(c), ("L", "R"))
    a = c.vectors[nu - 1]
    b = c.vectors[nu]
    ab = pair(c.ambient, a, b)
    if direction == "L":
        new = (tuple(x - ab * y for x, y in zip(b, a)), a)
    else:
        new = (b, tuple(x - ab * y for x, y in zip(a, b)))
    vs = list(c.vectors)
    vs[nu - 1], vs[nu] = new
    return c._derived(tuple(vs))


@dataclass(frozen=True)
class BraidWord:
    """Word in the mutations L_nu / R_nu (nu >= 1) and the sign flips F_i, which
    negate e_i (i >= 0), applied left to right."""

    letters: tuple[tuple[int, Letter], ...]

    @staticmethod
    def parse(text: str) -> "BraidWord":
        letters = []
        for token in text.split():
            d = token[0].upper()
            # ASCII digits only: str.isdigit alone admits "²" and "١"
            if d not in ("L", "R", "F") or not (token.isascii() and token[1:].isdigit()):
                raise ValueError(f"bad braid letter {token!r}")
            nu = int(token[1:])
            if nu < 1 and d != "F":
                raise ValueError(f"braid index must be >= 1 in {token!r}")
            letters.append((nu, d))
        return BraidWord(tuple(letters))

    def __str__(self) -> str:
        return " ".join([f"{d}{nu}" for nu, d in self.letters])


def apply_braid(c: SonCollection, word: BraidWord) -> SonCollection:
    for nu, d in word.letters:
        c = c.flip_sign(nu) if d == "F" else mutate_pair(c, nu, d)
    return c


@cache
def _layout(n: int):
    """The (i, j) of each entry of the flat state, a rank-n Gram's strict upper
    triangle row-major (lex-ordered as the Gram), and per nu the index of g[nu-1][nu]
    with the index pairs (g[i][nu-1], g[i][nu]), i < nu-1, and (g[nu-1][j], g[nu][j]), j > nu."""
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    at = {p: k for k, p in enumerate(pairs)}
    return pairs, [None] + [(at[b - 1, b], tuple((at[i, b - 1], at[i, b]) for i in range(b - 1))
                             + tuple((at[b - 1, j], at[b, j]) for j in range(b + 1, n)))
                            for b in range(1, n)]


def _sign_canonical(s: tuple[int, ...], n: int) -> tuple[int, ...]:
    # lex-least flat state over per-vector sign flips; flipping vector i
    # negates row and column i, so entry (i, j) only sees s_i s_j
    row0 = s[:n - 1]
    # when row 0 has no zero it comes first and ties every vector to vector 0
    sign = [1] + [-1 if x > 0 else 1 for x in row0] if all(row0) else _tied_signs(s, n)
    return tuple([sign[i] * sign[j] * x for (i, j), x in zip(_layout(n)[0], s)])


def _tied_signs(s: tuple[int, ...], n: int) -> list[int]:
    # In one row-major pass a nonzero entry between two sign components ties
    # them so that it reads -|g|, which moves no earlier entry, so the greedy
    # choice is lex-least; inside one component the entry is forced.
    comp = list(range(n))  # component label of each vector
    sign = [1] * n  # sign of each vector relative to its component
    for (i, j), x in zip(_layout(n)[0], s):
        if x == 0 or comp[i] == comp[j]:
            continue
        old, flip = comp[j], sign[i] * sign[j] * x > 0
        for k in range(n):
            if comp[k] == old:
                comp[k] = comp[i]
                if flip:
                    sign[k] = -sign[k]
    return sign


MARKOV_CANONICAL_GRAM = ((1, 3, 3), (0, 1, 3), (0, 0, 1))


@dataclass(frozen=True)
class OrbitReport:
    orbit_size: int
    truncated_by: tuple[str, ...]  # sorted, from "height" and "node_cap"
    canonical_gram: tuple[tuple[int, ...], ...]
    generators_used: tuple[str, ...]
    reached_markov_canonical: bool

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_by)


def orbit_search(c: SonCollection, height_bound: int, max_nodes: int) -> OrbitReport:
    """BFS over mutations modulo the sign action on basis vectors.

    States are the flat strict upper triangles of the collection's Gram,
    canonicalized to the lex-least representative over sign flips.  A state
    whose height, max |Gram entry| with the unit diagonal, exceeds the bound
    is not expanded; hitting either bound flags the report as truncated.
    The search stops at the first new state the node cap refuses, since no
    state can join the orbit after it; "height" then also flags any state
    still queued above the bound.  A state is not mutated back along the
    move that made it: a mutation of a sign flip is a sign flip of the
    mutation, so that move always returns to a state already seen.
    The search starts from one Gram of c, which is unitriangular because c
    is a SonCollection.
    """
    if height_bound < 0 or max_nodes <= 0:
        raise ValueError("height bound must be >= 0 and node cap >= 1")
    g = c.gram().entries
    n = len(c)
    pairs = _layout(n)[0]
    target = n == 3 and _sign_canonical(tuple(MARKOV_CANONICAL_GRAM[i][j] for i, j in pairs), 3)
    start = _sign_canonical(tuple(g[i][j] for i, j in pairs), n)
    seen = {start}
    # each state is queued with the index in `moves` of the move that undoes
    # the one that made it: L<nu> and R<nu> are inverse and sit at k and k ^ 1
    queue = deque([(start, -1)])
    truncated_by = set()
    limit = height_bound if height_bound >= min(n, 1) else -1  # the diagonal is 1 high
    moves = [(nu, d, f"{d}{nu}") for nu in range(1, n) for d in ("L", "R")]
    used: set[str] = set()
    while queue and "node_cap" not in truncated_by:
        s, back = queue.popleft()
        if max(map(abs, s), default=0) > limit:
            truncated_by.add("height")
            continue
        for k, (nu, d, name) in enumerate(moves):
            if k == back:
                continue
            t = _sign_canonical(_mutate_gram(s, n, nu, d), n)
            if t in seen:
                continue
            if len(seen) >= max_nodes:
                truncated_by.add("node_cap")
                break
            seen.add(t)
            used.add(name)
            queue.append((t, k ^ 1))
    if any(max(map(abs, s), default=0) > limit for s, _ in queue):
        truncated_by.add("height")  # what popping the rest of the queue would have flagged
    flat = iter(min(seen))
    canonical = tuple(tuple(1 if j == i else next(flat) if j > i else 0 for j in range(n))
                      for i in range(n))
    return OrbitReport(orbit_size=len(seen), truncated_by=tuple(sorted(truncated_by)),
                       canonical_gram=canonical, generators_used=tuple(sorted(used)),
                       reached_markov_canonical=target in seen)


def _mutate_gram(s: tuple[int, ...], n: int, nu: int,
                 direction: Direction) -> tuple[int, ...]:
    # Unchecked: nu in 1..n-1 and direction L or R (see _check_letter).
    # Flat state after mutating the pair (e_{nu-1}, e_nu): only the entries
    # above and right of the pair and ab = g[nu-1][nu] itself, which becomes -ab,
    # move.  L: (a,b) -> (b - ab a, a); R: (a,b) -> (b, a - ab b).
    k, touched = _layout(n)[1][nu]
    ab = s[k]
    t = list(s)
    t[k] = -ab
    if direction == "L":
        for p, q in touched:
            t[p], t[q] = s[q] - ab * s[p], s[p]
    else:
        for p, q in touched:
            t[p], t[q] = s[q], s[p] - ab * s[q]
    return tuple(t)


def _flip_gram(s: tuple[int, ...], n: int, i: int) -> tuple[int, ...]:
    # Unchecked: i in 0..n-1 (see _check_letter).
    # Flat state after flipping the sign of e_i: the entries in row and column i negate.
    return tuple([-x if i in p else x for p, x in zip(_layout(n)[0], s)])
