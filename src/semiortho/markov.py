"""Rank-3 semiorthonormal forms: trace criterion and Markov descent.

A rank-3 semiorthonormal basis has Gram matrix [[1,a,b],[0,1,c],[0,0,1]].
Type-1 forms correspond to solutions of the tripled Markov equation
a^2 + b^2 + c^2 = abc, and every nonzero solution descends to (3,3,3) by
Vieta moves.  Each abstract move is realized as explicit basis operations
(sign flips and pair mutations), so traces replay at the vector level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .bilinear_form import BilinearLattice, canonical_operator
from .exact_linalg import IntMatrix
from .mutations import SonCollection, _mutate_gram, is_semiorthonormal, is_unitriangular, mutate_pair


class NotMarkov(ValueError):
    """Triple does not satisfy the tripled Markov equation."""


class ZeroTriple(ValueError):
    """The all-zero solution: identity form, decomposable, nothing to reduce."""


@dataclass(frozen=True)
class MarkovTriple:
    a: int
    b: int
    c: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def gram(self) -> IntMatrix:
        return IntMatrix.from_rows([[1, self.a, self.b],
                                    [0, 1, self.c],
                                    [0, 0, 1]])

    def lattice(self) -> BilinearLattice:
        return BilinearLattice(self.gram())

    def max_abs(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c))


def trace_kappa_rank3(t: MarkovTriple) -> int:
    """tr kappa of the associated form: 3 - a^2 - b^2 - c^2 + abc."""
    a, b, c = t.as_tuple()
    return 3 - a * a - b * b - c * c + a * b * c


def is_markov(t: MarkovTriple) -> bool:
    """a^2 + b^2 + c^2 = abc, equivalently tr kappa = 3."""
    a, b, c = t.as_tuple()
    return a * a + b * b + c * c == a * b * c


def vieta(t: MarkovTriple, pos: int) -> MarkovTriple:
    """Replace one coordinate by its conjugate root: a -> bc - a etc."""
    a, b, c = t.as_tuple()
    if pos == 1:
        return MarkovTriple(b * c - a, b, c)
    if pos == 2:
        return MarkovTriple(a, a * c - b, c)
    if pos == 3:
        return MarkovTriple(a, b, a * b - c)
    raise ValueError(f"position must be 1, 2 or 3, got {pos}")


# Tokens are basis operations on a rank-3 collection, applied left to right:
# Fi flips the sign of vector i, L/R letters mutate adjacent pairs.
_FLIP_FOR_PAIR = {frozenset({1, 2}): "F0", frozenset({1, 3}): "F1",
                  frozenset({2, 3}): "F2"}

# Realization of the Vieta move at each position.  A mutation letter always
# combines a Vieta-type substitution with a transposition of neighbours, so
# the realized triple is the pure Vieta result with two entries swapped.
_VIETA_WORD = {1: "F1 R2", 2: "F0 R1", 3: "F1 L1"}


def _apply_token(triple: tuple[int, int, int], token: str) -> tuple[int, int, int]:
    a, b, c = triple
    if token == "F0":
        return (-a, -b, c)
    if token == "F1":
        return (-a, b, -c)
    if token == "F2":
        return (a, -b, -c)
    if token[0] in ("L", "R") and token[1:] in ("1", "2"):
        return _mutate_gram(triple, 3, int(token[1:]), token[0])
    raise ValueError(f"unknown token {token!r}")


def apply_word(t: MarkovTriple, word: str) -> MarkovTriple:
    cur = t.as_tuple()
    for token in word.split():
        cur = _apply_token(cur, token)
    return MarkovTriple(*cur)


@dataclass(frozen=True)
class SignFlipMove:
    """Procedure flipping the signs of two triple entries at once."""

    positions: tuple[int, int]
    word: str  # the single basis-vector flip realizing it
    triple_after: MarkovTriple


@dataclass(frozen=True)
class VietaMove:
    """Vieta substitution at one position, realized by basis operations.

    The realization permutes two entries in addition to the substitution;
    triple_after records the realized result.
    """

    position: int
    word: str
    triple_after: MarkovTriple


Move = Union[SignFlipMove, VietaMove]


@dataclass(frozen=True)
class ReductionTrace:
    start: MarkovTriple
    moves: tuple[Move, ...]
    end: MarkovTriple


def replay_trace(trace: ReductionTrace) -> bool:
    """Re-run every move's word at the triple level and check each waypoint."""
    cur = trace.start
    for move in trace.moves:
        cur = apply_word(cur, move.word)
        if cur != move.triple_after:
            return False
    return cur == trace.end


def realize_trace(trace: ReductionTrace) -> bool:
    """Replay the trace as honest vector operations in the ambient form.

    Starts from the standard basis of the lattice of trace.start and applies
    each token as a sign flip or pair mutation; the collection must stay
    semiorthonormal and its Gram must hit every recorded waypoint.
    """
    c = SonCollection.standard_basis(trace.start.lattice())
    g = c.gram()
    for move in trace.moves:
        for token in move.word.split():
            if token.startswith("F"):
                c = c.flip_sign(int(token[1:]))
            else:
                c = mutate_pair(c, int(token[1:]), token[0])
        # one Gram per move, read for both the test and the waypoint
        g = c.gram()
        if not is_unitriangular(g):
            return False
        if (g[0, 1], g[0, 2], g[1, 2]) != move.triple_after.as_tuple():
            return False
    return (g[0, 1], g[0, 2], g[1, 2]) == trace.end.as_tuple()


def _normalize_signs(t: MarkovTriple) -> tuple[list[Move], MarkovTriple]:
    negs = [p for p, v in zip((1, 2, 3), t.as_tuple()) if v < 0]
    if not negs:
        return [], t
    # nonzero Markov triples have abc > 0, so the negative count is even
    if len(negs) != 2:
        raise NotMarkov("odd number of negative entries cannot satisfy "
                        "the Markov equation with nonzero product")
    word = _FLIP_FOR_PAIR[frozenset(negs)]
    after = apply_word(t, word)
    return [SignFlipMove(tuple(negs), word, after)], after


def reduce_to_canonical(t: MarkovTriple) -> ReductionTrace:
    """Descend a nonzero Markov triple to (3,3,3) by greedy Vieta moves.

    Sign normalization first, then repeatedly apply the Vieta move that
    strictly decreases the maximum entry (lowest position on ties).  Every
    move carries its basis-operation word; see realize_trace.
    """
    if not is_markov(t):
        raise NotMarkov(f"{t.as_tuple()} does not satisfy a^2+b^2+c^2 = abc")
    if t.as_tuple() == (0, 0, 0):
        raise ZeroTriple("the zero solution is the identity form, not type 1")
    moves, cur = _normalize_signs(t)
    while cur.as_tuple() != (3, 3, 3):
        best = None
        for pos in (1, 2, 3):
            cand = vieta(cur, pos)
            if cand.max_abs() < cur.max_abs():
                best = pos
                break
        if best is None:
            raise AssertionError(f"descent stuck at {cur.as_tuple()}")
        word = _VIETA_WORD[best]
        after = apply_word(cur, word)
        assert sorted(after.as_tuple()) == sorted(vieta(cur, best).as_tuple())
        moves.append(VietaMove(best, word, after))
        cur = after
    return ReductionTrace(t, tuple(moves), cur)


@dataclass(frozen=True)
class Rank3Class:
    kind: str  # "unipotent" | "minus_case" | "split"
    trace: int


def classify_rank3(lattice: BilinearLattice) -> Rank3Class:
    """Jordan shape of kappa for a rank-3 semiorthonormal form, by trace."""
    if lattice.rank != 3:
        raise ValueError("classification applies to rank 3 only")
    if not is_semiorthonormal(SonCollection.standard_basis(lattice)):
        raise ValueError("basis is not semiorthonormal")
    tr = canonical_operator(lattice).matrix.trace()
    if tr == 3:
        return Rank3Class("unipotent", tr)
    if tr == -1:
        return Rank3Class("minus_case", tr)
    return Rank3Class("split", tr)
