"""Rank-3 semiorthonormal forms: trace criterion and Markov descent.

A rank-3 semiorthonormal basis has Gram matrix [[1,a,b],[0,1,c],[0,0,1]].
Type-1 forms correspond to solutions of the tripled Markov equation
a^2 + b^2 + c^2 = abc, and every nonzero solution descends to (3,3,3) by
Vieta moves.  Each abstract move is realized as explicit basis operations
(sign flips and pair mutations), so traces replay at the vector level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bilinear_form import BilinearLattice
from .exact_linalg import IntMatrix
from .mutations import (BraidWord, SonCollection, _check_letter, _flip_gram, _mutate_gram,
                        apply_braid, is_unitriangular)


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


# The word of each descent move, parsed once; words act on a rank-3 collection,
# left to right.  Flipping one vector negates two entries of the triple.  A
# mutation letter combines a Vieta substitution with a swap of neighbours, so
# a Vieta word realizes the substitution with two entries swapped.
MOVE_WORDS = {("sign_flip", (1, 2)): BraidWord.parse("F0"),
              ("sign_flip", (1, 3)): BraidWord.parse("F1"),
              ("sign_flip", (2, 3)): BraidWord.parse("F2"),
              ("vieta", (1,)): BraidWord.parse("F1 R2"),
              ("vieta", (2,)): BraidWord.parse("F0 R1"),
              ("vieta", (3,)): BraidWord.parse("F1 L1")}


def apply_word(t: MarkovTriple, word: BraidWord) -> MarkovTriple:
    """The triple after the word's letters act on the flat state (a, b, c)."""
    cur = t.as_tuple()
    for nu, d in word.letters:
        _check_letter(nu, d, 3)
        cur = _flip_gram(cur, 3, nu) if d == "F" else _mutate_gram(cur, 3, nu, d)
    return MarkovTriple(*cur)


@dataclass(frozen=True)
class Move:
    """One descent step: kind "sign_flip" negates the two entries at positions,
    kind "vieta" substitutes the one entry at positions; triple_after is the
    triple its word realizes."""

    kind: str
    positions: tuple[int, ...]
    word: BraidWord
    triple_after: MarkovTriple


def _move(t: MarkovTriple, kind: str, positions: tuple[int, ...]) -> Move:
    word = MOVE_WORDS[kind, positions]
    return Move(kind, positions, word, apply_word(t, word))


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
    each move's word with apply_braid; the collection must stay
    semiorthonormal and its Gram must hit every recorded waypoint.
    """
    c = SonCollection.standard_basis(trace.start.lattice())
    g = c.gram()
    for move in trace.moves:
        c = apply_braid(c, move.word)
        # one Gram per move, read for both the test and the waypoint
        g = c.gram()
        if not is_unitriangular(g):
            return False
        if (g[0, 1], g[0, 2], g[1, 2]) != move.triple_after.as_tuple():
            return False
    return (g[0, 1], g[0, 2], g[1, 2]) == trace.end.as_tuple()


def reduce_to_canonical(t: MarkovTriple) -> ReductionTrace:
    """Descend a nonzero Markov triple to (3,3,3) by greedy Vieta moves.

    Sign normalization first, then repeatedly apply the Vieta move at the
    largest entry, the one move that strictly decreases the maximum.  Every
    move carries its basis-operation word; see realize_trace.
    """
    if not is_markov(t):
        raise NotMarkov(f"{t.as_tuple()} does not satisfy a^2+b^2+c^2 = abc")
    if t.as_tuple() == (0, 0, 0):
        raise ZeroTriple("the zero solution is the identity form, not type 1")
    # t is a nonzero Markov triple, so abc = a^2 + b^2 + c^2 > 0: no entry is
    # 0, and none or exactly two are negative
    negs = tuple(p for p, v in zip((1, 2, 3), t.as_tuple()) if v < 0)
    moves = [_move(t, "sign_flip", negs)] if negs else []
    cur = moves[-1].triple_after if moves else t
    while cur.as_tuple() != (3, 3, 3):
        # entries are >= 3: below the maximum M the new entry yz - x >= 3M - M
        # exceeds M, and at M it is (x^2 + y^2)/M < M, M being tied only at (3,3,3)
        best = 1 + cur.as_tuple().index(cur.max_abs())
        pure = vieta(cur, best)
        if pure.max_abs() >= cur.max_abs():
            raise AssertionError(f"descent stuck at {cur.as_tuple()}")
        move = _move(cur, "vieta", (best,))
        assert sorted(move.triple_after.as_tuple()) == sorted(pure.as_tuple()), \
            f"word {move.word} realized {move.triple_after.as_tuple()}, not {pure.as_tuple()}"
        moves.append(move)
        cur = move.triple_after
    return ReductionTrace(t, tuple(moves), cur)

