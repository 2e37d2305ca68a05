"""Rank-3 trace criterion, Vieta moves, descent traces, vector replay."""

import random
from collections import Counter
from dataclasses import replace
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiortho import markov, mutations
from semiortho.bilinear_form import BilinearLattice, canonical_operator
from semiortho.classification import DecomposableRational, IrrationalSpectrum, Type1, detect_type
from semiortho.markov import (
    MOVE_WORDS,
    MarkovTriple,
    NotMarkov,
    ReductionTrace,
    ZeroTriple,
    apply_word,
    is_markov,
    realize_trace,
    reduce_to_canonical,
    replay_trace,
    trace_kappa_rank3,
    vieta,
)
from semiortho.mutations import BraidWord, SonCollection, apply_braid, mutate_pair
from semiortho.properties import markov_failures

small_ints = st.integers(min_value=-30, max_value=30)


def test_trace_examples():
    assert trace_kappa_rank3(MarkovTriple(3, 3, 3)) == 3
    assert trace_kappa_rank3(MarkovTriple(0, 0, 0)) == 3
    assert trace_kappa_rank3(MarkovTriple(1, 1, 1)) == 1


@given(small_ints, small_ints, small_ints)
@settings(max_examples=150, deadline=None)
def test_trace_matches_canonical_operator(a, b, c):
    t = MarkovTriple(a, b, c)
    assert trace_kappa_rank3(t) == canonical_operator(t.lattice()).matrix.trace()
    assert is_markov(t) == (trace_kappa_rank3(t) == 3)


def test_is_markov_examples():
    assert is_markov(MarkovTriple(3, 3, 3))
    assert is_markov(MarkovTriple(3, 3, 6))
    assert not is_markov(MarkovTriple(1, 1, 1))


@given(small_ints, small_ints, small_ints, st.sampled_from([1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_vieta_involution_and_invariants(a, b, c, pos):
    t = MarkovTriple(a, b, c)
    moved = vieta(t, pos)
    assert vieta(moved, pos) == t
    assert trace_kappa_rank3(moved) == trace_kappa_rank3(t)
    assert is_markov(moved) == is_markov(t)


def test_vieta_examples():
    assert vieta(MarkovTriple(3, 3, 3), 3) == MarkovTriple(3, 3, 6)
    assert vieta(MarkovTriple(3, 6, 15), 1) == MarkovTriple(87, 6, 15)
    with pytest.raises(ValueError):
        vieta(MarkovTriple(1, 1, 1), 0)


@given(small_ints, small_ints, small_ints)
@settings(max_examples=100, deadline=None)
def test_mutation_letters_match_printed_rules(a, b, c):
    # the Gram-level effect of each letter, computed through the mutation
    # machinery, equals the closed-form rewrite rules
    t = MarkovTriple(a, b, c)
    assert apply_word(t, BraidWord.parse("L1")) == MarkovTriple(-a, c - a * b, b)
    assert apply_word(t, BraidWord.parse("L2")) == MarkovTriple(b - a * c, a, -c)
    assert apply_word(t, BraidWord.parse("R2")) == MarkovTriple(b, a - b * c, -c)
    assert apply_word(t, BraidWord.parse("R1")) == MarkovTriple(-a, c, b - a * c)
    # mutation letters invert pairwise
    for w, winv in (("L1", "R1"), ("L2", "R2")):
        assert apply_word(apply_word(t, BraidWord.parse(w)), BraidWord.parse(winv)) == t


def test_apply_word_flips():
    t = MarkovTriple(1, 2, 3)
    assert apply_word(t, BraidWord.parse("F0")) == MarkovTriple(-1, -2, 3)
    assert apply_word(t, BraidWord.parse("F1")) == MarkovTriple(-1, 2, -3)
    assert apply_word(t, BraidWord.parse("F2")) == MarkovTriple(1, -2, -3)
    with pytest.raises(ValueError):
        BraidWord.parse("Q7")
    # the triple checks a letter against rank 3 as the vectors do
    with pytest.raises(IndexError, match="sign flip index 3 out of range 0..2"):
        apply_word(t, BraidWord.parse("F3"))
    with pytest.raises(IndexError, match="mutation index 3 out of range 1..2"):
        apply_word(MarkovTriple(3, 3, 3), BraidWord.parse("L3"))


def _outcome(run):
    """The value of run(), or the type and message of the error it raises."""
    try:
        return run()
    except (ValueError, IndexError) as e:
        return type(e), str(e)


def _vector_triple(t, w):
    g = apply_braid(SonCollection.standard_basis(t.lattice()), w).gram()
    return g[0, 1], g[0, 2], g[1, 2]


def test_flat_and_vector_interpreters_agree_on_every_word():
    # letters outside the rank or the alphabet included: both refuse them alike
    rng = random.Random(16)
    letters = [(nu, d) for d in "LRF" for nu in range(-1, 4)]
    seen = set()
    for _ in range(150):
        t = MarkovTriple(3, 3, 3)
        for _ in range(rng.randint(0, 4)):
            t = vieta(t, rng.randint(1, 3))
        a, b, c = t.as_tuple()
        t = rng.choice([t, MarkovTriple(-a, -b, c), MarkovTriple(a, -b, -c), MarkovTriple(0, 0, 0)])
        words = [BraidWord(tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))))
                 for _ in range(6)] + [BraidWord(((1, "X"),))]
        for w in words:
            flat = _outcome(lambda: apply_word(t, w).as_tuple())
            assert flat == _outcome(lambda: _vector_triple(t, w)), (t, str(w))
            seen.add(flat[0] if isinstance(flat[0], type) else "triple")
    assert seen == {"triple", ValueError, IndexError}


def test_reduction_examples():
    tr = reduce_to_canonical(MarkovTriple(3, 3, 3))
    assert tr.moves == () and tr.end == MarkovTriple(3, 3, 3)
    tr = reduce_to_canonical(MarkovTriple(3, 3, 6))
    assert len(tr.moves) == 1 and tr.moves[0].kind == "vieta"
    tr = reduce_to_canonical(MarkovTriple(-3, 3, -6))
    assert tr.moves[0].kind == "sign_flip"
    assert tr.end == MarkovTriple(3, 3, 3)
    assert replay_trace(tr) and realize_trace(tr)


# the two entries each Vieta word swaps besides its substitution
_VIETA_SWAP = {1: (0, 1), 2: (1, 2), 3: (1, 2)}


def test_move_words_act_as_their_moves():
    assert sorted(MOVE_WORDS) == [("sign_flip", (1, 2)), ("sign_flip", (1, 3)),
                                  ("sign_flip", (2, 3)), ("vieta", (1,)), ("vieta", (2,)),
                                  ("vieta", (3,))]
    rng = random.Random(18)
    for k in range(200):
        t = MarkovTriple(*(rng.randint(-10**6, 10**6) for _ in range(3)))
        if k % 2:  # a Markov triple with an even sign pattern
            t = MarkovTriple(3, 3, 3)
            for _ in range(rng.randint(0, 9)):
                t = vieta(t, rng.randint(1, 3))
            t = apply_word(t, rng.choice(list(MOVE_WORDS.values())))
        for (kind, positions), word in MOVE_WORDS.items():
            if kind == "sign_flip":
                want = [-v if p in positions else v for p, v in zip((1, 2, 3), t.as_tuple())]
            else:
                (p,) = positions
                want = list(vieta(t, p).as_tuple())
                i, j = _VIETA_SWAP[p]
                want[i], want[j] = want[j], want[i]
            assert list(apply_word(t, word).as_tuple()) == want, (t, kind, positions)
    # for example the word at position 1 gives (b, bc - a, c)
    assert apply_word(MarkovTriple(3, 6, 15), MOVE_WORDS["vieta", (1,)]) == \
        MarkovTriple(6, 87, 15)


def _markov_triples(bound: int) -> set[tuple[int, int, int]]:
    """The sorted positive Markov triples with every entry at most bound."""
    seen, todo = {(3, 3, 3)}, [MarkovTriple(3, 3, 3)]
    while todo:
        t = todo.pop()
        for p in (1, 2, 3):
            u = tuple(sorted(vieta(t, p).as_tuple()))
            if u[2] <= bound and u not in seen:
                seen.add(u)
                todo.append(MarkovTriple(*u))
    return seen


def _scan_positions(t: MarkovTriple) -> list[int]:
    """The Vieta positions of a descent that takes at each step the lowest
    position whose substitution lowers the maximum, after the signs are made
    positive as the trace's flip makes them."""
    cur = MarkovTriple(*map(abs, t.as_tuple()))
    out = []
    while cur.as_tuple() != (3, 3, 3):
        p = next(p for p in (1, 2, 3) if vieta(cur, p).max_abs() < cur.max_abs())
        out.append(p)
        cur = apply_word(cur, MOVE_WORDS["vieta", (p,)])
    return out


def test_descent_at_the_largest_entry_matches_the_lowering_scan():
    triples = _markov_triples(10**6)
    starts = {tuple(s * v for s, v in zip(signs, order))
              for t in triples for order in permutations(t)
              for signs in ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))}
    assert (len(triples), len(starts)) == (35, 808)
    for start in sorted(starts):
        t = MarkovTriple(*start)
        tr = reduce_to_canonical(t)
        assert [m.positions[0] for m in tr.moves if m.kind == "vieta"] == _scan_positions(t), t


def test_descent_keeps_its_checks(monkeypatch):
    # a substitution that does not lower the maximum stops the descent
    monkeypatch.setattr(markov, "vieta", lambda t, pos: MarkovTriple(9, 9, 9))
    with pytest.raises(AssertionError, match="descent stuck at"):
        reduce_to_canonical(MarkovTriple(3, 3, 6))
    monkeypatch.undo()
    # a word whose triple is not the substitution up to order fails the cross-check
    monkeypatch.setitem(MOVE_WORDS, ("vieta", (3,)), BraidWord.parse("L1"))
    with pytest.raises(AssertionError, match=r"word L1 realized \(-3, -3, 3\), not \(3, 3, 3\)"):
        reduce_to_canonical(MarkovTriple(3, 3, 6))


def test_reduction_errors():
    with pytest.raises(NotMarkov):
        reduce_to_canonical(MarkovTriple(1, 1, 1))
    with pytest.raises(ZeroTriple):
        reduce_to_canonical(MarkovTriple(0, 0, 0))


def test_reduction_random_walks():
    rng = random.Random(13)
    for _ in range(120):
        t = MarkovTriple(3, 3, 3)
        for _ in range(rng.randint(0, 9)):
            t = vieta(t, rng.randint(1, 3))
        if rng.random() < 0.5:
            t = apply_word(t, BraidWord.parse(rng.choice(["F0", "F1", "F2"])))
        tr = reduce_to_canonical(t)
        assert tr.start == t and markov_failures(tr) == 0
        # every Vieta move preserves the Markov invariant
        for move in tr.moves:
            assert is_markov(move.triple_after)


def test_replay_rejects_tampered_trace():
    tr = reduce_to_canonical(MarkovTriple(3, 6, 15))
    bad = ReductionTrace(tr.start, tr.moves, MarkovTriple(3, 3, 6))
    assert not replay_trace(bad)
    assert not realize_trace(bad)
    # a tampered waypoint fails at its move, before the end is read
    moves = (replace(tr.moves[0], triple_after=MarkovTriple(3, 3, 3)),) + tr.moves[1:]
    bad = ReductionTrace(tr.start, moves, tr.end)
    assert not replay_trace(bad)
    assert not realize_trace(bad)


def test_realize_trace_replays_a_big_fibonacci_triple():
    # (3, b, c) on the Fibonacci branch, c of at least 300 digits: every Gram of
    # the replay has big entries until the last moves
    b, c = 3, 3
    while len(str(c)) < 300:
        b, c = c, 3 * c - b
    tr = reduce_to_canonical(MarkovTriple(3, b, c))
    assert len(tr.moves) > 500 and realize_trace(tr)
    last = tr.moves[-1]
    assert last.triple_after == tr.end == MarkovTriple(3, 3, 3)
    moves = tr.moves[:-1] + (replace(last, triple_after=MarkovTriple(3, 3, -3)),)
    assert not realize_trace(ReductionTrace(tr.start, moves, tr.end))


def test_realize_trace_rejects_a_collection_that_stops_being_semiorthonormal(monkeypatch):
    tr = reduce_to_canonical(MarkovTriple(3, 6, 15))
    calls = []

    def counted(c, nu, d):
        calls.append(nu)
        return mutate_pair(c, nu, d)

    monkeypatch.setattr(mutations, "mutate_pair", counted)
    assert realize_trace(tr)
    last = len(calls)
    calls.clear()

    def broken(c, nu, d):
        out = counted(c, nu, d)
        if len(calls) < last:
            return out
        # the last move: the same entries above the diagonal, so the waypoint
        # and the end still match, but chi(e0, e0) = -1; planted past the
        # constructor's check and with no Gram built yet, as
        # SonCollection._derived builds its output
        rows = [list(r) for r in out.gram().entries]
        rows[0][0] = -1
        c = object.__new__(SonCollection)
        object.__setattr__(c, "ambient", BilinearLattice.from_rows(rows))
        object.__setattr__(c, "vectors", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        return c

    monkeypatch.setattr(mutations, "mutate_pair", broken)
    assert not realize_trace(tr)
    assert len(calls) == last


def test_rank3_trace_agrees_with_jordan_type():
    # tr kappa = 3 - a^2 - b^2 - c^2 + abc, against the Jordan type classify reads off kappa
    named = {(3, 3, 3): (3, Type1(2, 1)),
             (2, 0, 0): (-1, DecomposableRational((Type1(1, -1), Type1(0, 1))))}
    for triple, (trace, verdict) in named.items():
        t = MarkovTriple(*triple)
        assert trace_kappa_rank3(t) == trace and detect_type(t.lattice()).verdict == verdict
    assert trace_kappa_rank3(MarkovTriple(1, 0, 0)) == 2
    assert isinstance(detect_type(MarkovTriple(1, 0, 0).lattice()).verdict, IrrationalSpectrum)
    # every triple with entries in -6..6: trace 3 is the one eigenvalue 1, trace -1 is
    # the eigenvalue -1 twice and 1 once
    hits = Counter()
    for triple in product(range(-6, 7), repeat=3):
        t = MarkovTriple(*triple)
        trace = trace_kappa_rank3(t)
        eigenvalues = detect_type(t.lattice()).rational_eigenvalues
        assert (trace == 3) == (eigenvalues == ((1, 3),)), triple
        assert (trace == -1) == (eigenvalues == ((-1, 2), (1, 1))), triple
        hits[trace] += 1
    assert hits[3] == 17 and hits[-1] == 74
