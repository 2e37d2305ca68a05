"""The laws of the paper's constructions.  Each law check takes objects already
drawn and returns its failure count, so `semiortho verify` and the acceptance
criteria run the same checks, each on its own samples; `SUITES` holds the seeded
draws `verify` runs."""

from __future__ import annotations

import random
from fractions import Fraction

from .bilinear_form import (BilinearLattice, canonical_operator, extension_trace_check,
                            is_isometry, verify_canmatr)
from .exact_linalg import IntMatrix
from .k0_pn import DSeries, hilbert_pairing, sigma_pairing
from .markov import (MOVE_WORDS, MarkovTriple, ReductionTrace, apply_word, realize_trace,
                     reduce_to_canonical, replay_trace, vieta)
from .mutations import BraidWord, SonCollection, apply_braid

# draws per suite of `verify`
DRAWS = 25


def random_son_gram(rng: random.Random, n: int, bound: int = 4) -> IntMatrix:
    """Upper unitriangular integer matrix: Gram of a semiorthonormal basis."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-bound, bound)
    return IntMatrix.from_rows(rows)


def braid_failures(c: SonCollection) -> int:
    """Braid relations of the mutations, compared on the vectors of c: for every nu,
    L_nu R_nu = R_nu L_nu = 1 and L_nu L_(nu-1) L_nu = L_(nu-1) L_nu L_(nu-1), and
    generators at least two apart commute."""
    def image(word: str):
        return apply_braid(c, BraidWord.parse(word)).vectors

    n = len(c)
    failures = 0
    for nu in range(1, n):
        failures += (image(f"L{nu} R{nu}") != c.vectors) + (image(f"R{nu} L{nu}") != c.vectors)
    for nu in range(2, n):
        failures += image(f"L{nu} L{nu - 1} L{nu}") != image(f"L{nu - 1} L{nu} L{nu - 1}")
    for a in range(1, n):
        for b in range(a + 2, n):
            failures += image(f"L{a} L{b}") != image(f"L{b} L{a}")
    return failures


def canonical_failures(l1: BilinearLattice, l2: BilinearLattice, coupling: IntMatrix, ell) -> int:
    """Block formula for kappa of the semiorthogonal sum of l1 and l2 along
    coupling, kappa of l1 an isometry, and the trace law of the rank-1
    extension of l1 by ell."""
    failures = (not verify_canmatr(l1, l2, coupling)) + (not is_isometry(canonical_operator(l1)))
    try:
        extension_trace_check(l1, ell)
    except AssertionError:
        failures += 1
    return failures


def markov_failures(trace: ReductionTrace) -> int:
    """The trace ends at (3,3,3) and replays on triples and on vectors."""
    return sum((trace.end.as_tuple() != (3, 3, 3), not replay_trace(trace),
                not realize_trace(trace)))


def sigma_failures(a: DSeries, b: DSeries) -> int:
    """The sigma-formula on the Adams coordinates gives the Euler pairing."""
    return int(sigma_pairing(a.n, a.adams_coords(), b.adams_coords())
               != hilbert_pairing(a.n, a, b))


def _braid(rng: random.Random) -> int:
    return braid_failures(SonCollection.standard_basis(
        BilinearLattice(random_son_gram(rng, rng.randint(3, 4)))))


def _canonical(rng: random.Random) -> int:
    r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
    l1 = BilinearLattice(random_son_gram(rng, r1))
    l2 = BilinearLattice(random_son_gram(rng, r2))
    coupling = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r2)] for _ in range(r1)])
    return canonical_failures(l1, l2, coupling, [rng.randint(-3, 3) for _ in range(r1)])


def _markov(rng: random.Random) -> int:
    t = MarkovTriple(3, 3, 3)
    for _ in range(rng.randint(0, 6)):
        t = vieta(t, rng.randint(1, 3))
    if rng.random() < 0.5:
        t = apply_word(t, MOVE_WORDS["sign_flip", rng.choice([(1, 2), (1, 3), (2, 3)])])
    return markov_failures(reduce_to_canonical(t))


def _sigma(rng: random.Random) -> int:
    # one pair at each n in 1..5, the range of criterion 8
    return sum(sigma_failures(*(DSeries.from_coeffs(
        n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n + 1)])
        for _ in range(2))) for n in range(1, 6))


# suite name -> one seeded draw checked against its law, returning the failures
SUITES = {"braid": _braid, "canonical": _canonical, "markov": _markov, "sigma": _sigma}


def run_suites(names, seed: int) -> dict[str, int]:
    """Failures of each named suite over DRAWS draws, in order, from one seeded rng."""
    rng = random.Random(seed)
    return {name: sum(SUITES[name](rng) for _ in range(DRAWS)) for name in names}
