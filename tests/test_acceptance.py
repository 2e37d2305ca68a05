"""Acceptance gate: nine exact-arithmetic criteria, zero tolerance.

Each test prints one PASS/FAIL line (bypassing capture) so the gate status
is visible in any pytest run.
"""

import random
import time
from fractions import Fraction

from semiortho.bilinear_form import BilinearLattice, canonical_operator, pair, semiorthogonal_sum
from semiortho.classification import (
    Type1,
    detect_type_gram,
    is_type1_isometry,
    kappa_of_gram,
    odd_coefficient_count,
    standard_type1_gram,
    type1_isometry_from_odd,
)
from semiortho.exact_linalg import IntMatrix, RatMatrix, inverse_unimodular
from semiortho.k0_pn import DSeries, gram_matrix
from semiortho.markov import MarkovTriple, is_markov, reduce_to_canonical, trace_kappa_rank3, vieta
from semiortho.mutations import SonCollection, is_semiorthonormal
from semiortho.properties import (
    braid_failures,
    canonical_failures,
    markov_failures,
    random_son_gram,
    sigma_failures,
)

from conftest import nilpotency_index, random_unimodular, random_unimodular_gram

F = Fraction


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_adams_gram_matrices():
    printed = {
        2: (2, [[2, 3, 1], [-3, -2, 0], [1, 0, 0]]),
        3: (6, [[6, 11, 6, 1], [-11, -12, -3, 0], [6, 3, 0, 0], [-1, 0, 0, 0]]),
        4: (24, [[24, 50, 35, 10, 1], [-50, -70, -30, -4, 0],
                 [35, 30, 6, 0, 0], [-10, -4, 0, 0, 0], [1, 0, 0, 0, 0]]),
    }
    t0 = time.monotonic()
    ok = True
    for n, (scale, rows) in printed.items():
        expected = RatMatrix.from_rows([[F(x, scale) for x in r] for r in rows])
        ok = ok and (gram_matrix(n, "adams") - expected).is_zero()
    elapsed = time.monotonic() - t0
    _report("criterion 1: printed Adams Gram matrices n=2,3,4, exact",
            ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_xi_basis_gram():
    got = gram_matrix(2, "xi")
    expected = standard_type1_gram(2)
    ok = (got - expected).is_zero() and \
        [[int(x) for x in r] for r in expected.entries] == \
        [[0, 0, 1], [0, -1, 1], [1, -1, 0]]
    _report("criterion 2: xi-basis Gram equals the rank-3 type-1 standard form", ok)


def test_criterion_3_twist_gram_type1():
    t0 = time.monotonic()
    ok = True
    for n in range(0, 9):
        g = gram_matrix(n, "twists")
        rep = detect_type_gram(g)
        ok = ok and rep.verdict == Type1(n, (-1) ** n)
        eta = kappa_of_gram(g) - RatMatrix.identity(n + 1).scale((-1) ** n)
        ok = ok and nilpotency_index(eta) == n + 1
    elapsed = time.monotonic() - t0
    _report("criterion 3: twist Gram is Type1(n,(-1)^n) with eta index n+1, n<=8",
            ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_4_markov_reduction_exhaustive():
    bound = 10 ** 6
    t0 = time.monotonic()
    start = MarkovTriple(3, 3, 3)
    seen = {start.as_tuple()}
    frontier = [start]
    depth = 0
    while frontier and depth < 25:
        depth += 1
        nxt = []
        for t in frontier:
            for pos in (1, 2, 3):
                cand = vieta(t, pos)
                if cand.max_abs() <= bound and cand.as_tuple() not in seen:
                    seen.add(cand.as_tuple())
                    nxt.append(cand)
        frontier = nxt
    ok = True
    longest = 0
    for tup in seen:
        t = MarkovTriple(*tup)
        ok = ok and is_markov(t)
        trace = reduce_to_canonical(t)
        longest = max(longest, len(trace.moves))
        ok = ok and markov_failures(trace) == 0
    elapsed = time.monotonic() - t0
    _report("criterion 4: all Markov solutions max<=1e6 within 25 moves reduce "
            "to (3,3,3) with vector replay",
            ok and elapsed < 30.0,
            f"{len(seen)} triples, longest trace {longest}, {elapsed:.2f}s")


def test_criterion_5_trace_criterion():
    rng = random.Random(55)
    ok = True
    markov_hits = 0
    sample = [MarkovTriple(rng.randint(-100, 100), rng.randint(-100, 100),
                           rng.randint(-100, 100)) for _ in range(1000)]
    # seed true solutions so the biconditional is exercised on both sides
    sample += [MarkovTriple(3, 3, 3), MarkovTriple(3, 3, 6),
               MarkovTriple(3, 6, 15), MarkovTriple(87, 6, 15),
               MarkovTriple(-3, -3, 6), MarkovTriple(-3, 6, -15)]
    for t in sample:
        tr = trace_kappa_rank3(t)
        ok = ok and tr == int(canonical_operator(t.lattice()).matrix.trace())
        ok = ok and (tr == 3) == is_markov(t)
        markov_hits += is_markov(t)
    _report("criterion 5: trace formula vs canonical operator on 1000 triples, "
            "tr=3 iff Markov", ok, f"{markov_hits} Markov hits in sample")


def test_criterion_6_braid_suite():
    rng = random.Random(66)
    ok = True
    for _ in range(500):
        n = rng.randint(3, 6)
        s = random_unimodular(rng, n)
        core = random_son_gram(rng, n, bound=3)
        sinv = inverse_unimodular(s)
        ambient = BilinearLattice(sinv.transpose() * core * sinv)
        c = SonCollection(ambient, list(s.transpose().entries))
        ok = ok and is_semiorthonormal(c) and braid_failures(c) == 0
        if not ok:
            break
    _report("criterion 6: braid identities on 500 random collections ranks 3-6", ok)


def test_criterion_7_canonical_operator_laws():
    rng = random.Random(77)
    ok = True
    for _ in range(200):
        r1, r2 = rng.randint(1, 4), rng.randint(1, 4)
        l1 = BilinearLattice(random_unimodular_gram(rng, r1))
        l2 = BilinearLattice(random_unimodular_gram(rng, r2))
        coupling = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(r2)] for _ in range(r1)])
        total = semiorthogonal_sum(l1, l2, coupling)
        kappa = canonical_operator(total)
        x = RatMatrix.from_rows(total.gram.entries, total.rank)
        # kappa^t X kappa = X
        ok = ok and (kappa.matrix.transpose() * x * kappa.matrix - x).is_zero()
        v = [rng.randint(-3, 3) for _ in range(total.rank)]
        w = [rng.randint(-3, 3) for _ in range(total.rank)]
        kv = kappa.matrix.apply([F(t) for t in v])
        ok = ok and pair(total, v, w) == pair(total, w, kv)
        # the block formula, and the rank-1 extension of l1 by ell
        ell = [rng.randint(-5, 5) for _ in range(r1)]
        ok = ok and canonical_failures(l1, l2, coupling, ell) == 0
        if not ok:
            break
    _report("criterion 7: canonical-operator laws on 200 sums and 200 "
            "rank-1 extensions", ok)


def test_criterion_8_sigma_formula():
    rng = random.Random(88)
    ok = True
    for n in range(1, 6):
        for _ in range(100):
            a = DSeries.from_coeffs(
                n, [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)])
            b = DSeries.from_coeffs(
                n, [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)])
            ok = ok and sigma_failures(a, b) == 0
    _report("criterion 8: sigma-formula equals direct pairing, 100 pairs per n<=5", ok)


def test_criterion_9_type1_isometry_group():
    rng = random.Random(99)
    ok = True
    for n in range(1, 7):
        k = odd_coefficient_count(n)
        base = [(i, -i, 2 * i) for i in range(-2, 3)]
        grid = [tuple(F(v) for v in (vals * k)[:k]) for vals in base]
        outputs = {}
        for sign in (1, -1):
            for odds in grid:
                f = type1_isometry_from_odd(list(odds), sign, n)
                ok = ok and is_type1_isometry(f)
                # injectivity on the grid: distinct parameters, distinct series
                key = f.coeffs
                ok = ok and key not in outputs
                outputs[key] = (sign, odds)
        # closure under products, Abelian, and parametrization is onto:
        # any product is recovered from its own sign and odd part
        series = list(outputs)
        for _ in range(30):
            f = DSeries(n, rng.choice(series))
            g = DSeries(n, rng.choice(series))
            prod = f * g
            ok = ok and is_type1_isometry(prod)
            ok = ok and prod.coeffs == (g * f).coeffs
            rebuilt = type1_isometry_from_odd(
                [prod.coeffs[2 * i + 1] for i in range(k)],
                int(prod.coeffs[0]), n)
            ok = ok and rebuilt.coeffs == prod.coeffs
        if not ok:
            break
    _report("criterion 9: isometry-series solver exact, bijective per "
            "component, Abelian closure, n<=6", ok)
