"""Command line interface.

Exit codes: 0 success, 1 malformed input, 2 property violation found.
`main` alone maps exceptions to exit codes: a `ValueError` or `IndexError`
from the library or the input checks here is malformed input, exit 1 with
an `error:` line on stderr; an `AssertionError` is a property violation,
exit 2.  The commands only parse, call the library and encode.
All output is exact JSON (deterministic byte-for-byte); --output pretty
switches to indented rendering.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from . import serialize
from .bilinear_form import (
    BilinearLattice,
    canonical_operator,
    extension_trace_check,
    is_isometry,
    verify_canmatr,
)
# detect_type_gram is unused here, but bench/tests checks that the tracer
# replaces this copy of it
from .classification import _report, detect_type, detect_type_gram  # noqa: F401
from .exact_linalg import IntMatrix
from .k0_pn import (
    BASES,
    DSeries,
    check_truncation,
    gram_matrix,
    hilbert_pairing,
    kappa_matrix,
    rank,
    sigma_pairing,
    xi_basis,
)
from .markov import (
    MarkovTriple,
    is_markov,
    realize_trace,
    reduce_to_canonical,
    replay_trace,
    trace_kappa_rank3,
)
from .mutations import (
    BraidWord,
    SonCollection,
    apply_braid,
    orbit_search,
)
from .serialize import InputFormatError


def _read_input(args) -> str:
    if args.inline is not None:
        return args.inline
    if args.file is not None:
        try:
            with open(args.file) as fh:
                return fh.read()
        except OSError as e:
            raise InputFormatError(f"cannot read {args.file}: {e}") from None
    return sys.stdin.read()


def _emit(args, obj):
    if args.output == "pretty":
        print(serialize.dumps_pretty(obj))
    else:
        print(serialize.dumps(obj))


def cmd_classify(args) -> int:
    lattice = serialize.decode_lattice(serialize.loads(_read_input(args)))
    report = detect_type(lattice)
    _emit(args, serialize.encode_report(report))
    return 0


def cmd_mutate(args) -> int:
    c = serialize.decode_collection(serialize.loads(_read_input(args)))
    c = apply_braid(c, BraidWord.parse(args.word))
    _emit(args, {"collection": serialize.encode_collection(c),
                 "gram": serialize.encode_matrix(c.gram())})
    return 0


# Largest -n of `k0 gram`, from the table of scripts/k0_rate.py in
# BENCH_12.json: in the slowest basis, binomial, the Gram takes 0.73 s at
# -n 80 and 1.27 s at -n 96 (2-vCPU Xeon, Python 3.11).
K0_MAX_N = 80

# Largest -n of `k0 classify`, from the table of scripts/k0_rate.py in
# BENCH_11.json: classifying the integer kappa takes 0.86 s at -n 128 and
# 1.33 s at -n 144, nearly all of it the one rank of kappa - (-1)^n (2-vCPU
# Xeon, Python 3.11).
K0_CLASSIFY_MAX_N = 128


def _check_k0_limit(n: int, limit: int):
    if n > limit:
        raise InputFormatError(f"-n {n} is above the limit of {limit}")


def cmd_k0_gram(args) -> int:
    _check_k0_limit(args.n, K0_MAX_N)
    _emit(args, serialize.encode_matrix(gram_matrix(args.n, args.basis)))
    return 0


def cmd_k0_rank(args) -> int:
    data = serialize.loads(_read_input(args))
    if not isinstance(data, list) or not data:
        raise InputFormatError("expected a non-empty array of series coefficients")
    coeffs = [serialize.decode_number(x) for x in data]
    n = args.n if args.n is not None else len(coeffs) - 1
    check_truncation(n, len(coeffs))
    # the rank is the constant term: no need to pad the series up to order n
    series = DSeries.from_coeffs(len(coeffs) - 1, coeffs)
    _emit(args, {"rank": serialize.encode_number(rank(series))})
    return 0


def cmd_k0_classify(args) -> int:
    # the report is a similarity invariant of kappa, the same in every basis,
    # so it is read off the integer kappa of the Adams basis; a basis only
    # has to exist at this n
    _check_k0_limit(args.n, K0_CLASSIFY_MAX_N)
    kappa = kappa_matrix(args.n)
    if args.basis == "xi":
        xi_basis(args.n)
    _emit(args, serialize.encode_report(_report(kappa)))
    return 0


def cmd_markov(args) -> int:
    t = MarkovTriple(args.a, args.b, args.c)
    if args.subcmd == "check":
        _emit(args, {"triple": serialize.encode_triple(t),
                     "trace": serialize.encode_int(trace_kappa_rank3(t)),
                     "is_markov": is_markov(t)})
        return 0
    trace = reduce_to_canonical(t)
    # the triple-level replay_trace would only redo the apply_word calls that
    # built the trace; realize_trace checks it on vectors
    if not realize_trace(trace):
        print("reduction trace failed to replay", file=sys.stderr)
        return 2
    _emit(args, serialize.encode_trace(trace))
    return 0


def cmd_orbit(args) -> int:
    c = serialize.decode_collection(serialize.loads(_read_input(args)))
    report = orbit_search(c, args.height_bound, args.max_nodes)
    _emit(args, serialize.encode_orbit_report(report))
    return 0


def _suite_braid(rng) -> int:
    failures = 0
    for _ in range(25):
        c = SonCollection.standard_basis(BilinearLattice(random_son_gram(rng, rng.randint(3, 4))))
        n = len(c)
        for nu in range(1, n):
            if apply_braid(c, BraidWord.parse(f"L{nu} R{nu}")).vectors != c.vectors:
                failures += 1
            if apply_braid(c, BraidWord.parse(f"R{nu} L{nu}")).vectors != c.vectors:
                failures += 1
        for nu in range(2, n):
            lhs = apply_braid(c, BraidWord.parse(f"L{nu} L{nu - 1} L{nu}"))
            rhs = apply_braid(c, BraidWord.parse(f"L{nu - 1} L{nu} L{nu - 1}"))
            if lhs.gram().entries != rhs.gram().entries:
                failures += 1
    return failures


def _suite_canonical(rng) -> int:
    failures = 0
    for _ in range(25):
        r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
        l1 = BilinearLattice(random_son_gram(rng, r1))
        l2 = BilinearLattice(random_son_gram(rng, r2))
        coupling = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r2)] for _ in range(r1)])
        if not verify_canmatr(l1, l2, coupling):
            failures += 1
        if not is_isometry(canonical_operator(l1)):
            failures += 1
        try:
            extension_trace_check(l1, [rng.randint(-3, 3) for _ in range(r1)])
        except AssertionError:
            failures += 1
    return failures


def _suite_sigma(rng) -> int:
    failures = 0
    for n in (2, 3):
        for _ in range(15):
            a = DSeries.from_coeffs(
                n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n + 1)])
            b = DSeries.from_coeffs(
                n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n + 1)])
            if sigma_pairing(n, a.adams_coords(), b.adams_coords()) \
                    != hilbert_pairing(n, a, b):
                failures += 1
    return failures


def _suite_markov(rng) -> int:
    from .markov import apply_word, vieta
    failures = 0
    for _ in range(25):
        t = MarkovTriple(3, 3, 3)
        for _ in range(rng.randint(0, 6)):
            t = vieta(t, rng.randint(1, 3))
        if rng.random() < 0.5:
            t = apply_word(t, rng.choice(["F0", "F1", "F2"]))
        trace = reduce_to_canonical(t)
        if trace.end.as_tuple() != (3, 3, 3) or not replay_trace(trace) \
                or not realize_trace(trace):
            failures += 1
    return failures


_SUITES = {"braid": _suite_braid, "canonical": _suite_canonical,
           "sigma": _suite_sigma, "markov": _suite_markov}


def random_son_gram(rng: random.Random, n: int, bound: int = 4) -> IntMatrix:
    """Upper unitriangular integer matrix: Gram of a semiorthonormal basis."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-bound, bound)
    return IntMatrix.from_rows(rows)


def cmd_verify(args) -> int:
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    rng = random.Random(args.seed)
    results = {}
    total_failures = 0
    for name in names:
        failures = _SUITES[name](rng)
        results[name] = {"failures": failures, "passed": failures == 0}
        total_failures += failures
    _emit(args, {"suites": results, "passed": total_failures == 0})
    return 0 if total_failures == 0 else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiortho",
        description="Exact arithmetic for non-symmetric unimodular bilinear forms")
    parser.add_argument("--output", choices=("json", "pretty"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--file", help="read JSON input from a file")
        g.add_argument("--inline", help="JSON input given on the command line")

    p = sub.add_parser("classify", help="classify a lattice form by its canonical operator")
    add_input(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("mutate", help="apply a braid word to a collection")
    add_input(p)
    p.add_argument("--word", default="", help='braid word like "L1 L2 R1"')
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("k0", help="projective-space lattice computations")
    k0sub = p.add_subparsers(dest="k0cmd", required=True)
    g = k0sub.add_parser("gram")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--basis", choices=BASES, default="adams")
    g.set_defaults(func=cmd_k0_gram)
    g = k0sub.add_parser("rank")
    add_input(g)
    g.add_argument("-n", type=int, default=None)
    g.set_defaults(func=cmd_k0_rank)
    g = k0sub.add_parser("classify")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--basis", choices=BASES, default="twists")
    g.set_defaults(func=cmd_k0_classify)

    p = sub.add_parser("markov", help="rank-3 Markov triples")
    p.add_argument("subcmd", choices=("check", "reduce"))
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("orbit", help="search the mutation orbit of a collection")
    add_input(p)
    p.add_argument("--height-bound", type=int, default=100)
    p.add_argument("--max-nodes", type=int, default=100000)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=sorted(_SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:
        print(f"property violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
