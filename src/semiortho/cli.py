"""Command line interface.

Exit codes: 0 success, 1 malformed input, 2 property violation found.
`main` alone maps exceptions to exit codes: a malformed command line, or a
`ValueError` or `IndexError` from the library or the input checks here, is
malformed input, exit 1 with an `error:` line on stderr; an `AssertionError`
is a property violation, exit 2.  The commands only parse, call the library
(`verify` calls the laws of `properties`) and encode.
All output is exact JSON (deterministic byte-for-byte); --output pretty
switches to indented rendering.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import properties, serialize
# detect_type_gram is unused here, but bench/tests checks that the tracer
# replaces this copy of it
from .classification import _report, detect_type, detect_type_gram  # noqa: F401
from .k0_pn import BASES, DSeries, check_truncation, gram_matrix, kappa_matrix, rank, xi_basis
from .markov import MarkovTriple, is_markov, realize_trace, reduce_to_canonical, trace_kappa_rank3
from .mutations import BraidWord, apply_braid, orbit_search
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
# BENCH_22.json: in the slowest basis, adams, the Gram takes 0.20 s at -n 128
# and 0.26 s at -n 144, within the 1.25 s budget, but it prints 2.0 MB at
# -n 128 and 3.0 MB at -n 144 (2-vCPU Xeon, Python 3.11).  Output size sets
# the limit near 128; K0_CLASSIFY_MAX_N lies above it, so `k0 classify`
# reaches past the Gram's limit.
K0_MAX_N = 127

# Largest -n of `k0 classify`, from the table of scripts/k0_rate.py in
# BENCH_28.json: classifying the integer kappa over the binomial basis takes
# no rank, since its one Jordan block is read off its subdiagonal, and no
# root search, since its roots are its diagonal.  It takes 0.19 s at -n 1280,
# 0.54 s at -n 2048 and 0.94 s at -n 2560, against the 1.25 s budget
# (2-vCPU Xeon, Python 3.11); what is left is building kappa and expanding
# its char poly.  At -n 2560 the report prints 1.43 MB, below the 2.0 MB that
# sets K0_MAX_N, and its longest coefficient, C(2561, 1280), has 770 digits,
# far below the int-to-decimal limit.
K0_CLASSIFY_MAX_N = 2560


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
    # so it is read off the integer kappa of the binomial basis; a basis only
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
        raise AssertionError("reduction trace failed to replay")
    _emit(args, serialize.encode_trace(trace))
    return 0


def cmd_orbit(args) -> int:
    c = serialize.decode_collection(serialize.loads(_read_input(args)))
    report = orbit_search(c, args.height_bound, args.max_nodes)
    _emit(args, serialize.encode_orbit_report(report))
    return 0


def cmd_verify(args) -> int:
    names = sorted(properties.SUITES) if args.suite == "all" else [args.suite]
    failures = properties.run_suites(names, args.seed)
    passed = not any(failures.values())
    _emit(args, {"suites": {name: {"failures": f, "passed": f == 0}
                            for name, f in failures.items()},
                 "passed": passed})
    return 0 if passed else 2


def _integer(text: str) -> int:
    """A command-line integer, read as a JSON integer literal: ASCII [+-]?[0-9]+.
    int() alone also takes non-ASCII digits, "_" and surrounding spaces."""
    try:
        return serialize.decode_int(text)
    except InputFormatError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


class _Parser(argparse.ArgumentParser):
    """A malformed command line is malformed input: exit 1 through main, not 2."""

    def error(self, message):
        raise InputFormatError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--word", default="",
                   help='mutations L<nu>/R<nu> (nu from 1) and sign flips F<i> (i from 0), '
                        'applied left to right, like "F0 L1 R2"')
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("k0", help="projective-space lattice computations")
    k0sub = p.add_subparsers(dest="k0cmd", required=True)
    g = k0sub.add_parser("gram")
    g.add_argument("-n", type=_integer, required=True)
    g.add_argument("--basis", choices=BASES, default="adams")
    g.set_defaults(func=cmd_k0_gram)
    g = k0sub.add_parser("rank")
    add_input(g)
    g.add_argument("-n", type=_integer, default=None)
    g.set_defaults(func=cmd_k0_rank)
    g = k0sub.add_parser("classify")
    g.add_argument("-n", type=_integer, required=True)
    g.add_argument("--basis", choices=BASES, default="twists")
    g.set_defaults(func=cmd_k0_classify)

    p = sub.add_parser("markov", help="rank-3 Markov triples")
    p.add_argument("subcmd", choices=("check", "reduce"))
    p.add_argument("a", type=_integer)
    p.add_argument("b", type=_integer)
    p.add_argument("c", type=_integer)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("orbit", help="search the mutation orbit of a collection")
    add_input(p)
    p.add_argument("--height-bound", type=_integer, default=100)
    p.add_argument("--max-nodes", type=_integer, default=100000)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=sorted(properties.SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:
        print(f"property violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
