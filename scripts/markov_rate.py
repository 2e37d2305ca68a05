"""Seconds per `markov reduce` on the Fibonacci branch, and a digest of small traces.

    python3 scripts/markov_rate.py [--src LABEL=DIR ...] [--out FILE]

The script times what `semiortho markov reduce` runs on one triple:
`reduce_to_canonical`, the `realize_trace` check and the deterministic JSON
of `encode_trace`.  The triples are (3, b, c) on the Fibonacci branch
(3, b, c) -> (3, c, 3c - b) from (3, 3, 3), the first whose largest entry
has at least each count of DIGITS decimal digits.  It also takes one sha256
over the encoded traces of every ordering and even sign pattern of the
Markov triples with largest entry at most SMALL_MAX (808 traces), and one
per timed triple.

The digests must be equal across trees and repeats, or the script exits 1.
Each `--src` names a `src/` directory holding the `semiortho` package (the
default is this checkout's).  Each of 3 repeats runs each tree in a fresh
subprocess (scripts/_trees.py), and the table gives the median seconds per
tree and digit count; it is the table a digit limit for `markov reduce`
would be set from.  `--out` merges the results into a JSON file under the
key "markov_rate", keeping its other keys.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
from itertools import permutations
from time import perf_counter

import _trees

DIGITS = (100, 300, 670, 1000)
SMALL_MAX = 10**6
EVEN_SIGNS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))
REPEATS = 3


def fibonacci_triple(digits: int) -> tuple[int, int, int]:
    b, c = 3, 3
    while len(str(c)) < digits:
        b, c = c, 3 * c - b
    return 3, b, c


def small_starts() -> list[tuple[int, int, int]]:
    """Every ordering and even sign pattern of the Markov triples with entries <= SMALL_MAX."""
    seen, todo = {(3, 3, 3)}, [(3, 3, 3)]
    while todo:
        a, b, c = todo.pop()
        for t in ((b * c - a, b, c), (a, a * c - b, c), (a, b, a * b - c)):
            u = tuple(sorted(t))
            if u[2] <= SMALL_MAX and u not in seen:
                seen.add(u)
                todo.append(u)
    return sorted({tuple(s * v for s, v in zip(signs, order))
                   for t in seen for order in permutations(t) for signs in EVEN_SIGNS})


def measure() -> dict:
    """[seconds, output digest] per digit count, and the digest of the small
    traces, for the `semiortho` on sys.path."""
    from semiortho import serialize
    from semiortho.markov import MarkovTriple, realize_trace, reduce_to_canonical

    def reduce(t) -> str:
        trace = reduce_to_canonical(MarkovTriple(*t))
        if not realize_trace(trace):
            raise AssertionError(f"trace of {t} failed to replay")
        return serialize.dumps(serialize.encode_trace(trace))

    out: dict = {"timed": {}}
    for digits in DIGITS:
        start = perf_counter()
        text = reduce(fibonacci_triple(digits))
        seconds = perf_counter() - start
        out["timed"][str(digits)] = [seconds, hashlib.sha256(text.encode()).hexdigest()]
    small = hashlib.sha256()
    for t in small_starts():
        small.update(serialize.dumps(serialize.encode_trace(
            reduce_to_canonical(MarkovTriple(*t)))).encode() + b"\n")
    out["small"] = small.hexdigest()
    return out


def main(argv=None) -> int:
    runs, out = _trees.collect(__doc__, __file__, measure, REPEATS, argv)
    digests = {"small": sorted({run["small"] for rs in runs.values() for run in rs}),
               **{str(d): sorted({run["timed"][str(d)][1] for rs in runs.values() for run in rs})
                  for d in DIGITS}}
    equal = all(len(d) == 1 for d in digests.values())
    seconds = {label: {str(d): round(statistics.median(run["timed"][str(d)][0] for run in rs), 4)
                       for d in DIGITS} for label, rs in runs.items()}
    print("digits" + "".join(f"{label:>12}" for label in seconds) + "   (s, median)")
    for d in DIGITS:
        print(f"{d:>6}" + "".join(f"{seconds[label][str(d)]:>12.3f}" for label in seconds))
    print(f"small traces: {len(small_starts())}, digests equal across trees: {equal}")
    _trees.merge_out(out, "markov_rate", {"repeats": REPEATS, "python": sys.version.split()[0],
                                          "digits": list(DIGITS), "small_max": SMALL_MAX,
                                          "digests_equal": equal, "digests": digests,
                                          "seconds": seconds})
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
