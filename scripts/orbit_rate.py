"""Orbit-search rate, in nodes per second, on the twist Grams of ranks 3-6.

    python3 scripts/orbit_rate.py [--src LABEL=DIR ...] [--out FILE]

The rank-r twist Gram is the Gram of K0(P^(r-1)) in the basis O, O(1), ...,
g[i][j] = C(r - 1 + j - i, j - i).  Each rank runs `orbit_search` from its
standard basis with height bound 10**30 and node cap 20 000, and the rate is
the orbit size it reports over the wall time of the search.  The bound prunes
states with an entry above 10**30, so a rank whose pruned orbit is smaller
than the cap (rank 3 has 10 354 states) stops below the cap.

Each `--src` names a `src/` directory holding the `semiortho` package (the
default is this checkout's).  Each of 3 repeats runs each tree in a fresh
subprocess (scripts/_trees.py), and the table gives the median rate per tree
and rank.  `--out` merges the rates into a JSON file under the key
"orbit_rate", keeping its other keys.
"""

from __future__ import annotations

import statistics
import sys
from math import comb
from time import perf_counter

import _trees

RANKS = (3, 4, 5, 6)
HEIGHT_BOUND = 10**30
NODES = 20000
REPEATS = 3


def twist_gram(rank: int) -> list[list[int]]:
    return [[comb(rank - 1 + j - i, j - i) if j >= i else 0 for j in range(rank)]
            for i in range(rank)]


def measure() -> dict[str, list]:
    """[orbit size, nodes/s] per rank for the `semiortho` on sys.path."""
    from semiortho.bilinear_form import BilinearLattice
    from semiortho.mutations import SonCollection, orbit_search

    rates = {}
    for rank in RANKS:
        c = SonCollection.standard_basis(BilinearLattice.from_rows(twist_gram(rank)))
        start = perf_counter()
        report = orbit_search(c, HEIGHT_BOUND, NODES)
        seconds = perf_counter() - start
        rates[str(rank)] = [report.orbit_size, report.orbit_size / seconds]
    return rates


def main(argv=None) -> int:
    runs, out = _trees.collect(__doc__, __file__, measure, REPEATS, argv)
    sizes = {str(rank): sorted({run[str(rank)][0] for rs in runs.values() for run in rs})
             for rank in RANKS}
    rates = {label: {str(rank): round(statistics.median(run[str(rank)][1] for run in rs))
                     for rank in RANKS} for label, rs in runs.items()}
    print("rank   nodes" + "".join(f"{label:>12}" for label in rates) + "   (nodes/s, median)")
    for rank in RANKS:
        print(f"{rank:>4} {'/'.join(map(str, sizes[str(rank)])):>7}"
              + "".join(f"{rates[label][str(rank)]:>12}" for label in rates))
    _trees.merge_out(out, "orbit_rate", {"node_cap": NODES, "height_bound": "10**30",
                                         "repeats": REPEATS, "python": sys.version.split()[0],
                                         "orbit_size": sizes, "nodes_per_s": rates})
    return 0


if __name__ == "__main__":
    sys.exit(main())
