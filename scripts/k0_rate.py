"""Seconds per `k0` command on K0(P^n), for the limits `cli.K0_CLASSIFY_MAX_N` and `cli.K0_MAX_N`.

    python3 scripts/k0_rate.py [--src LABEL=DIR ...] [--out FILE]

The script times what each command runs and takes the sha256 of the
deterministic JSON it prints:

- `classify`: `_report(kappa_matrix(n))`, for n in the classify NS.  The
  command does the same work in every basis, so there is one column.
- `gram`: `gram_matrix(n, basis)`, for n in the gram NS and each basis in
  BASES; the adams one includes its sigma-formula cross-check.

The digests must be equal across trees and repeats, or the script exits 1.
Each `--src` names a `src/` directory holding a `semiortho` package that has
`k0_pn.kappa_matrix` (the default is this checkout's).  Each of 3 repeats
runs each tree in a fresh subprocess (scripts/_trees.py), and the table
gives the median seconds per tree, command, column and n.  The suggested
limit of a command is the largest n whose slowest column stays within
BUDGET_S seconds on the last tree: about 1 s, with room for a host a quarter
slower.  The table also gives the bytes each column prints, since a limit
weighs output size as well as time.  `--out` merges the tables into a JSON
file under the key "k0_rate", keeping its other keys.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
from time import perf_counter

import _trees

# command -> (NS, columns)
TABLES = {"classify": ((128, 256, 512, 768, 1024, 1280, 1536, 1792, 2048, 2304, 2560), ("kappa",)),
          "gram": ((24, 32, 36, 40, 48, 56, 64, 80, 96, 112, 128, 144),
                   ("twists", "binomial", "adams"))}
REPEATS = 3
BUDGET_S = 1.25


def measure() -> dict:
    """[seconds, output digest, output bytes] per command, column and n for the `semiortho`
    on sys.path."""
    from semiortho import serialize
    from semiortho.classification import _report
    from semiortho.k0_pn import gram_matrix, kappa_matrix

    def classify(n, _):
        return serialize.encode_report(_report(kappa_matrix(n)))

    def gram(n, basis):
        return serialize.encode_matrix(gram_matrix(n, basis))

    out: dict = {}
    for command, run in (("classify", classify), ("gram", gram)):
        ns, columns = TABLES[command]
        for column in columns:
            for n in ns:
                start = perf_counter()
                encoded = run(n, column)
                seconds = perf_counter() - start
                text = serialize.dumps(encoded).encode()
                out.setdefault(command, {}).setdefault(column, {})[str(n)] = [
                    seconds, hashlib.sha256(text).hexdigest(), len(text)]
    return out


def main(argv=None) -> int:
    runs, out = _trees.collect(__doc__, __file__, measure, REPEATS, argv)
    last = list(runs)[-1]
    equal, result = True, {}
    for command, (ns, columns) in TABLES.items():
        digests = {col: {str(n): sorted({run[command][col][str(n)][1]
                                         for rs in runs.values() for run in rs})
                         for n in ns} for col in columns}
        equal &= all(len(d) == 1 for by_n in digests.values() for d in by_n.values())
        seconds = {label: {col: {str(n): round(statistics.median(
            run[command][col][str(n)][0] for run in rs), 4) for n in ns} for col in columns}
            for label, rs in runs.items()}
        slowest = {str(n): max(columns, key=lambda c: seconds[last][c][str(n)]) for n in ns}
        within = [n for n in ns if seconds[last][slowest[str(n)]][str(n)] <= BUDGET_S]
        limit = max(within, default=None)
        # compact JSON bytes on stdout, the same in every tree when the digests are
        size = {col: {str(n): runs[last][0][command][col][str(n)][2] for n in ns}
                for col in columns}
        print(f"k0 {command}\n   n" + "".join(f"{label + ' ' + col:>22}" for label in seconds
                                           for col in columns)
              + "".join(f"{col + ' MB':>14}" for col in columns) + "   (s, median)")
        for n in ns:
            print(f"{n:>4}" + "".join(f"{seconds[label][col][str(n)]:>22.3f}"
                                     for label in seconds for col in columns)
                  + "".join(f"{size[col][str(n)] / 1e6:>14.2f}" for col in columns))
        print(f"largest n within {BUDGET_S} s on {last}: {limit}")
        result[command] = {"ns": list(ns), "columns": list(columns), "digests": digests,
                           "seconds": seconds, "bytes": size, "slowest_column": slowest,
                           "largest_n_within_budget": {"tree": last, "n": limit}}
    print(f"digests equal across trees: {equal}")
    _trees.merge_out(out, "k0_rate", {"repeats": REPEATS, "python": sys.version.split()[0],
                                      "budget_s": BUDGET_S, "digests_equal": equal, **result})
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
