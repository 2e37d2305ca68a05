"""Classification time of K0(P^n), in seconds, for the limit `cli.K0_MAX_N`.

    python3 scripts/k0_rate.py [--src LABEL=DIR ...] [--out FILE]

For each n in NS and each basis in BASES the script times
`detect_type_gram(gram_matrix(n, basis))`, which is what `k0 classify -n N`
runs, and takes the sha256 of the report's deterministic JSON encoding.  The
digests must be equal across trees and repeats, or the script exits 1.

Each `--src` names a `src/` directory holding the `semiortho` package (the
default is this checkout's).  Each of 3 repeats runs each tree in a fresh
subprocess, the order alternating between repeats, and the table gives the
median seconds per tree, n and basis.  The suggested limit is the largest n
whose slowest basis stays within BUDGET_S seconds on the last tree: about
1 s, with room for a host a quarter slower.  `--out` merges the table into a
JSON file under the key "k0_rate", keeping its other keys.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
NS = (24, 32, 36, 40, 48)
BASES = ("twists", "binomial", "adams")
REPEATS = 3
BUDGET_S = 1.25


def measure() -> dict[str, dict[str, list]]:
    """[seconds, report digest] per basis and n for the `semiortho` on sys.path."""
    from semiortho import serialize
    from semiortho.classification import detect_type_gram
    from semiortho.k0_pn import gram_matrix

    out: dict[str, dict[str, list]] = {}
    for basis in BASES:
        for n in NS:
            start = perf_counter()
            report = detect_type_gram(gram_matrix(n, basis))
            seconds = perf_counter() - start
            text = serialize.dumps(serialize.encode_report(report))
            out.setdefault(basis, {})[str(n)] = [seconds,
                                                 hashlib.sha256(text.encode()).hexdigest()]
    return out


def run_tree(src: Path) -> dict[str, dict[str, list]]:
    out = subprocess.run([sys.executable, __file__, "--child", str(src)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def parse_src(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    src = Path(path).resolve()
    if not (src / "semiortho" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no semiortho package under {src}")
    return label, src


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=parse_src, action="append",
                   help="LABEL=DIR of a src/ tree; repeatable")
    p.add_argument("--out", type=Path)
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        sys.path.insert(0, str(args.child))
        print(json.dumps(measure()))
        return 0
    trees = args.src or [("checkout", ROOT / "src")]
    runs: dict[str, list] = {label: [] for label, _ in trees}
    for r in range(REPEATS):
        for label, src in trees if r % 2 == 0 else trees[::-1]:
            runs[label].append(run_tree(src))
    digests = {basis: {str(n): sorted({run[basis][str(n)][1] for rs in runs.values() for run in rs})
                       for n in NS} for basis in BASES}
    equal = all(len(d) == 1 for by_n in digests.values() for d in by_n.values())
    seconds = {label: {basis: {str(n): round(statistics.median(run[basis][str(n)][0] for run in rs), 4)
                               for n in NS} for basis in BASES} for label, rs in runs.items()}
    slowest = {label: {str(n): max(BASES, key=lambda b: by_basis[b][str(n)]) for n in NS}
               for label, by_basis in seconds.items()}
    last = trees[-1][0]
    within = [n for n in NS if seconds[last][slowest[last][str(n)]][str(n)] <= BUDGET_S]
    limit = max(within, default=None)
    print("   n" + "".join(f"{label + ' ' + basis:>22}" for label in seconds for basis in BASES)
          + "   (s, median)")
    for n in NS:
        print(f"{n:>4}" + "".join(f"{seconds[label][basis][str(n)]:>22.3f}"
                                 for label in seconds for basis in BASES))
    print(f"digests equal across trees: {equal}; largest n within {BUDGET_S} s on {last}: {limit}")
    if args.out is not None:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["k0_rate"] = {"ns": list(NS), "bases": list(BASES), "repeats": REPEATS,
                           "python": sys.version.split()[0], "budget_s": BUDGET_S,
                           "digests_equal": equal, "digests": digests,
                           "seconds": seconds, "slowest_basis": slowest,
                           "largest_n_within_budget": {"tree": last, "n": limit}}
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
