"""Alternating parent/change pairs of the benchmark, summarized per workload and metric.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seeds 1101-1110 [--out FILE]

DIR is the root of a checkout (its `bench/` runs its own `src/`).  For each
workload of BENCHMARK.json and each seed the script runs

    python3 bench/run.py --workload W --seed S --seconds 30 --trace 0

once in each tree, one run at a time, the parent first on odd seeds and the
change first on even ones.  Per metric of BENCHMARK.json it records every
run, each side's median and quartiles (`statistics.quantiles(n=4)`), the
pairs in which the change is better, whether the medians differ by more
than the parent's quartile distance, and whether the change's median stays
within the metric's bound of the parent's.  `--out` merges the summary into
a JSON file under the key "end_to_end", one entry per workload, keeping its
other keys.  Exits 1 when the two trees print different outputs or a run
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30  # length of one benchmark run


def run_bench(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The summary line and the metrics line of one benchmark run."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    summary, metrics = out.splitlines()[:2]
    return json.loads(summary), json.loads(metrics)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(seeds: list[int], runs: dict, spec: list[dict]) -> dict:
    sides = ("parent", "change")
    out = {"pairs": len(seeds), "seeds": [seeds[0], seeds[-1]],
           # a seed picks the jobs, so only the two runs of one seed must agree
           "outputs_identical": all(a["outputs_sha256"] == b["outputs_sha256"]
                                    for (a, _), (b, _) in zip(runs["parent"], runs["change"])),
           "correct": all(m["correct"] for side in sides for _, m in runs[side]),
           "failed": {side: sum(m["failed"] for _, m in runs[side]) for side in sides},
           "attempted": {side: sum(m["attempted"] for _, m in runs[side]) for side in sides},
           "metrics": {}}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [round(m["metrics"][name]["value"], 6) for _, m in runs[side]]
                  for side in sides}
        stats = {}
        for side in sides:
            q1, _, q3 = statistics.quantiles(values[side], n=4)
            stats[side] = {"median": round(statistics.median(values[side]), 6),
                           "q1": round(q1, 6), "q3": round(q3, 6)}
        p, c = stats["parent"]["median"], stats["change"]["median"]
        wins = sum((b < a) if lower else (b > a)
                   for a, b in zip(values["parent"], values["change"]))
        bound = metric["bound"]
        out["metrics"][name] = {
            "unit": metric["unit"], **stats,
            "ratio_change_over_parent": round(c / p, 4) if p else None,
            "change_wins": wins,
            "medians_differ_by_more_than_parent_iqr":
                abs(c - p) > stats["parent"]["q3"] - stats["parent"]["q1"],
            "within_bound": c <= p * (1 + bound) if lower else c >= p * (1 - bound),
            "bound": bound, "runs": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="FIRST-LAST")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result, ok = {}, True
    for workload in workloads:
        runs: dict[str, list] = {"parent": [], "change": []}
        for seed in args.seeds:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                runs[side].append(run_bench(trees[side], workload, seed))
        result[workload] = summary = summarize(args.seeds, runs, bench["end_to_end"])
        ok &= summary["outputs_identical"] and summary["correct"] \
            and not any(summary["failed"].values())
        for name, m in summary["metrics"].items():
            print(f"{workload:>14} {name:>12}  parent {m['parent']['median']:.6g}"
                  f"  change {m['change']['median']:.6g}  wins {m['change_wins']}/{len(args.seeds)}"
                  f"  within bound {m['within_bound']}")
    if args.out is not None:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["end_to_end"] = {**data.get("end_to_end", {}), **result}
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
