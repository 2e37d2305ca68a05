"""Benchmark of the `semiortho` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Each job is one command line executed in-process through
`semiortho.cli.main(argv)` with stdout captured: one client, closed loop, the
next job starts when the previous one returns.  The workload's job list is
run as a pass, again and again, until `--seconds` have gone by.

Every time is scaled to the speed of a reference host (see calibration.py): a
fixed kernel runs before each job and after the last, and a job's time is
multiplied by the kernel's reference time over the median of the kernel's
times on either side of the job.  A job's latency is the median of its scaled
times over the run's passes.

With `--trace 0` the last line of stdout holds the end-to-end metrics.  With
`--trace 1` the first half of the time runs untraced passes and the second
half traced ones, and the last line holds the per-layer metrics; the spans of
the first traced pass are written to `.bench_out/`.  The line before the last
is a summary: outputs digest, failed ratio, tail percentile, layer shares.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S, time_kernel
from tracer import LAYERS, Tracer, catalogue
from workloads import WORKLOADS, Job, check_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_SEED = 0
SETUP_REPEATS = 7  # set-ups per run (one here, the rest in fresh processes)
SETUP_KERNELS = 5  # kernel runs on each side of a set-up
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value


@dataclass
class PassResult:
    seconds: list[float]  # as measured
    codes: list
    digests: list[str]
    stdouts: list[str]
    errors: list[str | None] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)  # before each job and after the last
    layers: dict = field(default_factory=dict)

    @property
    def scaled(self) -> list[float]:
        """Each job's time at the reference speed, judged by the kernels on either side of it."""
        return [s * REFERENCE_S / statistics.median(self.kernels[max(0, i - 1):i + 3])
                for i, s in enumerate(self.seconds)]

    @property
    def speed_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.kernels)


def load_program():
    """Import the package from the checkout's src/, never from elsewhere."""
    if not (SRC / "semiortho" / "__init__.py").is_file():
        raise FileNotFoundError(f"no semiortho package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("semiortho.cli")
    if Path(cli.__file__).resolve().parent != SRC / "semiortho":
        raise ImportError(f"semiortho was imported from {cli.__file__}, not {SRC}")
    return cli


def run_job(cli, job: Job):
    """Run one command line; returns (exit code or None if it raised, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as e:  # argparse rejections exit this way
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a crash is a failed job, not a failed benchmark
        code, error = None, f"raised {type(e).__name__}: {e}"
    seconds = perf_counter() - start
    return code, out.getvalue(), seconds, error


def setup(workload: str, seed: int):
    """Import the program, generate the jobs and warm up on the smallest job of each kind."""
    cli = load_program()
    jobs = WORKLOADS[workload](seed)
    smallest = {}
    for job in jobs:
        if job.kind not in smallest or job.size < smallest[job.kind].size:
            smallest[job.kind] = job
    for job in smallest.values():
        run_job(cli, job)
    return cli, jobs


def run_pass(cli, jobs: list[Job], tracer: Tracer | None = None) -> PassResult:
    gc.collect()
    result = PassResult([], [], [], [])
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        result.kernels.append(time_kernel())
        code, stdout, seconds, error = run_job(cli, job)
        result.seconds.append(seconds)
        result.codes.append(code)
        result.stdouts.append(stdout)
        result.errors.append(error)
    result.kernels.append(time_kernel())
    result.digests = [hashlib.sha256(s.encode()).hexdigest() for s in result.stdouts]
    return result


class Gate:
    """Decides which job runs failed.

    The first pass is checked against the seed-independent checks, against
    the reference digests of every command line they cover (all of them for
    the reference seed) and within groups that must print the same bytes.
    Every later pass must repeat the first pass byte for byte.
    """

    def __init__(self, workload: str, seed: int, jobs: list[Job]):
        self.jobs = jobs
        self.seed = seed
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)["jobs"].get(workload, {})
        self.first: PassResult | None = None
        self.attempted = 0
        self.reasons: list[str] = []

    def check(self, p: PassResult):
        self.attempted += len(self.jobs)
        if self.first is None:
            self.first = p
            reasons = [self._first_pass_reason(i, p) for i in range(len(self.jobs))]
            self._check_groups(p, reasons)
        else:
            reasons = []
            for i in range(len(self.jobs)):
                same = (p.codes[i], p.digests[i]) == (self.first.codes[i], self.first.digests[i])
                changed = None if same else "output differs from the first pass"
                reasons.append(p.errors[i] or changed)
        self.reasons += [f"{self.jobs[i].kind} {self.jobs[i].key}: {r}"
                         for i, r in enumerate(reasons) if r]
        p.stdouts = []

    def _first_pass_reason(self, i: int, p: PassResult) -> str | None:
        job = self.jobs[i]
        if p.errors[i]:
            return p.errors[i]
        reason = check_output(job, p.codes[i], p.stdouts[i])
        if reason:
            return reason
        ref = self.reference.get(job.key)
        if ref is None:
            return "no reference digest" if self.seed == REFERENCE_SEED else None
        if [p.codes[i], p.digests[i]] != ref:
            return "output differs from the reference digest"
        return None

    def _check_groups(self, p: PassResult, reasons: list):
        digests = {}
        for i, job in enumerate(self.jobs):
            if job.group:
                digests.setdefault(job.group, set()).add(p.digests[i])
        for i, job in enumerate(self.jobs):
            if job.group and len(digests[job.group]) > 1 and not reasons[i]:
                reasons[i] = "isometric forms were classified differently"

    @property
    def failed(self) -> int:
        return len(self.reasons)

    def outputs_sha256(self) -> str:
        h = hashlib.sha256()
        for job, code, digest in zip(self.jobs, self.first.codes, self.first.digests):
            h.update(f"{job.key} {code} {digest}\n".encode())
        return h.hexdigest()


def measure(cli, jobs, gate: Gate, seconds: float, tracer: Tracer | None = None):
    """Run passes until `seconds` have gone by; a traced run keeps the spans of its first pass."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
            tracer.keep_spans = not passes
        p = run_pass(cli, jobs, tracer)
        gate.check(p)
        if tracer is not None:
            p.layers = tracer.metrics()
        passes.append(p)
    return passes


def timed_setup(workload: str, seed: int):
    """setup() and its time at the reference speed, judged by kernels run before and after it."""
    time_kernel()  # the first run pays for its own warm-up
    kernels = [time_kernel() for _ in range(SETUP_KERNELS)]
    start = perf_counter()
    cli, jobs = setup(workload, seed)
    seconds = perf_counter() - start
    kernels += [time_kernel() for _ in range(SETUP_KERNELS)]
    return cli, jobs, seconds * REFERENCE_S / statistics.median(kernels)


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def tail(per_job: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(per_job)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def latency_per_job(passes: list[PassResult]) -> list[float]:
    """Each job's median scaled time over the passes."""
    scaled = [p.scaled for p in passes]
    return [statistics.median(s[i] for s in scaled) for i in range(len(scaled[0]))]


def end_to_end(passes: list[PassResult], setup_times: list[float]):
    per_job = latency_per_job(passes)
    tail_s, percentile = tail(per_job)
    metrics = {
        "wall_s": (sum(per_job), "s"),
        "job_ms_p50": (1000 * statistics.median(per_job), "ms"),
        "job_ms_tail": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    speed = [p.speed_scale for p in passes]
    host = {"unscaled_wall_s": sum(statistics.median(p.seconds[i] for p in passes)
                                   for i in range(len(per_job))),
            "speed_scale_min": min(speed), "speed_scale_median": statistics.median(speed),
            "speed_scale_max": max(speed)}
    return metrics, {"percentile": percentile, "samples": len(per_job), "beyond": TAIL_BEYOND}, host


def per_layer(untraced: list[PassResult], traced: list[PassResult]):
    units = {name: unit for name, unit, _ in catalogue()}
    first = traced[0].layers
    metrics = {}
    for name, unit in units.items():
        if name.endswith(".self_s"):
            value = statistics.median(p.layers[name] * p.speed_scale for p in traced)
        else:
            value = first[name]
        metrics[name] = (value, unit)
    # the wall_s of the traced passes minus that of the untraced ones
    metrics["trace.overhead_s"] = (sum(latency_per_job(traced)) - sum(latency_per_job(untraced)),
                                   "s")
    module_self = {layer: sum(metrics[f"{layer}.{fn}.self_s"][0] for fn in fns)
                   for layer, fns in LAYERS.items()}
    total = sum(module_self.values()) or 1.0
    shares = {layer: round(s / total, 4) for layer, s in module_self.items()}
    return metrics, shares


def write_spans(workload: str, seed: int, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        cli, jobs, own_setup = timed_setup(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    gate = Gate(args.workload, args.seed, jobs)
    summary = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs)}
    if args.trace:
        untraced = measure(cli, jobs, gate, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(cli, jobs, gate, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics, shares = per_layer(untraced, traced)
        spans = write_spans(args.workload, args.seed, tracer.spans)
        summary.update(passes=len(untraced) + len(traced), layer_self_share=shares,
                       spans=str(spans.relative_to(ROOT)))
    else:
        setup_times = [setup_in_fresh_process(args.workload, args.seed)
                       for _ in range(SETUP_REPEATS - 1)] + [own_setup]
        passes = measure(cli, jobs, gate, args.seconds)
        metrics, tail_info, host = end_to_end(passes, setup_times)
        summary.update(passes=len(passes), job_ms_tail=tail_info, host=host)
    summary.update(outputs_sha256=gate.outputs_sha256(),
                   failed_ratio=gate.failed / gate.attempted, failures=gate.reasons[:5])
    print(json.dumps(summary))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
