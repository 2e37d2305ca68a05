"""Tests of the benchmark itself: input generators, output gate and tracer.

    python3 -m pytest bench/tests
"""

import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest

import run
import tracer as tracing
from semiortho import bilinear_form, classification, cli, exact_linalg, markov, mutations
from semiortho.exact_linalg import det
from semiortho.serialize import decode_collection, decode_int_matrix
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_jobs_and_only_picks_entries(workload):
    make = WORKLOADS[workload]
    assert [j.argv for j in make(7)] == [j.argv for j in make(7)]
    assert [j.argv for j in make(7)] != [j.argv for j in make(8)]
    sizes = Counter((j.kind, j.size) for j in make(7))
    assert all(Counter((j.kind, j.size) for j in make(seed)) == sizes for seed in range(4))


@pytest.mark.parametrize("seed", range(5))
def test_generated_inputs_are_valid(seed):
    for make in WORKLOADS.values():
        for job in make(seed):
            if job.kind == "classify":
                gram = json.loads(job.argv[job.argv.index("--inline") + 1])["gram"]
                assert det(decode_int_matrix(gram)) in (1, -1)
            elif job.kind in ("mutate", "orbit"):
                data = json.loads(job.argv[job.argv.index("--inline") + 1])
                assert mutations.is_semiorthonormal(decode_collection(data))
            elif job.kind == "markov-reduce":
                a, b, c = map(int, job.argv[2:])
                assert a * a + b * b + c * c == a * b * c


def _namespaces():
    return {(owner, attr): value for owner in tracing.package_namespaces()
            for attr, value in vars(owner).items()}


def test_wrappers_replace_every_imported_copy():
    originals = (bilinear_form.pair, mutations._mutate_gram, exact_linalg.det,
                 classification.detect_type_gram, vars(exact_linalg.RatMatrix)["__mul__"])
    t = tracing.Tracer()
    t.install()
    try:
        assert mutations.pair is bilinear_form.pair is not originals[0]
        assert markov._mutate_gram is mutations._mutate_gram is not originals[1]
        assert bilinear_form.det is exact_linalg.det is not originals[2]
        assert cli.detect_type_gram is classification.detect_type_gram is not originals[3]
        assert vars(exact_linalg.RatMatrix)["__mul__"] is not originals[4]
    finally:
        t.uninstall()
    assert (bilinear_form.pair, mutations._mutate_gram, exact_linalg.det,
            classification.detect_type_gram,
            vars(exact_linalg.RatMatrix)["__mul__"]) == originals


@pytest.fixture(scope="module")
def traced():
    """Two traced passes of every workload at the reference seed."""
    program = run.load_program()
    before = _namespaces()
    passes = {}
    for workload, make in WORKLOADS.items():
        jobs = make(run.REFERENCE_SEED)
        gate = run.Gate(workload, run.REFERENCE_SEED, jobs)
        passes[workload] = []
        for _ in range(2):
            t = tracing.Tracer()
            t.install()
            try:
                p = run.run_pass(program, jobs, t)
            finally:
                t.uninstall()
            gate.check(p)
            passes[workload].append((p, t))
        assert gate.reasons == []
    return passes, before, _namespaces()


def test_uninstall_restores_every_attribute(traced):
    _, before, after = traced
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(traced, workload):
    (_, first), (_, second) = traced[0][workload]
    counts = {k: v for k, v in first.metrics().items() if not k.endswith(".self_s")}
    assert counts == {k: v for k, v in second.metrics().items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_stay_within_each_job(traced, workload):
    for p, t in traced[0][workload]:
        for job, wall in enumerate(p.seconds):
            # cli.main is the outermost span, so the self times of a job add
            # up to its duration; the slack only absorbs float rounding
            assert 0 < t.self_by_job[job] <= wall + 1e-9


def test_bypass_predictions_hold(traced):
    k0 = traced[0]["k0_classify"][0][1].metrics()
    braid = traced[0]["braid_orbits"][0][1].metrics()
    assert k0["bilinear_form.pair.calls"] == 0
    assert all(v == 0 for k, v in k0.items()
               if k.startswith("mutations.") and k.endswith(".calls"))
    assert braid["exact_linalg.char_poly_rat.calls"] == 0
    assert braid["bilinear_form.pair.calls"] > 0
    assert braid["mutations._mutate_gram.calls"] > 0
    assert 0 < braid["mutations.orbit_search.new_state_ratio"] < 1
    assert k0["exact_linalg.char_poly_rat.max_coeff_bits"] > 0


def test_scaling_cancels_a_uniform_slowdown():
    kernels = [0.004, 0.005, 0.004, 0.004]
    fast = run.PassResult([0.01, 0.02, 0.03], [0] * 3, [""] * 3, [""] * 3, kernels=kernels)
    slow = run.PassResult([1.7 * s for s in fast.seconds], [0] * 3, [""] * 3, [""] * 3,
                          kernels=[1.7 * k for k in kernels])
    assert slow.scaled == pytest.approx(fast.scaled)
    assert slow.speed_scale == pytest.approx(fast.speed_scale / 1.7)


def test_gate_fails_changed_outputs():
    program = run.load_program()
    jobs = WORKLOADS["braid_orbits"](run.REFERENCE_SEED)[:4]
    gate = run.Gate("braid_orbits", run.REFERENCE_SEED, jobs)
    gate.check(run.run_pass(program, jobs))
    p = run.run_pass(program, jobs)
    p.codes[1] = 2
    gate.check(p)
    assert len(gate.reasons) == 1 and "first pass" in gate.reasons[0]

    gate = run.Gate("braid_orbits", run.REFERENCE_SEED, jobs)
    p = run.run_pass(program, jobs)
    p.digests[0] = hashlib.sha256(b"changed").hexdigest()
    gate.check(p)
    assert len(gate.reasons) == 1 and "reference" in gate.reasons[0]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_the_declared_metrics(trace, section):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "lattice_forms", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
