"""Seeded job lists for the benchmark workloads, and the checks on their outputs.

A job is one `semiortho` command line.  Each workload turns a seed into a
fixed list of jobs whose total cost does not depend on the seed: the seed
picks entries, orders and signs, never sizes.  This module uses only the
standard library, so generating inputs never imports the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb

# Orbit searches stop at the node cap long before this height, so their cost
# is set by the cap and not by how fast the entries of a seed's Gram grow.
ORBIT_HEIGHT = 10 ** 30
MARKOV_BOUND = 10 ** 5


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    size: int  # N, rank, node cap or largest entry; the warm-up runs the smallest of each kind
    # jobs sharing a non-empty group must print identical bytes
    group: str = ""
    expect: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        """Stable identifier of the command line, for the reference digests."""
        return hashlib.sha256("\0".join(self.argv).encode()).hexdigest()[:24]


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _unitriangular(rng: random.Random, n: int, lo: int, hi: int) -> list[list[int]]:
    """Upper unitriangular Gram with off-diagonal entries +-[lo, hi] (0 allowed if lo == 0)."""
    return [[1 if i == j else (rng.choice((-1, 1)) * rng.randint(lo, hi) if j > i else 0)
             for j in range(n)] for i in range(n)]


def _congruent(rng: random.Random, g: list[list[int]], steps: int) -> list[list[int]]:
    """P^t g P for a random P in GL_n(Z) made of elementary column operations."""
    n = len(g)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in p:
            row[j] += c * row[i]
    gp = [[sum(g[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(p[k][i] * gp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _standard_collection(gram: list[list[int]]) -> dict:
    n = len(gram)
    return {"ambient": {"rank": n, "gram": gram},
            "vectors": [[int(i == j) for j in range(n)] for i in range(n)]}


def twist_gram(n: int) -> list[list[int]]:
    """Gram of the twist collection O, O(1), ..., O(n) on P^n: C(n+j-i, n) from the diagonal up."""
    return [[comb(n + j - i, n) if j >= i else 0 for j in range(n + 1)] for i in range(n + 1)]


def markov_triples(bound: int) -> list[tuple[int, int, int]]:
    """Sorted positive solutions of a^2+b^2+c^2 = abc with max entry <= bound."""
    seen = {(3, 3, 3)}
    todo = [(3, 3, 3)]
    while todo:
        t = todo.pop()
        for pos in range(3):
            x, y = (t[i] for i in range(3) if i != pos)
            nxt = tuple(sorted((x, y, x * y - t[pos])))
            if nxt[2] <= bound and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return sorted(seen)


def k0_classify(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n in range(2, 9):
        for basis in ("twists", "adams", "binomial"):
            jobs.append(Job("k0-classify", ("k0", "classify", "-n", str(n), "--basis", basis), n))
        jobs.append(Job("k0-gram", ("k0", "gram", "-n", str(n), "--basis", "adams"), n))
    rng.shuffle(jobs)
    return jobs


def lattice_forms(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n in range(4, 12):
        u = _unitriangular(rng, n, 0, 3)
        group = f"classify-{n}"
        for gram in (u, _congruent(rng, u, n)):
            inline = _dumps({"rank": n, "gram": gram})
            jobs.append(Job("classify", ("classify", "--inline", inline), n, group=group))
    for _ in range(4):
        jobs.append(Job("verify", ("verify", "--suite", "canonical", "--seed",
                                   str(rng.randrange(10 ** 6))), 25))
    for n in (3, 4, 5, 6):
        for _ in range(4):
            word = " ".join(f"{rng.choice('LR')}{rng.randint(1, n - 1)}"
                            for _ in range(rng.randint(6, 10)))
            coll = _standard_collection(_unitriangular(rng, n, 0, 2))
            jobs.append(Job("mutate", ("mutate", "--inline", _dumps(coll), "--word", word), n))
    rng.shuffle(jobs)
    return jobs


def _orbit_job(gram: list[list[int]], max_nodes: int) -> Job:
    return Job("orbit", ("orbit", "--inline", _dumps(_standard_collection(gram)),
                         "--height-bound", str(ORBIT_HEIGHT), "--max-nodes", str(max_nodes)),
               max_nodes, expect={"max_nodes": max_nodes})


def braid_orbits(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [_orbit_job(twist_gram(2), 500), _orbit_job(twist_gram(3), 150)]
    for _ in range(6):
        jobs.append(_orbit_job(_unitriangular(rng, 3, 3, 6), 150))
    for _ in range(6):
        jobs.append(_orbit_job(_unitriangular(rng, 4, 1, 3), 50))
    for t in markov_triples(MARKOV_BOUND):
        # a seeded order and an even number of sign changes keep a^2+b^2+c^2 = abc
        t = list(t)
        rng.shuffle(t)
        for i in rng.choice(((), (0, 1), (0, 2), (1, 2))):
            t[i] = -t[i]
        jobs.append(Job("markov-reduce", ("markov", "reduce", *map(str, t)),
                        max(map(abs, t)), expect={"start": t}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"k0_classify": k0_classify, "lattice_forms": lattice_forms,
             "braid_orbits": braid_orbits}


def check_output(job: Job, code: int, stdout: str) -> str | None:
    """Seed-independent checks on one job's result; returns why it failed, or None."""
    if code != 0:
        return f"exit code {code}"
    try:
        obj = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if job.kind == "markov-reduce":
        if obj.get("end") != [3, 3, 3] or obj.get("start") != job.expect["start"]:
            return "reduction does not run from the input triple to (3,3,3)"
    elif job.kind == "orbit":
        if not 1 <= obj.get("orbit_size", 0) <= job.expect["max_nodes"]:
            return "orbit_size exceeds the node cap"
    elif job.kind == "mutate":
        g = obj.get("gram", [])
        if len(g) != job.size or any(g[i][i] != 1 or any(g[i][:i])
                                     for i in range(len(g))):
            return "mutated collection is not semiorthonormal"
    elif job.kind == "verify":
        if obj.get("passed") is not True:
            return "verify suite reported failures"
    elif job.kind == "k0-gram":
        if len(obj) != job.size + 1 or any(len(row) != job.size + 1 for row in obj):
            return "Gram matrix has the wrong shape"
    elif "verdict" not in obj:
        return "classification report has no verdict"
    return None
