"""A fixed reference kernel that measures how fast the host runs Python right now.

The benchmark was written on a shared host with 2 vCPUs whose speed for
identical work changes by 1.3-1.8x for stretches of seconds to minutes, as
neighbours load the physical cores under it.  CPU time inflates as much as
wall time, so it is contention, not preemption.  A job's time alone mixes the
program's cost with the host's speed at that moment.

`kernel()` does the same fixed work on every call, with the kinds of work the
program does: rational matrix products reduced by gcd, big-integer products
and a breadth-first search over a set of integer tuples.  It uses only the
standard library and never the program, so a change to the program cannot
change its time.  The benchmark times it next to every job and scales the
job's time by `REFERENCE_S / kernel time`: the job's time on the reference
host when nothing contends for its core.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

# kernel() on the host the benchmark was written on (Intel Xeon 2.0 GHz,
# Python 3.11.7) in a stretch when nothing contended for its core
REFERENCE_S = 0.0025


def _rat_matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            p, q = 0, 1
            for k in range(n):
                (p1, q1), (p2, q2) = a[i][k], b[k][j]
                p, q = p * q1 * q2 + p1 * p2 * q, q * q1 * q2
                g = gcd(p, q)
                p, q = p // g, q // g
            row.append((p, q))
        out.append(row)
    return out


def kernel() -> int:
    n = 6
    a = [[(i + 2 * j + 1, j + 3) for j in range(n)] for i in range(n)]
    m = a
    for _ in range(2):
        m = _rat_matmul(m, a)
    x, modulus = 3 ** 400, 7 ** 700
    for _ in range(30):
        x = x * x % modulus
    seen, todo = set(), [(1, 2, 3, 5)]
    while todo and len(seen) < 4000:
        t = todo.pop()
        for i in range(4):
            u = list(t)
            u[i] = (u[i] * 3 + t[(i + 1) % 4]) % 100003
            u = tuple(u)
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return m[0][0][0] + x + len(seen)


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start
