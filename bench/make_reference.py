"""Write reference.json: exit code and stdout sha256 of every job at the reference seed.

    python3 bench/make_reference.py

Run from the root of a checkout whose outputs are known to be right; the
benchmark then fails any job whose command line is listed here and whose
output differs.  A job that fails the seed-independent checks stops the write.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, REFERENCE_SEED, load_program, run_pass
from workloads import WORKLOADS, check_output


def main() -> int:
    cli = load_program()
    out = {"seed": REFERENCE_SEED, "jobs": {}}
    for name, make in sorted(WORKLOADS.items()):
        jobs = make(REFERENCE_SEED)
        p = run_pass(cli, jobs)
        for job, code, stdout, error in zip(jobs, p.codes, p.stdouts, p.errors):
            reason = error or check_output(job, code, stdout)
            if reason:
                print(f"{name}: {' '.join(job.argv)[:120]}: {reason}", file=sys.stderr)
                return 1
        out["jobs"][name] = {job.key: [code, digest]
                             for job, code, digest in zip(jobs, p.codes, p.digests)}
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
