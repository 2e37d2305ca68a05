"""Harness shared by the scripts that time `src/` trees against each other.

A script passes its `measure` function to `collect`, which parses `--src
LABEL=DIR` (repeatable; the default is this checkout's `src/`) and `--out
FILE`, then runs the script again once per repeat and tree in a fresh
subprocess, the order of the trees alternating between repeats.  Each such
run (`--child DIR`) puts DIR first on sys.path, prints `measure()` as JSON
and exits.  `merge_out` writes one key of the results into a JSON file,
keeping its other keys.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_src(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    src = Path(path).resolve()
    if not (src / "semiortho" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no semiortho package under {src}")
    return label, src


def collect(doc: str, script: str, measure, repeats: int,
            argv=None) -> tuple[dict[str, list], Path | None]:
    """The JSON results of `measure` per tree label, one per repeat, and the `--out` path."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--src", type=parse_src, action="append",
                   help="LABEL=DIR of a src/ tree; repeatable")
    p.add_argument("--out", type=Path)
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        sys.path.insert(0, str(args.child))
        print(json.dumps(measure()))
        sys.exit(0)
    trees = args.src or [("checkout", ROOT / "src")]
    runs: dict[str, list] = {label: [] for label, _ in trees}
    for r in range(repeats):
        for label, src in trees if r % 2 == 0 else trees[::-1]:
            out = subprocess.run([sys.executable, script, "--child", str(src)],
                                 check=True, capture_output=True, text=True).stdout
            runs[label].append(json.loads(out))
    return runs, args.out


def merge_out(path: Path | None, key: str, value) -> None:
    """Set `key` of the JSON object in `path` to `value`; nothing when `path` is None."""
    if path is None:
        return
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = value
    path.write_text(json.dumps(data, indent=1) + "\n")
