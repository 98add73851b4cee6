"""Snapshot of the benchmark at the checked-out commit, as one JSON file.

    python3 tools/bench_snapshot.py [--seconds 15] [--out-dir .]

Run from anywhere inside a checkout.  For every workload of
``perfbench/run.py`` it runs the benchmark once untraced (``--trace 0``,
the end-to-end metrics) and once traced (``--trace 1``, the per-layer
metrics), both at seed 0, one after the other.  It writes
``BENCH_<short-rev>.json`` into ``--out-dir``: each run's result line, the
line count of ``src/linkchroma/*.py``, the Python version and ``nproc``.
Its path is the last line printed.  At the default 15 s a snapshot took
72 s of wall time on a 2-core x86-64 host with CPython 3.11.

A speed-up is shown by two such files, one per commit, from one host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("empire-maps", "complex-build", "small-complexes", "exact-colour", "witness-search")
SEED = 0


def short_rev() -> str:
    out = subprocess.run(
        ["git", "rev-parse", "--short=7", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "linkchroma").glob("*.py"))


def run(workload: str, seconds: int, trace: int) -> dict:
    """The result line of one benchmark run."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=15, help="timed seconds per untraced run (default 15)")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where to write the file (default: the checkout)")
    args = parser.parse_args(argv)

    rev = short_rev()
    snapshot = {
        "rev": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "seed": SEED,
        "seconds": args.seconds,
        "runs": {},
    }
    for workload in WORKLOADS:
        snapshot["runs"][workload] = {f"trace{t}": run(workload, args.seconds, t) for t in (0, 1)}
        print(f"{workload}: correct={all(r['correct'] for r in snapshot['runs'][workload].values())}")
    path = args.out_dir / f"BENCH_{rev}.json"
    path.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
