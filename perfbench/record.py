"""Write ``expected.json``: the answer of every operation the benchmark can
draw, computed at the current commit.

    python3 perfbench/record.py [--workload NAME ...]

The answers are SHA-256 digests of every written document, exact
chromatic numbers and search outcomes.  Re-record only when an output is
meant to change; a byte-identical refactor must leave this file alone.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.import_lib()

    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    out_dir = run.ROOT / ".perfbench_out" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload or sorted(WORKLOADS):
            wl = WORKLOADS[name]
            if not wl.recorded:
                continue
            t0 = time.perf_counter()
            runner = run.Runner(wl, lib, {}, str(out_dir))
            ops = wl.pool()
            inputs = runner.build(ops, 0)
            _, _, answers, failed = runner.run_all(ops, inputs, compare=False)
            if failed:
                for problem in runner.problems:
                    print(f"problem: {problem}", file=sys.stderr)
                return 1
            expected[name] = {op.key: answer for op, answer in zip(ops, answers)}
            print(f"{name}: {len(ops)} answers in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir.parent, ignore_errors=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
