"""Plant each mutant of a table in a copy of the code and show the tests catch it.

    python3 tools/mutants.py

Run from anywhere inside a checkout, with the standard library only.  A
mutant is one deliberate fault: a row of ``tools/mutants.json`` gives
its ``name``, the ``file`` it changes (relative to the checkout), the
exact ``old`` text, the ``new`` text, the ``command`` that must fail on
it and a time limit in ``seconds``.  A command is ``["pytest", node id,
...]`` or ``["corpus"]``, for ``linkchroma corpus``.

Every row's old text must occur exactly once in its file; else the script
names each row that does not and exits 1 before running anything.  An
unknown command also stops it before anything runs.  Then
each distinct command runs once on an unchanged copy, where it must pass,
and once per mutant, each time in a fresh temporary copy of ``src/``,
``tests/`` and ``pyproject.toml``, with the copy's ``src`` first on
``PYTHONPATH`` so that the copy is imported, not an installed package.
Each run is limited to ``MEMORY_BYTES`` of address space.  A mutant is
caught when its command fails or runs out of time, and survives when it
passes.  One line per run gives its outcome and wall time; the script
exits 1 if a baseline run fails or a mutant survives.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = ROOT / "tools" / "mutants.json"
COPIED = ("src", "tests", "pyproject.toml")
MEMORY_BYTES = 2 << 30


def misplaced(rows: list, root: Path = ROOT) -> list:
    """A line for each row whose old text does not occur exactly once in
    its file under ``root``."""
    out = []
    for row in rows:
        count = (root / row["file"]).read_text(encoding="utf-8").count(row["old"])
        if count != 1:
            out.append(f"{row['name']}: the old text occurs {count} times in {row['file']}, not once")
    return out


def argv_of(command: list) -> list:
    """The process arguments of a row's command."""
    if command[:1] == ["pytest"] and len(command) > 1:
        return [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *command[1:]]
    if command == ["corpus"]:
        return [sys.executable, "-m", "linkchroma.cli", "corpus"]
    raise SystemExit(f"error: unknown command {command!r}: give pytest node ids or corpus")


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_in_copy(command: list, seconds: float, row: dict | None = None) -> tuple:
    """(outcome, wall seconds) of ``command`` in a fresh copy, with ``row``
    applied if given: "passed", "failed" or "timed out"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        if row is not None:
            path = copy / row["file"]
            path.write_text(path.read_text(encoding="utf-8").replace(row["old"], row["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        start = time.perf_counter()
        try:
            done = subprocess.run(
                argv_of(command), cwd=copy, env=env, capture_output=True, timeout=seconds, preexec_fn=limit_memory
            )
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start
        return ("passed" if done.returncode == 0 else "failed"), time.perf_counter() - start


def main() -> int:
    rows = json.loads(ROWS.read_text(encoding="utf-8"))
    bad = misplaced(rows)
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    if bad:
        return 1
    for row in rows:
        argv_of(row["command"])  # refuses an unknown command before anything runs
    status = 0
    baselines = {}
    for row in rows:
        key = json.dumps(row["command"])
        if key not in baselines:
            baselines[key], seconds = run_in_copy(row["command"], row["seconds"])
            print(f"baseline {' '.join(row['command'])}: {baselines[key]} in {seconds:.1f} s", flush=True)
            if baselines[key] != "passed":
                status = 1
        if baselines[key] != "passed":
            print(f"SKIP {row['name']}: its command does not pass unchanged", flush=True)
            continue
        outcome, seconds = run_in_copy(row["command"], row["seconds"], row)
        verdict = "SURVIVED" if outcome == "passed" else "caught"
        print(f"{verdict} {row['name']}: {outcome} in {seconds:.1f} s", flush=True)
        status |= outcome == "passed"
    return status


if __name__ == "__main__":
    sys.exit(main())
