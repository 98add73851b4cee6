"""Statement coverage of ``src/linkchroma`` under a pytest run, with the
standard library only (``sys.monitoring``, CPython 3.12 or later).

    python3 tools/src_coverage.py [pytest arguments ...]

Run from anywhere inside a checkout.  It runs pytest in this process with
the arguments given (tier-1 is ``-q --continue-on-collection-errors``),
with the checkout's ``src`` first on ``sys.path``.  Each line of
``src/linkchroma`` is recorded the first time it runs, and the callback
then returns ``DISABLE`` for that line, so the run costs about what the
same pytest run costs.  It prints, per module, each statement that never
ran, then ``N of M statements under src/linkchroma never ran``, and exits
with pytest's status.

A statement is counted by its first line, and only if that line has
bytecode: docstrings and other lines that compile to nothing are not
statements here.  Code run in a subprocess, such as a console script, is
not seen.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linkchroma"


def statements(path: Path) -> set:
    """The first lines of the statements of ``path`` that have bytecode."""
    text = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines & {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}


def run_pytest(args: list) -> tuple:
    """pytest's exit status on ``args``, and the (real path, line) of each
    line of ``PACKAGE`` that ran."""
    monitoring = sys.monitoring
    tool, paths, ran = monitoring.COVERAGE_ID, {}, set()
    prefix = str(PACKAGE) + os.sep

    def line(code, number):
        name = code.co_filename
        if name not in paths:  # the real path of a file of PACKAGE, else None
            path = os.path.realpath(name)
            paths[name] = path if path.startswith(prefix) else None
        if paths[name] is not None:
            ran.add((paths[name], number))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "src_coverage")
    monitoring.register_callback(tool, monitoring.events.LINE, line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import pytest

        status = int(pytest.main(args))
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    return status, ran


def main(argv=None) -> int:
    if not hasattr(sys, "monitoring"):
        print("error: tools/src_coverage.py needs sys.monitoring (CPython 3.12 or later)", file=sys.stderr)
        return 2
    status, ran = run_pytest(sys.argv[1:] if argv is None else argv)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        wanted = statements(path)
        never = sorted(n for n in wanted if (str(path), n) not in ran)
        total += len(wanted)
        missed += len(never)
        if never:
            text = path.read_text(encoding="utf-8").splitlines()
            print(f"{path.relative_to(ROOT)}: {len(never)} of {len(wanted)} statements never ran")
            for n in never:
                print(f"  {n}: {text[n - 1].strip()}")
    print(f"{missed} of {total} statements under src/linkchroma never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
