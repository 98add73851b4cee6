"""Run the ``tier-1`` job of ``.github/workflows/tests.yml`` offline, for
one interpreter, with the standard library and PyYAML.

    python3 tools/ci_local.py [--python PATH]

Run from anywhere inside a checkout.  Each ``run:`` step of the job runs
as written, from the checkout's root, under ``bash --noprofile --norc -eo
pipefail``.  ``${{ matrix.python-version }}`` becomes the interpreter's
``major.minor``; ``RUNNER_TEMP`` is a fresh temporary directory, removed
on exit, and ``GITHUB_STEP_SUMMARY`` a file in it, printed at the end.
``python``, ``python3`` and ``linkchroma`` on ``PATH`` are shims for the
interpreter given by ``--python`` (by default the one running this
script), each putting the checkout's ``src`` first on ``PYTHONPATH``, so
nothing is installed.  That interpreter must import pytest and
hypothesis for the steps that run tests.  A ``PYTHONPATH`` this script
is given, such as another interpreter's ``site-packages``, goes last on
the shims' path, where a step's own ``PYTHONPATH`` does not replace it.

Each step's ``if:`` is evaluated (``matrix.python-version``, string
literals, ``==``, ``!=``, ``!``, ``&&``, ``||``, parentheses and
``success()``, ``failure()``, ``always()``), and a step with none runs
only if every step before it passed, as on GitHub.  Skipped, with the
reason named: the ``uses:`` steps, the checkout and interpreter set-up
this script stands in for, and any step that runs ``pip install``, which
needs the network.  One line per step
gives its status and wall time, and the script exits 1 if any step
failed.  It changes nothing in the workflow file.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
JOB = "tier-1"
MATRIX_VERSION = re.compile(r"\$\{\{\s*matrix\.python-version\s*\}\}")
# the tokens of an ``if:`` expression, each to its Python text
_TOKENS = re.compile(r"\s*(?:(matrix\.python-version)|('[^']*')|(==|!=|&&|\|\||!|\(|\))|(success|failure|always)\(\))")


def condition(expr: str, version: str, failed: bool) -> bool:
    """The value of a step's ``if:`` expression, ``${{ }}`` optional."""
    expr = expr.strip()
    if expr.startswith("${{") and expr.endswith("}}"):
        expr = expr[3:-2]
    calls = {"success": not failed, "failure": failed, "always": True}
    ops = {"&&": " and ", "||": " or ", "!": " not "}
    out, pos, expr = [], 0, expr.strip()
    while pos < len(expr):
        m = _TOKENS.match(expr, pos)
        if m is None:
            raise SystemExit(f"error: cannot evaluate if: {expr!r} at {expr[pos:]!r}")
        matrix, literal, op, call = m.groups()
        out.append(repr(version) if matrix else literal or (ops.get(op, op) if op else repr(calls[call])))
        pos = m.end()
    return bool(eval("".join(out), {"__builtins__": {}}))


def skip_reason(step: dict, version: str, failed: bool):
    """Why ``step`` is skipped, or ``None`` if it runs; ``failed`` says
    whether a step before it failed."""
    if "uses" in step:
        return f"uses: {step['uses']}, which this script stands in for"
    if re.search(r"\bpip install\b", step["run"]):
        return "pip install needs the network"
    if "if" in step:
        if not condition(str(step["if"]), version, failed):
            return f"if: {step['if']} is false"
    elif failed:
        return "an earlier step failed"
    return None


def shims(bin_dir: Path, python: str, site: str) -> None:
    """``python``, ``python3`` and ``linkchroma`` in ``bin_dir``, all run by
    ``python`` with ``src`` put before and ``site`` after the
    ``PYTHONPATH`` a step gives them, so that the package and what
    ``site`` holds import whatever a step sets, as installed ones would."""
    bin_dir.mkdir()
    path = shlex.quote(str(ROOT / "src")) + '"${PYTHONPATH:+:$PYTHONPATH}"' + (":" + shlex.quote(site) if site else "")
    run = f"PYTHONPATH={path} exec {shlex.quote(python)}"
    console = 'import sys; sys.argv[0] = "linkchroma"; from linkchroma.cli import app; app()'
    for name, body in (
        ("python", f'{run} "$@"'),
        ("python3", f'{run} "$@"'),
        ("linkchroma", f'{run} -c {shlex.quote(console)} "$@"'),
    ):
        shim = bin_dir / name
        shim.write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
        shim.chmod(0o755)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--python", default=sys.executable, help="the interpreter to run the steps with")
    args = parser.parse_args(argv)
    import yaml  # only here, so that the tests import this module without it

    probe = [args.python, "-c", "import platform; print(platform.python_version())"]
    full = subprocess.run(probe, capture_output=True, text=True, check=True).stdout.strip()
    version = ".".join(full.split(".")[:2])
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = workflow["jobs"][JOB]["steps"]
    lines, failed = [], False
    with tempfile.TemporaryDirectory(prefix="ci_local_") as temp:
        temp = Path(temp)
        runner_temp, summary = temp / "runner", temp / "step_summary.md"
        runner_temp.mkdir()
        summary.touch()
        env = dict(os.environ)
        shims(temp / "bin", args.python, env.pop("PYTHONPATH", ""))
        env.update(
            PATH=f"{temp / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}",
            RUNNER_TEMP=str(runner_temp),
            GITHUB_STEP_SUMMARY=str(summary),
        )
        print(f"{WORKFLOW.relative_to(ROOT)} job {JOB}, Python {full} ({args.python})", flush=True)
        for i, step in enumerate(steps):
            name = step.get("name") or step.get("uses") or f"step {i + 1}"
            reason = skip_reason(step, version, failed)
            if reason is not None:
                lines.append(f"SKIP           {name}: {reason}")
                print(f"---- {lines[-1]}", flush=True)
                continue
            script = MATRIX_VERSION.sub(version, step["run"])
            left = re.search(r"\$\{\{.*?\}\}", script)
            if left:
                raise SystemExit(f"error: step {name!r} uses {left.group()}, which this script does not fill in")
            print(f"---- {name}", flush=True)
            (temp / "step.sh").write_text(script, encoding="utf-8")
            start = time.perf_counter()
            bash = ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(temp / "step.sh")]
            status = subprocess.run(bash, cwd=ROOT, env=env).returncode
            seconds = time.perf_counter() - start
            failed = failed or status != 0
            lines.append(f"{'PASS' if status == 0 else 'FAIL'} {seconds:7.2f} s  {name}" + (f" (exit {status})" if status else ""))
            print(f"---- {lines[-1]}", flush=True)
        print(f"\n---- step summary\n{summary.read_text(encoding='utf-8')}---- Python {full}, {JOB}")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
