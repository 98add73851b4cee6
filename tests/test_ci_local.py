"""``tools/ci_local.py`` decides which workflow steps run as GitHub does."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ci_local.py"
_SPEC = importlib.util.spec_from_file_location("ci_local", _PATH)
ci_local = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ci_local)

COVERAGE_IF = "matrix.python-version == '3.12' || matrix.python-version == '3.13'"


@pytest.mark.parametrize(
    "expr, version, failed, expected",
    [
        (COVERAGE_IF, "3.11", False, False),
        (COVERAGE_IF, "3.13", False, True),
        ("${{ matrix.python-version != '3.10' }}", "3.10", False, False),
        ("!(matrix.python-version == '3.10') && success()", "3.11", False, True),
        ("success()", "3.11", True, False),
        ("failure()", "3.11", True, True),
        ("always()", "3.11", True, True),
    ],
)
def test_if_expressions(expr, version, failed, expected):
    assert ci_local.condition(expr, version, failed) is expected


def test_an_unknown_if_expression_is_refused():
    with pytest.raises(SystemExit):
        ci_local.condition("github.event_name == 'push'", "3.11", False)


def test_skip_reasons():
    def reason(step, failed=False):
        return ci_local.skip_reason(step, "3.11", failed)

    assert reason({"uses": "actions/checkout@v4"}) == "uses: actions/checkout@v4, which this script stands in for"
    assert reason({"name": "Install", "run": 'pip install -e ".[test]"'}) == "pip install needs the network"
    assert reason({"run": "true", "if": COVERAGE_IF}) == f"if: {COVERAGE_IF} is false"
    assert reason({"run": "true"}) is None
    assert reason({"run": "true"}, failed=True) == "an earlier step failed"
    assert reason({"run": "true", "if": "always()"}, failed=True) is None


def test_each_test_the_tier_1_summary_times_is_defined():
    # a renamed test would leave its summary line with no call time
    nodes = re.findall(r"tests/\S+\.py::[\w:]+", ci_local.WORKFLOW.read_text(encoding="utf-8"))
    assert len(nodes) == 3
    for node in nodes:
        path, *names = node.split("::")
        scope = ast.parse((ci_local.ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            (found,) = [n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
            scope = found.body
