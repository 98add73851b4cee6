"""Static checks over the library's own source files."""

import ast
from pathlib import Path

import linkchroma


def test_no_assert_statements():
    """Invariants raise DomainError: ``python -O`` strips assert statements."""
    paths = sorted(Path(linkchroma.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
