import ast
from pathlib import Path

import pytest

MODULES = sorted(Path("src/relucert").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """`python -O` strips assert statements, so no check may rest on one."""
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path}: assert statements at lines {lines}"
