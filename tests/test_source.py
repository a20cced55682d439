"""Source-level checks on the library."""

import ast
from pathlib import Path

import operadix

SOURCE = Path(operadix.__file__).parent


def test_no_assert_statements():
    # library checks must raise, so that they still run under ``python -O``
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"
