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


def test_one_chain_complex_builder():
    # every complex is built by chains.build_complex, so the stored columns
    # have one producer and one set of invariants
    callers = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "ChainComplex":
                    callers.append(f"{path.name}:{node.lineno}")
    assert [c.split(":")[0] for c in callers] == ["chains.py"], callers
