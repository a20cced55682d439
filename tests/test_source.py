"""Source-level checks on the library."""

import ast
import importlib
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


def _referenced_names(root: Path) -> set:
    """Every name a file under ``root`` reads: Name and Attribute nodes,
    import aliases, and identifier-shaped strings (``"Class.method"`` counts
    for both parts)."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
    return names


def test_every_definition_is_referenced():
    # a function, method or class nothing reads is dead code; the library,
    # the tests, the benchmark harness and the demos count as readers
    repo = Path(__file__).resolve().parent.parent
    trees = ("src", "tests", "perfbench", "demos")
    used = set().union(*(_referenced_names(repo / tree) for tree in trees))
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in used:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"definitions nothing references: {unused}"


def test_every_exported_name_exists():
    # a name left in ``__all__`` after its definition is deleted breaks
    # ``from operadix.<module> import *``
    missing = []
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(f"operadix.{path.stem}")
        missing += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not missing, f"names in __all__ with no definition: {missing}"


def test_value_classes_are_slotted_frozen_dataclasses():
    # one construction idiom for the operad values: slotted frozen
    # dataclasses whose unchecked constructors set fields through the slots
    import dataclasses

    from operadix.graphs import GraphElement
    from operadix.strings import IntegerString
    from operadix.surjections import BarredClass, Surjection

    for cls in (IntegerString, Surjection, BarredClass, GraphElement):
        assert dataclasses.is_dataclass(cls), cls
        assert cls.__dataclass_params__.frozen, cls
        assert "__slots__" in cls.__dict__ and "__dict__" not in cls.__dict__, cls
    found = []
    for name in ("strings.py", "graphs.py", "surjections.py"):
        path = SOURCE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{name}:{node.lineno}")
    assert not found, f"object.__setattr__ in the value modules: {found}"
