"""Source-level checks on the library."""

import ast
import importlib
import importlib.util
import inspect
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


def test_no_self_referring_closures():
    # a nested function that names itself holds itself through its own cell:
    # every call of the enclosing function leaves a reference cycle, freed
    # only by a full collection; and the library never calls the collector
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nested = {
            inner
            for outer in ast.walk(tree)
            if isinstance(outer, functions)
            for inner in ast.walk(outer)
            if inner is not outer and isinstance(inner, functions)
        }
        for inner in sorted(nested, key=lambda node: node.lineno):
            if any(
                isinstance(node, ast.Name) and node.id == inner.name
                for node in ast.walk(inner)
            ):
                found.append(f"{path.name}:{inner.lineno} {inner.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "gc" in modules:
                found.append(f"{path.name}:{node.lineno} imports gc")
    assert not found, f"reference cycles in the library: {found}"


def test_environment_read_in_one_function():
    # the environment is read on each call of one function, so no library
    # result and no cached object (such as the CLI parser) depends on it
    env_names = ("environ", "environb", "getenv")
    readers = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # the innermost function around each node: ast.walk visits outer
        # functions first, so inner ones overwrite
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in env_names) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in env_names for alias in node.names)
            ):
                readers.add(f"{path.name}:{owner.get(node, '<module level>')}")
    assert len(readers) == 1 and "<module level>" not in next(iter(readers)), readers


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
    # one construction idiom for the values: every frozen dataclass of the
    # library is slotted, and unchecked constructors set fields through the
    # slots, never through object.__setattr__
    import dataclasses

    frozen = []
    unslotted = []
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(f"operadix.{path.stem}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
            ):
                frozen.append(cls.__name__)
                if "__slots__" not in cls.__dict__ or "__dict__" in cls.__dict__:
                    unslotted.append(cls.__name__)
    # the scan sees the operad values
    assert {"IntegerString", "GraphElement", "Surjection", "BarredClass"} <= set(
        frozen
    ), frozen
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not unslotted + found, (
        f"unslotted frozen dataclasses and object.__setattr__ calls: "
        f"{unslotted + found}"
    )


def _unread_parameters(path: Path) -> list:
    """Parameters of the functions in ``path`` that their body never reads,
    other than a method's ``self`` or ``cls`` and names with a leading
    underscore."""
    tree = ast.parse(path.read_text(), str(path))
    methods = {
        node
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
    }
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        if node in methods:
            params = params[1:]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{path.name}:{node.lineno} {node.name}({p.arg})"
            for p in params
            if p is not None and not p.arg.startswith("_") and p.arg not in read
        ]
    return unread


def test_every_parameter_is_read():
    # a parameter the body never reads is accepted and ignored, so a caller
    # passing the wrong value gets no word; name it with a leading underscore
    # where a fixed signature needs it
    unread = [
        u for path in sorted(SOURCE.glob("*.py")) for u in _unread_parameters(path)
    ]
    assert not unread, f"parameters their function never reads: {unread}"


def test_benchmark_surface_resolves():
    # the traced benchmark (perfbench/tracer.py) wraps these names by hand:
    # a module function, or a method in its class's own __dict__ (a method
    # only inherited, or a re-binding removed, would raise mid-run), and
    # every cached function reports its hit ratio through cache_info
    repo = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", repo / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = []
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"operadix.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                owner = getattr(module, cls_name, None)
                target = vars(owner).get(meth) if inspect.isclass(owner) else None
            else:
                target = getattr(module, name, None)
            if not callable(target) or inspect.isclass(target):
                unresolved.append(f"{layer}.{name}")
    for name in tracer.CACHED:
        layer, fn = name.split(".")
        module = importlib.import_module(f"operadix.{layer}")
        if not hasattr(getattr(module, fn, None), "cache_info"):
            unresolved.append(f"{name}.cache_info")
    assert not unresolved, f"benchmark names the library lacks: {unresolved}"
