"""Code that only the tests use lives in tests/, not in the runtime package.

Every top-level function, class and constant of a `ratelim` module (other than
`__init__`) must be read by runtime code other than its own definition: in its
own module, or in another module that imports it with `from .module import`.
A re-export in `__init__` is not a use.  The one exception is a name that
`perfbench/tracing.py` binds in its TRACED table, which the benchmark needs
until its tracer counts the code that runs.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ratelim"


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{module}.{name}" for module, name, _ in tracing.TRACED}


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _loads(tree: ast.Module, outside: ast.AST | None = None) -> set[str]:
    """Names that tree reads, apart from those read inside the node outside."""
    inner = {id(node) for node in ast.walk(outside)} if outside else set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load) and id(node) not in inner}


def _imported_as(tree: ast.Module, module: str, name: str) -> list[str]:
    """The local names under which tree imports name from the sibling module."""
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names if alias.name == name]


def test_every_runtime_definition_has_a_runtime_reader():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
               if path.stem != "__init__"}
    traced = _traced()
    unread = []
    for module, tree in modules.items():
        for name, node in _definitions(tree):
            read = name in _loads(tree, node) or any(
                local in _loads(other) for other_name, other in modules.items()
                if other_name != module for local in _imported_as(other, module, name))
            if not (read or f"{module}.{name}" in traced):
                unread.append(f"{module}.{name}")
    assert unread == []
