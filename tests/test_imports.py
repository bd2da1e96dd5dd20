"""The package's runtime import graph has no cycle.

A module that needs another's name only for an annotation imports it under
``if TYPE_CHECKING:``; every other relative import is an edge that runs.
"""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nrv2xsim"


def _is_type_checking(node: ast.AST) -> bool:
    # the package spells the guard `if TYPE_CHECKING:`; any other spelling
    # counts as a runtime edge, so it can only make the test stricter
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def _runtime_imports(node: ast.AST) -> set[str]:
    """Package modules named by the relative imports in node that run,
    function bodies included."""
    if _is_type_checking(node):
        return set().union(*map(_runtime_imports, node.orelse))
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module:
            return {node.module.split(".")[0]}
        return {alias.name for alias in node.names}
    return set().union(*map(_runtime_imports, ast.iter_child_nodes(node)))


def _import_graph() -> dict[str, set[str]]:
    return {path.stem: _runtime_imports(ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_runtime_import_graph_is_acyclic():
    graph = _import_graph()
    # the walk sees the edges: the CLI runs the engine, and the names it
    # finds are modules of the package
    assert {"engine", "config"} <= graph["cli"]
    assert set().union(*graph.values()) <= set(graph)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"runtime import cycle: {' -> '.join(exc.args[1])}")
