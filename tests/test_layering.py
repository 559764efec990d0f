"""The package's import layering, read from each module's source with ``ast``:
the operator registry sits below everything but the errors, and no two
modules import each other, directly or through others."""

import ast
from pathlib import Path

import nicheflow

PACKAGE = Path(nicheflow.__file__).resolve().parent


def _package_imports() -> dict[str, set[str]]:
    """Each module's name mapped to the package modules it imports, read
    from every relative import in its source, at any depth."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module:  # from .errors import X
                    imported.add(node.module.split(".")[0])
                else:  # from . import canonical
                    imported.update(alias.name for alias in node.names)
        graph[path.stem] = imported
    return graph


def test_operators_imports_only_errors_from_the_package():
    assert _package_imports()["operators"] == {"errors"}


def test_the_package_import_graph_has_no_cycle():
    graph = _package_imports()
    assert set().union(*graph.values()) <= set(graph)
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        path.append(module)
        for dependency in sorted(graph[module]):
            visit(dependency)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
