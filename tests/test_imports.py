"""The package's import graph: imports at module top, no cycles."""

import ast
from pathlib import Path

import gcnmt

PACKAGE = Path(gcnmt.__file__).parent


def _modules():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _relative_imports(tree):
    """Names of sibling modules that ``tree`` imports relatively."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(a.name for a in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_no_import_inside_a_function():
    local = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.extend(f"{name}.{fn.name}:{node.lineno}"
                             for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert local == []


def test_relative_imports_form_no_cycle():
    graph = {name: _relative_imports(tree) - {name}
             for name, tree in _modules().items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: "
                                 + " -> ".join(path[path.index(name):] + [name]))
        if name in done or name not in graph:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
