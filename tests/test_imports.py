"""The package's import graph: imports at module top, no cycles; and one
home per tape op: ``gcnmt.tensor`` or the tests' ``tape_ops``."""

import ast
from pathlib import Path

import gcnmt
from gcnmt import tensor
import tape_ops

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


def _defined_names(tree):
    """Module-level functions, classes and constants, plus non-dunder methods."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(m.name for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _loaded_names(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_every_defined_name_is_used():
    root = Path(__file__).resolve().parent.parent
    loaded = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            loaded |= _loaded_names(ast.parse(path.read_text(), filename=str(path)))
    unused = sorted(f"{module}.{name}" for module, tree in _modules().items()
                    for name in _defined_names(tree) - loaded)
    assert unused == []


def test_exports_match_definitions():
    modules = _modules()
    tree = modules["tensor"]
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert sorted(tensor.__all__) == sorted(public)
    assert [name for name in gcnmt.__all__ if not hasattr(gcnmt, name)] == []
    # the tape holds only what the package records: each public name is used
    # in src/gcnmt outside its own definition
    used = set()
    for module, mod_tree in modules.items():
        for node in mod_tree.body:
            own = getattr(node, "name", None) if module == "tensor" else None
            used |= _loaded_names(node) - {own}
    assert sorted(public - used) == []


_ARITHMETIC = {f"__{op}__" for base in ("add", "sub", "mul", "matmul", "truediv",
                                        "floordiv", "mod", "pow")
               for op in (base, "r" + base, "i" + base)} | {"__neg__", "__pos__", "__abs__"}


def test_each_op_has_one_home_and_tensor_has_no_operators():
    test_only = {name for name, v in vars(tape_ops).items()
                 if not name.startswith("_") and getattr(v, "__module__", None) == "tape_ops"}
    assert {"add", "matmul", "relu", "concat", "slice_rows", "transpose"} <= test_only
    assert sorted(test_only & set(tensor.__all__)) == []
    assert sorted(_ARITHMETIC & set(vars(tensor.Tensor))) == []
