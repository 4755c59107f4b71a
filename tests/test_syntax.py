"""The package parses as Python 3.10, the oldest version pyproject.toml allows."""

import ast
from pathlib import Path

import shiftlab

PACKAGE = Path(shiftlab.__file__).resolve().parent


def test_every_module_parses_as_python_3_10():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _reads(tree):
    """The names a module reads: every loaded name and every attribute name."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_no_dead_imports_or_private_names():
    # the repo runs no linter: an import nothing reads and a private helper
    # nothing calls are both what a refactor leaves behind
    trees = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = _module_name(path)
        trees[name] = (ast.parse(path.read_text(encoding="utf-8")), path.name == "__init__.py")
    reexported = set()  # (module, name) that another module imports by a relative import
    for name, (tree, is_package) in trees.items():
        here = name.split(".") if is_package else name.split(".")[:-1]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                source = here[:len(here) - node.level + 1] + (node.module or "").split(".")
                reexported |= {(".".join(filter(None, source)), a.name) for a in node.names}
    everywhere = set().union(*(_reads(tree) for tree, _ in trees.values()))
    dead = []
    for name, (tree, _) in trees.items():
        reads = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in reads and (name, bound) not in reexported:
                        dead.append(f"{name}: import {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{name}: {n}" for n in defined
                     if n.startswith("_") and not n.startswith("__") and n not in everywhere]
    assert not dead, dead
