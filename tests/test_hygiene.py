"""Leftovers that deletions tend to leave behind in src/chainring: an import
nothing uses and a module-level private function or class nothing calls."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chainring"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name read as a variable or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue  # its imports are the package's re-exports
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{name}: {b}" for b in bound if b not in used]
    assert unused == []


def test_every_private_function_and_class_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unreferenced = [
        f"{name}: {node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unreferenced == []
