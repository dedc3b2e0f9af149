"""Leftovers that deletions tend to leave behind in src/chainring: an import
nothing uses, a module-level private function or class nothing calls, and a
public function that nothing in the package calls or exports."""

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


# public functions that only tests and the README reach today; a new public
# function is used in src/chainring, exported by the package, or added here
# on purpose, and one that gains a caller or is deleted leaves the list
UNREFERENCED_PUBLIC = {
    "ladder_properties_hold",
    "rank_distance",
    "sm_linearization_matrix",
    "brute_ideal_slice",
    "brute_annihilators",
    "brute_vanishing_poly",
    "brute_free_envelopes",
    "strong_reduce_with_witness",
}


def test_every_public_function_is_referenced_or_exported():
    referenced = set()
    for name, tree in MODULES.items():
        if name != "__init__.py":
            referenced |= _used_names(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    referenced |= {alias.name for alias in node.names}
    exported = {
        alias.asname or alias.name
        for node in ast.walk(MODULES["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unreferenced = {
        node.name
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in referenced | exported
    }
    assert unreferenced == UNREFERENCED_PUBLIC
