"""Static checks of the library source, read with ``ast``: every import is
used, and every module-level private function is referenced somewhere in the
package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "cvverify"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree) -> set:
    """Names the module reads, and the strings it lists in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in TREES.items():
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_no_unreferenced_private_functions():
    referenced = set()
    for tree in TREES.values():
        referenced |= _read_names(tree)
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    dead = [f"{name}: {node.name}" for name, tree in TREES.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and node.name not in referenced]
    assert dead == []
