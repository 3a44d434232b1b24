"""Static checks of the library source, read with ``ast``: every import is
used, every module-level private function is referenced somewhere in the
package, and every parameter default is overridden by some caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "cvverify"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
CALLERS = [ast.parse(path.read_text()) for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
           for path in sorted(folder.rglob("*.py"))]


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


def _defaulted_parameters(tree):
    """(function name, parameter, positional index or None) for each parameter
    default of a module-level function or method; a method's index skips its
    first parameter, which the call supplies through the attribute."""
    functions = [(node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [(node, True) for node in cls.body if isinstance(node, ast.FunctionDef)]
    for func, method in functions:
        positional = func.args.posonlyargs + func.args.args
        skip = int(method and "staticmethod" not in {getattr(d, "id", None) for d in func.decorator_list})
        for index in range(len(positional) - len(func.args.defaults), len(positional)):
            yield func.name, positional[index].arg, index - skip
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield func.name, arg.arg, None


def _overridden(call: ast.Call, param: str, index) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: a **mapping
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_parameter_default_is_overridden_by_a_caller():
    calls = {}
    for tree in CALLERS:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    never = [f"{module}: {func}({param})" for module, tree in TREES.items()
             for func, param, index in _defaulted_parameters(tree)
             if not any(_overridden(call, param, index) for call in calls.get(func, []))]
    assert never == []
