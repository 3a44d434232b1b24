"""Static checks of the library source, read with ``ast``: every import is
used, every module-level private function is referenced somewhere in the
package, every public function and Fock-oracle method has a caller outside
the tests, every parameter default is overridden by some caller, only
``protocols._compile`` projects a setting, only ``VerificationConfig.plan``
builds a plan, only the verdict path draws random numbers, and the Fock
oracle keeps one memo and imports no phase-space code.  One check runs the package's imports in a fresh
interpreter: neither ``cvverify`` nor its CLI loads SciPy."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "cvverify"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
SHIPPED = [ast.parse(path.read_text()) for folder in (PACKAGE, ROOT / "perfbench")
           for path in sorted(folder.rglob("*.py"))]  # the library and its benchmark
CALLERS = SHIPPED + [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").rglob("*.py"))]


def _calls(trees) -> dict:
    """Each call in the trees, by the name or attribute it calls."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


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


def _reads(tree) -> Counter:
    """How often each name is read in the tree, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_caller_outside_the_tests():
    """A public function that only tests call belongs in the tests: every
    public module-level function of the package is named in the library
    outside its own body, in the benchmark, or in ``cvverify.__all__``.
    Every public method of the Fock oracle's classes (``leakage``, a
    property, among them, and a ``name = property(...)`` assignment) is read
    in the library or the benchmark as an attribute."""
    exported = _read_names(TREES["__init__.py"])
    shipped = sum(map(_reads, SHIPPED), Counter())
    uncalled = [f"{name[:-3]}.{node.name}" for name, tree in TREES.items() for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and node.name not in exported and shipped[node.name] == _reads(node)[node.name]]
    read = {node.attr for tree in SHIPPED for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for cls in (node for node in TREES["fock.py"].body if isinstance(node, ast.ClassDef)):
        methods = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
        methods += [target.id for node in cls.body if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "property"
                    for target in node.targets if isinstance(target, ast.Name)]
        uncalled += [f"fock.{cls.name}.{name}" for name in methods if not name.startswith("_") and name not in read]
    assert uncalled == []


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
    calls = _calls(CALLERS)
    never = [f"{module}: {func}({param})" for module, tree in TREES.items()
             for func, param, index in _defaulted_parameters(tree)
             if not any(_overridden(call, param, index) for call in calls.get(func, []))]
    assert never == []


def test_one_caller_projects_a_setting():
    """The map from a plan term to the projector rows it reads is built in
    one place, ``protocols._compile``: the sampler and the exact witness both
    read its groups, so no other library code projects a setting."""
    calls = _calls(TREES.values()).get("rotated_quadrature_projector", [])
    assert len(calls) == 1
    compile_ = next(node for node in TREES["protocols.py"].body
                    if isinstance(node, ast.FunctionDef) and node.name == "_compile")
    assert calls[0] in list(ast.walk(compile_))


def test_one_caller_builds_a_plan():
    """A config's plan is built in one place, ``VerificationConfig.plan``:
    its budget, its exact witness and every verdict read that kept plan, so
    no other library code calls ``witness_plan``."""
    calls = _calls(TREES.values()).get("witness_plan", [])
    config = next(node for node in TREES["protocols.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "VerificationConfig")
    plan = next(node for node in config.body if isinstance(node, ast.FunctionDef) and node.name == "plan")
    assert len(calls) == 1 and calls[0] in list(ast.walk(plan))


def test_the_fock_oracle_keeps_one_memo():
    """``fock.py`` keeps what it memoizes in one store under one lock, both
    module-level assignments read by ``fock._memo``: exactly one
    ``OrderedDict`` and one ``threading.Lock`` are made in the whole module,
    and no ``functools`` cache sits beside them."""
    tree = TREES["fock.py"]
    made = Counter(ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call))
    assigned = Counter(ast.unparse(node.value.func) for node in tree.body
                       if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call))
    assert made["OrderedDict"] == assigned["OrderedDict"] == 1
    assert made["threading.Lock"] == assigned["threading.Lock"] == 1
    caches = {"lru_cache", "cache", "functools.lru_cache", "functools.cache"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) in caches]


def test_only_the_verdict_path_calls_np_random():
    """Every report but a verdict is deterministic: no library module calls
    ``np.random`` except ``protocols.py``, whose verdicts draw their shots,
    and ``symplectic.py``, whose ``random_symplectic`` makes a default
    Generator."""
    calls = [f"{name}: {ast.unparse(node.func)}" for name, tree in TREES.items()
             if name not in ("protocols.py", "symplectic.py")
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.random.")]
    assert calls == []


def test_fock_oracle_imports_no_phase_space_code():
    """The Fock oracle checks the phase-space code, so it may import only the
    standard library, numpy and the target's ``SymplecticSpec``."""
    allowed = {"numpy"} | set(sys.stdlib_module_names)
    borrowed = []
    for node in ast.walk(TREES["fock.py"]):
        if isinstance(node, ast.Import):
            borrowed += [alias.name for alias in node.names if alias.name.split(".")[0] not in allowed]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                borrowed += [f"{'.' * node.level}{node.module}.{alias.name}" for alias in node.names
                             if (node.level, node.module, alias.name) != (1, "symplectic", "SymplecticSpec")]
            elif node.module.split(".")[0] not in allowed:
                borrowed.append(node.module)
    assert borrowed == []


@pytest.mark.parametrize("module", ["cvverify", "cvverify.cli"])
def test_import_loads_no_scipy(module):
    """SciPy is a test dependency only: importing the package or its CLI,
    as every command does, loads no ``scipy`` module."""
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
