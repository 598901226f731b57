"""Lint of the package, read off the syntax tree of each src/isotropy/*.py:
every name a module imports is used there (names listed in __all__ count
as used; the test modules are held to this too), every private
module-level name is read somewhere in the package, every __all__ entry is
bound in its module, and every public method is reached from the package
or the benchmark.

Two routes bind a name without a module-level import, and each counts only
where the syntax tree of the module it names binds the name: the
package's __getattr__ imports every public name on first access, and the
command line binds some modules lazily (`name = _lazy("module")`) and
reads names off them as attributes."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "isotropy"
_TESTS = _ROOT / "tests"


def _imported(tree):
    """{bound name: line} for every import outside `from __future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _lazy_modules(tree):
    """{bound name: (package module, line)} for every module-level
    `name = _lazy("module")`."""
    return {node.targets[0].id: (node.value.args[0].value, node.lineno)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "_lazy"}


def _used(tree):
    """Names read anywhere, and the names listed in __all__.  A name that
    appears only inside a quoted annotation, or is only assigned, does not
    count."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize(
    "path", sorted(_PACKAGE.glob("*.py")) + sorted(_TESTS.glob("*.py")),
    ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    imported = _imported(tree) | {
        name: line for name, (_, line) in _lazy_modules(tree).items()}
    unused = sorted(f"{path.name}:{line} {name}"
                    for name, line in imported.items()
                    if name not in used)
    assert not unused, "unused imports: " + ", ".join(unused)


def _defined(tree):
    """{name: line} for every name a module-level def, class or assignment
    binds."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for leaf in (n for t in targets for n in ast.walk(t)):
                if isinstance(leaf, ast.Name):
                    names[leaf.id] = node.lineno
    return names


def test_every_private_name_is_read():
    # a private module-level name that nothing in the package reads is dead
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(_PACKAGE.glob("*.py"))}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    dead = sorted(f"{name}:{line} {binding}"
                  for name, tree in trees.items()
                  for binding, line in _defined(tree).items()
                  if binding.startswith("_") and not binding.startswith("__")
                  and binding not in read)
    assert not dead, "private names never read: " + ", ".join(dead)


def _bound(tree):
    """Every name a module binds at module level: its defs, classes,
    assignments and imports."""
    return set(_defined(tree)) | {
        alias.asname or alias.name.split(".")[0] for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names}


def _module_tree(name):
    path = _PACKAGE / f"{name}.py"
    assert path.is_file(), f"no package module {name!r}"
    return ast.parse(path.read_text(), filename=str(path))


def _bound_on_access(tree):
    """The names a module-level __getattr__ imports from package modules,
    each kept only if the syntax tree of its module binds it."""
    return {alias.asname or alias.name
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__getattr__"
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if alias.name in _bound(_module_tree(node.module))}


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _bound(tree) | _bound_on_access(tree)
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                for name in ast.literal_eval(node.value)}
    stale = sorted(exported - bound)
    assert not stale, f"{path.name}: __all__ names unbound: {stale}"


def test_every_name_read_off_a_lazy_module_is_bound_there():
    # a lazy module runs only when a command first reads from it, so a
    # name it lacks would fail that command alone, at run time
    missing = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lazy = {name: _bound(_module_tree(module))
                for name, (module, _) in _lazy_modules(tree).items()}
        missing += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in lazy
                    and node.attr not in lazy[node.value.id]]
    assert not missing, "names their lazy module does not bind: " + \
        ", ".join(missing)


def test_every_public_method_is_reached():
    """Every public method (or property) defined on a class in the package
    is read as an attribute somewhere in src/isotropy or perfbench/: one
    that only the tests reach is dead.

    The check goes by name alone, so a method is taken as reached when an
    attribute of the same name is read (not set) on any object.  It misses
    a dead method that shares its name with a live one: ToeplitzForm.build
    went unflagged while ExactMatrix.build is called."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(_PACKAGE.glob("*.py"))
             + sorted((_ROOT / "perfbench").glob("*.py"))}
    named = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    dead = sorted(f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                  for path, tree in trees.items()
                  if path.parent == _PACKAGE
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")
                  and node.name not in named)
    assert not dead, "public methods no package code reaches: " + \
        ", ".join(dead)


def test_the_codim_path_stays_off_the_solver():
    # orbit reads its closed forms beside the structure, so a start-up that
    # loads only what codim uses need not load the solver
    tree = ast.parse((_PACKAGE / "orbit.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported == {"errors", "forms", "matrices"}
