"""Lint of the package, read off the syntax tree of each src/isotropy/*.py:
every name a module imports is used there (names listed in __all__ count
as used; the test modules are held to this too), every private
module-level name is read somewhere in the package, every __all__ entry is
bound in its module, and every public method is reached from the package
or the benchmark.

Two routes bind a name without a module-level import, and each counts only
where the syntax tree of the module it names binds the name: the
package's __getattr__ imports every public name on first access, and a
module reads names as attributes off a package module it binds whole
(`from . import module`, or lazily on the command line as
`name = _lazy("module")`).  A name read that way counts as read, like a
bare name.

Every functools cache in the package is read through .cache_info() by
some test, so that none is kept without traffic a test has seen.  Two
rules have one owner each: immutability (errors._Immutable) and the
congruence on strips (toeplitz._congruent)."""

import ast
import sys
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


def _package_modules(tree):
    """{bound name: package module} for every module a tree binds whole:
    `from . import module` and `name = _lazy("module")`."""
    bound = {name: module for name, (module, _) in _lazy_modules(tree).items()}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module is None:
            bound.update((alias.asname or alias.name, alias.name)
                         for alias in node.names)
    return bound


def _read_off_modules(tree):
    """[(node, package module)] for every attribute read off a package
    module the tree binds whole."""
    modules = _package_modules(tree)
    return [(node, modules[node.value.id]) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules]


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
    read |= {node.attr for tree in trees.values()
             for node, _ in _read_off_modules(tree)
             if isinstance(node.ctx, ast.Load)}
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
    # a module bound whole is read only at the call, and on the command
    # line it runs only when a command first reads from it, so a name it
    # lacks would fail that command alone, at run time
    missing = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        missing += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                    for node, module in _read_off_modules(tree)
                    if node.attr not in _bound(_module_tree(module))]
    assert not missing, "names the module they are read off lacks: " + \
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


def _cached(tree):
    """The module-level functions of a syntax tree that a functools cache
    wraps: lru_cache or cache, called or bare, plain or qualified."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "id", getattr(dec, "attr", None)) in (
                        "lru_cache", "cache"):
                    names.add(node.name)
    return names


def test_every_cache_is_read_by_a_test():
    # f.cache_info() or module.f.cache_info() in some test module; a
    # qualified read counts for that module alone
    read = set()
    for path in sorted(_TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "cache_info":
                inner = node.value
                if isinstance(inner, ast.Name):
                    read.add((None, inner.id))
                elif isinstance(inner, ast.Attribute):
                    owner = inner.value
                    read.add((owner.id if isinstance(owner, ast.Name)
                              else None, inner.attr))
    unread = sorted(f"{path.stem}.{name}"
                    for path in sorted(_PACKAGE.glob("*.py"))
                    for name in _cached(ast.parse(path.read_text()))
                    if not {(None, name), (path.stem, name)} & read)
    assert not unread, "caches no test reads: " + ", ".join(unread)


def test_the_codim_path_stays_off_the_solver():
    # orbit reads its closed forms beside the structure, so a start-up that
    # loads only what codim uses need not load the solver
    tree = ast.parse((_PACKAGE / "orbit.py").read_text())
    imported = {module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for module in ([node.module] if node.module
                               else [alias.name for alias in node.names])}
    assert imported == {"errors", "forms", "matrices"}


def _is_object_setattr(node):
    return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_values_are_immutable_by_the_one_base():
    """errors._Immutable is the one class of the package that defines
    __setattr__ or __delattr__, and every class whose body writes fields
    through object.__setattr__ derives from it, so that no value class
    hand-rolls immutability or does half of it."""
    own, unbased = [], []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            where = f"{path.name}:{cls.lineno} {cls.name}"
            if (path.name, cls.name) != ("errors.py", "_Immutable"):
                own += [f"{where}.{node.name}" for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                        and node.name in ("__setattr__", "__delattr__")]
            bases = {getattr(base, "id", getattr(base, "attr", None))
                     for base in cls.bases}
            if "_Immutable" not in bases and any(
                    map(_is_object_setattr, ast.walk(cls))):
                unbased.append(where)
    assert not own, "classes that define their own set or del: " + \
        ", ".join(own)
    assert not unbased, "classes that write through object.__setattr__ " \
        "but do not derive from errors._Immutable: " + ", ".join(unbased)


def test_the_congruence_has_one_owner():
    """toeplitz.py owns the congruence F X^T F Y = C on strips: no other
    package module names the flip's raw gather (_flipped) or its index map
    (_maps), none defines a function of the rule's name (_congruent), and
    only its two callers, the dense check and verify_congruence, name the
    rule."""
    flips, rules, callers = [], [], set()
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "toeplitz.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):  # toeplitz._congruent
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name == "_congruent":
                    rules.append(f"{path.name}:{node.lineno}")
            else:
                continue
            if name in ("_flipped", "_maps"):
                flips.append(f"{path.name}:{node.lineno} {name}")
            elif name == "_congruent":
                callers.add(path.name)
    assert not flips, "the flip read outside toeplitz.py: " + ", ".join(flips)
    assert not rules, "the congruence rule defined again: " + ", ".join(rules)
    assert callers == {"solver.py", "stabilizer.py"}


@pytest.mark.parametrize("path", [_TESTS / "_oracles.py",
                                  _ROOT / "perfbench" / "oracle.py"],
                         ids=lambda path: path.name)
def test_the_oracles_import_only_the_standard_library(path):
    """The two oracles, the tests' and the benchmark's, are a second code
    path: each import statement in them names a standard-library module,
    so neither reaches isotropy, directly or through another module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            named.append((node.lineno, "." * node.level + (node.module or "")))
    assert named
    foreign = [f"{path.name}:{line} {name}" for line, name in named
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, "imports outside the standard library: " + \
        ", ".join(foreign)
