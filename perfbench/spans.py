"""Spans and counters around the package's entry points, installed from
outside the package.

install() wraps every public module-level function of every isotropy
module (rebinding it wherever a module of the package bound it by name,
including dispatch tables such as the CLI's command map), the CLI's
command handlers, and the public methods and arithmetic operators of
ExactMatrix and ToeplitzForm.  Each call records a span (name, start, end,
parent) in flat arrays kept in memory; write() saves them when the run
ends.  Scalar multiplications and additions are counted, never spanned.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

MATRIX_OPS = ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__")
FORM_BUILDERS = ("symmetric_form", "transition_form", "interleave_form",
                 "backward_form", "jordan_form", "block_backward_form")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.structures: set = set()
        self.scalar_mul = [0]
        self.scalar_add = [0]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        ident = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict:
        """{"spans": {name: [calls, self_s]}, "counters": {...}}."""
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans: dict[str, list] = {}
        for i in range(count):
            entry = spans.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        counters = dict(self.counters)
        counters["scalars.mul.count"] = self.scalar_mul[0]
        counters["scalars.add.count"] = self.scalar_add[0]
        counters["forms.structures"] = len(self.structures)
        counters["forms.builds"] = sum(
            1 for i in range(count)
            if self.names[self.name[i]].startswith("forms.")
            and self.names[self.name[i]].split(".")[1] in FORM_BUILDERS
            and (self.parent[i] < 0
                 or not self.names[self.name[self.parent[i]]].startswith("forms.")))
        return {"spans": spans, "counters": counters}

    def write(self, path, **extra):
        """Save every span (a names table and four parallel arrays) and the
        summary, with any extra fields."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"summary": self.summary(), "names": self.names,
                       "name": self.name.tolist(),
                       "parent": self.parent.tolist(),
                       "start": self.start.tolist(),
                       "end": self.end.tolist(), **extra}, handle)


def _is_package_function(value, package):
    return (isinstance(value, types.FunctionType)
            and (value.__module__ or "").startswith(package))


def install(package_name="isotropy") -> Tracer:
    """Wrap the already imported package in place; returns the tracer."""
    tracer = Tracer()
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == package_name
                                       or name.startswith(package_name + "."))}

    def bump(key, amount_fn):
        return lambda args, result: tracer.count(key, amount_fn(args, result))

    hooks = {
        "orbit.tangent_oracle": bump(
            "orbit.oracle.entries",
            lambda a, r: (a[0].rows * (a[0].rows + 1) // 2)
            * (a[0].rows * (a[0].rows - 1) // 2)),
        "generators.factor_unipotent": bump(
            "generators.factors", lambda a, r: len(r[1])),
        "jsonio.dumps_canonical": bump(
            "jsonio.bytes_out", lambda a, r: len(r.encode("utf-8"))),
    }
    for builder in FORM_BUILDERS:
        hooks["forms." + builder] = (
            lambda a, r: tracer.structures.add(a[0]))

    wrapped: dict = {}
    for modname, mod in sorted(modules.items()):
        short = modname[len(package_name) + 1:] or package_name
        for attr, value in list(vars(mod).items()):
            if not _is_package_function(value, package_name):
                continue
            if value.__module__ != modname or value in wrapped:
                continue
            if attr.startswith("_") and not (short == "cli"
                                             and attr.startswith("_cmd_")):
                continue
            name = f"{short}.{attr}"
            wrapped[value] = tracer.wrap(value, name, hooks.get(name))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                setattr(mod, attr, wrapped[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, types.FunctionType) and item in wrapped:
                        value[key] = wrapped[item]

    matrices = modules[f"{package_name}.matrices"]
    toeplitz = modules[f"{package_name}.toeplitz"]
    scalars = modules[f"{package_name}.scalars"]

    def matmul_hook(args, result):
        self, other = args[0], args[1]
        if isinstance(other, matrices.ExactMatrix):
            tracer.count("matrices.mul.calls")
            tracer.count("matrices.mul.madds", self.rows * self.cols * other.cols)

    class_hooks = {
        "ExactMatrix.__mul__": matmul_hook,
        "ExactMatrix.rank": bump("matrices.rank.entries",
                                 lambda a, r: a[0].rows * a[0].cols),
    }
    for cls in (matrices.ExactMatrix, toeplitz.ToeplitzForm):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in MATRIX_OPS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(value.__func__, name)))
            elif isinstance(value, types.FunctionType):
                setattr(cls, attr, tracer.wrap(value, name, class_hooks.get(name)))

    scalar = scalars.ExactScalar
    for attr, cell in (("__mul__", tracer.scalar_mul), ("__rmul__", tracer.scalar_mul),
                       ("__add__", tracer.scalar_add), ("__radd__", tracer.scalar_add),
                       ("__sub__", tracer.scalar_add), ("__rsub__", tracer.scalar_add)):
        setattr(scalar, attr, _counting(getattr(scalar, attr), cell))
    return tracer


def _counting(fn, cell):
    def counted(self, other):
        cell[0] += 1
        return fn(self, other)
    return counted


# ---------------------------------------------------------------------------
# per-layer metrics from merged summaries
# ---------------------------------------------------------------------------


def merge(summaries) -> dict:
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for summ in summaries:
        for name, (calls, self_s) in summ["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, value in summ["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def layer_metrics(merged, elements, overhead, start_s, bytes_in) -> dict:
    spans, counters = merged["spans"], merged["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(*names):
        return sum(spans.get(n, [0, 0.0])[1] for n in names)

    def module_self(prefix):
        return sum(v[1] for k, v in spans.items() if k.startswith(prefix))

    def counter(key):
        return counters.get(key, 0)

    verify_calls = calls("stabilizer.verify_isotropy")
    builds = counter("forms.builds")
    structures = counter("forms.structures")
    cmd_self = sum(v[1] for k, v in spans.items() if k.startswith("cli._cmd_"))
    values = {
        "stabilizer.verify.calls": (verify_calls, "count"),
        "stabilizer.verify.self_s": (self_s("stabilizer.verify_isotropy"), "s"),
        "stabilizer.verify_per_element": (
            verify_calls / elements if elements else 0.0, "ratio"),
        "solver.solve.calls": (calls("solver.solve_congruence"), "count"),
        "solver.solve.self_s": (self_s("solver.solve_congruence"), "s"),
        "solver.verify.calls": (calls("solver.verify_congruence"), "count"),
        "solver.verify.self_s": (self_s("solver.verify_congruence"), "s"),
        "toeplitz.mul.calls": (calls("ToeplitzForm.__mul__"), "count"),
        "toeplitz.mul.self_s": (self_s("ToeplitzForm.__mul__"), "s"),
        "toeplitz.omega.self_s": (self_s("toeplitz.conjugate_by_omega"), "s"),
        "toeplitz.assemble.calls": (calls("ToeplitzForm.assemble"), "count"),
        "generators.build.calls": (
            calls("generators.gen_V") + calls("generators.gen_G"), "count"),
        "generators.factor.self_s": (self_s("generators.factor_unipotent"), "s"),
        "generators.factors": (counter("generators.factors"), "count"),
        "forms.builds": (builds, "count"),
        "forms.builds_per_structure": (
            builds / structures if structures else 0.0, "ratio"),
        "forms.self_s": (module_self("forms."), "s"),
        "matrices.mul.calls": (counter("matrices.mul.calls"), "count"),
        "matrices.mul.madds": (counter("matrices.mul.madds"), "count"),
        "matrices.mul.self_s": (self_s("ExactMatrix.__mul__"), "s"),
        "matrices.inverse.calls": (calls("ExactMatrix.inverse"), "count"),
        "matrices.inverse.self_s": (self_s("ExactMatrix.inverse"), "s"),
        "matrices.rank.calls": (calls("ExactMatrix.rank"), "count"),
        "matrices.rank.entries": (counter("matrices.rank.entries"), "count"),
        "matrices.rank.self_s": (self_s("ExactMatrix.rank"), "s"),
        "orbit.oracle.calls": (calls("orbit.tangent_oracle"), "count"),
        "orbit.oracle.entries": (counter("orbit.oracle.entries"), "count"),
        "orbit.oracle.self_s": (self_s("orbit.tangent_oracle"), "s"),
        "scalars.mul.count": (counter("scalars.mul.count"), "count"),
        "scalars.add.count": (counter("scalars.add.count"), "count"),
        "scalars.format.self_s": (self_s("scalars.format_scalar"), "s"),
        "scalars.parse.self_s": (self_s("scalars.parse_scalar"), "s"),
        "jsonio.self_s": (module_self("jsonio."), "s"),
        "jsonio.bytes_in": (bytes_in, "B"),
        "jsonio.bytes_out": (counter("jsonio.bytes_out"), "B"),
        "cli.start_s": (start_s, "s"),
        "cli.command.self_s": (cmd_self, "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
