"""One pass of one workload, in a fresh interpreter.

    python perfbench/worker.py --workload group --seed 7 --rounds 1 \
        --trace 0 --out DIR [--setup-only]

Imports the package from src/, generates every input of every round from
the seed, runs the operations one at a time, checks each output against
the independent computations in oracle.py (with the clock stopped), and
prints one JSON object on stdout.  A yardstick burst (yardstick.py) is
timed before every operation and once at the end.  Set-up time runs from
the moment the parent spawned this process (PERFBENCH_SPAWN, a
time.monotonic value) to the first timed operation.  With --trace 1 the
package is wrapped by spans.py after the inputs exist, and the span
summary is included.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import oracle as O  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402

EIGS = [("0", O.sc(0)), ("1", O.sc(1)), ("i", O.sc(0, 1))]

def _spread(first, second):
    """Merge two lists so that each is spread evenly over the result."""
    out, i, j = [], 0, 0
    while i < len(first) or j < len(second):
        if j == len(second) or (i < len(first)
                                and i * len(second) <= j * len(first)):
            out.append(first[i])
            i += 1
        else:
            out.append(second[j])
            j += 1
    return out


# Ladders: (blocks per part, ...).  A part is a tuple of (alpha, m) with
# alpha decreasing.  Eigenvalues are not part of the ladder: in round r
# the structure at ladder position p uses EIGS[(p + r + part index) % 3],
# so no structure repeats within a process (rounds are capped at 3).  The
# seed does not choose them: the eigenvalue decides which entries of the
# canonical forms are 0, real or imaginary, and so the work.  Small
# (n <= 8) and large (n >= 14) structures are spread evenly along each
# ladder, so each size class spans the whole timed phase and its figure
# does not hang on a few seconds of machine speed.
GROUP_LADDER = _spread(
    [  # n >= 14 (mostly 16, so that samples of like cost meet at the
       # median), and the mid sizes 10 to 12
        (((7, 1), (5, 1), (3, 1), (1, 1)),),
        (((5, 1), (3, 1), (2, 1)),),
        (((5, 2), (3, 1), (1, 3)),),
        (((6, 1), (4, 1), (3, 1), (2, 1), (1, 1)),),
        (((4, 2), (2, 1), (1, 1)),),
        (((4, 2), (3, 2), (1, 2)),),
        (((5, 1), (3, 1)), ((4, 1), (2, 1), (1, 2))),
        (((6, 1), (4, 1), (2, 1)),),
        (((9, 1), (6, 1), (3, 1), (2, 1)),),
    ],
    [  # n <= 8, mostly 8
        (((3, 1), (2, 2), (1, 1)),),
        (((2, 3), (1, 2)),),
        (((4, 1), (2, 1), (1, 2)),),
        (((3, 1), (1, 1)), ((2, 1), (1, 2))),
        (((3, 2), (1, 2)),),
        (((3, 1), (2, 1), (1, 1)),),
        (((5, 1), (2, 1), (1, 1)),),
        (((4, 1), (3, 1), (1, 1)),),
        (((3, 1), (2, 1), (1, 3)),),
        (((2, 2), (1, 4)),),
        (((3, 1), (2, 1), (1, 2)),),
        (((2, 2), (1, 2)),),
    ])


def _partitions(n, cap=None):
    """Every partition of n as ((alpha, m), ...) with alpha decreasing."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for alpha in range(min(n, cap), 0, -1):
        for m in range(n // alpha, 0, -1):
            for rest in _partitions(n - alpha * m, alpha - 1):
                yield ((alpha, m),) + rest


CODIM_LADDER = _spread(
    [  # n >= 14, each costing 0.5 s to 1.3 s on the reference machine
        (((4, 1), (2, 4), (1, 2)),),
        (((4, 2), (1, 6)),),
        (((2, 3), (1, 2)), ((2, 2), (1, 2))),
        (((5, 1), (2, 3), (1, 3)),),
        (((4, 1), (3, 2), (1, 4)),),
        (((4, 1), (3, 1), (2, 1), (1, 5)),),
        (((3, 2), (2, 3), (1, 3)),),
        (((5, 1), (2, 2), (1, 5)),),
        (((3, 2), (1, 2)), ((2, 2), (1, 2))),
        (((4, 1), (2, 2), (1, 6)),),
        (((3, 4), (2, 1)),),
        (((2, 6), (1, 4)),),
        (((4, 1), (3, 1), (2, 2), (1, 3)),),
        (((5, 1), (3, 2), (1, 3)),),
        (((3, 1), (2, 2), (1, 1)), ((2, 1), (1, 4))),
        (((2, 7), (1, 2)),),
        (((3, 3), (2, 2), (1, 1)),),
        (((3, 4), (1, 3)),),
        (((3, 3), (2, 2), (1, 3)),),
        (((3, 2), (2, 2), (1, 6)),),
        (((3, 1), (2, 4), (1, 3)),),
        (((2, 7), (1, 4)),),
    ],
    # every partition of 8 and of 6, two of 7, and mid sizes 10 to 12,
    # with multi-eigenvalue structures of 7 and 12
    [(p,) for p in _partitions(8)] + [
        (((3, 1), (1, 1)), ((2, 1), (1, 1))),
        (((5, 1), (3, 1), (2, 1)),),
        (((2, 2), (1, 1)), ((2, 1),)),
        (((4, 2), (2, 1)),),
        (((3, 2), (2, 2), (1, 2)),),
        (((4, 1), (3, 1)), ((3, 1), (2, 1))),
        (((5, 1), (2, 1)),),
    ] + [(p,) for p in _partitions(6)])

CLI_ALL = ("dim", "describe", "canonical", "sample", "sample-again", "verify",
           "verify-bad", "sample-unipotent", "factor", "commutant", "codim")
CLI_MULTI = ("dim", "describe", "canonical", "sample", "verify", "verify-bad",
             "codim")
CLI_NO_CODIM = tuple(c for c in CLI_ALL if c != "codim")
CLI_LADDER = [
    ((((2, 1), (1, 3)),), CLI_ALL),
    ((((6, 1), (4, 1), (2, 2)),), CLI_NO_CODIM),
    ((((3, 1), (2, 1), (1, 1)),), CLI_ALL),
    ((((3, 2), (2, 2), (1, 6)),), CLI_ALL),
    ((((3, 1), (1, 1)), ((2, 1), (1, 1))), CLI_MULTI),
    ((((5, 1), (3, 1), (2, 1)),), CLI_ALL),
    ((((2, 5), (1, 4)),), CLI_ALL),
    ((((3, 2), (2, 1)),), CLI_ALL),
    ((((4, 1), (3, 1)), ((3, 1), (2, 1), (1, 2))), CLI_MULTI),
    ((((4, 2), (2, 1), (1, 1)),), CLI_ALL),
]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


class Inputs:
    """Exact random draws from the benchmark's own seeded stream."""

    def __init__(self, key: str):
        self.rng = random.Random(key)

    def rational(self):
        """Never zero: a zero entry would let the program skip work, and
        how much it skips would then depend on the seed."""
        return Fraction(self.rng.choice((-2, -1, 1, 2)), self.rng.randint(1, 2))

    def gauss(self):
        return O.sc(self.rational(), self.rational())

    def matrix(self, rows, cols):
        return [[self.gauss() for _ in range(cols)] for _ in range(rows)]

    def skew(self, n):
        out = O.zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                x = self.gauss()
                out[i][j], out[j][i] = x, O.sneg(x)
        return out

    def orthogonal(self, n):
        """diag(signs) (I - Z)(I + Z)^{-1} for a skew draw Z, checked."""
        ident = O.eye(n)
        while True:
            z = self.skew(n)
            try:
                inv = O.inverse_gauss(O.mat_add(ident, z))
            except ZeroDivisionError:
                continue
            q = O.mat_mul(O.mat_add(ident, O.mat_neg(z)), inv)
            signs = [self.rng.choice((1, -1)) for _ in range(n)]
            q = [[x if signs[i] == 1 else O.sneg(x) for x in row]
                 for i, row in enumerate(q)]
            if O.is_identity(O.mat_mul(O.transpose(q), q)):
                return q

    def free_params(self, blocks, unipotent=False):
        """(sub, seeds, skews) of the sweep's free parameters."""
        mults = [m for _, m in blocks]
        sub, skews = {}, {}
        seeds = [O.eye(m) if unipotent else self.orthogonal(m) for m in mults]
        for r, (alpha, m) in enumerate(blocks):
            for j in range(1, alpha):
                skews[(r, j)] = self.skew(m)
            for s in range(r):
                for j in range(alpha):
                    sub[(r, s, j)] = self.matrix(m, mults[s])
        return sub, seeds, skews

    def coupling(self, blocks, p, t, k):
        return p, t, k, self.matrix(blocks[t][1], blocks[p][1])


def parts_for(ladder_entry, position, rnd):
    return [(EIGS[(position + rnd + i) % 3], blocks)
            for i, blocks in enumerate(ladder_entry)]


def oracle_parts(parts):
    return [(lam[1], blocks) for lam, blocks in parts]


def size(parts):
    return sum(a * m for _, blocks in parts for a, m in blocks)


def structure_wire(parts):
    wires = [{"lambda": lam[0],
              "blocks": [{"alpha": a, "m": m} for a, m in blocks]}
             for lam, blocks in parts]
    return wires[0] if len(wires) == 1 else {"parts": wires}


def params_wire(params):
    sub, seeds, skews = params
    return {
        "sub": {f"{r + 1},{s + 1},{j}": O.to_wire(m)
                for (r, s, j), m in sorted(sub.items())},
        "seeds": {str(r + 1): O.to_wire(m) for r, m in enumerate(seeds)},
        "skews": {f"{r + 1},{j}": O.to_wire(m)
                  for (r, j), m in sorted(skews.items())},
    }


# ---------------------------------------------------------------------------
# bridges to the package's types (read without calling package methods, so
# that checks add no spans to a traced run)
# ---------------------------------------------------------------------------


class Lib:
    def __init__(self, iso):
        self.iso = iso

    def scalar(self, x):
        return self.iso.ExactScalar(*x)

    def matrix(self, a):
        return self.iso.ExactMatrix.from_rows(
            [[self.scalar(x) for x in row] for row in a])

    def structure(self, parts):
        iso = self.iso
        segs = [iso.SegreStructure(self.scalar(lam[1]), blocks)
                for lam, blocks in parts]
        return segs[0] if len(segs) == 1 else iso.MultiSegreStructure(segs)

    def params(self, params):
        sub, seeds, skews = params
        return self.iso.FreeParams(
            {k: self.matrix(v) for k, v in sub.items()},
            [self.matrix(s) for s in seeds],
            {k: self.matrix(v) for k, v in skews.items()})


def dense(mat):
    return [[(Fraction(x.a), Fraction(x.b), Fraction(x.c), Fraction(x.d))
             for x in (mat[i, j] for j in range(mat.cols))]
            for i in range(mat.rows)]


def form_coeffs(form):
    return {key: [dense(m) for m in entry] for key, entry in form.coeffs.items()}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self):
        # (n, seconds, label, k): bursts[k] ran just before the operation
        # and bursts[k + 1] just after it
        self.records: list[tuple[int, float, str, int]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.elements = 0
        self.bytes_in = 0
        self.start_times: list[float] = []
        self.summaries: list[dict] = []
        self.bursts: list[float] = []

    def op(self, label, n, fn, *args, elements=0):
        """Time one operation; None when it raised."""
        self.attempted += 1
        self.bursts.append(yardstick.burst())
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation failing is counted, not fatal
            self.failures.append(f"n={n} {label}: {type(exc).__name__}: {exc}")
            return None
        self.records.append((n, time.perf_counter() - t0, label,
                             len(self.bursts) - 1))
        self.elements += elements
        return result

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


def prepare_group(lib, seed, rounds):
    sessions = []
    for rnd in range(rounds):
        for idx, entry in enumerate(GROUP_LADDER):
            draw = Inputs(f"group:{seed}:{rnd}:{idx}")
            parts = parts_for(entry, idx % 3, rnd)
            blocks = parts[0][1]
            single = len(parts) == 1
            params = [[draw.free_params(b) for _, b in parts] for _ in range(2)]
            spec = {}
            if single:
                spec["skews"] = {(r, j): draw.skew(m)
                                 for r, (alpha, m) in enumerate(blocks)
                                 for j in range(1, alpha)}
                # The group pair and offset of each coupling are fixed per
                # structure (they set most of its cost); the seed draws F.
                last = len(blocks) - 1
                spec["g1"] = draw.coupling(blocks, 0, 1, 0)
                spec["g2"] = draw.coupling(blocks, min(1, last - 1), last,
                                           min(1, blocks[last][0] - 1))
            lib_params = [[lib.params(p) for p in ps] for ps in params]
            sessions.append({
                "parts": parts, "st": lib.structure(parts), "n": size(parts),
                "params": lib_params, "spec": spec,
                "lib_skews": {k: lib.matrix(v)
                              for k, v in spec.get("skews", {}).items()},
                "lib_g": [(p, t, k, lib.matrix(f)) for p, t, k, f in
                          (spec["g1"], spec["g2"])] if single else [],
            })
    return sessions


def run_group(iso, run, sessions):
    for sess in sessions:
        st, n, parts = sess["st"], sess["n"], sess["parts"]
        oparts = oracle_parts(parts)
        s_dense = O.symmetric_form(oparts)
        single = len(parts) == 1

        desc = run.op("describe", n, iso.describe_isotropy, st)
        if desc is not None:
            run.check(desc.dimension == O.expected_dim(oparts), f"describe dim n={n}")
            run.check(list(desc.reductive_part)
                      == [m for _, b in parts for _, m in b], f"reductive n={n}")

        qs = []
        for params in sess["params"]:
            arg = params[0] if single else params
            q = run.op("sample", n, lambda a=arg: iso.sample_isotropy_element(st, params=a),
                       elements=1)
            if q is not None:
                qd = dense(q)
                run.check(O.first_dense_failure(oparts, qd, s_dense) is None,
                          f"sample member n={n}")
                qs.append((q, qd))
        if len(qs) == 2:
            prod = run.op("mul_dense", n, iso.group_element_mul, st, [qs[0][0], qs[1][0]],
                          elements=1)
            if prod is not None:
                run.check(dense(prod) == O.mat_mul(qs[0][1], qs[1][1]),
                          f"dense product n={n}")
            inv = run.op("inv_dense", n, iso.group_element_inv, st, qs[0][0], elements=1)
            if inv is not None:
                run.check(dense(inv) == O.transpose(qs[0][1]), f"dense inverse n={n}")
        if not single:
            continue

        blocks = parts[0][1]
        out = run.op("unipotent", n, unipotent_chain, iso, st, sess["lib_skews"],
                     sess["lib_g"], elements=6)
        if out is None:
            continue
        w, gens, u, uinv, (core, specs) = out
        w_want = O.diagonal_generator(blocks, sess["spec"]["skews"])
        run.check(form_coeffs(w) == w_want, f"gen_W coefficients n={n}")
        run.check(O.flip_member(blocks, O.assemble(blocks, w_want)), f"gen_W member n={n}")
        u_want = O.assemble(blocks, w_want)
        for g, ospec in zip(gens, (sess["spec"]["g1"], sess["spec"]["g2"])):
            g_want = O.coupling_generator(blocks, *ospec)
            run.check(form_coeffs(g) == g_want, f"gen_G coefficients n={n}")
            g_dense = O.assemble(blocks, g_want)
            run.check(O.flip_member(blocks, g_dense), f"gen_G member n={n}")
            u_want = O.mat_mul(u_want, g_dense)
        u_dense = O.assemble(blocks, form_coeffs(u))
        run.check(u_dense == u_want, f"form product n={n}")
        run.check(O.is_identity(O.mat_mul(u_dense, O.assemble(blocks, form_coeffs(uinv)))),
                  f"form inverse n={n}")
        check_factors(run, blocks, u_dense, form_coeffs(core),
                      [(s.p, s.t, s.k, dense(s.coupling)) for s in specs], n)


def unipotent_chain(iso, st, skews, couplings):
    """One request at the coefficient level: a diagonal generator and two
    coupling generators, their product, its inverse, and the factorization
    of the product back into coupling generators."""
    w = iso.gen_W(st, skews)
    gens = [iso.gen_G(st, p, t, k, f) for p, t, k, f in couplings]
    u = iso.group_element_mul(st, [w] + gens)
    return (w, gens, u, iso.group_element_inv(st, u),
            iso.factor_unipotent(st, u))


def check_factors(run, blocks, target, core, factors, n):
    """core block diagonal with identity leading blocks, and
    core * G(f_1) * ... * G(f_k) == target."""
    run.check(all(all(O.is_zero(x) for m in entry for row in m for x in row)
                  for (r, s), entry in core.items() if r != s),
              f"factor core block diagonal n={n}")
    run.check(all(O.is_identity(core[(r, r)][0]) for r in range(len(blocks))),
              f"factor core identity diagonal n={n}")
    acc = O.assemble(blocks, core)
    for p, t, k, f in factors:
        acc = O.mat_mul(acc, O.assemble(blocks, O.coupling_generator(blocks, p, t, k, f)))
    run.check(acc == target, f"factors multiply back n={n}")


def prepare_codim(lib, seed, rounds):
    items = []
    for rnd in range(rounds):
        for idx, entry in enumerate(CODIM_LADDER):
            draw = Inputs(f"codim:{seed}:{rnd}:{idx}")
            parts = parts_for(entry, idx % 3, rnd)
            assignment = {}
            if len(parts) == 1:
                blocks = parts[0][1]
                for r, (ar, mr) in enumerate(blocks):
                    for s, (as_, ms) in enumerate(blocks):
                        j = draw.rng.randrange(min(ar, as_))
                        assignment[(r, s, j)] = draw.matrix(mr, ms)
            items.append({"parts": parts, "st": lib.structure(parts),
                          "n": size(parts), "assignment": assignment,
                          "lib_assignment": {k: lib.matrix(v)
                                             for k, v in assignment.items()}})
    return items


def codim_query(iso, st, assignment):
    report = iso.consistency_check(st)
    if assignment is None:
        return report, None, None, None
    dim = iso.commutant_dimension(st)
    basis_dim, builder = iso.commutant_basis(st)
    return report, dim, basis_dim, builder(assignment)


def run_codim(iso, run, items):
    for item in items:
        parts, n = item["parts"], item["n"]
        oparts = oracle_parts(parts)
        single = len(parts) == 1
        out = run.op("codim", n, codim_query, iso, item["st"],
                     item["lib_assignment"] if single else None)
        if out is None:
            continue
        report, dim, basis_dim, x = out
        codim = O.expected_codim(oparts)
        run.check((report.n, report.codim_formula, report.isotropy_dim,
                   report.tangent_dim, report.oracle_codim)
                  == (n, codim, O.expected_dim(oparts),
                      n * (n + 1) // 2 - codim, codim), f"codim report n={n}")
        if single:
            blocks = parts[0][1]
            want = O.sum_min(blocks)
            run.check(dim == want and basis_dim == want, f"commutant dim n={n}")
            run.check(dense(x) == commutant_image(blocks, item["assignment"]),
                      f"commutant builder n={n}")
            j = O.jordan_form(oparts)
            xd = dense(x)
            run.check(O.mat_mul(j, xd) == O.mat_mul(xd, j), f"commutes with J n={n}")


def commutant_image(blocks, assignment):
    coeffs = {}
    for r, (ar, mr) in enumerate(blocks):
        for s, (as_, ms) in enumerate(blocks):
            coeffs[(r, s)] = [assignment.get((r, s, j), O.zeros(mr, ms))
                              for j in range(min(ar, as_))]
    t = O.assemble(blocks, coeffs)
    perm = O.interleave_index(blocks)
    out = O.zeros(len(perm), len(perm))
    for a in range(len(perm)):
        for b in range(len(perm)):
            out[perm[a]][perm[b]] = t[a][b]
    return out


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------


def prepare_cli(seed, rounds, out_dir):
    jobs = []
    for rnd in range(rounds):
        for idx, (entry, commands) in enumerate(CLI_LADDER):
            draw = Inputs(f"cli:{seed}:{rnd}:{idx}")
            parts = parts_for(entry, idx % 3, rnd)
            folder = os.path.join(out_dir, f"r{rnd}s{idx}")
            os.makedirs(folder, exist_ok=True)
            files = {"structure": os.path.join(folder, "structure.json")}
            with open(files["structure"], "w", encoding="utf-8") as handle:
                json.dump(structure_wire(parts), handle)
            if "sample-unipotent" in commands:
                files["params"] = os.path.join(folder, "params.json")
                with open(files["params"], "w", encoding="utf-8") as handle:
                    json.dump(params_wire(draw.free_params(parts[0][1],
                                                           unipotent=True)), handle)
            jobs.append({"round": rnd, "parts": parts, "n": size(parts),
                         "commands": commands,
                         "files": files, "folder": folder,
                         "seed": draw.rng.randrange(1 << 32),
                         "corrupt": (draw.rng.randrange(size(parts)),
                                     draw.rng.randrange(size(parts)))})
    return jobs


class Cli:
    def __init__(self, run, trace_dir):
        self.run = run
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("ISOTROPY_SEED", None)
        self.count = 0

    def __call__(self, n, args, expect=0):
        """Run one isotropy process; returns stdout, or None on failure."""
        if self.trace_dir:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py")] + args
            trace_file = os.path.join(self.trace_dir, f"cli-{self.count}.json")
            env = dict(self.env, PERFBENCH_TRACE_FILE=trace_file,
                       PERFBENCH_SPAWN=repr(time.monotonic()))
        else:
            argv = [sys.executable, "-m", "isotropy.cli"] + args
            env = self.env
        self.count += 1
        self.run.bytes_in += sum(
            os.path.getsize(v) if os.path.exists(v) else 0
            for flag, v in zip(args, args[1:])
            if flag in ("--structure", "--matrix", "--params"))

        def spawn():
            proc = subprocess.run(argv, env=env, capture_output=True, timeout=150)
            if proc.returncode != expect:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-300:]!r}")
            return proc.stdout

        out = self.run.op(args[0], n, spawn)
        if out is not None and self.trace_dir:
            with open(trace_file, encoding="utf-8") as handle:
                payload = json.load(handle)
            self.run.summaries.append(payload["summary"])
            self.run.start_times.append(payload["start_s"])
        return out


def cli_step(cli, run, job, command):
    """Run one command of one job and check its output."""
    n, parts, folder = job["n"], job["parts"], job["folder"]
    oparts = oracle_parts(parts)
    st = ["--structure", job["files"]["structure"]]
    path = lambda name: os.path.join(folder, name)  # noqa: E731
    if command in ("dim", "describe", "canonical", "commutant", "codim"):
        out = cli(n, [command] + st)
        if out is None:
            return
        got = json.loads(out)
        if command == "dim":
            ok = got == {"dimension": O.expected_dim(oparts)}
        elif command == "describe":
            ok = (got["dimension"] == O.expected_dim(oparts)
                  and got["reductive_part"] == [m for _, b in parts for _, m in b])
        elif command == "canonical":
            ok = (O.from_wire(got["symmetric"]) == O.symmetric_form(oparts)
                  and O.from_wire(got["transition"]) == O.transition_form(oparts)
                  and O.from_wire(got["interleave"]) == O.interleave_form(oparts)
                  and O.from_wire(got["flip"]) == O.backward_form(oparts))
        elif command == "commutant":
            j = O.jordan_form(oparts)
            mats = [O.from_wire(m) for m in got["basis"]]
            ok = (got["dimension"] == O.sum_min(parts[0][1]) == len(mats)
                  and all(O.mat_mul(j, x) == O.mat_mul(x, j)
                          and any(not O.is_zero(v) for row in x for v in row)
                          for x in mats))
        else:
            codim = O.expected_codim(oparts)
            rep = got["report"]
            ok = (got["codimension"] == codim == rep["oracle_codim"]
                  and rep["isotropy_dim"] == O.expected_dim(oparts)
                  and rep["tangent_dim"] == n * (n + 1) // 2 - codim)
        run.check(ok, f"cli {command} n={n}")
    elif command in ("sample", "sample-again", "sample-unipotent"):
        name = {"sample": "q.json", "sample-again": "q-again.json",
                "sample-unipotent": "u.json"}[command]
        extra = (["--params", job["files"]["params"]] if command == "sample-unipotent"
                 else ["--seed", str(job["seed"])])
        if cli(n, ["sample"] + st + extra + ["--out", path(name)]) is None:
            return
        with open(path(name), "rb") as handle:
            blob = handle.read()
        if command == "sample-again":
            with open(path("q.json"), "rb") as handle:
                run.check(handle.read() == blob, f"cli sample rerun byte-identical n={n}")
            return
        matrix = json.loads(blob)["matrix"]
        with open(path("matrix-" + name), "w", encoding="utf-8") as handle:
            json.dump(matrix, handle)
        job[command] = O.from_wire(matrix)
        run.check(O.first_dense_failure(oparts, job[command]) is None,
                  f"cli {command} member n={n}")
        run.elements += 1
    elif command == "verify":
        if "sample" in job:
            out = cli(n, ["verify"] + st + ["--matrix", path("matrix-q.json")])
            if out is not None:
                run.check(json.loads(out)["member"] is True, f"cli verify n={n}")
    elif command == "verify-bad":
        if "sample" not in job:
            return
        bad = [row[:] for row in job["sample"]]
        i, j = job["corrupt"]
        bad[i][j] = O.sadd(bad[i][j], O.S1)
        run.check(O.first_dense_failure(oparts, bad) is not None,
                  f"corrupted copy is a non-member n={n}")
        with open(path("bad.json"), "w", encoding="utf-8") as handle:
            json.dump(O.to_wire(bad), handle)
        out = cli(n, ["verify"] + st + ["--matrix", path("bad.json")], expect=1)
        if out is not None:
            run.check(json.loads(out)["member"] is False, f"cli verify non-member n={n}")
    elif command == "factor":
        if "sample-unipotent" not in job:
            return
        out = cli(n, ["factor"] + st + ["--matrix", path("matrix-u.json")])
        if out is None:
            return
        got = json.loads(out)
        blocks = parts[0][1]
        core = {}
        for key, mats in got["core"]["coeffs"].items():
            r, s = (int(v) - 1 for v in key.split(","))
            core[(r, s)] = [O.from_wire(m) for m in mats]
        factors = [(f["p"] - 1, f["t"] - 1, f["k"], O.from_wire(f["F"]))
                   for f in got["factors"]]
        run.elements += 1
        check_factors(run, blocks, O.to_toeplitz(blocks, job["sample-unipotent"]),
                      core, factors, n)


def run_cli(run, jobs, trace_dir):
    """Commands in CLI_ALL order, each over every structure of the round, so
    every size class is spread over the whole timed phase."""
    cli = Cli(run, trace_dir)
    rounds = sorted({job["round"] for job in jobs})
    for rnd in rounds:
        for command in CLI_ALL:
            for job in jobs:
                if job["round"] == rnd and command in job["commands"]:
                    cli_step(cli, run, job, command)


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("group", "codim", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spawned = float(os.environ.get("PERFBENCH_SPAWN", time.monotonic()))

    sys.path.insert(0, SRC)
    import isotropy as iso

    lib = Lib(iso)
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "group":
        inputs = prepare_group(lib, args.seed, args.rounds)
    elif args.workload == "codim":
        inputs = prepare_codim(lib, args.seed, args.rounds)
    else:
        inputs = prepare_cli(args.seed, args.rounds, args.out)
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "bursts": [yardstick.burst() for _ in range(5)]}))
        return 0

    tracer = None
    trace_dir = None
    if args.trace:
        if args.workload == "cli":
            trace_dir = os.path.join(args.out, "trace")
            os.makedirs(trace_dir, exist_ok=True)
        else:
            tracer = spans.install()
    # The inputs live to the end of the run: keep the cyclic collector from
    # rescanning them, so that its pauses are the program's own.
    gc.collect()
    gc.freeze()
    run = Run()
    phase = time.perf_counter()
    if args.workload == "group":
        run_group(iso, run, inputs)
    elif args.workload == "codim":
        run_codim(iso, run, inputs)
    else:
        run_cli(run, inputs, trace_dir)
    wall = time.perf_counter() - phase
    run.bursts.append(yardstick.burst())

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "records": run.records,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "problems": run.problems[:20],
        "problem_count": len(run.problems),
        "wall_s": wall,
        "bursts": run.bursts,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "backend": iso.Rational.__module__,
    }
    if args.trace:
        if tracer is not None:
            tracer.write(os.path.join(args.out, "trace.json"))
            run.summaries.append(tracer.summary())
        start = sorted(run.start_times)
        result["layers"] = {
            "merged": spans.merge(run.summaries),
            "elements": run.elements,
            "bytes_in": run.bytes_in if args.workload == "cli" else 0,
            "start_s": start[len(start) // 2] if start else 0.0,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
