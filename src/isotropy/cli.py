"""Command line front end: batch JSON in, canonical JSON out.

Commands: canonical, describe, dim, codim, sample, generators, verify,
commutant, factor, selftest.  All input and output is JSON; dumps are
canonical (sorted keys, fixed indent), so identical requests with the
same seed produce byte-identical bytes.

Exit codes: 0 success, 1 verification answered false, 2 bad input
(a request too large for memory included), 3 internal integrity failure.

Start-up imports errors, forms, jsonio, matrices and scalars.  The other
library modules are bound lazily and run only when a handler first reads
from them, so a process compiles only what its command uses: dim and
canonical nothing more, codim orbit, commutant toeplitz.  Each handler
calls them module-qualified, and they sit in sys.modules from the start,
so perfbench/spans.py, which wraps the package's modules from outside,
still finds and wraps them.
"""

import argparse
import importlib.util
import json
import os
import sys

from .errors import IntegrityError, IsotropyError, MembershipError
from .forms import (MultiSegreStructure, SegreStructure, backward_form,
                    codim_formula, interleave_form, solution_dimension,
                    symmetric_form, transition_form)
from .jsonio import (description_to_json, dumps_canonical,
                     free_params_from_json, free_params_to_json,
                     generator_spec_from_json, generator_spec_to_json,
                     matrix_from_json, matrix_to_json, orbit_report_to_json,
                     structure_from_json, structure_to_json,
                     toeplitz_to_json)
from .matrices import ExactMatrix


def _lazy(name):
    """The package module `name`, registered and bound on the package now,
    as an import would, and run on the first read of one of its attributes
    (a module already loaded is returned as is)."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    loader.exec_module(module)
    return module


generators = _lazy("generators")
orbit = _lazy("orbit")
rng = _lazy("rng")
solver = _lazy("solver")
stabilizer = _lazy("stabilizer")
toeplitz = _lazy("toeplitz")


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key that appears twice (plain
    json.loads would keep the last value)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise IsotropyError(
                f"JSON object repeats the key {key!r}: both copies name the "
                "same slot")
        out[key] = value
    return out


def _load_json_argument(value: str):
    text = value.strip()
    if not text.startswith(("{", "[")):
        with open(value, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise IsotropyError("JSON argument is nested too deeply") from None


def _require(args, flag, what):
    value = getattr(args, flag)
    if value is None:
        raise IsotropyError(f"{what} requires --{flag.replace('_', '-')}")
    return value


def _structure_of(args):
    return structure_from_json(
        _load_json_argument(_require(args, "structure", args.command)))


# Every command but describe, dim and selftest builds dense n x n matrices
# and refuses, from the structure alone and before it reads --params or
# --matrix, a structure over its bounds.  Single runs in 1 GB (README has
# the table): canonical, verify and factor take 11-25 s and 400-430 MB at
# n = 1024; sample runs out of memory there (m = 2), and at n = 512 takes
# 3-24 s and up to 318 MB for m <= 32, 722 MB for m = 64.  codim ranks a
# system in a(a - 1)/2 unknowns for a block of size a, a^2 for two.  A
# block's own system has full rank, settled modulo one prime: 0.2 s and
# 17 MB at a = 40 (top of the ROADMAP ladder).  Two blocks of one
# eigenvalue share a kernel, so their system goes to exact elimination:
# 2.0 s for [(20, 1), (19, 1)], 6.9 s for [(24, 2)], 168 s for [(40, 2)].
# commutant prints about 90 bytes an entry: 2^22 entries take 9 s and
# 391 MB.  describe builds no matrix but lists one generator recipe per
# coefficient slot: 2^18 recipes take 1.8-4.3 s and 272-385 MB, couplings
# costing the most.
_MAX_DENSE_N = 1024
_MAX_SAMPLE_N, _MAX_SAMPLE_M = 512, 32
_MAX_CODIM_ALPHA = 40
_MAX_COMMUTANT_ENTRIES = 1 << 22
_MAX_DESCRIBE_RECIPES = 1 << 18


def _bounded_structure_of(args, max_n=_MAX_DENSE_N):
    st = _structure_of(args)
    if st.n > max_n:
        raise IsotropyError(
            f"request too large: n = {st.n}, and {args.command} builds "
            f"dense matrices only up to n = {max_n}")
    return st


def _checked_seed(seed: int, source: str) -> int:
    # SplitMix64 keeps 64 bits: -1 would draw as 2^64 - 1 but record -1
    if not 0 <= seed < 1 << 64:
        raise IsotropyError(f"{source} must be in [0, 2**64), got {seed}")
    return seed


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ISOTROPY_SEED", "0")
    try:
        seed = int(env)
    except ValueError:
        raise IsotropyError(
            f"ISOTROPY_SEED must be an integer, got {env!r}") from None
    return _checked_seed(seed, "ISOTROPY_SEED")


def _cmd_canonical(args):
    st = _bounded_structure_of(args)
    return {
        "symmetric": matrix_to_json(symmetric_form(st)),
        "transition": matrix_to_json(transition_form(st)),
        "interleave": matrix_to_json(interleave_form(st)),
        "flip": matrix_to_json(backward_form(st)),
    }, 0


def _cmd_describe(args):
    st = _structure_of(args)
    # counted before any is built: per part, one orthogonal seed and
    # alpha_t - 1 diagonal skews for each group t, and alpha_t couplings
    # for each pair p < t, so sum_t (t + 1) alpha_t
    recipes = sum((t + 1) * a for part in st.parts
                  for t, a in enumerate(part.alphas))
    if recipes > _MAX_DESCRIBE_RECIPES:
        raise IsotropyError(
            f"request too large: the description lists {recipes} generator "
            f"recipes, and describe lists at most {_MAX_DESCRIBE_RECIPES}")
    desc = stabilizer.describe_isotropy(st)
    return description_to_json(desc), 0


def _cmd_dim(args):
    # the closed form: describe_isotropy would list one recipe per
    # coefficient slot, in memory proportional to alpha
    return {"dimension": solution_dimension(_structure_of(args))}, 0


def _cmd_codim(args):
    st = _bounded_structure_of(args)
    alpha = max(p.alphas[0] for p in st.parts)
    if alpha > _MAX_CODIM_ALPHA:
        raise IsotropyError(
            f"request too large: the largest block has size {alpha}, and "
            "codim ranks tangent systems only for blocks up to size "
            f"{_MAX_CODIM_ALPHA}")
    report = orbit.consistency_check(st)
    payload = orbit_report_to_json(report)
    return {"codimension": codim_formula(st), "report": payload}, 0


def _params_for_sampling(structure, args, rnd):
    if args.params is not None:
        payload = _load_json_argument(args.params)
        if isinstance(structure, MultiSegreStructure):
            if not isinstance(payload, list) \
                    or len(payload) != len(structure.parts):
                raise IsotropyError(
                    "multi-eigenvalue sampling needs a JSON array with "
                    "one params object per part")
            return [free_params_from_json(p) for p in payload]
        return free_params_from_json(payload)
    if isinstance(structure, MultiSegreStructure):
        return [solver.random_free_params(solver.constant_data(p), rnd,
                                          max_num=2, max_den=2)
                for p in structure.parts]
    return solver.random_free_params(solver.constant_data(structure), rnd,
                                     max_num=2, max_den=2)


def _params_digest(params) -> str:
    # imported here, so that start-up does not load hashlib
    import hashlib

    if isinstance(params, list):
        blob = dumps_canonical([free_params_to_json(p) for p in params])
    else:
        blob = dumps_canonical(free_params_to_json(params))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cmd_sample(args):
    st = _bounded_structure_of(args, _MAX_SAMPLE_N)
    m = max(max(p.mults) for p in st.parts)
    if m > _MAX_SAMPLE_M:
        raise IsotropyError(
            f"request too large: the largest multiplicity is {m}, and "
            f"sample takes orthogonal seeds only up to size {_MAX_SAMPLE_M}")
    seed = _seed_of(args)
    rnd = rng.RandomSource(seed)
    params = _params_for_sampling(st, args, rnd)
    q = stabilizer.sample_isotropy_element(st, params=params)
    return {
        "matrix": matrix_to_json(q),
        "provenance": {
            "seed": seed if args.params is None else None,
            "params_digest": _params_digest(params),
            "structure": structure_to_json(st),
        },
    }, 0


def _cmd_generators(args):
    st = _bounded_structure_of(args)
    if not isinstance(st, SegreStructure):
        raise IsotropyError(
            "generators act within one eigenvalue; pass a single "
            "structure")
    spec = generator_spec_from_json(
        _load_json_argument(_require(args, "params", "generators")))
    form = generators.generator_from_spec(st, spec)
    return {
        "spec": generator_spec_to_json(spec),
        "matrix": matrix_to_json(form.assemble()),
    }, 0


def _cmd_verify(args):
    st = _bounded_structure_of(args)
    q = matrix_from_json(
        _load_json_argument(_require(args, "matrix", "verify")))
    member, report = stabilizer.verify_isotropy(st, q)
    return {"member": member, "report": report}, 0 if member else 1


def _cmd_commutant(args):
    st = _bounded_structure_of(args)
    if not isinstance(st, SegreStructure):
        raise IsotropyError(
            "the commutant parameterization is per eigenvalue; pass a "
            "single structure")
    dimension, builder = toeplitz.commutant_basis(st)
    if dimension * st.n * st.n > _MAX_COMMUTANT_ENTRIES:
        raise IsotropyError(
            f"request too large: the commutant basis has {dimension} "
            f"matrices of {st.n} x {st.n}, and commutant prints at most "
            f"{_MAX_COMMUTANT_ENTRIES} entries")
    basis = []
    for r in range(st.part_count):
        for s in range(st.part_count):
            m_r, m_s = st.mults[r], st.mults[s]
            for j in range(st.depth(r, s)):
                for a in range(m_r):
                    for b in range(m_s):
                        unit = ExactMatrix.from_rows(
                            [[1 if (x, y) == (a, b) else 0
                              for y in range(m_s)] for x in range(m_r)])
                        basis.append(matrix_to_json(
                            builder({(r, s, j): unit})))
    return {"dimension": dimension, "basis": basis}, 0


def _cmd_factor(args):
    st = _bounded_structure_of(args)
    if not isinstance(st, SegreStructure):
        raise IsotropyError(
            "factorization is per eigenvalue; pass a single structure")
    q = matrix_from_json(
        _load_json_argument(_require(args, "matrix", "factor")))
    form = stabilizer.to_toeplitz_coordinates(st, q)
    core, specs = generators.factor_unipotent(st, form)
    return {
        "core": toeplitz_to_json(core),
        "factors": [generator_spec_to_json(s) for s in specs],
    }, 0


def _cmd_selftest(args):
    # imported here, so that start-up does not compile the checks
    from .acceptance import format_results, run_all

    results = run_all(max_n=args.max_n, cases=args.cases)
    print(format_results(results), file=sys.stderr)
    payload = {
        "results": [{"number": r.number, "name": r.name,
                     "passed": r.passed, "detail": r.detail}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    }
    return payload, 0 if payload["all_passed"] else 1


_COMMANDS = {
    "canonical": _cmd_canonical,
    "describe": _cmd_describe,
    "dim": _cmd_dim,
    "codim": _cmd_codim,
    "sample": _cmd_sample,
    "generators": _cmd_generators,
    "verify": _cmd_verify,
    "commutant": _cmd_commutant,
    "factor": _cmd_factor,
    "selftest": _cmd_selftest,
}


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports a malformed command line as a JSON error on stderr, exit 2,
    like every other bad input."""

    def error(self, message):
        self.exit(2, dumps_canonical({"error": message}))


def _build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="isotropy",
        description="Exact isotropy groups of canonical complex "
                    "symmetric matrices.")
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="operation to run")
    parser.add_argument("--structure", metavar="FILE|JSON",
                        help="structure as inline JSON or a file path")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="seed in [0, 2**64) (fallback: env "
                             "ISOTROPY_SEED, then 0)")
    parser.add_argument("--params", metavar="FILE|JSON",
                        help="free parameters or generator spec")
    parser.add_argument("--matrix", metavar="FILE|JSON",
                        help="dense matrix input")
    parser.add_argument("--out", metavar="FILE",
                        help="write JSON here instead of stdout")
    parser.add_argument("--max-n", type=int, default=8, dest="max_n",
                        metavar="N", help="selftest enumeration bound")
    parser.add_argument("--cases", type=int, metavar="N",
                        help="selftest randomized case count override")
    return parser


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads "--flag=--" as []
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    handler = _COMMANDS[args.command]
    try:
        if args.seed is not None:
            _checked_seed(args.seed, "--seed")
        # refused before any work, which selftest would report on stderr
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(
                os.path.dirname(args.out) or ".")):
            raise IsotropyError(f"--out cannot be written: {args.out!r}")
        payload, code = handler(args)
        _emit(dumps_canonical(payload), args.out)
    except IntegrityError as exc:
        sys.stderr.write(dumps_canonical({"error": str(exc)}))
        return 3
    except MembershipError as exc:
        sys.stderr.write(dumps_canonical({"error": str(exc)}))
        return 1
    except (IsotropyError, json.JSONDecodeError, OSError, ValueError) as exc:
        sys.stderr.write(dumps_canonical({"error": str(exc)}))
        return 2
    except MemoryError:
        sys.stderr.write(dumps_canonical(
            {"error": "request too large: out of memory"}))
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
