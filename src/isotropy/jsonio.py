"""JSON encoding of the objects the CLI reports, and decoding of the ones it
reads.

Wire conventions: scalars are strings in the exact-scalar grammar;
matrices are {"rows", "cols", "entries"} with row-major entry strings;
group indices (r, s, p, t) are 1-based on the wire and 0-based in code;
coefficient offsets (j, k) keep their mathematical meaning on both
sides.  Dumps are canonical: sorted keys, two-space indent, one
trailing newline, so identical objects serialize byte-identically.
"""

import json

from .errors import ParameterError, StructureError
from .forms import MultiSegreStructure, SegreStructure
from .matrices import ExactMatrix
from .scalars import format_scalar, parse_scalar


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _expect_mapping(payload, what):
    if not isinstance(payload, dict):
        raise ParameterError(f"{what}: expected a JSON object, "
                             f"got {type(payload).__name__}")
    return payload


def _expect_count(payload, key, what, minimum=0):
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise ParameterError(f"{what}: field {key!r} must be an integer "
                             f">= {minimum}")
    return value


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def matrix_to_json(mat: ExactMatrix) -> dict:
    entries = [format_scalar(mat[i, j])
               for i in range(mat.rows) for j in range(mat.cols)]
    return {"rows": mat.rows, "cols": mat.cols, "entries": entries}


def matrix_from_json(payload) -> ExactMatrix:
    payload = _expect_mapping(payload, "matrix")
    rows = _expect_count(payload, "rows", "matrix", minimum=1)
    cols = _expect_count(payload, "cols", "matrix", minimum=1)
    entries = payload.get("entries")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParameterError(
            f"matrix: need exactly {rows * cols} entries")
    scalars = [parse_scalar(e) if isinstance(e, str)
               else _reject_entry(e) for e in entries]
    return ExactMatrix.from_rows(
        [scalars[i * cols:(i + 1) * cols] for i in range(rows)])


def _reject_entry(e):
    raise ParameterError(f"matrix: entries must be scalar strings, "
                         f"got {type(e).__name__}")


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------


def structure_to_json(structure) -> dict:
    if isinstance(structure, MultiSegreStructure):
        return {"parts": [structure_to_json(p) for p in structure.parts]}
    if not isinstance(structure, SegreStructure):
        raise StructureError(
            f"cannot serialize {type(structure).__name__} as a structure")
    return {"lambda": format_scalar(structure.lam),
            "blocks": [{"alpha": a, "m": m} for a, m in structure.blocks]}


def structure_from_json(payload):
    payload = _expect_mapping(payload, "structure")
    if "parts" in payload:
        parts = payload["parts"]
        if not isinstance(parts, list) or not parts:
            raise StructureError("structure: parts must be a nonempty list")
        return MultiSegreStructure(
            [structure_from_json(p) for p in parts])
    lam_text = payload.get("lambda")
    if not isinstance(lam_text, str):
        raise StructureError("structure: field 'lambda' must be a "
                             "scalar string")
    blocks_json = payload.get("blocks")
    if not isinstance(blocks_json, list) or not blocks_json:
        raise StructureError("structure: blocks must be a nonempty list")
    blocks = []
    for entry in blocks_json:
        entry = _expect_mapping(entry, "structure block")
        blocks.append((_expect_count(entry, "alpha", "block", minimum=1),
                       _expect_count(entry, "m", "block", minimum=1)))
    return SegreStructure(parse_scalar(lam_text), blocks)


# ---------------------------------------------------------------------------
# Toeplitz forms
# ---------------------------------------------------------------------------


def toeplitz_to_json(form) -> dict:
    coeffs = {f"{r + 1},{s + 1}": [matrix_to_json(mat) for mat in cells]
              for (r, s), cells in form.coeffs.items()}
    return {"structure": structure_to_json(form.structure), "coeffs": coeffs}


# ---------------------------------------------------------------------------
# free parameters and generator specs
# ---------------------------------------------------------------------------


def _group_keys(mapping, pieces, what):
    """(slot, key, value) for each entry of a wire mapping whose keys are
    `pieces` comma-separated integers.  A malformed key, or a second key
    naming a slot already seen (such as "1,1" after "01,1"), raises
    ParameterError."""
    seen = {}
    for key, value in mapping.items():
        parts = key.split(",")
        if len(parts) != pieces:
            raise ParameterError(f"{what}: bad key {key!r}")
        try:
            slot = tuple(int(p) for p in parts)
        except ValueError:
            raise ParameterError(f"{what}: bad key {key!r}") from None
        if slot in seen:
            raise ParameterError(
                f"{what}: keys {seen[slot]!r} and {key!r} name the same slot")
        seen[slot] = key
        yield slot, key, value


def _skews_to_json(skews) -> dict:
    """The wire skew map: group r, offset j -> "r + 1,j"."""
    return {f"{r + 1},{j}": matrix_to_json(mat)
            for (r, j), mat in sorted(skews.items())}


def _skews_from_json(skews_json) -> dict:
    """The code skew map of a wire skew map already read as a mapping."""
    return {(r1 - 1, j): matrix_from_json(mat)
            for (r1, j), _, mat in _group_keys(skews_json, 2, "skews")}


def free_params_to_json(params) -> dict:
    return {
        "sub": {f"{r + 1},{s + 1},{j}": matrix_to_json(mat)
                for (r, s, j), mat in sorted(params.sub_blocks.items())},
        "seeds": {str(r + 1): matrix_to_json(mat)
                  for r, mat in enumerate(params.diag_seeds)},
        "skews": _skews_to_json(params.skews),
    }


def free_params_from_json(payload):
    # imported here, so that a command reading no params never loads the
    # solver
    from .solver import FreeParams

    payload = _expect_mapping(payload, "free params")
    sub_json = _expect_mapping(payload.get("sub", {}), "sub")
    seeds_json = _expect_mapping(payload.get("seeds", {}), "seeds")
    skews_json = _expect_mapping(payload.get("skews", {}), "skews")
    sub = {(r1 - 1, s1 - 1, j): matrix_from_json(mat)
           for (r1, s1, j), _, mat in _group_keys(sub_json, 3, "sub")}
    seeds_by_group = {}
    for (r1,), _, mat in _group_keys(seeds_json, 1, "seeds"):
        seeds_by_group[r1 - 1] = matrix_from_json(mat)
    if sorted(seeds_by_group) != list(range(len(seeds_by_group))):
        raise ParameterError("seeds: group keys must cover 1..N")
    seeds = [seeds_by_group[r] for r in range(len(seeds_by_group))]
    return FreeParams(sub, seeds, _skews_from_json(skews_json))


def generator_spec_to_json(spec) -> dict:
    if spec.kind == "diagonal_W":
        return {"kind": "W", "skews": _skews_to_json(spec.skews)}
    return {"kind": "G", "p": spec.p + 1, "t": spec.t + 1, "k": spec.k,
            "F": matrix_to_json(spec.coupling)}


def generator_spec_from_json(payload):
    # imported here, like FreeParams above
    from .generators import GeneratorSpec

    payload = _expect_mapping(payload, "generator spec")
    kind = payload.get("kind")
    if kind == "W":
        skews_json = _expect_mapping(payload.get("skews"), "skews")
        return GeneratorSpec("diagonal_W", skews=_skews_from_json(skews_json))
    if kind == "G":
        p = _expect_count(payload, "p", "generator spec", minimum=1)
        t = _expect_count(payload, "t", "generator spec", minimum=1)
        k = _expect_count(payload, "k", "generator spec", minimum=0)
        return GeneratorSpec("two_block_G", p=p - 1, t=t - 1, k=k,
                             coupling=matrix_from_json(payload.get("F")))
    raise ParameterError(f"generator spec: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _recipes_to_json(recipes) -> dict:
    if "parts" in recipes:
        return {"parts": [_recipes_to_json(r) for r in recipes["parts"]]}
    return {
        "orthogonal_seeds": [
            {"group": e["group"] + 1, "size": e["size"]}
            for e in recipes["orthogonal_seeds"]],
        "diagonal_skews": [
            {"group": e["group"] + 1, "offset": e["offset"],
             "size": e["size"]}
            for e in recipes["diagonal_skews"]],
        "couplings": [
            {"p": e["p"] + 1, "t": e["t"] + 1, "offset": e["offset"],
             "shape": list(e["shape"])}
            for e in recipes["couplings"]],
    }


def description_to_json(desc) -> dict:
    payload = {
        "structure": structure_to_json(desc.structure),
        "dimension": desc.dimension,
        "reductive_part": list(desc.reductive_part),
        "unipotent_order_bound": desc.unipotent_order_bound,
        "nilpotency_class_bound": desc.nilpotency_class_bound,
        "generator_recipes": _recipes_to_json(desc.generator_recipes),
    }
    if desc.parts:
        payload["parts"] = [description_to_json(p) for p in desc.parts]
    return payload


def orbit_report_to_json(report) -> dict:
    return {
        "structure": structure_to_json(report.structure),
        "n": report.n,
        "codim_formula": report.codim_formula,
        "isotropy_dim": report.isotropy_dim,
        "tangent_dim": report.tangent_dim,
        "oracle_codim": report.oracle_codim,
    }
