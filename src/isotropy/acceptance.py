"""Batch self-checks: ten exact properties, one result line each.

Every check is deterministic (fixed internal seeds) and tolerance-free.
Check 5 currently reports an honest failure: its second clause demands
a nilpotency bound that zero-offset couplings between groups of close
sizes genuinely violate; the first counterexample is printed rather
than hidden.  See the README for the mathematical details.
"""

from collections import namedtuple

from .forms import (MultiSegreStructure, SegreStructure, codim_formula,
                    enumerate_structures, solution_dimension, symmetric_form)
from .generators import (catalan_coeff, catalan_series, factor_unipotent,
                         gen_G, gen_two_block, gen_V, gen_W,
                         generator_from_spec)
from .matrices import ExactMatrix, identity
from .orbit import _pairwise_rank, tangent_oracle
from .rng import RandomSource
from .scalars import ExactScalar, HALF, IMAG, ONE, ZERO
from .solver import FreeParams, _slots, constant_data, verify_congruence
from .stabilizer import (describe_isotropy, group_element_inv,
                         group_element_mul, sample_isotropy_element,
                         verify_isotropy)
from .toeplitz import ToeplitzForm, commutant_basis

CheckResult = namedtuple("CheckResult", ["number", "name", "passed",
                                         "detail"])

_COUNTS = {"membership": 200, "generators": 100, "triples": 50,
           "factor": 50, "multi": 20}


def _counts(cases):
    if cases is None:
        return dict(_COUNTS)
    if not isinstance(cases, int) or cases < 1:
        raise ValueError("cases must be a positive integer")
    return {"membership": cases, "generators": cases,
            "triples": max(1, cases // 10), "factor": max(1, cases // 4),
            "multi": max(1, cases // 10)}


# ---------------------------------------------------------------------------
# 1: exact membership of sampled elements
# ---------------------------------------------------------------------------


def check_membership_sampling(cases=None) -> CheckResult:
    cases = _counts(cases)["membership"]
    rnd = RandomSource(760101)
    good = 0
    first_bad = None
    for _ in range(cases):
        st = rnd.structure(12, 3)
        q = sample_isotropy_element(st, rnd=rnd, max_num=2, max_den=2)
        ok, report = verify_isotropy(st, q)
        if ok:
            good += 1
        elif first_bad is None:
            first_bad = f"{list(st.blocks)}: {report}"
    passed = good == cases
    detail = f"{good}/{cases} sampled elements verified exactly"
    if first_bad:
        detail += f"; first failure {first_bad}"
    return CheckResult(1, "membership-sampling", passed, detail)


# ---------------------------------------------------------------------------
# 2 and 3: dimension and codimension against the tangent oracle
# ---------------------------------------------------------------------------


def _oracle_sweep(max_n):
    rows = []
    for lam in (ExactScalar(0), ONE, IMAG):
        for n in range(1, max_n + 1):
            for st in enumerate_structures(n, lam):
                dim = solution_dimension(st)
                _, oracle_codim, kernel = tangent_oracle(symmetric_form(st))
                rows.append((st, dim, kernel, codim_formula(st),
                             oracle_codim))
    return rows


def check_dimension_agreement(max_n=8, _sweep=None) -> CheckResult:
    rows = _sweep if _sweep is not None else _oracle_sweep(max_n)
    bad = [(st, dim, kernel) for st, dim, kernel, _, _ in rows
           if dim != kernel]
    detail = (f"{len(rows) - len(bad)}/{len(rows)} structures "
              f"(n <= {max_n}, three eigenvalues): solver dimension = "
              "tangent kernel")
    if bad:
        st, dim, kernel = bad[0]
        detail += f"; first failure {list(st.blocks)}: {dim} != {kernel}"
    return CheckResult(2, "dimension-oracle", not bad, detail)


def check_codimension_agreement(max_n=8, _sweep=None) -> CheckResult:
    rows = _sweep if _sweep is not None else _oracle_sweep(max_n)
    bad = [(st, codim, oracle, dim)
           for st, dim, _, codim, oracle in rows
           if codim != oracle or codim != st.n + dim]
    detail = (f"{len(rows) - len(bad)}/{len(rows)} structures: formula "
              "codim = oracle codim = n + dimension")
    if bad:
        st, codim, oracle, dim = bad[0]
        detail += (f"; first failure {list(st.blocks)}: "
                   f"{codim} vs {oracle} vs {st.n} + {dim}")
    return CheckResult(3, "codimension-oracle", not bad, detail)


# ---------------------------------------------------------------------------
# 4: frozen coupling generator layout
# ---------------------------------------------------------------------------


def _place(grid, mat, row0, col0):
    for i in range(mat.rows):
        for j in range(mat.cols):
            grid[row0 + i][col0 + j] = mat[i, j]


def check_coupling_layout() -> CheckResult:
    st = SegreStructure(0, [(4, 2), (2, 3), (1, 1)])
    f = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    produced = gen_G(st, 0, 1, 0, f).assemble()
    grid = [[ZERO] * 15 for _ in range(15)]
    correction = (f.transpose() * f).scale(-HALF)
    for cell in range(4):
        _place(grid, identity(2), 2 * cell, 2 * cell)
    _place(grid, correction, 0, 4)
    _place(grid, correction, 2, 6)
    _place(grid, -f.transpose(), 0, 8)
    _place(grid, -f.transpose(), 2, 11)
    _place(grid, identity(3), 8, 8)
    _place(grid, identity(3), 11, 11)
    _place(grid, f, 8, 4)
    _place(grid, f, 11, 6)
    grid[14][14] = ONE
    expected = ExactMatrix.from_rows(grid)
    passed = produced == expected
    detail = ("15x15 coupling generator matches the expected layout "
              "entry for entry" if passed else
              "15x15 coupling generator deviates from the expected layout")
    return CheckResult(4, "worked-coupling-layout", passed, detail)


# ---------------------------------------------------------------------------
# 5: generator congruences and the advertised nilpotency bound
# ---------------------------------------------------------------------------


def _draw_structure(rnd, max_n, max_alpha, min_groups=1):
    while True:
        st = rnd.structure(max_n, 3)
        if st.alphas[0] <= max_alpha and st.part_count >= min_groups:
            return st


def _random_skews(st, rnd):
    return {key: rnd.skew(m, max_num=2, max_den=2)
            for key, m, _ in _slots(st) if len(key) == 2}


def _nilpotent_within(form, exponent):
    nil = form - ToeplitzForm.identity(form.structure)
    acc = ToeplitzForm.identity(form.structure)
    for _ in range(exponent):
        acc = acc * nil
        if acc.is_zero:
            return True
    return acc.is_zero


def check_generator_congruence(cases=None) -> CheckResult:
    cases = _counts(cases)["generators"]
    rnd = RandomSource(760105)
    congruence_bad = 0
    nilpotency_bad = 0
    first_cong = None
    first_nilp = None
    for i in range(cases):
        kind = i % 4
        if kind == 0:
            st = _draw_structure(rnd, 8, 6)
            data = constant_data(st)
            form = gen_W(st, _random_skews(st, rnd))
            label = f"W on {list(st.blocks)}"
        elif kind == 1:
            st = _draw_structure(rnd, 8, 6)
            b_diag = [rnd.symmetric_nonsingular(m, max_num=2, max_den=2)
                      for m in st.mults]
            data = constant_data(st, b_diag)
            form = gen_V(st, b_diag, _random_skews(st, rnd))
            label = f"V on {list(st.blocks)}"
        elif kind == 2:
            alpha = rnd.stream.randint(2, 6)
            beta = rnd.stream.randint(1, alpha - 1)
            k = rnd.stream.below(beta)
            m1 = rnd.stream.randint(1, 2)
            m2 = rnd.stream.randint(1, 2)
            b = rnd.symmetric_nonsingular(m1, max_num=2, max_den=2)
            c = rnd.symmetric_nonsingular(m2, max_num=2, max_den=2)
            coupling = rnd.matrix(m2, m1, max_num=2, max_den=2)
            dense, _ = gen_two_block(alpha, beta, k, coupling, b, c)
            st = SegreStructure(0, [(alpha, m1), (beta, m2)])
            data = constant_data(st, [b, c])
            form = ToeplitzForm.extract(dense, st)
            label = (f"two-block ({alpha},{beta}) offset {k} "
                     f"on {list(st.blocks)}")
        else:
            st = _draw_structure(rnd, 8, 6, min_groups=2)
            p = rnd.stream.below(st.part_count - 1)
            t = rnd.stream.randint(p + 1, st.part_count - 1)
            k = rnd.stream.below(st.alphas[t])
            b_diag = None
            if i % 8 == 7:
                b_diag = [rnd.symmetric_nonsingular(m, max_num=2, max_den=2)
                          for m in st.mults]
            data = constant_data(st, b_diag)
            coupling = rnd.matrix(st.mults[t], st.mults[p],
                                  max_num=2, max_den=2)
            form = gen_G(st, p, t, k, coupling, b_diag)
            label = f"coupling (p,t,k)=({p},{t},{k}) on {list(st.blocks)}"
        ok, report = verify_congruence(data, form)
        if not ok:
            congruence_bad += 1
            if first_cong is None:
                first_cong = f"{label}: {report}"
        if not _nilpotent_within(form, form.structure.alphas[0]):
            nilpotency_bad += 1
            if first_nilp is None:
                first_nilp = label
    passed = congruence_bad == 0 and nilpotency_bad == 0
    detail = (f"congruence {cases - congruence_bad}/{cases} exact; "
              f"(G-I)^alpha_1 = 0 held {cases - nilpotency_bad}/{cases}")
    if first_cong:
        detail += f"; first congruence failure {first_cong}"
    if first_nilp:
        detail += (f"; first nilpotency failure {first_nilp} "
                   "(known limitation: zero-offset couplings between "
                   "groups of close sizes exceed the alpha_1 bound; "
                   "(G-I)^n = 0 still holds)")
    return CheckResult(5, "generator-congruence-and-nilpotency", passed,
                       detail)


# ---------------------------------------------------------------------------
# 6: coefficient sequence identities
# ---------------------------------------------------------------------------


def check_catalan_identities() -> CheckResult:
    series = catalan_series(21)
    closed_ok = all(catalan_coeff(n) == series[n] for n in range(21))
    func_ok = True
    for n in range(21):
        if n == 0:
            rhs = -HALF
        else:
            acc = ZERO
            for j in range(n):
                acc = acc + series[j] * series[n - 1 - j]
            rhs = -(HALF * acc)
        if series[n] != rhs:
            func_ok = False
            break
    passed = closed_ok and func_ok
    detail = ("closed form = recursion for n <= 20 and the series "
              "solves f = -t f^2/2 - 1/2 through order 20")
    if not passed:
        detail = (f"closed-form match: {closed_ok}, "
                  f"generating-function identity: {func_ok}")
    return CheckResult(6, "catalan-coefficients", passed, detail)


# ---------------------------------------------------------------------------
# 7: commutant dimension against the vectorized kernel
# ---------------------------------------------------------------------------


def _commutant_nullity(s: ExactMatrix) -> int:
    # the kernel of X -> S X - X S on all n x n matrices X
    return s.rows * s.rows - _pairwise_rank(s, False)


def check_commutant_count(max_n=8) -> CheckResult:
    total = 0
    bad = None
    for n in range(1, max_n + 1):
        for st in enumerate_structures(n, 0):
            total += 1
            expected, _ = commutant_basis(st)
            observed = _commutant_nullity(symmetric_form(st))
            if expected != observed and bad is None:
                bad = (st, expected, observed)
    passed = bad is None
    detail = (f"{total} structures (n <= {max_n}): basis dimension = "
              "vectorized commutant nullity")
    if bad:
        st, expected, observed = bad
        detail += (f"; first failure {list(st.blocks)}: "
                   f"{expected} != {observed}")
    return CheckResult(7, "commutant-count", passed, detail)


# ---------------------------------------------------------------------------
# 8: group axioms on sampled elements
# ---------------------------------------------------------------------------

_AXIOM_STRUCTURES = (
    (0, [(1, 3)]),
    (1, [(2, 1)]),
    (IMAG, [(2, 2)]),
    (0, [(3, 1)]),
    (IMAG, [(2, 1), (1, 1)]),
    (1, [(3, 2)]),
    (0, [(3, 1), (1, 2)]),
    (IMAG, [(4, 1), (2, 1)]),
    (1, [(2, 2), (1, 1)]),
    (0, [(4, 2)]),
)


def _sample_reductive(st, rnd):
    base = FreeParams.zero(st)
    seeds = [rnd.orthogonal(m, max_num=2, max_den=2) for m in st.mults]
    return sample_isotropy_element(
        st, FreeParams(base.sub_blocks, seeds, base.skews))


def check_group_axioms(cases=None) -> CheckResult:
    triples = _counts(cases)["triples"]
    rnd = RandomSource(760108)
    checked = 0
    bad = None
    for lam, blocks in _AXIOM_STRUCTURES:
        st = SegreStructure(lam, blocks)
        for _ in range(triples):
            q1 = sample_isotropy_element(st, rnd=rnd, max_num=2, max_den=2)
            q2 = sample_isotropy_element(st, rnd=rnd, max_num=2, max_den=2)
            q3 = sample_isotropy_element(st, rnd=rnd, max_num=2, max_den=2)
            o = _sample_reductive(st, rnd)
            probes = (
                group_element_mul(st, [q1, q2, q3]),
                group_element_inv(st, q1),
                group_element_mul(st, [q1, group_element_inv(st, q2)]),
                group_element_mul(st, [o, q1, group_element_inv(st, o)]),
            )
            for q in probes:
                ok, report = verify_isotropy(st, q)
                if not ok and bad is None:
                    bad = f"{list(st.blocks)}: {report}"
            checked += 1
    passed = bad is None
    detail = (f"{checked} triples over {len(_AXIOM_STRUCTURES)} "
              "structures: products, inverses, conjugates all verified")
    if bad:
        detail += f"; first failure {bad}"
    return CheckResult(8, "group-axioms", passed, detail)


# ---------------------------------------------------------------------------
# 9: factorization round trip
# ---------------------------------------------------------------------------


def check_factorization_round_trip(cases=None) -> CheckResult:
    cases = _counts(cases)["factor"]
    rnd = RandomSource(760109)
    good = 0
    first_bad = None
    for _ in range(cases):
        st = _draw_structure(rnd, 9, 5, min_groups=2)
        product = ToeplitzForm.identity(st)
        count = rnd.stream.randint(1, 4)
        for _ in range(count):
            if rnd.stream.below(3) == 0:
                product = product * gen_W(st, _random_skews(st, rnd))
            else:
                p = rnd.stream.below(st.part_count - 1)
                t = rnd.stream.randint(p + 1, st.part_count - 1)
                k = rnd.stream.below(st.alphas[t])
                coupling = rnd.matrix(st.mults[t], st.mults[p],
                                      max_num=2, max_den=2)
                product = product * gen_G(st, p, t, k, coupling)
        core, specs = factor_unipotent(st, product)
        rebuilt = core
        for spec in specs:
            rebuilt = rebuilt * generator_from_spec(st, spec)
        if rebuilt == product:
            good += 1
        elif first_bad is None:
            first_bad = f"{list(st.blocks)} with {len(specs)} factors"
    passed = good == cases
    detail = f"{good}/{cases} generator products re-multiplied exactly"
    if first_bad:
        detail += f"; first failure {first_bad}"
    return CheckResult(9, "factorization-round-trip", passed, detail)


# ---------------------------------------------------------------------------
# 10: composition across distinct eigenvalues
# ---------------------------------------------------------------------------

_EIGENVALUE_POOL = (ExactScalar(0), ONE, IMAG, ExactScalar(2),
                    ExactScalar(1, 1), ExactScalar(-1))


def _draw_multi(rnd, max_n):
    parts = rnd.stream.randint(1, 3)
    lams = list(_EIGENVALUE_POOL)
    chosen = []
    budget = max_n
    for i in range(parts):
        slots = parts - i
        top = budget - (slots - 1)
        size = rnd.stream.randint(1, max(1, top))
        lam = lams.pop(rnd.stream.below(len(lams)))
        chosen.append(rnd.structure(size, 2, lam))
        budget -= chosen[-1].n
    return MultiSegreStructure(chosen)


def check_multi_composition(cases=None) -> CheckResult:
    cases = _counts(cases)["multi"]
    rnd = RandomSource(760110)
    good = 0
    first_bad = None
    for _ in range(cases):
        multi = _draw_multi(rnd, 10)
        q = sample_isotropy_element(multi, rnd=rnd, max_num=2, max_den=2)
        ok, report = verify_isotropy(multi, q)
        case_ok = ok
        reason = report if not ok else ""
        offset = 0
        for part in multi.parts:
            span = range(offset, offset + part.n)
            for i in span:
                for j in range(multi.n):
                    if j not in span and q[i, j] != ZERO:
                        case_ok = False
                        reason = f"off-part entry ({i},{j}) nonzero"
            offset += part.n
        total = describe_isotropy(multi).dimension
        part_sum = sum(describe_isotropy(p).dimension for p in multi.parts)
        if total != part_sum:
            case_ok = False
            reason = f"dimension {total} != part sum {part_sum}"
        if case_ok:
            good += 1
        elif first_bad is None:
            first_bad = (f"{[list(p.blocks) for p in multi.parts]}: "
                         f"{reason}")
    passed = good == cases
    detail = (f"{good}/{cases} multi-eigenvalue samples block-diagonal "
              "with additive dimension")
    if first_bad:
        detail += f"; first failure {first_bad}"
    return CheckResult(10, "multi-eigenvalue-composition", passed, detail)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_all(max_n=8, cases=None):
    """All ten checks in order.  max_n trims the enumerations (2, 3, 7);
    cases overrides the randomized case counts (smoke runs)."""
    if not isinstance(max_n, int) or max_n < 1:
        raise ValueError("max_n must be a positive integer")
    sweep = _oracle_sweep(max_n)
    return [
        check_membership_sampling(cases),
        check_dimension_agreement(max_n, _sweep=sweep),
        check_codimension_agreement(max_n, _sweep=sweep),
        check_coupling_layout(),
        check_generator_congruence(cases),
        check_catalan_identities(),
        check_commutant_count(max_n),
        check_group_axioms(cases),
        check_factorization_round_trip(cases),
        check_multi_composition(cases),
    ]


def format_results(results) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.number:2d} {res.name}: {res.detail}")
    return "\n".join(lines)
