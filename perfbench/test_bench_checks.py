"""The benchmark's output checks accept true outputs and reject corrupted ones."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import isotropy as iso  # noqa: E402
import oracle as O  # noqa: E402
import worker as W  # noqa: E402

BLOCKS = ((3, 1), (2, 1), (1, 1))


def sampled(unipotent=False):
    lib = W.Lib(iso)
    parts = [(W.EIGS[2], BLOCKS)]
    params = lib.params(W.Inputs("test").free_params(BLOCKS, unipotent=unipotent))
    q = iso.sample_isotropy_element(lib.structure(parts), params=params)
    return W.oracle_parts(parts), W.dense(q)


def test_sampled_member_passes_and_one_changed_entry_fails():
    parts, q = sampled()
    assert O.first_dense_failure(parts, q) is None
    for i, j in ((0, 0), (2, 4), (5, 1)):
        bad = [row[:] for row in q]
        bad[i][j] = O.sadd(bad[i][j], O.sc(0, 1))
        assert O.first_dense_failure(parts, bad) is not None


def test_factor_check_rejects_a_changed_factor():
    parts, u = sampled(unipotent=True)
    st = W.Lib(iso).structure([(W.EIGS[2], BLOCKS)])
    core, specs = iso.factor_unipotent(st, iso.to_toeplitz_coordinates(st, W.Lib(iso).matrix(u)))
    target = O.to_toeplitz(BLOCKS, u)
    factors = [(s.p, s.t, s.k, W.dense(s.coupling)) for s in specs]
    assert factors, "the sample should need at least one coupling factor"

    good = W.Run()
    W.check_factors(good, BLOCKS, target, W.form_coeffs(core), factors, 6)
    assert good.problems == []

    p, t, k, f = factors[0]
    changed = [row[:] for row in f]
    changed[0][0] = O.sadd(changed[0][0], O.S1)
    bad = W.Run()
    W.check_factors(bad, BLOCKS, target, W.form_coeffs(core),
                    [(p, t, k, changed)] + factors[1:], 6)
    assert bad.problems


def test_scalar_parser_reads_the_wire_grammar():
    for x in (iso.ExactScalar(0), iso.ExactScalar(iso.rat(-3, 4), 2),
              iso.ExactScalar(0, 0, iso.rat(1, 2), iso.rat(-1, 2)),
              iso.ExactScalar(1, -1, -2, 0)):
        assert O.parse(iso.format_scalar(x)) == (x.a, x.b, x.c, x.d)
    assert O.parse("i") == O.sc(0, 1)
    assert O.parse("1 r2") == O.sc(0, 0, 1)
