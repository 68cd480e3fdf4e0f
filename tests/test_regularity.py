import itertools

import pytest

from bigraded.errors import BigradedError, InvalidPower
from bigraded.groebner import (graded_piece, ideal_presentation, normal_form,
                               presentation_gb)
from bigraded.modules import free_presentation, quotient_presentation
from bigraded.regularity import (classical_reduction_check,
                                 multiplication_surjectivity,
                                 strong_regularity_check,
                                 strong_regularity_frontier, vc_window_verify,
                                 weak_regularity_check)
from bigraded.ring import make_ring, mono_mul
from bigraded.sheaf import kunneth_dim
from conftest import irrelevant_gens
from helpers import rank_over


# ---------------------------------------------------------- strong / frontier


def test_strong_examples(P11, corpus):
    assert strong_regularity_check(corpus["R"], 0, 0).value is True

    m = corpus["m[P1xP1]"]
    assert strong_regularity_check(m, 1, 1).value is True
    v = strong_regularity_check(m, 0, 1)
    assert v.value is False
    assert v.witnesses == [(0, (1, 1), 4), (1, (1, 2), 2), (1, (2, 1), 2),
                           (2, (2, 2), 1)]
    assert v.method == "ResolutionCriterion" and v.certified

    for a, b in [(1, 0), (0, 1), (2, 3)]:
        F = free_presentation(P11, [(a, b)])  # R(-a,-b)
        assert strong_regularity_check(F, a, b).value is True
        assert strong_regularity_check(F, a - 1, b).value is False


def test_frontier_examples(corpus):
    assert strong_regularity_frontier(corpus["R"]) == [(0, 0)]
    assert strong_regularity_frontier(corpus["m[P1xP1]"]) == [(1, 1)]
    assert strong_regularity_frontier(corpus["x0^2(y0,y1)^1"]) == [(2, 1)]
    assert strong_regularity_frontier(corpus["(x0y0)"]) == [(1, 1)]
    assert strong_regularity_frontier(corpus["R/m"]) == [(0, 1), (1, 0)]
    assert strong_regularity_frontier(corpus["minors2x3"]) == [(2, 3), (3, 2)]


def test_frontier_zero_module_raises(P11):
    Z = quotient_presentation(P11, [P11.monomial((0, 0, 0, 0))])
    with pytest.raises(BigradedError) as info:
        strong_regularity_frontier(Z)
    assert isinstance(info.value, ValueError)


def test_frontier_points_are_minimal(corpus):
    for name in ["R", "m[P1xP1]", "R/m", "(x0y0)", "minors2x3"]:
        M = corpus[name]
        for p, pp in strong_regularity_frontier(M):
            assert strong_regularity_check(M, p, pp).value is True
            assert strong_regularity_check(M, p - 1, pp).value is False
            assert strong_regularity_check(M, p, pp - 1).value is False


# ------------------------------------------------------------------- weak


def test_weak_examples(P11, corpus):
    v = weak_regularity_check(corpus["R"], 0, 0)
    assert v == (True, [], [], "LocalCohomologyCheck", True)

    v = weak_regularity_check(free_presentation(P11, [(1, 0)]), 0, 0)
    assert v.value is False
    assert v.witnesses == [(3, (-1, -2), 1)]

    # fully torsion module: every higher piece vanishes, the degree-0
    # up-set check alone decides
    Q = corpus["R/m"]
    for p, pp in [(0, 0), (0, 1), (1, 1)]:
        v = weak_regularity_check(Q, p, pp)
        assert v.value is True and v.certified


def test_weak_edge_variant_on_torsion(corpus):
    Q = corpus["R/m"]
    v = weak_regularity_check(Q, 0, 1, require_edge_vanishing=True)
    assert v.value is False
    assert v.witnesses == [(0, (0, 2), 3)]
    v = weak_regularity_check(Q, 1, 0, require_edge_vanishing=True)
    assert v.value is False and v.witnesses == [(0, (2, 0), 3)]
    # one step above the frontier both edge quadrants clear the axes
    v = weak_regularity_check(Q, 1, 1, require_edge_vanishing=True)
    assert v.value is True


def test_weak_undecided_propagation(corpus):
    v = weak_regularity_check(corpus["R"], 0, 0, nu_max=2)
    assert v.value is None and not v.certified
    assert v.witnesses == [] and v.undecided


def test_strong_implies_weak_at_frontier(corpus):
    for name in ["R", "m[P1xP1]", "(x0y0)", "R/m"]:
        M = corpus[name]
        for p, pp in strong_regularity_frontier(M):
            assert weak_regularity_check(M, p, pp).value is True


# ------------------------------------------------------------------ windows


def test_vc_window_examples(P11, corpus):
    rep = vc_window_verify(corpus["R"], 0, 0, 0, (-4, 4, -4, 4))
    assert rep == {"ok": True, "violations": [], "undecided": []}

    F = free_presentation(P11, [(1, 1)])  # R(-1,-1)
    assert vc_window_verify(F, 0, 1, 1, (-3, 3, -3, 3))["ok"] is True

    m = corpus["m[P1xP1]"]
    assert strong_regularity_check(m, 1, 1).value is True
    for d in (0, 1, 2):
        assert vc_window_verify(m, d, 1, 1, (-2, 2, -2, 2))["ok"] is True


def test_vc_window_detects_violation(P11):
    F = free_presentation(P11, [(1, 1)])
    rep = vc_window_verify(F, 0, 0, 0, (-3, 3, -3, 3))
    assert rep["ok"] is False
    assert ("x", 2, (-1, 1), 1) in rep["violations"]


def test_vc_window_undecided(corpus):
    rep = vc_window_verify(corpus["R"], 0, 0, 0, (-2, 2, -2, 2), nu_max=2)
    assert rep["ok"] is None and rep["undecided"]


@pytest.mark.parametrize("nu_max", [0, -1])
def test_weak_checks_refuse_powers_below_one(corpus, nu_max):
    # an empty window reaches no local cohomology cell, and is refused too
    calls = [lambda: weak_regularity_check(corpus["R"], 0, 0, nu_max=nu_max),
             lambda: vc_window_verify(corpus["R"], 0, 0, 0, (-1, 1, -1, 1),
                                      nu_max=nu_max),
             lambda: vc_window_verify(corpus["R"], 0, 0, 0, (1, 0, 1, 0),
                                      nu_max=nu_max)]
    for call in calls:
        with pytest.raises(InvalidPower) as err:
            call()
        assert isinstance(err.value, BigradedError)
        assert isinstance(err.value, ValueError)


# ------------------------------------------------------------ multiplication


def test_multiplication_examples(P11, corpus):
    R = corpus["R"]
    for da in range(3):
        for db in range(3):
            assert multiplication_surjectivity(R, (0, 0), (da, db))

    m = corpus["m[P1xP1]"]
    assert multiplication_surjectivity(m, (1, 1), (1, 0))
    assert multiplication_surjectivity(m, (1, 1), (0, 1))
    assert multiplication_surjectivity(m, (1, 1), (1, 1))

    # R + R(-2,0): the second generator sits past bidegree (1,0)
    S = free_presentation(P11, [(0, 0), (2, 0)])
    assert not multiplication_surjectivity(S, (1, 0), (1, 0))

    with pytest.raises(ValueError):
        multiplication_surjectivity(R, (0, 0), (-1, 0))


def test_multiplication_surjectivity_against_dense_normal_forms(corpus):
    """Span the normal forms of x^mono * b over the standard monomials b of
    M_frm and take the rank by dense elimination: no block matrix, no
    normal-form table, no graded_piece."""
    steps = ((1, 0), (0, 1), (1, 1), (2, 0))
    for name, M in sorted(corpus.items()):
        ring, G = M.ring, presentation_gb(M)
        one = ring.field.one
        nf = {}

        def standard(d):
            out = []
            for t in M.f0.piece_basis(ring, d):
                nf[t] = normal_form({t: one}, G)
                if nf[t] == {t: one}:
                    out.append(t)
            return out

        for frm in itertools.product(range(-1, 3), repeat=2):
            src = standard(frm)
            for step in steps:
                tgt = standard((frm[0] + step[0], frm[1] + step[1]))
                index = {t: k for k, t in enumerate(tgt)}
                rows = []
                for mono in ring.monomials(step):
                    for gi, e in src:
                        row = [0] * len(tgt)
                        for t, c in nf[(gi, mono_mul(e, mono))].items():
                            row[index[t]] = c
                        rows.append(row)
                expect = rank_over(rows, ring.field) == len(tgt)
                assert multiplication_surjectivity(M, frm, step) == expect, \
                    (name, frm, step)


def test_edge_weakness_gives_surjective_multiplication(corpus):
    m = corpus["m[P1xP1]"]
    assert weak_regularity_check(m, 1, 1,
                                 require_edge_vanishing=True).value is True
    steps = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for frm in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
        for step in steps:
            assert multiplication_surjectivity(m, frm, step), (frm, step)


# ---------------------------------------------------- sheaf sections match


def test_weakly_regular_ideal_pieces_are_sections(corpus):
    # a weakly regular point of an ideal sees exactly the twisted global
    # sections of the associated sheaf
    m = corpus["m[P1xP1]"]
    assert weak_regularity_check(m, 1, 1).value is True
    for p in range(1, 4):
        for pp in range(1, 4):
            # the saturation of the products ideal is the whole ring
            assert graded_piece(m, (p, pp))[1] == kunneth_dim(1, 1, p, pp, 0)

    I = corpus["(x0y0)"]
    assert weak_regularity_check(I, 1, 1).value is True
    for p in range(1, 4):
        for pp in range(1, 4):
            assert graded_piece(I, (p, pp))[1] == \
                kunneth_dim(1, 1, p - 1, pp - 1, 0)


# -------------------------------------------------------------- equivariance


def test_frontier_twist_equivariance(corpus):
    for name in ["m[P1xP1]", "minors2x3", "R/m"]:
        M = corpus[name]
        base = strong_regularity_frontier(M)
        for a, b in [(1, 0), (-1, 2)]:
            shifted = strong_regularity_frontier(M.twist(a, b))
            assert shifted == [(p - a, q - b) for p, q in base]


def test_power_ideal_frontier_law(corpus):
    for t, s in [(1, 2), (2, 1), (3, 3)]:
        M = corpus["x0^%d(y0,y1)^%d" % (t, s)]
        assert strong_regularity_frontier(M) == [(t, s)]


# ------------------------------------------------------- classical collapse


def test_classical_reduction_pure_y():
    ring = make_ring(-1, 1)
    y0, y1 = ring.var(0), ring.var(1)
    J = ideal_presentation(ring, [y0, y1])
    rep = classical_reduction_check(J)
    assert rep["side"] == "y" and rep["classical"] == 1
    assert rep["frontier"] == [(0, 1)] and rep["matched"] is True

    J2 = ideal_presentation(ring, [y0 * y0, y0 * y1, y1 * y1])
    rep = classical_reduction_check(J2)
    assert rep["classical"] == 2 and rep["matched"] is True


def test_classical_reduction_one_variable_factor(P01, corpus):
    rep = classical_reduction_check(corpus["x0^2(y0,y1)^1"])
    assert rep["side"] == "y" and rep["classical"] == 1
    assert rep["frontier"] == [(2, 1)] and rep["matched"] is True

    P10 = make_ring(1, 0)
    x0, x1 = P10.var(0), P10.var(1)
    I = ideal_presentation(P10, [x0 * x0, x0 * x1, x1 * x1])
    rep = classical_reduction_check(I)
    assert rep["side"] == "x" and rep["classical"] == 2
    assert rep["frontier"] == [(2, 0)] and rep["matched"] is True


def test_classical_reduction_collapse_to_zero(P01):
    Q = quotient_presentation(P01, [P01.var(0)])
    rep = classical_reduction_check(Q)
    assert rep["matched"] is None and "zero" in rep["note"]


def test_classical_reduction_errors(P11):
    with pytest.raises(ValueError):
        classical_reduction_check(free_presentation(P11, [(0, 0)]))
    empty = make_ring(-1, -1, allow_trivial=True)
    with pytest.raises(ValueError):
        classical_reduction_check(free_presentation(empty, [(0, 0)]))
