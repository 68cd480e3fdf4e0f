import gc
import math
import random
import time

import pytest

from bigraded.cli import parse_input
from bigraded.errors import BigradedError, InvalidIndex, InvalidPower
from bigraded.groebner import graded_piece, ideal_presentation
from bigraded.localcoh import (IRRELEVANT, KINDS, X, XY_SUM, Y, _frame_top,
                               _power_complex, _stable_power,
                               _transition_is_iso,
                               complex_length, ext_graded_dim, free_lc_dim,
                               h0_via_saturation, lc_table,
                               local_cohomology_dim)
from bigraded.modules import (FreeModule, ModuleMap, Presentation,
                              free_presentation, quotient_presentation)
from bigraded.regularity import module_betti
from bigraded.resolutions import (homology_dims, minimal_free_resolution,
                                  schreyer_frame)
from bigraded.ring import make_ring
from bigraded.sheaf import kunneth_dim
from conftest import SATURATION_ROUNDS_DOC, irrelevant_gens
from helpers import (dual_complex, duality_sum_dims, random_form,
                     random_sparse_poly, schreyer_frame_levels, taylor_top,
                     unskipped_local_cohomology_dim)


def free(ring, gens=((0, 0),)):
    return free_presentation(ring, list(gens))


# ---------------------------------------------------------------- ext pieces


def test_ext_examples(P11):
    R = free(P11)
    dim, cochains = ext_graded_dim(R, X, 2, (-2, 0), 2)
    assert dim == 1
    assert len(cochains) == 3  # Koszul complex on two squared variables

    for d in [(-2, 0), (0, 0), (3, -1)]:
        for nu in (1, 2, 3):
            assert ext_graded_dim(R, X, 0, d, nu)[0] == 0

    Q = quotient_presentation(P11, irrelevant_gens(P11))
    assert ext_graded_dim(Q, IRRELEVANT, 0, (0, 0), 1)[0] == 1


def test_ext_index_out_of_range(P11):
    R = free(P11)
    with pytest.raises(InvalidIndex):
        ext_graded_dim(R, X, -1, (0, 0), 1)
    with pytest.raises(InvalidIndex):
        ext_graded_dim(R, X, 5, (0, 0), 1)
    with pytest.raises(InvalidIndex):
        local_cohomology_dim(R, X, 5, (0, 0))


@pytest.mark.parametrize("nu", [0, -1])
def test_powers_below_one_are_refused(P11, nu):
    R = free(P11)
    calls = [lambda: ext_graded_dim(R, X, 2, (-2, 0), nu),
             lambda: local_cohomology_dim(R, IRRELEVANT, 2, (0, 0), nu),
             lambda: local_cohomology_dim(R, IRRELEVANT, 0, (0, 0), nu),
             lambda: lc_table(R, IRRELEVANT, 2, (1, 0, 0, 0), nu)]
    for call in calls:
        with pytest.raises(InvalidPower) as err:
            call()
        assert isinstance(err.value, BigradedError)
        assert isinstance(err.value, ValueError)
        assert str(err.value).endswith("must be at least 1, got %d" % nu)


# ------------------------------------------------------------------ colimits


def test_local_cohomology_examples(P11):
    R = free(P11)
    v = local_cohomology_dim(R, IRRELEVANT, 2, (0, -2))
    assert v.dim == 1 and v.certified and v.stabilized_at is not None

    w = local_cohomology_dim(R, XY_SUM, 4, (-2, -2))
    assert w.dim == 1 and w.certified

    for i in (0, 1):
        for d in [(0, 0), (-1, -1), (2, -3)]:
            assert local_cohomology_dim(R, IRRELEVANT, i, d).dim == 0


def test_certified_values_reproducible(P11):
    R = free(P11)
    a = local_cohomology_dim(R, IRRELEVANT, 2, (0, -2), nu_max=8)
    b = local_cohomology_dim(R, IRRELEVANT, 2, (0, -2), nu_max=12)
    assert a.certified and b.certified and a.dim == b.dim


def test_no_stabilization_is_honest(P11):
    # nu_max too small to see two consecutive isomorphisms
    R = free(P11)
    v = local_cohomology_dim(R, IRRELEVANT, 2, (0, -2), nu_max=2)
    assert not v.certified and v.stabilized_at is None


def test_degree_zero_is_exact_without_limit(P11):
    Q = quotient_presentation(P11, irrelevant_gens(P11))
    v = local_cohomology_dim(Q, IRRELEVANT, 0, (2, 0), nu_max=2)
    assert v == (3, 0, True)


# ------------------------------------------------------------- free oracle


def test_free_oracle_examples():
    assert free_lc_dim(X, 2, (0, 0), (-2, 0), (1, 1)) == 1
    assert free_lc_dim(X, 2, (0, 0), (-2, -1), (1, 1)) == 0
    assert free_lc_dim(IRRELEVANT, 2, (0, 0), (-2, 0), (1, 1)) == 1
    assert free_lc_dim(IRRELEVANT, 3, (0, 0), (-2, 0), (1, 1)) == 0
    assert free_lc_dim(XY_SUM, 4, (0, 0), (-2, -2), (1, 1)) == 1


def test_free_oracle_against_engine(P11):
    M = free(P11, [(1, 2)])  # R(-1,-2)
    window = [(a, b) for a in range(-3, 2) for b in range(-3, 2)]
    for kind in (X, Y, XY_SUM, IRRELEVANT):
        for i in range(0, 5):
            for d in window:
                want = free_lc_dim(kind, i, (-1, -2), d, (1, 1))
                got = local_cohomology_dim(M, kind, i, d)
                assert got.dim == want, (kind, i, d)
                assert got.certified


@pytest.mark.parametrize("m,n", [(-1, 2), (2, -1)])
def test_free_oracle_against_engine_on_an_empty_block(m, n):
    # the power family of an empty block's ideal, and of the irrelevant
    # ideal, is the Koszul complex on no variables: R alone
    R = make_ring(m, n)
    window = [(a, b) for a in range(-3, 2) for b in range(-3, 2)]
    for twist in ((0, 0), (1, -2), (-2, 1)):
        M = free(R, [(-twist[0], -twist[1])])
        for kind in KINDS:
            for i in range(0, m + n + 3):
                for d in window:
                    got = local_cohomology_dim(M, kind, i, d)
                    assert got.dim == free_lc_dim(kind, i, twist, d, (m, n))
                    assert got.certified


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (0, 2), (-1, 2), (2, -1)])
def test_complex_length_is_the_length_of_the_power_complex(m, n):
    R = make_ring(m, n)
    M = free(R)
    for kind in KINDS:
        C = _power_complex(M, kind, 1)
        assert complex_length(R, kind) == len(C.terms) - 1, kind


def test_dictionary_on_free_modules(P11):
    # one index down: degree-(i+1) pieces supported at the products ideal
    # match sheaf cohomology in degree i; degrees 0 and 1 vanish
    R = free(P11)
    for k in range(-2, 3):
        for kp in range(-2, 3):
            for i in (1, 2):
                got = local_cohomology_dim(R, IRRELEVANT, i + 1, (k, kp))
                assert got.certified
                assert got.dim == kunneth_dim(1, 1, k, kp, i)
            assert local_cohomology_dim(R, IRRELEVANT, 0, (k, kp)).dim == 0
            assert local_cohomology_dim(R, IRRELEVANT, 1, (k, kp)).dim == 0


# -------------------------------------------------------------------- tables


def test_lc_table_matches_kunneth(P11):
    R = free(P11)
    rep = lc_table(R, IRRELEVANT, 2, (-3, 3, -3, 3))
    assert rep["uncertified"] == []
    for r, k in enumerate(range(-3, 4)):
        for c, kp in enumerate(range(-3, 4)):
            assert rep["dims"][r][c] == kunneth_dim(1, 1, k, kp, 1)


def test_lc_table_torsion_axes(P11):
    Q = quotient_presentation(P11, irrelevant_gens(P11))
    rep = lc_table(Q, IRRELEVANT, 0, (0, 3, 0, 3))
    for r, k in enumerate(range(0, 4)):
        for c, kp in enumerate(range(0, 4)):
            if k and kp:
                want = 0
            elif k or kp:
                want = max(k, kp) + 1
            else:
                want = 1
            assert rep["dims"][r][c] == want


def test_lc_table_empty_window(P11):
    rep = lc_table(free(P11), IRRELEVANT, 1, (1, 0, -3, 3))
    assert rep["dims"] == [] and rep["uncertified"] == []


# ------------------------------------------------------------------ torsion


def test_h0_of_domain_is_zero(P11):
    H = h0_via_saturation(free(P11), IRRELEVANT)
    for d in [(0, 0), (2, 1), (0, 3)]:
        assert graded_piece(H, d)[1] == 0


def test_h0_of_fully_supported_quotient(P11):
    Q = quotient_presentation(P11, irrelevant_gens(P11))
    H = h0_via_saturation(Q, IRRELEVANT)
    for a in range(0, 4):
        for b in range(0, 4):
            assert graded_piece(H, (a, b))[1] == graded_piece(Q, (a, b))[1]


def test_h0_splits_off_torsion_summand(P11):
    # R + R/m: torsion lives entirely in the second summand
    f0 = FreeModule([(0, 0), (0, 0)])
    cols = []
    for f in irrelevant_gens(P11):
        cols.append({(1, e): c for e, c in f.terms.items()})
    rels = ModuleMap(P11, FreeModule([(1, 1)] * 4), f0, cols)
    M = Presentation(P11, f0, rels)
    Q = quotient_presentation(P11, irrelevant_gens(P11))
    H = h0_via_saturation(M, IRRELEVANT)
    for a in range(0, 4):
        for b in range(0, 4):
            assert graded_piece(H, (a, b))[1] == graded_piece(Q, (a, b))[1]


def test_h0_by_saturation_matches_ext_at_the_stable_power(corpus, P11):
    # two routes to H^0: the torsion submodule found by saturation, and
    # Ext^0 against the power family once its transitions are isomorphisms.
    # The corpus has little torsion; the four-round module has plenty, and
    # R/(x0^2, x1^2, y0^2, y1^2) has finite length, so it is torsion at
    # every kind, the sum ideal included
    squares = quotient_presentation(
        P11, [P11.var(v) ** 2 for v in range(P11.nvars)])
    modules = sorted(corpus.items()) + [
        ("saturation-rounds", parse_input(SATURATION_ROUNDS_DOC)[1]),
        ("R/squares", squares)]
    nonzero = dict.fromkeys(KINDS, 0)
    for name, M in modules:
        for kind in KINDS:
            H = h0_via_saturation(M, kind)
            for d in ((a, b) for a in range(-1, 3) for b in range(-1, 3)):
                nu = _stable_power(M, d)
                want = graded_piece(H, d)[1]
                assert [ext_graded_dim(M, kind, 0, d, s)[0]
                        for s in (nu, nu + 1)] == [want, want], \
                    (name, kind, d)
                nonzero[kind] += want != 0
    assert all(nonzero.values()), nonzero


def test_sum_kind_by_graded_local_duality(corpus, P11, P12):
    # a route to the sum kind with no power nu: Ext^{N-i}(M, omega) on the
    # dual of the minimal resolution.  It is compared with saturation at
    # i = 0 and with Ext at the stable power for i >= 1, not with
    # local_cohomology_dim, whose chase can certify a cell below that power
    squares = quotient_presentation(
        P11, [P11.var(v) ** 2 for v in range(P11.nvars)])
    modules = [M for name, M in corpus.items() if not name.startswith("R(")]
    modules += [parse_input(SATURATION_ROUNDS_DOC)[1], squares]
    rng = random.Random(20261020)
    for ring, degs in ((P11, [(1, 1), (1, 0), (0, 1), (2, 1), (1, 2)]),
                       (P12, [(1, 1), (1, 0), (0, 1), (2, 1), (1, 2)]),
                       (make_ring(-1, 2), [(0, 1), (0, 2)])):
        for _ in range(2):
            modules.append(quotient_presentation(ring, [
                random_sparse_poly(ring, rng, rng.choice(degs), nterms=2)
                for _ in range(3)]))
    nonzero = [0] * (P12.nvars + 1)
    for M in modules:
        D = dual_complex(minimal_free_resolution(M))
        H0 = h0_via_saturation(M, XY_SUM)
        for d in ((a, b) for a in range(-3, 2) for b in range(-3, 2)):
            want = [graded_piece(H0, d)[1]] + [
                ext_graded_dim(M, XY_SUM, i, d, _stable_power(M, d))[0]
                for i in range(1, M.ring.nvars + 1)]
            assert duality_sum_dims(D, d) == want, (M, d)
            for i, dim in enumerate(want):
                nonzero[i] += dim != 0
    assert all(nonzero), nonzero


# ---------------------------------------------------------------- invariants


def test_mayer_vietoris_rank_bound(P11, corpus):
    names = ["R", "m[P1xP1]", "R/(x0y0)", "minors2x3"]
    window = [(a, b) for a in range(-2, 1) for b in range(-2, 1)]
    for name in names:
        M = corpus[name]
        for i in range(0, 4):
            for d in window:
                lhs = local_cohomology_dim(M, IRRELEVANT, i, d).dim
                rhs = (local_cohomology_dim(M, X, i, d).dim
                       + local_cohomology_dim(M, Y, i, d).dim
                       + local_cohomology_dim(M, XY_SUM, i + 1, d).dim)
                assert lhs <= rhs, (name, i, d)


def test_vanishing_cap_top_index(P11, corpus):
    # at the top index m+n+2 only the whole-variable ideal survives
    window = [(a, b) for a in range(-3, 1) for b in range(-3, 1)]
    for name in ["R", "m[P1xP1]", "R/m"]:
        M = corpus[name]
        for d in window:
            assert local_cohomology_dim(M, X, 4, d).dim == 0
            assert local_cohomology_dim(M, Y, 4, d).dim == 0
            assert local_cohomology_dim(M, IRRELEVANT, 4, d).dim == 0


def test_flattening_top_cohomology(P11):
    # collapsing the grading: summing the top pieces along an antidiagonal
    # recovers the single-graded top local cohomology of a 4-variable ring
    R = free(P11)
    for t in range(-7, -3):
        total = sum(local_cohomology_dim(R, XY_SUM, 4, (k, t - k)).dim
                    for k in range(t + 1, 0))
        assert total == math.comb(-t - 1, 3)


def test_flattening_torsion_counts(P11):
    # degree-0 pieces summed along antidiagonals match a direct count of
    # the monomials avoiding every product x_i y_j
    Q = quotient_presentation(P11, irrelevant_gens(P11))
    H = h0_via_saturation(Q, IRRELEVANT)
    for t in range(0, 5):
        total = sum(graded_piece(H, (k, t - k))[1] for k in range(0, t + 1))
        survivors = 0
        for a in range(t + 1):
            for b in range(t + 1 - a):
                for c in range(t + 1 - a - b):
                    d = t - a - b - c
                    if a + b == 0 or c + d == 0:
                        survivors += 1
        assert total == survivors


# ------------------------------------------------------ the stable power


def _reproducer(ring):
    x0, y0, y1 = ring.var(0), ring.var(2), ring.var(3)
    return quotient_presentation(ring, [x0 * x0, y0 * y0 * y1])


def _resolution_nu0(M, d, gens):
    """nu0(d) from the generator degrees of a resolution of M."""
    m, n = M.ring.m, M.ring.n
    return max([1] + [max(a - d[0] - m, b - d[1] - n) for a, b in gens])


def _resolution_gens(M):
    return [g for term in minimal_free_resolution(M).terms for g in term.gens]


def test_stable_power_bounds_nu0_and_transitions(corpus):
    # the skip in local_cohomology_dim rests on these two facts.  The
    # cells are the corners and the centre of [-2, 0]^2, or [-1, 0]^2 on
    # P1xP2, where the sum-ideal Koszul complex on five variables makes
    # each cell about ten times dearer
    for name, M in sorted(corpus.items()):
        gens = _resolution_gens(M)
        lo = -1 if M.ring.nvars > 4 else -2
        cells = {(lo, lo), (lo, 0), (0, lo), (0, 0), (lo // 2, lo // 2)}
        for d in sorted(cells):
            bound = _stable_power(M, d)
            assert bound >= _resolution_nu0(M, d, gens), (name, d)
            assert bound <= _resolution_nu0(M, d, [taylor_top(M)]), (name, d)
            for kind in KINDS:
                for i in range(1, complex_length(M.ring, kind) + 1):
                    for s in (bound, bound + 1):
                        assert _transition_is_iso(M, kind, i, d, s, {}), \
                            (name, kind, i, d, s)


def test_stable_power_is_tight_on_reproducer(P11):
    M = _reproducer(P11)
    d = (0, -3)
    assert _stable_power(M, d) == 5 == _resolution_nu0(
        M, d, _resolution_gens(M))
    assert [ext_graded_dim(M, Y, 1, d, nu)[0] for nu in (4, 5, 6, 7)] \
        == [1, 3, 3, 3]
    assert not _transition_is_iso(M, Y, 1, d, 4, {})
    assert _transition_is_iso(M, Y, 1, d, 5, {})
    assert _transition_is_iso(M, Y, 1, d, 6, {})


def _top(degrees):
    return tuple(map(max, zip(*degrees)))


def _frame_modules(P11, P12, P01, corpus):
    """The corpus, seeded random ideals and quotients on P1xP1, P1xP2 and
    P0xP1, quotients over the two rings with an empty block, the zero
    module (with and without a generator) and R/(x0^2, x0x1, x1^2)."""
    mods = dict(corpus)
    rng = random.Random(20261019)
    degs = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]
    for ring in (P11, P12, P01):
        for t in range(10):
            polys = [random_sparse_poly(ring, rng, rng.choice(degs),
                                        nterms=rng.randrange(1, 4))
                     for _ in range(rng.randrange(1, 5))]
            polys = [f for f in polys if not f.is_zero()]
            key = (ring.m, ring.n, t)
            mods["quotient%s" % (key,)] = quotient_presentation(ring, polys)
            if polys:
                mods["ideal%s" % (key,)] = ideal_presentation(ring, polys)
    for m, n in ((-1, 1), (1, -1)):
        ring = make_ring(m, n)
        v = [ring.var(k) for k in range(ring.nvars)]
        mods["R/(v0^2, v0v1)[%d,%d]" % (m, n)] = quotient_presentation(
            ring, [v[0] * v[0], v[0] * v[1]])
    mods["0"] = free_presentation(P11, [])
    mods["R/(1)"] = quotient_presentation(P11, [P11.one()])
    x0, x1 = P11.var(0), P11.var(1)
    mods["R/(x0^2,x0x1,x1^2)"] = quotient_presentation(
        P11, [x0 * x0, x0 * x1, x1 * x1])
    return mods


def test_frame_is_a_resolution_between_minimal_and_taylor(P11, P12, P01,
                                                           corpus):
    tighter = 0
    for name, M in sorted(_frame_modules(P11, P12, P01, corpus).items()):
        ring = M.ring
        levels = schreyer_frame_levels(M)
        assert len(levels) <= ring.nvars + 1, name
        # the builder and the pruned walk share the oracle's child rule
        assert [list(t.gens) for t in schreyer_frame(M).terms] == levels, name
        frame = _top([g for level in levels for g in level])
        assert _frame_top(M) == frame, name
        taylor = taylor_top(M)
        assert all(map(int.__le__, frame, taylor)), (name, frame, taylor)
        tighter += frame != taylor
        minimal = _top(_resolution_gens(M))
        assert all(map(int.__le__, minimal, frame)), (name, minimal, frame)
        # the Euler identity: the frame's degrees give M's Hilbert function
        lo = [min(g[c] for g in levels[0]) - 1 if levels[0] else 0
              for c in (0, 1)]
        hi = [c + 1 for c in frame] or [1, 1]
        for a in range(lo[0], hi[0] + 1):
            for b in range(lo[1], hi[1] + 1):
                euler = sum((-1) ** i * ring.piece_dim(a - g[0], b - g[1])
                            for i, level in enumerate(levels)
                            for g in level)
                assert euler == graded_piece(M, (a, b))[1], (name, (a, b))
    assert tighter >= 5


def test_frame_beats_taylor_on_three_squares(P11):
    x0, x1 = P11.var(0), P11.var(1)
    M = quotient_presentation(P11, [x0 * x0, x0 * x1, x1 * x1])
    assert taylor_top(M) == (4, 0)
    assert _frame_top(M) == (3, 0) == _top(_resolution_gens(M))
    assert [len(level) for level in schreyer_frame_levels(M)] == [1, 3, 2]


def test_stable_power_is_cheap_on_p9xp9():
    # the unpruned frame of R/(x0..x9, y0..y9) has 2^20 elements
    ring = make_ring(9, 9)
    for power, want in ((1, 1), (2, 11)):
        M = quotient_presentation(
            ring, [ring.var(v) ** power for v in range(ring.nvars)])
        t0 = time.perf_counter()
        assert _stable_power(M, (0, 0)) == want
        assert time.perf_counter() - t0 < 1.0


def test_skip_leaves_every_answer_unchanged(P11, P12, corpus):
    names = ["R", "R(2,-1)", "m[P1xP1]", "R/m", "R/(x0y0)", "(x0^2y0y1)",
             "x0^2(y0,y1)^1", "minors2x3"]
    modules = [corpus[name] for name in names] + [_reproducer(P11)]
    window = [(a, b) for a in range(-3, 2) for b in range(-3, 2)]
    cells = [(M, kind, i, d) for M in modules for kind in KINDS
             for i in range(1, complex_length(M.ring, kind) + 1)
             for d in window]
    # three seeded (1,1)-forms on P1xP2, where the frame is below Taylor
    rng = random.Random(20261019)
    F = ideal_presentation(P12, [random_form(P12, rng, (1, 1))
                                 for _ in range(3)])
    assert _frame_top(F) == (3, 3) and taylor_top(F) == (4, 4)
    cells += [(F, IRRELEVANT, 2, d) for d in ((0, 0), (-1, 0), (1, 0))]
    cells += [(F, Y, 3, d) for d in ((1, -3), (1, -4), (0, -3))]
    for M, kind, i, d in cells:
        for nu_max in (3, 6):
            want = unskipped_local_cohomology_dim(M, kind, i, d, nu_max)
            got = local_cohomology_dim(M, kind, i, d, nu_max)
            assert got == want, (kind, i, d, nu_max)

# ------------------------------------------------------------------- memory


@pytest.mark.parametrize("answer", [
    lambda M: local_cohomology_dim(M, IRRELEVANT, 2, (-2, 0)),
    lambda M: lc_table(M, IRRELEVANT, 2, (-2, 0, -2, 0)),
    lambda M: homology_dims(minimal_free_resolution(M), (2, 2)),
    module_betti,
], ids=["cell", "table", "homology", "betti"])
def test_answers_are_freed_by_refcount(answer):
    # a ring caches only its monomial lists and the rest is cached on the
    # presentation, so nothing refers back to the ring in a cycle: with the
    # cyclic collector off, dropping the ring and the module frees them
    gc.collect()
    gc.disable()
    try:
        R = make_ring(1, 1)
        x0, x1, y0, y1 = (R.var(v) for v in range(4))
        M = quotient_presentation(R, [x0 * y0 * y1, x1 * x1 * y0])
        answer(M)
        assert all(len(key) == 3 and key[0] == "monomials"
                   for key in R._cache), sorted(R._cache, key=repr)
        del R, M, x0, x1, y0, y1
        assert gc.collect() == 0
    finally:
        gc.enable()
