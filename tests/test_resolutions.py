import gc
import random
import weakref
from fractions import Fraction

import pytest

from bigraded.errors import ResolutionTooLong
from bigraded.groebner import (buchberger, graded_piece, ideal_presentation,
                               presentation_gb)
from bigraded.modules import (FreeModule, ModuleMap, Presentation,
                              free_presentation, quotient_presentation,
                              vec_add, vec_from_poly, vec_mono_shift)
from bigraded.regularity import module_betti, strong_regularity_frontier
from bigraded.resolutions import (FreeComplex, betti_table, homology_dims,
                                  irrelevant_resolution, koszul_complex,
                                  minimal_free_resolution, minimal_generators,
                                  minimize)
from bigraded.ring import make_ring, mono_mul
from conftest import build_corpus, irrelevant_gens, monomial_ideal


def assert_windowed_resolution(C, M, window):
    """Exactness on the window: no homology above level 0, and the level-0
    piece matches the presented module."""
    assert C.composites_vanish()
    for d in window:
        h = homology_dims(C, d)
        assert all(v == 0 for v in h[1:]), (d, h)
        assert h[0] == graded_piece(M, d)[1], d


def square_window(lo, hi):
    return [(a, b) for a in range(lo, hi) for b in range(lo, hi)]


def assert_no_unit_entries(C):
    """Minimality: no differential entry is a nonzero constant."""
    zm = C.ring.zero_mono
    for d in C.diffs:
        assert not any(mono == zm for col in d.cols for _r, mono in col)


def rational_presentation(R):
    """Three generators over QQ, two of them cancelled by relations whose
    pivot constants are 2/3 and 5/2, so minimization divides by them."""
    zm = R.zero_mono
    q = Fraction
    cols = [
        {(0, zm): q(2, 3), (1, zm): q(3, 2)},
        {(0, (1, 0, 0, 0)): q(1), (2, zm): q(5, 2)},
        {(0, (1, 0, 1, 0)): q(1), (1, (0, 1, 0, 1)): q(-7, 3)},
        {(2, (0, 0, 0, 1)): q(4), (1, (0, 1, 1, 0)): q(1, 2)},
    ]
    f0 = FreeModule([(0, 0), (0, 0), (1, 0)])
    src = FreeModule([(0, 0), (1, 0), (1, 1), (1, 1)])
    return Presentation(R, f0, ModuleMap(R, src, f0, cols).check())


# ------------------------------------------------------------------- koszul


def test_koszul_two_variables(P11):
    C = koszul_complex(P11, [0, 1], 1)
    assert [t.rank for t in C.terms] == [1, 2, 1]
    assert C.terms[1].gens == ((1, 0), (1, 0))
    assert C.terms[2].gens == ((2, 0),)
    M = quotient_presentation(P11, [P11.var(0), P11.var(1)])
    assert_windowed_resolution(C, M, square_window(-1, 4))


def test_koszul_single_power(P11):
    C = koszul_complex(P11, [0], 3)
    assert [t.rank for t in C.terms] == [1, 1]
    assert C.terms[1].gens == ((3, 0),)
    assert C.diffs[0].cols == [{(0, (3, 0, 0, 0)): P11.field.one}]


def test_koszul_all_variables_squared(P11):
    C = koszul_complex(P11, range(4), 2)
    assert [t.rank for t in C.terms] == [1, 4, 6, 4, 1]
    assert C.composites_vanish()
    # the squares form a regular sequence, so the complex resolves the
    # quotient by them
    M = quotient_presentation(P11, [P11.var(i) ** 2 for i in range(4)])
    for d in square_window(0, 3):
        h = homology_dims(C, d)
        assert all(v == 0 for v in h[1:])
        assert h[0] == graded_piece(M, d)[1]


def test_koszul_mixed_blocks_bidegrees(P11):
    C = koszul_complex(P11, [0, 2], 1)
    assert sorted(C.terms[1].gens) == [(0, 1), (1, 0)]
    assert C.terms[2].gens == ((1, 1),)


# -------------------------------------------------------- minimal generators


def test_minimal_generators_free(P11):
    R = free_presentation(P11, [(0, 0)])
    gens = minimal_generators(R)
    assert len(gens) == 1
    el, deg = gens[0]
    assert deg == (0, 0)
    assert el == {(0, P11.zero_mono): P11.field.one}


def test_minimal_generators_irrelevant(P11):
    M = ideal_presentation(P11, irrelevant_gens(P11))
    gens = minimal_generators(M)
    assert [deg for _el, deg in gens] == [(1, 1)] * 4


def test_minimal_generators_no_divisibility(P01):
    M = monomial_ideal(P01, [(2, 1, 0), (2, 0, 1)])
    assert sorted(deg for _el, deg in minimal_generators(M)) == \
        [(2, 1), (2, 1)]


def test_minimal_generators_redundant_input(P11):
    # x0^2 y0 is generated by x0 y0, so only one generator survives
    x0, y0 = P11.var(0), P11.var(2)
    M = ideal_presentation(P11, [x0 * y0, x0 * x0 * y0])
    assert [deg for _el, deg in minimal_generators(M)] == [(1, 1)]


def test_minimal_generators_rationals(P11q):
    # e0 = -(9/4) e1 and e2 = -(2/5) x0 e0 leave e1 alone
    M = rational_presentation(P11q)
    assert minimal_generators(M) == [
        ({(1, P11q.zero_mono): P11q.field.one}, (0, 0))]


# --------------------------------------------------------- minimal resolution


def test_resolution_of_free(P11):
    R = free_presentation(P11, [(0, 0)])
    C = minimal_free_resolution(R)
    assert C.length == 0
    assert betti_table(C) == {0: [(0, 0)]}
    assert C.minimal


def test_resolution_of_irrelevant_ideal(P11):
    M = ideal_presentation(P11, irrelevant_gens(P11))
    C = minimal_free_resolution(M)
    assert betti_table(C) == {
        0: [(1, 1)] * 4,
        1: [(1, 2), (1, 2), (2, 1), (2, 1)],
        2: [(2, 2)],
    }
    assert C.minimal
    assert_windowed_resolution(C, M, square_window(-1, 4))


def test_resolution_of_twisted_koszul(P01):
    # x0^2 * (y0, y1): the length-1 resolution of (y0, y1) with the
    # generator column scaled by x0^2
    M = monomial_ideal(P01, [(2, 1, 0), (2, 0, 1)])
    C = minimal_free_resolution(M)
    assert betti_table(C) == {0: [(2, 1), (2, 1)], 1: [(2, 2)]}
    assert_windowed_resolution(C, M, square_window(0, 5))


def test_resolution_too_long(P11):
    M = quotient_presentation(P11, irrelevant_gens(P11))
    with pytest.raises(ResolutionTooLong):
        minimal_free_resolution(M, 1)
    # the default bound (number of variables) always suffices
    C = minimal_free_resolution(M)
    assert betti_table(C) == {
        0: [(0, 0)],
        1: [(1, 1)] * 4,
        2: [(1, 2), (1, 2), (2, 1), (2, 1)],
        3: [(2, 2)],
    }


def test_resolution_euler_characteristic(P11, corpus):
    for name in ["m[P1xP1]", "minors2x3", "R/(x0y0)"]:
        M = corpus[name]
        C = minimal_free_resolution(M)
        for d in square_window(0, 4):
            chi = sum((-1) ** i * t.piece_dim(M.ring, d)
                      for i, t in enumerate(C.terms))
            assert chi == graded_piece(M, d)[1]


def test_corpus_resolutions_exact_and_minimal(corpus):
    for name, M in sorted(corpus.items()):
        C = minimal_free_resolution(M)
        assert_no_unit_entries(C)
        a0 = min(a for a, _b in C.terms[0].gens) - 1
        b0 = min(b for _a, b in C.terms[0].gens) - 1
        window = [(a0 + i, b0 + j) for i in range(4) for j in range(4)]
        assert_windowed_resolution(C, M, window)


def test_resolved_modules_are_freed_by_refcount(P11, P12, P01):
    # a module caches its resolution, which refers back to the module only
    # weakly: with the cyclic collector off, dropping the module frees it
    mods = build_corpus(P11, P12, P01)
    used_module = 0
    gc.disable()
    try:
        for name in sorted(mods):
            M = mods.pop(name)
            module_betti(M)
            strong_regularity_frontier(M)
            C = minimal_free_resolution(M)
            assert C.module is M
            if C.diffs:
                # the composite into F0 is zero only modulo the relations
                comp = C.augmentation.compose(C.diffs[0])
                used_module += not comp.is_zero()
                assert C.composites_vanish(), name
            alive = weakref.ref(M)
            del M
            assert alive() is None, name
            assert C.module is None
            if C.diffs:
                with pytest.raises(ReferenceError):
                    C.composites_vanish()
    finally:
        gc.enable()
    assert used_module >= 2


def test_resolution_over_rationals(P11q):
    M = rational_presentation(P11q)
    C = minimal_free_resolution(M)
    assert C.terms[0].gens == ((0, 0),)
    assert_no_unit_entries(C)
    assert_windowed_resolution(C, M, square_window(-1, 4))


def test_betti_determinism_under_shuffle(P11):
    gens = irrelevant_gens(P11)
    base = betti_table(minimal_free_resolution(ideal_presentation(P11, gens)))
    rng = random.Random(11)
    for _ in range(2):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [f.scale(P11.field.of(rng.randrange(1, 32003)))
                  for f in shuffled]
        got = betti_table(minimal_free_resolution(
            ideal_presentation(P11, scaled)))
        assert got == base


# ------------------------------------------------------------------ minimize


def test_minimize_fixed_point(P11):
    M = ideal_presentation(P11, irrelevant_gens(P11))
    C = minimal_free_resolution(M)
    D = minimize(C)
    assert betti_table(D) == betti_table(C)
    assert [t.gens for t in D.terms] == [t.gens for t in C.terms]


def test_minimize_identity_complex(P11):
    F0 = FreeModule([(0, 0)])
    F1 = FreeModule([(0, 0)])
    ident = ModuleMap(P11, F1, F0,
                      [{(0, P11.zero_mono): P11.field.one}])
    D = minimize(FreeComplex(P11, [F0, F1], [ident]))
    assert betti_table(D) == {}
    assert D.length == 0


def test_minimize_removes_split_exact_summand(P11, P11q):
    # direct-sum a split-exact three-term complex
    #   R(-1,-1) --(c, c2 x0y0)--> R(-1,-1) + R --(a x0y0, b)--> R
    # onto a minimal resolution; minimization cancels it entirely and
    # leaves the resolution entry for entry, augmentation included.  Over
    # QQ the pivot constants b and c are not +-1, so the kernel divides.
    q = Fraction
    cases = [(P11, (1, 1, 1)), (P11q, (q(2, 3), q(3, 2), q(5, 4)))]
    for R, (a, b, c) in cases:
        field, zm, xy = R.field, R.zero_mono, (1, 0, 1, 0)
        c2 = field.neg(field.mul(field.mul(a, c), field.inv(b)))
        M = ideal_presentation(R, irrelevant_gens(R))
        C = minimal_free_resolution(M)
        r0, r1 = C.terms[0].rank, C.terms[1].rank
        terms = [
            FreeModule(list(C.terms[0].gens) + [(0, 0)]),
            FreeModule(list(C.terms[1].gens) + [(1, 1), (0, 0)]),
            FreeModule(list(C.terms[2].gens) + [(1, 1)]),
        ]
        d1 = [dict(col) for col in C.diffs[0].cols]
        d1 += [{(r0, xy): a}, {(r0, zm): b}]
        d2 = [dict(col) for col in C.diffs[1].cols]
        d2 += [{(r1, zm): c, (r1 + 1, xy): c2}]
        # mix the summand in by the base change e0' = e0 + x^g e_{r1+1}
        # of F_1: column 0 of d1 gains x^g times the pivot column, and
        # every column of d2 gains row r1+1 entries, which minimize must
        # delete with the cancelled generator
        g = R.monomials(C.terms[1].gens[0])[0]
        d1[0] = vec_add(field, d1[0],
                        vec_mono_shift(field, d1[r1 + 1], g, field.one))
        for col in d2:
            col.update({(r1 + 1, mono_mul(e, g)): field.neg(cc)
                        for (r, e), cc in list(col.items()) if r == 0})
        aug = ModuleMap(R, terms[0], C.augmentation.target,
                        [dict(col) for col in C.augmentation.cols] + [{}])
        D = FreeComplex(R, terms, [
            ModuleMap(R, terms[1], terms[0], d1),
            ModuleMap(R, terms[2], terms[1], d2),
        ], augmentation=aug, module=M)
        assert D.composites_vanish()
        E = minimize(D)
        assert betti_table(E) == betti_table(C)
        assert [d.cols for d in E.diffs] == [d.cols for d in C.diffs]
        assert E.augmentation.cols == C.augmentation.cols
        assert_no_unit_entries(E)


def test_minimize_keeps_genuine_homology(P11):
    # R(-1,-1) + R --(x0y0, 1)--> R alone is quasi-isomorphic to a single
    # free rank-one summand in level one, and minimization exposes it
    one = P11.field.one
    F0 = FreeModule([(0, 0)])
    F1 = FreeModule([(1, 1), (0, 0)])
    phi = ModuleMap(P11, F1, F0, [{(0, (1, 0, 1, 0)): one},
                                  {(0, P11.zero_mono): one}])
    D = minimize(FreeComplex(P11, [F0, F1], [phi]))
    assert betti_table(D) == {1: [(1, 1)]}


# ------------------------------------------------- resolving R mod products


def test_irrelevant_resolution_shape(P11):
    C = irrelevant_resolution(P11, 1)
    assert [t.rank for t in C.terms] == [1, 4, 4, 1]
    assert C.terms[1].gens == ((1, 1),) * 4
    assert sorted(C.terms[2].gens) == [(1, 2), (1, 2), (2, 1), (2, 1)]
    assert C.terms[3].gens == ((2, 2),)
    assert C.composites_vanish()

    C2 = irrelevant_resolution(P11, 2)
    assert C2.terms[1].gens == ((2, 2),) * 4


def test_irrelevant_resolution_augmentation_ideal(P11):
    # the first differential's image is exactly the ideal of the products
    # x_i^nu y_j^nu, both inclusions checked by membership
    for nu in (1, 2):
        C = irrelevant_resolution(P11, nu)
        cols = C.diffs[0].cols
        target = [P11.var(i) ** nu * P11.var(2 + j) ** nu
                  for i in range(2) for j in range(2)]
        fm = FreeModule([(0, 0)])
        g_cols = buchberger(P11, fm, cols)
        g_tgt = buchberger(P11, fm, [vec_from_poly(f) for f in target])
        assert all(g_tgt.contains(c) for c in cols)
        assert all(g_cols.contains(vec_from_poly(f)) for f in target)


def test_irrelevant_resolution_windowed_exactness(P11):
    for nu in (1, 2):
        C = irrelevant_resolution(P11, nu)
        powers = [P11.var(i) ** nu * P11.var(2 + j) ** nu
                  for i in range(2) for j in range(2)]
        M = quotient_presentation(P11, powers)
        assert_windowed_resolution(C, M, square_window(-1, 4))


def test_irrelevant_resolution_on_p1xp2(P12):
    C = irrelevant_resolution(P12, 1)
    assert C.composites_vanish()
    M = quotient_presentation(P12, irrelevant_gens(P12))
    assert_windowed_resolution(C, M, square_window(0, 3))


def test_irrelevant_resolution_minimizes_to_minimal(P11):
    C = minimize(irrelevant_resolution(P11, 1))
    assert betti_table(C) == {
        0: [(0, 0)],
        1: [(1, 1)] * 4,
        2: [(1, 2), (1, 2), (2, 1), (2, 1)],
        3: [(2, 2)],
    }


def test_irrelevant_resolution_rejects_empty_block():
    R = make_ring(-1, 1)
    with pytest.raises(ValueError):
        irrelevant_resolution(R, 1)
