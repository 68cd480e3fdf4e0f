import gc
import random
import time
import weakref
from fractions import Fraction

import pytest

from bigraded.cli import parse_input
from bigraded.errors import InvalidPower
from bigraded.groebner import (buchberger, graded_piece, ideal_presentation,
                               presentation_gb)
from bigraded.localcoh import (KINDS, _label_mono, _power_complex,
                               ideal_generators)
from bigraded.modules import (FreeModule, ModuleMap, Presentation,
                              free_presentation, quotient_presentation,
                              vec_add, vec_from_poly, vec_mono_shift)
from bigraded.regularity import module_betti, strong_regularity_frontier
from bigraded.resolutions import (FreeComplex, betti_table, homology_dims,
                                  irrelevant_resolution, koszul_complex,
                                  minimal_free_resolution, minimal_generators,
                                  minimize, schreyer_frame)
from bigraded.ring import make_ring, mono_mul
from conftest import (build_corpus, corpus_ideals, irrelevant_gens,
                      monomial_ideal)
from helpers import random_sparse_poly


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


def test_power_complexes_refuse_bad_input(P11):
    # indices name variables 0..nvars-1: a negative one is not counted
    # from the end, and a power below 1 would make the differentials units
    for bad in ([0, 7], [4], [-1]):
        with pytest.raises(ValueError):
            koszul_complex(P11, bad, 1)
    for build in (lambda nu: koszul_complex(P11, [0, 2], nu),
                  lambda nu: irrelevant_resolution(P11, nu)):
        for nu in (0, -1):
            with pytest.raises(InvalidPower):
                build(nu)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (0, 2), (2, 0)])
def test_every_power_complex_resolves_its_power_family(m, n):
    R = make_ring(m, n)
    for kind in KINDS:
        for nu in (1, 2):
            C = _power_complex(R, kind, nu)
            # the transition multiplies a generator by one copy of each
            # variable of its label, so the label's nu-th power must carry
            # the generator's bidegree
            for term, labels in zip(C.terms, C.gen_labels):
                assert list(term.gens) == [R.mono_bidegree(
                    [nu * e for e in _label_mono(R, U)]) for U in labels]
            powers = [f ** nu for f in ideal_generators(R, kind)]
            M = quotient_presentation(R, powers)
            # [-1, 3]^2 at nu = 1, [-1, 4]^2 at nu = 2
            window = square_window(-1, max(4, 2 * nu + 1))
            assert_windowed_resolution(C, M, window)


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
    assert_no_unit_entries(C)


def test_resolution_of_irrelevant_ideal(P11):
    M = ideal_presentation(P11, irrelevant_gens(P11))
    C = minimal_free_resolution(M)
    assert betti_table(C) == {
        0: [(1, 1)] * 4,
        1: [(1, 2), (1, 2), (2, 1), (2, 1)],
        2: [(2, 2)],
    }
    assert_no_unit_entries(C)
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


# ------------------------------------------------------------ Schreyer frame


def test_frame_is_a_resolution(corpus):
    for name in ["m[P1xP2]", "R/m", "minors2x3", "x0^2(y0,y1)^2"]:
        M = corpus[name]
        C = schreyer_frame(M)
        assert C.composites_vanish(), name
        assert_windowed_resolution(C, M, square_window(-1, 4))


# A rank-3 module on P1xP2 whose resolution never finished when each level
# was the kernel of the previous level's non-minimal generators: 47 for
# the 4 relations, then 68, then a third level still running after 60 s.
# Its Schreyer frame has 45, 114, 111, 45 and 6 elements.
P1XP2_DOC = """ring field=32003 m=1 n=2
module: gens=(0,0),(0,1),(1,1)
  rels: -49*x1*y1*e1 + 24*x0*y0*e1 + 38*e3;
    -45*x0*x1^2*y1*e1 - 50*x0^2*x1*e2 - 43*x1^3*e2;
    29*x1^3*y0^2*e1 - 21*x0^2*x1*y2^2*e1 - 44*x0^3*y1*y2*e1;
    -11*x1*y2*e2 - 16*x0*y0*e2 - 24*y0*e3 - 13*y1*e3;
    -12*x1*e2 + 64*x0*e2 + 68*e3
"""


def test_p1xp2_module_resolves_from_its_frame():
    t0 = time.perf_counter()
    M = parse_input(P1XP2_DOC)[1]
    C = minimal_free_resolution(M)
    assert betti_table(C) == {
        0: [(0, 0), (0, 1)],
        1: [(1, 1), (1, 2), (3, 1), (3, 2)],
        2: [(4, 7), (4, 7), (4, 8), (5, 3), (5, 4), (5, 6), (5, 6), (5, 6),
            (6, 4), (6, 5), (7, 3)],
        3: [(4, 9)] + [(5, 7)] * 5 + [(5, 8)] * 2 + [(6, 6)] * 6
           + [(7, 4)] + [(7, 5)] * 2,
        4: [(5, 9)] * 2 + [(6, 7)] * 4 + [(6, 8)] + [(7, 6)] * 3,
        5: [(6, 9), (7, 7)],
    }
    assert_no_unit_entries(C)
    assert C.composites_vanish()
    for a in range(-1, 9):
        for b in range(-1, 11):
            chi = sum((-1) ** i * t.piece_dim(M.ring, (a, b))
                      for i, t in enumerate(C.terms))
            assert chi == graded_piece(M, (a, b))[1], (a, b)
    assert time.perf_counter() - t0 < 10.0


def random_module(ring, rng, nrels):
    """Rank 3 on generators (0,0), (0,1), (1,1), with nrels relations of
    bidegrees (1,1) to (2,2): with probability 3/4, one to three random
    terms at each generator the bidegree reaches; a relation with no term
    is drawn again."""
    gens = [(0, 0), (0, 1), (1, 1)]
    cols, degs = [], []
    while len(cols) < nrels:
        D = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        col = {}
        for gi, (a, b) in enumerate(gens):
            monos = ring.monomials((D[0] - a, D[1] - b))
            if monos and rng.random() < 0.75:
                for _ in range(rng.randrange(1, 4)):
                    col[(gi, rng.choice(monos))] = rng.randrange(1, 32003)
        if col:
            cols.append(col)
            degs.append(D)
    f0 = FreeModule(gens)
    return Presentation(ring, f0, ModuleMap(ring, FreeModule(degs), f0, cols))


def test_seeded_random_modules_resolve(P11, P12):
    # every module the seed gives is kept; none is compared with an older
    # resolution: each is checked to be minimal, a complex, exact on a
    # window, and its Betti table not to move when the relations are
    # shuffled and rescaled
    t0 = time.perf_counter()
    rng = random.Random(20261019)
    for ring in (P11, P12):
        for t in range(6):
            M = random_module(ring, rng, 3 + t % 2)
            C = minimal_free_resolution(M)
            assert_no_unit_entries(C)
            assert_windowed_resolution(C, M, square_window(-1, 4))
            order = list(range(M.relations.source.rank))
            rng.shuffle(order)
            scales = [rng.randrange(1, 32003) for _ in order]
            cols = [{k: ring.field.mul(c, v)
                     for k, v in M.relations.cols[j].items()}
                    for j, c in zip(order, scales)]
            src = FreeModule([M.relations.source.gens[j] for j in order])
            N = Presentation(ring, M.f0, ModuleMap(ring, src, M.f0, cols))
            assert betti_table(minimal_free_resolution(N)) == betti_table(C)
    assert time.perf_counter() - t0 < 5.0


def test_ideal_betti_is_its_quotient_betti_shifted(P11, P12, P01):
    # 0 -> I -> R -> R/I -> 0: level k of I's minimal resolution is level
    # k + 1 of R/I's; only the ideal's presentation comes from a kernel
    t0 = time.perf_counter()
    cases = list(corpus_ideals(P11, P12, P01).values())
    rng = random.Random(20261019)
    for ring in (P11, P12):
        for _ in range(4):
            polys = [random_sparse_poly(ring, rng, (rng.randint(1, 2),
                                                    rng.randint(0, 2)),
                                        nterms=rng.randint(1, 4))
                     for _ in range(rng.randint(2, 4))]
            cases.append((ring, [f for f in polys if not f.is_zero()]))
    for ring, polys in cases:
        assert polys
        ideal = module_betti(ideal_presentation(ring, polys))
        quotient = module_betti(quotient_presentation(ring, polys))
        assert quotient[0] == [(0, 0)]
        assert {k - 1: v for k, v in quotient.items() if k} == ideal
    assert time.perf_counter() - t0 < 5.0


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
