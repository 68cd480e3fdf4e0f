import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bigraded import groebner
from bigraded.errors import PieceTooLarge
from bigraded.groebner import (GroebnerBasis, _by_position, _nf_table,
                               _reduce, block_matrix, buchberger,
                               column_syzygies, graded_piece,
                               ideal_presentation,
                               multiplication_matrix, normal_form,
                               presentation_gb, saturate, syzygies,
                               upset_nonvanishing_witness)
from bigraded.localcoh import IRRELEVANT, X, XY_SUM, Y, h0_via_saturation
from bigraded.modules import (FreeModule, ModuleMap, Presentation,
                              free_presentation, quotient_presentation,
                              vec_bidegree, vec_from_poly, vec_sub_shift)
from bigraded.regions import (reg, reg_double_prime, reg_prime,
                              region_contains)
from bigraded.resolutions import map_rank_at
from bigraded.ring import (_accumulate, make_ring, mono_div, mono_divides,
                           mono_lcm, mono_mul)
from conftest import irrelevant_gens, seeded_minors, seeded_minors_polys
from helpers import (max_scan_reduce, random_sparse_poly, schreyer_key,
                     span_piece_dim)

SRC = Path(__file__).resolve().parents[1] / "src"


def vec(p, gi=0):
    return vec_from_poly(p, gi)


def gb_of_polys(ring, polys):
    return buchberger(ring, FreeModule([(0, 0)]), [vec(f) for f in polys])


def test_monomial_ideals_self_groebner(P11):
    x0, x1 = P11.var(0), P11.var(1)
    G = gb_of_polys(P11, [x0 * x0, x0 * x1])
    assert len(G.elements) == 2
    assert all(len(g) == 1 for g in G.elements)
    G2 = gb_of_polys(P11, [x0 * P11.var(2)])
    assert len(G2.elements) == 1


def test_buchberger_completion():
    # under the x-block-first grevlex order the reduced basis is exactly
    # {x0y0, x1y0 - x0y1, x0^2 y1}; the S-pair step contributes the new
    # bidegree-(2,1) element, and x1*y0^2 lies in the ideal
    R = make_ring(1, 1)
    x0, x1, y0, y1 = (R.var(i) for i in range(4))
    G = gb_of_polys(R, [x0 * y1 - x1 * y0, x0 * y0])
    assert len(G.elements) == 3
    degs = sorted(vec_bidegree(R, [(0, 0)], g) for g in G.elements)
    assert degs == [(1, 1), (1, 1), (2, 1)]
    assert normal_form(vec(x1 * y0 * y0), G) == {}
    assert normal_form(vec(x0 * x0 * y1), G) == {}


def test_buchberger_flag_and_shuffle_invariance():
    # the chain criterion (on by default) must not change the reduced
    # basis: checked on an ideal, the seeded minors, and a submodule of a
    # rank-2 free module
    R = make_ring(1, 1)
    x0, x1, y0, y1 = (R.var(i) for i in range(4))
    polys = [x0 * y1 - x1 * y0, x0 * y0, x1 * y1 + x0 * y1]
    F2 = FreeModule([(0, 0), (1, 0)])
    rank2 = [_accumulate(R.field, vec(a, 0), vec(b, 1).items()) for a, b in [
        (x0 * y0 - x1 * y1, y0), (x1 * y0, y1 + y0),
        (x0 * x0 * y1, x1 * y0), (x0 * y1 * y1, y0 * y1)]]
    cases = [(FreeModule([(0, 0)]), [vec(f) for f in polys]),
             (FreeModule([(0, 0)]),
              [vec(f) for f in seeded_minors_polys(R)]),
             (F2, rank2)]
    rng = random.Random(3)
    for fm, vecs in cases:
        a = buchberger(R, fm, vecs)
        b = buchberger(R, fm, vecs, use_chain_criterion=False)
        assert a.elements == b.elements
        for _ in range(4):
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            c = buchberger(R, fm, shuffled)
            assert c.elements == a.elements


def test_buchberger_rejects_out_of_range_generator_index():
    R = make_ring(1, 1)
    fm = FreeModule([(0, 0)])
    for gi in (fm.rank, -1):
        with pytest.raises(ValueError, match="generator index"):
            buchberger(R, fm, [{(gi, (1, 0, 0, 0)): R.field.one}])


# Each probe runs a stored-zero input in a child process, so that a
# reduction that never ends fails the test at the timeout instead of
# hanging the suite.
STORED_ZERO_PROBE = """
from bigraded.groebner import buchberger, column_syzygies, normal_form
from bigraded.modules import FreeModule
from bigraded.ring import make_ring
R = make_ring(1, 1)
fm = FreeModule([(0, 0)])
a = {(0, (1, 0, 0, 1)): 1}
b = {(0, (2, 0, 1, 0)): 1}
c = {(0, (1, 1, 0, 1)): 1}
clean = [a, %(clean)s]
noisy = [a, %(noisy)s]
G = buchberger(R, fm, noisy)
assert G.elements == buchberger(R, fm, clean).elements, G.elements
assert normal_form(%(noisy)s, G) == {}
got = column_syzygies(R, fm, noisy)
want = column_syzygies(R, fm, clean)
assert (got.cols, got.source.gens) == (want.cols, want.source.gens)
print("ok")
"""


@pytest.mark.parametrize("clean, noisy", [
    # a zero on a term divisible by a lead: _reduce never ended
    ("b", "{**b, (0, (1, 1, 0, 1)): 0}"),
    # a zero on the lead term: field.inv(0) raised ValueError
    ("c", "{**c, (0, (2, 0, 1, 0)): 0}"),
], ids=["zero-on-reducible-term", "zero-on-lead-term"])
def test_stored_zero_coefficients_are_dropped_on_entry(clean, noisy):
    _run_probe(STORED_ZERO_PROBE % {"clean": clean, "noisy": noisy})


def _run_probe(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


# normal_form divides by the stored leads: a basis given with non-monic
# elements (here 2*x0, and 2*x0 + 4*x1) must be stored monic, or the
# reduction never ends
NON_MONIC_PROBE = """
from bigraded.groebner import GroebnerBasis, normal_form
from bigraded.modules import FreeModule
from bigraded.ring import make_ring
R = make_ring(1, 1)
fm = FreeModule([(0, 0)])
x0, x1, x0x1, x1sq = [(0, e) for e in
                      ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))]
G = GroebnerBasis(R, fm, [{x0: 2}])
assert normal_form({x0: 1}, G) == {}
assert normal_form({x0x1: 3, x1sq: 5}, G) == {x1sq: 5}
H = GroebnerBasis(R, fm, [{x0: 2, x1: 4, x0x1: 0}, {}])
assert (H.elements, H.leads) == ([{x0: 1, x1: 2}], [x0])
assert normal_form({x0: 1}, H) == {x1: R.field.of(-2)}
print("ok")
"""


def test_normal_form_on_non_monic_basis_terminates():
    _run_probe(NON_MONIC_PROBE)


def _random_vec(rng, field, nterms, maxexp, rank):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(maxexp + 1) for _ in range(4))
        out[(rng.randrange(rank), e)] = field.of(rng.randrange(1, 7))
    return out


def _reentries(history):
    """Terms that left the work dict and later came back."""
    seen, gone, back = set(), set(), set()
    for keys in history:
        back |= gone & keys
        gone |= seen - keys
        seen |= keys
    return back


@pytest.mark.parametrize("spec", [7, 32003, "q"], ids=["GF7", "GF32003",
                                                       "QQ"])
def test_heap_reduce_matches_max_scan_oracle(spec):
    # remainder and trace agree with the max-scan division term by term
    # and in dict order, traced and untraced, on one to three positions;
    # some inputs make a term cancel and later re-enter; the inputs are
    # left untouched.  From case 200 on, each position i carries a random
    # shift monomial s_i, as on a Schreyer frame level: _reduce on the
    # shifted copies (x^a e_i written as x^a s_i e_i), shifted back, must
    # be the max-scan division under the Schreyer order itself, which on
    # some of these inputs differs from the plain term order
    field = make_ring(1, 1, field=spec).field
    rng = random.Random("reduce-%s" % spec)
    reentered = reordered = 0
    for case in range(400):
        rank = 1 + case // 2 % 2 + (case >= 200)
        shifts = [(0,) * 4] * rank
        if case >= 200:
            shifts = [tuple(rng.randrange(3) for _ in range(4))
                      for _ in range(rank)]
        key = schreyer_key(shifts)

        def shift(v, sign=1):
            return {(gi, tuple(a + sign * b for a, b in zip(e, shifts[gi]))):
                    c for (gi, e), c in v.items()}

        elements, leads = [], []
        for _ in range(rng.randrange(1, 6)):
            g = _random_vec(rng, field, rng.randrange(1, 10), 1, rank)
            lt = max(g, key=key)
            inv = field.inv(g[lt])
            elements.append({t: field.mul(inv, c) for t, c in g.items()})
            leads.append(lt)
        f = _random_vec(rng, field, rng.randrange(1, 12), 3, rank)
        traced = case % 2 == 0
        exprs = expr = None
        if traced:
            exprs = [_random_vec(rng, field, 3, 1, len(elements))
                     for _ in elements]
            expr = _random_vec(rng, field, 3, 1, len(elements))
        f0, expr0 = dict(f), expr and dict(expr)
        history = []
        want = max_scan_reduce(field, f, elements, leads, exprs, expr,
                               history, key)
        rem, trace = _reduce(field, shift(f), [shift(g) for g in elements],
                             _by_position([(gi, mono_mul(u, shifts[gi]))
                                           for gi, u in leads]), exprs, expr)
        got = shift(rem, -1), trace
        assert (f, expr) == (f0, expr0)
        assert [list(v.items()) for v in got if v is not None] == \
            [list(v.items()) for v in want if v is not None], case
        assert (got[1] is None) == (not traced)
        reentered += bool(_reentries(history))
        reordered += want != max_scan_reduce(field, f, elements, leads,
                                             exprs, expr)
    assert reentered >= 5 and reordered >= 20


def test_buchberger_spair_postcondition(P11):
    # every S-vector of basis pairs reduces to zero
    gens = irrelevant_gens(P11)
    G = gb_of_polys(P11, gens)
    field = P11.field
    els = G.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            (gi, ei), (gj, ej) = G.leads[i], G.leads[j]
            assert els[i][G.leads[i]] == els[j][G.leads[j]] == field.one
            if gi != gj:
                continue
            l = mono_lcm(ei, ej)
            s = {}
            vec_sub_shift(field, s, els[i], mono_div(l, ei),
                          field.neg(field.one))
            vec_sub_shift(field, s, els[j], mono_div(l, ej), field.one)
            assert normal_form(s, G) == {}


def test_normal_form_examples(P11):
    x0, x1, y0, y1 = (P11.var(i) for i in range(4))
    G = gb_of_polys(P11, [x0 * y0])
    assert normal_form(vec(x0 * x0 * y0), G) == {}
    assert normal_form(vec(x0 * x1 * y0 * y1), G) == {}
    nf = normal_form(vec(x1 * x1 * y1 * y1), G)
    assert nf == vec(x1 * x1 * y1 * y1)
    big = gb_of_polys(P11, irrelevant_gens(P11))
    for g in big.elements:
        assert normal_form(dict(g), big) == {}
    assert normal_form({}, big) == {}


def test_graded_piece_standard_monomials(P11):
    Q = quotient_presentation(P11, irrelevant_gens(P11))
    basis, dim = graded_piece(Q, (2, 0))
    assert dim == 3 and len(basis) == 3
    # standard monomials at (2,0) are the pure x-monomials
    assert all(sum(e[2:]) == 0 for gi, e in basis)
    assert graded_piece(Q, (1, 1))[1] == 0


def test_syzygies_examples(P11):
    x0, x1 = P11.var(0), P11.var(1)
    G1 = gb_of_polys(P11, [x0])
    assert syzygies(G1).source.rank == 0
    G2 = gb_of_polys(P11, [x0, x1])
    S = syzygies(G2)
    assert S.source.rank == 1
    assert S.source.gens == ((2, 0),)
    col = S.cols[0]
    # the Koszul relation x1*e0 - x0*e1 up to sign
    assert set(col) == {(0, (0, 1, 0, 0)), (1, (1, 0, 0, 0))}
    assert P11.field.add(col[(0, (0, 1, 0, 0))],
                         col[(1, (1, 0, 0, 0))]) == P11.field.zero

    # generators that are not a Groebner basis: one Koszul relation
    y0, y1 = P11.var(2), P11.var(3)
    F0 = FreeModule([(0, 0)])
    gens = [vec(x0 * y0 + x1 * y1), vec(x0 * y1)]
    Sn = syzygies(GroebnerBasis(P11, F0, gens))
    assert Sn.source.gens == ((2, 2),)
    assert_generates_kernel(Sn, ModuleMap(P11, Sn.target, F0, gens))

    Gm = gb_of_polys(P11, irrelevant_gens(P11))
    Sm = syzygies(Gm)
    assert sorted(Sm.source.gens) == [(1, 2), (1, 2), (2, 1), (2, 1)]
    # composing evaluation with the syzygy map gives zero
    for col in Sm.cols:
        acc = {}
        for (gi, e), c in col.items():
            vec_sub_shift(P11.field, acc, Gm.elements[gi], e, P11.field.neg(c))
        assert acc == {}


def assert_generates_kernel(sigma, phi):
    """sigma: S -> F1 maps into the kernel of phi: F1 -> F0 and onto it on
    a window around phi's source degrees: rank sigma_d = dim F1_d - rank
    phi_d.  Holds for any generating set, however it was chosen."""
    ring = phi.ring
    assert sigma.target == phi.source
    for col in sigma.cols:
        assert phi.apply(col) == {}
    gens = phi.source.gens or ((0, 0),)
    for a in range(min(g[0] for g in gens), max(g[0] for g in gens) + 3):
        for b in range(min(g[1] for g in gens), max(g[1] for g in gens) + 3):
            d = (a, b)
            assert map_rank_at(sigma, d) == (
                phi.source.piece_dim(ring, d) - map_rank_at(phi, d)), d


def assert_syzygies_generate(ring, F0, cols, degs):
    phi = ModuleMap(ring, FreeModule(degs), F0, cols)
    assert_generates_kernel(column_syzygies(ring, F0, cols, degs), phi)
    G = buchberger(ring, F0, cols)
    S = syzygies(G)
    assert_generates_kernel(S, ModuleMap(ring, S.target, F0, G.elements))


def test_syzygies_generate_the_kernel_on_the_corpus(corpus):
    for name, M in corpus.items():
        rel = M.relations
        if rel.source.rank:
            assert_syzygies_generate(M.ring, M.f0, rel.cols, rel.source.gens)


def random_columns(ring, rng, gens):
    """Three to five random bihomogeneous columns over the free module on
    gens, and at random places a zero column, a repeat of one of them, a
    scalar multiple of it, a variable times it and a constant column."""
    field = ring.field
    cols, degs = [], []
    for _ in range(rng.randint(3, 5)):
        d = (rng.randint(1, 3), rng.randint(0, 2))
        col = {}
        for gi, (ga, gb) in enumerate(gens):
            e = (d[0] - ga, d[1] - gb)
            if min(e) >= 0 and rng.random() < 0.7:
                col.update(vec_from_poly(random_sparse_poly(
                    ring, rng, e, nterms=rng.randint(1, 3)), gi))
        cols.append(col)
        degs.append(d)
    k = rng.randrange(len(cols))
    v = rng.randrange(ring.nvars)
    x_v = tuple(int(i == v) for i in range(ring.nvars))
    dv = ring.mono_bidegree(x_v)
    extras = [({}, (2, 1)), (dict(cols[k]), degs[k]),
              ({t: field.mul(field.of(3), c) for t, c in cols[k].items()},
               degs[k]),
              ({(gi, mono_mul(e, x_v)): c for (gi, e), c in cols[k].items()},
               (degs[k][0] + dv[0], degs[k][1] + dv[1])),
              ({(0, ring.zero_mono): field.of(5)}, gens[0])]
    for col, d in extras:
        i = rng.randint(0, len(cols))
        cols.insert(i, col)
        degs.insert(i, d)
    return cols, degs


@pytest.mark.parametrize("spec", [32003, 7, "q"], ids=["GF32003", "GF7", "QQ"])
def test_syzygies_generate_the_kernel_on_random_columns(spec):
    rng = random.Random(1801)
    for n in (1, 2):
        ring = make_ring(1, n, field=spec)
        for gens in ([(0, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1)]):
            F0 = FreeModule(gens)
            for _ in range(3):
                cols, degs = random_columns(ring, rng, gens)
                assert_syzygies_generate(ring, F0, cols, degs)


def test_ideal_presentation_shape(P11):
    gens = irrelevant_gens(P11)
    I = ideal_presentation(P11, gens)
    assert I.f0.gens == ((1, 1),) * 4
    assert sorted(I.relations.source.gens) == [(1, 2), (1, 2), (2, 1), (2, 1)]
    I.relations.check()


def test_presentation_gb_detects_membership(P11):
    x0, y0, y1 = P11.var(0), P11.var(2), P11.var(3)
    Q = quotient_presentation(P11, [x0 * y0, x0 * y1])
    gb = presentation_gb(Q)
    assert gb.contains(vec(x0 * y0 * y0))
    assert not gb.contains(vec(x0 * x0))


def test_saturation_examples(P11):
    x0, y0, y1 = P11.var(0), P11.var(2), P11.var(3)
    R = free_presentation(P11, [(0, 0)])
    mg = irrelevant_gens(P11)
    assert graded_piece(saturate(R, mg), (0, 0))[1] == 0
    assert all(graded_piece(saturate(R, mg), d)[1] == 0
               for d in [(1, 0), (2, 3)])

    Q = quotient_presentation(P11, [x0 * y0, x0 * y1])
    T = saturate(Q, mg)
    assert graded_piece(T, (1, 0))[1] == 1     # the class of x0 is torsion
    T2 = saturate(T, mg)
    window = [(a, b) for a in range(0, 4) for b in range(0, 4)]
    for d in window:
        assert graded_piece(T2, d)[1] == graded_piece(T, d)[1]


def test_upset_vanishing_examples(P11):
    mg = irrelevant_gens(P11)
    Q = quotient_presentation(P11, mg)
    assert upset_nonvanishing_witness(Q, reg(-1, 0, 0)) is None
    R = free_presentation(P11, [(0, 0)])
    assert upset_nonvanishing_witness(R, reg(-1, 0, 0)) is not None
    x0, x1 = P11.var(0), P11.var(1)
    A = quotient_presentation(P11, [x0, x1])
    assert upset_nonvanishing_witness(A, reg_prime(0, 0)) is None
    # windowed brute-force agreement beyond the corner
    for M, U in [(Q, reg(-1, 0, 0)), (A, reg_prime(0, 0)),
                 (R, reg(-1, 2, 2))]:
        brute = all(graded_piece(M, (k, kp))[1] == 0
                    for k in range(-1, 9) for kp in range(-1, 9)
                    if region_contains(U, k, kp))
        assert (upset_nonvanishing_witness(M, U) is None) == brute


def test_upset_witness_is_real(P11):
    R = free_presentation(P11, [(0, 0)])
    w = upset_nonvanishing_witness(R, reg(-1, 0, 0))
    assert w is not None
    assert region_contains(reg(-1, 0, 0), *w)
    assert graded_piece(R, w)[1] > 0
    Q = quotient_presentation(P11, irrelevant_gens(P11))
    assert upset_nonvanishing_witness(Q, reg(-1, 0, 0)) is None


def _upset_regions():
    """Reg_i for i = -1..4 (C binds from i = 1 at most base points) and
    both edge quadrants, over base points (p, p') in -2..3."""
    out = []
    for p in range(-2, 4):
        for pp in range(-2, 4):
            out += [reg(i, p, pp) for i in range(-1, 5)]
            out += [reg_prime(p, pp), reg_double_prime(p, pp)]
    return out


def _random_monomial_quotient(ring, rng):
    polys = [ring.monomial(tuple(rng.randint(0, 3) for _ in range(ring.nvars)))
             for _ in range(rng.randint(1, 4))]
    Q = quotient_presentation(ring, [f for f in polys if f.bidegree() != (0, 0)])
    return Q.twist(rng.randint(-2, 2), rng.randint(-2, 2))


def test_upset_witness_agrees_with_brute_force(corpus, P11):
    # the window reaches past every corner and clamp these modules and
    # regions produce, and every witness must be a live bidegree in it
    rng = random.Random(1501)
    rings = [P11, make_ring(0, 1), make_ring(-1, 1), make_ring(1, -1)]
    mods = [corpus[name] for name in ("R(-2,1)", "m[P1xP2]", "R/m",
                                      "x0^2(y0,y1)^3", "minors2x3")]
    mods += [_random_monomial_quotient(ring, rng)
             for ring in rings for _ in range(3)]
    # three generators, one of them killed by y0^2 and entangled with x0
    x0, x1, y0, y1 = (P11.var(v) for v in range(4))
    F = FreeModule([(0, 0), (1, 0), (0, 1)])
    rels = [_accumulate(P11.field, vec(x0 * y0), vec(-y0, 1).items()),
            vec(x1 * x1, 1),
            _accumulate(P11.field, vec(x0, 2), vec(-y1, 1).items()),
            vec(y0 * y0, 2)]
    mods.append(Presentation(P11, F, ModuleMap(
        P11, FreeModule([vec_bidegree(P11, F.gens, r) for r in rels]), F,
        rels)))
    window = [(k, kp) for k in range(-6, 14) for kp in range(-6, 14)]
    queries = 0
    for M in mods:
        for T in [M] + [h0_via_saturation(M, kind)
                        for kind in (IRRELEVANT, X, Y, XY_SUM)]:
            live = [d for d in window if graded_piece(T, d)[1]]
            for U in _upset_regions():
                w = upset_nonvanishing_witness(T, U)
                brute = any(region_contains(U, *d) for d in live)
                assert (w is not None) == brute, (T, U, w)
                if w is not None:
                    assert region_contains(U, *w) and w in live
                queries += 1
    assert queries == len(mods) * 5 * 8 * 36


def test_upset_check_is_fast_on_p9xp9():
    # 20 variables: a cover indexed by variable subsets has 2^20 of them,
    # while the corner test builds one graded piece per zone
    t0 = time.monotonic()
    R = make_ring(9, 9)
    M = quotient_presentation(R, [R.var(v) for v in range(10)])
    assert upset_nonvanishing_witness(M, reg(-1, 0, 0)) is None
    assert upset_nonvanishing_witness(M, reg_double_prime(0, 0)) == (0, 1)
    assert time.monotonic() - t0 < 1.0


def test_upset_clamp_above_piece_limit_is_refused():
    # R/(x0^3..x9^3) over P9 x P1 at Reg_-1(40, 0): the clamp (21, 1) holds
    # C(30, 9) * 2, about 2.9e7 monomials, and is refused before listing
    t0 = time.monotonic()
    R = make_ring(9, 1)
    M = quotient_presentation(R, [R.var(v) ** 3 for v in range(10)])
    with pytest.raises(PieceTooLarge, match=r"bidegree \(21,1\)"):
        upset_nonvanishing_witness(M, reg(-1, 40, 0))
    assert time.monotonic() - t0 < 1.0


def test_upset_check_cost_does_not_grow_with_i(P11):
    # On Reg_i(i, i) the antidiagonal k + k' = i - 1 binds and holds i
    # points; only its clamps are tested, a number fixed by the leads.
    x0, x1, y0, y1 = (P11.var(v) for v in range(4))
    pieces = []
    for i in (10 ** 3, 10 ** 6):
        t0 = time.monotonic()
        M = quotient_presentation(P11, [x0 ** 3, x1 ** 3, y0 ** 2, y1 ** 2])
        assert upset_nonvanishing_witness(M, reg(i, i, i)) is None
        pieces.append(sum(key[0] == "piece" for key in M._cache))
        N = quotient_presentation(P11, [x0 ** 3, x1 ** 3])
        assert upset_nonvanishing_witness(N, reg(i, i, i)) == (0, i - 1)
        assert time.monotonic() - t0 < 0.5
    assert pieces[0] == pieces[1] <= 10


def _check_against_normal_form(M, window):
    """multiplication_matrix equals the per-monomial normal form of
    x^mono * e for every standard e and every mono of bidegree (1,0),
    (0,1), (1,1); every table row lies on standard monomials."""
    ring = M.ring
    gb = presentation_gb(M)
    leads = gb.leads
    checked = 0
    for d in window:
        for step in ((1, 0), (0, 1), (1, 1)):
            for mono in ring.monomials(step):
                entries, tgt, src = multiplication_matrix(M, mono, d)
                cols = {}
                for r, ci, c in entries:
                    assert c != 0
                    assert tgt[r] not in cols.setdefault(ci, {})
                    cols[ci][tgt[r]] = c
                for ci, (gi, e) in enumerate(src):
                    shifted = {(gi, tuple(a + f for a, f in zip(e, mono))):
                               ring.field.one}
                    assert cols.get(ci, {}) == normal_form(shifted, gb)
                    checked += 1
        basis, _ = graded_piece(M, d)
        table = _nf_table(M, d)
        assert set(table) == set(M.f0.piece_basis(ring, d))
        for idx, _co in table.values():
            for r in idx:
                gi, e = basis[r]
                assert not any(lgi == gi and mono_divides(lu, e)
                               for lgi, lu in leads)
    assert checked > 0


def test_multiplication_matrix_consistency(P11):
    x0, y0 = P11.var(0), P11.var(2)
    Q = quotient_presentation(P11, [x0 * y0])
    mono = (1, 0, 0, 0)  # multiply by x0
    entries, tgt, src = multiplication_matrix(Q, mono, (1, 1))
    assert len(src) == graded_piece(Q, (1, 1))[1]
    assert len(tgt) == graded_piece(Q, (2, 1))[1]
    # x0 * (x0 y1) = x0^2 y1 stays standard; x0 * (x1 y0) = x0 x1 y0 reduces
    _check_against_normal_form(Q, [(1, 1)])


def test_multiplication_matrix_matches_normal_forms_minors(P11):
    M = seeded_minors(P11)
    assert M.f0.rank == 3
    _check_against_normal_form(
        M, [(a, b) for a in range(1, 5) for b in range(1, 5)])


def test_multiplication_matrix_matches_normal_forms_torsion(P11):
    x0, y0, y1 = P11.var(0), P11.var(2), P11.var(3)
    M = quotient_presentation(P11, [x0 * x0, y0 * y0 * y1])
    _check_against_normal_form(
        M, [(a, b) for a in range(0, 4) for b in range(0, 5)])


def test_multiplication_matrix_matches_normal_forms_rationals(P11q):
    x0, x1, y0, y1 = (P11q.var(i) for i in range(4))
    polys = [x0 * y1 - (x1 * y0).scale(Fraction(3, 2)),
             x0 * x0 * y0 + (x1 * x1 * y1).scale(Fraction(-2, 7)),
             x1 * y1 * y1]
    M = ideal_presentation(P11q, polys)
    _check_against_normal_form(
        M, [(a, b) for a in range(0, 4) for b in range(0, 4)])


def test_block_matrix_reuses_repeated_blocks(P11, monkeypatch):
    # block columns 0 and 2 share a bidegree, so every multiplier out of them
    # repeats a (mono, source bidegree) key; the first three blocks also
    # recur verbatim, and a repeated block adds up
    M = seeded_minors(P11)
    ring = M.ring
    d = (2, 2)
    col_gens = [(0, 0), (1, 0), (0, 0), (0, 1)]
    row_gens = [(1, 1), (2, 1), (1, 1)]
    blocks = []
    for r, (ra, rb) in enumerate(row_gens):
        for c, (ca, cb) in enumerate(col_gens):
            if ra >= ca and rb >= cb:
                for k, mono in enumerate(ring.monomials((ra - ca, rb - cb))):
                    blocks.append((r, c, mono, 1 + r + 3 * c + 5 * k))
    blocks += blocks[:3]

    calls = []
    real = groebner.multiplication_matrix

    def counted(M, mono, d):
        calls.append((mono, d))
        return real(M, mono, d)

    monkeypatch.setattr(groebner, "multiplication_matrix", counted)
    entries, nrows, ncols = block_matrix(M, blocks, row_gens, col_gens, d)
    assert len(calls) == len(set(calls)) == len(
        {(mono, col_gens[c]) for _r, c, mono, _co in blocks}) < len(blocks)

    def offsets(gens):
        out = [0]
        for a, b in gens:
            out.append(out[-1] + graded_piece(M, (d[0] + a, d[1] + b))[1])
        return out

    rowoff, coloff = offsets(row_gens), offsets(col_gens)
    want = []
    for r, c, mono, coeff in blocks:
        a, b = col_gens[c]
        ents = real(M, mono, (d[0] + a, d[1] + b))[0]
        want += [(rowoff[r] + i, coloff[c] + j, coeff * v) for i, j, v in ents]
    assert want and entries == want
    assert (nrows, ncols) == (rowoff[-1], coloff[-1])


def test_span_oracle_cross_check(P11):
    # Groebner graded pieces match the span oracle on a non-monomial ideal
    x0, x1, y0, y1 = (P11.var(i) for i in range(4))
    polys = [x0 * y1 - x1 * y0, x0 * x0 * y0]
    I = ideal_presentation(P11, polys)
    for a in range(0, 5):
        for b in range(0, 4):
            assert graded_piece(I, (a, b))[1] == \
                span_piece_dim(P11, polys, (a, b))
