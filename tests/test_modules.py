import pytest

from bigraded.errors import NotBihomogeneous, ZeroPolynomial
from bigraded.groebner import graded_piece, ideal_presentation
from bigraded.modules import (FreeModule, ModuleMap, Presentation,
                              free_presentation, quotient_presentation,
                              vec_bidegree, vec_from_poly)
from bigraded.resolutions import map_rank_at
from bigraded.ring import _accumulate
from conftest import irrelevant_gens
from helpers import quotient_piece_dim, rank_over, span_piece_dim


def test_free_module_piece_dims(P11):
    F = FreeModule([(0, 0), (1, 2)])
    assert F.rank == 2
    # dim at (1,2) = dim R_{1,2} + dim R_{0,0} = 6 + 1
    assert F.piece_dim(P11, (1, 2)) == 7
    basis = F.piece_basis(P11, (1, 2))
    assert len(basis) == 7
    assert (1, P11.zero_mono) in basis


def test_vec_bidegree_validation(P11):
    x0, y0 = P11.var(0), P11.var(2)
    gens = [(0, 0), (1, 0)]
    u = vec_from_poly(x0 * y0)                 # gen 0, degree (1,1)
    assert vec_bidegree(P11, gens, u) == (1, 1)
    v = dict(u)
    v[(1, P11.zero_mono)] = P11.field.one      # adds a (1,0) term
    with pytest.raises(NotBihomogeneous):
        vec_bidegree(P11, gens, v)
    with pytest.raises(ZeroPolynomial):
        vec_bidegree(P11, gens, {})


def test_module_map_check_and_compose(P11):
    x0, x1 = P11.var(0), P11.var(1)
    F1 = FreeModule([(1, 0), (1, 0)])
    F0 = FreeModule([(0, 0)])
    d1 = ModuleMap(P11, F1, F0, [vec_from_poly(x0), vec_from_poly(x1)]).check()
    F2 = FreeModule([(2, 0)])
    koszul_col = {(0, (0, 1, 0, 0)): P11.field.one,        # x1 * e0
                  (1, (1, 0, 0, 0)): P11.field.of(-1)}     # -x0 * e1
    d2 = ModuleMap(P11, F2, F1, [koszul_col]).check()
    comp = d1.compose(d2)
    assert comp.is_zero()
    # degree compatibility survives composition by construction
    comp.check()


def test_module_map_check_rejects_bad_degree(P11):
    x0 = P11.var(0)
    F1 = FreeModule([(2, 0)])          # claims the column has bidegree (2,0)
    F0 = FreeModule([(0, 0)])
    bad = ModuleMap(P11, F1, F0, [vec_from_poly(x0)])
    with pytest.raises(NotBihomogeneous):
        bad.check()


@pytest.mark.parametrize("ring", ["P11", "P11q"])
def test_map_rank_at_matches_apply(ring, request):
    R = request.getfixturevalue(ring)
    x0, x1, y0, y1 = (R.var(v) for v in range(4))
    F1 = FreeModule([(1, 1), (1, 1), (2, 1)])
    F0 = FreeModule([(0, 0), (1, 0)])
    cols = [_accumulate(R.field, vec_from_poly(x0 * y0),
                        vec_from_poly(y1, 1).items()),
            _accumulate(R.field, vec_from_poly((x1 * y0).scale(3)),
                        vec_from_poly(y0, 1).items()),
            # x1 * cols[0] - x0 * cols[1]: the map has a kernel from (2, 1)
            _accumulate(R.field, vec_from_poly((x0 * x1 * y0).scale(-2)),
                        vec_from_poly(x1 * y1 - x0 * y0, 1).items())]
    phi = ModuleMap(R, F1, F0, cols).check()
    for d in [(0, 0), (1, 1), (2, 1), (2, 2), (3, 2), (1, 3)]:
        # the matrix column of a source monomial is its image under apply
        rows = F0.piece_basis(R, d)
        matrix = [[0] * len(rows) for _ in range(F1.piece_dim(R, d))]
        for ci, t in enumerate(F1.piece_basis(R, d)):
            img = phi.apply({t: R.field.one})
            for ri, u in enumerate(rows):
                matrix[ci][ri] = img.get(u, 0)
        assert map_rank_at(phi, d) == rank_over(matrix, R.field)


def test_presentation_dims_against_span_oracle(P11):
    gens = irrelevant_gens(P11)
    Q = quotient_presentation(P11, gens)
    window = [(a, b) for a in range(0, 4) for b in range(0, 4)]
    for d in window:
        assert graded_piece(Q, d)[1] == quotient_piece_dim(P11, gens, d)
    I = ideal_presentation(P11, gens)
    for d in window:
        assert graded_piece(I, d)[1] == span_piece_dim(P11, gens, d)


def test_quotient_presentation_examples(P11):
    x0, y0 = P11.var(0), P11.var(2)
    M = quotient_presentation(P11, [x0 * y0])
    assert graded_piece(M, (1, 1))[1] == 3     # 4 monomials minus one lead
    R = free_presentation(P11, [(0, 0)])
    assert graded_piece(R, (2, 1))[1] == 6
    Q = quotient_presentation(P11, irrelevant_gens(P11))
    assert graded_piece(Q, (1, 1))[1] == 0
    assert graded_piece(Q, (2, 0))[1] == 3


def test_twist_shifts_pieces(P11):
    R = free_presentation(P11, [(0, 0)])
    T = R.twist(1, 1)
    assert graded_piece(T, (0, 0))[1] == P11.piece_dim(1, 1) == 4
    T2 = R.twist(2, 0)
    assert graded_piece(T2, (-2, 0))[1] == 1
    # double twist is the identity on graded pieces
    M = quotient_presentation(P11, [P11.var(0) * P11.var(2)])
    MT = M.twist(2, -1).twist(-2, 1)
    for d in [(0, 0), (1, 1), (2, 2), (3, 1)]:
        assert graded_piece(MT, d)[1] == graded_piece(M, d)[1]
    assert MT.f0.gens == M.f0.gens


def test_twisted_map_degree_compatible(P11):
    # twisting a presentation keeps its relation map degree compatible
    M = quotient_presentation(P11, irrelevant_gens(P11))
    M.twist(3, -2).relations.check()
