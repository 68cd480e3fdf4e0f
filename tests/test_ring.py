import math
import random

import pytest

from bigraded.errors import (BigradedError, EmptyRing, InvalidSpace,
                             NotBihomogeneous, ZeroPolynomial)
from bigraded.ring import (MAX_BLOCK, Poly, make_ring, mono_key, mono_mul,
                           sections_dim, top_dim)
from helpers import monomial_count, random_sparse_poly


def test_make_ring_shapes():
    R = make_ring(1, 1, 32003)
    assert R.names == ("x0", "x1", "y0", "y1")
    R2 = make_ring(0, 2, "q")
    assert R2.names == ("x0", "y0", "y1", "y2")
    assert R2.field.char == 0


def test_empty_ring_guard():
    with pytest.raises(EmptyRing):
        make_ring(-1, -1)


@pytest.mark.parametrize("m,n", [(-2, 1), (1, -2), (-5, -5)])
def test_block_dimension_below_minus_one(m, n):
    with pytest.raises(InvalidSpace) as err:
        make_ring(m, n)
    assert isinstance(err.value, BigradedError)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("m,n", [(MAX_BLOCK + 1, 1), (1, MAX_BLOCK + 1),
                                 (10 ** 8, 1)])
def test_block_dimension_above_the_limit(m, n):
    with pytest.raises(InvalidSpace, match="at most %d" % MAX_BLOCK):
        make_ring(m, n)


def test_largest_ring():
    R = make_ring(MAX_BLOCK, MAX_BLOCK)
    assert R.nvars == 2 * MAX_BLOCK + 2
    assert len(R.monomials((1, 1))) == (MAX_BLOCK + 1) ** 2


def test_monomials_returns_a_list_the_caller_may_mutate():
    R = make_ring(1, 1)
    for d in ((2, 1), (0, 0), (-1, 2)):
        want = R.monomials(d)
        got = R.monomials(d)
        assert got is not want
        got.reverse()
        got.append((9, 9, 9, 9))
        del got[0]
        assert R.monomials(d) == want


def test_degenerate_blocks():
    R = make_ring(-1, 1)  # no x variables at all
    assert R.names == ("y0", "y1")
    assert R.piece_dim(0, 3) == 4
    assert R.piece_dim(1, 3) == 0
    assert R.monomials((1, 1)) == []


def test_sections_and_top_dims_count_monomials():
    for m in range(-1, 4):
        for k in range(-8, 7):
            assert sections_dim(m, k) == monomial_count(m, k), (m, k)
            assert top_dim(m, k) == monomial_count(m, k, negative=True), \
                (m, k)


@pytest.mark.parametrize("m,n", [(1, 1), (0, 1), (1, 2), (2, 2)])
def test_piece_dim_matches_monomial_count(m, n):
    R = make_ring(m, n)
    for a in range(-2, 5):
        for b in range(-2, 5):
            want = 0
            if a >= 0 and b >= 0:
                want = math.comb(a + m, m) * math.comb(b + n, n)
            assert R.piece_dim(a, b) == want
            assert len(R.monomials((a, b))) == want


def test_bidegree_of_examples():
    R = make_ring(1, 1)
    x0, x1, y0, y1 = (R.var(i) for i in range(4))
    assert (x0 * y1 - x1 * y0).bidegree() == (1, 1)
    assert (x0 * x0 * y0 * y1).bidegree() == (2, 2)
    with pytest.raises(NotBihomogeneous):
        (x0 * x0 + y0 * y0).bidegree()
    with pytest.raises(ZeroPolynomial):
        R.zero().bidegree()


def test_poly_canonical_form_both_fields():
    # (p + q) - q == p for random sparse polynomials
    for field in (32003, "q"):
        R = make_ring(1, 1, field)
        rng = random.Random(11)
        for _ in range(25):
            p = random_sparse_poly(R, rng, (2, 1))
            q = random_sparse_poly(R, rng, (2, 1))
            assert (p + q) - q == p
            assert not (p - p).terms


def test_poly_pow():
    R = make_ring(1, 1)
    x0 = R.var(0)
    assert (x0 ** 3).terms == {(3, 0, 0, 0): R.field.one}
    assert (x0 ** 0) == R.one()
    with pytest.raises(ValueError):
        x0 ** -1


def test_mono_order_is_multiplicative_total():
    R = make_ring(1, 1)
    monos = R.monomials((2, 1)) + R.monomials((1, 2)) + [R.zero_mono]
    # total on each graded piece: distinct monomials have distinct keys
    keys = [mono_key(e) for e in R.monomials((2, 2))]
    assert len(set(keys)) == len(keys)
    # multiplicative: u < v implies wu < wv
    ws = R.monomials((1, 1))
    for u in monos:
        for v in monos:
            if mono_key(u) < mono_key(v):
                for w in ws:
                    assert mono_key(mono_mul(w, u)) < mono_key(mono_mul(w, v))
    # the constant monomial is minimal in its degree-block comparisons:
    # the smallest key is the largest monomial
    assert all(mono_key(R.zero_mono) >= mono_key(e) for e in R.monomials((1, 0)))


def test_monomials_sorted_descending():
    R = make_ring(1, 1)
    for d in [(2, 0), (1, 1), (2, 2)]:
        ms = R.monomials(d)
        assert ms == sorted(ms, key=mono_key)


def test_from_terms_merges_and_cancels():
    R = make_ring(1, 1)
    e = (1, 0, 1, 0)
    f = R.from_terms([(e, R.field.of(2)), (e, R.field.of(-2))])
    assert f.is_zero()
    g = R.from_terms([(e, R.field.of(2)), (e, R.field.of(3))])
    assert g.terms[e] == R.field.of(5)
