import itertools

import pytest

from bigraded.errors import BigradedError, InvalidSpace
from bigraded.regions import st_points
from bigraded.sheaf import (LineBundleSum, chi, h0_monomial_basis,
                            h0_multiplication_surjective, kunneth_dim,
                            serre_dim, sheaf_regularity_check,
                            sheaf_regularity_upset_check)
from helpers import (cech_line_bundle_dim,
                     enumerated_multiplication_surjective, monomial_count)


def test_serre_dim_examples():
    assert serre_dim(1, 3, 0) == 4
    assert serre_dim(1, -1, 1) == 0
    assert serre_dim(2, -3, 2) == 1


def test_serre_dim_matches_cech_oracle():
    for m in (0, 1, 2):
        for k in range(-6, 7):
            for a in range(0, m + 1):
                assert serre_dim(m, k, a) == cech_line_bundle_dim(m, k, a), \
                    (m, k, a)


def test_serre_dim_counts_monomials():
    # H^0 counts the monomials of degree k, H^m the Laurent monomials with
    # every exponent negative; the empty P^-1 has no cohomology at all
    for m in range(-1, 4):
        for k in range(-8, 7):
            for a in range(-1, m + 2):
                want = 0 if m < 0 else (
                    (a == 0) * monomial_count(m, k)
                    + (a == m) * monomial_count(m, k, negative=True))
                assert serre_dim(m, k, a) == want, (m, k, a)


def test_point_factor_is_rigid():
    # every twist on a zero-dimensional factor has a one-dimensional H^0
    for k in range(-5, 6):
        assert serre_dim(0, k, 0) == 1
        assert cech_line_bundle_dim(0, k, 0) == 1


def test_serre_duality():
    for m in range(0, 4):
        for k in range(-8, 9):
            for a in range(0, m + 1):
                assert serre_dim(m, k, a) == serre_dim(m, -k - m - 1, m - a)


def test_euler_characteristic_product():
    for m, n in ((1, 1), (1, 2), (2, 2), (0, 2), (-1, 1), (1, -1), (-1, 2)):
        for k in range(-6, 7):
            for kp in range(-6, 7):
                total = sum((-1) ** i * kunneth_dim(m, n, k, kp, i)
                            for i in range(0, m + n + 1))
                assert total == chi(m, k) * chi(n, kp)


def test_chi_is_the_alternating_sum_of_serre_dims():
    # P^-1 is empty: every group is 0, so chi is 0; below -1 is no space
    for m in range(-1, 4):
        for k in range(-8, 9):
            assert chi(m, k) == sum((-1) ** a * serre_dim(m, k, a)
                                    for a in range(0, m + 1)), (m, k)
    for k in (-1, 0, 1):
        with pytest.raises(InvalidSpace):
            chi(-2, k)


def test_kunneth_examples():
    assert kunneth_dim(1, 1, -1, -1, 1) == 0
    assert kunneth_dim(1, 1, 1, -2, 1) == 2
    assert kunneth_dim(1, 1, 0, 0, 0) == 1


def test_kunneth_matches_cech_product():
    for k in range(-3, 4):
        for kp in range(-3, 4):
            for i in range(0, 4):
                want = sum(cech_line_bundle_dim(1, k, a) *
                           cech_line_bundle_dim(2, kp, i - a)
                           for a in range(0, min(i, 1) + 1) if i - a <= 2)
                assert kunneth_dim(1, 2, k, kp, i) == want


def test_kunneth_vanishes_beyond_dimension():
    for k in range(-4, 5):
        for kp in range(-4, 5):
            assert kunneth_dim(1, 1, k, kp, 3) == 0
            assert kunneth_dim(1, 1, k, kp, -1) == 0


def test_structure_sheaf_regular_at_origin():
    F = LineBundleSum((1, 1), [(0, 0)])
    assert sheaf_regularity_check(F, 0, 0)


def test_twisted_bundle_regularity():
    F = LineBundleSum((1, 1), [(-1, 0)])
    assert sheaf_regularity_check(F, 1, 0)
    assert not sheaf_regularity_check(F, 0, 0)
    # the level-one staircase is clean; the failure sits at level two
    assert all(F.cohomology_dim(1, k, kp) == 0
               for k, kp in st_points(1, 0, 0))
    assert (-1, -2) in st_points(2, 0, 0)
    assert F.cohomology_dim(2, -1, -2) == 1


def test_point_factor_regularity_ignores_second_coordinate():
    for m in (1, 2):
        F = LineBundleSum((m, 0), [(0, 0)])
        assert all(sheaf_regularity_check(F, 0, pp) for pp in range(-3, 4))
        assert not sheaf_regularity_check(F, -1, 0)


def test_upset_check_structure_sheaf():
    F = LineBundleSum((1, 1), [(0, 0)])
    rep = sheaf_regularity_upset_check(F, 0, 0, (-6, 6, -6, 6))
    assert rep == {"ok": True, "counterexample": None}


def test_upset_check_reports_counterexample():
    F = LineBundleSum((1, 1), [(-1, 0)])
    rep = sheaf_regularity_upset_check(F, 0, 0, (-6, 6, -6, 6))
    assert not rep["ok"]
    i, (k, kp), dim = rep["counterexample"]
    assert F.cohomology_dim(i, k, kp) == dim and dim > 0


def test_split_sum_minimal_regular_points():
    # scan a window for the regularity up-set of the sum, take its minimal
    # elements, then verify full up-set vanishing from there
    F = LineBundleSum((1, 2), [(-2, -3), (0, -1)])
    window = [(p, pp) for p in range(-1, 6) for pp in range(-1, 6)]
    good = [q for q in window if sheaf_regularity_check(F, *q)]
    minimal = [q for q in good
               if not any(r != q and r[0] <= q[0] and r[1] <= q[1]
                          for r in good)]
    assert minimal == [(2, 3)]
    rep = sheaf_regularity_upset_check(F, 2, 3, (-4, 8, -4, 8))
    assert rep["ok"]


def test_upset_check_degenerate_factor():
    F = LineBundleSum((2, 0), [(0, 0)])
    for pp in (-2, 0, 3):
        rep = sheaf_regularity_upset_check(F, 0, pp, (-5, 5, -5, 5))
        assert rep["ok"]


@pytest.mark.parametrize("space", [(-2, 1), (1, -2), (-3, -3)])
def test_block_dimension_below_minus_one(space):
    # refused, not answered with an all-zero cohomology table
    with pytest.raises(InvalidSpace) as err:
        LineBundleSum(space, [(0, 0)])
    assert isinstance(err.value, BigradedError)
    assert isinstance(err.value, ValueError)


def test_section_monomial_basis():
    assert h0_monomial_basis(1, 2) == [(0, 2), (1, 1), (2, 0)]
    assert h0_monomial_basis(1, -1) == []
    assert h0_monomial_basis(0, -3) == [(-3,)]
    assert len(h0_monomial_basis(2, 3)) == 10
    for m in (1, 2, 3):
        for c in range(-1, 5):
            assert h0_monomial_basis(m, c) == sorted(
                u for u in itertools.product(range(c + 1), repeat=m + 1)
                if sum(u) == c)


def test_empty_block_has_no_sections():
    assert h0_monomial_basis(-1, 2) == []
    assert h0_monomial_basis(-1, 0) == []
    assert serre_dim(-1, 0, 0) == 0
    assert h0_multiplication_surjective(
        LineBundleSum((1, -1), [(0, 0)]), 1, 0)
    assert h0_multiplication_surjective(
        LineBundleSum((-1, 2), [(0, 0)]), 0, 0, "y")


def test_multiplication_direction_is_x_or_y():
    F = LineBundleSum((1, 1), [(0, 0)])
    for bad in ("z", "X", None):
        with pytest.raises(ValueError):
            h0_multiplication_surjective(F, 1, 1, bad)


def test_multiplication_closed_form_matches_enumeration():
    twist_sets = ([(0, 0)], [(-2, -3), (0, -1)], [(1, 0), (0, 2), (-1, -1)],
                  [(-1, 1), (2, -2)])
    for m in range(-1, 3):
        for n in range(-1, 3):
            for twists in twist_sets:
                F = LineBundleSum((m, n), twists)
                for k in range(-3, 4):
                    for kp in range(-3, 4):
                        for direction in ("x", "y"):
                            assert h0_multiplication_surjective(
                                F, k, kp, direction) == \
                                enumerated_multiplication_surjective(
                                    F, k, kp, direction), \
                                (m, n, twists, k, kp, direction)


def test_section_multiplication_surjectivity():
    F = LineBundleSum((1, 1), [(0, 0)])
    for k in range(1, 4):
        for kp in range(0, 4):
            assert h0_multiplication_surjective(F, k, kp, "x")
            assert h0_multiplication_surjective(F, kp, k, "y")
    # at the boundary the constant section is not a multiple of a variable
    assert not h0_multiplication_surjective(F, 0, 0, "x")

    # the moving coordinate must sit strictly above the base point; the
    # still coordinate may touch it
    G = LineBundleSum((1, 2), [(-2, -3), (0, -1)])
    for k in range(3, 6):
        for kp in range(3, 6):
            assert h0_multiplication_surjective(G, k, kp, "x")
    for k in range(2, 6):
        for kp in range(4, 7):
            assert h0_multiplication_surjective(G, k, kp, "y")
    assert not h0_multiplication_surjective(G, 3, 3, "y")
