"""Closed-form cohomology of split line bundles on a product of two
projective spaces, and the staircase-vanishing regularity test for them.

Everything is exact integer arithmetic: factor cohomology comes from the
two classical formulas (sections for k >= 0, top-degree duals for
k <= -m-1), products from the binomial convolution over a+b = i.
"""

from fractions import Fraction

from .errors import InvalidSpace
from .regions import reg, region_contains, st_points
from .ring import _check_blocks, _compositions, sections_dim, top_dim


def serre_dim(m, k, a):
    """dim H^a of O(k) on a single projective space of dimension m; P^-1 is
    empty, so every group on it is 0."""
    if m < 0:
        return 0
    return (a == 0) * sections_dim(m, k) + (a == m) * top_dim(m, k)


def kunneth_dim(m, n, k, kp, i):
    """dim H^i of O(k,kp) on the (m,n) product space."""
    return sum(serre_dim(m, k, a) * serre_dim(n, kp, i - a)
               for a in range(max(0, i - n), min(m, i) + 1))


def chi(m, k):
    """Euler characteristic of O(k): the binomial C(k+m, m) continued to a
    polynomial in k, so it is signed for negative twists; 0 on the empty
    P^-1."""
    if m < -1:
        raise InvalidSpace("m must be an integer >= -1, got %d" % m)
    if m == -1:
        return 0
    num = Fraction(1)
    for j in range(1, m + 1):
        num *= Fraction(k + j, j)
    assert num.denominator == 1
    return int(num)


class LineBundleSum:
    """Direct sum of line bundles O(a,b) on a fixed product space, whose
    block dimensions lie in -1..ring.MAX_BLOCK like a ring's: far above
    it the closed forms would sum millions of Kunneth terms or build
    binomials of millions of digits."""

    def __init__(self, space, twists):
        self.space = (int(space[0]), int(space[1]))
        _check_blocks(*self.space)
        self.twists = [(int(a), int(b)) for a, b in twists]

    def __repr__(self):
        return "LineBundleSum(%r, %r)" % (self.space, self.twists)

    def cohomology_dim(self, i, k, kp):
        """dim H^i of this sum twisted by (k, kp)."""
        m, n = self.space
        return sum(kunneth_dim(m, n, k + a, kp + b, i)
                   for a, b in self.twists)


def sheaf_regularity_check(F, p, pp):
    """True iff H^i vanishes on the staircase St_i(p,pp) for i = 1..m+n."""
    m, n = F.space
    for i in range(1, m + n + 1):
        for k, kp in st_points(i, p, pp):
            if F.cohomology_dim(i, k, kp):
                return False
    return True


def sheaf_regularity_upset_check(F, p, pp, window):
    """Verify H^i vanishing over the full up-sets Reg_i(p,pp) in a window.

    Returns {"ok", "counterexample"}; the counterexample is (i, (k,kp), dim).
    """
    m, n = F.space
    k0, k1, l0, l1 = window
    for i in range(1, m + n + 1):
        R = reg(i, p, pp)
        for k in range(k0, k1 + 1):
            for kp in range(l0, l1 + 1):
                if not region_contains(R, k, kp):
                    continue
                dim = F.cohomology_dim(i, k, kp)
                if dim:
                    return {"ok": False, "counterexample": (i, (k, kp), dim)}
    return {"ok": True, "counterexample": None}

# ------------------------------------------------- section-space monomials


def h0_monomial_basis(m, c):
    """Monomial basis of the sections of O(c) on one factor, in increasing
    lex order; [] on the empty P^-1.

    A zero-dimensional factor is rigid: every twist of its structure sheaf
    is the structure sheaf, so the single basis element is the (possibly
    negative) Laurent power x0^c.
    """
    if m == 0:
        return [(c,)]
    if m < 0 or c < 0:
        return []
    return list(_compositions(c, m + 1))[::-1]


def h0_multiplication_surjective(F, k, kp, direction="x"):
    """Is H0(F(k-1,kp)) (x) H0(O(1,0)) -> H0(F(k,kp)) onto?  (direction "y"
    shifts the second coordinate instead.)

    Multiplication of monomials is monomial, so the image is spanned by the
    target monomials divisible by a variable of the moving block.  On a
    moving factor of dimension >= 1 only the constant, at twist 0, is not;
    a zero-dimensional one is a Laurent shift, onto.  So a summand fails
    exactly when its moving twist is 0 on a factor of dimension >= 1 and
    the other factor has sections (h0_monomial_basis): always when it is
    zero-dimensional, at twist >= 0 when larger, never when empty.
    """
    if direction not in ("x", "y"):
        raise ValueError("direction must be 'x' or 'y', got %r"
                         % (direction,))
    m, n = F.space
    for a, b in F.twists:
        moving, c, other, e = ((m, k + a, n, kp + b) if direction == "x"
                               else (n, kp + b, m, k + a))
        if moving >= 1 and c == 0 and (other == 0 or (other > 0 and e >= 0)):
            return False
    return True
