"""Integer-lattice regions in the bidegree plane.

Five families, parametrized by an integer i and a base point (p, p'):

  St            finite staircase segment on the antidiagonal
  Reg           up-set cut out by k >= p-i, k' >= p'-i, k+k' >= p+p'-i-1
  RegPrime      quadrant (p+1, p') + Z+^2          (only i = -1)
  RegDoublePrime quadrant (p, p'+1) + Z+^2         (only i = -1)
  DReg          down-set k <= p+i, k' <= p'+i, k+k' <= p+p'+i

Regions are symbolic: membership is a closed-form test, and explicit point
lists exist only for St or for any kind clipped to a rectangular window
(kmin, kmax, lmin, lmax), all bounds inclusive.
"""

from .errors import InvalidRegion, NeedsWindow

ST = "St"
REG = "Reg"
REG_PRIME = "RegPrime"
REG_DOUBLE_PRIME = "RegDoublePrime"
DREG = "DReg"

_KINDS = (ST, REG, REG_PRIME, REG_DOUBLE_PRIME, DREG)


class Region:
    def __init__(self, kind, i, p, pp):
        if kind not in _KINDS:
            raise InvalidRegion("unknown region kind %r" % (kind,))
        if kind in (REG_PRIME, REG_DOUBLE_PRIME) and i != -1:
            raise InvalidRegion("%s only exists for i = -1" % kind)
        if kind == REG and i < -1:
            raise InvalidRegion("Reg requires i >= -1, got %d" % i)
        if kind == DREG and i < 0:
            raise InvalidRegion("DReg requires i >= 0, got %d" % i)
        self.kind = kind
        self.i = int(i)
        self.p = int(p)
        self.pp = int(pp)

    def __repr__(self):
        return "%s_%d(%d,%d)" % (self.kind, self.i, self.p, self.pp)

    def __eq__(self, other):
        return (isinstance(other, Region) and
                (self.kind, self.i, self.p, self.pp) ==
                (other.kind, other.i, other.p, other.pp))


def st(i, p=0, pp=0):
    return Region(ST, i, p, pp)


def reg(i, p=0, pp=0):
    return Region(REG, i, p, pp)


def reg_prime(p=0, pp=0):
    return Region(REG_PRIME, -1, p, pp)


def reg_double_prime(p=0, pp=0):
    return Region(REG_DOUBLE_PRIME, -1, p, pp)


def dreg(i, p=0, pp=0):
    return Region(DREG, i, p, pp)


def region_contains(R, k, kp):
    i, p, pp = R.i, R.p, R.pp
    r, s = k - p, kp - pp
    if R.kind == ST:
        if i > 0:
            return r + s == -i - 1 and r < 0 and s < 0
        return r + s == -i and r >= 0 and s >= 0
    if R.kind == DREG:
        return (k <= p + i and kp <= pp + i and k + kp <= p + pp + i)
    A, B, C = upset_bounds(R)
    return k >= A and kp >= B and (C is None or k + kp >= C)


def upset_bounds(R):
    """(A, B, C): the up-set {k >= A, k' >= B, k+k' >= C}; C may be None."""
    if R.kind == REG:
        return (R.p - R.i, R.pp - R.i, R.p + R.pp - R.i - 1)
    if R.kind == REG_PRIME:
        return (R.p + 1, R.pp, None)
    if R.kind == REG_DOUBLE_PRIME:
        return (R.p, R.pp + 1, None)
    raise InvalidRegion("%s is not an up-set" % R.kind)


def st_points(i, p=0, pp=0):
    """St_i(p,p') as an explicit lex-sorted list (i points for i>0, -i+1 else)."""
    if i > 0:
        pts = [(p + r, pp + (-i - 1 - r)) for r in range(-i, 0)]
    else:
        pts = [(p + r, pp + (-i - r)) for r in range(0, -i + 1)]
    return sorted(pts)


def region_points(R, window=None):
    if R.kind == ST:
        pts = st_points(R.i, R.p, R.pp)
        if window is not None:
            k0, k1, l0, l1 = window
            pts = [(k, kp) for k, kp in pts
                   if k0 <= k <= k1 and l0 <= kp <= l1]
        return pts
    if window is None:
        raise NeedsWindow("%s is infinite; supply a window" % R.kind)
    k0, k1, l0, l1 = window
    return [(k, kp)
            for k in range(k0, k1 + 1)
            for kp in range(l0, l1 + 1)
            if region_contains(R, k, kp)]


def region_ascii(R, window):
    """Window picture, rows k' descending, '#' member / '.' nonmember."""
    k0, k1, l0, l1 = window
    lines = []
    for kp in range(l1, l0 - 1, -1):
        lines.append("".join(
            "#" if region_contains(R, k, kp) else "."
            for k in range(k0, k1 + 1)))
    return "\n".join(lines)


def _window_points(window):
    k0, k1, l0, l1 = window
    return [(k, kp) for k in range(k0, k1 + 1) for kp in range(l0, l1 + 1)]


def region_shift_properties_check(i, p, pp, window):
    """Pointwise verification of the six shift/containment implications.

    Items quantified over the window; each item runs only where the two
    regions it mentions exist:
      1. St shift: only i >= 1 (the staircase changes shape at i <= 0)
      2. St_i subset of Reg_i: i >= 0
      3. Reg_i shift into Reg_{i+1}: i >= -1
      4. Reg monotone in the base point: i >= -1
      5. RegPrime shifts left into Reg_0: always
      6. RegDoublePrime shifts down into Reg_0: always
    Returns {"ok", "items", "counterexample"}; counterexample is
    (item number, point) for the first failure.
    """
    items = {}
    bad = None

    def run(num, pred, pts):
        nonlocal bad
        for pt in pts:
            if not pred(pt):
                items[num] = False
                if bad is None:
                    bad = (num, pt)
                return
        items[num] = True

    wpts = _window_points(window)

    if i >= 1:
        run(1, lambda pt: (region_contains(st(i + 1, p, pp), pt[0] - 1, pt[1]) and
                           region_contains(st(i + 1, p, pp), pt[0], pt[1] - 1)),
            st_points(i, p, pp))
    if i >= 0:
        run(2, lambda pt: region_contains(reg(i, p, pp), pt[0], pt[1]),
            st_points(i, p, pp))
    if i >= -1:
        Ri, Rnext = reg(i, p, pp), reg(i + 1, p, pp)
        run(3, lambda pt: (not region_contains(Ri, pt[0], pt[1])) or
                          (region_contains(Rnext, pt[0] - 1, pt[1]) and
                           region_contains(Rnext, pt[0], pt[1] - 1)),
            wpts)
        shifted = [reg(i, p + dq, pp + dqp)
                   for dq in range(3) for dqp in range(3)]
        run(4, lambda pt: all((not region_contains(Rq, pt[0], pt[1])) or
                              region_contains(Ri, pt[0], pt[1])
                              for Rq in shifted),
            wpts)
    R0 = reg(0, p, pp)
    run(5, lambda pt: (not region_contains(reg_prime(p, pp), pt[0], pt[1])) or
                      region_contains(R0, pt[0] - 1, pt[1]),
        wpts)
    run(6, lambda pt: (not region_contains(reg_double_prime(p, pp), pt[0], pt[1])) or
                      region_contains(R0, pt[0], pt[1] - 1),
        wpts)

    return {"ok": bad is None, "items": items, "counterexample": bad}
