"""Bigraded regularity checks and the frontier of minimal regularity pairs.

Two independent routes to a verdict:

* the resolution route reads generator bidegrees off the minimal free
  resolution and tests them against the down-set regions; it is always
  exact and also produces the full frontier;
* the cohomological route evaluates graded pieces of local cohomology at
  the irrelevant ideal on the staircase sets attached to a candidate
  pair, so its verdict may come back undecided when the Ext limit fails
  to stabilize within the allotted power.

The cohomological checks import localcoh when they run, so the resolution
route does not load it.
"""

from collections import namedtuple

from .errors import ZeroModule
from .groebner import block_matrix, graded_piece, upset_nonvanishing_witness
from .linalg import rank_entries
from .modules import FreeModule, ModuleMap, Presentation
from .regions import dreg, reg, reg_double_prime, reg_prime, \
    region_contains, st_points
from .resolutions import betti_table, check_power, minimal_free_resolution
from .ring import _accumulate, make_ring

# value: True / False / None (undecided).  witnesses: triples
# (index, bidegree, dimension) exhibiting a failure.  undecided: cells the
# cohomological route could not certify.  certified is False exactly when
# undecided is nonempty.
RegularityVerdict = namedtuple(
    "RegularityVerdict", ["value", "witnesses", "undecided", "method",
                          "certified"])

RESOLUTION_CRITERION = "ResolutionCriterion"
LOCAL_COHOMOLOGY_CHECK = "LocalCohomologyCheck"


def module_betti(M):
    """Betti table {homological degree: sorted generator bidegrees} of the
    minimal free resolution, cached on the presentation."""
    if "betti" not in M._cache:
        C = minimal_free_resolution(M)
        M._cache["min_res"] = C
        M._cache["betti"] = betti_table(C)
    return M._cache["betti"]


def betti_multiplicities(betti):
    """{homological degree: {bidegree: multiplicity}} of a Betti table."""
    out = {}
    for d in sorted(betti):
        seen = {}
        for deg in betti[d]:
            seen[deg] = seen.get(deg, 0) + 1
        out[d] = seen
    return out


def strong_regularity_check(M, p, pp):
    """Decide strong (p, p')-regularity from the minimal free resolution.

    The module is strongly regular at (p, p') iff every generator
    bidegree in homological degree d lies in the down-set DReg_d(p, p').
    Witnesses list the offending (d, bidegree, multiplicity) triples.
    """
    witnesses = []
    for d, seen in betti_multiplicities(module_betti(M)).items():
        R = dreg(d, p, pp)
        for (a, b) in sorted(seen):
            if not region_contains(R, a, b):
                witnesses.append((d, (a, b), seen[(a, b)]))
    return RegularityVerdict(not witnesses, witnesses, [],
                             RESOLUTION_CRITERION, True)


def strong_regularity_frontier(M):
    """Minimal points of the set of strong regularity pairs.

    Each resolution bidegree e at homological degree d imposes
    p >= e_1 - d, p' >= e_2 - d and p + p' >= e_1 + e_2 - d, so the
    admissible set is an up-set cut out by the three maxima; its minimal
    points are either the single corner or a diagonal segment.
    """
    betti = module_betti(M)
    entries = [(d, a, b) for d in betti for (a, b) in betti[d]]
    if not entries:
        raise ZeroModule("the zero module has no regularity frontier")
    A = max(a - d for d, a, b in entries)
    B = max(b - d for d, a, b in entries)
    C = max(a + b - d for d, a, b in entries)
    if A + B >= C:
        return [(A, B)]
    return [(k, C - k) for k in range(A, C - B + 1)]


def weak_regularity_check(M, p, pp, require_edge_vanishing=False, nu_max=8):
    """Decide weak (p, p')-regularity through local cohomology.

    Degree 0 is exact: the torsion submodule must vanish on the shifted
    open quadrant (plus its two edge quadrants when
    require_edge_vanishing is set, the stronger hypothesis under which
    multiplication maps are onto).  Each higher degree i is tested at the
    finite staircase of the level-(i-1) region; cells whose Ext limit
    does not stabilize are reported as undecided rather than guessed.

    The edge variant is not implied by strong regularity at the same pair:
    R/B is strong at (0, 1), but its torsion R/B is K[y0, y1]_2 at (0, 2),
    inside RegDoublePrime(0, 1).  It is implied at (p+1, p'+1): weak at
    (p, p') kills the torsion on Reg_{-1}(p, p') = {k >= p+1, k' >= p'+1},
    which contains both edge quadrants of (p+1, p'+1).
    """
    from .localcoh import IRRELEVANT, h0_via_saturation, local_cohomology_dim
    check_power("nu_max", nu_max)
    ring = M.ring
    witnesses, undecided = [], []

    h0 = h0_via_saturation(M, IRRELEVANT)
    zones = [reg(-1, p, pp)]
    if require_edge_vanishing:
        zones.append(reg_prime(p, pp))
        zones.append(reg_double_prime(p, pp))
    seen = set()
    for zone in zones:
        w = upset_nonvanishing_witness(h0, zone)
        if w is not None and w not in seen:
            seen.add(w)
            witnesses.append((0, w, graded_piece(h0, w)[1]))

    for i in range(1, ring.m + ring.n + 3):
        for pt in st_points(i - 1, p, pp):
            val = local_cohomology_dim(M, IRRELEVANT, i, pt, nu_max=nu_max)
            if not val.certified:
                undecided.append((i, pt))
            elif val.dim:
                witnesses.append((i, pt, val.dim))

    if witnesses:
        value = False
    elif undecided:
        value = None
    else:
        value = True
    return RegularityVerdict(value, witnesses, undecided,
                             LOCAL_COHOMOLOGY_CHECK, not undecided)


def vc_window_verify(M, d, p, pp, window, nu_max=8):
    """Verify the three vanishing families of the level-d package on a
    finite window.

    Families: H^i at the x-ideal must vanish for k >= p+d+1-i (all k'),
    H^i at the y-ideal for k' >= p'+d+1-i (all k), and H^i at the sum
    ideal, totalled over antidiagonals, for k+k' >= p+p'+d+1-i.  Returns
    {"ok", "violations", "undecided"}; ok is None when nothing failed
    but some cell would not certify.
    """
    from .localcoh import X, XY_SUM, Y, local_cohomology_dim
    check_power("nu_max", nu_max)
    ring = M.ring
    k0, k1, l0, l1 = window
    violations, undecided = [], []

    def scan(kind, i, points, tag):
        total = 0
        for pt in points:
            val = local_cohomology_dim(M, kind, i, pt, nu_max=nu_max)
            if not val.certified:
                undecided.append((kind, i, tag if tag is not None else pt))
                return
            total += val.dim
        if total:
            violations.append((kind, i, tag if tag is not None else points[0],
                               total))

    for i in range(0, ring.m + 2):
        for k in range(max(k0, p + d + 1 - i), k1 + 1):
            for kp in range(l0, l1 + 1):
                scan(X, i, [(k, kp)], None)
    for i in range(0, ring.n + 2):
        for kp in range(max(l0, pp + d + 1 - i), l1 + 1):
            for k in range(k0, k1 + 1):
                scan(Y, i, [(k, kp)], None)
    for i in range(0, ring.m + ring.n + 3):
        for t in range(max(k0 + l0, p + pp + d + 1 - i), k1 + l1 + 1):
            pts = [(k, t - k) for k in range(k0, k1 + 1) if l0 <= t - k <= l1]
            if pts:
                scan(XY_SUM, i, pts, t)

    ok = False if violations else (None if undecided else True)
    return {"ok": ok, "violations": violations, "undecided": undecided}


def multiplication_surjectivity(M, frm, step):
    """True iff R_step * M_frm spans M_{frm + step}.

    Exact: the block matrix with one column block per monomial of
    bidegree step, multiplying M_frm into the target, has full row rank.
    """
    ring = M.ring
    da, db = step
    if da < 0 or db < 0:
        raise ValueError("step must be componentwise nonnegative")
    if graded_piece(M, (frm[0] + da, frm[1] + db))[1] == 0:
        return True
    monos = ring.monomials((da, db))
    entries, tdim, ncols = block_matrix(
        M, [(0, c, mono, ring.field.one) for c, mono in enumerate(monos)],
        [step], [(0, 0)] * len(monos), frm)
    return rank_entries(entries, tdim, ncols, ring.field) == tdim


# ------------------------------------------------- single-factor comparison


def _single_graded_reg(M, side):
    """max(total degree - homological degree) over the Betti table of a
    module living on a single factor; side picks which block carries it."""
    betti = module_betti(M)
    pos = 0 if side == "x" else 1
    return max(deg[pos] - d for d in betti for deg in betti[d])


def _collapse_presentation(M, drop_x):
    """Set the lone variable of a trivial block to 1 and regrade over the
    remaining block; right-exactness keeps the collapsed columns a
    presentation of the collapsed module."""
    ring = M.ring
    nx = ring.nx
    if drop_x:
        tgt = make_ring(-1, ring.n, field=ring.field)
        cut = lambda e: e[nx:]
        gdeg = lambda g: (0, g[1])
    else:
        tgt = make_ring(ring.m, -1, field=ring.field)
        cut = lambda e: e[:nx]
        gdeg = lambda g: (g[0], 0)
    f0 = FreeModule([gdeg(g) for g in M.f0.gens])
    cols = [_accumulate(tgt.field, {}, (((gi, cut(e)), c)
                                        for (gi, e), c in col.items()))
            for col in M.relations.cols]
    degs = [gdeg(src) for src in M.relations.source.gens]
    rels = ModuleMap(tgt, FreeModule(degs), f0, cols)
    return Presentation(tgt, f0, rels)


def classical_reduction_check(M):
    """Compare the frontier against single-graded regularity when one of
    the two factors is trivial or absent.

    With an absent block the Betti table is already single-graded and the
    frontier must be the single point carrying max(total - d) on the live
    coordinate.  With a one-variable block the module is regraded with
    that variable set to 1 and the collapsed regularity is compared with
    the matching frontier coordinate; a non-unique frontier or a collapse
    to zero leaves matched as None.
    """
    ring = M.ring
    report = {"side": None, "classical": None, "frontier": None,
              "matched": None, "note": ""}
    if ring.m >= 1 and ring.n >= 1:
        raise ValueError("both factors are nontrivial; nothing to reduce to")

    frontier = strong_regularity_frontier(M)
    report["frontier"] = frontier

    if ring.m == -1 or ring.n == -1:
        side = "y" if ring.m == -1 else "x"
        sample = M
    else:
        drop_x = ring.m == 0
        side = "y" if drop_x else "x"
        sample = _collapse_presentation(M, drop_x)
        if not module_betti(sample):
            report.update(side=side,
                          note="module collapses to zero on the live factor")
            return report
    report["side"] = side
    r = _single_graded_reg(sample, side)
    report["classical"] = r
    if len(frontier) != 1:
        report["note"] = "frontier is not a single point"
        return report
    coord = frontier[0][1] if side == "y" else frontier[0][0]
    report["matched"] = coord == r
    return report
