"""Graded pieces of local cohomology supported at the four monomial ideals
of the bigraded ring: the two coordinate ideals, their sum, and the
irrelevant ideal generated by the cross products x_i y_j.

H^i is computed as the limit over nu of Ext^i against R modulo the nu-th
power family, read off a Koszul or tensor resolution K_nu.  Every matrix
here is a block matrix of multiplication maps between graded pieces of M,
built by groebner.block_matrix.  The limit is chased explicitly: the
comparison chain maps (diagonal multiplication by one copy of each
variable a generator mentions) induce the transition maps T on Ext, and a
value is certified once two consecutive transitions are isomorphisms.  A
transition between Ext spaces of equal dimension is one iff it is
injective, and the rank of the stacked matrix
[[delta_i, 0], [T, delta'_{i-1}]] decides that: it counts the cocycles T
sends to coboundaries (_transition_is_iso).  Degree 0 never uses the
limit; it is answered exactly by saturation.

From a known power on, the chase needs no matrix (Eisenbud-Mustata-
Stillman, JSC 29, 2000).  For a free R(-g) and e = d - g, let
nu*(e) = max(1, -e_x - m, -e_y - n).  The x-block transition on the top
Koszul cohomology, (R/(x^nu))_{e + nu(m+1)} -> (R/(x^(nu+1)))_{e +
(nu+1)(m+1)}, is multiplication by x0...xm; it is always injective, and
onto iff no monomial of that degree with every exponent at most nu misses
a variable, i.e. iff nu >= -e_x - m.  The y-block is symmetric, the sum
ideal needs both, and the irrelevant ideal follows by Mayer-Vietoris and
the five lemma.  With F_. a free resolution of M, the double complexes
Hom(K_nu, F_.) compute Ext against M, and a map of double complexes that
is an isomorphism on the cohomology of every column is one on the total
cohomology.  So every transition at d is an isomorphism once nu >=
nu0(d), the largest nu*(d - g) over the generators g of a resolution.

_stable_power bounds nu0 from the leads of the Groebner basis alone,
with no resolution (La Scala-Stillman, JSC 26, 1998): the degrees of
Schreyer's resolution (resolutions.schreyer_frame) follow from the leads
by the child rule resolutions.frame_children, an element of lead u and
degree g having a child of degree g + deg q for each of its q.
nu*(d - g) only grows with g, so the bound is nu*(d - G) for G the
componentwise largest degree in the frame.

Every cache here, power complexes included, lives on the presentation M:
a Ring caches only its monomial lists (Ring), so reference counting alone
frees a ring and all that was computed over it.
"""

from collections import namedtuple
from operator import add

from .errors import InvalidIndex
from .groebner import block_matrix, graded_piece, presentation_gb, saturate
from .linalg import rank_entries
from .resolutions import (check_power, frame_children, irrelevant_resolution,
                          koszul_complex)
from .ring import mono_lcm, sections_dim, top_dim
from .sheaf import kunneth_dim

X = "x"
Y = "y"
XY_SUM = "sum"
IRRELEVANT = "irr"

KINDS = (X, Y, XY_SUM, IRRELEVANT)

LocalCohomologyValue = namedtuple(
    "LocalCohomologyValue", ["dim", "stabilized_at", "certified"])


def _kind_variables(ring, kind):
    """The variables whose powers generate the kind's power family; for the
    irrelevant ideal, the two blocks whose products do, or none when a
    block is empty and the ideal is zero."""
    xs, ys = range(ring.nx), range(ring.nx, ring.nvars)
    table = {X: xs, Y: ys, XY_SUM: range(ring.nvars),
             IRRELEVANT: range(ring.nvars) if xs and ys else ()}
    if kind not in table:
        raise ValueError("unknown ideal kind %r" % (kind,))
    return table[kind]


def ideal_generators(ring, kind):
    vs = _kind_variables(ring, kind)
    if kind == IRRELEVANT:
        return [ring.var(v) * ring.var(w) for v in vs if v < ring.nx
                for w in vs if w >= ring.nx]
    return [ring.var(v) for v in vs]


def _power_complex(M, kind, nu):
    """Free resolution of R modulo the nu-th power family, with gen_labels,
    cached on the presentation M (module docstring); the Koszul complex on
    no variables, R alone, resolves the zero ideal."""
    key = ("lc_complex", kind, nu)
    if key not in M._cache:
        ring, vs = M.ring, _kind_variables(M.ring, kind)
        M._cache[key] = (irrelevant_resolution(ring, nu)
                         if kind == IRRELEVANT and vs
                         else koszul_complex(ring, vs, nu))
    return M._cache[key]


def _label_mono(ring, label):
    """One copy of each variable a generator label mentions (its diagonal
    support): the transition multiplies that generator by this monomial."""
    return tuple(int(v in label) for v in range(ring.nvars))


def complex_length(ring, kind):
    """Length of the power complex on the kind's c variables: c, or c - 1
    for a nonzero irrelevant ideal."""
    vs = _kind_variables(ring, kind)
    return len(vs) - (kind == IRRELEVANT and bool(vs))

# ----------------------------------------------------- cochain linear algebra


def _cochain_dim(M, gens, d):
    return sum(graded_piece(M, (d[0] + a, d[1] + b))[1] for a, b in gens)


def _hom_blocks(phi, r0=0, c0=0):
    """Blocks of Hom(phi, M), shifted by (r0, c0): entry (alpha, mono) of
    column beta of phi multiplies block column alpha into block row beta."""
    return [(r0 + beta, c0 + alpha, mono, c)
            for beta, col in enumerate(phi.cols)
            for (alpha, mono), c in col.items()]


def _delta_rank(M, kind, nu, i, d):
    """Rank of Hom(d_{i+1}, M) at bidegree d, the map out of the i-th
    cochain space."""
    key = ("lc_rank", kind, nu, i, d)
    if key not in M._cache:
        phi = _power_complex(M, kind, nu).diffs[i]
        entries, nrows, ncols = block_matrix(
            M, _hom_blocks(phi), phi.source.gens, phi.target.gens, d)
        M._cache[key] = rank_entries(entries, nrows, ncols, M.ring.field)
    return M._cache[key]


def ext_graded_dim(M, kind, i, d, nu):
    """Dimension of the degree-d piece of Ext^i against R mod the nu-th
    power family, plus the list of cochain-space dimensions."""
    ring = M.ring
    if i < 0 or i > ring.m + ring.n + 2:
        raise InvalidIndex("cohomological index %d out of range" % i)
    check_power("nu", nu)
    C = _power_complex(M, kind, nu)
    dims = [_cochain_dim(M, term.gens, d) for term in C.terms]
    top = len(C.terms) - 1
    if i > top:
        return 0, dims
    r_out = _delta_rank(M, kind, nu, i, d) if i < top else 0
    r_in = _delta_rank(M, kind, nu, i - 1, d) if i >= 1 else 0
    return dims[i] - r_out - r_in, dims

# ------------------------------------------------------------ transition maps


def _transition_is_iso(M, kind, i, d, nu, hs):
    """Does the transition Ext_nu -> Ext_{nu+1} at (i, d), i >= 1, hit
    bijectively?

    With delta, delta' the cochain differentials at nu and nu+1 and T the
    transition on i-th cochains, the stacked matrix
    [[delta_i, 0], [T, delta'_{i-1}]] has kernel {(v, u) : delta_i v = 0,
    T v = -delta'_{i-1} u}.  Projecting to v, with fiber ker delta'_{i-1},
    gives W = {v in ker delta_i : T v in im delta'_{i-1}} of dimension
    dim C^i - rank + rank delta'_{i-1} (so the sign of the delta' block,
    -delta' in the mapping cone, does not matter).  W contains
    im delta_{i-1} and equals it exactly when T kills no class, i.e. is
    injective, which for equal dimensions on both sides means bijective.
    """
    ring, field = M.ring, M.ring.field
    for s in (nu, nu + 1):
        if s not in hs:
            hs[s] = ext_graded_dim(M, kind, i, d, s)[0]
    if hs[nu] != hs[nu + 1]:
        return False
    if hs[nu] == 0:
        return True
    Ca = _power_complex(M, kind, nu)
    inc = _power_complex(M, kind, nu + 1).diffs[i - 1]
    out = Ca.diffs[i:i + 1]              # delta_i; there is none at the top
    above = out[0].source.gens if out else ()
    cols = Ca.terms[i].gens
    blocks = [b for phi in out for b in _hom_blocks(phi)]
    blocks += [(len(above) + a, a, _label_mono(ring, label), field.one)
               for a, label in enumerate(Ca.gen_labels[i])]
    blocks += _hom_blocks(inc, len(above), len(cols))
    entries, nrows, ncols = block_matrix(
        M, blocks, above + inc.source.gens, cols + inc.target.gens, d)
    w = (_cochain_dim(M, cols, d) - rank_entries(entries, nrows, ncols, field)
         + _delta_rank(M, kind, nu + 1, i - 1, d))
    return w == _delta_rank(M, kind, nu, i - 1, d)


def _frame_walk(ring, top, base, leads):
    """Raise top to every frame degree below leads, whose parent is at base."""
    hull = list(leads)                          # lcm of each suffix
    for j in range(len(hull) - 2, -1, -1):
        hull[j] = mono_lcm(hull[j], hull[j + 1])
    for j, u in enumerate(leads):
        a, b = ring.mono_bidegree(hull[j])
        if base[0] + a <= top[0] and base[1] + b <= top[1]:
            return
        deg = tuple(map(add, base, ring.mono_bidegree(u)))
        top[:] = map(max, top, deg)
        _frame_walk(ring, top, deg, [q for q, _k in frame_children(leads, j)])


def _frame_top(M):
    """Componentwise largest bidegree of the Schreyer frame on the basis
    leads (module docstring), () when M.f0 has no generator.  Walked depth
    first; an element and its later siblings are skipped once the lcm of
    their full monomials, which bounds every descendant, cannot raise it."""
    if "lc_frame_top" not in M._cache:
        top = list(map(max, zip(*M.f0.gens)))
        for k, same in presentation_gb(M).at.items():
            _frame_walk(M.ring, top, M.f0.gens[k],
                        sorted((u for _j, u in same), reverse=True))
        M._cache["lc_frame_top"] = tuple(top)
    return M._cache["lc_frame_top"]


def _stable_power(M, d):
    """A power from which every transition at d is an isomorphism:
    nu*(d - G), an upper bound for nu0(d) (see the module docstring)."""
    top = _frame_top(M)
    if not top:
        return 1
    return max(1, top[0] - d[0] - M.ring.m, top[1] - d[1] - M.ring.n)


def h0_via_saturation(M, kind):
    """Presentation of the degree-0 local cohomology: the torsion submodule."""
    key = ("h0", kind)
    if key not in M._cache:
        M._cache[key] = saturate(M, ideal_generators(M.ring, kind))
    return M._cache[key]


def local_cohomology_dim(M, kind, i, d, nu_max=8):
    """Stable dimension of the degree-d piece of H^i supported at the given
    monomial ideal.  Certified when two consecutive transition maps in the
    Ext limit are isomorphisms; degree 0 is exact via saturation.

    The transition Ext_s -> Ext_{s+1} at d is an isomorphism once s >=
    nu0(d) = max over the generators g of a free resolution of M of
    nu*(d - g), nu*(e) = max(1, -e_x - m, -e_y - n): the double complexes
    Hom(K_s, F_.) compare column by column, and on a free column R(-g) the
    transition is multiplication by the product of one copy of each
    variable, onto from s >= nu*(d - g) on.  _stable_power bounds nu0 from
    above by the degrees of the Schreyer resolution, read off the leads of
    the Groebner basis (Eisenbud, Commutative Algebra, Thm 15.10; La
    Scala-Stillman, JSC 26, 1998; module docstring), and the chase sets
    each transition from that bound on to True without building its
    matrix.  That is the value the rank test would return, so the chase
    stops at the same power, reads the same dimension there and certifies
    the same cells: the skip saves work and changes no answer, and a cell
    the chase stops at below nu0 is certified exactly as before.
    """
    ring = M.ring
    if i < 0 or i > ring.m + ring.n + 2:
        raise InvalidIndex("cohomological index %d out of range" % i)
    check_power("nu_max", nu_max)
    d = (int(d[0]), int(d[1]))
    if i == 0:
        H0 = h0_via_saturation(M, kind)
        return LocalCohomologyValue(graded_piece(H0, d)[1], 0, True)
    if i > complex_length(ring, kind):
        return LocalCohomologyValue(0, 1, True)
    stable = _stable_power(M, d)
    hs = {}
    iso = {}
    for t in range(1, nu_max - 1):
        for s in (t, t + 1):
            if s not in iso:
                iso[s] = s >= stable or _transition_is_iso(
                    M, kind, i, d, s, hs)
        if iso[t] and iso[t + 1]:
            if t not in hs:
                hs[t] = ext_graded_dim(M, kind, i, d, t)[0]
            return LocalCohomologyValue(hs[t], t, True)
    if nu_max not in hs:
        hs[nu_max] = ext_graded_dim(M, kind, i, d, nu_max)[0]
    return LocalCohomologyValue(hs[nu_max], None, False)


def lc_table(M, kind, i, window, nu_max=8):
    """Grid of local cohomology dimensions over a window.

    dims rows run over k ascending, columns over k' ascending; cells that
    failed to certify are listed separately, not raised."""
    check_power("nu_max", nu_max)
    k0, k1, l0, l1 = window
    dims, uncert = [], []
    for k in range(k0, k1 + 1):
        row = []
        for kp in range(l0, l1 + 1):
            val = local_cohomology_dim(M, kind, i, (k, kp), nu_max=nu_max)
            row.append(val.dim)
            if not val.certified:
                uncert.append((k, kp))
        dims.append(row)
    return {"i": i, "window": tuple(window), "dims": dims,
            "uncertified": uncert}

# ------------------------------------------------------- free-module oracle


def free_lc_dim(kind, i, twist, d, space):
    """Closed-form local cohomology of the twisted free module R(a,b).

    Coordinate-ideal kinds live in the single top degree (block dimension
    plus one) as Laurent-monomial counts; the irrelevant ideal routes
    through sheaf cohomology one index down, with degenerate blocks
    collapsing to the identity on the torsion-free part."""
    m, n = space
    k, kp = d[0] + twist[0], d[1] + twist[1]
    if kind == X:
        return top_dim(m, k) * sections_dim(n, kp) if i == m + 1 else 0
    if kind == Y:
        return sections_dim(m, k) * top_dim(n, kp) if i == n + 1 else 0
    if kind == XY_SUM:
        return top_dim(m, k) * top_dim(n, kp) if i == m + n + 2 else 0
    if kind == IRRELEVANT:
        if m < 0 or n < 0:
            return sections_dim(m, k) * sections_dim(n, kp) if i == 0 else 0
        return kunneth_dim(m, n, k, kp, i - 1) if i >= 2 else 0
    raise ValueError("unknown ideal kind %r" % (kind,))
