"""Independent oracles for the test suite.

Everything here recomputes mathematical facts from first principles --
explicit Cech cochain complexes, dense row reduction, direct monomial
spans -- sharing no linear algebra or Groebner machinery with the
package, so package outputs can be checked against a second
implementation.  Five exceptions are kept as references for faster
kernels: unskipped_local_cohomology_dim, the transition chase without
the stable-power skip; schreyer_frame_levels and taylor_top, the
unpruned Schreyer frame and the Taylor bound it replaced, both read off
the leads of the package's Groebner basis; max_scan_reduce, the division
that rescans for the largest term on every step instead of keeping a
heap, with schreyer_key, the Schreyer order of a frame level compared
term by term instead of in shifted coordinates; min_scan_rank, the
sparse rank that scans each row for its lowest column on every step
instead of keeping a heap; and
enumerated_multiplication_surjective, the section-multiplication test
that walks the monomial bases its closed form replaced.  The graded
local duality of dual_complex and duality_sum_dims also runs on the
package's resolutions and ranks, but on none of the power complexes
and saturations it checks.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from bigraded.groebner import presentation_gb
from bigraded.localcoh import (LocalCohomologyValue, _transition_is_iso,
                               ext_graded_dim)
from bigraded.modules import FreeModule, ModuleMap
from bigraded.resolutions import FreeComplex, homology_dims


def binom(n, k):
    """Binomial coefficient, zero outside Pascal's triangle."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


# ------------------------------------------------------- dense exact ranks


def rank_fraction(rows):
    """Rank over Q by fraction-free-ish Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    if not rows:
        return 0
    ncols = len(rows[0])
    pr = 0
    for c in range(ncols):
        piv = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = 1 / rows[pr][c]
        rows[pr] = [v * inv for v in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pr += 1
        rank += 1
    return rank


def rank_modp(rows, p):
    """Rank over F_p by Gaussian elimination on integer rows."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    if not rows:
        return 0
    ncols = len(rows[0])
    pr = 0
    for c in range(ncols):
        piv = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = pow(rows[pr][c], p - 2, p)
        rows[pr] = [v * inv % p for v in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[pr])]
        pr += 1
        rank += 1
    return rank


def rank_over(rows, field):
    """Dispatch on the coefficient field's characteristic."""
    if field.char == 0:
        return rank_fraction(rows)
    return rank_modp([[int(x) for x in r] for r in rows], field.char)


# ------------------------------------------------ Cech cohomology oracle


def _cochain_ranks(nverts, neg):
    """Cohomology dims of the Cech cochain complex restricted to one
    Laurent monomial: cochains live on the overlaps U_S with
    neg <= S <= {0..nverts-1}, graded by |S| - 1, with the alternating
    restriction differential."""
    verts = range(nverts)
    levels = []
    for p in range(nverts):
        levels.append([frozenset(S)
                       for S in itertools.combinations(verts, p + 1)
                       if neg <= set(S)])
    dims = [len(level) for level in levels]
    ranks = []
    for p in range(nverts - 1):
        src, tgt = levels[p], levels[p + 1]
        tindex = {S: i for i, S in enumerate(tgt)}
        rows = [[0] * len(src) for _ in tgt]
        for j, S in enumerate(src):
            for v in verts:
                if v in S:
                    continue
                T = S | {v}
                if T not in tindex:
                    continue
                sign = (-1) ** sorted(T).index(v)
                rows[tindex[T]][j] = sign
        ranks.append(rank_fraction(rows) if src and tgt else 0)
    out = []
    for p in range(nverts):
        below = ranks[p - 1] if p >= 1 else 0
        above = ranks[p] if p < len(ranks) else 0
        out.append(dims[p] - below - above)
    return out


def cech_line_bundle_dim(m, k, a):
    """dim H^a(P^m, O(k)) from explicit Cech cochain ranks.

    The Cech complex on the standard cover splits over Laurent monomials
    of total degree k; the monomial with exponent vector e appears on
    exactly the overlaps U_S with {i : e_i < 0} contained in S.  Degrees
    are bounded: a contributing exponent vector has every entry in
    [k - m... no entry below k - m when all entries are negative, nor
    above k when all are nonnegative], so the sweep over the box below
    is exhaustive.
    """
    if a < 0 or a > m:
        return 0
    nverts = m + 1
    bound = abs(k) + m + 1
    total = 0
    for e in itertools.product(range(-bound, bound + 1), repeat=nverts):
        if sum(e) != k:
            continue
        neg = {i for i, ei in enumerate(e) if ei < 0}
        # mixed-sign vectors give exact (cone) complexes; skipping them
        # is an optimization only, correctness is re-checked by the
        # all-vectors slow path in the oracle self-test
        if neg and len(neg) != nverts:
            continue
        total += _cochain_ranks(nverts, neg)[a]
    return total


def cech_line_bundle_dim_slow(m, k, a):
    """Same as cech_line_bundle_dim but ranks every exponent vector in
    the box, including the mixed-sign ones (oracle self-check)."""
    if a < 0 or a > m:
        return 0
    nverts = m + 1
    bound = abs(k) + m + 1
    total = 0
    for e in itertools.product(range(-bound, bound + 1), repeat=nverts):
        if sum(e) != k:
            continue
        neg = {i for i, ei in enumerate(e) if ei < 0}
        total += _cochain_ranks(nverts, neg)[a]
    return total


# ------------------------------------------------------ monomial counting


def monomial_count(m, k, negative=False):
    """Exponent vectors of m + 1 entries summing to k, every entry >= 0
    (every entry <= -1 when negative), counted one by one; with m = -1
    the empty vector, of degree 0, is the only one."""
    box = range(k, 0) if negative else range(0, k + 1)
    return sum(1 for e in itertools.product(box, repeat=m + 1) if sum(e) == k)


def _section_monomials(m, c):
    """Monomial basis of H0(O(c)) on P^m, enumerated: the Laurent power
    x0^c on a point, none on the empty P^-1."""
    if m == 0:
        return [(c,)]
    return [e for e in itertools.product(range(c + 1), repeat=m + 1)
            if sum(e) == c] if m > 0 else []


def enumerated_multiplication_surjective(F, k, kp, direction):
    """sheaf.h0_multiplication_surjective by enumeration: a summand fails
    when the other factor has a section and some target monomial of the
    moving factor is divisible by no variable of it (a point's Laurent
    shift always is)."""
    m, n = F.space
    for a, b in F.twists:
        if direction == "x":
            moving, c, still = m, k + a, _section_monomials(n, kp + b)
        else:
            moving, c, still = n, kp + b, _section_monomials(m, k + a)
        if not still or moving == 0:
            continue
        if any(not any(u) for u in _section_monomials(moving, c)):
            return False
    return True


# ---------------------------------------------------- direct graded pieces


def span_piece_dim(ring, polys, d):
    """dim of the bidegree-d piece of the ideal generated by polys:
    the rank of the coefficient matrix of every monomial multiple that
    lands in degree d.  No Groebner bases, no package linear algebra."""
    a, b = d
    monos = ring.monomials(d)
    if not monos:
        return 0
    idx = {e: i for i, e in enumerate(monos)}
    rows = []
    for f in polys:
        if f.is_zero():
            continue
        fa, fb = f.bidegree()
        for e in ring.monomials((a - fa, b - fb)):
            row = [0] * len(monos)
            for em, c in f.terms.items():
                me = tuple(u + v for u, v in zip(em, e))
                row[idx[me]] = c
            rows.append(row)
    return rank_over(rows, ring.field)


def quotient_piece_dim(ring, polys, d):
    """dim (R/(polys))_d via the complement of the span above."""
    return ring.piece_dim(*d) - span_piece_dim(ring, polys, d)


# --------------------------------------------------------- random elements


def random_form(ring, rng, d, coeff_bound=100):
    """Dense random bihomogeneous form of bidegree d with coefficients
    drawn from 1..coeff_bound."""
    items = [(e, ring.field.of(rng.randrange(1, coeff_bound + 1)))
             for e in ring.monomials(d)]
    return ring.from_terms(items)


def random_sparse_poly(ring, rng, d, nterms=4, coeff_bound=50):
    """Sparse random form: nterms monomials of bidegree d (with
    replacement) and signed coefficients."""
    monos = ring.monomials(d)
    items = []
    for _ in range(nterms):
        c = rng.randrange(1, coeff_bound + 1) * rng.choice((1, -1))
        items.append((rng.choice(monos), ring.field.of(c)))
    return ring.from_terms(items)


# ------------------------------------------------------ the unskipped chase


def unskipped_local_cohomology_dim(M, kind, i, d, nu_max=8):
    """local_cohomology_dim for i >= 1 (up to the complex length) as it was
    before the stable-power skip: every transition the chase reads is
    decided by its rank test."""
    d = (int(d[0]), int(d[1]))
    hs = {}
    iso = {}
    for t in range(1, nu_max - 1):
        for s in (t, t + 1):
            if s not in iso:
                iso[s] = _transition_is_iso(M, kind, i, d, s, hs)
        if iso[t] and iso[t + 1]:
            return LocalCohomologyValue(hs[t], t, True)
    if nu_max not in hs:
        hs[nu_max] = ext_graded_dim(M, kind, i, d, nu_max)[0]
    return LocalCohomologyValue(hs[nu_max], None, False)


# ------------------------------------------------ graded local duality


def dual_complex(C):
    """Hom(C, R) for a free resolution C: level j has C's generators at -g,
    and the transposed differentials keep their monomial entries.  Its
    levels are stored in reverse, L first, so that it is a FreeComplex."""
    ring = C.ring
    terms = [FreeModule([(-a, -b) for a, b in F.gens]) for F in C.terms]
    diffs = []
    for j, phi in enumerate(C.diffs):
        cols = [{} for _ in terms[j].gens]
        for c, col in enumerate(phi.cols):
            for (r, e), v in col.items():
                cols[r][(c, e)] = v
        diffs.append(ModuleMap(ring, terms[j], terms[j + 1], cols))
    return FreeComplex(ring, terms[::-1], diffs[::-1])


def duality_sum_dims(D, d):
    """dim H^i(M)_d at the sum ideal (all N variables) for i = 0..N, with
    D the dual_complex of a free resolution of M, by graded local duality
    (Bruns-Herzog, Thm 3.6.19): R is Gorenstein with canonical module
    R(-(m+1), -(n+1)), so the dimension is that of Ext^{N-i}(M, R) at
    -d - (m+1, n+1).  No power complex, Laurent basis or saturation."""
    ring = D.ring
    ext = homology_dims(D, (-d[0] - ring.m - 1, -d[1] - ring.n - 1))[::-1]
    return [ext[ring.nvars - i] if ring.nvars - i < len(ext) else 0
            for i in range(ring.nvars + 1)]


# ----------------------------------------- the Schreyer frame, unpruned


def _leads_by_generator(M):
    by_gen = {}
    for k, e in presentation_gb(M).leads:
        by_gen.setdefault(k, []).append(e)
    return by_gen


def _bidegree_plus(ring, g, e):
    return (g[0] + sum(e[:ring.nx]), g[1] + sum(e[ring.nx:]))


def schreyer_frame_levels(M):
    """Generator degrees of the Schreyer frame on the leads of
    presentation_gb(M), level by level and with no pruning: level 0 is
    the generators of M.f0, level 1 the leads u at generator k in degree
    g_k + deg u; the leads at one position are sorted in decreasing lex
    order, and the one at index i gets a child of degree deg_i + deg q for
    each minimal q among lcm(u_i, u_j)/u_i, j > i."""
    ring = M.ring
    by_gen = _leads_by_generator(M)
    levels = [list(M.f0.gens)]
    positions = [(g, by_gen.get(k, [])) for k, g in enumerate(M.f0.gens)]
    while True:
        level, below = [], []
        for base, leads in positions:
            leads = sorted(leads, reverse=True)
            for i, u in enumerate(leads):
                deg = _bidegree_plus(ring, base, u)
                level.append(deg)
                qs = {tuple(max(b - a, 0) for a, b in zip(u, v))
                      for v in leads[i + 1:]}
                below.append((deg, [q for q in qs if not any(
                    p != q and all(a <= b for a, b in zip(p, q))
                    for p in qs)]))
        if not level:
            return levels
        levels.append(level)
        positions = below


def taylor_top(M):
    """The componentwise largest g_k + deg lcm(leads at generator k) over
    the generators of M.f0, () when there is none: the Taylor-resolution
    bound that the Schreyer frame replaced."""
    ring = M.ring
    by_gen = _leads_by_generator(M)
    tops = []
    for k, g in enumerate(M.f0.gens):
        hull = tuple(map(max, zip(*by_gen[k]))) if k in by_gen else ()
        tops.append(_bidegree_plus(ring, g, hull))
    return tuple(map(max, zip(*tops)))


# ------------------------------------------------ the max-scan reduction


def _term_key(t):
    # term-over-position grevlex, as documented in bigraded.modules; the
    # largest key is the largest term
    gi, e = t
    return (sum(e), tuple(-c for c in reversed(e)), -gi)


def schreyer_key(shifts):
    """The Schreyer order on a free module whose generator i sits over the
    monomial shifts[i], as a max key: x^a e_i is compared by the grevlex
    of x^a * shifts[i], then by the lower index i."""
    def key(t):
        gi, e = t
        return _term_key((gi, tuple(a + b for a, b in zip(e, shifts[gi]))))
    return key


def _vec_sub_shifted(field, u, v, mono, coeff):
    """u - coeff * x^mono * v as a new dict, through the field API."""
    out = dict(u)
    for (gi, e), c in v.items():
        t = (gi, tuple(a + b for a, b in zip(e, mono)))
        acc = field.sub(out.get(t, field.zero), field.mul(coeff, c))
        if acc == 0:
            out.pop(t, None)
        else:
            out[t] = acc
    return out


def max_scan_reduce(field, f, elements, leads, exprs=None, expr=None,
                    history=None, key=_term_key):
    """groebner._reduce as it was before the heap: each step rescans f for
    its largest term under key (the largest key is the largest term) and
    rebuilds f and expr.  When history is a list, the key set of f is
    appended to it before every step."""
    work = dict(f)
    rem = {}
    while work:
        if history is not None:
            history.append(set(work))
        t = max(work, key=key)
        gi, e = t
        c = work[t]
        hit = -1
        for k, (lgi, lu) in enumerate(leads):
            if lgi == gi and all(a <= b for a, b in zip(lu, e)):
                hit = k
                break
        if hit < 0:
            rem[t] = work.pop(t)
            continue
        q = tuple(b - a for a, b in zip(leads[hit][1], e))
        work = _vec_sub_shifted(field, work, elements[hit], q, c)
        if expr is not None:
            expr = _vec_sub_shifted(field, expr, exprs[hit], q, c)
    return rem, expr


# ------------------------------------------------- the min-scan rank kernel


def min_scan_rank(entries, nrows, ncols, field):
    """linalg.rank_entries as it was before the heap: each step scans the
    row for its lowest column label, and pivot rows keep the entries that
    are zero in the field."""
    of = field.of
    count = Counter(j for _i, j, _c in entries)
    label = {j: k for k, j in enumerate(sorted(count, key=count.get))}
    rows = {}
    for i, j, c in entries:
        row = rows.setdefault(i, {})
        j = label[j]
        row[j] = row.get(j, 0) + c
    pivots = {}
    for row in sorted(rows.values(), key=len):
        while row:
            j = min(row)
            f = of(row.pop(j))
            if f == 0:
                continue
            piv = pivots.get(j)
            if piv is None:
                inv = field.inv(f)
                pivots[j] = {k: of(c * inv) for k, c in row.items()}
                break
            for k, c in piv.items():
                row[k] = row.get(k, 0) - f * c
    return len(pivots)
