"""Groebner bases for submodules of free bigraded modules.

Module elements are the sparse dicts of modules.py.  The term order is
degree-reverse-lexicographic on monomials (x-block before y-block),
extended term-over-position with ties broken toward the lower generator
index.  Everything here is deterministic: S-pairs are processed in
(lcm degree, lcm, i, j) heap order, and bases come back inter-reduced,
monic, and sorted by decreasing lead term.  One S-pair loop, with one
chain criterion and one traced reduction, gives in one run the basis and
the kernel of any generators: the traces of the pairs that reduce to
zero generate their syzygies (Schreyer).  The reduction knows this one
term order: the Schreyer frame of resolutions.py writes each level in
shifted coordinates, where the term order is the Schreyer order.
Vanishing on an up-set is decided at the region's corners: standard
monomials are closed under division, so a module nonzero in an up-set is
nonzero at one of its minimal points, tested at a clamp read off the
leads (upset_nonvanishing_witness).
"""

import heapq
import itertools
from array import array
from functools import partial

from .modules import (FreeModule, ModuleMap, Presentation, term_key,
                      vec_bidegree, vec_from_poly, vec_scale, vec_sub_shift)
from .regions import upset_bounds
from .ring import mono_div, mono_divides, mono_lcm, mono_mul

# ------------------------------------------------------------- reduction


def _lead(vec):
    return min(vec, key=term_key)


def _nonzero(vec):
    """vec without its stored zero coefficients.  Input vectors pass
    through here once: _lead and _reduce assume there are none."""
    return {t: c for t, c in vec.items() if c != 0}


def _by_position(leads):
    """The one index of a lead set, position -> [(k, lead monomial)] with
    k ascending: a lead acts on a term only at the term's position."""
    at = {}
    for k, (p, u) in enumerate(leads):
        at.setdefault(p, []).append((k, u))
    return at


def _reduce(field, f, elements, at, exprs=None, expr=None):
    """Full normal form against monic elements with the lead index at
    (_by_position), traced when expr is given.

    No monomial of the remainder is divisible by any lead.  Each step
    takes the largest term t of f, and for the first lead that divides it
    subtracts c * x^q * elements[k] from f and, when tracing, c * x^q *
    exprs[k] from expr; both are copied once and updated in place.  The
    terms of f wait in a heap, pushed when they enter f; an entry whose
    term has since cancelled is skipped.  The heap key is term_key, of the
    one term order; a Schreyer order is that order in shifted coordinates
    (resolutions.schreyer_frame).  Returns (remainder, expr).
    """
    work = dict(f)
    if expr is not None:
        expr = dict(expr)
    heap = [(term_key(t), t) for t in work]
    heapq.heapify(heap)
    rem = {}
    entered = []
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.get(t)
        if c is None:
            continue
        for k, lu in at.get(t[0], ()):
            if mono_divides(lu, t[1]):
                break
        else:
            rem[t] = work.pop(t)
            continue
        q = mono_div(t[1], lu)
        vec_sub_shift(field, work, elements[k], q, c, entered)
        for t in entered:
            heapq.heappush(heap, (term_key(t), t))
        entered.clear()
        if expr is not None:
            vec_sub_shift(field, expr, exprs[k], q, c)
    return rem, expr

# ---------------------------------------------------------------- S-pairs


def _chain_redundant(same, done, i, j, l):
    """Chain criterion for the pair (i, j) with lcm l; same lists the
    leads at their position.

    The pair may be dropped when a third lead at the same position divides
    l and both companion pairs were already treated: treatment times are
    strictly earlier, so the justifications cannot cycle.
    """
    for k, uk in same:
        if (k != i and k != j and mono_divides(uk, l) and
                (min(i, k), max(i, k)) in done and
                (min(j, k), max(j, k)) in done):
            return True
    return False


def _spair(field, elements, leads, at, exprs, l, i, j):
    """Reduced S-vector of the monic elements i, j with lead lcm l, and
    its trace x^qi * exprs[i] - x^qj * exprs[j] - (division quotients)."""
    one, minus = field.one, field.neg(field.one)
    qi = mono_div(l, leads[i][1])
    qj = mono_div(l, leads[j][1])
    s, sx = {}, None
    vec_sub_shift(field, s, elements[i], qi, minus)
    vec_sub_shift(field, s, elements[j], qj, one)
    if exprs[i] is not None:
        sx = {}
        vec_sub_shift(field, sx, exprs[i], qi, minus)
        vec_sub_shift(field, sx, exprs[j], qj, one)
    return _reduce(field, s, elements, at, exprs, sx)

# ------------------------------------------------------------- buchberger


def _item(ring, module, vec, expr):
    """The pair loop's (vec, expr, lead) for an input vector, once its
    generator indices and its bidegree are checked."""
    for gi, _e in vec:
        if not 0 <= gi < module.rank:
            raise ValueError("generator index %d out of range" % gi)
    vec_bidegree(ring, module.gens, vec)
    return vec, expr, _lead(vec)


def _pair_loop(ring, module, items, use_chain_criterion=True):
    """Buchberger's S-pair loop, the only one: one run gives the basis
    and, when tracking, the kernel of any generators (column_syzygies).

    items: (vec, expr, lead) with vec nonzero, lead its lead term and expr
    a vector over input columns (or None when not tracking).  Pairs are
    treated in (lcm degree, lcm, i, j) heap order; a nonzero remainder
    joins the basis, monic, with its trace.  Returns (elements, exprs,
    leads, their index, columns, bidegrees), the columns being the nonzero
    traces of the pairs that reduce to zero, at their lcm bidegrees.  A
    chain-dropped pair's trace is a combination of its companions'
    (unfolding the justifications terminates, see _chain_redundant), so
    the kept ones still generate.
    """
    field = ring.field
    G, E, leads, at = [], [], [], {}
    cols, degs = [], []
    heap, done = [], set()

    def add(vec, expr, lt):
        c = vec[lt]
        if c != field.one:
            ci = field.inv(c)
            vec = vec_scale(field, ci, vec)
            if expr is not None:
                expr = vec_scale(field, ci, expr)
        same = at.setdefault(lt[0], [])
        for i, ui in same:
            l = mono_lcm(ui, lt[1])
            heapq.heappush(heap, (sum(l), l, i, len(G)))
        same.append((len(G), lt[1]))
        G.append(vec)
        E.append(expr)
        leads.append(lt)

    for item in items:
        add(*item)
    while heap:
        _deg, l, i, j = heapq.heappop(heap)
        done.add((i, j))
        if use_chain_criterion and _chain_redundant(at[leads[i][0]], done,
                                                    i, j, l):
            continue
        rem, sexpr = _spair(field, G, leads, at, E, l, i, j)
        if rem:
            add(rem, sexpr, _lead(rem))
        elif sexpr:
            la, lb = ring.mono_bidegree(l)
            ga, gb = module.gens[leads[i][0]]
            cols.append(sexpr)
            degs.append((la + ga, lb + gb))
    return G, E, leads, at, cols, degs


def _interreduce(field, G, leads, at):
    """Reduced basis from a Groebner basis and its lead index: a minimal
    lead set, sorted by decreasing lead term, then tail reduction."""
    alive = set(range(len(G)))
    for k in sorted(alive, key=lambda k: term_key(leads[k])):
        gk, uk = leads[k]
        if any(m != k and m in alive and mono_divides(um, uk)
               for m, um in at[gk]):
            alive.discard(k)

    order = sorted(alive, key=lambda k: term_key(leads[k]))
    els = [G[k] for k in order]
    lds = [leads[k] for k in order]
    at = _by_position(lds)
    out = []
    for g, t in zip(els, lds):
        rtail = _reduce(field, {s: c for s, c in g.items() if s != t},
                        els, at)[0]
        rtail[t] = field.one
        out.append(rtail)
    return out


class GroebnerBasis:
    """Elements are stored monic, without zero coefficients, and their
    lead terms and lead index at are computed once: normal_form divides
    by monic leads."""

    def __init__(self, ring, module, elements):
        self.ring = ring
        self.module = module
        self.elements = []
        self.leads = []
        for g in filter(None, map(_nonzero, elements)):
            lt = _lead(g)
            if g[lt] != ring.field.one:
                g = vec_scale(ring.field, ring.field.inv(g[lt]), g)
            self.elements.append(g)
            self.leads.append(lt)
        self.at = _by_position(self.leads)

    def __repr__(self):
        return "GroebnerBasis(%d elements)" % len(self.elements)

    def contains(self, vec):
        return not normal_form(vec, self)


def buchberger(ring, module, gens, use_chain_criterion=True):
    """Reduced Groebner basis of the submodule generated by gens."""
    items = [_item(ring, module, g, None) for g in map(_nonzero, gens) if g]
    G, _, leads, at = _pair_loop(ring, module, items, use_chain_criterion)[:4]
    els = _interreduce(ring.field, G, leads, at)
    return GroebnerBasis(ring, module, els)


def normal_form(f, G):
    """Remainder of f on division by G; no monomial divisible by a lead."""
    return _reduce(G.ring.field, _nonzero(f), G.elements, G.at)[0]

# --------------------------------------------------------------- syzygies


def syzygies(G):
    """Kernel of the evaluation map on G's elements, a basis or not."""
    return column_syzygies(G.ring, G.module, G.elements)


def column_syzygies(ring, module, cols, col_degs=None):
    """Kernel generators for the map (free on cols) -> module: one unit
    vector per zero column, and the nonzero traces of the pairs that
    reduce to zero, at their lcm bidegrees, in one S-pair loop run on the
    nonzero columns, each traced by its unit vector.  These generate
    (Schreyer; Eisenbud, Commutative Algebra, Thm 15.10):

    - a relation among the input columns is a relation among the tracked
      basis, supported on the inputs;
    - the basis's relations are generated by its pair syzygies, since
      each reduction is a standard representation, even against the
      partial basis of its time;
    - mapped to input coordinates through each element's trace, a pair
      that added an element goes to 0, and a pair that reduced to zero
      goes to its trace.
    """
    one, zm = ring.field.one, ring.zero_mono
    cols = [_nonzero(c) for c in cols]
    if col_degs is None:
        col_degs = [vec_bidegree(ring, module.gens, c) for c in cols]
    zero = [j for j, c in enumerate(cols) if not c]
    items = [_item(ring, module, c, {(j, zm): one})
             for j, c in enumerate(cols) if c]
    syz_cols, syz_degs = _pair_loop(ring, module, items)[4:]
    return ModuleMap(ring, FreeModule([col_degs[j] for j in zero] + syz_degs),
                     FreeModule(col_degs),
                     [{(j, zm): one} for j in zero] + syz_cols)

# -------------------------------------------------- presentation utilities


def ideal_presentation(ring, polys):
    """Present the submodule of R generated by the given polynomials:
    one generator per (nonzero, bihomogeneous) input, relations their
    syzygies."""
    items = [p for p in polys if p.terms]
    if not items:
        raise ValueError("need at least one nonzero generator")
    degs = [p.bidegree() for p in items]
    cols = [vec_from_poly(p) for p in items]
    rels = column_syzygies(ring, FreeModule([(0, 0)]), cols, col_degs=degs)
    return Presentation(ring, rels.target, rels)


def presentation_gb(M):
    if "gb" not in M._cache:
        M._cache["gb"] = buchberger(M.ring, M.f0, M.relations.cols)
    return M._cache["gb"]


def graded_piece(M, d):
    """Standard-monomial basis of M at bidegree d, and its dimension."""
    d = (int(d[0]), int(d[1]))
    key = ("piece", d)
    if key not in M._cache:
        at = presentation_gb(M).at
        basis = [(gi, e) for gi, e in M.f0.piece_basis(M.ring, d)
                 if not any(mono_divides(lu, e) for _k, lu in at.get(gi, ()))]
        M._cache[key] = basis
    basis = M._cache[key]
    return basis, len(basis)


def _nf_table(M, D):
    """Normal form of every module monomial of f0 at bidegree D.

    Maps each (gen, monomial) of bidegree D to its row (indices, coeffs)
    over the standard basis graded_piece(M, D).  Rows are built bottom-up
    in increasing term order: a standard monomial is its own row, and a
    non-standard t = x^q * lead(g), g monic in the reduced basis, has
    NF(t) = -sum c * NF(s) over the tail terms c*s of x^q * g, each of
    bidegree D and smaller than t, so its row is already in the table.
    Over F_p a row is two array('q'); over QQ two tuples.
    """
    key = ("nf", D)
    if key not in M._cache:
        field = M.ring.field
        p = field.char
        pack = partial(array, "q") if p else tuple
        gb = presentation_gb(M)
        basis, _ = graded_piece(M, D)
        index = {t: i for i, t in enumerate(basis)}
        unit = pack((field.one,))       # rows are read-only, so shared
        table = {}
        for t in sorted(M.f0.piece_basis(M.ring, D), key=term_key,
                        reverse=True):
            i = index.get(t)
            if i is not None:
                table[t] = (pack((i,)), unit)
                continue
            gi, e = t
            k, lu = next(kl for kl in gb.at[gi] if mono_divides(kl[1], e))
            q = mono_div(e, lu)
            acc = {}
            for (gj, u), c in gb.elements[k].items():
                if gj == gi and u == lu:
                    continue
                idx, co = table[(gj, mono_mul(u, q))]
                for r, v in zip(idx, co):
                    acc[r] = acc.get(r, 0) - c * v
            rows, coeffs = [], []
            for r, v in acc.items():
                if p:
                    v %= p
                if v:
                    rows.append(r)
                    coeffs.append(v)
            table[t] = (pack(rows), pack(coeffs))
        M._cache[key] = table
    return M._cache[key]


def multiplication_matrix(M, mono, d):
    """Matrix of multiplication by x^mono from M_d, over standard bases.

    Returns (entries, target basis, source basis) with entries as
    (row, col, coeff) triples.  The column of a standard monomial e is
    the row of x^mono * e in the normal-form table of the target
    bidegree (_nf_table), built once per bidegree and shared by every
    multiplier landing there, so assembling a matrix is a lookup.
    """
    d = (int(d[0]), int(d[1]))
    ring = M.ring
    src, _ = graded_piece(M, d)
    ma, mb = ring.mono_bidegree(mono)
    D = (d[0] + ma, d[1] + mb)
    tgt, _ = graded_piece(M, D)
    entries = []
    if src:
        table = _nf_table(M, D)
        for ci, (gi, e) in enumerate(src):
            idx, co = table[(gi, mono_mul(e, mono))]
            entries.extend(zip(idx, itertools.repeat(ci), co))
    return entries, tgt, src


def block_matrix(M, blocks, row_gens, col_gens, d):
    """Block matrix of multiplication maps between graded pieces of M.

    Block column c is M at d + col_gens[c] and block row r is M at
    d + row_gens[r], both over standard bases.  Each (r, c, mono, coeff)
    in blocks adds coeff times multiplication by x^mono to block (r, c),
    with one multiplication_matrix call per distinct (mono, source
    bidegree), whose entries every block with that key reuses.  Returns
    (entries, nrows, ncols) with entries as (row, col, coeff) triples; a
    coeff is the native product of two field elements, left unreduced for
    linalg.rank_entries.
    """
    def offsets(gens):
        return list(itertools.accumulate(
            (graded_piece(M, (d[0] + a, d[1] + b))[1] for a, b in gens),
            initial=0))

    rowoff, coloff = offsets(row_gens), offsets(col_gens)
    entries = []
    mults = {}
    for r, c, mono, coeff in blocks:
        a, b = col_gens[c]
        key = (mono, a, b)
        ents = mults.get(key)
        if ents is None:
            ents = mults[key] = multiplication_matrix(
                M, mono, (d[0] + a, d[1] + b))[0]
        ro, co = rowoff[r], coloff[c]
        entries += [(ro + i, co + j, coeff * v) for i, j, v in ents]
    return entries, rowoff[-1], coloff[-1]

# --------------------------------------------------------------- saturation


def ideal_quotient(ring, module, ngens, ideal_polys):
    """Generators of (N : I) = {v : f*v in N for every f in I} in the
    ambient free module, N generated by ngens, I by ideal_polys.

    Computed from one syzygy call on a stacked module: one block per ideal
    generator, columns (f_1 v, ..., f_L v) for each ambient generator v
    plus each N-generator placed in each block; kernel elements project to
    the colon module on the first block of columns.
    """
    rank = module.rank
    big_gens, cols, degs = [], [], []
    for g in ideal_polys:
        da, db = g.bidegree()
        big_gens.extend((a - da, b - db) for a, b in module.gens)

    def idx(l, j):
        return l * rank + j

    bigF = FreeModule(big_gens)
    for j in range(rank):
        col = {}
        for l, g in enumerate(ideal_polys):
            for mono, c in g.terms.items():
                col[(idx(l, j), mono)] = c
        cols.append(col)
        degs.append(module.gens[j])
    for l, g in enumerate(ideal_polys):
        da, db = g.bidegree()
        for n in ngens:
            na, nb = vec_bidegree(ring, module.gens, n)
            cols.append({(idx(l, j), u): c for (j, u), c in n.items()})
            degs.append((na - da, nb - db))
    syz = column_syzygies(ring, bigF, cols, degs)
    out = []
    for col in syz.cols:
        v = {t: c for t, c in col.items() if t[0] < rank}
        if v:
            out.append(v)
    return out


def saturate(M, ideal_gens):
    """Presentation of the torsion submodule {v in M : I^N v = 0 for some N}."""
    ring = M.ring
    F = M.f0
    polys = [p for p in ideal_gens if p is not None and not p.is_zero()]
    ngens0 = [dict(c) for c in M.relations.cols if c]
    if not polys:
        # the zero ideal kills everything, so the torsion module is all of M
        src = FreeModule(M.relations.source.gens)
        rels = ModuleMap(ring, src, F, [dict(c) for c in M.relations.cols])
        return Presentation(ring, F, rels)
    for p in polys:
        p.bidegree()

    gb0 = presentation_gb(M)
    cur, gb_cur = ngens0, gb0
    while True:
        nxt = ideal_quotient(ring, F, cur, polys)
        if not any(normal_form(v, gb_cur) for v in nxt):
            break
        # the next round starts from the reduced basis, not from every
        # generator of the quotient, so the rounds do not grow
        gb_cur = buchberger(ring, F, nxt)
        cur = gb_cur.elements

    kept = [v for v in cur if normal_form(v, gb0)]
    if not kept:
        return Presentation(ring, FreeModule([]))
    kept_degs = [vec_bidegree(ring, F.gens, v) for v in kept]
    all_cols = kept + ngens0
    all_degs = kept_degs + [vec_bidegree(ring, F.gens, n) for n in ngens0]
    syz = column_syzygies(ring, F, all_cols, all_degs)
    r = len(kept)
    rel_cols, rel_degs = [], []
    for col, dg in zip(syz.cols, syz.source.gens):
        v = {t: c for t, c in col.items() if t[0] < r}
        if v:
            rel_cols.append(v)
            rel_degs.append(dg)
    f0 = FreeModule(kept_degs)
    return Presentation(ring, f0,
                        ModuleMap(ring, FreeModule(rel_degs), f0, rel_cols))

# ---------------------------------------------------- vanishing on up-sets


def upset_nonvanishing_witness(M, region):
    """A bidegree in the up-set U = {k >= A, k' >= B, k+k' >= C} where M
    is nonzero, or None if M vanishes on all of U.

    Exact, generator by generator.  The standard monomials at generator
    g are closed under division, so if M is nonzero at g anywhere in U,
    it is nonzero at a minimal point of U inside g + N^2: the corner
    (max(A, g_x), max(B, g_y)) when C does not bind, else a point
    (a, C - a) from that corner's a on.  With L_v the largest exponent
    of variable v among the leads at g, a standard monomial of x-degree
    at least e_x - g_x, e_x = g_x + 1 + sum over x-variables of
    max(L_v - 1, 0), has an x_v with exponent at least L_v and stays
    standard times x_v: past e_x the x-degree extends without bound, and
    likewise past e_y.  So each point is tested at its clamp
    (min(a, e_x), min(b, e_y)), each distinct clamp once.  The witness
    is the first such point found, generators in order and a ascending.
    """
    A, B, C = upset_bounds(region)
    nv, nx = M.ring.nvars, M.ring.nx
    at = presentation_gb(M).at
    for g, (gx, gy) in enumerate(M.f0.gens):
        spare = [max([0] + [lu[v] - 1 for _k, lu in at.get(g, ())])
                 for v in range(nv)]
        ex, ey = gx + 1 + sum(spare[:nx]), gy + 1 + sum(spare[nx:])
        a0, b0 = max(A, gx), max(B, gy)
        c = a0 + b0 if C is None else max(C, a0 + b0)
        # every clamp is met at a0, at a in a0..e_x, or where b <= e_y
        cands = {a0, *range(a0, min(ex, c - b0) + 1),
                 *(c - b for b in range(b0, min(ey, c - a0) + 1))}
        seen = set()
        for a in sorted(cands):
            pt = (min(a, ex), min(c - a, ey))
            if pt not in seen:
                seen.add(pt)
                if any(gi == g for gi, _e in graded_piece(M, pt)[0]):
                    return (a, c - a)
    return None
