"""Free complexes, minimal free resolutions, and Betti tables.

Minimality means no differential entry has a nonzero constant term.  For
degree-compatible bihomogeneous maps an entry with a constant term IS a
constant, so minimization is plain unit-pivot Gaussian cancellation:
cancelling the pivot at (row i, col j) of d corrects d's other columns,
zeroes row j of the next differential and column i of the previous one
(both exactly, no correction terms), and preserves exactness.  One
kernel, _cancel_units, does this for every map; minimal_generators and
minimize differ only in what they delete after.

The minimal free resolution is minimize of the Schreyer frame: F_1 is
the Groebner basis of the relations, and each later level is the set of
S-pair syzygies of the one before, one per minimal lead quotient, reduced
under the Schreyer order of the level they live in, so the leads alone
fix every generator degree (schreyer_frame).
"""

import itertools
import weakref

from .errors import InvalidPower
from .linalg import rank_entries
from .modules import (FreeModule, ModuleMap, free_presentation, vec_bidegree,
                      vec_sub_shift)
from .groebner import _by_position, _spair, block_matrix, presentation_gb
from .ring import mono_div, mono_divides, mono_lcm, mono_mul

# ---------------------------------------------------------------- complexes


class FreeComplex:
    """Chain complex of free modules; diffs[i] maps terms[i+1] -> terms[i].

    The presented module, when given, is held by a weak reference: the
    module caches its resolution, so a strong one would make a cycle that
    only the cyclic garbage collector frees.
    """

    def __init__(self, ring, terms, diffs, augmentation=None, module=None):
        self.ring = ring
        self.terms = list(terms)
        self.diffs = list(diffs)
        self.augmentation = augmentation
        self._module = None if module is None else weakref.ref(module)
        for i, d in enumerate(self.diffs):
            assert d.target is self.terms[i] or d.target == self.terms[i]
            assert d.source is self.terms[i + 1] or d.source == self.terms[i + 1]

    @property
    def module(self):
        return None if self._module is None else self._module()

    @property
    def length(self):
        return len(self.terms) - 1

    def __repr__(self):
        return "FreeComplex(ranks %s)" % [t.rank for t in self.terms]

    def composites_vanish(self):
        for i in range(len(self.diffs) - 1):
            if not self.diffs[i].compose(self.diffs[i + 1]).is_zero():
                return False
        if self.augmentation is not None and self.diffs:
            comp = self.augmentation.compose(self.diffs[0])
            if self._module is not None:
                M = self._module()
                if M is None:
                    raise ReferenceError("the presented module was freed")
                # the composite lands in the presented module, where it is
                # zero exactly when every column is a relation
                gb = presentation_gb(M)
                return all(gb.contains(col) for col in comp.cols)
            if not comp.is_zero():
                return False
        return True


def betti_table(C):
    """Homological degree -> sorted bidegree list; empty levels omitted."""
    out = {}
    for d, term in enumerate(C.terms):
        if term.rank:
            out[d] = sorted(term.gens)
    return out


def map_rank_at(phi, d):
    """Rank of phi at bidegree d: block_matrix over the free module R,
    source generator c at R_{d - g_c} and target generator r at
    R_{d - g_r}, entry (r, x^e) of column c multiplying by x^e.  R is
    presented afresh on each call, as a ring caches no presentation."""
    ring = phi.ring
    blocks = [(r, c, e, v) for c, col in enumerate(phi.cols)
              for (r, e), v in col.items()]
    entries, nrows, ncols = block_matrix(
        free_presentation(ring, [(0, 0)]), blocks,
        [(-a, -b) for a, b in phi.target.gens],
        [(-a, -b) for a, b in phi.source.gens], d)
    return rank_entries(entries, nrows, ncols, ring.field)


def homology_dims(C, d):
    """Dimensions of the homology of the complex at bidegree d, level by
    level; level 0 reports dim F_0 - rank d_1 (the cokernel piece)."""
    ranks = [map_rank_at(phi, d) for phi in C.diffs]
    out = []
    for i, term in enumerate(C.terms):
        dim = term.piece_dim(C.ring, d)
        below = ranks[i - 1] if i >= 1 else 0
        above = ranks[i] if i < len(ranks) else 0
        out.append(dim - below - above)
    return out

# ------------------------------------------------------------- cancellation


def _cancel_units(field, zm, cols):
    """Cancel every constant pivot of one map, in place.

    cols maps column index -> sparse column {(row, monomial): coeff}.  The
    pivot is the lowest column holding a constant, at its lowest constant
    row ri; cancelling it subtracts multiples of the pivot column from
    every other column, which empties row ri, then drops the pivot column.
    Columns that become zero are deleted.  A column below the pivot holds
    no constant, so its row-ri entries are non-constant and it gains only
    non-constant entries: it stays constant-free, and one ascending sweep
    finds every pivot.  Returns the cancelled (column, row) pairs in order.
    """
    cancelled = []
    for k in sorted(cols):
        pcol = cols.get(k)
        hits = [ri for (ri, mono) in pcol or () if mono == zm]
        if not hits:
            continue
        ri = min(hits)
        cinv = field.inv(pcol[(ri, zm)])
        del cols[k]
        for l in list(cols):
            v = cols[l]
            gam = [(mono, cc) for (r2, mono), cc in v.items() if r2 == ri]
            for mono, cc in gam:
                vec_sub_shift(field, v, pcol, mono, field.mul(cc, cinv))
            if not v:
                del cols[l]
        cancelled.append((k, ri))
    return cancelled

# ----------------------------------------------------- minimal presentations


def minimal_generators(M):
    """Minimal bihomogeneous generating set as (element of f0, bidegree):
    the generators of M.f0 left once the constant pivots of the relations
    are cancelled."""
    ring = M.ring
    cols = {k: dict(c) for k, c in enumerate(M.relations.cols) if c}
    gone = {ri for _k, ri in _cancel_units(ring.field, ring.zero_mono, cols)}
    return [({(r, ring.zero_mono): ring.field.one}, deg)
            for r, deg in enumerate(M.f0.gens) if r not in gone]

# ------------------------------------------------------------ Schreyer frame


def frame_children(leads, j):
    """Children of the frame element with lead monomial leads[j], where
    leads lists the lead monomials at one position in decreasing lex
    order: (q, k) for each minimal monomial q among lcm(leads[j], leads[k])
    / leads[j] over k > j, with the first such k, q decreasing in lex."""
    u = leads[j]
    first = {}
    for k in range(j + 1, len(leads)):
        first.setdefault(mono_div(mono_lcm(u, leads[k]), u), k)
    qs = sorted(first, key=sum)
    return sorted(((q, first[q]) for i, q in enumerate(qs)
                   if not any(mono_divides(p, q) for p in qs[:i])),
                  reverse=True)


def schreyer_frame(M):
    """Schreyer's free resolution of M over M.f0, with the identity
    augmentation: not minimal, but each level after the first comes from
    the leads of the one before (Eisenbud, Commutative Algebra, 15.10).

    F_1 is presentation_gb(M), sorted by position and at each position in
    decreasing lex order of the leads.  An element s at position p gets
    one generator of the next level per (q, t) of frame_children over the
    elements at p: the trace of reducing q f_s - q' f_t to zero, monic
    with lead q e_s.  Children follow their parent in that order, so each
    level is sorted alike and misses one more variable in its leads (Cor
    15.11): the frame ends.  F_k, k >= 1, has the Schreyer order: x^a e_i
    is compared by x^a shift[i], shift[i] the F_0 monomial of i's chain of
    leads, then by the lower index i.  Written as x^a shift[i] e_i, a level
    is reduced under the one term order, which is the Schreyer order there;
    F_0's shifts are 1, and a level's are the shifted leads of the one
    before.  The differentials keep the unshifted coordinates.
    """
    ring, field = M.ring, M.ring.field
    one, zm = field.one, ring.zero_mono
    gb = presentation_gb(M)
    level = sorted(zip(gb.leads, gb.elements),
                   key=lambda lg: (-lg[0][0], lg[0][1]), reverse=True)
    leads = [lt for lt, _g in level]
    els = [g for _lt, g in level]
    shifts = [zm] * M.f0.rank
    terms, diffs = [M.f0], []
    while els:
        terms.append(FreeModule([vec_bidegree(ring, terms[-1].gens, g)
                                 for g in els]))
        diffs.append(ModuleMap(ring, terms[-1], terms[-2], els))
        shifted = [{(i, mono_mul(e, shifts[i])): c for (i, e), c in g.items()}
                   for g in els]
        units = [{(k, zm): one} for k in range(len(els))]
        at = _by_position(leads)
        kids, kid_leads = [], []
        for same in at.values():
            us = [u for _k, u in same]
            for j, (s, u) in enumerate(same):
                for q, t in frame_children(us, j):
                    l = mono_mul(q, u)
                    rem, syz = _spair(field, shifted, leads, at, units, l, s,
                                      same[t][0])
                    assert not rem, "a frame S-pair must reduce to zero"
                    kids.append(syz)
                    kid_leads.append((s, l))
        shifts = [u for _p, u in leads]
        els, leads = kids, kid_leads
    aug = ModuleMap(ring, M.f0, M.f0,
                    [{(r, zm): one} for r in range(M.f0.rank)])
    return FreeComplex(ring, terms, diffs, augmentation=aug, module=M)

# ------------------------------------------------------- resolution builder


def minimal_free_resolution(M):
    """Minimal free resolution of the cokernel presentation M: minimize of
    its Schreyer frame, so no longer than the number of variables
    (Eisenbud, Commutative Algebra, Cor 15.11).  Cached on M, which the
    complex holds weakly (FreeComplex)."""
    if "resolution" not in M._cache:
        M._cache["resolution"] = minimize(schreyer_frame(M))
    return M._cache["resolution"]


def minimize(C):
    """Quasi-isomorphic complex with every constant pivot cancelled.

    Sweeps the differentials once, in ascending homological degree.  A
    pivot of d_{lvl+1} at (column k, row ri) removes generator k of
    terms[lvl+1] and generator ri of terms[lvl]: after the basis change
    row k of the next differential vanishes exactly and is deleted before
    that differential is swept, and column ri of the previous one (or of
    the augmentation) vanishes and is dropped when the survivors are
    reindexed.  Deleting rows and columns never creates a constant, so a
    differential stays constant-free once swept and no second sweep is
    needed.  Columns that become zero stay, as homology.  The Betti data
    of the result does not depend on the pivot order.
    """
    ring = C.ring
    gens = [dict(enumerate(t.gens)) for t in C.terms]
    maps = [{k: dict(c) for k, c in enumerate(phi.cols) if c}
            for phi in C.diffs]
    for lvl, cols in enumerate(maps):
        cancelled = _cancel_units(ring.field, ring.zero_mono, cols)
        for k, ri in cancelled:
            del gens[lvl + 1][k]
            del gens[lvl][ri]
        if cancelled and lvl + 1 < len(maps):
            dead = {k for k, _ri in cancelled}
            nxt = maps[lvl + 1]
            for l, col in nxt.items():
                nxt[l] = {t: cc for t, cc in col.items() if t[0] not in dead}

    # rebuild, reindexing survivors level by level
    order = [sorted(g) for g in gens]
    terms = [FreeModule([g[r] for r in o]) for g, o in zip(gens, order)]
    row = [{r: i for i, r in enumerate(o)} for o in order]
    diffs = [ModuleMap(ring, terms[lvl + 1], terms[lvl], [
        {(row[lvl][r], mono): c for (r, mono), c in cols.get(k, {}).items()}
        for k in order[lvl + 1]]) for lvl, cols in enumerate(maps)]
    aug = None
    if C.augmentation is not None:
        aug = ModuleMap(ring, terms[0], C.augmentation.target,
                        [dict(C.augmentation.cols[r]) for r in order[0]])
    # drop trailing zero terms
    while len(terms) > 1 and terms[-1].rank == 0:
        terms.pop()
        diffs.pop()
    return FreeComplex(ring, terms, diffs, augmentation=aug, module=C.module)

# ---------------------------------------------------------- power complexes


def check_power(name, nu):
    """Reject a power below 1: the limit starts at nu = 1, and for nu <= 0
    the power family holds units or negative exponents."""
    if nu < 1:
        raise InvalidPower("%s must be at least 1, got %d" % (name, nu))


def _exterior_complex(ring, var_indices, nu, irrelevant=False):
    """Exterior-algebra complex on the nu-th powers of the given variables.

    Generators are the sorted subsets U, labelled by U, in degree nu times
    the bidegree of prod U, with d(e_U) = sum over positions of
    (-1)^pos z^nu e_{U minus z}.  The Koszul complex has the p-subsets at
    level p.  The irrelevant complex keeps R at level 0 and the subsets
    that meet both blocks at level |U| - 1, each level sorted by (number
    of x-variables, U); it drops the terms whose U minus z misses a block
    and maps level 1 onto R by x^nu y^nu.  That is the tensor product of
    the two blocks' augmented Koszul complexes with its sign rule
    d(a (x) b) = da (x) b + (-1)^|a| a (x) db, shifted down by one.
    """
    vs = sorted(set(var_indices))
    if vs and (vs[0] < 0 or vs[-1] >= ring.nvars):
        raise ValueError("variable index out of range 0..%d: %s"
                         % (ring.nvars - 1, vs))
    check_power("nu", nu)
    field = ring.field
    levels = [list(itertools.combinations(vs, p))
              for p in range(len(vs) + 1)]
    if irrelevant:
        def nx_in(U):
            return sum(v < ring.nx for v in U)
        levels = [[()]] + [sorted((U for U in lev if 0 < nx_in(U) < len(U)),
                                  key=lambda U: (nx_in(U), U))
                           for lev in levels[2:]]

    def power(U):
        return tuple(nu * (v in U) for v in range(ring.nvars))

    terms = [FreeModule([ring.mono_bidegree(power(U)) for U in lev])
             for lev in levels]
    diffs = []
    for p in range(1, len(levels)):
        index = {U: i for i, U in enumerate(levels[p - 1])}
        cols = []
        for U in levels[p]:
            if irrelevant and p == 1:
                cols.append({(0, power(U)): field.one})
                continue
            col = {}
            for pos, z in enumerate(U):
                rest = U[:pos] + U[pos + 1:]
                if rest in index:
                    col[(index[rest], power((z,)))] = (
                        field.one if pos % 2 == 0 else field.neg(field.one))
            cols.append(col)
        diffs.append(ModuleMap(ring, terms[p], terms[p - 1], cols))
    C = FreeComplex(ring, terms, diffs)
    C.gen_labels = levels
    return C


def koszul_complex(ring, var_indices, nu):
    """Koszul complex on the nu-th powers of the given variables, with the
    sorted subsets as gen_labels (_exterior_complex)."""
    return _exterior_complex(ring, var_indices, nu)


def irrelevant_resolution(ring, nu):
    """Free complex resolving R modulo the nu-th powers x_i^nu y_j^nu of the
    products of one variable from each block, with the sorted variable
    subsets as gen_labels (_exterior_complex).

    F_0 = R; for r >= 1, F_r collects the subsets with at least one
    variable of each block and r + 1 variables in all.
    """
    if ring.m < 0 or ring.n < 0:
        raise ValueError("both variable blocks must be nonempty")
    return _exterior_complex(ring, range(ring.nvars), nu, irrelevant=True)
