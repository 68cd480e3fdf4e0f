"""Free complexes, minimal free resolutions, and Betti tables.

Minimality means no differential entry has a nonzero constant term.  For
degree-compatible bihomogeneous maps an entry with a constant term IS a
constant, so minimization is plain unit-pivot Gaussian cancellation:
cancelling the pivot at (row i, col j) of d corrects d's other columns,
zeroes row j of the next differential and column i of the previous one
(both exactly, no correction terms), and preserves exactness.  One
kernel, _cancel_units, does this for every map; the minimal presentation,
each resolution step and minimize differ only in what they delete after.
"""

import itertools
import weakref

from .errors import InvalidPower, ResolutionTooLong
from .linalg import rank_entries
from .modules import FreeModule, ModuleMap, free_presentation, vec_sub_shift
from .groebner import block_matrix, column_syzygies, presentation_gb

# ---------------------------------------------------------------- complexes


class FreeComplex:
    """Chain complex of free modules; diffs[i] maps terms[i+1] -> terms[i].

    The presented module, when given, is held by a weak reference: the
    module caches its resolution, so a strong one would make a cycle that
    only the cyclic garbage collector frees.
    """

    def __init__(self, ring, terms, diffs, augmentation=None, minimal=False,
                 module=None):
        self.ring = ring
        self.terms = list(terms)
        self.diffs = list(diffs)
        self.augmentation = augmentation
        self._module = None if module is None else weakref.ref(module)
        self.minimal = minimal
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
        return "%s(ranks %s)" % (type(self).__name__,
                                 [t.rank for t in self.terms])

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


class Resolution(FreeComplex):
    pass


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
    R_{d - g_r}, entry (r, x^e) of column c multiplying by x^e."""
    ring = phi.ring
    if "free" not in ring._cache:
        ring._cache["free"] = free_presentation(ring, [(0, 0)])
    blocks = [(r, c, e, v) for c, col in enumerate(phi.cols)
              for (r, e), v in col.items()]
    entries, nrows, ncols = block_matrix(
        ring._cache["free"], blocks, [(-a, -b) for a, b in phi.target.gens],
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


def _submap(ring, cols, src, tgt, keep_cols, keep_rows):
    """The map on the kept columns and rows of cols (column index ->
    sparse column; a missing column is zero), renumbered in the given
    order; src and tgt give the generator bidegrees by index."""
    newrow = {r: i for i, r in enumerate(keep_rows)}
    return ModuleMap(ring, FreeModule([src[k] for k in keep_cols]),
                     FreeModule([tgt[r] for r in keep_rows]),
                     [{(newrow[r], mono): c
                       for (r, mono), c in cols.get(k, {}).items()}
                      for k in keep_cols])


def _cancel_map(phi):
    """Cancel the constant pivots of phi and drop the cancelled rows and
    the columns that became zero.

    Returns (alive, psi): the surviving row indices of phi, in order, and
    the constant-free map onto the free module on them.
    """
    ring = phi.ring
    cols = {k: dict(c) for k, c in enumerate(phi.cols) if c}
    gone = {ri for _k, ri in _cancel_units(ring.field, ring.zero_mono, cols)}
    alive = [r for r in range(phi.target.rank) if r not in gone]
    return alive, _submap(ring, cols, phi.source.gens, phi.target.gens,
                          sorted(cols), alive)

# ----------------------------------------------------- minimal presentations


def _minimize_presentation(M):
    """Cancel constant pivots out of the relation matrix.

    Returns (survivors, f0, relations, augmentation): surviving original
    generator indices, the free module on them, a constant-free relation
    map into it, and the inclusion of the survivors into M.f0.
    """
    if "min_pres" not in M._cache:
        ring = M.ring
        survivors, rels = _cancel_map(M.relations)
        aug = ModuleMap(ring, rels.target, M.f0,
                        [{(r, ring.zero_mono): ring.field.one}
                         for r in survivors])
        M._cache["min_pres"] = (survivors, rels.target, rels, aug)
    return M._cache["min_pres"]


def minimal_generators(M):
    """Minimal bihomogeneous generating set as (element of f0, bidegree)."""
    survivors, f0, _rels, _aug = _minimize_presentation(M)
    zm = M.ring.zero_mono
    one = M.ring.field.one
    return [({(r, zm): one}, deg) for r, deg in zip(survivors, f0.gens)]

# ------------------------------------------------------- resolution builder


def minimal_free_resolution(M, max_length=None):
    """Minimal free resolution of the cokernel presentation M.

    Differentials are built one homological degree at a time: kernel
    generators of the current map, then constant-pivot cancellation before
    the next step, so no differential ever carries a unit entry.  A pivot
    of the kernel map pairs a kernel generator with a generator of the
    current source; both leave the complex, so the current map loses that
    column.  Exactness and the cokernel are preserved.
    """
    ring = M.ring
    if max_length is None:
        max_length = (ring.m + 1) + (ring.n + 1)
    _survivors, f0, rels, aug = _minimize_presentation(M)
    terms = [f0]
    diffs = []
    pending = rels
    while pending.source.rank:
        if len(diffs) + 1 > max_length:
            raise ResolutionTooLong(
                "resolution exceeds length %d" % max_length)
        psi = column_syzygies(ring, pending.target, pending.cols,
                              list(pending.source.gens))
        alive, psi = _cancel_map(psi)
        if not alive:
            break
        pending = ModuleMap(ring, psi.target, pending.target,
                            [dict(pending.cols[r]) for r in alive])
        diffs.append(pending)
        terms.append(pending.source)
        pending = psi
    return Resolution(ring, terms, diffs, augmentation=aug, minimal=True,
                      module=M)


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
    diffs = [_submap(ring, maps[lvl], gens[lvl + 1], gens[lvl],
                     order[lvl + 1], order[lvl]) for lvl in range(len(maps))]
    aug = None
    if C.augmentation is not None:
        aug = ModuleMap(ring, terms[0], C.augmentation.target,
                        [dict(C.augmentation.cols[r]) for r in order[0]])
    # drop trailing zero terms
    while len(terms) > 1 and terms[-1].rank == 0:
        terms.pop()
        diffs.pop()
    return Resolution(ring, terms, diffs, augmentation=aug, minimal=True,
                      module=C.module)

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
