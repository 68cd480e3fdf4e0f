"""Exact sparse rank computation over the rationals and prime fields.

Matrices arrive as (row, col, coeff) entry lists.  Rank splits along the
connected components of the bipartite row/column graph before any
elimination; the differentials produced elsewhere in this package are
monomial-block sparse and decompose into many small components, so each
dense elimination stays tiny.  numpy is imported only where a mod-p
rank is computed, so importing the package does not pay for it.
"""

from fractions import Fraction


def _rank_dense_modp(A, p):
    """Row-echelon rank of an int64 numpy array mod p."""
    import numpy as np
    A = A % p
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        col = A[r + 1:, c]
        nz = col.nonzero()[0]
        if nz.size:
            # products stay below 2**63: both factors are < p
            A[r + 1 + nz] = (A[r + 1 + nz] - np.outer(col[nz], A[r])) % p
        r += 1
        if r == nrows:
            break
    return r


def _rank_dense_exact(rows):
    """Fraction Gaussian elimination on a list-of-lists matrix."""
    rows = [list(row) for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, a):
        parent = self.parent
        root = a
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def rank_entries(entries, nrows, ncols, field):
    """Exact rank of the nrows x ncols matrix given by (row, col, coeff) triples."""
    entries = [(i, j, c) for i, j, c in entries if c != 0]
    if not entries:
        return 0
    uf = _UnionFind()
    for i, j, _ in entries:
        uf.union(("r", i), ("c", j))
    groups = {}
    for ent in entries:
        groups.setdefault(uf.find(("r", ent[0])), []).append(ent)
    total = 0
    for ents in groups.values():
        rids = sorted({i for i, _, _ in ents})
        cids = sorted({j for _, j, _ in ents})
        rmap = {i: t for t, i in enumerate(rids)}
        cmap = {j: t for t, j in enumerate(cids)}
        if field.char == 0:
            block = [[Fraction(0)] * len(cids) for _ in rids]
            for i, j, c in ents:
                block[rmap[i]][cmap[j]] += c
            total += _rank_dense_exact(block)
        else:
            import numpy as np
            p = field.char
            block = np.zeros((len(rids), len(cids)), dtype=np.int64)
            for i, j, c in ents:
                block[rmap[i], cmap[j]] = (block[rmap[i], cmap[j]] + c) % p
            total += _rank_dense_modp(block, p)
    return total
