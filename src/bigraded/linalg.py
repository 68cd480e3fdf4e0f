"""Exact sparse rank over any coefficient field of fields.py.

Matrices arrive as (row, col, coeff) entry lists.  A coeff may be any
representative of its field element that field.of accepts: for GF(p) an
int of any size or sign, so a product of two reduced elements may be
passed unreduced, and for QQ a Fraction or an int.  Repeated (row, col)
pairs add up.

One sparse row elimination serves every field.  Columns are relabelled
by ascending entry count and rows are taken shortest first; each row
is reduced at its lowest relabelled column against monic pivot rows
until it is empty or opens a new pivot.  Sparsest-first pivots keep the
fill-in low (Markowitz 1957; LaMacchia-Odlyzko 1990).  Permuting rows
and columns leaves the rank unchanged, so the order only changes the
cost.  Entries are combined with the native + - * of their
representatives.  field.of canonicalises a value only where it is read
as a pivot entry, where a value that is zero in the field (a nonzero
multiple of p) is dropped, and where a new pivot row is stored; field.of
and field.inv are the only field methods used.  The differentials
produced elsewhere in this package are monomial-block sparse; a row only
ever meets pivots of its own connected block, so the blocks never mix
and need no explicit split.
"""

from collections import Counter


def rank_entries(entries, nrows, ncols, field):
    """Exact rank of the nrows x ncols matrix given by (row, col, coeff)
    triples; repeated (row, col) pairs add up."""
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
