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
cost.  The row being reduced lives in one dense list indexed by column
label, None where the row has no entry, and the lowest column is found
with a heap of the row's labels rather than a scan: the labels are
heapified once, a fill-in column is pushed when it enters the row, and
a column leaves the row only when it is popped.  A pivot row holds only
columns above its pivot, so a popped column never re-enters and the
heap yields the row's columns in ascending order, the order a scan
would find them.  Once every column holding an entry is a pivot, the
remaining rows cannot add one and are not reduced.
Entries are combined with the native + - * of their representatives.
field.of canonicalises a value only where it is read as a pivot entry,
where a value that is zero in the field (a nonzero multiple of p) is
dropped, and where a new pivot row is stored, without the entries that
are zero in the field; field.of and field.inv are the only field methods
used.  The differentials produced elsewhere in this package are
monomial-block sparse; a row only ever meets pivots of its own connected
block, so the blocks never mix and need no explicit split.
"""

from collections import Counter
from heapq import heapify, heappop, heappush
from operator import itemgetter


def rank_entries(entries, nrows, ncols, field):
    """Exact rank of the nrows x ncols matrix given by (row, col, coeff)
    triples; repeated (row, col) pairs add up."""
    of = field.of
    count = Counter(map(itemgetter(1), entries))
    label = {j: k for k, j in enumerate(sorted(count, key=count.get))}
    rows = {}
    for i, j, c in entries:
        j = label[j]
        row = rows.get(i)
        if row is None:
            rows[i] = {j: c}
        elif j in row:
            row[j] += c
        else:
            row[j] = c
    pivots = {}
    val = [None] * len(count)
    for row in sorted(rows.values(), key=len):
        if len(pivots) == len(count):
            break
        heap = list(row)
        for k, c in row.items():
            val[k] = c
        heapify(heap)
        while heap:
            j = heappop(heap)
            f = of(val[j])
            val[j] = None
            if f == 0:
                continue
            piv = pivots.get(j)
            if piv is None:
                inv = field.inv(f)
                piv = pivots[j] = {}
                for k in heap:
                    v = of(val[k] * inv)
                    val[k] = None
                    if v:
                        piv[k] = v
                break
            for k, c in piv.items():
                v = val[k]
                if v is None:
                    val[k] = -f * c
                    heappush(heap, k)
                else:
                    val[k] = v - f * c
    return len(pivots)
