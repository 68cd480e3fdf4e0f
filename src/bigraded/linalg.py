"""Exact sparse rank over any coefficient field of fields.py.

Matrices arrive as (row, col, coeff) entry lists.  One sparse row
elimination serves every field: rows are dicts {col: coeff}, taken
shortest first, and each is reduced by its lowest column against monic
pivot rows until it is zero or opens a new pivot.  Only field.add, sub,
mul and inv are used, so no backend is special-cased.  The differentials
produced elsewhere in this package are monomial-block sparse; a row only
ever meets pivots of its own connected block, so the blocks never mix
and need no explicit split.
"""


def rank_entries(entries, nrows, ncols, field):
    """Exact rank of the nrows x ncols matrix given by (row, col, coeff)
    triples; repeated (row, col) pairs add up."""
    zero, add, sub, mul = field.zero, field.add, field.sub, field.mul
    rows = {}
    for i, j, c in entries:
        row = rows.setdefault(i, {})
        row[j] = add(row.get(j, zero), c)
    rows = [{j: c for j, c in row.items() if c != 0} for row in rows.values()]
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            j = min(row)
            piv = pivots.get(j)
            if piv is None:
                inv = field.inv(row[j])
                pivots[j] = {k: mul(c, inv) for k, c in row.items()}
                break
            f = row[j]
            for k, c in piv.items():
                v = sub(row.get(k, zero), mul(f, c))
                if v == 0:
                    row.pop(k, None)
                else:
                    row[k] = v
    return len(pivots)
