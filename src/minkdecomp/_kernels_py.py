"""Pure-Python integer row reduction, the twin of the compiled kernel.

`rref_int` works over arbitrary-precision integers: callers clear the
denominators first, which keeps elimination fraction-free.  The compiled
module _kernels mirrors it, and kernels.py picks one per call (the
MINKDECOMP_PURE variable forces this one).  The two agree bit for bit
because their output is the primitive reduced row echelon form with
positive pivots, which the row space alone determines: they need not
pick the same pivot rows on the way, and do not (the compiled twin
still makes every updated row primitive).  The compiled module also
carries a brute-force facet scan that nothing calls any more; facet
enumeration is `kernels.facet_scan` on both paths.
"""

from math import gcd


def rref_int(rows, ncols):
    """Integer Gauss-Jordan elimination.

    Returns (pivot_cols, reduced) where each reduced row is primitive with
    a positive pivot as its first nonzero entry, and every pivot column is
    zero in all other rows.  That form is unique, so it does not depend on
    the pivot rows chosen.  A pivot row is made primitive when chosen, and
    so is every row eliminated against a pivot other than 1 (the pivot
    multiplies it); a row eliminated against a pivot of 1 only has a
    multiple of the pivot row subtracted and is left as it is.  Every kept
    row is made primitive once at the end.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivot_cols = []
    rank = 0
    for col in range(ncols):
        # Smallest nonzero magnitude as pivot keeps the integers small.
        best = -1
        size = 0
        for i in range(rank, nrows):
            x = mat[i][col]
            if x and (best < 0 or abs(x) < size):
                best = i
                size = abs(x)
        if best < 0:
            continue
        piv_row = mat[best]
        mat[best] = mat[rank]
        # Columns before col are zero in rows rank.., so the entry at col
        # leads the row.
        g = gcd(*piv_row)
        if piv_row[col] < 0:
            g = -g
        if g != 1:
            piv_row = [x // g for x in piv_row]
        mat[rank] = piv_row
        p = piv_row[col]
        for i in range(nrows):
            row = mat[i]
            q = row[col]
            if not q or i == rank:
                continue
            if p == 1:
                mat[i] = [x - q * y for x, y in zip(row, piv_row)]
            else:
                row = [x * p - q * y for x, y in zip(row, piv_row)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivot_cols.append(col)
        rank += 1
    reduced = []
    for row in mat[:rank]:
        # The pivot stays positive: later pivots are positive and only
        # multiply it.
        g = gcd(*row)
        reduced.append([x // g for x in row] if g > 1 else row)
    return pivot_cols, reduced
