"""Pure-Python integer row reduction, the twin of the compiled kernel.

`rref_int` works over arbitrary-precision integers: callers clear the
denominators first, which keeps elimination fraction-free.  The compiled
module _kernels mirrors it, and kernels.py picks one per call (the
MINKDECOMP_PURE variable forces this one).  Keep the two behaviourally
identical, including pivot choices and output ordering, so results are
bit-for-bit comparable.  The compiled module also carries a brute-force
facet scan that nothing calls any more; facet enumeration is
`kernels.facet_scan` on both paths.
"""

from math import gcd


def _primitive(row):
    """Divide row by the gcd of its entries, first nonzero made positive."""
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g == 0:
        return
    lead = next(x for x in row if x)
    if lead < 0:
        g = -g
    if g != 1:
        for j, x in enumerate(row):
            row[j] = x // g


def rref_int(rows, ncols):
    """Integer Gauss-Jordan elimination.

    Returns (pivot_cols, reduced) where each reduced row is primitive with
    a positive pivot as its first nonzero entry, and every pivot column is
    zero in all other rows.  Rows kept primitive throughout to bound entry
    growth.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivot_cols = []
    rank = 0
    for col in range(ncols):
        # Smallest nonzero magnitude as pivot keeps the integers small.
        best = -1
        for i in range(rank, nrows):
            x = mat[i][col]
            if x != 0 and (best < 0 or abs(x) < abs(mat[best][col])):
                best = i
        if best < 0:
            continue
        mat[rank], mat[best] = mat[best], mat[rank]
        piv_row = mat[rank]
        _primitive(piv_row)
        p = piv_row[col]
        for i in range(nrows):
            if i == rank:
                continue
            q = mat[i][col]
            if q == 0:
                continue
            row = mat[i]
            for j in range(ncols):
                row[j] = row[j] * p - q * piv_row[j]
            _primitive(row)
        pivot_cols.append(col)
        rank += 1
    return pivot_cols, mat[:rank]

