"""The integer kernels: row reduction, the incremental echelon and
facet enumeration, all pure Python over arbitrary-precision integers.

`rref_int` is fraction-free Gauss-Jordan elimination: callers clear the
denominators first.  It returns the primitive reduced row echelon form
with positive pivots, which the row space alone determines, so its
output does not depend on the pivot rows it picks.  The rank oracle
eliminates its cycle systems (`linalg.int_kernel_basis`) and edge rows
(`graphs._edge_rows`) with it, and `facet_scan` inverts its start
simplex with it.

`Echelon` is the fraction-free echelon grown one row at a time that
answers rank questions with a known cap (`linalg.affine_rank`,
`linalg.int_hyperplane`, and the start simplex of `facet_scan`): it
stops as soon as the cap is reached.

`facet_scan` is an exact double-description hull whose cost follows the
facets it builds rather than the C(n, d) vertex subsets.  It builds
every hull in the package, and only `hull` calls it: `hull.facet_data`
(for `Polytope.from_vertices`, which keeps its integer planes),
`hull.facet_masks` (for `polytope.validate`, which checks listed facets
against it) and `hull.extreme_points` (the vertex pruning of Minkowski
sums).
"""

from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

# There is no compiled path; the benchmark still records this flag.
HAVE_COMPILED = False


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


class Echelon:
    """A fraction-free integer row echelon form, grown one row at a time.

    The rows are kept primitive, in the order they were added, each with
    its pivot column, its first nonzero entry; a row is zero at the pivot
    columns of the rows before it.  `add` eliminates a new row's entries
    at the pivot columns in that order, each step a fraction-free
    combination with the pivot row, which keeps the entries already
    eliminated at zero.  A nonzero remainder is appended with its first
    nonzero entry as a new pivot, and the rank grows by one.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: List[Tuple[int, Sequence[int]]] = []

    def add(self, row: Sequence[int]) -> bool:
        """Append row reduced; True iff it is independent of the rows so far."""
        for c, prow in self.rows:
            x = row[c]
            if x:
                p = prow[c]
                g = gcd(p, x)
                p, x = p // g, x // g
                row = [a * p - x * b for a, b in zip(row, prow)]
        c = next((j for j, a in enumerate(row) if a), None)
        if c is None:
            return False
        g = gcd(*row)
        self.rows.append((c, [a // g for a in row] if g != 1 else row))
        return True

    def kernel_vector(self, ncols: int) -> List[int]:
        """The integer vector spanning the kernel of an echelon of rank
        ncols - 1: 1 at the free column, scaled up as needed, and each
        pivot entry solved by back-substitution, last row first.  A row
        is nonzero only at its pivot, at the pivots of later rows and at
        the free column, which are all set by then."""
        pivots = {c for c, _ in self.rows}
        h = [0] * ncols
        h[next(j for j in range(ncols) if j not in pivots)] = 1
        for c, row in reversed(self.rows):
            # h[c] is still 0, so this is the rest of the row's equation.
            s = sum(a * b for a, b in zip(row, h))
            p = row[c]
            g = gcd(p, s)
            if p != g:
                h = [x * (p // g) for x in h]
            h[c] = -(s // g)
        return h


def _divide_gcd(h):
    g = gcd(*h)
    return tuple(x // g for x in h)


def facet_scan(coords, d):
    """Exact facet enumeration over integer coordinates by incremental
    double description (Fukuda & Prodon 1996).

    coords: n integer coordinate tuples that affinely span R^d.  A facet
    is kept as h = (a, b) with a.x <= b on every inserted point, so each
    point x is the constraint (x, -1).h <= 0 on the cone of valid
    inequalities, whose extreme rays are the facets.  The start is the
    simplex on the first d+1 affinely independent points, picked by an
    `Echelon` that stops at rank d+1; the others are inserted in index
    order.  Inserting p evaluates s = a.p - b on every facet.  A facet
    with s = 0 adds p to its mask.  Each adjacent pair of a facet with
    s+ > 0 and one with s- < 0 yields the new facet
    s+ h- - s- h+ through p, and then the facets with s > 0 are dropped.
    Two facets are adjacent when their common mask has at least d-1
    points and lies in no third facet's mask (the combinatorial test).
    A new facet's mask is that common mask plus p, since a positive
    combination is tight exactly where both parts are; so masks hold
    every tight input point, coplanar and non-extreme ones included.

    Returns a list of (mask, normal, offset): the facet's bitmask over the
    input indices and its outward hyperplane normal . x <= offset, with
    (normal, offset) a primitive integer vector.  Raises ValueError when
    the points do not affinely span R^d.
    """
    rows = [tuple(x) + (-1,) for x in coords]
    # The start points: each row independent of the rows before it, up
    # to rank d+1.
    ech = Echelon()
    start = []
    for i, row in enumerate(rows):
        if ech.add(row):
            start.append(i)
            if len(start) > d:
                break
    else:
        raise ValueError("input not full-dimensional")
    # Column k of the inverse of the start matrix is, up to a positive
    # factor, minus the facet opposite start[k]: tight on the other
    # start points, strictly negative on start[k].
    aug = [list(rows[i]) + [int(j == r) for j in range(d + 1)] for r, i in enumerate(start)]
    _, red = rref_int(aug, 2 * (d + 1))
    scale = lcm(*(red[r][r] for r in range(d + 1)))
    full = sum(1 << i for i in start)
    facets = []
    for k, i in enumerate(start):
        h = [-red[r][d + 1 + k] * (scale // red[r][r]) for r in range(d + 1)]
        facets.append((_divide_gcd(h), full & ~(1 << i)))
    for k in sorted(set(range(len(rows))) - set(start)):
        q = rows[k]
        bit = 1 << k
        pos = []
        neg = []
        kept = []
        for f in facets:
            s = sum(map(mul, f[0], q))
            if s > 0:
                pos.append((f, s))
            elif s < 0:
                neg.append((f, s))
                kept.append(f)
            else:
                kept.append((f[0], f[1] | bit))
        if pos:
            masks = [f[1] for f in facets]
            for (hp, mp), sp in pos:
                for (hn, mn), sn in neg:
                    common = mp & mn
                    if common.bit_count() < d - 1:
                        continue
                    # Adjacent iff only the pair itself contains common.
                    seen = 0
                    for m in masks:
                        if m & common == common:
                            seen += 1
                            if seen > 2:
                                break
                    else:
                        h = [sp * y - sn * x for x, y in zip(hp, hn)]
                        kept.append((_divide_gcd(h), common | bit))
        facets = kept
    return [(m, h[:d], h[d]) for h, m in facets]
