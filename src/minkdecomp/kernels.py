"""The integer kernels: row reduction and facet enumeration, pure Python
over arbitrary-precision integers.

`Echelon` is the package's one elimination: a fraction-free echelon
(Bareiss 1968) grown one row at a time, over rows whose denominators
the caller has cleared.  A rank question with a known cap
(`linalg.affine_rank`, `linalg.int_hyperplane`, the start simplex of
`facet_scan`) adds rows only until the cap is reached.  Two read-offs
serve the rest: `Echelon.reduced` gives the primitive reduced row
echelon form with positive pivots, which the row space alone
determines, and `Echelon.kernel` one integer kernel vector per free
column.  `rref_int` feeds a matrix to an echelon and returns its
reduced form; the rank oracle brings its edge rows to a basis with it
(`graphs._edge_rows`) and `facet_scan` inverts its start simplex with
it.  The oracle's cycle systems are solved by `linalg.int_kernel_basis`
over `Echelon.kernel`.

`facet_scan` is an exact double-description hull whose cost follows the
facets it builds rather than the C(n, d) vertex subsets.  It builds
every hull in the package, and only `hull` calls it: `hull.facet_data`
(for `Polytope.from_int_coords`, which listed facets are also checked
through) and `hull.extreme_points` (the vertex pruning of Minkowski
sums).  Both read only its facet masks.  It keeps a plane per facet
because double description combines planes to make new facets; a
polytope's planes are fitted by `Polytope.int_plane`, which gives the
same primitive ones.
"""

from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

# There is no compiled path; the benchmark still records this flag.
HAVE_COMPILED = False


def rref_int(rows, ncols):
    """The primitive reduced row echelon form of an integer matrix whose
    rows have ncols entries: (pivot_cols, reduced), each reduced row
    primitive with a positive pivot as its first nonzero entry, and every
    pivot column zero in all other rows (`Echelon.reduced`).  Zero rows
    are allowed."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.reduced()


def _cancel(row, prow, c):
    """The fraction-free combination of row and pivot row prow that is
    zero at column c: row times prow[c] minus prow times row[c], with the
    two multipliers divided by their gcd."""
    p, x = prow[c], row[c]
    g = gcd(p, x)
    p, x = p // g, x // g
    return [a * p - x * b for a, b in zip(row, prow)]


class Echelon:
    """A fraction-free integer row echelon form, grown one row at a time.

    The rows are kept primitive, in the order they were added, each with
    its pivot column, its first nonzero entry; a row is zero at the pivot
    columns of the rows before it.  `add` eliminates a new row's entries
    at the pivot columns in that order, each step a fraction-free
    combination with the pivot row, which keeps the entries already
    eliminated at zero.  A nonzero remainder is appended with its first
    nonzero entry as a new pivot, and the rank grows by one.  Pivots may
    be negative; the read-offs fix the signs.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: List[Tuple[int, Sequence[int]]] = []

    def add(self, row: Sequence[int]) -> bool:
        """Append row reduced; True iff it is independent of the rows so far."""
        for c, prow in self.rows:
            if row[c]:
                row = _cancel(row, prow, c)
        c = next((j for j, a in enumerate(row) if a), None)
        if c is None:
            return False
        g = gcd(*row)
        self.rows.append((c, [a // g for a in row] if g != 1 else row))
        return True

    def reduced(self) -> Tuple[List[int], List[List[int]]]:
        """(pivot_cols, reduced): the primitive reduced row echelon form
        with positive pivots, rows in pivot order.

        Each pivot column is cleared from the earlier rows, last row
        first.  A row is zero at the pivots of the rows before it, and by
        the time it clears its own pivot from them the later rows have
        cleared theirs from it, so each step changes the earlier row only
        at that pivot and at free columns.  The rows are new lists: the
        echelon may hold the caller's own."""
        done: List[Tuple[int, List[int]]] = []
        for c, row in reversed(self.rows):
            for pc, prow in done:
                if row[pc]:
                    row = _cancel(row, prow, pc)
            g = gcd(*row) if row[c] > 0 else -gcd(*row)
            done.append((c, [a // g for a in row]))
        done.sort(key=lambda cr: cr[0])
        return [c for c, _ in done], [row for _, row in done]

    def kernel(self, ncols: int) -> List[List[int]]:
        """An integer kernel basis of the rows, of length ncols: per free
        (non-pivot) column f, in column order, the primitive vector that
        is positive at f and zero at the other free columns.

        Each vector starts as 1 at f and solves the pivot entries by
        back-substitution, last row first: a row is nonzero only at its
        pivot, at the pivots of later rows and at free columns, which are
        all set by then."""
        pivots = {c for c, _ in self.rows}
        basis = []
        for f in range(ncols):
            if f in pivots:
                continue
            h = [0] * ncols
            h[f] = 1
            for c, row in reversed(self.rows):
                # h[c] is still 0, so this is the rest of the row's equation.
                s = sum(map(mul, row, h))
                if s:
                    p = row[c]
                    g = gcd(p, s)
                    if p != g:
                        h = [x * (p // g) for x in h]
                    h[c] = -(s // g)
            g = gcd(*h) if h[f] > 0 else -gcd(*h)
            basis.append([x // g for x in h])
        return basis


def _divide_gcd(h):
    g = gcd(*h)
    return tuple(x // g for x in h)


def _in_pair_only(common, masks):
    """Whether at most two of the masks contain common: the pair itself."""
    seen = 0
    for m in masks:
        if m & common == common:
            seen += 1
            if seen > 2:
                return False
    return True


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
    When either mask holds exactly d points, the third-facet scan is
    skipped: those d tight points span the facet's hyperplane, so they
    are affinely independent, and the common mask, at least d-1 of them
    and not all d (two facets never share every point that spans one's
    hyperplane), spans a (d-2)-flat that lies in both facets.  Their
    intersection is then a ridge, which lies in no third facet.  A new
    facet's mask is that common mask plus p, since a positive
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
                simplicial = mp.bit_count() == d
                for (hn, mn), sn in neg:
                    common = mp & mn
                    if common.bit_count() < d - 1:
                        continue
                    if simplicial or mn.bit_count() == d or _in_pair_only(common, masks):
                        h = [sp * y - sn * x for x, y in zip(hp, hn)]
                        kept.append((_divide_gcd(h), common | bit))
        facets = kept
    return [(m, h[:d], h[d]) for h, m in facets]
