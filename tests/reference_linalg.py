"""Linear-algebra helpers kept only as test references.

The library decides ranks and solves its systems over cleared integer
coordinates; these rational forms back the reference constructions the
tests compare it against (`test_graphs`, `test_polytope`), and
`test_linalg` checks them in turn.  `hyperplane_through` is the rational
hyperplane fit over `linalg.int_hyperplane`, which the library itself
uses directly.

`reference_int_hyperplane` and `reference_affine_rank` are the fits by
full Gauss-Jordan elimination over every point (`kernels.rref_int`);
the library's early-exit echelon must give the same answers.  The exact
LP `linear_feasible` backs `is_geometric_edge`, the supporting-hyperplane
edge test the combinatorial edge rule is checked against.

`reference_rref_int` is the row reduction that keeps every row primitive
throughout; `test_kernels` checks the library's against it.
"""

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from minkdecomp import kernels
from minkdecomp.linalg import (
    Rational,
    Vec,
    _phase1_feasible,
    as_int_coords,
    clear_denominators,
    int_hyperplane,
    int_kernel_basis,
    normalised_plane,
    rank_and_kernel,
)


def matrix_rank(rows: Sequence[Sequence[Rational]], ncols: Optional[int] = None) -> int:
    if ncols is None and not rows:
        return 0
    return rank_and_kernel(rows, ncols)[0]


def solve_exact(
    rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> List[Rational]:
    """Unique solution of a square nonsingular system; ValueError otherwise."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("system is not square")
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    int_rows = [r for r in clear_denominators(aug) if any(r)]
    pivot_cols, reduced = kernels.rref_int(int_rows, n + 1)
    if tuple(pivot_cols) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [Fraction(reduced[i][n], reduced[i][i]) for i in range(n)]


def hyperplane_through(points: Sequence[Sequence[Rational]]) -> Optional[Tuple[Vec, Rational]]:
    """The hyperplane a.x = b through the given points, if unique.

    Returns (a, b) with the first nonzero entry of a normalized to +1,
    which makes equal hyperplanes literally equal.  Returns None when the
    points do not affinely span exactly a hyperplane: uniqueness holds
    for any number of points precisely when the incidence system below
    has a one-dimensional kernel.
    """
    if not points:
        return None
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed dimension")
    ints, mult = as_int_coords(points)
    return normalised_plane(int_hyperplane(ints), mult)


def reference_affine_rank(points: Sequence[Sequence[int]], d: int) -> int:
    """Affine rank of integer points by one elimination over all the
    differences from the first point."""
    if not points:
        return 0
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return len(kernels.rref_int([r for r in diffs if any(r)], d)[0])


def reference_int_hyperplane(points: Sequence[Sequence[int]]) -> Optional[Tuple[List[int], int]]:
    """`linalg.int_hyperplane` read off the kernel basis of the whole
    incidence system p.a - b = 0, one row per point."""
    if not points:
        return None
    d = len(points[0])
    _, kernel = int_kernel_basis([list(p) + [-1] for p in points], d + 1)
    if len(kernel) != 1:
        return None
    h = kernel[0]
    lead = next((x for x in h[:d] if x), None)
    if lead is None:
        return None
    g = gcd(*h) if lead > 0 else -gcd(*h)
    return [x // g for x in h[:d]], h[d] // g


def linear_feasible(
    eq_rows: Sequence[Sequence[Rational]],
    eq_rhs: Sequence[Rational],
    le_rows: Sequence[Sequence[Rational]],
    le_rhs: Sequence[Rational],
    nvars: int,
) -> bool:
    """Is there an unrestricted x with Aeq.x = beq and Ale.x <= ble?

    Free variables are split into differences of nonnegative ones and
    inequalities get slack variables, then phase-1 simplex decides.
    """
    rows = []
    rhs = []
    nslack = len(le_rows)
    for row, b in zip(eq_rows, eq_rhs, strict=True):
        split = []
        for c in row:
            split.extend((Fraction(c), -Fraction(c)))
        rows.append(split + [Fraction(0)] * nslack)
        rhs.append(Fraction(b))
    for k, (row, b) in enumerate(zip(le_rows, le_rhs, strict=True)):
        split = []
        for c in row:
            split.extend((Fraction(c), -Fraction(c)))
        slack = [Fraction(0)] * nslack
        slack[k] = Fraction(1)
        rows.append(split + slack)
        rhs.append(Fraction(b))
    if any(len(r) != 2 * nvars + nslack for r in rows):
        raise ValueError("row length does not match nvars")
    return _phase1_feasible(rows, rhs)


def is_geometric_edge(p, u: int, v: int) -> bool:
    """Supporting-hyperplane test: some (a, b) has a.u = a.v = b and
    a.w <= b - 1 for every other vertex (the margin is scale-free since
    (a, b) ranges over all of R^{d+1})."""
    d = p.dim
    pu, pv = p.vertices[u], p.vertices[v]
    eq_rows = [list(pu) + [-1], list(pv) + [-1]]
    eq_rhs = [Fraction(0), Fraction(0)]
    le_rows = []
    le_rhs = []
    for w, pw in enumerate(p.vertices):
        if w in (u, v):
            continue
        le_rows.append(list(pw) + [-1])
        le_rhs.append(Fraction(-1))
    return linear_feasible(eq_rows, eq_rhs, le_rows, le_rhs, d + 1)


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


def reference_rref_int(rows, ncols):
    """Integer Gauss-Jordan elimination that makes every updated row
    primitive: (pivot_cols, reduced), each reduced row primitive with a
    positive pivot and every pivot column zero in the other rows."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivot_cols = []
    rank = 0
    for col in range(ncols):
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
