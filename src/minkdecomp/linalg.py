"""Exact linear algebra over one integer boundary.

Everything verdict-relevant in this package reduces to questions about
ranks, kernels, hyperplanes and sign tests, and rank is discontinuous,
so no floating point is allowed anywhere near a verdict.  Input
coordinates are fractions.Fraction (vectors are immutable tuples of
them, matrices plain lists of rows); `as_int_coords` clears the common
denominator of a point set once, and the geometry then runs over Python
integers.  Uniform scaling keeps every face, every rank and kernel of a
system built from the points, and every sign test, so integer results
convert back to the rational answer by one division at the end.
Elimination is fraction-free integer row reduction in the kernels
module.  `Fraction` values are made only at the edges: reading off a
kernel basis, the normalised hyperplanes callers keep, and witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from . import kernels

Rational = Fraction


class Vec(tuple):
    """Point or direction with exact rational coordinates.

    Immutable, hashable, componentwise arithmetic.  Mixed-length
    operations raise ValueError (zip strict).
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable) -> "Vec":
        return super().__new__(cls, (Fraction(c) for c in coords))

    def __add__(self, other) -> "Vec":
        return Vec(a + b for a, b in zip(self, other, strict=True))

    def __radd__(self, other) -> "Vec":
        return self.__add__(other)

    def __sub__(self, other) -> "Vec":
        return Vec(a - b for a, b in zip(self, other, strict=True))

    def __neg__(self) -> "Vec":
        return Vec(-a for a in self)

    def __mul__(self, scalar) -> "Vec":
        s = Fraction(scalar)
        return Vec(a * s for a in self)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Vec":
        s = Fraction(scalar)
        return Vec(a / s for a in self)

    def dot(self, other) -> Rational:
        return sum((a * b for a, b in zip(self, other, strict=True)), Fraction(0))

    def is_zero(self) -> bool:
        return not any(self)


def zero_vec(d: int) -> Vec:
    return Vec([0] * d)


def unit_vec(d: int, i: int) -> Vec:
    """Standard basis vector e_{i+1} of length d."""
    return Vec(int(j == i) for j in range(d))


def fraction_vec(numerators: Iterable[int], denominator: int) -> Vec:
    """The Vec numerators / denominator, for a nonzero integer denominator."""
    return tuple.__new__(Vec, (Fraction(x, denominator) for x in numerators))


def as_int_coords(points: Iterable[Sequence[Rational]]) -> Tuple[List[Tuple[int, ...]], int]:
    """Clear the common denominator of a point set: (mult * p for each p), mult.

    mult is the least positive integer making every coordinate integral.
    Every point is scaled by the same factor, so faces, affine ranks,
    hyperplanes through the points and the kernels of systems built from
    them are those of the original set.
    """
    pts = [[c if isinstance(c, (int, Fraction)) else Fraction(c) for c in p] for p in points]
    mult = lcm(*(c.denominator for p in pts for c in p))
    return [tuple(c.numerator * (mult // c.denominator) for c in p) for p in pts], mult


def clear_denominators(rows: Sequence[Sequence[Rational]]) -> List[List[int]]:
    """Scale each row by the lcm of its denominators; kernel unchanged."""
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in fr)) if fr else 1
        out.append([int(x * mult) for x in fr])
    return out


def int_kernel_basis(
    rows: Sequence[Sequence[int]], ncols: int
) -> Tuple[List[int], List[List[int]]]:
    """Pivot columns and an integer kernel basis of an integer matrix
    (all-zero rows allowed).

    One basis vector per non-pivot column f, in column order: a positive
    multiple of the vector with 1 at f and 0 at the other non-pivot
    columns, read off the primitive reduced row echelon form.  That form
    is unique, so the vectors' directions do not depend on how the rows
    were scaled.
    """
    pivot_cols, reduced = kernels.rref_int([r for r in rows if any(r)], ncols)
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        used = [(row, c) for row, c in zip(reduced, pivot_cols) if row[f]]
        scale = lcm(*(row[c] for row, c in used))
        vec = [0] * ncols
        vec[f] = scale
        for row, c in used:
            vec[c] = -row[f] * (scale // row[c])
        basis.append(vec)
    return pivot_cols, basis


def int_kernel(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[int, List[Vec]]:
    """Rank and kernel basis of an integer matrix (all-zero rows allowed).

    Each basis vector has 1 in one non-pivot column, 0 in the others
    (`int_kernel_basis` divided by that entry).
    """
    pivot_cols, basis = int_kernel_basis(rows, ncols)
    pivot_set = set(pivot_cols)
    free = [f for f in range(ncols) if f not in pivot_set]
    return len(pivot_cols), [fraction_vec(vec, vec[f]) for f, vec in zip(free, basis)]


def affine_rank(points: Sequence[Sequence[int]], d: int) -> int:
    """Dimension of the affine hull of integer points in R^d (0 if empty)."""
    if not points:
        return 0
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return len(kernels.rref_int([r for r in diffs if any(r)], d)[0])


def int_hyperplane(points: Sequence[Sequence[int]]) -> Optional[Tuple[List[int], int]]:
    """The hyperplane a.x = b through integer points, if it is unique.

    Returns (a, b) as a primitive integer vector whose first nonzero
    entry of a is positive, or None when the points do not affinely span
    exactly a hyperplane: uniqueness holds for any number of points
    precisely when the incidence system p.a - b = 0 has a one-dimensional
    kernel.
    """
    if not points:
        return None
    d = len(points[0])
    _, kernel = int_kernel_basis([list(p) + [-1] for p in points], d + 1)
    if len(kernel) != 1:
        return None
    h = kernel[0]
    lead = next((x for x in h[:d] if x), None)
    if lead is None:
        # a = 0 forces b = 0, the zero vector; cannot occur in a kernel basis.
        return None
    g = gcd(*h) if lead > 0 else -gcd(*h)
    return [x // g for x in h[:d]], h[d] // g


def int_side(a: Sequence[int], b: int, x: Sequence[int]) -> int:
    """a.x - b over integers: its sign tells the side of the plane."""
    return sum(u * v for u, v in zip(a, x)) - b


def rank_and_kernel(
    rows: Sequence[Sequence[Rational]], ncols: Optional[int] = None
) -> Tuple[int, List[Vec]]:
    """Rank and a kernel basis of the matrix given as a list of rows.

    The basis vectors b satisfy M.b = 0 exactly and there are
    ncols - rank of them.  An empty matrix has rank 0 and the full
    ambient space as kernel (ncols must then be passed explicitly).
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    return int_kernel(clear_denominators(rows), ncols)


def affinely_independent(points: Sequence[Sequence[Rational]]) -> bool:
    """True iff the differences p_i - p_1 (i >= 2) are linearly independent."""
    if len({len(p) for p in points}) > 1:
        raise ValueError("points of mixed dimension")
    k = len(points)
    if k <= 1:
        return True
    d = len(points[0])
    if k > d + 1:
        return False
    return affine_rank(as_int_coords(points)[0], d) == k - 1


def _phase1_feasible(rows: List[List[Fraction]], rhs: List[Fraction]) -> bool:
    """Exact phase-1 simplex: is {x >= 0 : A.x = b} nonempty?

    Bland's rule on entering and leaving variables, so termination is
    guaranteed despite degeneracy.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return True
    # Flip rows so every right-hand side is nonnegative, then append an
    # identity of artificial variables; minimize their sum.
    tab = []
    for i in range(m):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-x for x in row]
            b = -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(row + art + [b])
    basis = list(range(n, n + m))
    total = n + m
    # Reduced cost row for the artificial objective, with the artificial
    # basis already priced out: cost_j = c_j - sum_i tab[i][j].
    cost = []
    for j in range(total):
        cj = Fraction(1) if j >= n else Fraction(0)
        cost.append(cj - sum(tab[i][j] for i in range(m)))
    objective = -sum((tab[i][-1] for i in range(m)), Fraction(0))

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # Cannot happen: the artificial objective is bounded below by 0.
            raise ArithmeticError("unbounded phase-1 objective")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if cost[enter]:
            f = cost[enter]
            for j in range(total):
                cost[j] -= f * tab[leave][j]
            objective -= f * tab[leave][-1]
        basis[leave] = enter
    return objective == 0


def point_in_hull(p: Sequence[Rational], points: Sequence[Sequence[Rational]]) -> bool:
    """True iff p is a convex combination of the given points (exact LP)."""
    if not points:
        return False
    pt = Vec(p)
    pts = [Vec(q) for q in points]
    d = len(pt)
    if any(len(q) != d for q in pts):
        raise ValueError("points of mixed dimension")
    # sum mu_i q_i = p, sum mu_i = 1, mu >= 0
    rows = [[q[r] for q in pts] for r in range(d)]
    rows.append([Fraction(1)] * len(pts))
    rhs = list(pt) + [Fraction(1)]
    return _phase1_feasible(rows, rhs)


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


def normalised_plane(
    plane: Optional[Tuple[Sequence[int], int]], mult: int
) -> Optional[Tuple[Vec, Rational]]:
    """The rational plane a.x = b / mult, scaled so that the first nonzero
    entry of a is +1 (None passes through)."""
    if plane is None:
        return None
    a, b = plane
    lead = next(x for x in a if x)
    return fraction_vec(a, lead), Fraction(b, lead * mult)
