"""Exact linear algebra over one integer boundary.

Everything verdict-relevant in this package reduces to questions about
ranks, kernels, hyperplanes and sign tests, and rank is discontinuous,
so no floating point is allowed anywhere near a verdict.  The geometry
runs over Python integers: a polytope stores its vertices cleared to
one common denominator (`polytope.Polytope.int_coords`), which the file
reader computes straight from the coordinate strings, and
`as_int_coords` clears rational points given in code (`Vec`s, immutable
tuples of `fractions.Fraction`) the same way.  Uniform scaling keeps
every face, every rank and kernel of a system built from the points,
and every sign test, so integer results convert back to the rational
answer by one division at the end (`fraction_vec`).

One elimination serves every question: the fraction-free echelon of
the kernels module (`kernels.Echelon`), grown one row at a time.  A full
kernel (the cycle systems of the rank oracle) is back-substituted from
it (`int_kernel_basis`).  A rank with a known cap needs less:
`affine_rank` (difference rows) and `int_hyperplane` (incidence rows)
add rows one at a time and stop as soon as the rank reaches the cap.  A
hyperplane fit to points that span more than a hyperplane then costs d
row insertions and dot products up to the first point off the candidate
plane, not an elimination over all of them.
`Fraction` values are made only at the edges: a polytope's vertex
view, reading off a kernel basis, a stacked pyramid's apex, and a
witness's images and scalars when they are read.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .kernels import Echelon

Rational = Fraction


class Vec(tuple):
    """Point or direction with exact rational coordinates.

    Immutable, hashable, componentwise arithmetic.  Mixed-length
    operations raise ValueError (zip strict).  Wrapping a Vec returns it
    unchanged, and `Fraction` coordinates are kept as they are, so
    re-wrapping already exact points costs no new fractions.
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable) -> "Vec":
        if type(coords) is cls:
            return coords
        return super().__new__(
            cls, (c if isinstance(c, Fraction) else Fraction(c) for c in coords)
        )

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

    One basis vector per non-pivot column f, in column order: the
    primitive vector that is positive at f and 0 at the other non-pivot
    columns (`kernels.Echelon.kernel`).  It is unique, so it does not
    depend on how the rows were scaled or ordered.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return sorted(c for c, _ in ech.rows), ech.kernel(ncols)


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
    """Dimension of the affine hull of integer points in R^d (0 if empty).

    The differences from the first point enter a fraction-free echelon
    one at a time (`kernels.Echelon`), which stops as soon as the rank is d.
    """
    if not points:
        return 0
    base = points[0]
    ech = Echelon()
    for p in points[1:]:
        if len(ech.rows) == d:
            break
        ech.add([a - b for a, b in zip(p, base)])
    return len(ech.rows)


def int_hyperplane(points: Sequence[Sequence[int]]) -> Optional[Tuple[List[int], int]]:
    """The hyperplane a.x = b through integer points, if it is unique.

    Returns (a, b) as a primitive integer vector whose first nonzero
    entry of a is positive, or None when the points do not affinely span
    exactly a hyperplane: uniqueness holds for any number of points
    precisely when the incidence system p.a - b = 0 has a one-dimensional
    kernel.  That vector is unique, so it does not depend on the order
    the system is solved in.

    The incidence rows (p, -1) enter a fraction-free echelon one at a
    time (`kernels.Echelon`) until its rank reaches d.  Then the kernel of the
    rows so far is one-dimensional, and back-substitution
    (`Echelon.kernel`) gives its primitive vector (a, b), the only
    candidate; each remaining point is tested on
    it by a dot product (`int_side`), since a point off it would raise
    the rank to d+1.  Points that run out below rank d leave a kernel of
    dimension two or more.
    """
    if not points:
        return None
    d = len(points[0])
    ech = Echelon()
    k = 0
    while len(ech.rows) < d:
        if k == len(points):
            return None
        ech.add([*points[k], -1])
        k += 1
    (h,) = ech.kernel(d + 1)
    a, b = h[:d], h[d]
    if any(int_side(a, b, p) for p in points[k:]):
        return None
    # a = 0 would force b = 0 on the first point: a is nonzero.
    if next(x for x in a if x) < 0:
        return [-x for x in a], -b
    return a, b


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

