"""Exact facet enumeration for desk-scale vertex sets.

`kernels.facet_scan` builds the hull by incremental double description
(Fukuda & Prodon 1996): it starts from a simplex on the first d+1
affinely independent points, inserts the rest one at a time, and forms
each new facet from an adjacent pair of facets on either side of the new
point.  Its cost follows the facets it builds, not the C(n, d) vertex
subsets, and it handles non-simplicial facets natively.  Every facet
lists all input points on its hyperplane, non-extreme ones included.

Input coordinates are rational; `linalg.as_int_coords` clears their
common denominator, so the kernel runs over integers (uniform scaling
does not change the face structure), and its start simplex doubles as
the affine-rank check.  `facet_data` hands back those integer
coordinates with the facets' member tuples, and no planes:
`Polytope.int_plane` fits each plane itself.  Facet members are read off
each mask by low-bit iteration (`mask_members`).
`SUBSET_GUARD` refuses inputs with more than 10^7 d-subsets
(GuardExceededError): it is an admission bound on the input size only,
not a measure of the hull's work.  `admit` applies it, here and in
`constructors.cube`, which checks its 2^d points before it lists them.

Every hull is built here, by three callers: `facet_data`, for
`Polytope.from_vertices`; `facet_masks`, for `polytope.validate`, which
compares a file's listed facets with the hull's; and `extreme_points`,
which prunes the candidate points of a Minkowski sum.  The first two
apply the guard; the prune does not, and the `from_vertices` call on
the points it keeps applies it.
"""

from math import log10
from typing import List, Sequence, Tuple

from . import kernels
from .errors import DegenerateInputError, GuardExceededError, InvalidInputError
from .linalg import Rational, Vec, as_int_coords

SUBSET_GUARD = 10**7


def facet_data(dim: int, vertices: Sequence[Sequence[Rational]]):
    """The facets of the hull, and the integer coordinates it was built
    over.

    Returns (facets, ints, mult).  ints, mult are the vertices cleared to
    a common denominator (`linalg.as_int_coords`): X = mult * x.  facets
    is the sorted list of the facets' vertex index tuples, each listing
    every input point on the facet's hyperplane.  Points that are not
    extreme are kept and listed in every facet whose hyperplane holds
    them, so the facet lists tell them apart from the vertices;
    `Polytope.from_vertices` rejects them by that test.
    """
    n = len(vertices)
    if n == 0:
        raise InvalidInputError("empty vertex set")
    d = dim
    if any(len(v) != d for v in vertices):
        raise InvalidInputError("vertex of wrong dimension")
    ints, mult = as_int_coords(vertices)
    if len(set(ints)) != n:
        raise InvalidInputError("duplicate vertices")
    admit(n, d)
    try:
        masks = _scan_masks(ints, d)
    except ValueError:
        raise DegenerateInputError(
            "vertex set does not affinely span the ambient dimension"
        ) from None
    return sorted(map(mask_members, masks)), ints, mult


def facet_masks(ints: Sequence[Sequence[int]], d: int):
    """The set of facet bitmasks over the input indices of the hull of
    integer points that affinely span R^d, under the guard.

    Each mask holds every input point on the facet's hyperplane, so the
    copies of a repeated point share their masks.
    """
    admit(len(ints), d)
    return _scan_masks(ints, d)


def extreme_points(dim: int, points: Sequence[Vec]) -> List[Vec]:
    """The points that are vertices of their convex hull, in their order.

    One hull over all the points and `non_vertices` on its facets; the
    points must be distinct.  Points that do not affinely span R^dim are
    returned unchanged, for `Polytope.from_vertices` to reject.
    """
    n = len(points)
    if n <= dim or any(len(x) != dim for x in points):
        return list(points)
    try:
        masks = _scan_masks(as_int_coords(points)[0], dim)
    except ValueError:
        return list(points)
    facets = [mask_members(mask) for mask in masks]
    stray = set(non_vertices(n, facets))
    return [x for i, x in enumerate(points) if i not in stray]


def non_vertices(n: int, facets: Sequence[Sequence[int]]) -> List[int]:
    """Indices of the input points that are not vertices, read off facet
    lists that name every input point on each facet's hyperplane.

    The smallest face holding a point is the intersection of the facets
    through it (the whole set for a point in no facet), so a point is a
    vertex exactly when it is the only input point in that intersection.
    A vertex lies in at least d facets; fewer facets meet in a face of
    dimension at least 1, which holds two vertices.
    """
    meet = [-1] * n
    for members in facets:
        mask = 0
        for i in members:
            mask |= 1 << i
        for i in members:
            meet[i] &= mask
    return [i for i in range(n) if meet[i] != 1 << i]


def mask_members(mask: int) -> Tuple[int, ...]:
    """The indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _scan_masks(ints: Sequence[Sequence[int]], d: int):
    return {mask for mask, _, _ in kernels.facet_scan(ints, d)}


def admit(n: int, d: int) -> None:
    """Refuse (GuardExceededError) a hull of n points in R^d with more
    than `SUBSET_GUARD` d-subsets.  The message gives C(n, d) in full
    when it is below 10^15, and ">= 10^15" otherwise; n in full when it
    has at most 15 digits, and its digit count otherwise.

    C(n, d) is never computed in full: C(n, k) = C(n, k-1) (n-k+1) / k
    does not decrease for k up to min(d, n-d), where it reaches C(n, d),
    so the product stops once it reaches 10^15."""
    subsets = 1
    for k in range(1, min(d, n - d) + 1):
        subsets = subsets * (n - k + 1) // k
        if subsets >= 10**15:
            break
    if subsets <= SUBSET_GUARD:
        return
    points = str(n) if n < 10**15 else f"{_digits(n)}-digit n"
    count = f"= {subsets}" if subsets < 10**15 else ">= 10^15"
    raise GuardExceededError(
        f"C({points},{d}) {count} d-subsets exceeds the guard of {SUBSET_GUARD}"
    )


def _digits(x: int) -> int:
    """The number of decimal digits of x > 0, counted without `str`,
    which refuses integers of more than 4300 digits: floor(log10(x)) + 1,
    with the float logarithm corrected by exact comparison."""
    k = int(log10(x))
    if 10**k > x:
        k -= 1
    elif 10 ** (k + 1) <= x:
        k += 1
    return k + 1
