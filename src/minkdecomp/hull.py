"""Exact facet enumeration for desk-scale vertex sets.

`kernels.facet_scan` builds the hull by incremental double description
(Fukuda & Prodon 1996): it starts from a simplex on the first d+1
affinely independent points, inserts the rest one at a time, and forms
each new facet from an adjacent pair of facets on either side of the new
point.  Its cost follows the facets it builds, not the C(n, d) vertex
subsets, and it handles non-simplicial facets natively.  Every facet
lists all input points on its hyperplane, non-extreme ones included.

Input coordinates are rational; `linalg.as_int_coords` clears their
common denominator, so the affine-rank check and the kernel run over
integers (uniform scaling does not change the face structure).
`SUBSET_GUARD` refuses inputs with more than 10^7 d-subsets
(GuardExceededError): it is an admission bound on the input size only,
not a measure of the hull's work.
"""

from fractions import Fraction
from math import comb
from typing import Sequence

from . import kernels
from .errors import DegenerateInputError, GuardExceededError, InvalidInputError
from .linalg import Rational, Vec, affine_rank, as_int_coords

SUBSET_GUARD = 10**7


def facet_data(dim: int, vertices: Sequence[Sequence[Rational]]):
    """Facets with their outward hyperplanes.

    Returns a list of (vertex_index_tuple, normal, offset) sorted by the
    vertex tuple, with normal . x <= offset over the whole vertex set and
    equality on every input point of the facet's hyperplane.  Points that
    are not extreme are kept and listed in every facet whose hyperplane
    holds them, so the facet lists tell them apart from the vertices;
    `Polytope.from_vertices` rejects them by that test.
    """
    pts = [Vec(v) for v in vertices]
    n = len(pts)
    if n == 0:
        raise InvalidInputError("empty vertex set")
    d = dim
    if any(len(p) != d for p in pts):
        raise InvalidInputError("vertex of wrong dimension")
    if len(set(pts)) != n:
        raise InvalidInputError("duplicate vertices")
    if comb(n, d) > SUBSET_GUARD:
        raise GuardExceededError(
            f"C({n},{d}) = {comb(n, d)} d-subsets exceeds the guard of {SUBSET_GUARD}"
        )
    ints, mult = as_int_coords(pts)
    if affine_rank(ints, d) != d:
        raise DegenerateInputError("vertex set does not affinely span the ambient dimension")
    raw = kernels.facet_scan(ints, d)
    out = []
    for mask, normal, offset in raw:
        members = tuple(i for i in range(n) if mask >> i & 1)
        # Undo the scaling: the integer scan saw mult * x.
        out.append((members, Vec(normal), Fraction(offset, mult)))
    out.sort(key=lambda t: t[0])
    return out

