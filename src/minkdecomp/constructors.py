"""Constructors for the standard families: simplices, sums of simplices,
cubes, cyclic polytopes, truncated prisms and the small stacked polyhedra.

Coordinates are fixed and exact so that every build is reproducible
bit-for-bit; each family records the construction it claims to be in its
name.
"""

from fractions import Fraction
from typing import Optional

from . import hull
from .errors import InvalidInputError
from .linalg import Vec, unit_vec, zero_vec
from .polytope import Polytope, minkowski_sum, stack_pyramid, truncate_vertex


def simplex(d: int) -> Polytope:
    """conv{0, e_1, ..., e_d}."""
    if d < 1:
        raise InvalidInputError("simplex needs d >= 1")
    verts = [zero_vec(d)] + [unit_vec(d, i) for i in range(d)]
    return Polytope.from_vertices(d, verts, name=f"simplex({d})")


def segment(start, end) -> Polytope:
    """A segment as a 1-dimensional polytope with rational endpoints."""
    a, b = Fraction(start), Fraction(end)
    if a == b:
        raise InvalidInputError("segment endpoints coincide")
    return Polytope.from_vertices(1, [[a], [b]], name=f"segment({a},{b})")


def _padded_simplex_points(m: int, offset: int, ambient: int):
    """Vertices of an m-simplex living in coordinates offset..offset+m-1."""
    pts = [zero_vec(ambient)]
    for i in range(m):
        pts.append(unit_vec(ambient, offset + i))
    return pts


def delta(m: int, n: int) -> Polytope:
    """Sum of an m-simplex and an n-simplex in complementary subspaces."""
    if m < 0 or n < 0 or m + n < 1:
        raise InvalidInputError("delta needs m, n >= 0 with m + n >= 1")
    ambient = m + n
    a = _padded_simplex_points(m, 0, ambient)
    b = _padded_simplex_points(n, m, ambient)
    # Every pairwise sum is already extreme here (product-like structure),
    # so the sum's pruning keeps all (m + 1)(n + 1) of them.
    return minkowski_sum(a, b, name=f"delta({m},{n})")


def cube(d: int) -> Polytope:
    """Sum of d pairwise orthogonal unit segments: all 0/1 vectors.  The
    hull's guard is applied to the 2^d points before they are listed."""
    if d < 1:
        raise InvalidInputError("cube needs d >= 1")
    hull.admit(1 << d, d)
    verts = []
    for bits in range(1 << d):
        verts.append(Vec((bits >> i) & 1 for i in range(d)))
    return Polytope.from_vertices(d, verts, name=f"cube({d})")


def moment_point(t: int, d: int) -> Vec:
    return Vec(t**k for k in range(1, d + 1))


def cyclic(n: int, d: int) -> Polytope:
    """Cyclic polytope C(n, d) on the moment curve at t = 1..n.

    Restricted to even d, where the Gale evenness test used by the test
    suite has no end-segment special cases.
    """
    if d < 2 or d % 2 != 0:
        raise InvalidInputError("cyclic is implemented for even d >= 2")
    if n < d + 1:
        raise InvalidInputError("cyclic needs n >= d + 1")
    verts = [moment_point(t, d) for t in range(1, n + 1)]
    return Polytope.from_vertices(d, verts, name=f"cyclic({n},{d})")


def bipyramid3() -> Polytope:
    """Triangular bipyramid: two apexes over a triangle's interior."""
    verts = [
        Vec([0, 0, 0]),
        Vec([3, 0, 0]),
        Vec([0, 3, 0]),
        Vec([1, 1, 1]),
        Vec([1, 1, -1]),
    ]
    return Polytope.from_vertices(3, verts, name="bipyramid3")


def octahedron() -> Polytope:
    verts = [unit_vec(3, i) for i in range(3)] + [-unit_vec(3, i) for i in range(3)]
    return Polytope.from_vertices(3, verts, name="octahedron")


def _first_triangle_facet(p: Polytope, avoid_vertex: Optional[int] = None) -> int:
    for fi, f in enumerate(p.facets):
        if len(f) == 3 and (avoid_vertex is None or avoid_vertex not in f):
            return fi
    raise InvalidInputError("no triangular facet found")


def capped_prism() -> Polytope:
    """A tetrahedron stacked onto one triangular end of the prism delta(1,2)."""
    prism = delta(1, 2)
    fi = _first_triangle_facet(prism)
    return stack_pyramid(prism, fi, name="capped_prism")


def bd182() -> Polytope:
    """Britton-Dunitz no. 182: a tetrahedron stacked onto a cap facet of
    the capped prism."""
    capped = capped_prism()
    apex = len(capped) - 1
    for fi, f in enumerate(capped.facets):
        if len(f) == 3 and apex in f:
            return stack_pyramid(capped, fi, name="bd182")
    raise InvalidInputError("capped prism lost its cap facets")


def bd198() -> Polytope:
    """Britton-Dunitz no. 198: tetrahedra stacked onto both triangular ends
    of the prism delta(1,2)."""
    capped = capped_prism()
    apex = len(capped) - 1
    fi = _first_triangle_facet(capped, avoid_vertex=apex)
    return stack_pyramid(capped, fi, name="bd198")


def wedge(d: int) -> Polytope:
    """The simplicial d-prism with one vertex truncated."""
    if d < 3:
        raise InvalidInputError("wedge needs d >= 3")
    return truncate_vertex(delta(1, d - 1), 0, name=f"wedge({d})")


def pentagon() -> Polytope:
    verts = [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]]
    return Polytope.from_vertices(2, verts, name="pentagon")


_BASIC = {
    "simplex": simplex,
    "segment": segment,
    "delta": delta,
    "cube": cube,
    "cyclic": cyclic,
    "bipyramid3": bipyramid3,
    "octahedron": octahedron,
    "capped_prism": capped_prism,
    "bd182": bd182,
    "bd198": bd198,
    "wedge": wedge,
    "pentagon": pentagon,
}


def construct_basic(kind: str, **params) -> Polytope:
    """Dispatch by family name; raises InvalidInputError on bad kinds/params."""
    builder = _BASIC.get(kind)
    if builder is None:
        raise InvalidInputError(f"unknown construction kind: {kind!r}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise InvalidInputError(f"bad parameters for {kind}: {exc}") from exc
