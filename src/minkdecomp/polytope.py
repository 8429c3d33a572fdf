"""Polytope data model: vertices plus facet incidences, and the operations
on them that everything else consumes.

A polytope is stored as exact vertex coordinates together with the list
of facet vertex-index sets; no face lattice above the facet level is
kept, because none of the decomposability rules needs one.  Edges are
derived combinatorially: a pair is an edge iff the facets containing
both vertices intersect in exactly that pair (with the convention that
an empty facet family intersects to the full vertex set, which makes a
segment have one edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import hull
from .errors import InvalidInputError
from .linalg import (
    Rational,
    Vec,
    affine_rank,
    as_int_coords,
    int_hyperplane,
    int_side,
    normalised_plane,
    point_in_hull,
)


class FVector(NamedTuple):
    v: int
    e: int
    f: int


@dataclass(frozen=True)
class Polytope:
    dim: int
    vertices: Tuple[Vec, ...]
    facets: Tuple[Tuple[int, ...], ...]
    name: Optional[str] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_vertices(
        dim: int, vertices: Sequence[Sequence[Rational]], name: Optional[str] = None
    ) -> "Polytope":
        """Build with facets enumerated from scratch (under the guard).

        Every point must be a vertex of the hull; InvalidInputError
        names the points that are not (`_non_vertices`).  The facet
        planes are kept as the hull gives them: integral normals, and
        offsets over the vertices' common denominator (`int_coords`).
        """
        verts = tuple(Vec(v) for v in vertices)
        data = hull.facet_data(dim, verts)
        facets = tuple(members for members, _, _ in data)
        stray = _non_vertices(len(verts), facets)
        if stray:
            raise InvalidInputError(_stray_message(verts, stray))
        poly = Polytope(dim=dim, vertices=verts, facets=facets, name=name)
        poly._cache["planes"] = [(normal, offset) for _, normal, offset in data]
        return poly

    def facet_plane(self, index: int) -> Tuple[Vec, Rational]:
        """Outward hyperplane (a, b) of a facet: a.x <= b on P, = b on it."""
        planes = self._cache.get("planes")
        if planes is None:
            planes = [None] * len(self.facets)
            self._cache["planes"] = planes
        if planes[index] is None:
            planes[index] = self._fit_plane(self.facets[index])
        return planes[index]

    def int_coords(self) -> Tuple[List[Tuple[int, ...]], int]:
        """The vertices cleared to a common denominator, and that
        denominator (`linalg.as_int_coords`); computed once."""
        cached = self._cache.get("ints")
        if cached is None:
            cached = as_int_coords(self.vertices)
            self._cache["ints"] = cached
        return cached

    def _fit_plane(self, members: Sequence[int]) -> Tuple[Vec, Rational]:
        ints, mult = self.int_coords()
        fitted = int_hyperplane([ints[i] for i in members])
        if fitted is None:
            raise InvalidInputError(f"facet {tuple(members)} is not coplanar-spanning")
        a, b = fitted
        normal, offset = normalised_plane(fitted, mult)
        outside = next(
            (i for i in range(len(self.vertices)) if i not in set(members)), None
        )
        if outside is not None and int_side(a, b, ints[outside]) > 0:
            normal, offset = -normal, -offset
        return normal, offset

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        cached = self._cache.get("edges")
        if cached is None:
            cached = _edges_combinatorial(self)
            self._cache["edges"] = cached
        return cached

    def f_vector(self) -> FVector:
        return FVector(len(self.vertices), len(self.edges()), len(self.facets))

    def vertex_degree(self, v: int) -> int:
        return sum(1 for e in self.edges() if v in e)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        out = []
        for a, b in self.edges():
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return tuple(sorted(out))

    def facets_of_vertex(self, v: int) -> Tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.facets) if v in f)

    def translate(self, shift: Sequence[Rational]) -> "Polytope":
        t = Vec(shift)
        return Polytope(
            self.dim,
            tuple(v + t for v in self.vertices),
            self.facets,
            self.name,
        )


def _non_vertices(n: int, facets: Sequence[Sequence[int]]) -> List[int]:
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
        mask = sum(1 << i for i in members)
        for i in members:
            meet[i] &= mask
    return [i for i in range(n) if meet[i] != 1 << i]


def _stray_message(vertices: Sequence[Sequence[Rational]], stray: Sequence[int]) -> str:
    return "not vertices of the convex hull of the input: " + ", ".join(
        f"point {i} ({', '.join(map(str, vertices[i]))})" for i in stray
    )


def _edges_combinatorial(p: Polytope) -> Tuple[Tuple[int, int], ...]:
    n = len(p.vertices)
    all_mask = (1 << n) - 1
    fmask_of_vertex = [0] * n
    vmask_of_facet = []
    for fi, f in enumerate(p.facets):
        m = 0
        for v in f:
            m |= 1 << v
            fmask_of_vertex[v] |= 1 << fi
        vmask_of_facet.append(m)
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            common = fmask_of_vertex[u] & fmask_of_vertex[v]
            meet = all_mask
            fi = 0
            while common:
                if common & 1:
                    meet &= vmask_of_facet[fi]
                common >>= 1
                fi += 1
            if meet == (1 << u) | (1 << v):
                out.append((u, v))
    return tuple(out)


def is_simple(p: Polytope) -> bool:
    degree = [0] * len(p.vertices)
    for a, b in p.edges():
        degree[a] += 1
        degree[b] += 1
    return all(deg == p.dim for deg in degree)


@dataclass
class ValidationReport:
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(p: Polytope) -> ValidationReport:
    """Check every structural invariant geometrically; collect all failures.

    Once the facet checks pass, every point must be a vertex of the hull;
    the points that are not are named as `from_vertices` names them.
    """
    out: List[str] = []
    n = len(p.vertices)
    d = p.dim
    if any(len(v) != d for v in p.vertices):
        out.append("vertex coordinate length differs from dim")
        return ValidationReport(out)
    if len(set(p.vertices)) != n:
        out.append("duplicate vertex coordinates")
    ints, _ = p.int_coords()
    if n < d + 1 or affine_rank(ints, d) != d:
        out.append("vertex set does not affinely span the ambient dimension")
        return ValidationReport(out)
    member_sets = [set(f) for f in p.facets]
    for fi, f in enumerate(p.facets):
        if len(f) < d:
            out.append(f"facet {fi} has fewer than {d} vertices")
            continue
        if not all(0 <= v < n for v in f):
            out.append(f"facet {fi} has an out-of-range vertex index")
            continue
        fitted = int_hyperplane([ints[i] for i in f])
        if fitted is None:
            out.append(f"facet {fi} vertices do not lie on a unique common hyperplane")
            continue
        a, b = fitted
        sides = [int_side(a, b, ints[i]) for i in range(n) if i not in member_sets[fi]]
        if any(s == 0 for s in sides):
            out.append(f"facet {fi} hyperplane contains a vertex outside the facet")
        elif any(s > 0 for s in sides) and any(s < 0 for s in sides):
            out.append(f"facet {fi} does not have all other vertices on one side")
    for v in range(n):
        if sum(1 for f in member_sets if v in f) < d:
            out.append(f"vertex {v} lies in fewer than {d} facets")
    for i, a in enumerate(member_sets):
        for j, b in enumerate(member_sets):
            if i != j and a <= b:
                out.append(f"facet {i} is contained in facet {j}")
    if not out:
        # The facet checks passed, so each facet lists every point on its
        # hyperplane, which is what `_non_vertices` reads.
        stray = _non_vertices(n, p.facets)
        if stray:
            out.append(_stray_message(p.vertices, stray))
    return ValidationReport(out)


def minkowski_sum(p: Polytope, q, name: Optional[str] = None) -> Polytope:
    """Exact Minkowski sum via pairwise vertex sums and hull pruning.

    The second summand may be a Polytope or a bare point list; the latter
    admits lower-dimensional summands (segments, polygons in R^4), which
    cannot be represented as full-dimensional Polytope values but sum
    perfectly well.
    """
    q_vertices = q.vertices if isinstance(q, Polytope) else [Vec(x) for x in q]
    if not q_vertices:
        raise InvalidInputError("empty summand")
    if any(len(x) != p.dim for x in q_vertices):
        raise InvalidInputError("summands live in different ambient dimensions")
    candidates = sorted(set(a + b for a in p.vertices for b in q_vertices))
    keep = [
        c
        for i, c in enumerate(candidates)
        if not point_in_hull(c, [x for j, x in enumerate(candidates) if j != i])
    ]
    return Polytope.from_vertices(p.dim, keep, name=name)


def prism_over(p: Polytope, name: Optional[str] = None) -> Polytope:
    """Sum with a segment orthogonal to the affine hull: P x [0, 1]."""
    verts = [Vec(list(v) + [0]) for v in p.vertices]
    verts += [Vec(list(v) + [1]) for v in p.vertices]
    if name is None and p.name:
        name = f"prism_over({p.name})"
    return Polytope.from_vertices(p.dim + 1, verts, name=name)


def pyramid_over(p: Polytope, name: Optional[str] = None) -> Polytope:
    """Pyramid with base P: embed at height 0, apex over the base centroid."""
    verts = [Vec(list(v) + [0]) for v in p.vertices]
    centroid = [sum(col) / len(p.vertices) for col in zip(*p.vertices)]
    verts.append(Vec(centroid + [1]))
    return Polytope.from_vertices(p.dim + 1, verts, name=name)


def stack_pyramid(p: Polytope, facet: int, name: Optional[str] = None) -> Polytope:
    """Glue a pyramid onto the chosen facet.

    The apex starts at facet centroid + outward normal and is halved
    toward the centroid until it lies strictly beyond the chosen facet
    and strictly beneath every other one.
    """
    if not 0 <= facet < len(p.facets):
        raise InvalidInputError(f"no facet with index {facet}")
    members = p.facets[facet]
    normal, offset = p.facet_plane(facet)
    centroid = Vec(
        sum(col) / len(members) for col in zip(*(p.vertices[i] for i in members))
    )
    step = Fraction(1)
    for _ in range(64):
        apex = centroid + normal * step
        ok = normal.dot(apex) > offset
        if ok:
            for gi in range(len(p.facets)):
                if gi == facet:
                    continue
                gn, go = p.facet_plane(gi)
                if gn.dot(apex) >= go:
                    ok = False
                    break
        if ok:
            return Polytope.from_vertices(
                p.dim, list(p.vertices) + [apex], name=name
            )
        step /= 2
    raise InvalidInputError("could not place an apex beyond only the chosen facet")


def truncate_vertex(p: Polytope, v: int, name: Optional[str] = None) -> Polytope:
    """Cut off one vertex, one new vertex per incident edge at parameter 1/3."""
    if not 0 <= v < len(p.vertices):
        raise InvalidInputError(f"no vertex with index {v}")
    cut = []
    t = Fraction(1, 3)
    for w in p.neighbors(v):
        cut.append(p.vertices[v] + (p.vertices[w] - p.vertices[v]) * t)
    verts = [x for i, x in enumerate(p.vertices) if i != v] + cut
    return Polytope.from_vertices(p.dim, verts, name=name)


def facet_as_polytope(p: Polytope, facet: int) -> Polytope:
    """The facet as a (d-1)-polytope in its own right.

    Coordinates: drop one coordinate whose normal component is nonzero;
    on the facet's hyperplane that projection is an affine bijection, so
    the face structure and decomposability status are unchanged.  Facets
    of the facet are the inclusion-maximal intersections with the other
    facets of P.
    """
    if not 0 <= facet < len(p.facets):
        raise InvalidInputError(f"no facet with index {facet}")
    members = list(p.facets[facet])
    normal, _ = p.facet_plane(facet)
    drop = next(j for j, x in enumerate(normal) if x)
    reindex = {old: new for new, old in enumerate(members)}
    verts = [
        Vec(c for j, c in enumerate(p.vertices[old]) if j != drop) for old in members
    ]
    member_set = set(members)
    cuts = []
    for gi, g in enumerate(p.facets):
        if gi == facet:
            continue
        shared = member_set & set(g)
        if shared:
            cuts.append(frozenset(shared))
    maximal = [
        s for s in set(cuts) if not any(s < other for other in cuts)
    ]
    sub_facets = sorted(tuple(sorted(reindex[v] for v in s)) for s in maximal)
    name = f"facet{facet}({p.name})" if p.name else None
    return Polytope(p.dim - 1, tuple(verts), tuple(sub_facets), name)


def incidence_isomorphic(p: Polytope, q: Polytope) -> bool:
    """Vertex-facet incidence isomorphism by backtracking; small inputs only.

    Sound and complete for deciding combinatorial equivalence at the
    vertex-facet level, which determines the whole face lattice for
    polytopes.
    """
    np_, nq = len(p.vertices), len(q.vertices)
    if np_ != nq or len(p.facets) != len(q.facets):
        return False
    p_sizes = sorted(len(f) for f in p.facets)
    q_sizes = sorted(len(f) for f in q.facets)
    if p_sizes != q_sizes:
        return False
    p_facets = [frozenset(f) for f in p.facets]
    q_facets = set(frozenset(f) for f in q.facets)

    # Signature pruning: per vertex, the multiset of sizes of its facets.
    def signature(facets, v):
        return tuple(sorted(len(f) for f in facets if v in f))

    p_sig = [signature(p_facets, v) for v in range(np_)]
    q_sig = [signature(q_facets, v) for v in range(nq)]
    candidates = [
        [w for w in range(nq) if q_sig[w] == p_sig[v]] for v in range(np_)
    ]
    if any(not c for c in candidates):
        return False
    order = sorted(range(np_), key=lambda v: len(candidates[v]))
    mapping: Dict[int, int] = {}
    used = set()

    def feasible(v, w):
        # Every fully-mapped P-facet through v must land inside some Q-facet.
        for f in p_facets:
            if v not in f:
                continue
            image = {mapping[x] for x in f if x in mapping} | {w}
            if not any(image <= g for g in q_facets):
                return False
        return True

    def extend(k):
        if k == np_:
            return all(frozenset(mapping[x] for x in f) in q_facets for f in p_facets)
        v = order[k]
        for w in candidates[v]:
            if w in used or not feasible(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if extend(k + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return extend(0)
