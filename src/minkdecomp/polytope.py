"""Polytope data model: integer vertex points plus facet incidences, and
the operations on them that everything else consumes.

A polytope is stored as its vertices cleared to one common denominator,
the integer points X = mult * x with mult the least positive integer
that makes every coordinate integral (`int_coords`, as
`linalg.as_int_coords` gives them), together with the list of facet
vertex-index sets; no face lattice above the facet level is kept,
because none of the decomposability rules needs one.  Uniform scaling
keeps every face, rank, kernel and sign test, so the engine runs on
these integers alone.  `vertices`, the rational coordinates as `Vec`s
of `Fraction`s, is a view made on its first read, for file output,
rendering, error messages and the constructors' vector arithmetic.  Two
polytopes are equal when their dimensions, integer points, mult, facet
lists and names are: the same points and facets.

A file hands its points in cleared (`from_int_coords`), code hands in
rational vertices (`from_vertices`, or `Polytope(...)` with facets), and
the exact faces and copies derived inside the package keep the integers
of the polytope they come from (`_of_ints`).  Everything derived is
computed once per polytope and cached: the vertex view, one primitive
outward integer plane per facet (`int_plane`), the edges and the
adjacency.  Only this module lays out that cache, and only this module
makes a facet plane: `int_plane` fits each one on its first read,
however the polytope was built.

Edges are derived combinatorially from facet bitsets: a pair is an edge
iff the facets containing both vertices intersect in exactly that pair
(with the convention that an empty facet family intersects to the full
vertex set, which makes a segment have one edge).  An edge lies in at
least d-1 facets, so a pair sharing fewer is skipped, and the meet stops
as soon as it is down to the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

from . import hull
from .errors import InvalidInputError
from .linalg import Rational, Vec, as_int_coords, fraction_vec, int_hyperplane, int_side

T = TypeVar("T")
# Integer points X = mult * x, by vertex index, and mult.
IntCoords = Tuple[List[Tuple[int, ...]], int]


class FVector(NamedTuple):
    v: int
    e: int
    f: int


class Polytope:
    """A d-polytope: its integer vertex points over their least common
    denominator (`int_coords`), its facets as vertex index tuples, and an
    optional name.  Immutable; `len` is the number of vertices.

    `Polytope(dim, vertices, facets, name)` takes rational vertices given
    in code and the facets as they are, unchecked (`validate` checks
    them); `from_vertices` and `from_int_coords` enumerate the facets."""

    __slots__ = ("dim", "facets", "name", "_ints", "_cache")

    def __init__(
        self,
        dim: int,
        vertices: Sequence[Sequence[Rational]],
        facets: Sequence[Tuple[int, ...]],
        name: Optional[str] = None,
    ):
        self._set(dim, as_int_coords(vertices), facets, name)

    def _set(self, dim: int, ints: IntCoords, facets, name: Optional[str]) -> None:
        for attr, value in (
            ("dim", dim), ("facets", facets), ("name", name), ("_ints", ints), ("_cache", {})
        ):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        raise AttributeError(f"Polytope is immutable: cannot set {attr}")

    def __reduce__(self):
        # Copies and pickles are rebuilt through the constructor, not by
        # setting attributes.
        return Polytope._of_ints, (self.dim, *self._ints, self.facets, self.name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self._ints, self.facets, self.name) == (
            other.dim, other._ints, other.facets, other.name
        )

    def __hash__(self):
        ints, mult = self._ints
        return hash((self.dim, tuple(ints), mult, self.facets, self.name))

    def __len__(self) -> int:
        return len(self._ints[0])

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dim!r}, vertices={self.vertices!r}, "
            f"facets={self.facets!r}, name={self.name!r})"
        )

    @staticmethod
    def from_vertices(
        dim: int, vertices: Sequence[Sequence[Rational]], name: Optional[str] = None
    ) -> "Polytope":
        """Build from rational vertices, with facets enumerated from
        scratch: `from_int_coords` on the vertices cleared by
        `linalg.as_int_coords`."""
        ints, mult = as_int_coords(vertices)
        return Polytope.from_int_coords(dim, ints, mult, name)

    @staticmethod
    def from_int_coords(
        dim: int, ints: List[Tuple[int, ...]], mult: int, name: Optional[str] = None
    ) -> "Polytope":
        """Build from the integer points X = mult * x, mult the least
        common denominator of the vertices x, with facets enumerated from
        scratch (`hull.facet_data`, under the enumeration guard).

        Every point must be a vertex of the hull; InvalidInputError
        names the points that are not (`hull.non_vertices`)."""
        facets = hull.facet_data(dim, ints)
        stray = hull.non_vertices(len(ints), facets)
        if stray:
            raise InvalidInputError(_stray_message(ints, mult, stray))
        return Polytope._of_ints(dim, ints, mult, tuple(facets), name)

    @staticmethod
    def _of_ints(
        dim: int, ints: List[Tuple[int, ...]], mult: int,
        facets: Sequence[Tuple[int, ...]], name: Optional[str] = None,
    ) -> "Polytope":
        """The polytope with integer points ints / mult and the facets as
        given, unchecked.  ints and mult are first divided by their
        greatest common divisor, so mult is the least common denominator
        of the points, as `int_coords` promises."""
        common = gcd(mult, *(c for x in ints for c in x)) if mult != 1 else 1
        if common != 1:
            ints = [tuple(c // common for c in x) for x in ints]
            mult //= common
        poly = Polytope.__new__(Polytope)
        poly._set(dim, (ints, mult), facets, name)
        return poly

    @property
    def vertices(self) -> Tuple[Vec, ...]:
        """The rational vertices x = X / mult, as `Vec`s of `Fraction`s;
        made on the first read."""
        return self._derived("vertices", self._rational_vertices)

    def _rational_vertices(self) -> Tuple[Vec, ...]:
        ints, mult = self._ints
        return tuple(fraction_vec(x, mult) for x in ints)

    def int_plane(self, index: int) -> Tuple[Sequence[int], int]:
        """Outward integer hyperplane (a, o) of a facet on the `int_coords`
        scale: a.X <= o for every vertex X, with equality exactly on the
        facet.  Fitted on the first read (`_fit_plane`), whoever built
        the polytope; the primitive outward plane is unique."""
        planes = self._derived("int_planes", lambda: [None] * len(self.facets))
        if planes[index] is None:
            planes[index] = self._fit_plane(self.facets[index])
        return planes[index]

    def int_coords(self) -> IntCoords:
        """The vertices cleared to their least common denominator, by
        index, and that denominator: the polytope's own representation."""
        return self._ints

    def _fit_plane(self, members: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
        ints, _ = self._ints
        fitted = int_hyperplane([ints[i] for i in members])
        if fitted is None:
            raise InvalidInputError(f"facet {tuple(members)} is not coplanar-spanning")
        a, b = fitted
        member_set = set(members)
        outside = next((i for i in range(len(ints)) if i not in member_set), None)
        if outside is not None and int_side(a, b, ints[outside]) > 0:
            return tuple(-x for x in a), -b
        return tuple(a), b

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self._derived("edges", lambda: _edges_combinatorial(self))

    def f_vector(self) -> FVector:
        return FVector(len(self), len(self.edges()), len(self.facets))

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """v's neighbours in increasing order; none for an index that
        names no vertex."""
        adj = self._adjacency()
        return adj[v] if 0 <= v < len(adj) else ()

    def _adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """Each vertex's neighbours in increasing order; computed once."""
        return self._derived("adjacency", self._build_adjacency)

    def _build_adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        adj: List[List[int]] = [[] for _ in range(len(self))]
        # The edges come in increasing order, so each list does too.
        for a, b in self.edges():
            adj[a].append(b)
            adj[b].append(a)
        return tuple(map(tuple, adj))

    def _derived(self, key: str, build: Callable[[], T]) -> T:
        """The cached value derived under key, built by build() on first
        use.  Every cache entry goes through here, so only this module
        knows the cache's layout."""
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = build()
        return cached


def _stray_message(ints: Sequence[Sequence[int]], mult: int, stray: Sequence[int]) -> str:
    return "not vertices of the convex hull of the input: " + ", ".join(
        f"point {i} ({', '.join(map(str, fraction_vec(ints[i], mult)))})" for i in stray
    )


def _edges_combinatorial(p: Polytope) -> Tuple[Tuple[int, int], ...]:
    n = len(p)
    all_mask = (1 << n) - 1
    # An edge lies in at least d-1 facets.
    need = p.dim - 1
    fmask_of_vertex = [0] * n
    vmask_of_facet = []
    for fi, f in enumerate(p.facets):
        m = 0
        # Only an unvalidated `Polytope(...)` can list an index that names
        # no vertex, and `analyze` and `replay` read the facets here first:
        # a negative index fails the shift and one past the end the lookup.
        # Catching those costs nothing on valid input, where a min/max test
        # per facet made the edge derivation a fifth slower.
        try:
            for v in f:
                m |= 1 << v
                fmask_of_vertex[v] |= 1 << fi
        except (IndexError, ValueError):
            raise InvalidInputError(
                f"facet {fi} {tuple(f)} lists an index outside 0..{n - 1}"
            ) from None
        vmask_of_facet.append(m)
    out = []
    for u in range(n):
        fu = fmask_of_vertex[u]
        for v in range(u + 1, n):
            common = fu & fmask_of_vertex[v]
            if common.bit_count() < need:
                continue
            pair = (1 << u) | (1 << v)
            meet = all_mask
            while common and meet != pair:
                low = common & -common
                meet &= vmask_of_facet[low.bit_length() - 1]
                common ^= low
            if meet == pair:
                out.append((u, v))
    return tuple(out)


@dataclass
class ValidationReport:
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(p: Polytope) -> ValidationReport:
    """Check p against the exact hull of its points; collect all failures.

    The hull is built from p's integer points as
    `Polytope.from_int_coords` builds it, under its guard (a larger
    input raises GuardExceededError), and its refusal
    of the points (a coordinate list of the wrong length, a repeated
    point, points that do not span R^d, points that are not vertices)
    is the one violation.  Otherwise the listed facets, each read as a
    sorted member tuple, are compared with the hull's
    (`facet_list_faults`), so member and facet order do not matter.
    """
    try:
        hull_facets = Polytope.from_int_coords(p.dim, *p.int_coords()).facets
    except InvalidInputError as exc:
        return ValidationReport([str(exc)])
    listed = [tuple(sorted(f)) for f in p.facets]
    return ValidationReport(facet_list_faults(listed, hull_facets))


def facet_list_faults(
    listed: Sequence[Tuple[int, ...]], hull_facets: Sequence[Tuple[int, ...]]
) -> List[str]:
    """How a facet list differs from the hull's facets, both as sorted
    member tuples: each listed facet that is not a hull facet, by its
    index in the list and its members; each listed facet that repeats an
    earlier one, by both indices; then each hull facet left out, by its
    members.  Empty exactly when the list is the hull's facets in some
    order.  `validate` and `fileio.polytope_from_dict` both compare
    through here."""
    hull_set = set(hull_facets)
    first: Dict[Tuple[int, ...], int] = {}
    out = []
    for i, members in enumerate(listed):
        if members not in hull_set:
            out.append(f"facet {i} {members} is not a hull facet")
        elif members in first:
            out.append(f"facet {i} repeats facet {first[members]}")
        else:
            first[members] = i
    out.extend(
        f"hull facet {members} is not listed" for members in hull_facets if members not in first
    )
    return out


def minkowski_sum(p, q, name: Optional[str] = None) -> Polytope:
    """Exact Minkowski sum via pairwise vertex sums and hull pruning.

    Each summand may be a Polytope or a bare point list; a point list
    admits lower-dimensional summands (segments, polygons in R^4), which
    cannot be represented as full-dimensional Polytope values but sum
    perfectly well.  The ambient dimension is read off the points, and
    the sum must span it (DegenerateInputError otherwise).  The
    candidate sums are deduplicated and sorted, and the points that are
    not extreme are dropped before the hull is built.
    """
    p_points, q_points = (
        s.vertices if isinstance(s, Polytope) else [Vec(x) for x in s] for s in (p, q)
    )
    if not p_points or not q_points:
        raise InvalidInputError("empty summand")
    dim = len(p_points[0])
    if any(len(x) != dim for x in (*p_points, *q_points)):
        raise InvalidInputError("summands live in different ambient dimensions")
    candidates = sorted(set(a + b for a in p_points for b in q_points))
    return Polytope.from_vertices(dim, hull.extreme_points(dim, candidates), name=name)


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

    The apex starts at facet centroid + outward normal, the facet's
    primitive integer normal (`int_plane`), and is halved toward the
    centroid until it lies strictly beyond the chosen facet and strictly
    beneath every other one.  `int_plane` fits the planes the same way
    whether p was built from vertices or read from a file, so both give
    one apex.
    """
    if not 0 <= facet < len(p.facets):
        raise InvalidInputError(f"no facet with index {facet}")
    members = p.facets[facet]
    # a.X <= o on the `int_coords` scale is a.x <= o / mult on p's own.
    _, mult = p.int_coords()
    planes = [(Vec(a), Fraction(o, mult)) for a, o in map(p.int_plane, range(len(p.facets)))]
    normal, offset = planes[facet]
    others = planes[:facet] + planes[facet + 1:]
    centroid = Vec(
        sum(col) / len(members) for col in zip(*(p.vertices[i] for i in members))
    )
    step = Fraction(1)
    for _ in range(64):
        apex = centroid + normal * step
        if normal.dot(apex) > offset and all(a.dot(apex) < o for a, o in others):
            return Polytope.from_vertices(
                p.dim, list(p.vertices) + [apex], name=name
            )
        step /= 2
    raise InvalidInputError("could not place an apex beyond only the chosen facet")


def truncate_vertex(p: Polytope, v: int, name: Optional[str] = None) -> Polytope:
    """Cut off one vertex, one new vertex per incident edge at parameter 1/3."""
    if not 0 <= v < len(p):
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
    facets of P.  It keeps p's integer points, the dropped coordinate
    left out (`Polytope._of_ints`).
    """
    if not 0 <= facet < len(p.facets):
        raise InvalidInputError(f"no facet with index {facet}")
    members = list(p.facets[facet])
    normal, _ = p.int_plane(facet)
    drop = next(j for j, x in enumerate(normal) if x)
    reindex = {old: new for new, old in enumerate(members)}
    ints, mult = p.int_coords()
    points = [ints[old][:drop] + ints[old][drop + 1:] for old in members]
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
    return Polytope._of_ints(p.dim - 1, points, mult, tuple(sub_facets), name)


def incidence_isomorphic(p: Polytope, q: Polytope) -> bool:
    """Vertex-facet incidence isomorphism by backtracking; small inputs only.

    Sound and complete for deciding combinatorial equivalence at the
    vertex-facet level, which determines the whole face lattice for
    polytopes.
    """
    np_, nq = len(p), len(q)
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
