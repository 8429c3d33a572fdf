"""Polytope representation, derived operations, and validation.

Facet-plane fits and `validate` run over cleared integer coordinates.
The rational fit they replaced (`reference_common_hyperplane`) and the
rational facet checks of `validate` (`reference_validate`, which also
names the points that are not vertices once the facet checks pass) are
kept below as references, on catalogue images and on broken inputs with
fractional coordinates.
"""

import random
import re
from fractions import Fraction

import pytest

from minkdecomp.constructors import (
    bd182,
    bd198,
    capped_prism,
    cube,
    cyclic,
    delta,
    octahedron,
    pentagon,
    simplex,
    wedge,
)
from minkdecomp.catalogue import catalogue_list
from minkdecomp.errors import InvalidInputError
from minkdecomp.linalg import Vec, point_in_hull, rank_and_kernel
from minkdecomp.polytope import (
    FVector,
    Polytope,
    facet_as_polytope,
    incidence_isomorphic,
    is_geometric_edge,
    is_simple,
    minkowski_sum,
    prism_over,
    pyramid_over,
    stack_pyramid,
    truncate_vertex,
    validate,
)

from reference_linalg import matrix_rank


def reference_common_hyperplane(pts):
    """The unique hyperplane through all the points, by a rational kernel."""
    if not pts:
        return None
    d = len(pts[0])
    rows = [list(p) + [Fraction(-1)] for p in pts]
    _, basis = rank_and_kernel(rows, d + 1)
    if len(basis) != 1:
        return None
    vec = basis[0]
    normal, offset = Vec(vec[:d]), vec[d]
    lead = next((x for x in normal if x), None)
    if lead is None:
        return None
    return normal / lead, offset / lead


def reference_facet_plane(p, members):
    normal, offset = reference_common_hyperplane([p.vertices[i] for i in members])
    outside = next((i for i in range(len(p.vertices)) if i not in set(members)), None)
    if outside is not None and normal.dot(p.vertices[outside]) > offset:
        normal, offset = -normal, -offset
    return normal, offset


def reference_validate(p):
    """The rational `validate` (without the edge check)."""
    out = []
    n = len(p.vertices)
    d = p.dim
    if any(len(v) != d for v in p.vertices):
        return ["vertex coordinate length differs from dim"]
    if len(set(p.vertices)) != n:
        out.append("duplicate vertex coordinates")
    if n < d + 1 or matrix_rank([v - p.vertices[0] for v in p.vertices[1:]] or [], ncols=d) != d:
        out.append("vertex set does not affinely span the ambient dimension")
        return out
    member_sets = [set(f) for f in p.facets]
    for fi, f in enumerate(p.facets):
        if len(f) < d:
            out.append(f"facet {fi} has fewer than {d} vertices")
            continue
        if not all(0 <= v < n for v in f):
            out.append(f"facet {fi} has an out-of-range vertex index")
            continue
        fitted = reference_common_hyperplane([p.vertices[i] for i in f])
        if fitted is None:
            out.append(f"facet {fi} vertices do not lie on a unique common hyperplane")
            continue
        normal, offset = fitted
        sides = [normal.dot(p.vertices[i]) - offset for i in range(n) if i not in member_sets[fi]]
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
        # The smallest face through a point is the meet of its facets
        # (every point for a point in none); a vertex is alone in it.
        stray = [
            i for i in range(n)
            if set(range(n)).intersection(*(f for f in member_sets if i in f)) != {i}
        ]
        if stray:
            out.append(
                "not vertices of the convex hull of the input: "
                + ", ".join(f"point {i} ({', '.join(map(str, p.vertices[i]))})" for i in stray)
            )
    return out


def _scaled(p, scale, shift):
    return Polytope(p.dim, tuple(v * scale + Vec(shift) for v in p.vertices), p.facets)


def test_from_vertices_roundtrips_facets():
    p = cube(3)
    rebuilt = Polytope.from_vertices(3, p.vertices)
    assert rebuilt.facets == p.facets


def test_from_vertices_names_a_point_on_an_edge():
    with pytest.raises(InvalidInputError, match=r"point 4 \(1, 0, 0\)"):
        Polytope.from_vertices(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 0)])


def test_from_vertices_names_an_edge_point_lying_in_d_facets():
    # Edge (0, 1) of cyclic(8, 4) lies in six facets, so its midpoint
    # passes the facet count and only the intersection test catches it.
    p = cyclic(8, 4)
    assert sum(1 for f in p.facets if {0, 1} <= set(f)) >= 4
    mid = (p.vertices[0] + p.vertices[1]) / 2
    with pytest.raises(InvalidInputError, match=r"point 8 \(3/2, 5/2, 9/2, 17/2\)$"):
        Polytope.from_vertices(4, list(p.vertices) + [mid])


def test_from_vertices_rejects_exactly_the_non_extreme_points():
    # The facet-list rule against an exact LP membership test per point.
    rng = random.Random(31)
    rejected = accepted = 0
    for trial in range(150):
        d = 2 + trial % 3
        pts = sorted({tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 2 + trial % 5)})
        if matrix_rank([[a - b for a, b in zip(x, pts[0])] for x in pts[1:]], d) < d:
            continue
        stray = [i for i, x in enumerate(pts) if point_in_hull(x, pts[:i] + pts[i + 1:])]
        if stray:
            with pytest.raises(InvalidInputError) as exc:
                Polytope.from_vertices(d, pts)
            assert [int(i) for i in re.findall(r"point (\d+)", str(exc.value))] == stray
            rejected += 1
        else:
            assert len(Polytope.from_vertices(d, pts).vertices) == len(pts)
            accepted += 1
    assert rejected > 40 and accepted > 40


def test_f_vector_and_euler_for_3d():
    for p in (cube(3), octahedron(), capped_prism(), bd182(), bd198(), wedge(3)):
        fv = p.f_vector()
        assert fv.e == fv.v + fv.f - 2


def test_neighbors_and_degree():
    p = octahedron()
    for v in range(6):
        nbrs = p.neighbors(v)
        assert p.vertex_degree(v) == len(nbrs) == 4
        assert v not in nbrs


def test_edges_combinatorial_equals_geometric_on_small_entries():
    for p in (simplex(3), cube(3), octahedron(), capped_prism(), cyclic(6, 4), delta(2, 2)):
        if len(p.vertices) > 12:
            continue
        combinatorial = set(p.edges())
        geometric = {
            (u, v)
            for u in range(len(p.vertices))
            for v in range(u + 1, len(p.vertices))
            if is_geometric_edge(p, u, v)
        }
        assert combinatorial == geometric


def test_facet_plane_orientation():
    p = simplex(3)
    for i in range(len(p.facets)):
        a, b = p.facet_plane(i)
        members = set(p.facets[i])
        for v in range(len(p.vertices)):
            s = a.dot(p.vertices[v])
            assert (s == b) == (v in members)
            assert s <= b


def test_translate_preserves_combinatorics():
    p = bd198()
    q = p.translate((1, Fraction(-2, 3), 5))
    assert q.facets == p.facets
    assert q.f_vector() == p.f_vector()
    assert q.vertices[0] == p.vertices[0] + (1, Fraction(-2, 3), 5)


def test_validate_accepts_catalogue_shapes():
    for p in (simplex(4), octahedron(), delta(2, 2)):
        rep = validate(p, check_edges=True)
        assert rep.ok, rep.problems


def test_validate_flags_tampered_facets():
    p = cube(3)
    bad = Polytope(dim=3, vertices=p.vertices, facets=p.facets[:-1])
    rep = validate(bad)
    assert not rep.ok


def test_is_simple():
    assert is_simple(cube(3))
    assert is_simple(delta(2, 2))
    assert is_simple(wedge(4))
    assert not is_simple(octahedron())


def test_minkowski_sum_filters_non_extreme_points():
    # Tetrahedron plus a tall vertical segment: the apex and the lifted
    # origin both land inside, leaving a combinatorial prism.
    base = Polytope.from_vertices(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    summed = minkowski_sum(base, [(0, 0, 0), (0, 0, 2)])
    assert len(summed.vertices) == 6
    assert incidence_isomorphic(summed, delta(1, 2))


def test_minkowski_sum_commutes_up_to_isomorphism():
    tri = Polytope.from_vertices(2, [(0, 0), (2, 0), (0, 2)])
    seg = [(0, 0), (1, 1)]
    a = minkowski_sum(tri, seg)
    b = minkowski_sum(Polytope.from_vertices(2, seg + [(1, 0)]), [(0, 0)])
    assert a.f_vector().v == 5
    assert incidence_isomorphic(a, a.translate((3, 4)))


def test_prism_over_counts():
    p = pentagon()
    q = prism_over(p)
    fv, qv = p.f_vector(), q.f_vector()
    assert qv.v == 2 * fv.v
    assert qv.e == 2 * fv.e + fv.v


def test_pyramid_over_counts():
    sq = Polytope.from_vertices(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    q = pyramid_over(sq)
    assert q.f_vector() == FVector(5, 8, 5)


def test_stack_pyramid_adds_one_vertex_and_splits_facet():
    p = delta(1, 2)
    before = p.f_vector()
    q = stack_pyramid(p, 0)
    after = q.f_vector()
    assert after.v == before.v + 1
    size = len(p.facets[0])
    assert after.f == before.f - 1 + size


def test_stack_pyramid_bad_facet_index():
    with pytest.raises(InvalidInputError):
        stack_pyramid(simplex(3), 99)


def test_truncate_vertex_counts():
    p = simplex(3)
    q = truncate_vertex(p, 0)
    assert q.f_vector().v == p.f_vector().v - 1 + p.vertex_degree(0)
    assert q.f_vector().f == p.f_vector().f + 1


def test_truncate_vertex_bad_index():
    with pytest.raises(InvalidInputError):
        truncate_vertex(simplex(3), 7)


def test_facet_as_polytope_drops_a_dimension():
    p = cube(3)
    f = facet_as_polytope(p, 0)
    assert f.dim == 2
    assert f.f_vector().v == 4


def test_facet_as_polytope_bad_index():
    with pytest.raises(InvalidInputError):
        facet_as_polytope(cube(3), 10)


def test_incidence_isomorphic_positive_and_negative():
    assert incidence_isomorphic(cube(3), cube(3).translate((5, 5, 5)))
    assert incidence_isomorphic(delta(1, 2), prism_over(Polytope.from_vertices(2, [(0, 0), (3, 0), (0, 3)])))
    assert not incidence_isomorphic(cube(3), octahedron())
    assert not incidence_isomorphic(bd182(), bd198())


def test_polytope_requires_consistent_dimension():
    with pytest.raises(InvalidInputError):
        Polytope.from_vertices(2, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def test_facet_planes_and_validate_match_rational_reference_on_catalogue():
    rng = random.Random(3)
    for e in catalogue_list():
        p = e.build()
        for scale in (1, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4), 10**12):
            shift = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(p.dim)]
            q = _scaled(p, scale, shift)
            for i, members in enumerate(q.facets):
                assert q.facet_plane(i) == reference_facet_plane(q, members), (e.name, scale, i)
            assert validate(q).violations == reference_validate(q) == [], e.name


# Broken cube images with fractional coordinates; vertex k of cube(3) is
# the 0/1 point with coordinate bits k.  Square facet {0, 1, 2, 3} is
# z = 0 and {4, 5, 6, 7} is z = 1.
BROKEN_FACETS = {
    # 0, 1, 2 lie on z = 0, vertex 7 does not.
    "not coplanar": ((0, 1, 2, 7), "vertices do not lie on a unique common hyperplane"),
    # The plane z = 0 through 0, 1, 2 also holds vertex 3.
    "vertex on plane": ((0, 1, 2), "hyperplane contains a vertex outside the facet"),
    # The diagonal plane x = y splits the other vertices.
    "both sides": ((0, 3, 4, 7), "does not have all other vertices on one side"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_FACETS))
@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(5, 3), Fraction(7, 4)])
def test_validate_matches_reference_on_broken_fractional_polytopes(case, scale):
    facet, message = BROKEN_FACETS[case]
    p = _scaled(cube(3), scale, (Fraction(1, 3), Fraction(-2, 7), 5))
    bad = Polytope(3, p.vertices, p.facets + (facet,))
    violations = validate(bad).violations
    assert violations == reference_validate(bad)
    assert f"facet {len(p.facets)} {message}" in violations


def with_edge_midpoint(p, u, v):
    """p plus the midpoint of edge (u, v), listed in every facet through
    the edge: each facet still lists every point on its hyperplane."""
    mid = len(p.vertices)
    facets = tuple(f + (mid,) if u in f and v in f else f for f in p.facets)
    return Polytope(p.dim, p.vertices + ((p.vertices[u] + p.vertices[v]) / 2,), facets)


@pytest.mark.parametrize("scale", [1, Fraction(5, 3)])
def test_validate_names_a_non_extreme_point_in_listed_facets(scale):
    p = with_edge_midpoint(_scaled(cyclic(8, 4), scale, (Fraction(1, 2), 0, -3, 1)), 0, 1)
    assert sum(1 for f in p.facets if 8 in f) == 6
    violations = validate(p).violations
    assert violations == reference_validate(p)
    assert len(violations) == 1
    assert violations[0].startswith("not vertices of the convex hull of the input: point 8 (")
