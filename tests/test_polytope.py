"""Polytope representation, derived operations, and validation.

Facet-plane fits run over cleared integer coordinates; the rational fit
they replaced (`reference_common_hyperplane`, in reference_linalg) is
their reference.  `validate` builds the hull of the points as
`from_vertices` does and compares the listed facets with its facets as
sets.  The rational per-facet checks it replaced (`reference_validate`,
which fits every listed facet and, once the facet checks pass, names
the points that are not vertices and the hull facets that are not
listed) are the reference for which inputs are refused, on catalogue
images, on broken inputs with fractional coordinates and on seeded
tampered facet lists.  The reference finds the hull's facets by trying
the hyperplane of every d-subset of the points (`reference_hull_facets`),
not by `kernels.facet_scan`.

The skeleton, read off facet bitsets, is checked against the exact
supporting-hyperplane LP (`is_geometric_edge`), and the integer facet
planes (`Polytope.int_plane`) against the rational reference fit scaled
to primitive integers (`reference_int_plane`), for built polytopes and
for copies read from their vertex and facet lists.  `stack_pyramid`
reads those planes, so both copies get one apex.
"""

import copy
import pickle
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest

from minkdecomp import certificates
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
from minkdecomp.errors import DegenerateInputError, InvalidInputError
from minkdecomp.fileio import dumps, loads, polytope_from_dict, polytope_to_dict
from minkdecomp.hull import extreme_points, non_vertices
from minkdecomp.linalg import Vec, as_int_coords
from minkdecomp.polytope import (
    FVector,
    Polytope,
    facet_as_polytope,
    incidence_isomorphic,
    minkowski_sum,
    prism_over,
    pyramid_over,
    stack_pyramid,
    truncate_vertex,
    validate,
)

from reference_linalg import (
    is_geometric_edge,
    is_simple,
    matrix_rank,
    point_in_hull,
    reference_common_hyperplane,
    reference_int_hyperplane,
    reference_int_plane,
    translate,
    vertex_degree,
)


def reference_hull_facets(p):
    """The facets of the hull of p's distinct, spanning points, as sorted
    member tuples: every d-subset whose hyperplane has all the points on
    one side gives the facet of the points on that hyperplane.

    Positive scaling and translation keep the facets, so the points are
    reduced to primitive integer differences from the first one and the
    subsets are tried once per shape.
    """
    ints, _ = as_int_coords([v - p.vertices[0] for v in p.vertices])
    g = gcd(*(x for pt in ints for x in pt))
    return _subset_facets(p.dim, tuple(tuple(x // g for x in pt) for pt in ints))


@lru_cache(maxsize=None)
def _subset_facets(d, ints):
    found = set()
    for subset in combinations(range(len(ints)), d):
        fitted = reference_int_hyperplane([ints[i] for i in subset])
        if fitted is None:
            continue
        a, b = fitted
        on, signs = [], set()
        for i, x in enumerate(ints):
            s = sum(u * v for u, v in zip(a, x)) - b
            if s == 0:
                on.append(i)
            else:
                signs.add(s > 0)
                if len(signs) == 2:
                    break
        else:
            found.add(tuple(on))
    return sorted(found)


def reference_validate(p):
    """The rational `validate`: every listed facet fitted, then the hull's
    facets (`reference_hull_facets`) compared with the listed ones."""
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
        if len(member_sets[fi]) != len(f):
            repeated = next(v for v in f if f.count(v) > 1)
            out.append(f"facet {fi} lists vertex index {repeated} more than once")
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
    if not out:
        listed = {tuple(sorted(f)) for f in member_sets}
        for members in reference_hull_facets(p):
            if members not in listed:
                out.append(f"hull facet {members} is not listed")
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
        assert vertex_degree(p, v) == len(nbrs) == 4
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


@pytest.mark.parametrize("bad", [5, 3, -1])
def test_analyze_and_replay_refuse_a_facet_index_that_names_no_vertex(bad):
    # Built without `validate`: a triangle whose last facet lists a vertex
    # index past the end or below 0.  The edges are derived from the
    # facets before anything else reads them, and they refuse the facet by
    # its number instead of raising IndexError or a negative shift count.
    p = Polytope(2, simplex(2).vertices, ((0, 1), (1, 2), (2, bad)))
    refusal = f"facet 2 (2, {bad}) lists an index outside 0..2"
    for mode in ("certificates-first", "oracle-only"):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(refusal)}$"):
            certificates.analyze(p, mode)
    trace = certificates.analyze(simplex(2)).trace
    assert certificates.replay_report(trace, simplex(2)) == (True, "all steps check")
    assert certificates.replay_report(trace, p) == (False, f"replay error: {refusal}")


def test_int_plane_orientation():
    p = simplex(3)
    ints, _ = p.int_coords()
    for i in range(len(p.facets)):
        a, o = p.int_plane(i)
        assert (a, o) == reference_int_plane(p, p.facets[i])
        members = set(p.facets[i])
        for v, x in enumerate(ints):
            s = sum(c * y for c, y in zip(a, x))
            assert (s == o) == (v in members)
            assert s <= o


def test_translate_preserves_combinatorics():
    p = bd198()
    q = translate(p, (1, Fraction(-2, 3), 5))
    assert q.facets == p.facets
    assert q.f_vector() == p.f_vector()
    assert q.vertices[0] == p.vertices[0] + (1, Fraction(-2, 3), 5)


def test_validate_accepts_catalogue_shapes():
    for p in (simplex(4), octahedron(), delta(2, 2)):
        rep = validate(p)
        assert rep.ok, rep.violations
        # The combinatorial edge rule agrees with the supporting-hyperplane LP.
        n = len(p.vertices)
        combinatorial = set(p.edges())
        for u in range(n):
            for v in range(u + 1, n):
                assert is_geometric_edge(p, u, v) == ((u, v) in combinatorial), (u, v)


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


def test_minkowski_sum_of_point_lists_drops_interior_points():
    s = minkowski_sum([[0], [1]], [[0], [1]], "segment-sum")
    assert [tuple(v) for v in s.vertices] == [(0,), (2,)]
    assert s.name == "segment-sum"
    with pytest.raises(DegenerateInputError):
        minkowski_sum([[0, 0], [1, 0]], [[0, 0], [1, 0]], "flat")
    with pytest.raises(InvalidInputError, match="different ambient dimensions"):
        minkowski_sum([[0, 0], [1, 0]], [[0], [1]])
    with pytest.raises(InvalidInputError, match="empty summand"):
        minkowski_sum([], simplex(2))


def test_minkowski_sum_commutes_up_to_isomorphism():
    tri = Polytope.from_vertices(2, [(0, 0), (2, 0), (0, 2)])
    seg = [(0, 0), (1, 1)]
    a = minkowski_sum(tri, seg)
    # The candidate sums are sorted, so either order gives one polytope.
    assert minkowski_sum(seg, tri) == a
    assert a.f_vector().v == 5
    assert incidence_isomorphic(a, translate(a, (3, 4)))


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
    assert q.f_vector().v == p.f_vector().v - 1 + vertex_degree(p, 0)
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
    assert incidence_isomorphic(cube(3), translate(cube(3), (5, 5, 5)))
    assert incidence_isomorphic(delta(1, 2), prism_over(Polytope.from_vertices(2, [(0, 0), (3, 0), (0, 3)])))
    assert not incidence_isomorphic(cube(3), octahedron())
    assert not incidence_isomorphic(bd182(), bd198())


def test_polytope_requires_consistent_dimension():
    with pytest.raises(InvalidInputError):
        Polytope.from_vertices(2, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def test_int_planes_and_validate_match_rational_reference_on_catalogue():
    rng = random.Random(3)
    for e in catalogue_list():
        p = e.build()
        for scale in (1, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4), 10**12):
            shift = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(p.dim)]
            q = _scaled(p, scale, shift)
            for i, members in enumerate(q.facets):
                assert q.int_plane(i) == reference_int_plane(q, members), (e.name, scale, i)
            assert validate(q).violations == reference_validate(q) == [], e.name


# Broken cube images with fractional coordinates; vertex k of cube(3) is
# the 0/1 point with coordinate bits k.  Square facet {0, 1, 2, 3} is
# z = 0 and {4, 5, 6, 7} is z = 1.  Each facet comes with the fault the
# reference names when it fits it.
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
    # Both refuse the list and name the facet by its place in it, which
    # is not its place once the list is sorted.
    facet, fault = BROKEN_FACETS[case]
    p = _scaled(cube(3), scale, (Fraction(1, 3), Fraction(-2, 7), 5))
    bad = Polytope(3, p.vertices, p.facets + (facet,))
    k = len(p.facets)
    assert f"facet {k} {fault}" in reference_validate(bad)
    violations = validate(bad).violations
    assert violations == [f"facet {k} {facet} is not a hull facet"]
    sorted_index = sorted(bad.facets).index(facet)
    assert sorted_index != k and f"facet {sorted_index} " not in violations[0]


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


@pytest.mark.parametrize("scale", [1, Fraction(5, 3)], ids=["integer", "fractional"])
def test_validate_names_a_missing_hull_facet(scale):
    # Every dropped facet is named by its members, also when one of its
    # vertices is left in fewer than d facets.
    rng = random.Random(5)
    named = short = 0
    for e in catalogue_list():
        base = e.build()
        p = _scaled(base, scale, [Fraction(rng.randint(-9, 9), 2) for _ in range(base.dim)])
        for k, missing in enumerate(p.facets):
            q = Polytope(p.dim, p.vertices, p.facets[:k] + p.facets[k + 1:])
            short += any(sum(1 for f in q.facets if v in f) < p.dim for v in missing)
            expected = f"hull facet {missing} is not listed"
            assert validate(q).violations == [expected], (e.name, k)
            data = polytope_to_dict(q)
            with pytest.raises(InvalidInputError, match=re.escape(expected)):
                polytope_from_dict(data)
            named += 1
    assert named == sum(len(e.build().facets) for e in catalogue_list()) > 35
    assert short > 0


def test_non_vertices_reads_a_repeated_index_once():
    p = simplex(3)
    repeated = [f + (f[0],) for f in p.facets]
    assert non_vertices(4, repeated) == non_vertices(4, p.facets) == []


def test_validate_names_a_repeated_facet_index():
    # A facet that lists an index twice is not a hull facet's member
    # tuple; a facet listed twice is named with its first listing.  Each
    # is named by its place in the list, not in the sorted list.
    p = cube(3)
    first = p.facets[0]
    doubled = first + (first[0],)
    bad = Polytope(3, p.vertices, p.facets[1:] + (doubled,))
    assert reference_validate(bad)
    assert validate(bad).violations == [
        f"facet 5 {tuple(sorted(doubled))} is not a hull facet",
        f"hull facet {first} is not listed",
    ]
    assert sorted(bad.facets).index(doubled) == 0
    twice = Polytope(3, p.vertices, p.facets[1:] + (first, first))
    assert reference_validate(twice)
    assert validate(twice).violations == ["facet 6 repeats facet 5"]
    assert sorted(twice.facets).index(first) == 0


def test_validate_accepts_unsorted_facet_tuples():
    rng = random.Random(8)
    for p in (octahedron(), capped_prism(), bd182(), delta(2, 2), cyclic(7, 4)):
        facets = []
        for f in p.facets:
            f = list(f)
            rng.shuffle(f)
            facets.append(tuple(f))
        rng.shuffle(facets)
        assert validate(Polytope(p.dim, p.vertices, tuple(facets))).ok


def _tampered(p, kind, rng):
    """One seeded tampering of p's facet list (or, for "swap", of two of
    its points)."""
    n, d = len(p.vertices), p.dim
    facets = list(p.facets)
    k = rng.randrange(len(facets))
    if kind == "drop":
        del facets[k]
    elif kind == "subset":
        facets.append(tuple(sorted(rng.sample(range(n), rng.randint(d, n - 1)))))
    elif kind == "merge":
        j = rng.choice([j for j in range(len(facets)) if j != k])
        merged = tuple(sorted(set(facets[k]) | set(facets[j])))
        facets = [f for i, f in enumerate(facets) if i not in (j, k)] + [merged]
    elif kind == "repeat":
        facets.append(facets[k])
    elif kind == "shrink":
        f = list(facets[k])
        f.remove(rng.choice(f))
        facets[k] = tuple(f)
    elif kind == "grow":
        facets[k] = tuple(sorted(facets[k] + (rng.choice([v for v in range(n) if v not in facets[k]]),)))
    elif kind == "midpoint":
        return with_edge_midpoint(p, *rng.choice(p.edges()))
    elif kind == "swap":
        u, v = rng.sample(range(n), 2)
        verts = list(p.vertices)
        verts[u], verts[v] = verts[v], verts[u]
        return Polytope(d, tuple(verts), p.facets)
    elif kind == "range":
        facets[k] += (n,)
    elif kind == "index":
        facets[k] += (rng.choice(facets[k]),)
    elif kind == "duplicate":
        # A copy of vertex u, listed beside it in every facet or in none.
        u = rng.randrange(n)
        listed = rng.random() < 0.5
        facets = [f + (n,) if listed and u in f else f for f in facets]
        return Polytope(d, p.vertices + (p.vertices[u],), tuple(facets))
    return Polytope(d, p.vertices, tuple(facets))


TAMPERINGS = [
    "drop", "subset", "merge", "repeat", "shrink", "grow", "midpoint", "swap", "range",
    "duplicate", "index",
]


# Every refusal names a facet by its index in the list or its members,
# a point that is not a vertex, or a repeated point.
NAMED_FAULT = re.compile(
    r"facet \d+ \(.*\) is not a hull facet|facet \d+ repeats facet \d+"
    r"|hull facet \(.*\) is not listed"
    r"|not vertices of the convex hull of the input: point \d+ \(.*\)|duplicate vertices"
)


def test_validate_matches_reference_on_tampered_facet_lists():
    rng = random.Random(2027)
    bases = [e.build() for e in catalogue_list()]
    refused = {}
    seen = set()
    cases = 0
    for p in bases:
        for scale in (1, Fraction(7, 4)):
            q = _scaled(p, scale, [Fraction(rng.randint(-9, 9), 3) for _ in range(p.dim)])
            for t in range(23):
                kind = TAMPERINGS[t % len(TAMPERINGS)]
                bad = _tampered(q, kind, rng)
                violations = validate(bad).violations
                assert (not violations) == (not reference_validate(bad)), (p.name, scale, kind)
                for line in violations:
                    assert NAMED_FAULT.fullmatch(line), (p.name, scale, kind, line)
                    seen.add(re.sub(r"\d+|\(.*\)", "#", line))
                refused[kind] = refused.get(kind, 0) + bool(violations)
                cases += 1
    assert cases >= 1500
    # Every tampering is refused somewhere, and every kind of violation
    # below the guard is seen, apart from the coordinate length and the
    # affine span, which no tampering here produces.
    assert len(TAMPERINGS) == 11 and all(refused[kind] for kind in TAMPERINGS), refused
    assert seen == {
        "facet # # is not a hull facet",
        "facet # repeats facet #",
        "hull facet # is not listed",
        "not vertices of the convex hull of the input: point # #",
        "duplicate vertices",
    }, sorted(seen)


def test_extreme_points_match_lp_membership():
    # Grid points give coplanar and boundary points; centroids and edge
    # midpoints are added as interior and boundary points.
    rng = random.Random(47)
    pruned = 0
    for trial in range(90):
        d = 2 + trial % 3
        pts = {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 3 + trial % 9)}
        pts = [Vec(x) for x in pts]
        if matrix_rank([x - pts[0] for x in pts[1:]], d) < d:
            continue
        a, b = rng.sample(pts, 2)
        extra = [(a + b) / 2, sum(pts, Vec([0] * d)) / len(pts)]
        pts += [x for x in extra if x not in pts]
        rng.shuffle(pts)
        expected = [x for i, x in enumerate(pts) if not point_in_hull(x, pts[:i] + pts[i + 1:])]
        assert extreme_points(d, pts) == expected
        pruned += len(pts) - len(expected)
    assert pruned > 250


def test_extreme_points_pass_degenerate_sets_through():
    flat = [Vec(x) for x in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 0)]]
    assert extreme_points(3, flat) == flat
    with pytest.raises(DegenerateInputError):
        minkowski_sum([(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (0, 1, 0), (0, 2, 0)], "flat")


def test_validate_names_a_stray_point_before_a_missing_facet():
    # The stray-point check runs first, and a missing facet is reported
    # only when nothing else fired.
    p = with_edge_midpoint(cyclic(8, 4), 0, 1)
    k = next(i for i, f in enumerate(p.facets) if 8 not in f)
    q = Polytope(4, p.vertices, p.facets[:k] + p.facets[k + 1:])
    violations = validate(q).violations
    assert violations == reference_validate(q)
    assert len(violations) == 1
    assert violations[0].startswith("not vertices of the convex hull of the input: point 8 (")


# ---------------------------------------------------------------------------
# The skeleton read off facet bitsets, and the integer facet planes

# Every pair of the smaller entries is checked; the larger ones (up to
# d = 7) cost seconds of exact LPs each, so a seeded sample of their
# edges and non-edges is.
_SMALL = {e.name: len(e.build().vertices) <= 12 for e in catalogue_list()}
SKELETON_CATALOGUE = [e for e in catalogue_list() if _SMALL[e.name]]
LARGE_CATALOGUE = [e for e in catalogue_list() if not _SMALL[e.name]]


def geometric_edges(p):
    n = len(p.vertices)
    return tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if is_geometric_edge(p, u, v)
    )


def random_polytopes(seed, count):
    """Hulls of seeded integer point sets in d = 2..5; coordinates in
    [-2, 2] make many of them non-simplicial."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = 2 + len(out) % 4
        size = d + 2 + len(out) % 6
        pts = sorted({tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(size)})
        try:
            out.append(Polytope.from_vertices(d, extreme_points(d, [Vec(x) for x in pts])))
        except DegenerateInputError:
            continue
    return out


def _non_simplicial(p):
    return any(len(f) > p.dim for f in p.facets)


@pytest.mark.parametrize("entry", SKELETON_CATALOGUE, ids=lambda e: e.name)
def test_edges_match_geometric_edges_on_catalogue(entry):
    p = entry.build()
    assert p.edges() == geometric_edges(p)


@pytest.mark.parametrize("entry", LARGE_CATALOGUE, ids=lambda e: e.name)
def test_edges_match_geometric_edges_on_sampled_pairs_of_large_entries(entry):
    p = entry.build()
    edges = set(p.edges())
    pairs = list(combinations(range(len(p.vertices)), 2))
    rng = random.Random(entry.name)
    sample = rng.sample(sorted(edges), 8) + rng.sample([e for e in pairs if e not in edges], 8)
    for u, v in sample:
        assert is_geometric_edge(p, u, v) == ((u, v) in edges), (u, v)


@pytest.mark.parametrize("n", range(7, 13))
def test_edges_match_geometric_edges_on_cyclic_6(n):
    # Neighborly: every pair is an edge, in as few as d-1 = 5 facets.
    p = cyclic(n, 6)
    assert p.edges() == geometric_edges(p)
    assert len(p.edges()) == n * (n - 1) // 2


def test_edges_match_geometric_edges_on_random_point_sets():
    polys = random_polytopes(71, 24)
    for p in polys:
        assert p.edges() == geometric_edges(p), (p.dim, p.vertices)
    assert sum(map(_non_simplicial, polys)) >= 10
    # Polygons are always simplicial.
    assert {p.dim for p in polys if _non_simplicial(p)} == {3, 4, 5}


def test_neighbors_and_degree_match_a_scan_of_the_edges():
    polys = [e.build() for e in catalogue_list()] + random_polytopes(72, 40)
    for p in polys:
        edges = p.edges()
        for v in range(len(p.vertices)):
            scan = tuple(sorted([b for a, b in edges if a == v] + [a for a, b in edges if b == v]))
            assert p.neighbors(v) == scan
            assert vertex_degree(p, v) == len(scan)
        assert p.neighbors(-1) == p.neighbors(len(p.vertices)) == ()


def _loaded(p):
    """p rebuilt from its vertices and facet lists, as a file gives them."""
    return [Polytope(p.dim, p.vertices, p.facets), polytope_from_dict(polytope_to_dict(p))]


def test_int_plane_is_one_plane_for_built_and_loaded_copies():
    rng = random.Random(5)
    built = [e.build() for e in catalogue_list()] + random_polytopes(73, 40)
    for p in built[:10]:
        # Fractional images: the integer planes live on a scale mult > 1.
        shift = Vec(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(p.dim))
        image = [v * Fraction(3, 7) + shift for v in p.vertices]
        built.append(Polytope.from_vertices(p.dim, image))
    for p in built:
        ints, mult = p.int_coords()
        assert (ints, mult) == as_int_coords(p.vertices)
        loaded = _loaded(p)
        for i, members in enumerate(p.facets):
            a, o = p.int_plane(i)
            # The built polytope's plane, the rational reference scaled
            # to a primitive integer vector, and a copy's plane agree.
            assert (a, o) == reference_int_plane(p, members)
            assert gcd(*a, o) == 1
            for v, x in enumerate(ints):
                s = sum(c * y for c, y in zip(a, x))
                assert (s == o) == (v in members) and s <= o
            for q in loaded:
                assert q.int_coords() == (ints, mult)
                assert q.int_plane(i) == (a, o)


def test_every_facet_plane_is_fitted_on_first_use(monkeypatch):
    # Neither the hull nor the pyramid reduction hands planes in: a
    # polytope built from vertices and a reduced polytope fit each of
    # their planes on its first read, and only then.
    p = Polytope.from_vertices(4, stack_pyramid(cyclic(7, 4), 0).vertices)
    reduced, _ = certificates._stack_structure(p, len(p.vertices) - 1)
    fitted = []
    real = Polytope._fit_plane

    def record(self, members):
        fitted.append((self, tuple(members)))
        return real(self, members)

    monkeypatch.setattr(Polytope, "_fit_plane", record)
    for q in (p, reduced):
        fitted.clear()
        for i in range(len(q.facets)):
            q.int_plane(i)
        assert [members for _, members in fitted] == list(q.facets)
        assert all(owner is q for owner, _ in fitted)
        fitted.clear()
        for i in range(len(q.facets)):
            q.int_plane(i)
        assert fitted == []


def test_stack_pyramid_gives_one_apex_for_built_and_loaded_copies():
    for p in [e.build() for e in catalogue_list()] + [cyclic(6, 4)]:
        loaded = loads(dumps(p))
        for fi in range(len(p.facets)):
            assert stack_pyramid(loaded, fi) == stack_pyramid(p, fi), (p.name, fi)
    # The apex along the primitive integer outward normal of C(6,4)'s
    # facet 0, for the built copy and the one read back from its file.
    want = (Fraction(10265, 4096), Fraction(61405, 8192), Fraction(102405, 4096),
            Fraction(724991, 8192))
    for p in (cyclic(6, 4), loads(dumps(cyclic(6, 4)))):
        assert stack_pyramid(p, 0).vertices[-1] == want


# ---------------------------------------------------------------------------
# The integer representation


def test_equality_is_same_points_and_facets_however_the_polytope_was_made():
    """A polytope stores its integer points over their least common
    denominator, so every route to the same points, facets and name gives
    equal polytopes with equal hashes: built in code, from vertices, read
    from a file, or made from integers over a larger denominator."""
    verts = [(Fraction(1, 2), 0), (Fraction(3, 2), 0), (0, Fraction(2, 3))]
    built = Polytope.from_vertices(2, verts, name="t")
    facets = built.facets
    same = [
        Polytope(2, [Vec(v) for v in verts], facets, "t"),
        loads(dumps(built)),
        Polytope._of_ints(2, [(15, 0), (45, 0), (0, 20)], 30, facets, "t"),
    ]
    assert built.int_coords() == ([(3, 0), (9, 0), (0, 4)], 6)
    for q in same:
        assert q == built and hash(q) == hash(built)
        assert q.int_coords() == built.int_coords() and q.vertices == built.vertices
    moved = [(Fraction(1, 2), 0), (Fraction(3, 2), 0), (0, Fraction(1, 3))]
    different = [
        Polytope(2, verts, facets[::-1], "t"),
        Polytope(2, verts, facets, "u"),
        Polytope(2, moved, facets, "t"),
        Polytope(3, [(*v, 0) for v in verts], facets, "t"),
    ]
    assert all(q != built for q in different)
    assert len(built) == 3


def test_a_polytope_is_immutable_and_builds_its_vertex_view_once():
    p = loads(dumps(Polytope.from_vertices(2, [(0, 0), (Fraction(1, 4), 0), (0, 1)])))
    with pytest.raises(AttributeError, match="immutable"):
        p.name = "other"
    view = p.vertices
    assert view == (Vec((0, 0)), Vec((Fraction(1, 4), 0)), Vec((0, 1)))
    assert p.vertices is view
    assert copy.deepcopy(p) == p == pickle.loads(pickle.dumps(p))
    assert repr(p) == f"Polytope(dim=2, vertices={view!r}, facets={p.facets!r}, name=None)"
