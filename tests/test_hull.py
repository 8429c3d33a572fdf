"""Facet enumeration, checked against two independent references.

Facets of a cyclic polytope on the moment curve have a purely
combinatorial description (Gale's evenness condition).  The brute-force
scan below tests every d-subset of the input for spanning a supporting
hyperplane.  `hull.facet_data` must reproduce its facets and cleared
coordinates, and the double-description scan (`kernels.facet_scan`) its
primitive integer normals and offsets over those coordinates, exactly,
coplanar and non-extreme points included.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from minkdecomp import hull, kernels
from minkdecomp.catalogue import catalogue_entry, catalogue_list
from minkdecomp.constructors import cube, cyclic, moment_point
from minkdecomp.errors import (
    DegenerateInputError,
    GuardExceededError,
    InvalidInputError,
)
from minkdecomp.linalg import Vec, as_int_coords
from minkdecomp.polytope import minkowski_sum, stack_pyramid

from reference_linalg import reference_facet_scan


def enumerate_facets(dim, vertices):
    """Facet vertex-index sets, each sorted, list sorted lexicographically,
    of the vertices cleared to integers."""
    return hull.facet_data(dim, cleared(vertices)[0])


def _det(m):
    """Determinant of a small square integer matrix (Bareiss, exact)."""
    k = len(m)
    if k == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if a[r][i] != 0), -1)
            if swap < 0:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[k - 1][k - 1]


def _cross(diffs, d):
    """Nonzero vector orthogonal to d-1 difference vectors, or all zeros.

    Cofactor expansion along a symbolic first row: component j is
    (-1)^j times the minor that drops column j.
    """
    normal = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in diffs]
        x = _det(minor)
        normal.append(x if j % 2 == 0 else -x)
    return normal


def brute_force_facet_scan(coords, d):
    """Brute-force facet enumeration over integer coordinates.

    Scans d-subsets in lexicographic order, skipping subsets of
    already-found facets, and classifies each spanning hyperplane by the
    one-sided test.  Returns (mask, normal, offset) triples with the
    primitive outward integer hyperplane normal . x <= offset.
    """
    n = len(coords)
    found = []
    found_masks = []
    for combo in combinations(range(n), d):
        smask = 0
        for i in combo:
            smask |= 1 << i
        if any(smask & ~m == 0 for m in found_masks):
            continue
        base = coords[combo[0]]
        diffs = [[coords[i][c] - base[c] for c in range(d)] for i in combo[1:]]
        normal = _cross(diffs, d)
        if not any(normal):
            continue
        offset = sum(normal[c] * base[c] for c in range(d))
        pos = neg = False
        mask = 0
        for i in range(n):
            p = coords[i]
            s = sum(normal[c] * p[c] for c in range(d)) - offset
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            else:
                mask |= 1 << i
            if pos and neg:
                break
        if pos and neg:
            continue
        if not pos and not neg:
            raise ValueError("all vertices on one hyperplane; input not full-dimensional")
        if pos:
            normal = [-x for x in normal]
            offset = -offset
        g = gcd(*normal, offset)
        if g > 1:
            normal = [x // g for x in normal]
            offset //= g
        found_masks.append(mask)
        found.append((mask, tuple(normal), offset))
    return found


def cleared(vertices):
    """The points cleared to their common denominator, and that
    denominator."""
    pts = [[Fraction(c) for c in v] for v in vertices]
    mult = lcm(*(c.denominator for v in pts for c in v))
    return [tuple(int(c * mult) for c in v) for v in pts], mult


def reference_facet_data(dim, ints):
    """facet_data's output on integer points, computed by the brute-force
    scan: the sorted facet member tuples."""
    facets = [
        tuple(i for i in range(len(ints)) if mask >> i & 1)
        for mask, _, _ in brute_force_facet_scan(ints, dim)
    ]
    return sorted(facets)


def facet_planes(ints, d):
    """The scan's facets as (members, normal, offset), sorted by members."""
    return sorted((hull.mask_members(m), a, o) for m, a, o in kernels.facet_scan(ints, d))


def assert_matches_reference(dim, vertices):
    """facet_data and the scan's planes, on the vertices cleared to
    integers, both against the brute-force scan; returns the facets with
    their planes."""
    ints, _ = cleared(vertices)
    assert hull.facet_data(dim, ints) == reference_facet_data(dim, ints)
    assert sorted(kernels.facet_scan(ints, dim)) == sorted(brute_force_facet_scan(ints, dim))
    return facet_planes(ints, dim)


def gale_evenness_facets(n, d):
    """Index sets of C(n, d) facets: every run of members between two
    non-members has even length (vertices at t = 1..n, 0-indexed here).
    """
    out = []
    for combo in combinations(range(n), d):
        members = set(combo)
        ok = True
        for lo, hi in combinations([x for x in range(n) if x not in members], 2):
            between = sum(1 for x in combo if lo < x < hi)
            if between % 2:
                ok = False
                break
        if ok:
            out.append(tuple(sorted(combo)))
    return sorted(out)


@pytest.mark.parametrize("n,d", [(6, 4), (7, 4), (8, 4), (7, 6)])
def test_cyclic_facets_match_gale_evenness(n, d):
    expected = gale_evenness_facets(n, d)
    p = cyclic(n, d)
    assert sorted(p.facets) == expected


def test_cyclic_6_4_has_nine_facets():
    assert len(gale_evenness_facets(6, 4)) == 9
    assert len(cyclic(6, 4).facets) == 9


def test_enumerate_facets_unit_square():
    facets = enumerate_facets(2, [Vec((0, 0)), Vec((0, 1)), Vec((1, 0)), Vec((1, 1))])
    assert sorted(facets) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_facet_planes_are_outward_and_tight():
    verts = [Vec((0, 0, 0)), Vec((2, 0, 0)), Vec((0, Fraction(1, 3), 0)), Vec((0, 0, 1))]
    ints, mult = as_int_coords(verts)
    facets = hull.facet_data(3, ints)
    assert mult == 3
    assert ints == [(0, 0, 0), (6, 0, 0), (0, 1, 0), (0, 0, 3)]
    data = facet_planes(ints, 3)
    assert [m for m, _, _ in data] == facets
    assert len(data) == 4
    for members, normal, offset in data:
        assert gcd(*normal, offset) == 1
        for i, (v, x) in enumerate(zip(verts, ints)):
            s = sum(a * c for a, c in zip(normal, x))
            # The same plane on the rational points, with offset / mult.
            assert Vec(normal).dot(v) * mult == s
            if i in members:
                assert s == offset
            else:
                assert s < offset


def test_degenerate_input_rejected():
    with pytest.raises(DegenerateInputError):
        enumerate_facets(2, [Vec((0, 0)), Vec((1, 1)), Vec((2, 2))])


def test_bad_inputs_rejected():
    with pytest.raises(InvalidInputError):
        enumerate_facets(2, [])
    with pytest.raises(InvalidInputError):
        enumerate_facets(2, [Vec((0, 0)), Vec((0, 0)), Vec((1, 0))])
    with pytest.raises(InvalidInputError):
        enumerate_facets(2, [Vec((0, 0, 0))])


def test_guard_trips_on_huge_subset_counts():
    pts = [moment_point(t, 12) for t in range(1, 41)]
    with pytest.raises(GuardExceededError):
        enumerate_facets(12, pts)


def test_fractional_coordinates_supported():
    from fractions import Fraction

    verts = [
        Vec((Fraction(1, 3), 0)),
        Vec((Fraction(7, 2), Fraction(1, 5))),
        Vec((1, 1)),
    ]
    facets = enumerate_facets(2, verts)
    assert len(facets) == 3


# ---------------------------------------------------------------------------
# Exact agreement with the brute-force scan


# delta-3-4 is checked against its known facets below: the reference scan
# takes about 3 s on its 77,520 subsets.
REFERENCE_CATALOGUE = [e.name for e in catalogue_list() if e.name != "delta-3-4"]


@pytest.mark.parametrize("name", REFERENCE_CATALOGUE)
def test_facet_data_matches_reference_on_catalogue(name):
    p = catalogue_entry(name).build()
    assert_matches_reference(p.dim, p.vertices)


@pytest.mark.parametrize("n", range(6, 15))
def test_facet_data_matches_reference_on_cyclic_families(n):
    base = cyclic(n, 4)
    assert_matches_reference(4, base.vertices)
    assert_matches_reference(4, stack_pyramid(base, 0).vertices)
    summed = minkowski_sum(base, [[0, 0, 0, 0], [1, 3, 2, 5]])
    assert_matches_reference(4, summed.vertices)


def test_facet_data_matches_reference_on_cyclic_13_6():
    data = assert_matches_reference(6, cyclic(13, 6).vertices)
    assert [m for m, _, _ in data] == gale_evenness_facets(13, 6)


def test_facet_data_matches_reference_on_random_point_sets():
    # Coordinates in [-3, 3] force coplanar and non-extreme input points,
    # which every facet must list when they lie on its hyperplane.
    rng = random.Random(20161)
    compared = 0
    coplanar = 0
    while compared < 320:
        d = rng.randint(2, 5)
        n = rng.randint(d + 1, d + 7)
        pts = sorted({tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)})
        try:
            data = assert_matches_reference(d, pts)
        except DegenerateInputError:
            continue
        compared += 1
        coplanar += any(len(m) > d for m, _, _ in data)
    assert coplanar > 50


def test_facet_data_matches_reference_on_fractional_coordinates():
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(2, 4)
        pts = {
            tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(d))
            for _ in range(d + 5)
        }
        assert_matches_reference(d, sorted(pts))


def test_facet_data_matches_reference_on_large_coordinates():
    # The cofactor determinants of 10^12-scale points overflow int64; the
    # hull must stay exact on Python integers.
    big = 10**12
    square = [(0, 0), (big, 0), (0, big), (big, big)]
    assert len(assert_matches_reference(2, square)) == 4
    rng = random.Random(12)
    for _ in range(20):
        d = rng.randint(2, 4)
        pts = {
            tuple(rng.randint(-3, 3) * big + rng.randint(-5, 5) for _ in range(d))
            for _ in range(d + 5)
        }
        assert_matches_reference(d, sorted(pts))


def test_delta_3_4_has_its_nine_product_facets():
    # delta(3,4) is combinatorially the product of a 3- and a 4-simplex:
    # each facet drops one vertex of one factor.
    p = catalogue_entry("delta-3-4").build()
    verts = p.vertices
    parts = [(tuple(v[:3]), tuple(v[3:])) for v in verts]
    expected = []
    for side in (0, 1):
        for left_out in sorted({part[side] for part in parts}):
            expected.append(tuple(i for i, part in enumerate(parts) if part[side] != left_out))
    ints, _ = p.int_coords()
    facets = hull.facet_data(7, ints)
    assert facets == sorted(expected)
    data = facet_planes(ints, 7)
    assert [m for m, _, _ in data] == facets
    assert len(data) == 9
    for members, normal, offset in data:
        for i, x in enumerate(ints):
            s = sum(a * c for a, c in zip(normal, x))
            assert (s == offset) == (i in members)
            assert s <= offset


def _scan_matches_reference(ints, d, monkeypatch):
    """facet_scan against the reference that scans every mask: the same
    list in the same order.  Returns the facets and the number of pairs
    that still scanned the masks."""
    scans = []
    real = kernels._in_pair_only

    def record(common, masks):
        scans.append(common)
        return real(common, masks)

    monkeypatch.setattr(kernels, "_in_pair_only", record)
    try:
        got = kernels.facet_scan(ints, d)
    finally:
        monkeypatch.undo()
    assert got == reference_facet_scan(ints, d)
    return got, len(scans)


def test_facet_scan_matches_the_full_mask_scan_on_named_polytopes(monkeypatch):
    # A pair with a simplicial facet is accepted without the mask scan;
    # only pairs of two non-simplicial facets keep it.  Simplicial
    # polytopes then scan no mask at all, cubes still do.
    for e in catalogue_list():
        p = e.build()
        _scan_matches_reference(p.int_coords()[0], p.dim, monkeypatch)
    for d in range(3, 6):
        p = cube(d)
        _, scanned = _scan_matches_reference(p.int_coords()[0], d, monkeypatch)
        assert scanned > 0
    # cube(6) is refused by the guard, so its 64 points go to the scan directly.
    points = [tuple(bits >> i & 1 for i in range(6)) for bits in range(64)]
    facets, _ = _scan_matches_reference(points, 6, monkeypatch)
    assert len(facets) == 12
    for n in range(8, 15):
        facets, scanned = _scan_matches_reference(cyclic(n, 4).int_coords()[0], 4, monkeypatch)
        assert len(facets) == n * (n - 3) // 2
        assert scanned == 0


def test_facet_scan_matches_the_full_mask_scan_on_random_point_sets(monkeypatch):
    # Points from a box of side 7 make coplanar and non-extreme tight
    # points common, so masks of more than d points, and pairs of two
    # such facets, are both exercised.
    rng = random.Random(2516)
    compared = coplanar = stray = scanned = 0
    while compared < 320:
        d = rng.randint(2, 5)
        n = rng.randint(d + 1, d + 8)
        pts = sorted({tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)})
        try:
            facets, pair_scans = _scan_matches_reference(pts, d, monkeypatch)
        except ValueError:
            with pytest.raises(ValueError):
                reference_facet_scan(pts, d)
            continue
        compared += 1
        scanned += pair_scans
        members = [hull.mask_members(m) for m, _, _ in facets]
        coplanar += any(len(f) > d for f in members)
        stray += any(i in f for i in hull.non_vertices(len(pts), members) for f in members)
    assert coplanar > 50 and stray > 20 and scanned > 20
