"""Exact linear algebra, checked against small hand-verifiable systems.

The reference eliminations in this file are written out independently
(plain Fraction arithmetic, no package code) so the kernel dimensions
they produce can vouch for rank_and_kernel and, downstream, for the
decomposing-space computation.  The references imported from
`reference_linalg` eliminate with the test-side `reference_rref_int`,
so the early-exit fits are checked against a different elimination.
"""

import random
from fractions import Fraction

import pytest

from minkdecomp.linalg import (
    Vec,
    affine_rank,
    affinely_independent,
    as_int_coords,
    clear_denominators,
    int_hyperplane,
    int_collinear,
    int_kernel,
    rank_and_kernel,
    unit_vec,
    zero_vec,
)

from reference_linalg import (
    hyperplane_through,
    linear_feasible,
    matrix_rank,
    point_in_hull,
    reference_affine_rank,
    reference_int_collinear,
    reference_int_hyperplane,
    solve_exact,
)


def reference_rank(rows, ncols):
    """Independent Gaussian elimination over Fraction, for cross-checks."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def unit_square_edge_system():
    """The decomposing system of the unit square, rows written by hand.

    Unknowns, in order: f(v0), f(v1), f(v2), f(v3) in R^2 (8 scalars),
    then one scalar per edge of the 4-cycle v0-v1-v3-v2-v0 with
    v0=(0,0), v1=(0,1), v2=(1,0), v3=(1,1).  Each edge (u,w) contributes
    two rows f(u)_j - f(w)_j - lambda_e (u-w)_j = 0.
    """
    rows = []
    verts = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    for e, (u, w) in enumerate(edges):
        for j in range(2):
            row = [0] * 12
            row[2 * u + j] = 1
            row[2 * w + j] = -1
            row[8 + e] = -(verts[u][j] - verts[w][j])
            rows.append(row)
    return rows


def test_unit_square_system_kernel_dimension_by_hand():
    # Eight equations in twelve unknowns.  Eliminating by hand: the four
    # edge rows pin f-differences to edge directions, leaving f(v0) free
    # (2), a shared scale on the two horizontal edges (1) and on the two
    # vertical edges (1): kernel dimension 4.
    rows = unit_square_edge_system()
    assert len(rows) == 8
    assert reference_rank(rows, 12) == 8
    rank, basis = rank_and_kernel(rows, 12)
    assert rank == 8
    assert len(basis) == 12 - 8 == 4
    # Every basis vector must actually solve the system.
    for vec in basis:
        for row in rows:
            assert sum(a * x for a, x in zip(row, vec)) == 0


def test_rank_and_kernel_matches_reference_on_rectangular_cases():
    cases = [
        ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3),
        ([[Fraction(1, 2), 1], [1, 2], [3, 5]], 2),
        ([[0, 0, 0]], 3),
        ([[2, 0], [0, 3]], 2),
    ]
    for rows, ncols in cases:
        rank, basis = rank_and_kernel(rows, ncols)
        assert rank == reference_rank(rows, ncols)
        assert len(basis) == ncols - rank
        for vec in basis:
            for row in rows:
                assert sum(Fraction(a) * x for a, x in zip(row, vec)) == 0
        assert matrix_rank(rows, ncols) == rank


def test_kernel_basis_is_independent():
    rows = [[1, 1, 1, 1]]
    rank, basis = rank_and_kernel(rows, 4)
    assert rank == 1 and len(basis) == 3
    stacked_rank = matrix_rank([list(v) for v in basis], 4)
    assert stacked_rank == 3


def test_clear_denominators_scales_rows_to_integers():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 5), 1]]
    cleared = clear_denominators(rows)
    assert cleared == [[3, 2], [2, 5]]


def test_solve_exact_square_system():
    rows = [[2, 1], [1, 3]]
    rhs = [5, 10]
    x = solve_exact(rows, rhs)
    assert x == [Fraction(1), Fraction(3)]


def test_solve_exact_rejects_singular():
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [2, 4]], [1, 2])


def test_solve_exact_rejects_non_square():
    with pytest.raises(ValueError):
        solve_exact([[1, 2, 3], [4, 5, 6]], [1, 2])


def test_affinely_independent():
    assert affinely_independent([(0, 0), (1, 0), (0, 1)])
    assert not affinely_independent([(0, 0), (1, 1), (2, 2)])
    assert affinely_independent([(0, 0, 0)])
    assert not affinely_independent([(0, 0), (0, 0)])
    # d+2 points in dimension d are always dependent.
    assert not affinely_independent([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_point_in_hull():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert point_in_hull((Fraction(1, 2), Fraction(1, 2)), square)
    assert point_in_hull((0, 0), square)
    assert not point_in_hull((2, 0), square)
    assert not point_in_hull((Fraction(-1, 100), 0), square)


def test_linear_feasible():
    # x + y = 1 with x, y >= 0 is feasible; x + y both 1 and 2 is not.
    assert linear_feasible([[1, 1]], [1], [[-1, 0], [0, -1]], [0, 0], 2)
    assert not linear_feasible([[1, 1], [1, 1]], [1, 2], [], [], 2)


def test_hyperplane_through_exact_count():
    plane = hyperplane_through([(1, 0), (0, 1)])
    assert plane is not None
    a, b = plane
    assert a.dot(Vec((1, 0))) == b and a.dot(Vec((0, 1))) == b


def test_hyperplane_through_overdetermined_unique():
    pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    plane = hyperplane_through(pts)
    assert plane is not None
    a, b = plane
    for p in pts:
        assert a.dot(Vec(p)) == b
    assert a.dot(Vec((0, 0, 0))) != b


def test_hyperplane_through_degenerate_cases():
    # A line in R^3 does not span a plane uniquely.
    assert hyperplane_through([(0, 0, 0), (1, 0, 0)]) is None
    # Affinely spanning points leave no hyperplane at all.
    assert hyperplane_through([(0, 0), (1, 0), (0, 1)]) is None


def test_vec_arithmetic():
    v = Vec((1, 2)) + Vec((3, 4))
    assert v == Vec((4, 6))
    assert Vec((2, 4)) / 2 == Vec((1, 2))
    assert -Vec((1, -1)) == Vec((-1, 1))
    assert zero_vec(3) == Vec((0, 0, 0))
    assert unit_vec(3, 1) == Vec((0, 1, 0))
    with pytest.raises(ValueError):
        Vec((1, 2)) + Vec((1, 2, 3))


def test_as_int_coords_clears_one_common_denominator():
    ints, mult = as_int_coords([(Fraction(1, 2), 3), (Fraction(-5, 3), Fraction(1, 4))])
    assert mult == 12
    assert ints == [(6, 36), (-20, 3)]
    assert as_int_coords([(1, 2), (3, 4)]) == ([(1, 2), (3, 4)], 1)
    assert as_int_coords([]) == ([], 1)


def test_int_kernel_matches_rank_and_kernel_on_scaled_rows():
    rows = [[Fraction(1, 2), 1, 0, Fraction(-3, 4)], [0, 0, 0, 0], [2, 4, 1, 1]]
    ints = [[2 * 4 * x for x in r] for r in rows]
    assert int_kernel([[int(x) for x in r] for r in ints], 4) == rank_and_kernel(rows, 4)


def test_affine_rank():
    assert affine_rank([], 2) == 0
    assert affine_rank([(3, 4)], 2) == 0
    assert affine_rank([(0, 0), (2, 2), (5, 5)], 2) == 1
    assert affine_rank([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3) == 2


def test_int_hyperplane_is_primitive_with_positive_lead():
    # 2x - 4y = 6 through (3, 0) and (1, -1): primitive (1, -2), 3.
    assert int_hyperplane([(3, 0), (1, -1)]) == ([1, -2], 3)
    assert int_hyperplane([(0, 0, 0), (1, 0, 0)]) is None
    assert int_hyperplane([(0, 0), (1, 0), (0, 1)]) is None
    # Scaling the points scales only the offset.
    assert hyperplane_through([(Fraction(3, 5), 0), (Fraction(1, 5), Fraction(-1, 5))]) == (
        Vec((1, -2)), Fraction(3, 5)
    )


def _random_point_set(rng):
    """Integer points in R^d, d = 1..7: random points, affine
    combinations of a few base points (coplanar and rank-deficient sets)
    and repeats, with entries up to 2^70 in one set of five."""
    d = rng.randint(1, 7)
    huge = rng.random() < 0.2
    bound = 2**70 if huge else 6
    base = [
        tuple(rng.randint(-bound, bound) for _ in range(d))
        for _ in range(rng.randint(1, d + 1))
    ]
    points = []
    for _ in range(rng.randint(1, d + 3)):
        kind = rng.random()
        if kind < 0.15 and points:
            points.append(rng.choice(points))
        elif kind < 0.65:
            # Integer affine combination: the weights sum to 1.
            weights = [rng.randint(-3, 3) for _ in base[1:]]
            weights.insert(0, 1 - sum(weights))
            points.append(
                tuple(sum(w * q[j] for w, q in zip(weights, base)) for j in range(d))
            )
        else:
            points.append(tuple(rng.randint(-bound, bound) for _ in range(d)))
    return d, points


def test_early_exit_fits_match_full_elimination_on_random_point_sets():
    rng = random.Random(41)
    kinds = set()
    for _ in range(12_000):
        d, points = _random_point_set(rng)
        want = reference_int_hyperplane(points)
        assert int_hyperplane(points) == want, points
        rank = reference_affine_rank(points, d)
        assert affine_rank(points, d) == rank, points
        kinds.add((want is not None, rank == d, len(points) > d + 1))
    # Unique planes through more than d points, spanning sets, and
    # rank-deficient sets all occur.
    assert kinds >= {(True, False, True), (False, True, True), (False, False, True),
                     (True, False, False), (False, False, False)}


def test_early_exit_fits_match_full_elimination_on_catalogue_facets():
    from minkdecomp.catalogue import catalogue_list

    for e in catalogue_list():
        p = e.build()
        ints, _ = p.int_coords()
        assert affine_rank(ints, p.dim) == reference_affine_rank(ints, p.dim) == p.dim
        for f in p.facets:
            pts = [ints[i] for i in f]
            assert int_hyperplane(pts) == reference_int_hyperplane(pts) is not None
        for v in range(len(ints)):
            nbrs = [ints[x] for x in p.neighbors(v)]
            assert int_hyperplane(nbrs) == reference_int_hyperplane(nbrs)


def test_int_collinear_is_total():
    assert int_collinear((0, 0), (1, 1), (3, 3))
    assert not int_collinear((0, 0), (1, 0), (0, 1))
    # Coincident points are collinear with anything, in any position.
    for p, q, r in [((1, 2), (1, 2), (5, 7)), ((1, 2), (5, 7), (1, 2)),
                    ((5, 7), (1, 2), (1, 2)), ((1, 2), (1, 2), (1, 2))]:
        assert int_collinear(p, q, r)
    rng = random.Random(3)
    for _ in range(2000):
        d = rng.randint(1, 5)
        pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(3)]
        assert int_collinear(*pts) == (not affinely_independent(pts))


def test_one_pass_collinearity_matches_the_difference_lists():
    """`int_collinear` stops at the first deciding coordinate and must
    answer as the two-list reference does on every triple: 100,000 seeded
    triples in d = 0..6 from a box of side 5, a quarter of them forced
    collinear (r on the line through p and q) and a tenth with p = q."""
    rng = random.Random(26)
    collinear = 0
    for _ in range(100_000):
        d = rng.randint(0, 6)
        p, q, r = (tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(3))
        kind = rng.random()
        if kind < 0.1:
            q = p
        elif kind < 0.35:
            t = rng.randint(-2, 2)
            r = tuple(a + t * (b - a) for a, b in zip(p, q))
        want = reference_int_collinear(p, q, r)
        assert int_collinear(p, q, r) == want, (p, q, r)
        collinear += want
    assert 25_000 < collinear < 75_000


@pytest.mark.parametrize(
    "p, q, r, want",
    [
        # v is nonzero before u's first nonzero entry.
        ((0, 0, 0), (0, 1, 0), (1, 0, 0), False),
        ((0, 0, 0), (0, 0, 1), (0, 1, 1), False),
        # u is zero: p = q, collinear with any r.
        ((1, 2, 3), (1, 2, 3), (4, 0, 7), True),
        # The first 2x2 minor is zero on points that are not collinear.
        ((0, 0, 0), (0, 0, 1), (1, 0, 0), False),
        ((0, 0, 0), (1, 2, 0), (2, 4, 1), False),
        # Collinear, with the deciding pair past a zero coordinate.
        ((0, 0, 0), (0, 2, 4), (0, -1, -2), True),
        ((0,), (3,), (5,), True),
        ((), (), (), True),
    ],
)
def test_int_collinear_hand_cases(p, q, r, want):
    assert int_collinear(p, q, r) == reference_int_collinear(p, q, r) == want


def test_vec_keeps_vecs_and_fractions():
    v = Vec((Fraction(1, 2), 3))
    assert Vec(v) is v
    half = Fraction(1, 2)
    assert Vec((half, 1))[0] is half
    assert Vec((1, "2/3")) == (Fraction(1), Fraction(2, 3))
