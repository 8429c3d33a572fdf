"""Decomposing-function spaces on geometric graphs.

The cycle-space route is cross-checked against the naive full system
(one block of equations per edge over all vertex images), which has the
same kernel dimension because the edge scalars are determined by the
images and vice versa up to translation.

The library builds the cycle system and the homothety fit over cleared
integer coordinates.  The rational construction they replaced is kept
below as the reference (`reference_decomposing_space`,
`reference_homothety_residue`, `reference_oracle_witness`): dimensions,
bases and witnesses must match it exactly, also on scaled, shifted and
relabelled images.
"""

import random
from fractions import Fraction

import pytest

from minkdecomp.catalogue import catalogue_list
from minkdecomp.constructors import cube, octahedron, simplex
from minkdecomp.errors import InvalidInputError
from minkdecomp.graphs import (
    DecomposingFunction,
    GeometricGraph,
    _bfs_tree,
    _path_steps,
    decomposing_space,
    edge_key,
    homothety_residue,
    is_homothety,
    is_indecomposable_graph,
    oracle_verdict,
    skeleton,
    touches_every_facet,
)
from minkdecomp.linalg import Vec, rank_and_kernel, solve_exact, zero_vec
from minkdecomp.polytope import Polytope


def decomposing_system_matrix(g):
    """The naive linear system: unknowns are all vertex images plus one
    scalar per edge, d equations per edge.  Used to cross-check the
    cycle-space computation; exponentially slower to eliminate."""
    d = g.dim
    vids = sorted(g.vertices)
    vcol = {v: i * d for i, v in enumerate(vids)}
    ecol_base = len(vids) * d
    ecol = {e: ecol_base + i for i, e in enumerate(g.edges)}
    ncols = ecol_base + len(g.edges)
    rows = []
    for u, v in g.edges:
        direction = g.vertices[u] - g.vertices[v]
        for j in range(d):
            row = [Fraction(0)] * ncols
            row[vcol[u] + j] = Fraction(1)
            row[vcol[v] + j] = Fraction(-1)
            row[ecol[(u, v)]] = -direction[j]
            rows.append(row)
    return rows, ncols


def reference_decomposing_space(g):
    """The rational cycle-space construction: Vec rows cleared row by row."""
    d = g.dim
    total = 0
    basis = []
    zero_images = {v: zero_vec(d) for v in g.vertices}
    zero_scalars = {e: Fraction(0) for e in g.edges}
    for comp in g.components():
        parent, depth, order, comp_edges, tree_edges = _bfs_tree(g, comp)
        for j in range(d):
            images = dict(zero_images)
            shift = Vec(int(k == j) for k in range(d))
            for v in comp:
                images[v] = shift
            basis.append(DecomposingFunction(images, dict(zero_scalars)))
        total += d
        if not comp_edges:
            continue
        col_of = {e: i for i, e in enumerate(comp_edges)}
        rows = []
        for e in comp_edges:
            if e in tree_edges:
                continue
            u, v = e
            coeffs = [zero_vec(d)] * len(comp_edges)
            for a, b in _path_steps(parent, depth, v, u):
                k = col_of[edge_key(a, b)]
                coeffs[k] = coeffs[k] + (g.vertices[b] - g.vertices[a])
            k = col_of[e]
            coeffs[k] = coeffs[k] + (g.vertices[v] - g.vertices[u])
            for j in range(d):
                rows.append([c[j] for c in coeffs])
        _, lam_basis = rank_and_kernel(rows, ncols=len(comp_edges))
        total += len(lam_basis)
        for lam in lam_basis:
            scalars = dict(zero_scalars)
            for e, value in zip(comp_edges, lam):
                scalars[e] = value
            images = dict(zero_images)
            images[comp[0]] = zero_vec(d)
            for v in order[1:]:
                u = parent[v]
                images[v] = images[u] + (g.vertices[v] - g.vertices[u]) * scalars[edge_key(u, v)]
            basis.append(DecomposingFunction(images, scalars))
    return total, basis


def reference_homothety_residue(g, f):
    """Least-squares homothety fit by solving the rational normal equations."""
    d = g.dim
    vids = sorted(g.vertices)
    pts = [g.vertices[v] for v in vids]
    rows = [[sum(p.dot(p) for p in pts)] + [sum(p[j] for p in pts) for j in range(d)]]
    rhs = [sum(p.dot(f.images[v]) for p, v in zip(pts, vids))]
    for j in range(d):
        row = [sum(p[j] for p in pts)] + [Fraction(0)] * d
        row[1 + j] = Fraction(len(vids))
        rows.append(row)
        rhs.append(sum(f.images[v][j] for v in vids))
    fit = solve_exact(rows, rhs)
    alpha, shift = fit[0], Vec(fit[1:])
    images = {v: f.images[v] - (g.vertices[v] * alpha + shift) for v in vids}
    scalars = {}
    for u, v in g.edges:
        diff_f = images[u] - images[v]
        diff_x = g.vertices[u] - g.vertices[v]
        j = next(i for i, c in enumerate(diff_x) if c)
        lam = diff_f[j] / diff_x[j]
        assert diff_f == diff_x * lam
        scalars[(u, v)] = lam
    return DecomposingFunction(images, scalars)


def reference_oracle_witness(g, basis):
    """The first nonzero homothety residue after the d translations."""
    for f in basis[g.dim:]:
        residue = reference_homothety_residue(g, f)
        if not all(img.is_zero() for img in residue.images.values()):
            return residue
    return None


def graph(points, edges):
    pts = {i: Vec(p) for i, p in enumerate(points)}
    return GeometricGraph(dim=len(points[0]), vertices=pts, edges=tuple(edges))


def naive_dimension(g):
    rows, ncols = decomposing_system_matrix(g)
    _, basis = rank_and_kernel(rows, ncols=ncols)
    return len(basis)


TRIANGLE = graph([(0, 0), (2, 0), (0, 2)], [(0, 1), (0, 2), (1, 2)])
SQUARE = graph([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_single_edge_dimension():
    g = graph([(0, 0), (1, 0)], [(0, 1)])
    dim, basis = decomposing_space(g)
    assert dim == 3 == len(basis)
    assert naive_dimension(g) == 3


def test_triangle_is_rigid():
    dim, basis = decomposing_space(TRIANGLE)
    assert dim == 3
    assert naive_dimension(TRIANGLE) == 3
    assert is_indecomposable_graph(TRIANGLE)


def test_square_cycle_is_flexible():
    dim, _ = decomposing_space(SQUARE)
    assert dim == 4
    assert naive_dimension(SQUARE) == 4
    assert not is_indecomposable_graph(SQUARE)


def test_polytope_skeleta_dimensions():
    octa = skeleton(octahedron())
    assert decomposing_space(octa)[0] == 4
    box = skeleton(cube(3))
    assert decomposing_space(box)[0] == 6


@pytest.mark.parametrize(
    "p",
    [simplex(2), simplex(3), simplex(4), cube(2), cube(3), octahedron()],
    ids=["simplex2", "simplex3", "simplex4", "cube2", "cube3", "octahedron"],
)
def test_cycle_route_matches_naive_system(p):
    g = skeleton(p)
    dim, basis = decomposing_space(g)
    assert naive_dimension(g) == dim
    for f in basis:
        assert f.check(g)


def test_basis_is_independent():
    g = skeleton(cube(3))
    dim, basis = decomposing_space(g)
    vids = sorted(g.vertices)
    rows = [[c for v in vids for c in f.images[v]] for f in basis]
    rank, _ = rank_and_kernel(rows, ncols=len(vids) * g.dim)
    assert rank == dim


def test_disconnected_graph_components_add_up():
    g = graph(
        [(0, 0), (2, 0), (0, 2), (5, 5), (6, 5)],
        [(0, 1), (0, 2), (1, 2), (3, 4)],
    )
    assert len(g.components()) == 2
    dim, _ = decomposing_space(g)
    assert dim == 3 + 3
    assert naive_dimension(g) == 6
    with pytest.raises(InvalidInputError):
        is_indecomposable_graph(g)


def test_non_spanning_graph_rejected():
    g = graph([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)])
    with pytest.raises(InvalidInputError):
        is_indecomposable_graph(g)


def test_edgeless_graph_rejected():
    g = GeometricGraph(dim=2, vertices={0: Vec((0, 0))}, edges=())
    with pytest.raises(InvalidInputError):
        decomposing_space(g)


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        graph([(0, 0), (1, 0)], [(0, 0)])
    with pytest.raises(InvalidInputError):
        graph([(0, 0), (1, 0)], [(0, 2)])
    with pytest.raises(InvalidInputError):
        GeometricGraph(
            dim=2,
            vertices={0: Vec((0, 0)), 1: Vec((0, 0))},
            edges=((0, 1),),
        )


def test_from_images_rejects_non_decomposing_map():
    images = {0: Vec((0, 0)), 1: Vec((0, 1)), 2: Vec((1, 0))}
    with pytest.raises(InvalidInputError):
        DecomposingFunction.from_images(TRIANGLE, images)


def test_check_detects_wrong_scalars():
    images = {v: TRIANGLE.vertices[v] * 2 for v in TRIANGLE.vertices}
    f = DecomposingFunction.from_images(TRIANGLE, images)
    assert f.check(TRIANGLE)
    bad = DecomposingFunction(f.images, {e: Fraction(7) for e in f.edge_scalars})
    assert not bad.check(TRIANGLE)


def test_homothety_detection():
    shift = Vec((3, -2))
    images = {v: TRIANGLE.vertices[v] * Fraction(5, 2) + shift for v in TRIANGLE.vertices}
    f = DecomposingFunction.from_images(TRIANGLE, images)
    assert is_homothety(TRIANGLE, f)
    assert all(img.is_zero() for img in homothety_residue(TRIANGLE, f).images.values())

    # Collapse one side of the square: decomposing but not a homothety.
    g = SQUARE
    images = {0: Vec((0, 0)), 1: Vec((1, 0)), 2: Vec((1, 0)), 3: Vec((0, 0))}
    w = DecomposingFunction.from_images(g, images)
    assert not is_homothety(g, w)


def test_oracle_on_indecomposable_input():
    res = oracle_verdict(simplex(3))
    assert res.verdict == "Indecomposable"
    assert res.dimension == 4
    assert res.witness is None


def test_oracle_witness_is_valid():
    p = cube(3)
    res = oracle_verdict(p)
    assert res.verdict == "Decomposable"
    assert res.dimension == 6
    g = skeleton(p)
    assert res.witness is not None
    assert res.witness.check(g)
    assert not is_homothety(g, res.witness)


def test_touches_every_facet():
    p = cube(2)
    assert touches_every_facet(range(4), p)
    assert not touches_every_facet([0], p)


def _image(p, rng, scale):
    """A relabelled copy of p, scaled by `scale` and shifted by an integer
    vector; facets renumbered."""
    n = len(p.vertices)
    perm = list(range(n))
    rng.shuffle(perm)
    new_of = [0] * n
    for new, old in enumerate(perm):
        new_of[old] = new
    shift = Vec(rng.randint(-9, 9) for _ in range(p.dim))
    vertices = tuple(p.vertices[old] * scale + shift for old in perm)
    facets = tuple(sorted(tuple(sorted(new_of[x] for x in f)) for f in p.facets))
    return Polytope(p.dim, vertices, facets)


def _catalogue_images():
    rng = random.Random(5)
    for e in catalogue_list():
        p = e.build()
        yield e.name, p
        for scale in (Fraction(1, 2), Fraction(5, 3), Fraction(7, 4), Fraction(10**12)):
            yield f"{e.name}*{scale}", _image(p, rng, scale)


CATALOGUE_IMAGES = list(_catalogue_images())


@pytest.mark.parametrize("name,p", CATALOGUE_IMAGES, ids=[n for n, _ in CATALOGUE_IMAGES])
def test_integer_space_and_witness_match_rational_reference(name, p):
    g = skeleton(p)
    dim, basis = decomposing_space(g)
    ref_dim, ref_basis = reference_decomposing_space(g)
    assert dim == ref_dim
    assert [f.edge_scalars for f in basis] == [f.edge_scalars for f in ref_basis]
    assert [f.images for f in basis] == [f.images for f in ref_basis]
    res = oracle_verdict(p)
    ref_witness = None if dim == p.dim + 1 else reference_oracle_witness(g, ref_basis)
    assert res.verdict == ("Indecomposable" if ref_witness is None else "Decomposable")
    if ref_witness is not None:
        assert res.witness.images == ref_witness.images
        assert res.witness.edge_scalars == ref_witness.edge_scalars
        assert res.witness.check(g)


@pytest.mark.parametrize("name,p", CATALOGUE_IMAGES[::5], ids=[n for n, _ in CATALOGUE_IMAGES[::5]])
def test_equal_scalars_decide_homothety_on_catalogue_skeleta(name, p):
    g = skeleton(p)
    assert g.is_connected()
    _, basis = decomposing_space(g)
    for f in basis:
        assert (len(set(f.edge_scalars.values())) == 1) == is_homothety(g, f)


def test_homothety_residue_matches_reference_on_fractional_images():
    rng = random.Random(11)
    g = skeleton(_image(cube(3), rng, Fraction(7, 4)))
    _, basis = decomposing_space(g)
    for f in basis:
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        images = {v: img * scale + Vec((Fraction(1, 3), 2, -1)) for v, img in f.images.items()}
        h = DecomposingFunction.from_images(g, images)
        res, ref = homothety_residue(g, h), reference_homothety_residue(g, h)
        assert res.images == ref.images
        assert res.edge_scalars == ref.edge_scalars


def test_homothety_residue_of_single_vertex_is_singular():
    g = GeometricGraph(dim=2, vertices={0: Vec((1, 2))}, edges=())
    f = DecomposingFunction({0: Vec((0, 0))}, {})
    with pytest.raises(ValueError):
        homothety_residue(g, f)
