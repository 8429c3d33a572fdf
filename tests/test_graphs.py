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

`oracle_verdict` decides from the integer kernels without building the
basis; `basis_oracle_verdict`, the verdict read off `decomposing_space`
and `homothety_residue`, is its reference.

The library eliminates over triangle classes (`triangle_classes`), not
edges, with one block of rows per (vertex, class) incidence, not per
fundamental cycle.  Kallay's uncontracted integer system, the old
builder `reference_cycle_rows` under the identity edge-to-column map, is
the second reference (`identity_decomposing_space`,
`identity_oracle_verdict`); the contracted space must equal it exactly,
also on the skeletons of unvalidated polytopes with collinear 3-cycles
(`edge_polytope`), which must not be contracted.

Every graph the library builds is a polytope's skeleton.  Graphs that
are not, such as the random subgraphs of acceptance criterion 9b, get
their dimension from the naive system
(`reference_linalg.naive_dimension`).

Every reference kernel here, and the naive system's rank, is read off
the test-side elimination (`reference_linalg.reference_rank_and_kernel`),
not the library's, so the comparisons check `kernels.Echelon` rather
than repeat it.
"""

import builtins
import random
import re
from fractions import Fraction

import pytest

from minkdecomp import graphs, kernels
from minkdecomp.catalogue import catalogue_entry, catalogue_list
from minkdecomp.constructors import cube, cyclic, octahedron, segment, simplex
from minkdecomp.errors import InvalidInputError
from minkdecomp.graphs import (
    DecomposingFunction,
    OracleResult,
    cycle_rows,
    decomposing_space,
    edge_key,
    homothety_residue,
    oracle_verdict,
    skeleton,
    touches_every_facet,
    triangle_classes,
)
from minkdecomp.linalg import (
    Vec,
    as_int_coords,
    fraction_vec,
    int_kernel_basis,
    zero_vec,
)
from minkdecomp.polytope import Polytope, minkowski_sum, stack_pyramid

from reference_linalg import (
    graph_vertices,
    is_homothety,
    naive_dimension,
    is_zero,
    reference_check,
    reference_cycle_rows,
    reference_from_images,
    reference_rank_and_kernel,
    solve_exact,
)
from test_certificates import _derived_stack_cases


def dfs_tree(g):
    """A depth-first spanning tree of the skeleton g, rooted at vertex 0
    as the library's BFS tree is: parent and depth maps, and the vertices
    in discovery order."""
    parent, depth, order = {0: None}, {0: 0}, [0]
    stack = [0]
    while stack:
        x = stack[-1]
        y = next((y for y in g.neighbors(x) if y not in parent), None)
        if y is None:
            stack.pop()
            continue
        parent[y], depth[y] = x, depth[x] + 1
        order.append(y)
        stack.append(y)
    return parent, depth, order


def path_steps(parent, depth, u, v):
    """Oriented steps (a -> b) walking from u to v inside the tree, up to
    the lowest common ancestor and down again."""
    up_from_u = []
    up_from_v = []
    x, y = u, v
    while depth[x] > depth[y]:
        up_from_u.append((x, parent[x]))
        x = parent[x]
    while depth[y] > depth[x]:
        up_from_v.append((y, parent[y]))
        y = parent[y]
    while x != y:
        up_from_u.append((x, parent[x]))
        up_from_v.append((y, parent[y]))
        x, y = parent[x], parent[y]
    return up_from_u + [(b, a) for a, b in reversed(up_from_v)]


def reference_decomposing_space(g):
    """The rational cycle-space construction: Vec rows cleared row by row,
    over the fundamental cycles of a depth-first tree (`dfs_tree`), so no
    tree walk is shared with the library.  The basis is the kernel's
    reduced row echelon form, with vertex 0's image fixed at 0, which
    does not depend on the tree."""
    d = g.dim
    pts = graph_vertices(g)
    vids = range(len(pts))
    basis = []
    for j in range(d):
        shift = Vec(int(k == j) for k in range(d))
        zero_scalars = {e: Fraction(0) for e in g.edges}
        basis.append(DecomposingFunction({v: shift for v in vids}, zero_scalars))
    parent, depth, order = dfs_tree(g)
    tree_edges = {edge_key(v, parent[v]) for v in order[1:]}
    col_of = {e: i for i, e in enumerate(g.edges)}
    rows = []
    for e in g.edges:
        if e in tree_edges:
            continue
        u, v = e
        coeffs = [zero_vec(d)] * len(g.edges)
        for a, b in path_steps(parent, depth, v, u):
            k = col_of[edge_key(a, b)]
            coeffs[k] = coeffs[k] + (pts[b] - pts[a])
        k = col_of[e]
        coeffs[k] = coeffs[k] + (pts[v] - pts[u])
        for j in range(d):
            rows.append([c[j] for c in coeffs])
    _, lam_basis = reference_rank_and_kernel(rows, len(g.edges))
    for lam in lam_basis:
        scalars = dict(zip(g.edges, lam))
        images = {0: zero_vec(d)}
        for v in order[1:]:
            u = parent[v]
            images[v] = images[u] + (pts[v] - pts[u]) * scalars[edge_key(u, v)]
        basis.append(DecomposingFunction({v: images[v] for v in vids}, scalars))
    return d + len(lam_basis), basis


def reference_homothety_residue(g, f):
    """Least-squares homothety fit by solving the rational normal equations."""
    d = g.dim
    pts = graph_vertices(g)
    vids = range(len(pts))
    rows = [[sum(p.dot(p) for p in pts)] + [sum(p[j] for p in pts) for j in range(d)]]
    rhs = [sum(p.dot(f.images[v]) for p, v in zip(pts, vids))]
    for j in range(d):
        row = [sum(p[j] for p in pts)] + [Fraction(0)] * d
        row[1 + j] = Fraction(len(vids))
        rows.append(row)
        rhs.append(sum(f.images[v][j] for v in vids))
    fit = solve_exact(rows, rhs)
    alpha, shift = fit[0], Vec(fit[1:])
    images = {v: f.images[v] - (pts[v] * alpha + shift) for v in vids}
    scalars = {}
    for u, v in g.edges:
        diff_f = images[u] - images[v]
        diff_x = pts[u] - pts[v]
        j = next(i for i, c in enumerate(diff_x) if c)
        lam = diff_f[j] / diff_x[j]
        assert diff_f == diff_x * lam
        scalars[(u, v)] = lam
    return DecomposingFunction(images, scalars)


def reference_oracle_witness(g, basis):
    """The first nonzero homothety residue after the d translations."""
    for f in basis[g.dim:]:
        residue = reference_homothety_residue(g, f)
        if not all(is_zero(img) for img in residue.images.values()):
            return residue
    return None


def basis_oracle_verdict(p):
    """`oracle_verdict` read off the basis of `decomposing_space`: the
    homothety residue of the first basis element whose edge scalars are
    not all equal."""
    g = skeleton(p)
    dim, basis = decomposing_space(g)
    if dim == p.dim + 1:
        return OracleResult("Indecomposable", dim, None)
    f = next(f for f in basis if len(set(f.edge_scalars.values())) > 1)
    return OracleResult("Decomposable", dim, homothety_residue(g, f))


def identity_kernel(g):
    """The rational kernel basis of Kallay's uncontracted system, one
    column per edge and one block per fundamental cycle of the BFS tree
    (`reference_cycle_rows` under the identity map), read off by the
    test-side elimination (`reference_rank_and_kernel`): one vector per
    free column, 1 there and 0 at the other free columns."""
    xs = g.points
    identity = {e: i for i, e in enumerate(g.edges)}
    ncols = len(g.edges)
    rows = reference_cycle_rows(xs, g._tree, identity, ncols)
    return reference_rank_and_kernel(rows, ncols)[1]


def identity_decomposing_space(g):
    """The uncontracted integer system (`identity_kernel`), with images
    summed along the BFS tree."""
    d = g.dim
    vids = range(len(g.points))
    xs, mult = g.points, g.mult
    basis = []
    for j in range(d):
        shift = Vec(int(k == j) for k in range(d))
        zero_scalars = {e: Fraction(0) for e in g.edges}
        basis.append(DecomposingFunction({v: shift for v in vids}, zero_scalars))
    parent, order, _ = g._tree
    lam_basis = identity_kernel(g)
    for lam in lam_basis:
        (lam_ints,), den = as_int_coords([lam])
        lam_of = dict(zip(g.edges, lam_ints))
        sums = {0: (0,) * d}
        for v in order[1:]:
            u = parent[v]
            s = lam_of[edge_key(u, v)]
            sums[v] = tuple(a + (xv - xu) * s for a, xv, xu in zip(sums[u], xs[v], xs[u]))
        images = {v: fraction_vec(sums[v], den * mult) for v in vids}
        basis.append(DecomposingFunction(images, dict(zip(g.edges, lam))))
    return d + len(lam_basis), basis


def identity_oracle_verdict(p):
    """`oracle_verdict` over the uncontracted system."""
    g = skeleton(p)
    dim, basis = identity_decomposing_space(g)
    if dim == p.dim + 1:
        return OracleResult("Indecomposable", dim, None)
    f = next(f for f in basis if len(set(f.edge_scalars.values())) > 1)
    return OracleResult("Decomposable", dim, homothety_residue(g, f))


def assert_same_space(g):
    dim, basis = decomposing_space(g)
    ref_dim, ref_basis = identity_decomposing_space(g)
    assert dim == ref_dim
    assert [f.edge_scalars for f in basis] == [f.edge_scalars for f in ref_basis]
    assert [f.images for f in basis] == [f.images for f in ref_basis]
    return dim


def assert_same_oracle(p):
    res, ref = oracle_verdict(p), identity_oracle_verdict(p)
    assert res == basis_oracle_verdict(p)
    assert (res.verdict, res.dimension) == (ref.verdict, ref.dimension)
    if ref.witness is None:
        assert res.witness is None
    else:
        assert res.witness.images == ref.witness.images
        assert res.witness.edge_scalars == ref.witness.edge_scalars


def class_count(g):
    return triangle_classes(g)[1]


def edge_polytope(points, edges):
    """A `Polytope` built in code and never validated whose skeleton has
    exactly the given edges: each edge is listed d - 1 times as a facet,
    so its two endpoints share d - 1 facets that meet in just them, and
    no other pair shares a facet."""
    d = len(points[0])
    facets = tuple(e for e in edges for _ in range(d - 1))
    return Polytope(d, tuple(Vec(x) for x in points), facets)


TRIANGLE = skeleton(simplex(2))
SQUARE = skeleton(cube(2))


def test_single_edge_dimension():
    g = skeleton(segment(0, 1))
    dim, basis = decomposing_space(g)
    assert dim == 2 == len(basis)
    assert naive_dimension(graph_vertices(g), g.edges) == 2


def test_triangle_is_rigid():
    dim, basis = decomposing_space(TRIANGLE)
    assert dim == 3
    assert naive_dimension(graph_vertices(TRIANGLE), TRIANGLE.edges) == 3
    assert oracle_verdict(simplex(2)).verdict == "Indecomposable"


def test_square_cycle_is_flexible():
    dim, _ = decomposing_space(SQUARE)
    assert dim == 4
    assert naive_dimension(graph_vertices(SQUARE), SQUARE.edges) == 4
    assert oracle_verdict(cube(2)).verdict == "Decomposable"


def test_oracle_builds_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the decomposing basis was built")

    monkeypatch.setattr(graphs, "decomposing_space", refuse)
    assert oracle_verdict(simplex(2)).verdict == "Indecomposable"
    res = oracle_verdict(cube(2))
    assert res.verdict == "Decomposable" and res.witness.check(SQUARE)


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
    assert naive_dimension(graph_vertices(g), g.edges) == dim
    for f in basis:
        assert f.check(g)


def test_basis_is_independent():
    g = skeleton(cube(3))
    dim, basis = decomposing_space(g)
    vids = range(len(g.points))
    rows = [[c for v in vids for c in f.images[v]] for f in basis]
    rank, _ = reference_rank_and_kernel(rows, len(vids) * g.dim)
    assert rank == dim


# A single point, built in code and never validated: its skeleton has
# one vertex and no edge.
POINT = Polytope(2, (Vec((1, 2)),), ())


def test_edgeless_graph_rejected():
    with pytest.raises(InvalidInputError, match="edgeless"):
        decomposing_space(skeleton(POINT))
    with pytest.raises(InvalidInputError, match="edgeless"):
        oracle_verdict(POINT)


def test_non_decomposing_map_does_not_check():
    images = {0: Vec((0, 0)), 1: Vec((0, 1)), 2: Vec((1, 0))}
    with pytest.raises(InvalidInputError):
        reference_from_images(TRIANGLE, images)
    for s in (0, 1, Fraction(1, 2), -1):
        scalars = {e: Fraction(s) for e in TRIANGLE.edges}
        assert not DecomposingFunction(images, scalars).check(TRIANGLE)


def test_check_detects_wrong_scalars():
    images = dict(enumerate(v * 2 for v in graph_vertices(TRIANGLE)))
    f = reference_from_images(TRIANGLE, images)
    assert f.check(TRIANGLE)
    bad = DecomposingFunction(f.images, {e: Fraction(7) for e in f.edge_scalars})
    assert not bad.check(TRIANGLE)


def test_check_refuses_malformed_images():
    """A witness with an image missing or of the wrong length does not
    check; it is refused, not raised on."""
    from minkdecomp.certificates import analyze
    from minkdecomp.constructors import delta

    p = delta(2, 2)
    g = graphs.skeleton(p)
    w = analyze(p).witness
    assert w.check(g)
    missing = dict(w.images)
    del missing[0]
    longer = dict(w.images)
    longer[3] = Vec(tuple(longer[3]) + (1,))
    every_longer = {v: Vec(tuple(img) + (1,)) for v, img in w.images.items()}
    for images in (missing, longer, every_longer):
        assert not DecomposingFunction(images, w.edge_scalars).check(g)
        with pytest.raises(InvalidInputError):
            reference_from_images(g, images)


def _tampered(w, rng):
    """Seeded tamperings of a witness: (label, images, scalars)."""
    images, scalars = w.images, w.edge_scalars
    verts, edges = sorted(images), sorted(scalars)
    v, e = rng.choice(verts), rng.choice(edges)
    d = len(images[v])
    j = rng.randrange(d)
    moved = dict(images)
    moved[v] = Vec(c + Fraction(1, 7) if k == j else c for k, c in enumerate(images[v]))
    changed = dict(scalars)
    changed[e] = scalars[e] + Fraction(rng.choice([-1, 1]), rng.randint(1, 9))
    dropped = {x: s for x, s in scalars.items() if x != e}
    extra = dict(scalars)
    extra[(len(verts), len(verts) + 1)] = scalars[e]
    no_image = {x: img for x, img in images.items() if x != v}
    longer = dict(images)
    longer[v] = Vec(tuple(images[v]) + (0,))
    shorter = dict(images)
    shorter[v] = Vec(tuple(images[v])[:-1])
    yield "as handed out", images, scalars
    yield "coordinate moved by 1/7", moved, scalars
    yield "scalar changed", images, changed
    yield "edge key dropped", images, dropped
    yield "edge key added", images, extra
    yield "vertex image dropped", no_image, scalars
    yield "image too long", longer, scalars
    yield "image too short", shorter, scalars
    yield "scalars as int", images, {x: int(s) for x, s in scalars.items()}
    yield "scalars as float", images, {x: float(s) for x, s in scalars.items()}
    yield "scalars as str", images, {x: str(s) for x, s in scalars.items()}


def test_integer_check_matches_the_fraction_check_on_every_slide_witness():
    """Over the catalogue, every witness `analyze` hands out from a facet
    slide (lifted through pyramid reductions or not) checks, and on each
    seeded tampering the integer check gives the reference's answer."""
    from minkdecomp.certificates import analyze

    rng = random.Random(19)
    witnesses = refused = 0
    for e in catalogue_list():
        p = e.build()
        r = analyze(p)
        if r.trace is None or "ShephardFacet" not in [s.rule for s in r.trace.steps]:
            continue
        witnesses += 1
        g = skeleton(p)
        for label, images, scalars in _tampered(r.witness, rng):
            f = DecomposingFunction(images, scalars)
            want = reference_check(f, g)
            assert f.check(g) == want, (e.name, label)
            if label == "as handed out":
                assert want, e.name
            refused += not want
    # 20 slide witnesses in the catalogue when this was written.
    assert witnesses >= 20
    assert refused >= 8 * witnesses


def test_homothety_detection():
    shift = Vec((3, -2))
    images = dict(enumerate(v * Fraction(5, 2) + shift for v in graph_vertices(TRIANGLE)))
    f = reference_from_images(TRIANGLE, images)
    assert is_homothety(TRIANGLE, f)
    assert all(is_zero(img) for img in homothety_residue(TRIANGLE, f).images.values())

    # Collapse the square's vertical edges: decomposing but not a homothety.
    g = SQUARE
    images = {0: Vec((0, 0)), 1: Vec((1, 0)), 2: Vec((0, 0)), 3: Vec((1, 0))}
    w = reference_from_images(g, images)
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
    assert_same_space(g)
    assert_same_oracle(p)


@pytest.mark.parametrize("name,p", CATALOGUE_IMAGES[::5], ids=[n for n, _ in CATALOGUE_IMAGES[::5]])
def test_equal_scalars_decide_homothety_on_catalogue_skeleta(name, p):
    # `_equal_ratios` decides it over the integer ratios `_edge_ratios`
    # verifies, as the facet slide and `analyze` read them.
    g = skeleton(p)
    xs = g.points
    _, basis = decomposing_space(g)
    for f in basis:
        homothety = is_homothety(g, f)
        assert (len(set(f.edge_scalars.values())) == 1) == homothety
        fs, _ = as_int_coords(f.images[v] for v in range(len(xs)))
        assert graphs._equal_ratios(graphs._edge_ratios(g.edges, xs, fs)) == homothety


def test_homothety_residue_matches_reference_on_fractional_images():
    rng = random.Random(11)
    g = skeleton(_image(cube(3), rng, Fraction(7, 4)))
    _, basis = decomposing_space(g)
    for f in basis:
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        images = {v: img * scale + Vec((Fraction(1, 3), 2, -1)) for v, img in f.images.items()}
        h = reference_from_images(g, images)
        res, ref = homothety_residue(g, h), reference_homothety_residue(g, h)
        assert res.images == ref.images
        assert res.edge_scalars == ref.edge_scalars


def test_homothety_residue_of_single_vertex_is_singular():
    g = skeleton(POINT)
    f = DecomposingFunction({0: Vec((0, 0))}, {})
    with pytest.raises(ValueError):
        homothety_residue(g, f)


# ---------------------------------------------------------------------------
# Triangle contraction


@pytest.mark.parametrize("n,d", [(n, 4) for n in range(5, 15)] + [(n, 6) for n in range(7, 13)])
def test_contracted_space_matches_identity_map_on_cyclic_polytopes(n, d):
    p = cyclic(n, d)
    assert assert_same_space(skeleton(p)) == d + 1
    assert_same_oracle(p)


@pytest.mark.parametrize(
    "name,edges,classes",
    [("delta-3-4", 70, 9), ("sum-25-edges", 25, 7), ("wedge-6", 51, 14)],
)
def test_class_counts_on_catalogue_skeleta(name, edges, classes):
    g = skeleton(next(e for e in catalogue_list() if e.name == name).build())
    assert (len(g.edges), class_count(g)) == (edges, classes)


def test_complete_skeleton_of_cyclic_24_6_is_one_class():
    g = skeleton(cyclic(24, 6))
    assert (len(g.edges), class_count(g)) == (276, 1)
    assert decomposing_space(g)[0] == 7


def test_oracle_skips_the_cycle_system_with_one_class(monkeypatch):
    # cyclic(10,4) is simplicial and neighbourly: one triangle class, so
    # the kernel is known without building or eliminating the system.
    # The polytope is built first: its hull inverts a start simplex with
    # `rref_int`.  A cycle system reaches the elimination through
    # `int_kernel_basis`, and the edge rows through `rref_int`.
    p = cyclic(10, 4)

    def refuse(*args):
        raise AssertionError("the one-class system was built or eliminated")

    monkeypatch.setattr(graphs, "cycle_rows", refuse)
    monkeypatch.setattr(graphs, "int_kernel_basis", refuse)
    monkeypatch.setattr(kernels, "rref_int", refuse)
    res = oracle_verdict(p)
    assert (res.verdict, res.dimension) == ("Indecomposable", 5)


def test_skeleton_takes_the_polytope_cached_values_as_they_are():
    for e in catalogue_list():
        p = e.build()
        g = skeleton(p)
        assert g.dim == p.dim and g.edges is p.edges(), e.name
        assert g._adjacency is p._adjacency(), e.name
        assert g.points is p.int_coords()[0] and g.mult == p.int_coords()[1], e.name
        n = len(p)
        assert [g.neighbors(v) for v in range(-1, n + 1)] == [
            p.neighbors(v) for v in range(-1, n + 1)
        ], e.name
        # The walk that checked connectivity reached every vertex.
        assert sorted(g._tree[1]) == list(range(n)), e.name


def test_skeleton_neighbors_of_a_non_vertex_are_none():
    # Replay passes recorded ids: -1 must not read as the last vertex.
    n = len(SQUARE.points)
    assert SQUARE.neighbors(-1) == SQUARE.neighbors(n) == SQUARE.neighbors(n + 5) == ()
    assert SQUARE.neighbors(n - 1) == (1, 2)


def test_skeleton_refuses_a_polytope_without_vertices():
    with pytest.raises(InvalidInputError, match="^skeleton has no vertices$"):
        skeleton(Polytope(2, (), ()))


def test_skeleton_refuses_an_edge_with_repeated_coordinates():
    # Built in code and never validated: vertex 3 repeats vertex 0, and
    # the facet lists make (0,3) an edge.
    pts = [(0, 0), (1, 0), (0, 1), (0, 0)]
    facets = ((0, 1), (1, 2), (2, 3), (0, 3))
    p = Polytope(2, tuple(Vec(x) for x in pts), facets)
    assert (0, 3) in p.edges()
    with pytest.raises(InvalidInputError, match=r"edge \(0,3\) endpoints share coordinates"):
        skeleton(p)


def test_collinear_triangle_is_not_contracted():
    # 0, 1, 2 lie on a line: their 3-cycle gives one equation,
    # l01 + l12 = 2 l02, which leaves a free scalar that the square
    # 0-2-3-4 alone would not have.
    g = skeleton(edge_polytope(
        [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)],
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4)],
    ))
    assert class_count(g) == 6
    assert assert_same_space(g) == naive_dimension(graph_vertices(g), g.edges) == 5


def test_collinear_triangle_of_an_unvalidated_polygon_is_not_contracted():
    # Three points on a line given as a triangle: contracting the 3-cycle
    # would leave one scalar and read the "polygon" as indecomposable.
    p = edge_polytope([(0, 0), (1, 0), (2, 0)], [(0, 1), (0, 2), (1, 2)])
    assert p.facets == ((0, 1), (0, 2), (1, 2))
    assert class_count(skeleton(p)) == 3
    res = oracle_verdict(p)
    assert (res.verdict, res.dimension) == ("Decomposable", 4)
    assert res == basis_oracle_verdict(p) == identity_oracle_verdict(p)


def _graph_with_collinear_triangles(rng, d):
    """The skeleton of a random connected graph on integer points in R^d
    (`edge_polytope`), some points placed on lines through earlier pairs:
    random edges plus the three edges of every such triple.  A
    disconnected draw is drawn again."""
    pts = []
    edges = set()
    n = rng.randint(d + 3, 9)
    while len(pts) < n:
        if len(pts) >= 2 and rng.random() < 0.4:
            i, j = rng.sample(range(len(pts)), 2)
            t = rng.choice([-1, 2, 3])
            x = tuple(a + t * (b - a) for a, b in zip(pts[i], pts[j]))
            if x in pts:
                continue
            pts.append(x)
            k = len(pts) - 1
            edges |= {edge_key(i, j), edge_key(i, k), edge_key(j, k)}
        else:
            x = tuple(rng.randint(-3, 3) for _ in range(d))
            if x not in pts:
                pts.append(x)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                edges.add((u, v))
    try:
        return skeleton(edge_polytope(pts, sorted(edges)))
    except InvalidInputError:
        return _graph_with_collinear_triangles(rng, d)


def test_contracted_space_matches_identity_map_on_random_graphs_with_collinear_triangles():
    rng = random.Random(23)
    contracted = 0
    for trial in range(150):
        g = _graph_with_collinear_triangles(rng, 2 + trial % 3)
        dim = assert_same_space(g)
        assert dim == naive_dimension(graph_vertices(g), g.edges)
        contracted += class_count(g) < len(g.edges)
    assert contracted > 100


# ---------------------------------------------------------------------------
# The oracle without a basis


@pytest.mark.parametrize("n", [6, 7, 8])
def test_oracle_matches_basis_reference_on_decomposable_sums(n):
    p = minkowski_sum(cyclic(n, 4), [[0, 0, 0, 0], [1, 3, 2, 5]])
    res = oracle_verdict(p)
    assert res.verdict == "Decomposable"
    assert res == basis_oracle_verdict(p) == identity_oracle_verdict(p)


def test_skeleton_refuses_an_isolated_midpoint_as_disconnected():
    # cyclic(8,4) plus the midpoint of edge (0,1), listed in the six facets
    # through the edge and built without `validate`: the midpoint has no
    # edge, so it is a component of its own, which adds only translations
    # to the naive system's space.
    p = cyclic(8, 4)
    facets = tuple(f + (8,) if 0 in f and 1 in f else f for f in p.facets)
    q = Polytope(4, p.vertices + ((p.vertices[0] + p.vertices[1]) / 2,), facets)
    assert all(8 not in e for e in q.edges())
    assert naive_dimension(q.vertices, q.edges()) == 5 + 4
    refusal = "skeleton is disconnected: vertex 8 is not reached from vertex 0"
    for build in (skeleton, oracle_verdict, basis_oracle_verdict):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(refusal)}$"):
            build(q)


def test_skeleton_analyze_and_replay_refuse_two_disjoint_triangles():
    # Two triangles given as the "facets" of one polygon, built without
    # `validate`.  A homothety test by equal edge scalars holds only on a
    # connected graph, so neither the oracle nor a facet slide may decide
    # it: facet 0 would slide to a "proper summand".
    from minkdecomp.certificates import CertificateStep, CertificateTrace, analyze, replay_report

    pts = [(0, 0), (2, 0), (0, 2), (5, 5), (7, 5), (Fraction(11, 2), 8)]
    facets = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
    p = Polytope(2, tuple(Vec(x) for x in pts), facets)
    assert p.edges() == facets
    assert naive_dimension(p.vertices, p.edges()) == 3 + 3
    refusal = "skeleton is disconnected: vertex 3 is not reached from vertex 0"
    exact = f"^{re.escape(refusal)}$"
    for decide in (skeleton, oracle_verdict, basis_oracle_verdict):
        with pytest.raises(InvalidInputError, match=exact):
            decide(p)
    for mode in ("certificates-first", "oracle-only"):
        with pytest.raises(InvalidInputError, match=exact):
            analyze(p, mode)
    slide = CertificateStep(
        "ShephardFacet", (0, (0, 1)), "polytope-decomposable", frozenset({0, 1}), frozenset(),
        "facet slides along its unique outside edges",
    )
    trace = CertificateTrace((slide,), "Decomposable", "facet 0 slides to a proper summand")
    assert replay_report(trace, p) == (False, f"replay error: {refusal}")


def incidence_blocks(edges, col_of, nvertices, ncols):
    """The number of blocks `cycle_rows` writes: one per (vertex, class)
    incidence but each class's anchor and each vertex's tree edge."""
    members = {}
    for e in edges:
        members.setdefault(col_of[e], set()).update(e)
    return sum(map(len, members.values())) - nvertices - ncols + 1


def test_distinct_cycle_rows_give_the_kernels_of_every_row():
    """`_cycle_kernel` eliminates each distinct row of the incidence
    system once; the old builder (`reference_cycle_rows`) kept every row
    of Kallay's fundamental-cycle system, repeats included.  The two
    systems have the same solutions, so the columns and the unique kernel
    basis must be the same, on the catalogue and on seeded stackings and
    truncations.  The distinct rows are nonzero, each kept once, and at
    most d per incidence block."""
    systems = repeats = 0
    for name, p in _derived_stack_cases():
        g = skeleton(p)
        xs = g.points
        tree = g._tree
        cols, kernel = graphs._cycle_kernel(g)
        col_of, k = triangle_classes(g)
        assert cols == [col_of[e] for e in g.edges], name
        if k == 1:
            assert kernel == [[1]], name
            continue
        every = reference_cycle_rows(xs, tree, col_of, k)
        distinct = cycle_rows(xs, tree, col_of, k)
        assert all(distinct) and len(set(map(tuple, distinct))) == len(distinct), name
        assert len(distinct) <= g.dim * incidence_blocks(g.edges, col_of, len(xs), k), name
        assert kernel == int_kernel_basis(every, k)[1], name
        systems += 1
        repeats += len(distinct) < len(every)
    assert systems > 100 and repeats > 50, (systems, repeats)


@pytest.mark.parametrize("mode", ["certificates-first", "oracle-only"])
def test_analyze_walks_each_skeleton_once(monkeypatch, mode):
    """The connectivity check's BFS tree is the one the oracle's cycle
    system is built over: `analyze` walks every skeleton it builds once,
    the reduced polytopes of pyramid reductions included."""
    from minkdecomp.certificates import analyze

    walks, built = [], []
    walk, build = graphs._bfs_tree, graphs._build_skeleton
    monkeypatch.setattr(
        graphs, "_bfs_tree", lambda adj, edges: walks.append(adj) or walk(adj, edges)
    )
    monkeypatch.setattr(graphs, "_build_skeleton", lambda p: built.append(p) or build(p))
    analyses = 0
    for e in catalogue_list():
        q = e.build()
        for p in (q, stack_pyramid(q, 0)) if q.dim in (3, 4) else (q,):
            before = len(built)
            analyze(p, mode)
            analyses += 1
            assert len(built) > before and len(walks) == len(built), e.name
    assert all(adj is p._adjacency() for adj, p in zip(walks, built))
    if mode == "certificates-first":
        assert len(built) > analyses


def test_delta_3_4_cycle_system_drops_repeated_rows(monkeypatch):
    """Kallay's system on delta(3,4) has 7 * (70 - 20 + 1) = 357 rows;
    the incidence system over its 9 triangle classes builds 84, every one
    tested for zero once (counted through the module's `any`), and keeps
    its 7 distinct nonzero rows, with the kernel of every row of the old
    builder."""
    g = skeleton(catalogue_entry("delta-3-4").build())
    xs = g.points
    tree = g._tree
    col_of, k = triangle_classes(g)
    assert k == 9
    assert g.dim * (len(g.edges) - len(xs) + 1) == 357
    built = []
    monkeypatch.setattr(
        graphs, "any", lambda row: built.append(row) or builtins.any(row), raising=False
    )
    distinct = cycle_rows(xs, tree, col_of, k)
    monkeypatch.undo()
    assert len(built) == g.dim * incidence_blocks(g.edges, col_of, len(xs), k) <= 84
    assert len(distinct) == 7 == len(set(map(tuple, distinct)))
    every = reference_cycle_rows(xs, tree, col_of, k)
    assert len(distinct) < len({tuple(r) for r in every}) < len(every)
    assert int_kernel_basis(distinct, k)[1] == int_kernel_basis(every, k)[1]


def test_cycle_kernel_matches_the_uncontracted_reference_system():
    """`_cycle_kernel`, expanded to the edges (`_edge_rows`), is the
    kernel basis of Kallay's uncontracted system (`identity_kernel`), on
    the catalogue, on its and seeded polytopes' stackings and truncations
    (`_derived_stack_cases`), and on the unvalidated collinear polygon,
    whose 3-cycle is not contracted."""
    polygon = edge_polytope([(0, 0), (1, 0), (2, 0)], [(0, 1), (0, 2), (1, 2)])
    cases = [*_derived_stack_cases(), ("collinear polygon", polygon)]
    flexible = 0
    for name, p in cases:
        g = skeleton(p)
        cols, kernel = graphs._cycle_kernel(g)
        got = [fraction_vec(lam, den) for lam, den in graphs._edge_rows(cols, kernel)]
        assert got == identity_kernel(g), name
        flexible += len(kernel) > 1
    assert flexible > 100, flexible


def test_triangle_classes_are_connected_edge_sets():
    """`cycle_rows` moves each class rigidly, which holds because each
    class is a connected set of edges: the triangles it joins share
    edges.  Checked on `_derived_stack_cases` and on random graphs with
    collinear 3-cycles, which join nothing."""
    rng = random.Random(29)
    skeletons = [skeleton(p) for _, p in _derived_stack_cases()]
    skeletons += [_graph_with_collinear_triangles(rng, 2 + t % 3) for t in range(60)]
    joined = 0
    for g in skeletons:
        xs = g.points
        col_of, k = triangle_classes(g)
        classes = {}
        for e in g.edges:
            classes.setdefault(col_of[e], []).append(e)
        assert sorted(classes) == list(range(k))
        for edges in classes.values():
            reached = set(edges[0])
            grew = True
            while grew:
                grew = False
                for e in edges:
                    if reached.intersection(e) and not reached.issuperset(e):
                        reached.update(e)
                        grew = True
            assert all(reached.issuperset(e) for e in edges), edges
            joined += len(edges) > 1
    assert joined > 500, joined
