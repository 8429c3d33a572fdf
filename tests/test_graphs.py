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
edges.  The uncontracted integer system, `cycle_rows` under the identity
edge-to-column map, is the second reference (`identity_decomposing_space`,
`identity_oracle_verdict`); the contracted space must equal it exactly,
also on graphs with collinear 3-cycles, which must not be contracted.

Every reference kernel here, and the naive system's rank, is read off
the test-side elimination (`reference_linalg.reference_rank_and_kernel`),
not the library's, so the comparisons check `kernels.Echelon` rather
than repeat it.
"""

import random
from fractions import Fraction

import pytest

from minkdecomp import graphs, kernels
from minkdecomp.catalogue import catalogue_list
from minkdecomp.constructors import cube, cyclic, octahedron, simplex
from minkdecomp.errors import InvalidInputError
from minkdecomp.graphs import (
    DecomposingFunction,
    GeometricGraph,
    OracleResult,
    _bfs_forest,
    cycle_rows,
    decomposing_space,
    edge_key,
    homothety_residue,
    is_indecomposable_graph,
    oracle_verdict,
    skeleton,
    touches_every_facet,
    triangle_classes,
)
from minkdecomp.linalg import (
    Vec,
    as_int_coords,
    fraction_vec,
    zero_vec,
)
from minkdecomp.polytope import Polytope, minkowski_sum

from reference_linalg import (
    is_homothety,
    is_zero,
    reference_check,
    reference_from_images,
    reference_rank_and_kernel,
    solve_exact,
)


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


def dfs_tree(g, comp):
    """A depth-first spanning tree of one connected component, rooted at
    comp[0] as the library's BFS tree is: parent and depth maps, and the
    vertices in discovery order."""
    root = comp[0]
    parent, depth, order = {root: None}, {root: 0}, [root]
    stack = [root]
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
    reduced row echelon form, with the root's image fixed at 0, which
    does not depend on the tree."""
    d = g.dim
    total = 0
    basis = []
    zero_images = {v: zero_vec(d) for v in g.vertices}
    zero_scalars = {e: Fraction(0) for e in g.edges}
    for comp in g.components():
        parent, depth, order = dfs_tree(g, comp)
        comp_edges = [e for e in g.edges if e[0] in parent]
        tree_edges = {edge_key(v, parent[v]) for v in order[1:]}
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
            for a, b in path_steps(parent, depth, v, u):
                k = col_of[edge_key(a, b)]
                coeffs[k] = coeffs[k] + (g.vertices[b] - g.vertices[a])
            k = col_of[e]
            coeffs[k] = coeffs[k] + (g.vertices[v] - g.vertices[u])
            for j in range(d):
                rows.append([c[j] for c in coeffs])
        _, lam_basis = reference_rank_and_kernel(rows, len(comp_edges))
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


def identity_decomposing_space(g):
    """The uncontracted integer system: one column per edge
    (`cycle_rows` under the identity map), kernel read off by the test-side
    elimination (`reference_rank_and_kernel`) and images summed along the
    BFS tree."""
    d = g.dim
    ints, mult = as_int_coords(g.vertices.values())
    xs = dict(zip(g.vertices, ints))
    total = 0
    basis = []
    zero_images = {v: zero_vec(d) for v in g.vertices}
    zero_scalars = {e: Fraction(0) for e in g.edges}
    for tree in _bfs_forest(g):
        parent, order, comp_edges, _ = tree
        for j in range(d):
            images = dict(zero_images)
            for v in order:
                images[v] = Vec(int(k == j) for k in range(d))
            basis.append(DecomposingFunction(images, dict(zero_scalars)))
        total += d
        if not comp_edges:
            continue
        identity = {e: i for i, e in enumerate(comp_edges)}
        ncols = len(comp_edges)
        _, lam_basis = reference_rank_and_kernel(cycle_rows(xs, tree, identity, ncols), ncols)
        total += len(lam_basis)
        for lam in lam_basis:
            scalars = dict(zero_scalars)
            scalars.update(zip(comp_edges, lam))
            (lam_ints,), den = as_int_coords([lam])
            lam_of = dict(zip(comp_edges, lam_ints))
            sums = {order[0]: (0,) * d}
            for v in order[1:]:
                u = parent[v]
                s = lam_of[edge_key(u, v)]
                sums[v] = tuple(a + (xv - xu) * s for a, xv, xu in zip(sums[u], xs[v], xs[u]))
            images = dict(zero_images)
            for v, coords in sums.items():
                images[v] = fraction_vec(coords, den * mult)
            basis.append(DecomposingFunction(images, scalars))
    return total, basis


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
    ints, _ = as_int_coords(g.vertices.values())
    return triangle_classes(dict(zip(g.vertices, ints)), g.edges)[1]


def graph(points, edges):
    pts = {i: Vec(p) for i, p in enumerate(points)}
    return GeometricGraph(dim=len(points[0]), vertices=pts, edges=tuple(edges))


def naive_dimension(g):
    rows, ncols = decomposing_system_matrix(g)
    _, basis = reference_rank_and_kernel(rows, ncols)
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


def test_is_indecomposable_graph_builds_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the decomposing basis was built")

    monkeypatch.setattr(graphs, "decomposing_space", refuse)
    assert is_indecomposable_graph(TRIANGLE)
    assert not is_indecomposable_graph(SQUARE)


def test_is_indecomposable_graph_matches_the_space_on_catalogue_skeleta():
    for e in catalogue_list():
        g = skeleton(e.build())
        assert is_indecomposable_graph(g) == (decomposing_space(g)[0] == g.dim + 1), e.name


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
    rank, _ = reference_rank_and_kernel(rows, len(vids) * g.dim)
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


def test_non_decomposing_map_does_not_check():
    images = {0: Vec((0, 0)), 1: Vec((0, 1)), 2: Vec((1, 0))}
    with pytest.raises(InvalidInputError):
        reference_from_images(TRIANGLE, images)
    for s in (0, 1, Fraction(1, 2), -1):
        scalars = {e: Fraction(s) for e in TRIANGLE.edges}
        assert not DecomposingFunction(images, scalars).check(TRIANGLE)


def test_check_detects_wrong_scalars():
    images = {v: TRIANGLE.vertices[v] * 2 for v in TRIANGLE.vertices}
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
    images = {v: TRIANGLE.vertices[v] * Fraction(5, 2) + shift for v in TRIANGLE.vertices}
    f = reference_from_images(TRIANGLE, images)
    assert is_homothety(TRIANGLE, f)
    assert all(is_zero(img) for img in homothety_residue(TRIANGLE, f).images.values())

    # Collapse one side of the square: decomposing but not a homothety.
    g = SQUARE
    images = {0: Vec((0, 0)), 1: Vec((1, 0)), 2: Vec((1, 0)), 3: Vec((0, 0))}
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
        h = reference_from_images(g, images)
        res, ref = homothety_residue(g, h), reference_homothety_residue(g, h)
        assert res.images == ref.images
        assert res.edge_scalars == ref.edge_scalars


def test_homothety_residue_of_single_vertex_is_singular():
    g = GeometricGraph(dim=2, vertices={0: Vec((1, 2))}, edges=())
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


def test_skeleton_matches_a_graph_built_from_the_edges():
    for e in catalogue_list():
        p = e.build()
        g = skeleton(p)
        want = GeometricGraph(p.dim, dict(enumerate(p.vertices)), p.edges())
        assert g == want, e.name
        assert all(g.neighbors(v) == want.neighbors(v) for v in want.vertices), e.name
        assert g.int_coords() == want.int_coords(), e.name
        assert g.components() == want.components(), e.name


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
    g = graph(
        [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)],
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4)],
    )
    assert class_count(g) == 6
    assert assert_same_space(g) == naive_dimension(g) == 5


def _graph_with_collinear_triangles(rng, d):
    """Random integer points in R^d, some placed on lines through earlier
    pairs, and random edges plus the three edges of every such triple."""
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
    return graph(pts, sorted(edges))


def test_contracted_space_matches_identity_map_on_random_graphs_with_collinear_triangles():
    rng = random.Random(23)
    contracted = 0
    for trial in range(150):
        g = _graph_with_collinear_triangles(rng, 2 + trial % 3)
        dim = assert_same_space(g)
        assert dim == naive_dimension(g)
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


def _edge_graph(p):
    """p's edges as a hand-built graph, which `skeleton`'s checks skip."""
    return GeometricGraph(p.dim, dict(enumerate(p.vertices)), p.edges())


def test_skeleton_refuses_an_isolated_midpoint_as_disconnected():
    # cyclic(8,4) plus the midpoint of edge (0,1), listed in the six facets
    # through the edge and built without `validate`: the midpoint has no
    # edge, so it is a component of its own, which adds only translations.
    p = cyclic(8, 4)
    facets = tuple(f + (8,) if 0 in f and 1 in f else f for f in p.facets)
    q = Polytope(4, p.vertices + ((p.vertices[0] + p.vertices[1]) / 2,), facets)
    g = _edge_graph(q)
    assert len(g.components()) == 2
    assert decomposing_space(g)[0] == 5 + 4
    for build in (skeleton, oracle_verdict, basis_oracle_verdict):
        with pytest.raises(InvalidInputError, match="skeleton is disconnected: 2 components"):
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
    g = _edge_graph(p)
    assert len(g.components()) == 2
    assert decomposing_space(g)[0] == 3 + 3
    refusal = "skeleton is disconnected: 2 components"
    for decide in (skeleton, oracle_verdict, basis_oracle_verdict):
        with pytest.raises(InvalidInputError, match=refusal):
            decide(p)
    for mode in ("certificates-first", "oracle-only"):
        with pytest.raises(InvalidInputError, match=refusal):
            analyze(p, mode)
    slide = CertificateStep(
        "ShephardFacet", (0, (0, 1)), "polytope-decomposable", frozenset({0, 1}), frozenset(),
        "facet slides along its unique outside edges",
    )
    trace = CertificateTrace((slide,), "Decomposable", "facet 0 slides to a proper summand")
    assert replay_report(trace, p) == (False, f"replay error: {refusal}")
