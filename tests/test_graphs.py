"""Decomposing-function spaces on polytope edge graphs.

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
also on arbitrary graphs on points placed on lines through earlier
ones (`edge_polytope`).  Every polytope is checked when it is made, so
its skeleton has no collinear 3-cycle, and neither has any graph here.

Every graph the library reads is a polytope's skeleton, read off the
polytope itself.  Graphs that are not, such as the random subgraphs of
acceptance criterion 9b, get their dimension from the naive system
(`reference_linalg.naive_dimension`).

Every reference kernel here, and the naive system's rank, is read off
the test-side elimination (`reference_linalg.reference_rank_and_kernel`),
not the library's, so the comparisons check `kernels.Echelon` rather
than repeat it.
"""

import builtins
import math
import random
import re
from decimal import Decimal
from itertools import combinations
from fractions import Fraction

import pytest

from minkdecomp import graphs, kernels
from minkdecomp.catalogue import catalogue_entry, catalogue_list
from minkdecomp.constructors import cube, cyclic, octahedron, segment, simplex
from minkdecomp.errors import DegenerateInputError, InvalidInputError
from minkdecomp.fileio import polytope_from_dict
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
    is_homothety,
    naive_dimension,
    is_zero,
    reference_check,
    reference_cycle_rows,
    reference_from_images,
    reference_int_collinear,
    reference_rank_and_kernel,
    solve_exact,
    unchecked,
)
from test_certificates import _derived_stack_cases


def dfs_tree(p):
    """A depth-first spanning tree of p's skeleton, rooted at vertex 0
    as the library's BFS tree is: parent and depth maps, and the vertices
    in discovery order."""
    parent, depth, order = {0: None}, {0: 0}, [0]
    stack = [0]
    while stack:
        x = stack[-1]
        y = next((y for y in p.neighbors(x) if y not in parent), None)
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


def reference_decomposing_space(p):
    """The rational cycle-space construction: Vec rows cleared row by row,
    over the fundamental cycles of a depth-first tree (`dfs_tree`), so no
    tree walk is shared with the library.  The basis is the kernel's
    reduced row echelon form, with vertex 0's image fixed at 0, which
    does not depend on the tree."""
    d = p.dim
    pts = p.vertices
    edges = p.edges()
    vids = range(len(pts))
    basis = []
    for j in range(d):
        shift = Vec(int(k == j) for k in range(d))
        zero_scalars = {e: Fraction(0) for e in edges}
        basis.append(DecomposingFunction({v: shift for v in vids}, zero_scalars))
    parent, depth, order = dfs_tree(p)
    tree_edges = {edge_key(v, parent[v]) for v in order[1:]}
    col_of = {e: i for i, e in enumerate(edges)}
    rows = []
    for e in edges:
        if e in tree_edges:
            continue
        u, v = e
        coeffs = [zero_vec(d)] * len(edges)
        for a, b in path_steps(parent, depth, v, u):
            k = col_of[edge_key(a, b)]
            coeffs[k] = coeffs[k] + (pts[b] - pts[a])
        k = col_of[e]
        coeffs[k] = coeffs[k] + (pts[v] - pts[u])
        for j in range(d):
            rows.append([c[j] for c in coeffs])
    _, lam_basis = reference_rank_and_kernel(rows, len(edges))
    for lam in lam_basis:
        scalars = dict(zip(edges, lam))
        images = {0: zero_vec(d)}
        for v in order[1:]:
            u = parent[v]
            images[v] = images[u] + (pts[v] - pts[u]) * scalars[edge_key(u, v)]
        basis.append(DecomposingFunction({v: images[v] for v in vids}, scalars))
    return d + len(lam_basis), basis


def reference_homothety_residue(p, f):
    """Least-squares homothety fit by solving the rational normal equations."""
    d = p.dim
    pts = p.vertices
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
    for u, v in p.edges():
        diff_f = images[u] - images[v]
        diff_x = pts[u] - pts[v]
        j = next(i for i, c in enumerate(diff_x) if c)
        lam = diff_f[j] / diff_x[j]
        assert diff_f == diff_x * lam
        scalars[(u, v)] = lam
    return DecomposingFunction(images, scalars)


def reference_oracle_witness(p, basis):
    """The first nonzero homothety residue after the d translations."""
    for f in basis[p.dim:]:
        residue = reference_homothety_residue(p, f)
        if not all(is_zero(img) for img in residue.images.values()):
            return residue
    return None


def basis_oracle_verdict(p):
    """`oracle_verdict` read off the basis of `decomposing_space`: the
    homothety residue of the first basis element whose edge scalars are
    not all equal."""
    dim, basis = decomposing_space(p)
    if dim == p.dim + 1:
        return OracleResult("Indecomposable", dim, None)
    f = next(f for f in basis if len(set(f.edge_scalars.values())) > 1)
    return OracleResult("Decomposable", dim, homothety_residue(p, f))


def identity_kernel(p):
    """The rational kernel basis of Kallay's uncontracted system, one
    column per edge and one block per fundamental cycle of the BFS tree
    (`reference_cycle_rows` under the identity map), read off by the
    test-side elimination (`reference_rank_and_kernel`): one vector per
    free column, 1 there and 0 at the other free columns."""
    identity = {e: i for i, e in enumerate(p.edges())}
    ncols = len(identity)
    rows = reference_cycle_rows(p, identity, ncols)
    return reference_rank_and_kernel(rows, ncols)[1]


def identity_decomposing_space(p):
    """The uncontracted integer system (`identity_kernel`), with images
    summed along the BFS tree."""
    d = p.dim
    vids = range(len(p))
    xs, mult = p.int_coords()
    edges = p.edges()
    basis = []
    for j in range(d):
        shift = Vec(int(k == j) for k in range(d))
        zero_scalars = {e: Fraction(0) for e in edges}
        basis.append(DecomposingFunction({v: shift for v in vids}, zero_scalars))
    parent, order = skeleton(p)
    lam_basis = identity_kernel(p)
    for lam in lam_basis:
        (lam_ints,), den = as_int_coords([lam])
        lam_of = dict(zip(edges, lam_ints))
        sums = {0: (0,) * d}
        for v in order[1:]:
            u = parent[v]
            s = lam_of[edge_key(u, v)]
            sums[v] = tuple(a + (xv - xu) * s for a, xv, xu in zip(sums[u], xs[v], xs[u]))
        images = {v: fraction_vec(sums[v], den * mult) for v in vids}
        basis.append(DecomposingFunction(images, dict(zip(edges, lam))))
    return d + len(lam_basis), basis


def identity_oracle_verdict(p):
    """`oracle_verdict` over the uncontracted system."""
    dim, basis = identity_decomposing_space(p)
    if dim == p.dim + 1:
        return OracleResult("Indecomposable", dim, None)
    f = next(f for f in basis if len(set(f.edge_scalars.values())) > 1)
    return OracleResult("Decomposable", dim, homothety_residue(p, f))


def assert_same_space(p):
    dim, basis = decomposing_space(p)
    ref_dim, ref_basis = identity_decomposing_space(p)
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


def class_count(p):
    return triangle_classes(p)[1]


def edge_polytope(points, edges):
    """A polytope object built with no check (`unchecked`) whose
    skeleton has exactly the given edges, on distinct points: each edge
    is listed d - 1 times as a facet, so its two endpoints share d - 1
    facets that meet in just them, and no other pair shares a facet.

    The engine contracts every 3-cycle, as three vertices of a polytope
    are never collinear, so no 3-cycle of the edges may be collinear
    (`reference_int_collinear`)."""
    d = len(points[0])
    edge_set = set(edges)
    assert len(set(points)) == len(points)
    assert not any(
        reference_int_collinear(points[u], points[v], points[w])
        for u, v in edges for w in range(v + 1, len(points))
        if (u, w) in edge_set and (v, w) in edge_set
    ), "a collinear 3-cycle"
    return unchecked(d, points, tuple(e for e in edges for _ in range(d - 1)))


TRIANGLE = simplex(2)
SQUARE = cube(2)


def test_single_edge_dimension():
    p = segment(0, 1)
    dim, basis = decomposing_space(p)
    assert dim == 2 == len(basis)
    assert naive_dimension(p.vertices, p.edges()) == 2


def test_triangle_is_rigid():
    dim, basis = decomposing_space(TRIANGLE)
    assert dim == 3
    assert naive_dimension(TRIANGLE.vertices, TRIANGLE.edges()) == 3
    assert oracle_verdict(simplex(2)).verdict == "Indecomposable"


def test_square_cycle_is_flexible():
    dim, _ = decomposing_space(SQUARE)
    assert dim == 4
    assert naive_dimension(SQUARE.vertices, SQUARE.edges()) == 4
    assert oracle_verdict(cube(2)).verdict == "Decomposable"


def test_oracle_builds_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the decomposing basis was built")

    monkeypatch.setattr(graphs, "decomposing_space", refuse)
    assert oracle_verdict(simplex(2)).verdict == "Indecomposable"
    res = oracle_verdict(cube(2))
    assert res.verdict == "Decomposable" and res.witness.check(SQUARE)


def test_polytope_skeleta_dimensions():
    assert decomposing_space(octahedron())[0] == 4
    assert decomposing_space(cube(3))[0] == 6


@pytest.mark.parametrize(
    "p",
    [simplex(2), simplex(3), simplex(4), cube(2), cube(3), octahedron()],
    ids=["simplex2", "simplex3", "simplex4", "cube2", "cube3", "octahedron"],
)
def test_cycle_route_matches_naive_system(p):
    dim, basis = decomposing_space(p)
    assert naive_dimension(p.vertices, p.edges()) == dim
    for f in basis:
        assert f.check(p)


def test_basis_is_independent():
    p = cube(3)
    dim, basis = decomposing_space(p)
    vids = range(len(p))
    rows = [[c for v in vids for c in f.images[v]] for f in basis]
    rank, _ = reference_rank_and_kernel(rows, len(vids) * p.dim)
    assert rank == dim


# A single point, built with no check: its skeleton has one vertex and no
# edge.
POINT = unchecked(2, [(1, 2)], ())


def test_edgeless_graph_rejected():
    """A single point is no polytope: it is refused when it is made, in
    code and from a file, so every polytope the engine sees has an edge."""
    refusal = "^vertex set does not affinely span the ambient dimension$"
    with pytest.raises(DegenerateInputError, match=refusal):
        Polytope(2, POINT.vertices, ())
    document = {"format_version": "1", "dimension": 2, "vertices": [[1, 2]], "facets": []}
    with pytest.raises(DegenerateInputError, match=refusal):
        polytope_from_dict(document)
    assert all(p.edges() for p in (segment(0, 1), simplex(2), cube(3)))


def test_non_decomposing_map_does_not_check():
    images = {0: Vec((0, 0)), 1: Vec((0, 1)), 2: Vec((1, 0))}
    with pytest.raises(InvalidInputError):
        reference_from_images(TRIANGLE, images)
    for s in (0, 1, Fraction(1, 2), -1):
        scalars = {e: Fraction(s) for e in TRIANGLE.edges()}
        assert not DecomposingFunction(images, scalars).check(TRIANGLE)


def test_check_detects_wrong_scalars():
    images = dict(enumerate(v * 2 for v in TRIANGLE.vertices))
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
    w = analyze(p).witness
    assert w.check(p)
    missing = dict(w.images)
    del missing[0]
    longer = dict(w.images)
    longer[3] = Vec(tuple(longer[3]) + (1,))
    every_longer = {v: Vec(tuple(img) + (1,)) for v, img in w.images.items()}
    for images in (missing, longer, every_longer):
        assert not DecomposingFunction(images, w.edge_scalars).check(p)
        with pytest.raises(InvalidInputError):
            reference_from_images(p, images)


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
        for label, images, scalars in _tampered(r.witness, rng):
            f = DecomposingFunction(images, scalars)
            want = reference_check(f, p)
            assert f.check(p) == want, (e.name, label)
            if label == "as handed out":
                assert want, e.name
            refused += not want
    # 20 slide witnesses in the catalogue when this was written.
    assert witnesses >= 20
    assert refused >= 8 * witnesses


def _retyped(scalars):
    """A witness's scalars given as other Python values: (label, scalars,
    whether the values are numbers).  Float, complex and `Decimal` are
    exact only where the scalar is; the rest are no scalar at all, on one
    edge or on all of them."""
    first = min(scalars)

    def each(convert):
        return {e: convert(s) for e, s in scalars.items()}

    def one(value):
        return {**scalars, first: value}

    yield "as float", each(float), True
    yield "as complex(x, 0)", each(lambda s: complex(float(s), 0)), True
    yield "as Decimal", each(lambda s: Decimal(s.numerator) / Decimal(s.denominator)), True
    yield "1 as True", each(lambda s: True if s == 1 else s), True
    yield "one NaN", one(math.nan), False
    yield "one +inf", one(math.inf), False
    yield "one None", one(None), False
    yield "one str", one(str(scalars[first])), False
    yield "all NaN", each(lambda s: math.nan), False
    yield "all +inf", each(lambda s: math.inf), False
    yield "all None", each(lambda s: None), False
    yield "all str", each(str), False


def test_check_compares_scalars_of_any_type_as_given():
    """`check` on functions built from a dict, over every slide witness
    of the catalogue and the oracle witness of sum-25-edges, with the
    scalars retyped (`_retyped`): the answer is that of comparing the
    freshly derived `Fraction` scalars with the dict as given, which is
    exact for float, complex and `Decimal` values and never holds for
    NaN, infinity, None or a string, even one `Fraction` would parse.
    Numbers read back equal to the values given."""
    from minkdecomp.certificates import analyze

    cases = []
    for e in catalogue_list():
        p = e.build()
        r = analyze(p)
        if r.trace is not None and "ShephardFacet" in [s.rule for s in r.trace.steps]:
            cases.append((e.name, p, r.witness))
    p = catalogue_entry("sum-25-edges").build()
    cases.append(("sum-25-edges oracle", p, oracle_verdict(p).witness))
    names = [name for name, _, _ in cases]
    assert "wedge-4" in names
    inexact = 0
    for name, p, w in cases:
        images = w.images
        derived = reference_from_images(p, images).edge_scalars
        assert derived == w.edge_scalars, name
        exact = all(float(s) == s for s in derived.values())
        inexact += not exact
        for label, scalars, numbers in _retyped(w.edge_scalars):
            f = DecomposingFunction(images, scalars)
            want = derived == scalars
            assert f.check(p) == want, (name, label)
            if numbers:
                assert f.images == images, (name, label)
                assert f.edge_scalars == scalars, (name, label)
            else:
                assert not want, (name, label)
            if label in ("as float", "as complex(x, 0)"):
                assert want == exact, (name, label)
    # wedge-4's 1/3 and the oracle witness of sum-25-edges at least.
    assert inexact >= 2


@pytest.mark.parametrize("value", [None, "1", math.nan, math.inf])
def test_check_refuses_a_value_that_is_no_scalar_beyond_float_range(value):
    """A scalar that is no number fails `check` with an answer, also on
    coordinates no float can hold, and exact scalars there still check."""
    big = 10**400
    p = Polytope.from_vertices(2, [(0, 0), (big, 0), (0, big)])
    images = dict(enumerate(p.vertices))
    assert DecomposingFunction(images, dict.fromkeys(p.edges(), 1)).check(p)
    first = {**dict.fromkeys(p.edges(), 1), p.edges()[0]: value}
    assert not DecomposingFunction(images, first).check(p)
    assert not DecomposingFunction(images, dict.fromkeys(p.edges(), value)).check(p)


def test_homothety_detection():
    shift = Vec((3, -2))
    images = dict(enumerate(v * Fraction(5, 2) + shift for v in TRIANGLE.vertices))
    f = reference_from_images(TRIANGLE, images)
    assert is_homothety(TRIANGLE, f)
    assert all(is_zero(img) for img in homothety_residue(TRIANGLE, f).images.values())

    # Collapse the square's vertical edges: decomposing but not a homothety.
    images = {0: Vec((0, 0)), 1: Vec((1, 0)), 2: Vec((0, 0)), 3: Vec((1, 0))}
    w = reference_from_images(SQUARE, images)
    assert not is_homothety(SQUARE, w)


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
    assert res.witness is not None
    assert res.witness.check(p)
    assert not is_homothety(p, res.witness)


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
    dim, basis = decomposing_space(p)
    ref_dim, ref_basis = reference_decomposing_space(p)
    assert dim == ref_dim
    assert [f.edge_scalars for f in basis] == [f.edge_scalars for f in ref_basis]
    assert [f.images for f in basis] == [f.images for f in ref_basis]
    res = oracle_verdict(p)
    ref_witness = None if dim == p.dim + 1 else reference_oracle_witness(p, ref_basis)
    assert res.verdict == ("Indecomposable" if ref_witness is None else "Decomposable")
    if ref_witness is not None:
        assert res.witness.images == ref_witness.images
        assert res.witness.edge_scalars == ref_witness.edge_scalars
        assert res.witness.check(p)
    assert_same_space(p)
    assert_same_oracle(p)


@pytest.mark.parametrize("name,p", CATALOGUE_IMAGES[::5], ids=[n for n, _ in CATALOGUE_IMAGES[::5]])
def test_equal_scalars_decide_homothety_on_catalogue_skeleta(name, p):
    # `_equal_ratios` decides it over the integer ratios `_edge_ratios`
    # verifies, as the facet slide and `analyze` read them.
    xs, _ = p.int_coords()
    _, basis = decomposing_space(p)
    for f in basis:
        homothety = is_homothety(p, f)
        assert (len(set(f.edge_scalars.values())) == 1) == homothety
        fs, _ = as_int_coords(f.images[v] for v in range(len(xs)))
        assert graphs._equal_ratios(graphs._edge_ratios(p.edges(), xs, fs)) == homothety


def test_homothety_residue_matches_reference_on_fractional_images():
    rng = random.Random(11)
    p = _image(cube(3), rng, Fraction(7, 4))
    _, basis = decomposing_space(p)
    for f in basis:
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        images = {v: img * scale + Vec((Fraction(1, 3), 2, -1)) for v, img in f.images.items()}
        h = reference_from_images(p, images)
        res, ref = homothety_residue(p, h), reference_homothety_residue(p, h)
        assert res.images == ref.images
        assert res.edge_scalars == ref.edge_scalars


def test_homothety_residue_reads_a_slide_in_integers(monkeypatch):
    """Every element of `decomposing_space` holds its integer slide, and
    the residue reads the slide's images and denominator as they are: it
    makes no `Fraction`, and its result is the one the `Fraction` images,
    cleared, give."""
    p = cube(3)
    _, basis = decomposing_space(p)
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    residues = [homothety_residue(p, f) for f in basis]
    assert made == []
    monkeypatch.undo()
    assert len(residues) == 6
    for f, res in zip(basis, residues):
        cleared = DecomposingFunction(f.images, f.edge_scalars)
        assert res == homothety_residue(p, cleared) == reference_homothety_residue(p, f)


def test_homothety_residue_of_single_vertex_is_singular():
    f = DecomposingFunction({0: Vec((0, 0))}, {})
    with pytest.raises(ValueError):
        homothety_residue(POINT, f)


# ---------------------------------------------------------------------------
# Triangle contraction


@pytest.mark.parametrize("n,d", [(n, 4) for n in range(5, 15)] + [(n, 6) for n in range(7, 13)])
def test_contracted_space_matches_identity_map_on_cyclic_polytopes(n, d):
    p = cyclic(n, d)
    assert assert_same_space(p) == d + 1
    assert_same_oracle(p)


@pytest.mark.parametrize(
    "name,edges,classes",
    [("delta-3-4", 70, 9), ("sum-25-edges", 25, 7), ("wedge-6", 51, 14)],
)
def test_class_counts_on_catalogue_skeleta(name, edges, classes):
    p = catalogue_entry(name).build()
    assert (len(p.edges()), class_count(p)) == (edges, classes)


def test_complete_skeleton_of_cyclic_24_6_is_one_class():
    p = cyclic(24, 6)
    assert (len(p.edges()), class_count(p)) == (276, 1)
    assert decomposing_space(p)[0] == 7


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


def test_skeleton_is_a_bfs_tree_cached_on_the_polytope():
    """`skeleton` returns one BFS tree from vertex 0, the same object on
    every call: its parent map and its order, which reaches every vertex
    once, each after its parent, through one of the polytope's edges."""
    for e in catalogue_list():
        p = e.build()
        tree = parent, order = skeleton(p)
        assert skeleton(p) is tree, e.name
        assert order[0] == 0 and parent[0] is None, e.name
        assert sorted(order) == list(range(len(p))) == sorted(parent), e.name
        position = {v: k for k, v in enumerate(order)}
        for v in order[1:]:
            assert position[parent[v]] < position[v], e.name
            assert edge_key(parent[v], v) in p.edges(), e.name


def test_skeleton_neighbors_of_a_non_vertex_are_none():
    # Replay passes recorded ids: -1 must not read as the last vertex.
    n = len(SQUARE)
    assert SQUARE.neighbors(-1) == SQUARE.neighbors(n) == SQUARE.neighbors(n + 5) == ()
    assert SQUARE.neighbors(n - 1) == (1, 2)


def test_a_polytope_without_vertices_is_refused_at_construction():
    with pytest.raises(InvalidInputError, match="^empty vertex set$"):
        Polytope(2, (), ())


def test_repeated_coordinates_are_refused_at_construction():
    # Vertex 3 repeats vertex 0, and the facet list would make (0,3) an
    # edge with coincident ends.
    pts = [(0, 0), (1, 0), (0, 1), (0, 0)]
    facets = ((0, 1), (1, 2), (2, 3), (0, 3))
    with pytest.raises(InvalidInputError, match="^duplicate vertices$"):
        Polytope(2, pts, facets)


def test_collinear_points_are_refused_at_construction():
    """The engine contracts every 3-cycle of a skeleton, which is sound
    because three vertices of a polytope are never collinear.  A point
    between two others is no vertex, so a facet list that would close a
    collinear 3-cycle through it is refused when the polytope is made."""
    # 0, 1, 2 lie on a line, and (0,1), (1,2), (0,2) would be edges.
    pts = [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)]
    facets = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4))
    with pytest.raises(
        InvalidInputError,
        match="^" + re.escape("not vertices of the convex hull of the input: point 1 (1, 0)") + "$",
    ):
        Polytope(2, pts, facets)


def test_collinear_polygon_is_refused_at_construction():
    """Three points on a line given as a triangle span no polygon: they
    are refused when the polytope is made, in code and from a file
    alike, so no skeleton holds their collinear 3-cycle."""
    line = [(0, 0), (1, 0), (2, 0)]
    triangle = ((0, 1), (0, 2), (1, 2))
    refusal = "^vertex set does not affinely span the ambient dimension$"
    with pytest.raises(DegenerateInputError, match=refusal):
        Polytope(2, line, triangle)
    document = {
        "format_version": "1", "dimension": 2,
        "vertices": [list(x) for x in line], "facets": [list(f) for f in triangle],
    }
    with pytest.raises(DegenerateInputError, match=refusal):
        polytope_from_dict(document)


def _graph_on_collinear_points(rng, d):
    """A polytope object whose skeleton is a random connected graph on
    integer points in R^d (`edge_polytope`), some points placed on lines through earlier pairs:
    random edges plus the two edges from every such point to its pair,
    two parallel edges at one vertex.  An edge that would close a
    collinear 3-cycle is left out, and a disconnected draw is drawn
    again."""
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
            edges |= {edge_key(i, k), edge_key(j, k)}
        else:
            x = tuple(rng.randint(-3, 3) for _ in range(d))
            if x not in pts:
                pts.append(x)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                edges.add((u, v))
    for u, v, w in combinations(range(n), 3):
        if {(u, v), (u, w), (v, w)} <= edges and reference_int_collinear(pts[u], pts[v], pts[w]):
            # Leave out the edge that passes through the third point.
            edges.discard(max((u, v), (u, w), (v, w), key=lambda e: _length2(pts, e)))
    try:
        p = edge_polytope(pts, sorted(edges))
        skeleton(p)
        return p
    except InvalidInputError:
        return _graph_on_collinear_points(rng, d)


def _length2(pts, edge):
    u, v = edge
    return sum((a - b) ** 2 for a, b in zip(pts[u], pts[v]))


def test_contracted_space_matches_identity_map_on_random_graphs_on_collinear_points():
    rng = random.Random(23)
    contracted = 0
    for trial in range(150):
        p = _graph_on_collinear_points(rng, 2 + trial % 3)
        dim = assert_same_space(p)
        assert dim == naive_dimension(p.vertices, p.edges())
        contracted += class_count(p) < len(p.edges())
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
    # through the edge: the midpoint has no edge, so it is a component of
    # its own, which adds only translations to the naive system's space.
    # The midpoint is no vertex, so `Polytope(...)` refuses it; built with
    # no check, the skeleton refuses it.
    p = cyclic(8, 4)
    facets = tuple(f + (8,) if 0 in f and 1 in f else f for f in p.facets)
    points = p.vertices + ((p.vertices[0] + p.vertices[1]) / 2,)
    stray = "not vertices of the convex hull of the input: point 8 (3/2, 5/2, 9/2, 17/2)"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(stray)}$"):
        Polytope(4, points, facets)
    q = unchecked(4, points, facets)
    assert all(8 not in e for e in q.edges())
    assert naive_dimension(q.vertices, q.edges()) == 5 + 4
    refusal = "skeleton is disconnected: vertex 8 is not reached from vertex 0"
    for build in (skeleton, oracle_verdict, basis_oracle_verdict):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(refusal)}$"):
            build(q)


def test_skeleton_analyze_and_replay_refuse_two_disjoint_triangles():
    # Two triangles given as the "facets" of one polygon.  A homothety
    # test by equal edge scalars holds only on a connected graph, so
    # neither the oracle nor a facet slide may decide it: facet 0 would
    # slide to a "proper summand".  Point 3 is inside the hull, so
    # `Polytope(...)` refuses it; built with no check, the skeleton, and
    # with it `analyze` and `replay`, refuse it.
    from minkdecomp.certificates import CertificateStep, CertificateTrace, analyze, replay_report

    pts = [(0, 0), (2, 0), (0, 2), (5, 5), (7, 5), (Fraction(11, 2), 8)]
    facets = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
    stray = "not vertices of the convex hull of the input: point 3 (5, 5)"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(stray)}$"):
        Polytope(2, pts, facets)
    p = unchecked(2, pts, facets)
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
        cols, kernel = graphs._cycle_kernel(p)
        col_of, k = triangle_classes(p)
        assert cols == [col_of[e] for e in p.edges()], name
        if k == 1:
            assert kernel == [[1]], name
            continue
        every = reference_cycle_rows(p, col_of, k)
        distinct = cycle_rows(p, col_of, k)
        assert all(distinct) and len(set(map(tuple, distinct))) == len(distinct), name
        assert len(distinct) <= p.dim * incidence_blocks(p.edges(), col_of, len(p), k), name
        assert kernel == int_kernel_basis(every, k)[1], name
        systems += 1
        repeats += len(distinct) < len(every)
    assert systems > 100 and repeats > 50, (systems, repeats)


@pytest.mark.parametrize("mode", ["certificates-first", "oracle-only"])
def test_analyze_walks_each_skeleton_once(monkeypatch, mode):
    """The connectivity check's BFS tree is cached on the polytope and is
    the one the oracle's cycle system is built over: over `analyze`, the
    replay of its trace, `decomposing_space` and `oracle_verdict` on one
    polytope, its tree is walked once, over its own cached adjacency, and
    so is that of every other polytope they decide: the facets a pyramid
    reduction decides, and the reduced polytopes and facets replay
    re-derives."""
    from minkdecomp.certificates import analyze, replay

    walks = []
    walk = graphs._bfs_tree
    monkeypatch.setattr(graphs, "_bfs_tree", lambda adj: walks.append(adj) or walk(adj))
    analyses = 0
    for e in catalogue_list():
        q = e.build()
        for p in (q, stack_pyramid(q, 0)) if q.dim in (3, 4) else (q,):
            before = len(walks)
            r = analyze(p, mode)
            assert r.trace is None or replay(r.trace, p), e.name
            decomposing_space(p)
            oracle_verdict(p)
            analyses += 1
            own = [adj for adj in walks[before:] if adj is p._adjacency()]
            assert len(own) == 1, e.name
    # The walks hold their adjacencies alive, so distinct ids are
    # distinct polytopes: no polytope's tree is walked twice.
    assert len({id(adj) for adj in walks}) == len(walks)
    if mode == "certificates-first":
        assert len(walks) > analyses


def test_delta_3_4_cycle_system_drops_repeated_rows(monkeypatch):
    """Kallay's system on delta(3,4) has 7 * (70 - 20 + 1) = 357 rows;
    the incidence system over its 9 triangle classes builds 84, every one
    tested for zero once (counted through the module's `any`), and keeps
    its 7 distinct nonzero rows, with the kernel of every row of the old
    builder."""
    p = catalogue_entry("delta-3-4").build()
    n = len(p)
    col_of, k = triangle_classes(p)
    assert k == 9
    assert p.dim * (len(p.edges()) - n + 1) == 357
    built = []
    monkeypatch.setattr(
        graphs, "any", lambda row: built.append(row) or builtins.any(row), raising=False
    )
    distinct = cycle_rows(p, col_of, k)
    monkeypatch.undo()
    assert len(built) == p.dim * incidence_blocks(p.edges(), col_of, n, k) <= 84
    assert len(distinct) == 7 == len(set(map(tuple, distinct)))
    every = reference_cycle_rows(p, col_of, k)
    assert len(distinct) < len({tuple(r) for r in every}) < len(every)
    assert int_kernel_basis(distinct, k)[1] == int_kernel_basis(every, k)[1]


def test_cycle_kernel_matches_the_uncontracted_reference_system():
    """`_cycle_kernel`, expanded to the edges (`_edge_rows`), is the
    kernel basis of Kallay's uncontracted system (`identity_kernel`), on
    the catalogue, on its and seeded polytopes' stackings and truncations
    (`_derived_stack_cases`)."""
    flexible = 0
    for name, p in _derived_stack_cases():
        cols, kernel = graphs._cycle_kernel(p)
        got = [fraction_vec(lam, den) for lam, den in graphs._edge_rows(cols, kernel)]
        assert got == identity_kernel(p), name
        flexible += len(kernel) > 1
    assert flexible > 100, flexible


def test_triangle_classes_are_connected_edge_sets():
    """`cycle_rows` moves each class rigidly, which holds because each
    class is a connected set of edges: the triangles it joins share
    edges.  Checked on `_derived_stack_cases` and on random graphs on
    collinear points (`_graph_on_collinear_points`)."""
    rng = random.Random(29)
    polytopes = [p for _, p in _derived_stack_cases()]
    polytopes += [_graph_on_collinear_points(rng, 2 + t % 3) for t in range(60)]
    joined = 0
    for p in polytopes:
        col_of, k = triangle_classes(p)
        classes = {}
        for e in p.edges():
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
