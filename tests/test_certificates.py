"""Certificate rules, the analysis pipeline, and trace replay."""

import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from minkdecomp import certificates, graphs, hull, kernels, linalg
from minkdecomp.catalogue import catalogue_entry, catalogue_list
from minkdecomp.certificates import (
    CertificateStep,
    CertificateTrace,
    analyze,
    assemble_trace,
    cycle_gluing,
    edge_replacement,
    independent_cycle,
    pyramid_apex,
    pyramid_reduction,
    replay,
    replay_report,
    seed_edge,
    shephard_facet,
    simple_extension,
    simple_extension_closure,
    two_graph_cover,
    union_shared_pair,
)
from minkdecomp.counts import count_rules
from minkdecomp.constructors import (
    bd182,
    bd198,
    bipyramid3,
    capped_prism,
    cube,
    cyclic,
    delta,
    octahedron,
    simplex,
    wedge,
)
from minkdecomp.errors import (
    DegenerateInputError,
    EngineInconsistencyError,
    InvalidInputError,
    RuleNotApplicableError,
)
from minkdecomp.graphs import (
    DecomposingFunction,
    GeometricGraph,
    edge_key,
    skeleton,
    touches_every_facet,
)
from minkdecomp.linalg import Vec, int_hyperplane, int_side
from minkdecomp.fileio import dumps, loads
from minkdecomp.polytope import (
    Polytope,
    minkowski_sum,
    prism_over,
    pyramid_over,
    stack_pyramid,
    truncate_vertex,
)

from reference_linalg import (
    graph_vertices,
    is_homothety,
    reference_independent_cycles,
    reference_check,
    reference_from_images,
    reference_int_plane,
    reference_lift_witness,
    reference_plane,
    reference_replay,
    reference_shephard_facet,
    translate,
    unchecked,
)


OCTA = octahedron()
OCTA_SKEL = skeleton(OCTA)


# ---------------------------------------------------------------------------
# Graph rules


def test_seed_edge():
    cg = seed_edge(OCTA_SKEL, 0, 1)
    assert cg.vertices == frozenset({0, 1})
    assert cg.edges == frozenset({(0, 1)})
    with pytest.raises(RuleNotApplicableError):
        seed_edge(OCTA_SKEL, 0, 3)  # antipodal pair, no edge


def test_simple_extension_growth_and_guards():
    base = seed_edge(OCTA_SKEL, 0, 1)
    cg = simple_extension(OCTA_SKEL, base, 2)
    assert cg.vertices == frozenset({0, 1, 2})
    assert (0, 2) in cg.edges and (1, 2) in cg.edges
    with pytest.raises(RuleNotApplicableError):
        simple_extension(OCTA_SKEL, cg, 2)  # already covered
    with pytest.raises(RuleNotApplicableError):
        simple_extension(OCTA_SKEL, base, 3)  # 3 is adjacent to neither 0 nor 1
    with pytest.raises(RuleNotApplicableError):
        simple_extension(OCTA_SKEL, cg, 4, witnesses=(0, 0))


def test_collinear_triple_is_refused_at_construction():
    """`simple_extension` pins a new vertex by two covered neighbours,
    which holds because three vertices of a polytope are never
    collinear.  The graph that would break it, (1, 0) on the seed edge
    from (0, 0) to (2, 0), is refused when the polytope is made: (1, 0)
    is no vertex.  On the polytope without it, the extension covers
    (1, 1)."""
    vertices = [(0, 0), (2, 0), (1, 0), (1, 1)]
    facets = ((0, 2), (1, 2), (0, 3), (1, 3))
    stray = "not vertices of the convex hull of the input: point 2 (1, 0)"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(stray)}$"):
        Polytope(2, vertices, facets)
    g = skeleton(Polytope(2, [(0, 0), (2, 0), (1, 1)], ((0, 1), (0, 2), (1, 2))))
    cg = simple_extension(g, seed_edge(g, 0, 1), 2)
    assert 2 in cg.vertices


def test_simple_extension_closure_covers_octahedron():
    cg = simple_extension_closure(OCTA_SKEL, (0, 1))
    assert cg.vertices == frozenset(range(6))
    assert touches_every_facet(cg.vertices, OCTA)


def test_union_shared_pair_needs_two_shared():
    t1 = independent_cycle(OCTA_SKEL, (0, 1, 2))
    t2 = independent_cycle(OCTA_SKEL, (0, 1, 5))
    u = union_shared_pair(t1, t2)
    assert u.vertices == frozenset({0, 1, 2, 5})
    t3 = independent_cycle(OCTA_SKEL, (2, 3, 4))
    with pytest.raises(RuleNotApplicableError):
        union_shared_pair(t1, t3)  # only vertex 2 shared


def test_edge_replacement():
    t1 = independent_cycle(OCTA_SKEL, (0, 1, 2))
    t2 = independent_cycle(OCTA_SKEL, (1, 2, 3))
    out = edge_replacement(t1, (1, 2), t2)
    assert (1, 2) in out.edges  # removed from t1 but restored by t2's cycle
    assert out.vertices == frozenset({0, 1, 2, 3})
    with pytest.raises(RuleNotApplicableError):
        edge_replacement(t1, (0, 3), t2)  # not an edge of t1
    t4 = independent_cycle(OCTA_SKEL, (3, 4, 5))
    with pytest.raises(RuleNotApplicableError):
        edge_replacement(t1, (0, 1), t4)  # replacement misses both endpoints


def test_independent_cycle_guards():
    with pytest.raises(RuleNotApplicableError):
        independent_cycle(OCTA_SKEL, (0, 1))
    with pytest.raises(RuleNotApplicableError):
        independent_cycle(OCTA_SKEL, (0, 1, 1))
    with pytest.raises(RuleNotApplicableError):
        independent_cycle(OCTA_SKEL, (0, 1, 3, 4))  # 4 points, rank 2: coplanar


def test_cycle_gluing():
    t1 = independent_cycle(OCTA_SKEL, (0, 1, 2))
    t2 = independent_cycle(OCTA_SKEL, (1, 2, 3))
    assert cycle_gluing(OCTA_SKEL, (t1, t2), (1, 2)).vertices == frozenset(
        {0, 1, 2, 3}
    )
    t3 = independent_cycle(OCTA_SKEL, (2, 3, 4))
    t4 = independent_cycle(OCTA_SKEL, (0, 2, 4))
    # vs[i] joins gs[i] to gs[i-1]: 0 in t1 and t4, 2 in t3 and t1, 4 in t4 and t3.
    glued = cycle_gluing(OCTA_SKEL, (t1, t3, t4), (0, 2, 4))
    assert glued.vertices == frozenset({0, 1, 2, 3, 4})
    with pytest.raises(RuleNotApplicableError):
        cycle_gluing(OCTA_SKEL, (t1, t3), (0,))
    with pytest.raises(RuleNotApplicableError):
        cycle_gluing(OCTA_SKEL, (t1, t3, t4), (5, 4, 0))  # 5 not in t1 or t3


def test_a_graph_rule_returns_its_step_and_takes_steps():
    """A graph step is the subgraph it certifies: each graph rule returns
    a `CertificateStep` whose vertex and edge sets are frozensets, and a
    rule built on certified graphs lists those very steps as inputs."""
    seed = seed_edge(OCTA_SKEL, 0, 1)
    grown = simple_extension(OCTA_SKEL, seed, 2)
    t1 = independent_cycle(OCTA_SKEL, (0, 1, 5))
    t2 = independent_cycle(OCTA_SKEL, (2, 3, 4))
    union = union_shared_pair(grown, t1)
    replaced = edge_replacement(t1, (0, 1), grown)
    closure = simple_extension_closure(OCTA_SKEL, (0, 1))
    glued = cycle_gluing(OCTA_SKEL, (grown, t1), (0, 1))
    cover = two_graph_cover(OCTA, union, t2).steps[-1]
    for step in (seed, grown, t1, union, replaced, closure, glued, cover):
        assert type(step) is CertificateStep, step
        assert type(step.vertices) is frozenset and type(step.edges) is frozenset, step
    assert grown.inputs[0] is seed
    assert union.inputs[0] is grown and union.inputs[1] is t1
    assert replaced.inputs[0] is t1 and replaced.inputs[2] is grown
    assert cover.inputs[0] is union and cover.inputs[1] is t2


# ---------------------------------------------------------------------------
# Polytope-level rules


def _cube_non_covering_steps():
    """Graph steps on cube(3) the coverage rule must refuse, with the
    refusal it gives: an extension closure that is a lone edge (no
    vertex of the cube has two neighbours on an edge), which misses the
    opposite facet; and a cycle on three vertices of one facet, which
    crosses the facet's diagonal and misses the opposite facet too, so
    the skeleton test, made first, refuses it."""
    p = cube(3)
    skel = skeleton(p)
    closure = simple_extension_closure(skel, skel.edges[0])
    assert len(closure.vertices) == 2
    cycle = independent_cycle(skel, p.facets[0][:3])
    assert not cycle.edges <= set(skel.edges)
    return p, [(closure, "certified graph misses a facet"),
               (cycle, "certified graph is not a skeleton subgraph")]


def test_coverage_rule_and_replay_refuse_a_non_covering_step_alike():
    """The coverage upgrade is one rule: the search closes with
    `_covered`, and replay re-applies it to the re-derived step, so both
    refuse a step recorded as closing the polytope with one message."""
    p, cases = _cube_non_covering_steps()
    for step, message in cases:
        with pytest.raises(RuleNotApplicableError) as refused:
            certificates._covered(p, skeleton(p), step, "touches every facet")
        assert str(refused.value) == message
        forged = assemble_trace(
            dataclasses.replace(step, conclusion="polytope-indecomposable"), "Indecomposable", ""
        )
        assert replay_report(forged, p) == (False, f"step_1 ({step.rule}): {message}")


def _covering_trace(p, step, why):
    """The trace that closes p by the coverage rule on a graph step."""
    return assemble_trace(certificates._covered(p, skeleton(p), step, why), "Indecomposable", why)


def test_independent_cycles_give_a_covering_cycle_that_replays():
    p = simplex(3)
    vs = next(vs for vs in certificates._independent_cycles(p, 4) if touches_every_facet(vs, p))
    trace = _covering_trace(p, independent_cycle(skeleton(p), vs), "cycle touches every facet")
    assert trace.verdict == "Indecomposable"
    assert trace.steps[-1].rule == "IndependentCycle"
    assert replay(trace, p)
    # Every 4-cycle of the 3-cube is a planar face, so nothing qualifies.
    assert list(certificates._independent_cycles(cube(3), 4)) == []


def test_independent_cycles_run_on_the_cached_integers(monkeypatch):
    p = delta(2, 3)
    calls = []
    real = linalg.as_int_coords

    def record(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(linalg, "as_int_coords", record)
    assert list(certificates._independent_cycles(p, p.dim + 1))
    assert not calls


def test_two_graph_cover_single_shared_vertex():
    c1 = union_shared_pair(
        independent_cycle(OCTA_SKEL, (0, 1, 2)),
        independent_cycle(OCTA_SKEL, (0, 1, 5)),
    )
    c2 = independent_cycle(OCTA_SKEL, (2, 3, 4))
    trace = two_graph_cover(OCTA, c1, c2)
    assert trace.verdict == "Indecomposable"
    assert trace.steps[-1].rule == "TwoGraphCover"
    assert replay(trace, OCTA)


def test_two_graph_cover_guards():
    t1 = independent_cycle(OCTA_SKEL, (0, 1, 2))
    t2 = independent_cycle(OCTA_SKEL, (3, 4, 5))
    with pytest.raises(RuleNotApplicableError):
        two_graph_cover(OCTA, t1, t2)  # no shared vertex
    t3 = independent_cycle(OCTA_SKEL, (0, 1, 5))
    with pytest.raises(RuleNotApplicableError):
        two_graph_cover(OCTA, t1, t3)  # misses {3,4}, more than d-2 = 1
    bad = independent_cycle(OCTA_SKEL, (0, 1, 3))  # (0,3) is not an edge
    with pytest.raises(RuleNotApplicableError):
        two_graph_cover(OCTA, bad, t1)


def _handed_out(p, slide):
    """The `Fraction` witness of an integer slide on p, as `analyze`
    hands it out."""
    return graphs._slide_witness(p.int_coords()[1], slide)


def test_shephard_facet_direct():
    out = shephard_facet(delta(1, 2))
    assert out is not None
    trace, slide = out
    assert trace.verdict == "Decomposable"
    g = skeleton(delta(1, 2))
    witness = _handed_out(delta(1, 2), slide)
    assert witness.check(g)
    assert not is_homothety(g, witness)
    assert shephard_facet(simplex(3)) is None
    assert shephard_facet(OCTA) is None


# The catalogue, cube(3..5), cyclic(n,4) for n = 6..14, a pyramid
# stacked on each of those, and the bench's segment sums.
SLIDE_SEARCH_CASES = {e.name: e.build for e in catalogue_list()}
for _name, _base in [(f"cube({d})", lambda d=d: cube(d)) for d in (3, 4, 5)] + [
    (f"cyclic({n},4)", lambda n=n: cyclic(n, 4)) for n in range(6, 15)
]:
    SLIDE_SEARCH_CASES[_name] = _base
    SLIDE_SEARCH_CASES[f"stack({_name})"] = lambda b=_base: stack_pyramid(b(), 0)
for _n in (6, 7, 8):
    SLIDE_SEARCH_CASES[f"cyclic-{_n}-4+segment"] = (
        lambda n=_n: minkowski_sum(cyclic(n, 4), SEGMENT)
    )


@pytest.mark.parametrize("name", sorted(SLIDE_SEARCH_CASES))
def test_degree_pretest_keeps_the_first_slide(name):
    """Skipping facets by vertex degree leaves the first facet that
    slides, its trace and its integer slide as trying every facet does."""
    p = SLIDE_SEARCH_CASES[name]()
    got, want = shephard_facet(p), reference_shephard_facet(p)
    if want is None:
        assert got is None
    else:
        # Steps compare by identity: compare the trace field by field.
        assert dataclasses.asdict(got[0]) == dataclasses.asdict(want[0])
        assert got[1] == want[1]


def test_degree_pretest_refuses_every_neighborly_facet(monkeypatch):
    p = cyclic(10, 4)
    calls = []
    rule = certificates._shephard_rule

    def counted(*args):
        calls.append(args[2])
        return rule(*args)

    monkeypatch.setattr(certificates, "_shephard_rule", counted)
    assert shephard_facet(p) is None
    assert calls == []
    assert reference_shephard_facet(p) is None
    assert calls == list(range(len(p.facets)))


def reference_shephard_witness(p, skel, fi):
    """The facet slide in `Vec` and `Fraction` arithmetic, its scalars
    derived by `reference_from_images` and its homothety test by
    the least-squares fit: the reference for `_shephard_slide` and
    `_slide_witness`."""
    members = p.facets[fi]
    fset = set(members)
    outside = [w for w in range(len(p.vertices)) if w not in fset]
    if len(outside) < 2:
        return None
    out_nbr = {}
    for v in members:
        others = [x for x in skel.neighbors(v) if x not in fset]
        if len(others) != 1:
            return None
        out_nbr[v] = others[0]
    a, b = reference_plane(p, members)
    alpha = max(a.dot(p.vertices[w]) for w in outside)
    images = {i: p.vertices[i] for i in range(len(p.vertices))}
    for v in members:
        w = out_nbr[v]
        t = (b - alpha) / (b - a.dot(p.vertices[w]))
        images[v] = p.vertices[v] + (p.vertices[w] - p.vertices[v]) * t
    witness = reference_from_images(skel, images)
    if is_homothety(skel, witness):
        raise EngineInconsistencyError("facet-slide witness degenerated to a homothety")
    return witness


def _relabelled_image(p, rng, scale):
    """Vertices of a relabelled copy of p, scaled by `scale` and shifted
    by an integer vector, and its facets renumbered."""
    n = len(p.vertices)
    perm = list(range(n))
    rng.shuffle(perm)
    new_of = [0] * n
    for new, old in enumerate(perm):
        new_of[old] = new
    shift = Vec(rng.randint(-9, 9) for _ in range(p.dim))
    vertices = tuple(p.vertices[old] * scale + shift for old in perm)
    facets = tuple(sorted(tuple(sorted(new_of[x] for x in f)) for f in p.facets))
    return vertices, facets


def _slide_cases():
    """The catalogue; seeded images of each entry, with the facets given
    (planes fitted by `Polytope._fit_plane`) and rebuilt from bare
    vertices (planes from the hull); prisms and stacked pyramids over the
    decomposable entries.  The prism over delta-3-4 (40 vertices in
    dimension 8) is left out: its hull exceeds the facet-scan guard."""
    rng = random.Random(8)
    for e in catalogue_list():
        p = e.build()
        yield e.name, p
        for scale in (Fraction(1, 2), Fraction(5, 3), Fraction(7, 4), Fraction(10**12)):
            vertices, facets = _relabelled_image(p, rng, scale)
            yield f"{e.name}*{scale}", Polytope(p.dim, vertices, facets)
            yield f"{e.name}*{scale} hull", Polytope.from_vertices(p.dim, vertices)
        if e.expected_status == "Decomposable":
            if e.name != "delta-3-4":
                yield f"prism over {e.name}", prism_over(p)
            yield f"{e.name} stacked", stack_pyramid(p, 0)


def test_integer_slide_matches_rational_reference():
    fired = 0
    for name, p in _slide_cases():
        skel = skeleton(p)
        for fi in range(len(p.facets)):
            slide = certificates._shephard_slide(p, skel, fi)
            want = reference_shephard_witness(p, skel, fi)
            if want is None:
                assert slide is None, (name, fi)
                continue
            fired += 1
            assert slide is not None, (name, fi)
            got = _handed_out(p, slide)
            assert list(got.images.items()) == list(want.images.items()), (name, fi)
            assert list(got.edge_scalars.items()) == list(want.edge_scalars.items()), (name, fi)
    # 1,325 slides over 355 polytopes when this was written.
    assert fired >= 1325


def test_slide_that_moves_nothing_is_refused():
    # Not a polytope, so built with no check: point 6 lies on the bottom
    # facet's plane but in no facet, so the bottom slides down by nothing
    # and the witness is the identity, a homothety.  Point 6 has no edge,
    # so `skeleton` refuses the graph as disconnected; the slide gets it
    # built by hand.
    vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1),
                (Fraction(1, 4), Fraction(1, 4), 0)]
    facets = ((0, 1, 2), (3, 4, 5), (0, 1, 3, 4), (1, 2, 4, 5), (0, 2, 3, 5))
    p = unchecked(3, vertices, facets)
    adjacency, edges = p._adjacency(), p.edges()
    skel = GeometricGraph(
        3, *p.int_coords(), edges, adjacency, graphs._bfs_tree(adjacency, edges)
    )
    for slide in (certificates._shephard_slide, reference_shephard_witness):
        with pytest.raises(EngineInconsistencyError, match="degenerated to a homothety"):
            slide(p, skel, 0)


@pytest.mark.parametrize("name", ["delta-3-4", "capped-prism", "bd198"])
def test_replaying_a_slide_builds_no_witness(name, monkeypatch):
    """Replay re-derives and re-verifies a ShephardFacet step in integers:
    it makes no `DecomposingFunction` and no `Fraction` image.  bd198's
    slide follows a pyramid reduction, so the witness `analyze` hands out
    for it is lifted."""
    p = catalogue_entry(name).build()
    r = analyze(p)
    assert r.trace.steps[-1].rule == "ShephardFacet" and r.witness is not None

    def refuse(*args, **kwargs):
        raise AssertionError("a witness was built")

    for module in (certificates, graphs):
        monkeypatch.setattr(module, "DecomposingFunction", refuse)
    monkeypatch.setattr(graphs, "fraction_vec", refuse)
    # The patch reaches the witness `analyze` hands out ...
    with pytest.raises(AssertionError, match="a witness was built"):
        analyze(catalogue_entry(name).build())
    # ... but not replay.
    assert replay_report(r.trace, p) == (True, "all steps check")
    assert replay_report(r.trace, catalogue_entry(name).build()) == (True, "all steps check")


def _lifted_cases():
    """Polytopes whose facet slide may be lifted through pyramid
    reductions: bd198 and a pyramid stacked on each facet of four small
    polytopes, then seeded repeated stackings over six bases."""
    yield "bd198", bd198()
    for name, base in [("capped-prism", capped_prism()), ("bd198", bd198()),
                       ("prism over simplex(3)", prism_over(simplex(3))),
                       ("delta(2,2)", delta(2, 2))]:
        for fi in range(len(base.facets)):
            yield f"{name} stacked on {fi}", stack_pyramid(base, fi)
    rng = random.Random(7)
    bases = [delta(1, 2), prism_over(simplex(3)), delta(2, 2), cube(3),
             prism_over(cube(2)), wedge(4)]
    for k in range(400):
        p = rng.choice(bases)
        for _ in range(rng.randint(2, 4)):
            p = stack_pyramid(p, rng.randrange(len(p.facets)))
        yield f"seeded-{k}", p


def test_integer_lift_matches_the_fraction_reference():
    """Every handed-out witness lifted through pyramid reductions equals
    the `Fraction` lift of the same facet slide built in `Fraction`s
    (`reference_shephard_witness`), images and scalars in order."""
    levels = Counter()
    for name, p in _lifted_cases():
        r = analyze(p)
        if r.trace is None or r.witness is None or r.trace.steps[0].rule != "PyramidReduction":
            continue
        outers, reductions = [p], []
        for step in r.trace.steps[:-1]:
            assert step.rule == "PyramidReduction", name
            red, reduced = pyramid_reduction(outers[-1])
            assert red.inputs[0] == step.inputs[0], name
            reductions.append(red)
            outers.append(reduced)
        slide_trace, _ = shephard_facet(outers[-1])
        assert slide_trace.steps[-1].inputs == r.trace.steps[-1].inputs, name
        fi = slide_trace.steps[-1].inputs[0]
        want = reference_shephard_witness(outers[-1], skeleton(outers[-1]), fi)
        for red, outer in reversed(list(zip(reductions, outers))):
            want = reference_lift_witness(want, red, outer)
        assert list(r.witness.images.items()) == list(want.images.items()), name
        assert list(r.witness.edge_scalars.items()) == list(want.edge_scalars.items()), name
        levels[len(reductions)] += 1
    # 16 one-level and 3 two-level lifts when this was written.
    assert levels[1] >= 16 and levels[2] >= 1, levels


def _bd198_lift():
    """bd198, its pyramid reduction step, the reduced polytope, and the
    integer facet slide on it that `analyze` lifts back."""
    p = bd198()
    red, reduced = pyramid_reduction(p)
    _, slide = shephard_facet(reduced)
    return p, red, reduced, slide


def _shifted_input(lift, reduced, slide, v):
    """The slide with vertex v's image moved by one along the first axis:
    in integers for `_lift_witness`, in `Fraction`s, from the reference
    facet slide, for `reference_lift_witness`."""
    if lift is reference_lift_witness:
        fi = shephard_facet(reduced)[0].steps[-1].inputs[0]
        w = reference_shephard_witness(reduced, skeleton(reduced), fi)
        images = dict(w.images)
        images[v] = Vec(c + (k == 0) for k, c in enumerate(images[v]))
        return DecomposingFunction(images, w.edge_scalars)
    fs, den, ratios = slide
    fs = dict(fs)
    fs[v] = tuple(c + den * (k == 0) for k, c in enumerate(fs[v]))
    return fs, den, ratios


@pytest.mark.parametrize("lift", [certificates._lift_witness, reference_lift_witness])
def test_lift_refuses_a_facet_image_off_the_homothety(lift):
    p, red, reduced, slide = _bd198_lift()
    _, facet, _ = red.inputs
    with pytest.raises(EngineInconsistencyError, match="facet restriction of the witness is not a homothety"):
        lift(_shifted_input(lift, reduced, slide, facet[0]), red, p)


@pytest.mark.parametrize("lift", [certificates._lift_witness, reference_lift_witness])
def test_lift_refuses_an_image_that_breaks_an_outer_edge(lift):
    p, red, reduced, slide = _bd198_lift()
    _, facet, _ = red.inputs
    v = next(v for v in range(len(reduced.vertices)) if v not in facet)
    with pytest.raises(EngineInconsistencyError, match="witness lift failed"):
        lift(_shifted_input(lift, reduced, slide, v), red, p)


def test_lift_refuses_a_facet_of_coincident_points():
    p, red, _, slide = _bd198_lift()
    apex, facet, facet_trace = red.inputs
    one_point = dataclasses.replace(red, inputs=(apex, facet[:1], facet_trace))
    with pytest.raises(EngineInconsistencyError, match="facet restriction of the witness is not a homothety"):
        certificates._lift_witness(slide, one_point, p)


def test_a_lifted_witness_is_handed_out_once_and_never_recleared(monkeypatch):
    """Through two pyramid reductions the facet slide stays an integer
    slide: `analyze` calls the hand-out once, and no witness image is
    cleared, not even by the final `check` on the witness it hands out,
    which runs on the slide's own integers."""
    two_levels = ["PyramidReduction", "PyramidReduction", "ShephardFacet"]
    for _, p in _lifted_cases():
        trace = analyze(p).trace
        if trace is not None and [s.rule for s in trace.steps] == two_levels:
            break
    events = []
    real_hand_out, real_clear = graphs._slide_witness, linalg.as_int_coords

    def hand_out(*args):
        events.append("hand-out")
        return real_hand_out(*args)

    def clear(points):
        events.append("clear")
        return real_clear(points)

    for module in (certificates, graphs):
        monkeypatch.setattr(module, "_slide_witness", hand_out, raising=False)
        monkeypatch.setattr(module, "as_int_coords", clear, raising=False)
    r = analyze(p)
    assert events == ["hand-out"]
    assert r.witness is not None and r.witness.check(skeleton(p))
    assert events == ["hand-out"]


def test_lifted_witness_needs_no_rational_vector_arithmetic(monkeypatch):
    """The lift through bd198's pyramid reduction runs in integers: with
    `Vec` arithmetic refused, `analyze` still hands out the witness."""
    p = bd198()

    def refuse(*args):
        raise AssertionError("Vec arithmetic")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "dot"):
        monkeypatch.setattr(linalg.Vec, name, refuse)
    r = analyze(p)
    assert [s.rule for s in r.trace.steps] == ["PyramidReduction", "ShephardFacet"]
    assert r.witness is not None


def test_pyramid_apex():
    assert pyramid_apex(simplex(3)) is not None
    p = pyramid_over(cube(2))
    trace = pyramid_apex(p)
    assert trace is not None and trace.verdict == "Indecomposable"
    assert replay(trace, p)
    assert pyramid_apex(cube(3)) is None


def test_pyramid_reduction_on_capped_prism():
    p = capped_prism()
    red = pyramid_reduction(p)
    assert red is not None
    step, reduced = red
    _, facet, facet_trace = step.inputs
    assert len(reduced.vertices) == 6
    assert facet_trace.verdict == "Indecomposable"
    # The base facet of the removed apex is a triangle of the prism.
    assert len(facet) == 3


def test_pyramid_reduction_ignores_non_stacked_sums():
    # C(6,4) plus a segment along the first edge: 24 edges, decomposable,
    # and no vertex is a stacked apex even though several look pyramidal
    # from their neighbors alone.
    c = cyclic(6, 4)
    d = c.vertices[1] - c.vertices[0]
    s = minkowski_sum(c, [[0, 0, 0, 0], tuple(d)], "sum-24-edges")
    assert s.f_vector() == (10, 24, 11)
    assert pyramid_reduction(s) is None
    report = analyze(s)
    assert report.verdict == "Decomposable"
    assert report.method == "oracle"
    assert report.trace is None


# ---------------------------------------------------------------------------
# The analysis pipeline


def expect(p, verdict, method, rules):
    r = analyze(p)
    assert r.verdict == verdict
    assert r.method == method
    got = [s.rule for s in r.trace.steps] if r.trace else None
    assert got == rules
    return r


def test_analyze_count_rule_closures():
    expect(OCTA, "Indecomposable", "count-rule", ["SmilanskyCount"])
    expect(bipyramid3(), "Indecomposable", "count-rule", ["SmilanskyCount"])
    expect(cube(3), "Decomposable", "count-rule", ["SmilanskyCount"])
    expect(delta(1, 2), "Decomposable", "count-rule", ["SmilanskyCount"])
    expect(cyclic(6, 4), "Indecomposable", "count-rule", ["LowVertexCount"])


def test_analyze_certificate_closures():
    expect(simplex(4), "Indecomposable", "certificate", ["PyramidApex"])
    expect(capped_prism(), "Decomposable", "certificate", ["ShephardFacet"])
    expect(bd182(), "Decomposable", "certificate", ["ShephardFacet"])
    expect(delta(2, 2), "Decomposable", "certificate", ["ShephardFacet"])
    r = expect(
        bd198(), "Decomposable", "certificate", ["PyramidReduction", "ShephardFacet"]
    )
    # The witness is expressed on the input, not on the reduced polytope.
    g = skeleton(bd198())
    assert r.witness is not None and r.witness.check(g)
    assert not is_homothety(g, r.witness)
    moved = sorted(
        i for i, img in r.witness.images.items() if img != bd198().vertices[i]
    )
    assert moved == [0, 1, 2, 6]


def test_analyze_search_closure():
    r = expect(
        cyclic(8, 4), "Indecomposable", "certificate", ["SimpleExtension"] * 7
    )
    assert r.oracle_dimension == 5


def test_analyze_oracle_only_mode():
    r = analyze(cube(3), mode="oracle-only")
    assert r.verdict == "Decomposable"
    assert r.method == "oracle"
    assert r.trace is None
    assert r.oracle_dimension == 6
    assert r.witness is not None
    with pytest.raises(InvalidInputError):
        analyze(cube(3), mode="fastest")


def test_analyze_reports_advisory_notes():
    r = analyze(cyclic(6, 4))
    assert any("2d" in note for note in r.rule_notes)


def test_analyze_verdict_matches_oracle_everywhere():
    for p in [OCTA, cube(3), simplex(4), delta(2, 2), bd182(), bd198(), cyclic(7, 4)]:
        cert = analyze(p)
        orac = analyze(p, mode="oracle-only")
        assert cert.verdict == orac.verdict
        assert (cert.oracle_dimension == p.dim + 1) == (cert.verdict == "Indecomposable")


# ---------------------------------------------------------------------------
# Soundness contract: a certificate the oracle or the witness check
# contradicts is an internal inconsistency (exit 4), never an answer.


@pytest.mark.parametrize("build", [capped_prism, lambda: simplex(4)])
def test_analyze_raises_when_the_oracle_contradicts_a_certificate(monkeypatch, build):
    p = build()
    real = certificates.oracle_verdict

    def flipped(q):
        o = real(q)
        other = "Indecomposable" if o.verdict == "Decomposable" else "Decomposable"
        return dataclasses.replace(o, verdict=other)

    monkeypatch.setattr(certificates, "oracle_verdict", flipped)
    with pytest.raises(EngineInconsistencyError, match="but the rank oracle says"):
        analyze(p)


def _hand_back(monkeypatch, trace, slide):
    monkeypatch.setattr(certificates, "shephard_facet", lambda p: (trace, slide))


def test_analyze_rejects_a_homothety_witness(monkeypatch):
    p = capped_prism()
    trace, _ = shephard_facet(p)
    g = skeleton(p)
    xs, mult = g.points, g.mult
    identity = (dict(enumerate(xs)), mult, graphs._edge_ratios(g.edges, xs, xs))
    assert _handed_out(p, identity) == DecomposingFunction(
        dict(enumerate(graph_vertices(g))), {e: Fraction(1) for e in g.edges}
    )
    assert _handed_out(p, identity).check(g)
    _hand_back(monkeypatch, trace, identity)
    with pytest.raises(EngineInconsistencyError, match="witness does not decompose the input"):
        analyze(p)


def test_analyze_rejects_a_witness_with_wrong_scalars(monkeypatch):
    p = capped_prism()
    real = graphs._slide_witness

    def wrong_scalar(mult, slide):
        witness = real(mult, slide)
        e = next(iter(witness.edge_scalars))
        scalars = dict(witness.edge_scalars)
        scalars[e] += 1
        return DecomposingFunction(witness.images, scalars)

    monkeypatch.setattr(certificates, "_slide_witness", wrong_scalar)
    with pytest.raises(EngineInconsistencyError, match="witness does not decompose the input"):
        analyze(p)


# ---------------------------------------------------------------------------
# Replay


EMITTED = [
    (bd198(), None),
    (capped_prism(), None),
    (cyclic(8, 4), None),
    (simplex(4), None),
    (OCTA, None),
]


@pytest.mark.parametrize(
    "p", [e[0] for e in EMITTED], ids=[e[0].name or str(i) for i, e in enumerate(EMITTED)]
)
def test_replay_accepts_emitted_traces(p):
    r = analyze(p)
    assert r.trace is not None
    ok, why = replay_report(r.trace, p)
    assert ok, why


def test_replay_is_coordinate_shift_invariant():
    p = bd198()
    trace = analyze(p).trace
    assert replay(trace, translate(p, (1, -2, 3)))


def test_replay_rejects_verdict_flip():
    p = capped_prism()
    trace = analyze(p).trace
    flipped = CertificateTrace(trace.steps, "Indecomposable", trace.coverage_note)
    ok, why = replay_report(flipped, p)
    assert not ok and "final step" in why


def test_replay_rejects_truncation():
    p = cyclic(8, 4)
    trace = analyze(p).trace
    cut = CertificateTrace(trace.steps[:-1], trace.verdict, trace.coverage_note)
    assert not replay(cut, p)
    assert not replay(CertificateTrace((), trace.verdict, ""), p)


def test_replay_rejects_bad_seed():
    final = CertificateStep(
        rule="SimpleExtension",
        inputs=("seed", (0, 3)),
        conclusion="polytope-indecomposable",
        vertices=frozenset({0, 3}),
        edges=frozenset({(0, 3)}),
    )
    trace = assemble_trace(final, "Indecomposable", "seed only")
    ok, why = replay_report(trace, OCTA)
    assert not ok and "skeleton edge" in why


def test_replay_rejects_uncovering_graph():
    final = CertificateStep(
        rule="SimpleExtension",
        inputs=("seed", (0, 1)),
        conclusion="polytope-indecomposable",
        vertices=frozenset({0, 1}),
        edges=frozenset({(0, 1)}),
    )
    trace = assemble_trace(final, "Indecomposable", "seed only")
    ok, why = replay_report(trace, OCTA)
    assert not ok and "misses a facet" in why


def test_replay_rejects_equal_witnesses():
    trace = analyze(cyclic(8, 4)).trace
    steps = list(trace.steps)
    base, w, _ = steps[1].inputs
    steps[1] = dataclasses.replace(steps[1], inputs=(base, w, (0, 0)))
    ok, why = replay_report(CertificateTrace(tuple(steps), trace.verdict, ""), cyclic(8, 4))
    assert not ok


def test_replay_rejects_foreign_step_reference():
    trace = analyze(cyclic(8, 4)).trace
    foreign = analyze(cyclic(10, 4))
    steps = list(trace.steps)
    _, w, wit = steps[1].inputs
    steps[1] = dataclasses.replace(
        steps[1], inputs=(foreign.trace.steps[0], w, wit)
    )
    ok, why = replay_report(CertificateTrace(tuple(steps), trace.verdict, ""), cyclic(8, 4))
    assert not ok


def test_replay_rejects_wrong_apex_in_reduction():
    p = bd198()
    trace = analyze(p).trace
    first = trace.steps[0]
    assert first.rule == "PyramidReduction"
    apex, fmem, sub = first.inputs
    bad = dataclasses.replace(first, inputs=((apex + 1) % len(p.vertices), fmem, sub))
    tampered = CertificateTrace((bad,) + trace.steps[1:], trace.verdict, "")
    ok, why = replay_report(tampered, p)
    assert not ok and "apex" in why


def test_replay_rejects_tampered_counts():
    p = cube(3)
    trace = analyze(p).trace
    step = trace.steps[0]
    bad = dataclasses.replace(step, inputs=(3, 5, 12, 8))
    ok, why = replay_report(assemble_trace(bad, trace.verdict, ""), p)
    assert not ok and "counts disagree" in why


def test_replay_rejects_shephard_on_wrong_facet():
    p = capped_prism()
    trace = analyze(p).trace
    step = trace.steps[-1]
    fi, members = step.inputs
    other = next(
        i for i, f in enumerate(p.facets) if i != fi and len(f) == len(members)
    )
    bad = dataclasses.replace(
        step, inputs=(other, tuple(p.facets[other])), vertices=frozenset(p.facets[other])
    )
    ok, why = replay_report(assemble_trace(bad, trace.verdict, ""), p)
    assert not ok
    # A negative index names the recorded facet through Python's
    # wrap-around; replay must still refuse it.
    for p, fi in ((delta(2, 2), -6), (capped_prism(), -1), (bd182(), -1)):
        trace = analyze(p).trace
        step = trace.steps[-1]
        assert step.rule == "ShephardFacet"
        _, members = step.inputs
        assert tuple(p.facets[fi]) == tuple(members)
        bad = dataclasses.replace(step, inputs=(fi, members))
        ok, why = replay_report(assemble_trace(bad, trace.verdict, ""), p)
        assert not ok and "facet does not exist as recorded" in why, (p.name, why)


def test_replay_rejects_trace_on_wrong_polytope():
    trace = analyze(capped_prism()).trace
    assert not replay(trace, cube(3))


def test_replay_refuses_a_cycle_on_a_negative_vertex():
    """A TwoGraphCover of the octahedron over an extension closure and
    an IndependentCycle on "vertex -1", which Python's wrap-around would
    read as vertex 5: `independent_cycle` refuses that cycle, so replay
    must too."""
    closure = simple_extension_closure(OCTA_SKEL, (0, 1))
    assert closure.vertices == frozenset(range(6))
    cycle = CertificateStep(
        rule="IndependentCycle",
        inputs=((-1, 0, 1),),
        conclusion="graph-indecomposable",
        vertices=frozenset({-1, 0, 1}),
        edges=frozenset({(-1, 0), (-1, 1), (0, 1)}),
    )
    final = CertificateStep(
        rule="TwoGraphCover",
        inputs=(closure, cycle, closure),
        conclusion="polytope-indecomposable",
        vertices=closure.vertices,
        edges=closure.edges,
    )
    trace = assemble_trace(final, "Indecomposable", "")
    with pytest.raises(RuleNotApplicableError):
        independent_cycle(OCTA_SKEL, (-1, 0, 1))
    ok, why = replay_report(trace, OCTA)
    assert not ok and "IndependentCycle" in why and "missing from the graph" in why, why


def test_replay_rejects_a_graph_step_whose_sets_are_tuples():
    """Replay compares a step's recorded sets with the re-derived step's
    directly: the same members listed in sorted tuples are not the step
    the rule makes, on the first step (which later steps refer to) or on
    the last."""
    p = cyclic(8, 4)
    trace = analyze(p).trace
    for k in (0, len(trace.steps) - 1):
        step = trace.steps[k]
        for field in ("vertices", "edges"):
            bad = dataclasses.replace(step, **{field: tuple(sorted(getattr(step, field)))})
            tampered = CertificateTrace(_rebuilt(trace.steps, k, bad), trace.verdict, "")
            ok, why = replay_report(tampered, p)
            assert not ok and "result sets do not match" in why, (k, field, why)


def test_replay_refuses_a_count_step_renamed_against_its_tag():
    p = bipyramid3()
    trace = analyze(p).trace
    (step,) = trace.steps
    assert step.rule == "SmilanskyCount" and step.note.startswith("Smilansky")
    renamed = dataclasses.replace(step, rule="LowVertexCount")
    ok, why = replay_report(assemble_trace(renamed, trace.verdict, ""), p)
    assert not ok and "LowVertexCount" in why, why


def test_replay_refuses_a_graph_rule_over_a_facet_slide():
    """A graph rule takes only earlier graph steps as inputs.  A facet
    slide's step lists a facet's vertices but certifies no graph; a union
    over it and an extension closure would otherwise cover every facet of
    delta(2,2) and prove the decomposable polytope indecomposable."""
    p = delta(2, 2)
    slide = analyze(p).trace.steps[-1]
    assert slide.rule == "ShephardFacet"
    skel = skeleton(p)
    closure = simple_extension_closure(skel, (0, 1))
    covered = slide.vertices | closure.vertices
    assert touches_every_facet(covered, p)
    forged = CertificateStep(
        rule="UnionSharedPair",
        inputs=(slide, closure, tuple(sorted(slide.vertices & closure.vertices)[:2])),
        conclusion="polytope-indecomposable",
        vertices=covered,
        edges=closure.edges,
    )
    ok, why = replay_report(assemble_trace(forged, "Indecomposable", ""), p)
    assert not ok and "not an earlier graph step" in why, why


# ---------------------------------------------------------------------------
# Replay against the hand-written reference


def _hand_built_traces():
    """Traces the engine's search rarely emits: a two-graph cover of the
    octahedron glued through a 3-cycle, and a covering independent cycle
    of the tetrahedron."""
    c1 = union_shared_pair(
        independent_cycle(OCTA_SKEL, (0, 1, 2)), independent_cycle(OCTA_SKEL, (0, 1, 5))
    )
    cover = two_graph_cover(OCTA, c1, independent_cycle(OCTA_SKEL, (2, 3, 4)))
    p = simplex(3)
    vs = next(vs for vs in certificates._independent_cycles(p, 4) if touches_every_facet(vs, p))
    cycle = _covering_trace(p, independent_cycle(skeleton(p), vs), "cycle touches every facet")
    return [(OCTA, cover), (p, cycle)]


def _replay_corpus():
    """(polytope, trace) for a trace of every rule: the emitted traces
    above (with a reduction, an apex, a slide, count rules and extension
    closures) and the hand-built ones."""
    polytopes = [e[0] for e in EMITTED] + [cube(3), bipyramid3(), delta(2, 2)]
    return [(p, analyze(p).trace) for p in polytopes] + _hand_built_traces()


_CONCLUSIONS = sorted({c for cs in certificates._RULE_CONCLUSIONS.values() for c in cs})
_RULES = sorted(certificates._RULE_CONCLUSIONS)


def _rebuilt(steps, k, new):
    """steps with step k replaced by `new`, and each later step that
    refers to a replaced one rebuilt to refer to its replacement."""
    swap = {id(steps[k]): new}
    out = list(steps)
    out[k] = new
    for i in range(k + 1, len(out)):
        if any(id(x) in swap for x in out[i].inputs):
            new_inputs = tuple(swap.get(id(x), x) for x in out[i].inputs)
            swap[id(out[i])] = out[i] = dataclasses.replace(out[i], inputs=new_inputs)
    return tuple(out)


def _tampered_value(x, rng, n):
    """A nearby wrong value: an index moved by one, wrapped negative or
    past the end, or a tuple with one entry tampered, dropped, repeated
    or the entries reordered."""
    if isinstance(x, int):
        return rng.choice([x + 1, x - 1, -1, -n, n, rng.randrange(n)])
    if isinstance(x, tuple) and x and not isinstance(x[0], CertificateStep):
        k = rng.randrange(len(x))
        how = rng.randrange(4)
        if how == 0:
            return x[:k] + (_tampered_value(x[k], rng, n),) + x[k + 1:]
        if how == 1:
            return x[:k] + x[k + 1:]
        if how == 2:
            return x + (x[k],)
        return tuple(rng.sample(x, len(x)))
    return rng.choice(["seed", None, 0, ()])


def _tampered_set(x, rng, n):
    """`_tampered_value` on a set's members in ascending order, made a
    set again when it comes back a tuple."""
    x = _tampered_value(tuple(sorted(x)), rng, n)
    return frozenset(x) if isinstance(x, tuple) else x


def _tampered(trace, rng, n, foreign):
    """One random field mutation of a trace: one step's rule, conclusion,
    note, an input (a step reference redirected, a nested certificate
    tampered in turn, or a value), its vertex or edge list; or the
    verdict, or a step dropped or moved."""
    steps = trace.steps
    k = rng.randrange(len(steps))
    step = steps[k]
    field = rng.choice(["rule", "conclusion", "note", "inputs", "inputs", "inputs",
                        "vertices", "edges", "verdict", "order"])
    if field == "verdict":
        verdict = rng.choice(["Indecomposable", "Decomposable", "maybe"])
        return CertificateTrace(steps, verdict, trace.coverage_note)
    if field == "order":
        rest = steps[:k] + steps[k + 1:]
        if rng.random() < 0.5 or not rest:
            return CertificateTrace(rest, trace.verdict, trace.coverage_note)
        j = rng.randrange(len(rest) + 1)
        return CertificateTrace(rest[:j] + (step,) + rest[j:], trace.verdict, trace.coverage_note)
    if field == "rule":
        new = dataclasses.replace(step, rule=rng.choice(_RULES))
    elif field == "conclusion":
        new = dataclasses.replace(step, conclusion=rng.choice(_CONCLUSIONS))
    elif field == "note":
        tags = [c.tag for c in count_rules(3, 5, 9, 6) + count_rules(3, 8, 12, 6)]
        new = dataclasses.replace(step, note=rng.choice(tags + ["", step.note + "!"]))
    elif field == "inputs":
        if not step.inputs:
            return None
        i = rng.randrange(len(step.inputs))
        x = step.inputs[i]
        if isinstance(x, CertificateStep):
            x = rng.choice(list(steps) + [foreign])
        elif isinstance(x, CertificateTrace):
            x = _tampered(x, rng, n, foreign)
            if x is None:
                return None
        else:
            x = _tampered_value(x, rng, n)
        new = dataclasses.replace(step, inputs=step.inputs[:i] + (x,) + step.inputs[i + 1:])
    elif field == "vertices":
        new = dataclasses.replace(step, vertices=_tampered_set(step.vertices, rng, n))
    else:
        edges = step.edges
        how = rng.randrange(4)
        if how == 0 or not edges:
            a, b = rng.randrange(n), rng.randrange(n)
            edges = edges | {(min(a, b), max(a, b))}
        elif how == 1:
            e = sorted(edges)[rng.randrange(len(edges))]
            edges = (edges - {e}) | {e[::-1]}
        else:
            edges = _tampered_set(edges, rng, n)
        new = dataclasses.replace(step, edges=edges)
    return CertificateTrace(_rebuilt(steps, k, new), trace.verdict, trace.coverage_note)


def tamper_corpus(corpus, seed, count):
    """`count` seeded (polytope, tampered trace) pairs over the corpus."""
    rng = random.Random(seed)
    foreign = analyze(cyclic(10, 4)).trace.steps[0]
    made = 0
    while made < count:
        p, trace = corpus[rng.randrange(len(corpus))]
        tampered = _tampered(trace, rng, len(p.vertices), foreign)
        if tampered is not None:
            made += 1
            yield p, tampered


def test_replay_and_the_reference_accept_every_engine_trace():
    for p, trace in _replay_corpus():
        assert reference_replay(trace, p) == replay_report(trace, p) == (True, "all steps check")


def test_replay_accepts_nothing_the_reference_rejects():
    rejected = 0
    for p, tampered in tamper_corpus(_replay_corpus(), 16, 2000):
        ok, _ = replay_report(tampered, p)
        want, because = reference_replay(tampered, p)
        assert want or not ok, (tampered.render(), because)
        rejected += not ok
    assert rejected > 1000


def test_replay_rederives_graph_steps_with_the_rule_functions(monkeypatch):
    """Replaying engine traces goes through the engine's own graph rules:
    nothing in replay restates them."""
    corpus = [(cyclic(8, 4), analyze(cyclic(8, 4)).trace)] + _hand_built_traces()
    names = {"seed_edge", "simple_extension", "union_shared_pair", "edge_replacement",
             "independent_cycle"}
    called = set()
    for name in names:
        def spy(*args, _name=name, _real=getattr(certificates, name), **kwargs):
            called.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(certificates, name, spy)
    for p, trace in corpus:
        assert replay(trace, p)
    assert called == names


# ---------------------------------------------------------------------------
# Oracle-gated search


SEGMENT = [[0, 0, 0, 0], [1, 3, 2, 5]]

# The search runs only where the oracle said Indecomposable, so on a
# decomposable input analyze never exercises its soundness: these tests
# do, directly, on every decomposable catalogue entry (the search walks
# all of its stages on each, 1.2 s on delta-3-4 and at most 0.2 s on
# the others on the pure-Python path).
DECOMPOSABLE_CASES = {
    e.name: e.build for e in catalogue_list() if e.expected_status == "Decomposable"
}
for _n in (6, 7):
    DECOMPOSABLE_CASES[f"cyclic-{_n}-4-plus-segment"] = (
        lambda n=_n: minkowski_sum(cyclic(n, 4), SEGMENT)
    )


@pytest.mark.parametrize("name", sorted(DECOMPOSABLE_CASES))
def test_search_finds_nothing_on_decomposable_input(name):
    # The search can only prove indecomposability; anything it returned
    # here would contradict the oracle (exit 4).
    assert certificates._stages_search(DECOMPOSABLE_CASES[name]()) is None


def _report_key(r):
    witness = None
    if r.witness is not None:
        witness = sorted(r.witness.images.items())
    trace = None if r.trace is None else (r.trace.verdict, r.trace.coverage_note, r.trace.render())
    return (r.verdict, r.method, r.oracle_dimension, r.fvector, r.rule_notes, trace, witness)


class _SearchCalled(Exception):
    pass


def _refuse_search(p):
    raise _SearchCalled(p.name)


@pytest.mark.parametrize("build", [lambda: delta(2, 2), catalogue_entry("sum-25-edges").build])
def test_analyze_decides_decomposable_input_without_search(monkeypatch, build):
    p = build()
    want = _report_key(analyze(p))
    assert want[0] == "Decomposable"
    monkeypatch.setattr(certificates, "_stages_search", _refuse_search)
    assert _report_key(analyze(p)) == want


def test_analyze_needs_search_on_indecomposable_input(monkeypatch):
    monkeypatch.setattr(certificates, "_stages_search", _refuse_search)
    with pytest.raises(_SearchCalled):
        analyze(cyclic(8, 4))


# ---------------------------------------------------------------------------
# Stacked-apex test


def _stack_structure_reference(p, u):
    """The stacked-apex check without the hyperplane pretest: it always
    builds the hull of the other vertices."""
    n = len(p.vertices)
    kept = [x for x in range(n) if x != u]
    try:
        reduced = Polytope.from_vertices(p.dim, [p.vertices[x] for x in kept])
    except DegenerateInputError:
        return None
    fmem = tuple(x - (x > u) for x in p.neighbors(u))
    if fmem not in set(reduced.facets):
        return None
    apex = p.vertices[u]
    for fi, members in enumerate(reduced.facets):
        a, b = reference_plane(reduced, members)
        side = a.dot(apex)
        if members == fmem:
            if side <= b:
                return None
        elif side >= b:
            return None
    return reduced, fmem


STACK_CASES = {e.name: e.build for e in catalogue_list()}
for _n in (6, 7, 8, 9):
    STACK_CASES[f"cyclic-{_n}-4"] = lambda n=_n: cyclic(n, 4)
for _n in (6, 7, 8):
    STACK_CASES[f"cyclic-{_n}-4-stacked"] = lambda n=_n: stack_pyramid(cyclic(n, 4), 0)
for _f in range(len(capped_prism().facets)):
    STACK_CASES[f"capped-prism-stacked-{_f}"] = lambda f=_f: stack_pyramid(capped_prism(), f)


def _stack_image(name, scale, seed):
    """A relabelled, shifted copy of a stack case scaled by `scale`, so
    the apex and the reduced polytope clear different denominators."""
    p = STACK_CASES[name]()
    vertices, facets = _relabelled_image(p, random.Random(seed), scale)
    return Polytope(p.dim, vertices, facets)


for _k, _name in enumerate(sorted(STACK_CASES)):
    for _scale in (Fraction(1, 2), Fraction(5, 3), Fraction(10**12)):
        STACK_CASES[f"{_name}*{_scale}"] = (
            lambda name=_name, scale=_scale, seed=_k: _stack_image(name, scale, seed)
        )


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_stack_structure_matches_reduced_hull_reference(name):
    p = STACK_CASES[name]()
    apexes = 0
    for u in range(len(p.vertices)):
        got = certificates._stack_structure(p, u)
        want = _stack_structure_reference(p, u)
        if want is None:
            assert got is None, u
        else:
            apexes += 1
            assert got is not None, u
            assert got[1] == want[1]
            assert got[0].vertices == want[0].vertices
            assert got[0].facets == want[0].facets
    if "stacked" in name:
        assert apexes


@pytest.mark.parametrize("build", [bd198, lambda: stack_pyramid(cyclic(8, 4), 0)])
def test_replay_rejects_every_non_apex_in_reduction(build):
    p = build()
    trace = analyze(p).trace
    first = trace.steps[0]
    assert first.rule == "PyramidReduction"
    apex, fmem, sub = first.inputs
    others = [u for u in range(len(p.vertices)) if _stack_structure_reference(p, u) is None]
    assert others
    # Indices that name no vertex are refused the same way.
    for u in others + [-1, len(p.vertices)]:
        bad = dataclasses.replace(first, inputs=(u, fmem, sub))
        tampered = CertificateTrace((bad,) + trace.steps[1:], trace.verdict, "")
        ok, why = replay_report(tampered, p)
        assert not ok and "vertex is not a stacked pyramid apex" in why, (u, why)


def hull_stack_structure(p, u):
    """The stacked-apex check that builds the reduced polytope's hull:
    the same hyperplane pretest as the library, then the hull of the
    other vertices from scratch, with the apex tested against its integer
    planes.  Returns (result, stage): result as `_stack_structure` gives
    it, and the stage that refused u ("pretest" or "hull"), or None."""
    n = len(p.vertices)
    nbrs = p.neighbors(u)
    ints, mult = p.int_coords()
    plane = int_hyperplane([ints[x] for x in nbrs])
    if plane is None:
        return None, "pretest"
    a, b = plane
    apex_side = int_side(a, b, ints[u])
    others = (int_side(a, b, ints[x]) for x in range(n) if x != u and x not in nbrs)
    if apex_side == 0 or any(side * apex_side >= 0 for side in others):
        return None, "pretest"
    kept = [x for x in range(n) if x != u]
    try:
        reduced = Polytope.from_vertices(
            p.dim,
            [p.vertices[x] for x in kept],
            name=f"{p.name or 'polytope'} minus vertex {u}",
        )
    except DegenerateInputError:
        return None, "hull"
    fmem = tuple(x - (x > u) for x in nbrs)
    if fmem not in set(reduced.facets):
        return None, "hull"
    apex = ints[u]
    _, mult_r = reduced.int_coords()
    for fi, members in enumerate(reduced.facets):
        a, o = reduced.int_plane(fi)
        side = mult_r * sum(c * x for c, x in zip(a, apex)) - mult * o
        if members == fmem:
            if side <= 0:
                return None, "hull"
        elif side >= 0:
            return None, "hull"
    return (reduced, fmem), None


def _assert_same_reduction(got, want):
    """Field for field: the reduced polytope and facet, and everything a
    caller reads off the reduced polytope."""
    (gr, gf), (wr, wf) = got, want
    assert gf == wf
    assert (gr.dim, gr.vertices, gr.facets, gr.name) == (wr.dim, wr.vertices, wr.facets, wr.name)
    assert gr.int_coords() == wr.int_coords()
    for fi in range(len(wr.facets)):
        assert gr.int_plane(fi) == wr.int_plane(fi), fi
        assert gr.int_plane(fi) == reference_int_plane(gr, gr.facets[fi]), fi
    assert gr.edges() == wr.edges()


def _random_polytope(rng, d):
    """The hull of a few seeded integer points in R^d, scaled by a random
    fraction, or None when they do not span R^d."""
    scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    points = sorted({tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + rng.randint(2, 6))})
    points = [Vec(x) * scale for x in points]
    try:
        return Polytope.from_vertices(d, hull.extreme_points(d, points))
    except DegenerateInputError:
        return None


def _derived_stack_cases():
    """The catalogue, then pyramids stacked once and twice on its entries
    of dimension at most 5 and their truncations, then seeded random
    polytopes in d = 3..5 with a pyramid stacked on each and a
    truncation."""
    for e in catalogue_list():
        p = e.build()
        yield e.name, p
        if p.dim > 5:
            continue
        once = stack_pyramid(p, 0)
        yield f"{e.name} stacked", once
        yield f"{e.name} stacked twice", stack_pyramid(once, len(once.facets) - 1)
        yield f"{e.name} truncated", truncate_vertex(p, 0)
    rng = random.Random(61)
    for d in (3, 4, 5):
        for k in range(40):
            p = _random_polytope(rng, d)
            if p is None:
                continue
            yield f"random-{d}-{k}", p
            yield f"random-{d}-{k} stacked", stack_pyramid(p, rng.randrange(len(p.facets)))
            yield f"random-{d}-{k} truncated", truncate_vertex(p, rng.randrange(len(p.vertices)))


def test_derived_reduction_matches_the_hull_built_one():
    """`_stack_structure` reads the reduced polytope off p's facets; the
    reference builds its hull.  Both must agree on every vertex, and
    every refusal of the derived check must be seen: a vertex adjacent
    to all others, one whose facets leave its neighbors (cube(3) vertex
    0 among them), and one that fails the hyperplane pretest."""
    refused = {"neighbourly": 0, "containment": 0, "pretest": 0}
    reduced = {"catalogue": 0, "random": 0}
    for name, p in _derived_stack_cases():
        n = len(p.vertices)
        for u in range(n):
            got = certificates._stack_structure(p, u)
            want, stage = hull_stack_structure(p, u)
            if want is not None:
                assert got is not None, (name, u)
                _assert_same_reduction(got, want)
                reduced["random" if name.startswith("random") else "catalogue"] += 1
                continue
            assert got is None, (name, u)
            nbrs = p.neighbors(u)
            if len(nbrs) == n - 1:
                refused["neighbourly"] += 1
            elif stage == "pretest":
                refused["pretest"] += 1
            else:
                closed = {u, *nbrs}
                assert any(u in f and not closed.issuperset(f) for f in p.facets), (name, u)
                refused["containment"] += 1
    assert all(refused.values()), refused
    assert all(reduced.values()), reduced
    # cube(3) vertex 0 passes the pretest and fails the containment test.
    p = cube(3)
    closed = {0, *p.neighbors(0)}
    assert hull_stack_structure(p, 0) == (None, "hull")
    assert len(closed) < 8 and any(0 in f and not closed.issuperset(f) for f in p.facets)
    assert certificates._stack_structure(p, 0) is None


def test_containment_is_tested_before_the_hyperplane_fit(monkeypatch):
    """The containment test reads index sets only, so it runs before the
    hyperplane fit.  On cyclic(6,4) plus a segment every vertex fails it:
    no plane is fitted, where fitting first would fit one per vertex that
    is not adjacent to all others (12).  A stacked pyramid still reduces
    past its apex to the polytope the hull-built check gives."""
    fits = []
    real = certificates.int_hyperplane

    def record(points):
        fits.append(points)
        return real(points)

    monkeypatch.setattr(certificates, "int_hyperplane", record)
    p = minkowski_sum(cyclic(6, 4), [[0, 0, 0, 0], [1, 3, 2, 5]])
    n = len(p.vertices)
    assert sum(len(p.neighbors(u)) < n - 1 for u in range(n)) == 12
    assert pyramid_reduction(p) is None
    assert fits == []
    q = stack_pyramid(cyclic(8, 4), 0)
    step, reduced = pyramid_reduction(q)
    apex, fmem, _ = step.inputs
    assert (apex, fmem) == (8, (0, 1, 2, 3))
    assert 0 < len(fits) < len(q.vertices)
    want, _ = hull_stack_structure(q, apex)
    _assert_same_reduction((reduced, fmem), want)


def test_reduction_builds_no_hull(monkeypatch):
    p = stack_pyramid(cyclic(8, 4), 0)
    calls = []
    real = kernels.facet_scan

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "facet_scan", record)
    report = analyze(p)
    assert report.trace.steps[0].rule == "PyramidReduction"
    assert replay(report.trace, p)
    assert not calls


@pytest.mark.parametrize("facet_trace", [None, "step"])
def test_replay_rejects_a_reduction_without_a_facet_certificate(facet_trace):
    p = bd198()
    trace = analyze(p).trace
    first = trace.steps[0]
    apex, fmem, _ = first.inputs
    if facet_trace == "step":
        facet_trace = trace.steps[1]
    bad = dataclasses.replace(first, inputs=(apex, fmem, facet_trace))
    ok, why = replay_report(CertificateTrace((bad,) + trace.steps[1:], trace.verdict, ""), p)
    assert not ok and "verdict" in why, why


def test_replay_rejects_a_forged_reduction_on_cube():
    p = cube(3)
    sub = analyze(simplex(2)).trace
    forged = CertificateStep(
        rule="PyramidReduction",
        inputs=(0, (0, 1, 2), sub),
        conclusion=certificates.STATUS_EQUIVALENT,
        vertices=frozenset({0, 1, 2}),
    )
    trace = analyze(p).trace
    tampered = CertificateTrace((forged,) + trace.steps, trace.verdict, "")
    ok, why = replay_report(tampered, p)
    assert not ok
    assert why.startswith("step_1 (PyramidReduction): vertex is not a stacked pyramid apex"), why


# ---------------------------------------------------------------------------
# The oracle's witness


def test_analyze_fits_the_oracle_witness_only_when_it_hands_it_out(monkeypatch):
    fits = []
    real = graphs._residue

    def record(*args):
        fits.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, "_residue", record)
    # Closed by the facet slide: no fit.
    assert analyze(capped_prism()).method == "certificate"
    assert not fits
    # Closed by a count rule, which has no witness of its own: one fit,
    # handed out.
    r = analyze(cube(3))
    assert (r.verdict, r.method, len(fits)) == ("Decomposable", "count-rule", 1)
    assert r.witness.check(skeleton(cube(3)))
    # Closed by the oracle, and oracle-only: one fit each, handed out.
    p = catalogue_entry("sum-25-edges").build()
    r = analyze(p)
    assert (r.verdict, r.method, len(fits)) == ("Decomposable", "oracle", 2)
    assert r.witness.check(skeleton(p))
    r = analyze(capped_prism(), "oracle-only")
    assert len(fits) == 3
    assert r.witness.check(skeleton(capped_prism()))
    # The deferred witness is fitted once, on first read.
    o = graphs.oracle_verdict(p)
    assert len(fits) == 3
    assert o.witness is o.witness
    assert len(fits) == 4


def test_a_decision_builds_no_fraction(monkeypatch):
    """`loads`, `analyze` in both modes and `replay`, on a file with
    fractional coordinates, make no `Fraction` and never build the
    polytope's vertex view: the reader clears the coordinates straight to
    integers, and each witness, the oracle's residue and the facet slide,
    stays an integer slide.  Reading a witness's images makes its
    `Fraction`s, once."""
    q = capped_prism()
    shift = Vec((Fraction(1, 3), -2, Fraction(5, 2)))
    text = dumps(Polytope.from_vertices(3, [v * Fraction(7, 4) + shift for v in q.vertices]))
    made, views = [], []
    real_new, real_view = Fraction.__new__, Polytope._rational_vertices

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    def counting_view(self):
        views.append(self)
        return real_view(self)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(Polytope, "_rational_vertices", counting_view)
    p = loads(text)
    oracle = analyze(p, "oracle-only")
    first = analyze(p)
    assert replay(first.trace, p)
    assert (oracle.method, first.method) == ("oracle", "certificate")
    assert oracle.witness is not None and first.witness is not None
    assert made == [] and views == []
    for report in (oracle, first):
        before = len(made)
        images = report.witness.images
        built = len(made)
        assert built > before
        assert report.witness.images is images and report.witness.edge_scalars
        assert len(made) == built
        assert report.witness.check(skeleton(p))
    assert views == []


@pytest.mark.parametrize("images", ["off-edge", "homothety"])
def test_the_oracle_witness_fails_as_the_facet_slide_does(monkeypatch, images):
    """A residue that fails an edge (`_edge_ratios`) or whose edge scalars
    are all equal (`_equal_ratios`) is an engine fault,
    EngineInconsistencyError, as a facet slide's witness is, in both
    modes: the tree sums are made random, or the identity map, whose
    residue is zero."""
    rng = random.Random(7)

    def off_edge(xs, tree, lam):
        return [tuple(rng.randint(-9, 9) for _ in x) for x in xs]

    def identity(xs, tree, lam):
        return [tuple(x) for x in xs]

    monkeypatch.setattr(graphs, "_tree_sums", off_edge if images == "off-edge" else identity)
    cases = [
        (catalogue_entry("sum-25-edges").build(), "certificates-first"),  # closed by the oracle
        (cube(3), "certificates-first"),  # closed by a count rule
        (capped_prism(), "oracle-only"),
    ]
    for p, mode in cases:
        with pytest.raises(EngineInconsistencyError, match="witness does not decompose the input"):
            analyze(p, mode)


def test_a_slide_witness_checks_as_its_fraction_copy_does():
    """`check` on a witness still held as an integer slide gives the
    answer of the reference check on the same function built from its
    `Fraction`s, on every facet slide of the catalogue (lifted through
    pyramid reductions or not) and on seeded tamperings of its images,
    denominator, ratios and keys."""
    rng = random.Random(23)
    slides = refused = 0
    for e in catalogue_list():
        p = e.build()
        closed = certificates._certificate_pipeline(p, search=False)
        if closed is None or closed[1] is None:
            continue
        slides += 1
        g = skeleton(p)
        fs, den, ratios = closed[1]
        v = rng.randrange(len(fs))
        edge = rng.choice(list(ratios))
        fj, xj = ratios[edge]
        tampered = {
            "as handed out": (fs, den, ratios),
            "denominator doubled": (fs, 2 * den, ratios),
            "ratio scaled": (fs, den, {**ratios, edge: (3 * fj, 3 * xj)}),
            "ratio moved": (fs, den, {**ratios, edge: (fj + 1, xj)}),
            "image moved": ({**fs, v: tuple(c + 1 for c in fs[v])}, den, ratios),
            "image too long": ({**fs, v: fs[v] + (0,)}, den, ratios),
            "image missing": ({w: f for w, f in fs.items() if w != v}, den, ratios),
            "edge missing": (fs, den, {k: r for k, r in ratios.items() if k != edge}),
            "edge added": (fs, den, {**ratios, (0, len(fs)): (1, 1)}),
        }
        for label, slide in tampered.items():
            lazy = graphs._slide_witness(g.mult, slide)
            got = lazy.check(g)
            copy = DecomposingFunction(dict(lazy.images), dict(lazy.edge_scalars))
            want = reference_check(copy, g)
            assert got == want == copy.check(g), (e.name, label)
            if label in ("as handed out", "denominator doubled", "ratio scaled"):
                assert want, (e.name, label)
            refused += not want
    assert slides >= 20
    assert refused >= 6 * slides


# ---------------------------------------------------------------------------
# The search's cycle enumeration and the closures it relies on


def _cycle_cases():
    """The catalogue without delta-3-4, then seeded random polytopes in
    d = 2..5, those in d = 5 with at most 8 vertices: the reference's
    walk takes seconds on delta-3-4 and on larger 5-polytopes, which have
    thousands of cycles."""
    for e in catalogue_list():
        if e.name != "delta-3-4":
            yield e.name, e.build()
    rng = random.Random(15)
    for d in (2, 3, 4, 5):
        for k in range(12):
            p = _random_polytope(rng, d)
            if p is not None and (d < 5 or len(p.vertices) <= 8):
                yield f"random-{d}-{k}", p


def test_independent_cycles_match_the_rational_reference():
    seen = 0
    for name, p in _cycle_cases():
        got = list(certificates._independent_cycles(p, p.dim + 1))
        assert got == list(reference_independent_cycles(p, p.dim + 1)), name
        seen += len(got)
    assert seen


def _triangle_chains(p):
    """For each triangular facet, the greedy chain of triangular facets
    grown from it, each sharing an edge with the union of its
    predecessors, as the search once built it before trying cycles.
    Yields the start triangle's first edge, the chain and its number of
    triangles."""
    tris = [i for i, f in enumerate(p.facets) if len(f) == 3]
    skel = skeleton(p)
    for start in tris:
        a, b, c = sorted(p.facets[start])
        cg = simple_extension(skel, seed_edge(skel, a, b), c, witnesses=(a, b))
        used = {start}
        grown = True
        while grown:
            grown = False
            for j in tris:
                if j in used:
                    continue
                fv = sorted(p.facets[j])
                shared = next(
                    (e for e in combinations(fv, 2) if edge_key(*e) in cg.edges), None
                )
                if shared is None:
                    continue
                third = next(x for x in fv if x not in shared)
                if third not in cg.vertices:
                    cg = simple_extension(skel, cg, third, witnesses=shared)
                else:
                    missing = {edge_key(third, shared[0]), edge_key(third, shared[1])} - cg.edges
                    if missing:
                        tri = simple_extension(
                            skel, seed_edge(skel, *shared), third, witnesses=shared
                        )
                        cg = union_shared_pair(cg, tri)
                used.add(j)
                grown = True
                break
        yield (a, b), cg, len(used)


def _three_polytopes():
    """The 3-D catalogue entries, then seeded random 3-polytopes, each
    with a pyramid stacked on a facet and a vertex truncated."""
    for e in catalogue_list():
        if e.dim == 3:
            yield e.name, e.build()
    rng = random.Random(3)
    for k in range(20):
        p = _random_polytope(rng, 3)
        if p is None:
            continue
        yield f"random-{k}", p
        yield f"random-{k} stacked", stack_pyramid(p, rng.randrange(len(p.facets)))
        yield f"random-{k} truncated", truncate_vertex(p, rng.randrange(len(p.vertices)))


def test_extension_closure_contains_every_triangle_chain():
    """Why the search needs no triangle-chain stage: each chain lies in
    the extension closure of its first edge, which the search tries
    first, since every skeleton edge seeds a closure."""
    chains = 0
    for name, p in _three_polytopes():
        skel = skeleton(p)
        for edge, chain, triangles in _triangle_chains(p):
            closure = simple_extension_closure(skel, edge)
            assert chain.vertices <= closure.vertices, (name, edge)
            chains += triangles >= 2
    assert chains
