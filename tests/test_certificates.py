"""Certificate rules, the analysis pipeline, and trace replay."""

import dataclasses
import random
from fractions import Fraction

import pytest

from minkdecomp import certificates, graphs
from minkdecomp.catalogue import catalogue_entry, catalogue_list, sum_of_point_sets
from minkdecomp.certificates import (
    AnalysisReport,
    CertificateStep,
    CertificateTrace,
    analyze,
    assemble_trace,
    chain_of_triangles,
    cycle_gluing,
    edge_replacement,
    independent_cycle,
    independent_cycle_search,
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
)
from minkdecomp.errors import (
    DegenerateInputError,
    EngineInconsistencyError,
    InvalidInputError,
    RuleNotApplicableError,
)
from minkdecomp.graphs import DecomposingFunction, is_homothety, skeleton, touches_every_facet
from minkdecomp.linalg import Vec
from minkdecomp.polytope import (
    Polytope,
    minkowski_sum,
    prism_over,
    pyramid_over,
    stack_pyramid,
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


def test_simple_extension_rejects_collinear_triple():
    from minkdecomp.graphs import GeometricGraph

    g = GeometricGraph(
        dim=2,
        vertices={0: Vec((0, 0)), 1: Vec((2, 0)), 2: Vec((1, 0)), 3: Vec((1, 1))},
        edges=((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)),
    )
    base = seed_edge(g, 0, 1)
    with pytest.raises(RuleNotApplicableError):
        simple_extension(g, base, 2)  # (1,0) lies on the seed line
    cg = simple_extension(g, base, 3)
    assert 3 in cg.vertices


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


# ---------------------------------------------------------------------------
# Polytope-level rules


def test_chain_of_triangles_covers_simplicial_polytopes():
    cg = chain_of_triangles(OCTA)
    assert cg is not None
    assert touches_every_facet(cg.vertices, OCTA)
    assert chain_of_triangles(delta(1, 2)) is None  # two disjoint triangles
    with pytest.raises(InvalidInputError):
        chain_of_triangles(cyclic(6, 4))


def test_independent_cycle_search():
    trace = independent_cycle_search(simplex(3), 4)
    assert trace is not None and trace.verdict == "Indecomposable"
    assert replay(trace, simplex(3))
    # Every 4-cycle of the 3-cube is a planar face, so nothing qualifies.
    assert independent_cycle_search(cube(3), 4) is None
    with pytest.raises(InvalidInputError):
        independent_cycle_search(simplex(3), 2)
    with pytest.raises(InvalidInputError):
        independent_cycle_search(simplex(3), 5)


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


def test_shephard_facet_direct():
    out = shephard_facet(delta(1, 2))
    assert out is not None
    trace, witness = out
    assert trace.verdict == "Decomposable"
    g = skeleton(delta(1, 2))
    assert witness.check(g)
    assert not is_homothety(g, witness)
    assert shephard_facet(simplex(3)) is None
    assert shephard_facet(OCTA) is None


def reference_shephard_witness(p, skel, fi):
    """The facet slide in `Vec` and `Fraction` arithmetic, its scalars
    derived by `DecomposingFunction.from_images` and its homothety test by
    the least-squares fit: the reference for `_shephard_witness`."""
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
    a, b = p.facet_plane(fi)
    alpha = max(a.dot(p.vertices[w]) for w in outside)
    images = {i: p.vertices[i] for i in range(len(p.vertices))}
    for v in members:
        w = out_nbr[v]
        t = (b - alpha) / (b - a.dot(p.vertices[w]))
        images[v] = p.vertices[v] + (p.vertices[w] - p.vertices[v]) * t
    witness = DecomposingFunction.from_images(skel, images)
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
            got = certificates._shephard_witness(p, skel, fi)
            want = reference_shephard_witness(p, skel, fi)
            if want is None:
                assert got is None, (name, fi)
                continue
            fired += 1
            assert got is not None, (name, fi)
            assert list(got.images.items()) == list(want.images.items()), (name, fi)
            assert list(got.edge_scalars.items()) == list(want.edge_scalars.items()), (name, fi)
    # 1,325 slides over 355 polytopes when this was written.
    assert fired >= 1325


def test_slide_that_moves_nothing_is_refused():
    # Not a valid polytope: point 6 lies on the bottom facet's plane but in
    # no facet, so the bottom slides down by nothing and the witness is
    # the identity, a homothety.
    vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1),
                (Fraction(1, 4), Fraction(1, 4), 0)]
    facets = ((0, 1, 2), (3, 4, 5), (0, 1, 3, 4), (1, 2, 4, 5), (0, 2, 3, 5))
    p = Polytope(3, tuple(Vec(v) for v in vertices), facets)
    skel = skeleton(p)
    for slide in (certificates._shephard_witness, reference_shephard_witness):
        with pytest.raises(EngineInconsistencyError, match="degenerated to a homothety"):
            slide(p, skel, 0)


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
    assert len(red.reduced.vertices) == 6
    assert red.facet_trace.verdict == "Indecomposable"
    # The base facet of the removed apex is a triangle of the prism.
    assert len(red.facet) == 3


def test_pyramid_reduction_ignores_non_stacked_sums():
    # C(6,4) plus a segment along the first edge: 24 edges, decomposable,
    # and no vertex is a stacked apex even though several look pyramidal
    # from their neighbors alone.
    c = cyclic(6, 4)
    d = c.vertices[1] - c.vertices[0]
    s = sum_of_point_sets(4, c.vertices, [[0, 0, 0, 0], tuple(d)], "sum-24-edges")
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


def _hand_back(monkeypatch, trace, witness):
    monkeypatch.setattr(certificates, "shephard_facet", lambda p: (trace, witness))


def test_analyze_rejects_a_homothety_witness(monkeypatch):
    p = capped_prism()
    trace, _ = shephard_facet(p)
    g = skeleton(p)
    identity = DecomposingFunction(dict(g.vertices), {e: Fraction(1) for e in g.edges})
    assert identity.check(g)
    _hand_back(monkeypatch, trace, identity)
    with pytest.raises(EngineInconsistencyError, match="witness does not decompose the input"):
        analyze(p)


def test_analyze_rejects_a_witness_with_wrong_scalars(monkeypatch):
    p = capped_prism()
    trace, witness = shephard_facet(p)
    e = next(iter(witness.edge_scalars))
    scalars = dict(witness.edge_scalars)
    scalars[e] += 1
    _hand_back(monkeypatch, trace, DecomposingFunction(witness.images, scalars))
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
    assert replay(trace, p.translate((1, -2, 3)))


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
        vertices=(0, 3),
        edges=((0, 3),),
    )
    trace = assemble_trace(final, "Indecomposable", "seed only")
    ok, why = replay_report(trace, OCTA)
    assert not ok and "skeleton edge" in why


def test_replay_rejects_uncovering_graph():
    final = CertificateStep(
        rule="SimpleExtension",
        inputs=("seed", (0, 1)),
        conclusion="polytope-indecomposable",
        vertices=(0, 1),
        edges=((0, 1),),
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
        step, inputs=(other, tuple(p.facets[other])), vertices=tuple(p.facets[other])
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


# ---------------------------------------------------------------------------
# Oracle-gated search


SEGMENT = [[0, 0, 0, 0], [1, 3, 2, 5]]

# The search runs only where the oracle said Indecomposable, so on a
# decomposable input analyze never exercises its soundness: these tests
# do, directly.  Catalogue entries of dimension 6 and 7 are left out: a
# facet slide closes each before the search would run, and the search
# alone takes 5 to 170 s on each of them on the pure-Python path.
DECOMPOSABLE_CASES = {
    e.name: e.build
    for e in catalogue_list()
    if e.expected_status == "Decomposable" and e.dim <= 5
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
        a, b = reduced.facet_plane(fi)
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


# ---------------------------------------------------------------------------
# The oracle's witness


def test_analyze_fits_the_oracle_witness_only_when_it_hands_it_out(monkeypatch):
    fits = []
    real = graphs._residue

    def record(*args):
        fits.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, "_residue", record)
    # Closed by the facet slide and by a count rule: no fit.
    assert analyze(capped_prism()).method == "certificate"
    assert analyze(cube(3)).method == "count-rule"
    assert not fits
    # Closed by the oracle, and oracle-only: one fit each, handed out.
    p = catalogue_entry("sum-25-edges").build()
    r = analyze(p)
    assert (r.verdict, r.method, len(fits)) == ("Decomposable", "oracle", 1)
    assert r.witness.check(skeleton(p))
    r = analyze(capped_prism(), "oracle-only")
    assert len(fits) == 2
    assert r.witness.check(skeleton(capped_prism()))
    # The deferred witness is fitted once, on first read.
    o = graphs.oracle_verdict(p)
    assert len(fits) == 2
    assert o.witness is o.witness
    assert len(fits) == 3
