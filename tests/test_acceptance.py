"""Acceptance suite: one test per headline claim, desk scale.

Each test prints one PASS line on success (visible with -v as the test
outcome); together they pin the library to the counts, verdicts, and
invariances it exists to reproduce.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from minkdecomp.catalogue import catalogue_entry, catalogue_list, catalogue_verify
from minkdecomp.certificates import (
    CertificateStep,
    CertificateTrace,
    analyze,
    pyramid_reduction,
    replay,
    shephard_facet,
)
from minkdecomp.cli import main
from minkdecomp.constructors import capped_prism, bd198, cube, delta, simplex, wedge
from minkdecomp.counts import count_rules
from minkdecomp.graphs import (
    _slide_witness,
    decomposing_space,
    oracle_verdict,
    skeleton,
)
from minkdecomp.linalg import Vec
from minkdecomp.polytope import (
    Polytope,
    prism_over,
)

from reference_linalg import (
    graph_vertices,
    incidence_isomorphic,
    is_homothety,
    is_simple,
    naive_dimension,
    simple_vertex_spectrum_below_3d,
)

SEED = 20260815


@pytest.fixture(scope="session")
def entries():
    return [(e, e.build()) for e in catalogue_list()]


@pytest.fixture(scope="session")
def reports(entries):
    return [(e, p, analyze(p)) for e, p in entries]


def ok(n, msg):
    print(f"criterion {n}: PASS - {msg}")


def test_criterion_01_catalogue_verdicts(reports):
    for e, p, r in reports:
        assert r.verdict == e.expected_status, f"{e.name}: {r.verdict}"
    report = catalogue_verify()
    assert report.ok, report.render()
    ok(1, f"all {len(reports)} catalogue statuses reproduced exactly")


def test_criterion_02_sum_edge_counts():
    counts = {
        n: catalogue_entry(f"sum-{n}-edges").build().f_vector().e
        for n in (18, 19, 20, 22, 25, 27)
    }
    assert counts == {n: n for n in (18, 19, 20, 22, 25, 27)}
    assert prism_over(simplex(3)).f_vector().e == 16
    ok(2, "six 4-dim sums have 18/19/20/22/25/27 edges; tetrahedral prism has 16")


def test_criterion_03_count_formulas(entries):
    # (0,0) is a point, not a polytope; a point summand leaves the other
    # simplex unchanged, so the facet count for m=0 is that of the
    # n-simplex rather than m+n+2.
    for m in range(0, 5):
        for n in range(max(m, 1), 5):
            fv = delta(m, n).f_vector()
            v = (m + 1) * (n + 1)
            assert fv.v == v
            assert fv.e == (m + n) * v // 2
            assert fv.f == (m + n + 2 if m >= 1 else n + 1)
    for d in range(3, 7):
        fv = wedge(d).f_vector()
        assert fv.v == 3 * d - 1
        assert fv.e == d * (3 * d - 1) // 2
        assert fv.f == d + 3
    for e, p in entries:
        if p.dim != 3:
            continue
        fv = p.f_vector()
        assert prism_over(p).f_vector().e == 2 * fv.e + fv.v, e.name
    ok(3, "delta/wedge count formulas and the 2E+V prism law hold")


def test_criterion_04_oracle_certificate_consistency(reports):
    for e, p, r in reports:
        o = oracle_verdict(p)
        if r.trace is not None:
            assert r.verdict == o.verdict, e.name
        if o.verdict == "Indecomposable":
            assert o.dimension == p.dim + 1, e.name
        else:
            assert o.dimension > p.dim + 1, e.name
    ok(4, "certificates and the rank oracle agree; dimension d+1 iff indecomposable")


def test_criterion_05_low_vertex_entries(reports):
    exceptions = 0
    for d in range(3, 7):
        reference = delta(1, d - 1)
        for e, p, r in reports:
            if p.dim != d or p.f_vector().v > 2 * d:
                continue
            if incidence_isomorphic(p, reference):
                assert r.verdict == "Decomposable", e.name
                exceptions += 1
            else:
                assert r.verdict == "Indecomposable", e.name
    assert exceptions == 4  # one simplicial-prism exception per dimension
    ok(5, "every small-vertex entry is indecomposable except the simplicial prisms")


def test_criterion_05b_edge_count_boundary(reports):
    """The abstract's edge-count claim, read inclusively (2e <= 2d^2 + d,
    as `count_rules` encodes it): among such catalogue entries only the
    simplicial prisms and, at d = 4 on the boundary e = d^2 + d/2 = 18,
    the sum of two triangles are decomposable."""
    decomposable = {}
    for e, p, r in reports:
        d, edges = p.dim, p.f_vector().e
        if d < 3 or 2 * edges > 2 * d * d + d:
            continue
        assert any(c.verdict == "prism-or-delta22-or-indecomposable"
                   for c in count_rules(d, e=edges)), e.name
        if r.verdict == "Decomposable":
            decomposable[e.name] = (d, edges)
    prisms = {f"delta-1-{d - 1}": d for d in range(3, 7)}
    assert set(decomposable) == set(prisms) | {"delta-2-2", "sum-18-edges"}
    for name, d in prisms.items():
        assert decomposable[name][0] == d
    assert decomposable["delta-2-2"] == decomposable["sum-18-edges"] == (4, 18)
    assert incidence_isomorphic(
        catalogue_entry("delta-2-2").build(), catalogue_entry("sum-18-edges").build()
    )
    ok("5b", "at most d^2 + d/2 edges: only the prisms and, at d = 4 with 18 edges, "
       "the sum of two triangles are decomposable")


def test_criterion_06_impossible_and_scarce_counts(capsys):
    for d in range(4, 9):
        out = count_rules(d, v=2 * d, e=d * d + 1)
        assert any(c.verdict == "no-such-polytope" for c in out), d
    out = count_rules(4, e=17)
    assert any(c.verdict == "indecomposable" for c in out)
    assert main(["counts", "--d", "4", "--e", "17"]) == 0
    assert "indecomposable" in capsys.readouterr().out
    ok(6, "edge-count window rejected for d=4..8; 17-edge 4-polytopes indecomposable")


def test_criterion_07_facet_slide_witnesses(entries):
    fired = 0
    for e, p in entries:
        out = shephard_facet(p)
        o = oracle_verdict(p)
        if o.verdict == "Indecomposable":
            assert out is None, e.name
            continue
        if out is None:
            continue
        fired += 1
        _, slide = out
        witness = _slide_witness(p.int_coords()[1], slide)
        g = skeleton(p)
        assert witness.check(g), e.name
        assert not is_homothety(g, witness), e.name
    assert fired >= 10
    ok(7, f"facet slide fired on {fired} decomposable entries, never on indecomposable")


def test_criterion_08_reduction_preserves_verdict():
    for p in (capped_prism(), bd198()):
        red = pyramid_reduction(p)
        assert red is not None
        _, reduced = red
        assert oracle_verdict(p).verdict == oracle_verdict(reduced).verdict
    ok(8, "removing a stacked apex preserves the oracle verdict")


def _transformed(p: Polytope, rng: random.Random) -> Polytope:
    n = len(p.vertices)
    perm = list(range(n))
    rng.shuffle(perm)
    inverse = [0] * n
    for new, old in enumerate(perm):
        inverse[old] = new
    scale = rng.choice([1, 2, 3, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4)])
    shift = Vec(rng.randint(-9, 9) for _ in range(p.dim))
    vertices = tuple(p.vertices[old] * scale + shift for old in perm)
    facets = tuple(sorted(tuple(sorted(inverse[x] for x in f)) for f in p.facets))
    return Polytope(p.dim, vertices, facets)


def test_criterion_09a_oracle_affine_invariance(entries):
    rng = random.Random(SEED)
    for e, p in entries:
        base = oracle_verdict(p)
        for _ in range(50):
            q = _transformed(p, rng)
            o = oracle_verdict(q)
            assert o.verdict == base.verdict, e.name
            assert o.dimension == base.dimension, e.name
    ok("9a", "oracle invariant under 50 scale/shift/relabel images per entry")


def test_criterion_09b_edge_monotone_dimension(entries):
    rng = random.Random(SEED + 1)
    skels = [(e.name, skeleton(p)) for e, p in entries]
    checked = 0
    while checked < 100:
        name, g = skels[rng.randrange(len(skels))]
        sub = tuple(e for e in g.edges if rng.random() < 0.6)
        if not sub:
            continue
        # A random subgraph is no skeleton: the naive system gives its
        # dimension, which counts d per connected component.
        assert naive_dimension(graph_vertices(g), sub) >= decomposing_space(g)[0], name
        checked += 1
    ok("9b", "decomposing-space dimension grew or held on 100 random subgraphs")


def _tampers():
    """Each returns a provably invalid variant of the trace, or None
    when the trace has no step the tamper applies to."""

    def flip_verdict(trace):
        other = "Decomposable" if trace.verdict == "Indecomposable" else "Indecomposable"
        return CertificateTrace(trace.steps, other, trace.coverage_note)

    def truncate(trace):
        return CertificateTrace(trace.steps[:-1], trace.verdict, trace.coverage_note)

    def forge_final_conclusion(trace):
        last = trace.steps[-1]
        swapped = {
            "polytope-indecomposable": "polytope-decomposable",
            "polytope-decomposable": "polytope-indecomposable",
        }.get(last.conclusion)
        if swapped is None:
            return None
        other = "Decomposable" if trace.verdict == "Indecomposable" else "Indecomposable"
        steps = trace.steps[:-1] + (dataclasses.replace(last, conclusion=swapped),)
        return CertificateTrace(steps, other, trace.coverage_note)

    def equal_witnesses(trace):
        steps = list(trace.steps)
        for i, s in enumerate(steps):
            if s.rule == "SimpleExtension" and s.inputs[0] != "seed":
                base, w, (a, _) = s.inputs
                steps[i] = dataclasses.replace(s, inputs=(base, w, (a, a)))
                return CertificateTrace(tuple(steps), trace.verdict, "")
        return None

    def mutate_counts(trace):
        steps = list(trace.steps)
        for i, s in enumerate(steps):
            if s.rule in ("SmilanskyCount", "LowVertexCount"):
                d, v, e, f = s.inputs
                steps[i] = dataclasses.replace(s, inputs=(d, v + 1, e, f))
                return CertificateTrace(tuple(steps), trace.verdict, "")
        return None

    def scramble_facet_members(trace):
        steps = list(trace.steps)
        for i, s in enumerate(steps):
            if s.rule == "ShephardFacet":
                fi, members = s.inputs
                steps[i] = dataclasses.replace(
                    s, inputs=(fi, tuple(reversed(members)))
                )
                return CertificateTrace(tuple(steps), trace.verdict, "")
        return None

    def scramble_reduction_facet(trace):
        steps = list(trace.steps)
        for i, s in enumerate(steps):
            if s.rule == "PyramidReduction":
                apex, fmem, sub = s.inputs
                steps[i] = dataclasses.replace(
                    s, inputs=(apex, tuple(reversed(fmem)), sub)
                )
                return CertificateTrace(tuple(steps), trace.verdict, "")
        return None

    def foreign_reference(trace):
        steps = list(trace.steps)
        for i, s in enumerate(steps):
            refs = [x for x in s.inputs if isinstance(x, CertificateStep)]
            if refs:
                clone = dataclasses.replace(refs[0])
                inputs = tuple(
                    clone if x is refs[0] else x for x in s.inputs
                )
                steps[i] = dataclasses.replace(s, inputs=inputs)
                return CertificateTrace(tuple(steps), trace.verdict, "")
        return None

    def stray_edge(trace):
        last = trace.steps[-1]
        bad = dataclasses.replace(last, edges=last.edges | {(0, 10**6)})
        return CertificateTrace(
            trace.steps[:-1] + (bad,), trace.verdict, trace.coverage_note
        )

    return [
        flip_verdict,
        truncate,
        forge_final_conclusion,
        equal_witnesses,
        mutate_counts,
        scramble_facet_members,
        scramble_reduction_facet,
        foreign_reference,
        stray_edge,
    ]


def test_criterion_09c_replay_accepts_real_rejects_tampered(reports):
    traced = [(e, p, r.trace) for e, p, r in reports if r.trace is not None]
    assert traced
    for e, p, trace in traced:
        assert replay(trace, p), e.name
    rng = random.Random(SEED + 2)
    tampers = _tampers()
    rejected = 0
    while rejected < 100:
        _, p, trace = traced[rng.randrange(len(traced))]
        tampered = tampers[rng.randrange(len(tampers))](trace)
        if tampered is None:
            continue
        assert not replay(tampered, p)
        rejected += 1
    ok("9c", "all emitted traces replayed; 100 tampered variants rejected")


def test_criterion_10_simple_vertex_spectrum():
    builders = {
        "simplex": simplex,
        "prism": lambda d: delta(1, d - 1),
        "two-simplex-sum": lambda d: delta(2, d - 2),
        "wedge": wedge,
    }
    for d in range(3, 8):
        spectrum = simple_vertex_spectrum_below_3d(d)
        realized = set()
        witnesses = [b(d) for b in builders.values()]
        if d == 3:
            witnesses.append(cube(3))
        if d == 6:
            witnesses.append(delta(3, 3))
        if d == 7:
            witnesses.append(delta(3, 4))
        for p in witnesses:
            assert p.dim == d
            assert is_simple(p)
            v = p.f_vector().v
            assert v in spectrum, (d, v)
            realized.add(v)
        assert realized == spectrum, d
    ok(10, "every spectrum value below 3d realized by a constructed simple polytope")
