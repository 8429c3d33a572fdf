"""The combinatorial certificate engine.

Each rule is a small theorem about geometric graphs or polytopes; a rule
application is recorded as a step whose inputs are earlier steps or raw
polytope data, so a finished derivation is an acyclic trace.  `replay`
checks it against the polytope without trusting the search that found
it: each step is re-derived by the rule function that made it, so every
rule is defined once.

The rules rest on facts about polytopes that they do not test: no three
vertices are collinear, so a simple extension pins its new vertex, and
the skeleton is connected, so equal edge scalars mean a homothety.
Every `Polytope` is checked against its hull when it is made
(`polytope`), and `skeleton` refuses a disconnected graph.

A `CertificateStep` is the only record of a rule application.  A graph
step is the subgraph it certifies: the graph rules take earlier steps
and return a step whose vertex and edge sets are frozensets, and a
pyramid reduction returns its step with the reduced polytope.  Raising
a graph step to a polytope conclusion is one rule as well (`_covered`):
the search closes with it and replay re-applies it.

The engine is deliberately incomplete: the search strategies here close
many polytopes with short human-readable derivations, and everything
they cannot close falls through to the exact rank oracle.  Soundness is
absolute, so in certificates-first mode a disagreement between a
certificate and the oracle is reported as an internal error rather than
resolved by preference.

The pipeline stages return a trace and, when the facet slide closes
it, that slide in integers (`graphs.Slide`): the images times one
denominator and each edge's verified integer ratio.  A slide found past
pyramid reductions is lifted back slide to slide (`_lift_witness`), and
`analyze` hands out its witness once (`graphs._slide_witness`), still an
integer slide whose `Fraction`s are made only when read, and reads the
method off the trace's closing step.
"""

from __future__ import annotations

import dataclasses
from contextlib import suppress
from dataclasses import dataclass
from math import lcm
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .counts import count_rules
from .errors import (
    EngineInconsistencyError,
    InvalidInputError,
    RuleNotApplicableError,
)
from .graphs import (
    DecomposingFunction,
    GeometricGraph,
    OracleResult,
    Slide,
    _WITNESS_FAULT,
    _edge_ratios,
    _equal_ratios,
    _homothety_fit,
    _slide_witness,
    edge_key,
    oracle_verdict,
    skeleton,
    touches_every_facet,
)
from .kernels import Echelon
from .linalg import (
    affinely_independent,
    int_hyperplane,
    int_side,
)
from .polytope import FVector, Polytope, facet_as_polytope

INDECOMPOSABLE = "Indecomposable"
DECOMPOSABLE = "Decomposable"

GRAPH_INDECOMPOSABLE = "graph-indecomposable"
POLYTOPE_INDECOMPOSABLE = "polytope-indecomposable"
POLYTOPE_DECOMPOSABLE = "polytope-decomposable"
STATUS_EQUIVALENT = "status-equivalent-to-reduced"

# What each rule may conclude; replay rejects any other pairing (a
# certified subgraph, for instance, can never witness decomposability).
_RULE_CONCLUSIONS = {
    "SimpleExtension": (GRAPH_INDECOMPOSABLE, POLYTOPE_INDECOMPOSABLE),
    "UnionSharedPair": (GRAPH_INDECOMPOSABLE, POLYTOPE_INDECOMPOSABLE),
    "EdgeReplacement": (GRAPH_INDECOMPOSABLE, POLYTOPE_INDECOMPOSABLE),
    "IndependentCycle": (GRAPH_INDECOMPOSABLE, POLYTOPE_INDECOMPOSABLE),
    "TwoGraphCover": (POLYTOPE_INDECOMPOSABLE,),
    "ShephardFacet": (POLYTOPE_DECOMPOSABLE,),
    "PyramidApex": (POLYTOPE_INDECOMPOSABLE,),
    "SmilanskyCount": (POLYTOPE_INDECOMPOSABLE, POLYTOPE_DECOMPOSABLE),
    "LowVertexCount": (POLYTOPE_INDECOMPOSABLE,),
    "PyramidReduction": (STATUS_EQUIVALENT,),
}

# The verdict a polytope-level conclusion gives.
_VERDICTS = {POLYTOPE_INDECOMPOSABLE: INDECOMPOSABLE, POLYTOPE_DECOMPOSABLE: DECOMPOSABLE}


@dataclass(frozen=True, eq=False)
class CertificateStep:
    """One rule application, and the only record of it.  A graph step is
    the subgraph it certifies: its vertex and edge sets.  Identity-hashed:
    steps are nodes of a derivation DAG and the same object may be
    referenced repeatedly."""

    rule: str
    inputs: Tuple
    conclusion: str
    vertices: FrozenSet[int] = frozenset()
    edges: FrozenSet[Tuple[int, int]] = frozenset()
    note: str = ""


@dataclass(frozen=True, eq=False)
class CertificateTrace:
    steps: Tuple[CertificateStep, ...]
    verdict: str
    coverage_note: str

    def render(self) -> str:
        return "\n".join(render_steps(self.steps))


def _graph_step(rule: str, inputs: Tuple, vertices, edges, note: str = "") -> CertificateStep:
    return CertificateStep(rule, inputs, GRAPH_INDECOMPOSABLE, vertices, edges, note)


def assemble_trace(final: CertificateStep, verdict: str, coverage_note: str) -> CertificateTrace:
    """Linearize the derivation DAG below the final step: dependencies
    first, each distinct step once."""
    order: List[CertificateStep] = []
    seen: Set[int] = set()

    def visit(step: CertificateStep) -> None:
        if id(step) in seen:
            return
        seen.add(id(step))
        for x in step.inputs:
            if isinstance(x, CertificateStep):
                visit(x)
        order.append(step)

    visit(final)
    return CertificateTrace(tuple(order), verdict, coverage_note)


def render_steps(steps: Sequence[CertificateStep]) -> List[str]:
    index = {id(s): k + 1 for k, s in enumerate(steps)}
    lines = []
    for k, step in enumerate(steps, start=1):
        parts = []
        for x in step.inputs:
            if isinstance(x, CertificateStep):
                parts.append(f"step_{index[id(x)]}")
            elif isinstance(x, CertificateTrace):
                parts.append("certificate[" + " -> ".join(s.rule for s in x.steps) + "]")
            elif isinstance(x, tuple):
                parts.append("(" + ",".join(str(i) for i in x) + ")")
            else:
                parts.append(str(x))
        line = f"step_{k}: {step.rule}({', '.join(parts)}) => {step.conclusion}"
        if step.note:
            line += f"  [{step.note}]"
        lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# Graph rules


def seed_edge(g: GeometricGraph, u: int, v: int) -> CertificateStep:
    if v not in g.neighbors(u):
        raise RuleNotApplicableError(f"seed ({u},{v}) is not a skeleton edge")
    e = edge_key(u, v)
    return _graph_step(
        "SimpleExtension",
        ("seed", e),
        frozenset(e),
        frozenset([e]),
        note="a single edge is indecomposable",
    )


def simple_extension(
    g: GeometricGraph,
    base: CertificateStep,
    w: int,
    witnesses: Optional[Tuple[int, int]] = None,
) -> CertificateStep:
    """Absorb one vertex adjacent to two covered vertices (two new edges).

    Three vertices of a polytope are never collinear, so the new vertex
    is pinned by its two covered neighbours."""
    if w in base.vertices:
        raise RuleNotApplicableError(f"vertex {w} is already covered")
    covered = [x for x in g.neighbors(w) if x in base.vertices]
    if witnesses is None:
        if len(covered) < 2:
            raise RuleNotApplicableError(f"vertex {w} has fewer than two covered neighbors")
        a, b = covered[0], covered[1]
    else:
        a, b = witnesses
        if a not in covered or b not in covered or a == b:
            raise RuleNotApplicableError(f"({a},{b}) are not two covered neighbors of {w}")
    return _graph_step(
        "SimpleExtension",
        (base, w, (a, b)),
        base.vertices | {w},
        base.edges | {edge_key(a, w), edge_key(b, w)},
    )


def simple_extension_closure(g: GeometricGraph, seed: Tuple[int, int]) -> CertificateStep:
    """Grow from a seed edge until no vertex has two covered neighbors,
    absorbing the smallest eligible vertex first."""
    cg = seed_edge(g, *seed)
    outside = sorted(set(range(len(g.points))) - cg.vertices)
    while True:
        w = next(
            (
                x
                for x in outside
                if sum(1 for y in g.neighbors(x) if y in cg.vertices) >= 2
            ),
            None,
        )
        if w is None:
            return cg
        cg = simple_extension(g, cg, w)
        outside.remove(w)


def union_shared_pair(
    c1: CertificateStep, c2: CertificateStep, pair: Optional[Tuple[int, int]] = None
) -> CertificateStep:
    """Join two certified graphs that share two vertices: the two
    smallest shared ones, or `pair` when it names two."""
    shared = c1.vertices & c2.vertices
    if pair is None:
        if len(shared) < 2:
            raise RuleNotApplicableError("the graphs share fewer than two vertices")
        pair = tuple(sorted(shared)[:2])
    else:
        a, b = pair
        if a == b or a not in shared or b not in shared:
            raise RuleNotApplicableError(f"({a},{b}) are not two shared vertices")
    return _graph_step(
        "UnionSharedPair",
        (c1, c2, pair),
        c1.vertices | c2.vertices,
        c1.edges | c2.edges,
    )


def edge_replacement(
    h: CertificateStep, e: Tuple[int, int], g: CertificateStep
) -> CertificateStep:
    e = edge_key(*e)
    if e not in h.edges:
        raise RuleNotApplicableError(f"{e} is not an edge of the base graph")
    if not {e[0], e[1]} <= g.vertices:
        raise RuleNotApplicableError(f"replacement graph misses an endpoint of {e}")
    return _graph_step(
        "EdgeReplacement",
        (h, e, g),
        h.vertices | g.vertices,
        (h.edges - {e}) | g.edges,
    )


def independent_cycle(g: GeometricGraph, vs: Sequence[int]) -> CertificateStep:
    """A cycle on affinely independent points, tested on the graph's
    cached integer coordinates; the cycle edges need not belong to g and
    are usually replaced away afterwards."""
    vs = tuple(vs)
    if len(vs) < 3 or len(set(vs)) != len(vs):
        raise RuleNotApplicableError("need at least three distinct cycle vertices")
    if any(v not in range(len(g.points)) for v in vs):
        raise RuleNotApplicableError("cycle vertex missing from the graph")
    xs = g.points
    if not affinely_independent([xs[v] for v in vs]):
        raise RuleNotApplicableError("cycle vertices are affinely dependent")
    edges = frozenset(edge_key(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
    return _graph_step("IndependentCycle", (vs,), frozenset(vs), edges)


def cycle_gluing(
    g: GeometricGraph, gs: Sequence[CertificateStep], vs: Sequence[int]
) -> CertificateStep:
    """Glue certified graphs around an affinely independent cycle of
    connection vertices: vs[i] lies in gs[i] and gs[i-1].  Realized as an
    IndependentCycle step whose edges are then each replaced by the
    certified graph containing both endpoints."""
    gs, vs = list(gs), list(vs)
    if len(gs) != len(vs):
        raise RuleNotApplicableError("need one connection vertex per graph")
    n = len(gs)
    if n < 2:
        raise RuleNotApplicableError("need at least two graphs")
    for i in range(n):
        if vs[i] not in gs[i].vertices or vs[i] not in gs[i - 1].vertices:
            raise RuleNotApplicableError(
                f"connection vertex {vs[i]} must lie in both adjacent graphs"
            )
    if n == 2:
        return union_shared_pair(gs[0], gs[1])
    out = independent_cycle(g, vs)
    for i in range(n):
        # Both endpoints of cycle edge i lie in gs[i].
        out = edge_replacement(out, edge_key(vs[i], vs[(i + 1) % n]), gs[i])
    return out


# ---------------------------------------------------------------------------
# Polytope-level rules


def _covered(
    p: Polytope, skel: GeometricGraph, step: CertificateStep, why: str
) -> CertificateStep:
    """The coverage rule: a certified skeleton subgraph that touches
    every facet makes the polytope indecomposable, so its graph step is
    upgraded to that conclusion, with `why` as its note.  Refused unless
    the step's edges lie in the skeleton and its vertices meet every
    facet.  The search closes with it and replay re-applies it."""
    if not step.edges.issubset(skel.edges):
        raise RuleNotApplicableError("certified graph is not a skeleton subgraph")
    if not touches_every_facet(step.vertices, p):
        raise RuleNotApplicableError("certified graph misses a facet")
    return dataclasses.replace(step, conclusion=POLYTOPE_INDECOMPOSABLE, note=why)


def _independent_cycles(p: Polytope, max_len: int):
    """Skeleton cycles with affinely independent vertices, emitted in
    depth-first lexicographic order; a prefix is pruned the moment it
    goes affinely dependent.

    One `kernels.Echelon` holds the differences X_v - X_start of the
    path's cached integer coordinates: a vertex's row is added on the way
    down, the vertex is pruned when its row does not raise the rank, and
    the row is popped on the way back."""
    adj = p._adjacency()
    ints, _ = p.int_coords()
    ech = Echelon()

    def extend(path: List[int]):
        v0, last = path[0], path[-1]
        if len(path) >= 3 and v0 in adj[last] and path[1] < last:
            yield tuple(path)
        if len(path) == max_len:
            return
        for y in adj[last]:
            if y <= v0 or y in path:
                continue
            if ech.add([a - b for a, b in zip(ints[y], ints[v0])]):
                path.append(y)
                yield from extend(path)
                path.pop()
                ech.rows.pop()

    for v0 in range(len(ints)):
        yield from extend([v0])


def _cover_gaps(
    p: Polytope, skel: GeometricGraph, c1: CertificateStep, c2: CertificateStep
) -> Tuple[List[int], List[int]]:
    """The shared and the uncovered vertices of two certified graphs,
    ascending.  Refused unless both are skeleton subgraphs that share a
    vertex and together miss at most d-2 vertices."""
    if not (c1.edges | c2.edges).issubset(skel.edges):
        raise RuleNotApplicableError("certified graph is not a skeleton subgraph")
    shared = sorted(c1.vertices & c2.vertices)
    if not shared:
        raise RuleNotApplicableError("the graphs share no vertex")
    missing = sorted(set(range(len(p))) - (c1.vertices | c2.vertices))
    if len(missing) > p.dim - 2:
        raise RuleNotApplicableError(
            f"{len(missing)} vertices uncovered, more than d-2 = {p.dim - 2}"
        )
    return shared, missing


def _cover_step(
    p: Polytope, skel: GeometricGraph,
    c1: CertificateStep, c2: CertificateStep, glued: CertificateStep,
) -> CertificateStep:
    """The TwoGraphCover step: c1 and c2 meet `_cover_gaps`, and `glued`,
    certified from them, reaches every vertex."""
    _cover_gaps(p, skel, c1, c2)
    if glued.vertices != set(range(len(p))):
        raise RuleNotApplicableError("the glued graph does not reach every vertex")
    return CertificateStep(
        rule="TwoGraphCover",
        inputs=(c1, c2, glued),
        conclusion=POLYTOPE_INDECOMPOSABLE,
        vertices=glued.vertices,
        edges=glued.edges,
        note="the union absorbs every vertex",
    )


def two_graph_cover(
    p: Polytope, c1: CertificateStep, c2: CertificateStep
) -> CertificateTrace:
    """Close the polytope from two certified skeleton subgraphs that
    share a vertex and together miss at most d-2 vertices.  The union is
    glued (directly on two shared vertices, else through a connecting
    skeleton edge and a 3-cycle), the missing vertices are absorbed, and
    full coverage yields the verdict."""
    skel = skeleton(p)
    shared, missing = _cover_gaps(p, skel, c1, c2)
    if len(shared) >= 2:
        glued = union_shared_pair(c1, c2)
    else:
        v = shared[0]
        connecting = next(
            (
                (a, b)
                for a, b in skel.edges
                if (a in c1.vertices and a != v and b in c2.vertices and b != v)
                or (b in c1.vertices and b != v and a in c2.vertices and a != v)
            ),
            None,
        )
        if connecting is None:
            raise RuleNotApplicableError("no skeleton edge connects the two graphs")
        a, b = connecting
        if a not in c1.vertices or a == v:
            a, b = b, a
        bridge = seed_edge(skel, a, b)
        glued = cycle_gluing(skel, (c1, bridge, c2), (v, a, b))
    # Each uncovered vertex has at least two covered neighbors: its degree
    # is >= d and at most d-3 other vertices stay uncovered.
    for w in missing:
        glued = simple_extension(skel, glued, w)
    final = _cover_step(p, skel, c1, c2, glued)
    return assemble_trace(final, INDECOMPOSABLE, "two-graph cover reaches every vertex")


def _shephard_slide(p: Polytope, skel: GeometricGraph, fi: int) -> Optional[Slide]:
    """The facet slide on one facet, decided and verified in integers:
    None unless every facet vertex has exactly one neighbor outside and
    at least two vertices lie outside, else the integer slide
    (fs, D, ratios).  The rule and its replay share it; only the witness
    `analyze` hands out (`graphs._slide_witness`) makes `Fraction`s, when
    its images or scalars are read.

    The slide is built over the cached integer coordinates X = mult * x.
    With the facet's outward integer plane a.X <= b (`Polytope.int_plane`),
    member v slides along its outside edge to w by the fraction
    (b - alpha) / gap_w, where gap_w = b - a.X_w > 0 and alpha is the
    highest outside level.  With den the lcm of those gaps, every image
    times D = den * mult is an integer: fs holds those integer images.
    Each edge is verified in integers (`graphs._edge_ratios`), and ratios
    holds its integer ratio (f_j, x_j): its scalar is
    f_j * mult / (x_j * D).  A polytope skeleton is connected, and on a
    connected graph a decomposing function is a homothety iff all its
    edge scalars are equal, so the slide is refused with
    EngineInconsistencyError when its ratios are all equal
    (`graphs._equal_ratios`)."""
    members = p.facets[fi]
    if len(p) - len(members) < 2:
        return None
    fset = set(members)
    out_nbr = {}
    for v in members:
        others = [x for x in skel.neighbors(v) if x not in fset]
        if len(others) != 1:
            return None
        out_nbr[v] = others[0]
    outside = [w for w in range(len(p)) if w not in fset]
    xs, mult = skel.points, skel.mult
    a, b = p.int_plane(fi)
    # How far each outside vertex lies below the facet: b - a.X_w > 0.
    gap = {w: -int_side(a, b, xs[w]) for w in outside}
    drop = min(gap.values())  # b - alpha
    den = lcm(*(gap[out_nbr[v]] for v in members))
    fs = {i: tuple(c * den for c in x) for i, x in enumerate(xs)}
    for v in members:
        w = out_nbr[v]
        # Slide v along its outside edge down to the level alpha.
        k = den // gap[w] * drop
        fs[v] = tuple(cv * den + (cw - cv) * k for cv, cw in zip(xs[v], xs[w]))
    ratios = _edge_ratios(skel.edges, xs, fs)
    if _equal_ratios(ratios):
        raise EngineInconsistencyError("facet-slide witness degenerated to a homothety")
    return fs, den * mult, ratios


def shephard_facet(p: Polytope) -> Optional[Tuple[CertificateTrace, Slide]]:
    """Decomposability from a facet whose vertices each have exactly one
    neighbor outside it (and at least two vertices lie outside): sliding
    the facet down to the outside level is a non-homothety decomposing
    function.  The slide is decided and verified in integers once
    (`_shephard_rule`): its edges are checked one by one and, the
    skeleton being connected, it is no homothety because its scalars are
    not all equal.  It is returned as that integer slide; `analyze` hands
    out its witness.

    A facet F with a member of skeleton degree above |F| is skipped
    before the rule runs: that member has at most |F| - 1 neighbors in F,
    so at least two outside, and the slide condition fails anyway.  The
    first facet that slides is the same.  On a simplicial neighborly
    polytope other than a simplex, such as cyclic(n, 4) for n >= 6, every
    facet is refused by degree alone; there the slide runs only as the
    cross-check after an Indecomposable oracle verdict."""
    skel = skeleton(p)
    degree = [len(skel.neighbors(v)) for v in range(len(p))]
    for fi, members in enumerate(p.facets):
        size = len(members)
        if any(degree[v] > size for v in members):
            continue
        try:
            step, slide = _shephard_rule(p, skel, fi)
        except RuleNotApplicableError:
            continue
        why = f"facet {fi} slides to a proper summand"
        return assemble_trace(step, DECOMPOSABLE, why), slide
    return None


def _shephard_rule(
    p: Polytope, skel: GeometricGraph, fi: int
) -> Tuple[CertificateStep, Slide]:
    """The ShephardFacet step on facet fi and its integer slide
    (`_shephard_slide`); refused unless the facet exists and meets the
    slide condition.  Replay calls it too, so it re-derives and
    re-verifies the slide edge by edge in integers and makes no
    `Fraction` and no `DecomposingFunction`."""
    if not 0 <= fi < len(p.facets):
        raise RuleNotApplicableError("facet does not exist as recorded")
    slide = _shephard_slide(p, skel, fi)
    if slide is None:
        raise RuleNotApplicableError("facet does not meet the slide condition")
    step = CertificateStep(
        rule="ShephardFacet",
        inputs=(fi, tuple(p.facets[fi])),
        conclusion=POLYTOPE_DECOMPOSABLE,
        vertices=frozenset(p.facets[fi]),
        note="facet slides along its unique outside edges",
    )
    return step, slide


def pyramid_apex(p: Polytope) -> Optional[CertificateTrace]:
    """A vertex lying in every facet but one, the exception containing
    all other vertices: the polytope is a pyramid, hence indecomposable.
    The facets through each vertex are counted once, and the facet away
    from a vertex is looked up only for a vertex in all but one."""
    n = len(p)
    count = [0] * n
    for f in p.facets:
        for v in f:
            count[v] += 1
    for u in range(n):
        if count[u] != len(p.facets) - 1:
            continue
        try:
            step = _apex_step(p, u)
        except RuleNotApplicableError:
            continue
        return assemble_trace(step, INDECOMPOSABLE, f"pyramid with apex {u}")
    return None


def _apex_step(p: Polytope, u: int) -> CertificateStep:
    """The PyramidApex step for vertex u; refused unless exactly one
    facet misses u and that facet holds every other vertex."""
    n = len(p)
    away = [fi for fi, f in enumerate(p.facets) if u not in f]
    if len(away) != 1:
        raise RuleNotApplicableError(f"vertex {u} is not in every facet but one")
    if len(p.facets[away[0]]) != n - 1:
        raise RuleNotApplicableError("the base facet misses some non-apex vertex")
    return CertificateStep(
        rule="PyramidApex",
        inputs=(u, away[0]),
        conclusion=POLYTOPE_INDECOMPOSABLE,
        vertices=frozenset(range(n)),
        note=f"vertex {u} is an apex over facet {away[0]}",
    )


def _stack_structure(p: Polytope, u: int) -> Optional[Tuple[Polytope, Tuple[int, ...]]]:
    """The reduced polytope and facet witnessing that p results from
    stacking a pyramid with apex u, or None.

    The definition: removing u leaves a polytope in which u's neighbor
    set is a facet, and u lies strictly beyond that facet and strictly
    beneath every other facet of the reduced polytope.  The beneath
    conditions are essential; without them the status equivalence fails
    (the apex would absorb other facets).

    It is decided on p's own facets, with no hull built, by three tests,
    in this order: some vertex is not a neighbor of u; every facet
    through u lies within u and its neighbors; and the neighbors span a
    unique hyperplane H, with u strictly beyond it and every other vertex
    strictly beneath.  These hold exactly when the definition does.  The
    first two read index sets only, and the tests are a conjunction, so
    the hyperplane is fitted only for a vertex that passes both, and the
    order changes no answer.

    If they hold, no edge of p crosses H, since u's edges end on it, so
    the vertices of P ∩ H⁻ are those of p other than u, and
    conv(V - u) = P ∩ H⁻.  Its facets are H ∩ P, whose vertices are the
    neighbors, and the facets of p that miss u, which lie beneath H; a
    facet through u meets H⁻ only in a face of H ∩ P.  u lies strictly
    beneath every facet of p that misses it.  Conversely, each test is
    needed.  If every other vertex is a neighbor, the neighbor set is the
    whole reduced polytope, not a facet of it.  A facet F through u with
    a vertex strictly beneath H leaves F ∩ H⁻ a facet of the reduced
    polytope whose hyperplane holds u.  A facet's vertices span its
    hyperplane, every other vertex lies strictly beneath it, and u must
    lie strictly beyond: that is the third test.

    Everything runs in integers: H is fitted on p's integer points
    X = mult * x (`linalg.int_hyperplane`, which stops as soon as the
    neighbors span more than a hyperplane).  The reduced polytope keeps
    p's other points (`Polytope._of_ints`) and takes the facets alone,
    sorted by member tuple as a hull lists them; it fits its own planes
    on first use."""
    n = len(p)
    nbrs = p.neighbors(u)
    if len(nbrs) == n - 1:
        return None
    closed = {u, *nbrs}
    for members in p.facets:
        if u in members and not closed.issuperset(members):
            return None
    ints, mult = p.int_coords()
    plane = int_hyperplane([ints[x] for x in nbrs])
    if plane is None:
        return None
    a, b = plane
    apex_side = int_side(a, b, ints[u])
    others = (int_side(a, b, ints[x]) for x in range(n) if x != u and x not in nbrs)
    if apex_side == 0 or any(side * apex_side >= 0 for side in others):
        return None
    fmem = tuple(x - (x > u) for x in nbrs)
    facets = [fmem]
    for members in p.facets:
        if u not in members:
            facets.append(tuple(sorted(x - (x > u) for x in members)))
    reduced = Polytope._of_ints(
        p.dim,
        ints[:u] + ints[u + 1:],
        mult,
        tuple(sorted(facets)),
        f"{p.name or 'polytope'} minus vertex {u}",
    )
    return reduced, fmem


def pyramid_reduction(p: Polytope) -> Optional[Tuple[CertificateStep, Polytope]]:
    """Detect a stacked apex and reduce past it: the PyramidReduction
    step and the reduced polytope.  Applicable only when the stacked-on
    facet is certified indecomposable as a lower-dimensional polytope;
    the two polytopes then share their decomposability status.  The
    reduced polytope's facets are read off p's own (`_stack_structure`,
    which `replay` shares), so a reduction builds no hull."""
    for u in range(len(p)):
        try:
            reduced, fmem, facet = _stacked_facet(p, u)
        except RuleNotApplicableError:
            continue
        _, closed = _decide(facet)
        if closed is not None and closed[0].verdict == INDECOMPOSABLE:
            return _reduction_step(u, fmem, closed[0]), reduced
    return None


def _stacked_facet(p: Polytope, u: int) -> Tuple[Polytope, Tuple[int, ...], Polytope]:
    """The reduced polytope past a stacked apex u (`_stack_structure`),
    the stacked-on facet's members in it, and that facet as a polytope."""
    if p.dim < 3:
        raise RuleNotApplicableError("reduction needs dimension at least 3")
    data = _stack_structure(p, u)
    if data is None:
        raise RuleNotApplicableError("vertex is not a stacked pyramid apex")
    reduced, fmem = data
    return reduced, fmem, facet_as_polytope(reduced, reduced.facets.index(fmem))


def _reduction_step(
    apex: int, facet: Tuple[int, ...], facet_trace: CertificateTrace
) -> CertificateStep:
    """The PyramidReduction step past a stacked apex, from the facet's
    members in the reduced polytope's indexing and its certificate."""
    return CertificateStep(
        rule="PyramidReduction",
        inputs=(apex, facet, facet_trace),
        conclusion=STATUS_EQUIVALENT,
        vertices=frozenset(facet),
        note=f"apex {apex} stacked on an indecomposable facet; "
        "later steps index the reduced polytope",
    )


# ---------------------------------------------------------------------------
# Orchestration


@dataclass(frozen=True)
class AnalysisReport:
    verdict: str
    method: str  # certificate | oracle | count-rule
    trace: Optional[CertificateTrace]
    oracle_dimension: Optional[int]
    fvector: FVector
    rule_notes: Tuple[str, ...]
    witness: Optional[DecomposingFunction] = None


# What a pipeline stage returns: None, or the trace that closes the case
# with, when the facet slide closed it, the integer slide.
Closed = Optional[Tuple[CertificateTrace, Optional[Slide]]]


def _count_step(p: Polytope, tag: Optional[str] = None) -> CertificateStep:
    """The count-rule step from the first unconditional count rule that
    p's counts meet, or from the one tagged `tag`."""
    fv = p.f_vector()
    counts = (p.dim, fv.v, fv.e, fv.f)
    concl = next(
        (c for c in count_rules(*counts) if c.unconditional and tag in (None, c.tag)),
        None,
    )
    if concl is None:
        raise RuleNotApplicableError("no unconditional count rule with this tag applies")
    return CertificateStep(
        rule="SmilanskyCount" if concl.tag.startswith("Smilansky") else "LowVertexCount",
        inputs=counts,
        conclusion=(
            POLYTOPE_INDECOMPOSABLE if concl.verdict == "indecomposable" else POLYTOPE_DECOMPOSABLE
        ),
        note=concl.tag,
    )


def _stages_direct(p: Polytope) -> Closed:
    """Stages that need no search: apex, unconditional count rules, facet
    slide.  The trace comes with the integer slide when the facet slide
    closes it."""
    t = pyramid_apex(p)
    if t is not None:
        return t, None
    try:
        step = _count_step(p)
    except RuleNotApplicableError:
        return shephard_facet(p)
    return assemble_trace(step, _VERDICTS[step.conclusion], step.note), None


# Cap on how many cycles feed the pairwise cover stage.
CYCLE_FRAGMENT_LIMIT = 100


def _stages_search(p: Polytope) -> Optional[CertificateTrace]:
    """Search stages: extension closures, independent cycles, then
    pairwise two-graph covers over the found fragments.

    Every skeleton edge seeds a closure, and a closure absorbs any vertex
    with two covered neighbours, so it subsumes the chains of triangular
    facets grown from its edge.  The cycles are walked once: the first
    that the coverage rule (`_covered`) accepts closes the polytope, and
    the first CYCLE_FRAGMENT_LIMIT of them join the fragments."""
    skel = skeleton(p)
    fragments: List[CertificateStep] = []
    seen: Set[Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]]] = set()

    def add_fragment(step: CertificateStep) -> bool:
        key = (step.vertices, step.edges)
        if key in seen:
            return False
        seen.add(key)
        fragments.append(step)
        return True

    def close(step: CertificateStep, why: str) -> CertificateTrace:
        return assemble_trace(_covered(p, skel, step, why), INDECOMPOSABLE, why)

    for e in skel.edges:
        step = simple_extension_closure(skel, e)
        if add_fragment(step):
            with suppress(RuleNotApplicableError):
                return close(step, "extension closure touches every facet")
    for k, vs in enumerate(_independent_cycles(p, p.dim + 1)):
        step = independent_cycle(skel, vs)
        with suppress(RuleNotApplicableError):
            return close(step, "cycle touches every facet")
        if k < CYCLE_FRAGMENT_LIMIT:
            add_fragment(step)
    for i in range(len(fragments)):
        for j in range(i, len(fragments)):
            with suppress(RuleNotApplicableError):
                return two_graph_cover(p, fragments[i], fragments[j])
    return None


def _lift_witness(slide: Slide, red: CertificateStep, outer: Polytope) -> Slide:
    """Extend an integer slide across one pyramid reduction, whose step
    gives the apex and the stacked facet: the apex follows the homothety
    the slide restricts to on the stacked facet, the unique extension
    under the status equivalence.

    It runs in integers on the one homothety fit (`graphs._homothety_fit`).
    The slide's images F = D*f are re-indexed past the apex.  The fit of
    the facet members' F over outer's cached coordinates X must leave
    zero residue, since the facet is certified indecomposable.  Every
    image is then scaled by nq, the apex placed at m*X - offset, and every
    edge of outer's skeleton verified (`graphs._edge_ratios`): the lifted
    slide is those images over nq*D and their ratios."""
    apex, facet, _ = red.inputs
    xs, _ = outer.int_coords()
    fs, den, _ = slide
    fs = {i + (i >= apex): f for i, f in fs.items()}
    members = [i + (i >= apex) for i in facet]
    try:
        nq, m, offset = _homothety_fit([xs[i] for i in members], [fs[i] for i in members])
        exact = all(
            [nq * c for c in fs[i]] == [m * a - c for a, c in zip(xs[i], offset)]
            for i in members
        )
    except ValueError:
        exact = False
    if not exact:
        raise EngineInconsistencyError("facet restriction of the witness is not a homothety")
    fs = {i: tuple(nq * c for c in f) for i, f in fs.items()}
    fs[apex] = tuple(m * a - c for a, c in zip(xs[apex], offset))
    try:
        ratios = _edge_ratios(skeleton(outer).edges, xs, fs)
    except InvalidInputError as exc:
        raise EngineInconsistencyError(f"witness lift failed: {exc}") from exc
    return fs, nq * den, ratios


def _certificate_pipeline(p: Polytope, search: bool) -> Closed:
    """Direct stages and pyramid reductions, then the graph search if
    `search` is set.  The search can only prove indecomposability, so
    the caller clears `search` once the oracle has said Decomposable.
    A facet slide comes back lifted to p, still in integers."""
    # Each reduction step with the polytope it reduces.
    reductions: List[Tuple[CertificateStep, Polytope]] = []
    current = p
    while True:
        closed = _stages_direct(current)
        if closed is not None:
            break
        red = pyramid_reduction(current)
        if red is None:
            break
        step, reduced = red
        reductions.append((step, current))
        current = reduced
    if closed is None and search:
        trace = _stages_search(current)
        closed = None if trace is None else (trace, None)
    if closed is None:
        return None
    trace, slide = closed
    if slide is not None:
        for step, outer in reversed(reductions):
            slide = _lift_witness(slide, step, outer)
    if reductions:
        trace = CertificateTrace(
            tuple(step for step, _ in reductions) + trace.steps,
            trace.verdict,
            trace.coverage_note + "; status carried through pyramid reduction",
        )
    return trace, slide


def _decide(p: Polytope) -> Tuple[OracleResult, Closed]:
    """The rank oracle's answer and the rule pipeline's, the graph search
    run only when the oracle said Indecomposable; a certificate the
    oracle contradicts raises EngineInconsistencyError.  It hands out no
    witness, so a pyramid reduction decides its facet with it."""
    o = oracle_verdict(p)
    closed = _certificate_pipeline(p, search=o.verdict == INDECOMPOSABLE)
    if closed is not None and closed[0].verdict != o.verdict:
        raise EngineInconsistencyError(
            f"certificate says {closed[0].verdict} but the rank oracle says {o.verdict}"
        )
    return o, closed


def analyze(p: Polytope, mode: str = "certificates-first") -> AnalysisReport:
    """Decide decomposability.  In certificates-first mode the rank oracle
    runs first, then the rule pipeline: the direct stages and pyramid
    reductions always, the graph search only when the oracle said
    Indecomposable, since the search can prove nothing else.  The oracle
    backstops the pipeline and cross-checks every certificate verdict;
    oracle-only skips the rules entirely.  The method is "count-rule"
    when a count rule closes the trace, else "certificate", and "oracle"
    when no rule closes it.

    Every Decomposable report carries a witness: the facet slide's when
    the slide closes the trace, else the oracle's, which a count rule's
    verdict gets too, since a count rule decides without one.  The facet
    slide comes out of the pipeline in integers, lifted through any
    pyramid reductions (`_lift_witness`), and is handed out once, here
    (`graphs._slide_witness`), keeping the slide: its `Fraction`s are made
    only when its images or scalars are read.  Its witness is checked
    once more before `analyze` returns: `check` runs on the slide's
    integers, verifies every edge and compares each recorded ratio with
    the edge's verified one, and since a polytope skeleton is connected,
    the slide is a homothety iff its ratios are all equal
    (`graphs._equal_ratios`).  Either failure, like a verdict
    the oracle contradicts or an oracle witness that fails the same two
    tests (`graphs.oracle_verdict`), raises EngineInconsistencyError."""
    if mode not in ("certificates-first", "oracle-only"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    fv = p.f_vector()
    notes = tuple(c.render() for c in count_rules(p.dim, fv.v, fv.e, fv.f))
    if mode == "oracle-only":
        o, closed = oracle_verdict(p), None
    else:
        o, closed = _decide(p)
    if closed is None:
        return AnalysisReport(o.verdict, "oracle", None, o.dimension, fv, notes, o.witness)
    trace, slide = closed
    if slide is None:
        witness = o.witness
    else:
        g = skeleton(p)
        witness = _slide_witness(g.mult, slide)
        if not witness.check(g) or _equal_ratios(slide[2]):
            raise EngineInconsistencyError(_WITNESS_FAULT)
    closing = trace.steps[-1].rule
    method = "count-rule" if closing in ("SmilanskyCount", "LowVertexCount") else "certificate"
    return AnalysisReport(trace.verdict, method, trace, o.dimension, fv, notes, witness)


# ---------------------------------------------------------------------------
# Replay


def replay(trace: CertificateTrace, p: Polytope) -> bool:
    ok, _ = replay_report(trace, p)
    return ok


def replay_report(trace: CertificateTrace, p: Polytope) -> Tuple[bool, str]:
    """Re-check every step against the polytope from scratch.  Returns
    (False, message naming the failing step) on the first failure."""
    try:
        _replay_checked(trace, p)
    except _ReplayFailure as rf:
        return False, str(rf)
    except (
        InvalidInputError,
        RuleNotApplicableError,
        EngineInconsistencyError,
        AttributeError,
        KeyError,
        IndexError,
        TypeError,
        ValueError,
        ZeroDivisionError,
    ) as exc:
        return False, f"replay error: {exc}"
    return True, "all steps check"


class _ReplayFailure(Exception):
    pass


def _fail(k: int, step: CertificateStep, why: str):
    raise _ReplayFailure(f"step_{k} ({step.rule}): {why}")


def _replay_checked(trace: CertificateTrace, p: Polytope) -> None:
    """Re-derive every step with the rule function that made it, from its
    recorded parameters and input steps, and require the same step back:
    rule, inputs, vertex and edge sets and conclusion.  A graph step
    recorded with a polytope conclusion is re-derived through the
    coverage rule (`_covered`) as well.  A refusing rule fails the step
    with its own message.  Replay itself checks only that the rule may
    draw the recorded conclusion, that graph inputs are earlier graph
    steps, and that the last step concludes the verdict."""
    if not trace.steps:
        raise _ReplayFailure("empty trace")
    current = p
    skel = skeleton(current)
    known: Set[int] = set()  # ids of the accepted graph steps

    def graph(x) -> CertificateStep:
        if id(x) not in known:
            raise RuleNotApplicableError("input is not an earlier graph step")
        return x

    for k, step in enumerate(trace.steps, start=1):
        allowed = _RULE_CONCLUSIONS.get(step.rule)
        if allowed is None:
            _fail(k, step, f"unknown rule {step.rule!r}")
        if step.conclusion not in allowed:
            _fail(k, step, f"a {step.rule} step cannot conclude {step.conclusion!r}")
        rule, inputs = step.rule, step.inputs
        try:
            if rule == "SimpleExtension" and inputs[0] == "seed":
                _, (u, v) = inputs
                again = seed_edge(skel, u, v)
            elif rule == "SimpleExtension":
                base, w, witnesses = inputs
                again = simple_extension(skel, graph(base), w, witnesses)
            elif rule == "UnionSharedPair":
                c1, c2, pair = inputs
                again = union_shared_pair(graph(c1), graph(c2), pair)
            elif rule == "EdgeReplacement":
                h, e, g = inputs
                again = edge_replacement(graph(h), e, graph(g))
            elif rule == "IndependentCycle":
                (vs,) = inputs
                again = independent_cycle(skel, vs)
            elif rule == "TwoGraphCover":
                c1, c2, glued = inputs
                again = _cover_step(current, skel, graph(c1), graph(c2), graph(glued))
            elif rule == "ShephardFacet":
                again, _ = _shephard_rule(current, skel, inputs[0])
            elif rule == "PyramidApex":
                again = _apex_step(current, inputs[0])
            elif rule == "PyramidReduction":
                apex, fmem, facet_trace = inputs
                reduced, base, facet = _stacked_facet(current, apex)
                if fmem != base:
                    raise RuleNotApplicableError("recorded facet is not the apex base")
                if facet_trace.verdict != INDECOMPOSABLE:
                    raise RuleNotApplicableError("base facet certificate is not indecomposable")
                ok, why = replay_report(facet_trace, facet)
                if not ok:
                    raise RuleNotApplicableError(f"base facet certificate fails: {why}")
                again = _reduction_step(apex, base, facet_trace)
            else:
                again = _count_step(current, step.note)
                if inputs != again.inputs:
                    raise RuleNotApplicableError("recorded counts disagree with the polytope")
            graph_step = again.conclusion == GRAPH_INDECOMPOSABLE
            if graph_step and step.conclusion == POLYTOPE_INDECOMPOSABLE:
                again = _covered(current, skel, again, step.note)
        except RuleNotApplicableError as exc:
            _fail(k, step, str(exc))
        if (rule, inputs) != (again.rule, again.inputs):
            _fail(k, step, "rule or inputs differ from the re-derived step")
        if (step.vertices, step.edges) != (again.vertices, again.edges):
            _fail(k, step, "result sets do not match the re-derived step")
        if step.conclusion != again.conclusion:
            _fail(k, step, "conclusion disagrees with the rule")
        if rule == "PyramidReduction":
            # Later steps speak about the reduced polytope.
            current, skel, known = reduced, skeleton(reduced), set()
        elif graph_step:
            known.add(id(step))
    if _VERDICTS.get(trace.steps[-1].conclusion) != trace.verdict:
        raise _ReplayFailure("final step does not conclude the verdict")
