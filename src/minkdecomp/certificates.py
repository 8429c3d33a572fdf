"""The combinatorial certificate engine.

Each rule is a small theorem about geometric graphs or polytopes; a rule
application is recorded as a step whose inputs are earlier steps or raw
polytope data, so a finished derivation is an acyclic trace that an
independent checker can replay against the polytope without trusting the
engine that produced it.

The engine is deliberately incomplete: the search strategies here close
many polytopes with short human-readable derivations, and everything
they cannot close falls through to the exact rank oracle.  Soundness is
absolute, so in certificates-first mode a disagreement between a
certificate and the oracle is reported as an internal error rather than
resolved by preference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .counts import CountConclusion, count_rules
from .errors import (
    DegenerateInputError,
    EngineInconsistencyError,
    InvalidInputError,
    RuleNotApplicableError,
)
from .graphs import (
    DecomposingFunction,
    GeometricGraph,
    _edge_scalars,
    edge_key,
    oracle_verdict,
    skeleton,
    touches_every_facet,
)
from .linalg import (
    Vec,
    affinely_independent,
    as_int_coords,
    fraction_vec,
    int_collinear,
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

# Rules whose steps certify a subgraph; a polytope conclusion on such a
# step additionally requires the subgraph to live in the skeleton and to
# meet the facet-coverage condition.
GRAPH_RULES = frozenset(
    ["SimpleExtension", "UnionSharedPair", "EdgeReplacement", "IndependentCycle", "TwoGraphCover"]
)

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


@dataclass(frozen=True, eq=False)
class CertificateStep:
    """One rule application.  Identity-hashed: steps are nodes of a
    derivation DAG and the same object may be referenced repeatedly."""

    rule: str
    inputs: Tuple
    conclusion: str
    vertices: Tuple[int, ...] = ()
    edges: Tuple[Tuple[int, int], ...] = ()
    note: str = ""


@dataclass(frozen=True, eq=False)
class CertificateTrace:
    steps: Tuple[CertificateStep, ...]
    verdict: str
    coverage_note: str

    def render(self) -> str:
        return "\n".join(render_steps(self.steps))


@dataclass(frozen=True, eq=False)
class CertifiedGraph:
    """A subgraph together with the step that proves it indecomposable."""

    vertices: FrozenSet[int]
    edges: FrozenSet[Tuple[int, int]]
    step: CertificateStep


def _graph_step(
    rule: str,
    inputs: Tuple,
    vertices: FrozenSet[int],
    edges: FrozenSet[Tuple[int, int]],
    note: str = "",
) -> CertifiedGraph:
    step = CertificateStep(
        rule=rule,
        inputs=inputs,
        conclusion=GRAPH_INDECOMPOSABLE,
        vertices=tuple(sorted(vertices)),
        edges=tuple(sorted(edges)),
        note=note,
    )
    return CertifiedGraph(vertices, edges, step)


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


def seed_edge(g: GeometricGraph, u: int, v: int) -> CertifiedGraph:
    e = edge_key(u, v)
    if e not in set(g.edges):
        raise RuleNotApplicableError(f"({u},{v}) is not an edge of the graph")
    return _graph_step(
        "SimpleExtension",
        ("seed", e),
        frozenset(e),
        frozenset([e]),
        note="a single edge is indecomposable",
    )


def simple_extension(
    g: GeometricGraph,
    base: CertifiedGraph,
    w: int,
    witnesses: Optional[Tuple[int, int]] = None,
) -> CertifiedGraph:
    """Absorb one vertex adjacent to two covered vertices (two new edges).

    The three points must not be collinear, which is tested on the
    graph's cached integer coordinates (`linalg.int_collinear`)."""
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
    # Collinear w,a,b would leave the new vertex a sliding freedom.
    xs, _ = g.int_coords()
    if int_collinear(xs[w], xs[a], xs[b]):
        raise RuleNotApplicableError(f"vertices {w},{a},{b} are collinear")
    return _graph_step(
        "SimpleExtension",
        (base.step, w, (a, b)),
        base.vertices | {w},
        base.edges | {edge_key(a, w), edge_key(b, w)},
    )


def simple_extension_closure(g: GeometricGraph, seed: Tuple[int, int]) -> CertifiedGraph:
    """Grow from a seed edge until no vertex has two covered neighbors,
    absorbing the smallest eligible vertex first."""
    cg = seed_edge(g, *seed)
    outside = sorted(set(g.vertices) - cg.vertices)
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


def union_shared_pair(c1: CertifiedGraph, c2: CertifiedGraph) -> CertifiedGraph:
    shared = sorted(c1.vertices & c2.vertices)
    if len(shared) < 2:
        raise RuleNotApplicableError("the graphs share fewer than two vertices")
    return _graph_step(
        "UnionSharedPair",
        (c1.step, c2.step, (shared[0], shared[1])),
        c1.vertices | c2.vertices,
        c1.edges | c2.edges,
    )


def edge_replacement(
    h: CertifiedGraph, e: Tuple[int, int], g: CertifiedGraph
) -> CertifiedGraph:
    e = edge_key(*e)
    if e not in h.edges:
        raise RuleNotApplicableError(f"{e} is not an edge of the base graph")
    if not {e[0], e[1]} <= g.vertices:
        raise RuleNotApplicableError(f"replacement graph misses an endpoint of {e}")
    return _graph_step(
        "EdgeReplacement",
        (h.step, e, g.step),
        h.vertices | g.vertices,
        (h.edges - {e}) | g.edges,
    )


def independent_cycle(g: GeometricGraph, vs: Sequence[int]) -> CertifiedGraph:
    """A cycle on affinely independent points; the cycle edges need not
    belong to g and are usually replaced away afterwards."""
    vs = tuple(vs)
    if len(vs) < 3 or len(set(vs)) != len(vs):
        raise RuleNotApplicableError("need at least three distinct cycle vertices")
    if any(v not in g.vertices for v in vs):
        raise RuleNotApplicableError("cycle vertex missing from the graph")
    if not affinely_independent([g.vertices[v] for v in vs]):
        raise RuleNotApplicableError("cycle vertices are affinely dependent")
    edges = frozenset(edge_key(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
    return _graph_step("IndependentCycle", (vs,), frozenset(vs), edges)


def cycle_gluing(
    g: GeometricGraph, gs: Sequence[CertifiedGraph], vs: Sequence[int]
) -> CertifiedGraph:
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


def _close_by_coverage(cg: CertifiedGraph, p: Polytope, why: str) -> CertificateTrace:
    """Upgrade a certified subgraph to a polytope verdict.  Valid only for
    skeleton subgraphs meeting a coverage condition; replay re-checks."""
    final = dataclasses.replace(cg.step, conclusion=POLYTOPE_INDECOMPOSABLE, note=why)
    return assemble_trace(final, INDECOMPOSABLE, why)


def chain_of_triangles(p: Polytope) -> Optional[CertifiedGraph]:
    """Greedy chains of triangular facets, each sharing an edge with the
    union of its predecessors; largest chain wins, earliest start breaks
    ties.  None when no chain joins two triangles."""
    if p.dim != 3:
        raise InvalidInputError("triangle chains are a 3-polytope rule")
    tris = [i for i, f in enumerate(p.facets) if len(f) == 3]
    skel = skeleton(p)
    best: Optional[CertifiedGraph] = None
    best_key = (1, 0)
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
                    missing = {
                        edge_key(third, shared[0]),
                        edge_key(third, shared[1]),
                    } - cg.edges
                    if missing:
                        tri = simple_extension(
                            skel, seed_edge(skel, *shared), third, witnesses=shared
                        )
                        cg = union_shared_pair(cg, tri)
                used.add(j)
                grown = True
                break
        key = (len(used), len(cg.vertices))
        if len(used) >= 2 and key > best_key:
            best, best_key = cg, key
    return best


def _independent_cycles(p: Polytope, max_len: int):
    """Skeleton cycles with affinely independent vertices, emitted in
    depth-first lexicographic order; prefixes are pruned the moment they
    go affinely dependent."""
    skel = skeleton(p)
    n = len(p.vertices)
    adj = {v: set(skel.neighbors(v)) for v in range(n)}
    coords = p.vertices

    def extend(path: List[int], pts: List):
        v0, last = path[0], path[-1]
        if len(path) >= 3 and v0 in adj[last] and path[1] < last:
            yield tuple(path)
        if len(path) == max_len:
            return
        for y in sorted(adj[last]):
            if y <= v0 or y in path:
                continue
            if not affinely_independent(pts + [coords[y]]):
                continue
            yield from extend(path + [y], pts + [coords[y]])

    for v0 in range(n):
        for x in sorted(adj[v0]):
            if x > v0:
                yield from extend([v0, x], [coords[v0], coords[x]])


def independent_cycle_search(p: Polytope, max_len: int) -> Optional[CertificateTrace]:
    """First (depth-first, lexicographic) affinely independent skeleton
    cycle touching every facet, as a one-rule certificate."""
    if not 3 <= max_len <= p.dim + 1:
        raise InvalidInputError("cycle length must be between 3 and d+1")
    skel = skeleton(p)
    for vs in _independent_cycles(p, max_len):
        if touches_every_facet(vs, p):
            cg = independent_cycle(skel, vs)
            return _close_by_coverage(cg, p, "cycle touches every facet")
    return None


def two_graph_cover(
    p: Polytope, c1: CertifiedGraph, c2: CertifiedGraph
) -> CertificateTrace:
    """Close the polytope from two certified skeleton subgraphs that
    share a vertex and together miss at most d-2 vertices.  The union is
    glued (directly on two shared vertices, else through a connecting
    skeleton edge and a 3-cycle), the missing vertices are absorbed, and
    full coverage yields the verdict."""
    skel = skeleton(p)
    skel_edges = set(skel.edges)
    for c in (c1, c2):
        if not c.edges <= skel_edges:
            raise RuleNotApplicableError("certified graph is not a skeleton subgraph")
    shared = sorted(c1.vertices & c2.vertices)
    if not shared:
        raise RuleNotApplicableError("the graphs share no vertex")
    missing = sorted(set(range(len(p.vertices))) - (c1.vertices | c2.vertices))
    if len(missing) > p.dim - 2:
        raise RuleNotApplicableError(
            f"{len(missing)} vertices uncovered, more than d-2 = {p.dim - 2}"
        )
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
    final = CertificateStep(
        rule="TwoGraphCover",
        inputs=(c1.step, c2.step, glued.step),
        conclusion=POLYTOPE_INDECOMPOSABLE,
        vertices=tuple(sorted(glued.vertices)),
        edges=tuple(sorted(glued.edges)),
        note="the union absorbs every vertex",
    )
    return assemble_trace(final, INDECOMPOSABLE, "two-graph cover reaches every vertex")


def _shephard_witness(
    p: Polytope, skel: GeometricGraph, fi: int
) -> Optional[DecomposingFunction]:
    """The facet-slide condition and exact witness for one facet: every
    facet vertex needs exactly one neighbor outside, with at least two
    vertices outside.  Shared by the rule and its replay.

    The slide is built and checked over the cached integer coordinates
    X = mult * x.  With the outward normal scaled to integers a and
    b = a.X on the facet, member v slides along its outside edge to w by
    the fraction (b - alpha) / gap_w, where gap_w = b - a.X_w > 0 and
    alpha is the highest outside level.  With den the lcm of those gaps,
    every image times den * mult is an integer, so the edge scalars are
    verified in integers (`graphs._edge_scalars`).  A polytope skeleton
    is connected, and on a connected graph a decomposing function is a
    homothety iff all its edge scalars are equal, so unequal scalars are
    the whole non-homothety check.  `Fraction` images are made once, at
    return."""
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
    ints, mult = p.int_coords()
    (a,), _ = as_int_coords([p.facet_plane(fi)[0]])
    b = sum(u * x for u, x in zip(a, ints[members[0]]))
    # How far each outside vertex lies below the facet: b - a.X_w > 0.
    gap = {w: -int_side(a, b, ints[w]) for w in outside}
    drop = min(gap.values())  # b - alpha
    den = lcm(*(gap[out_nbr[v]] for v in members))
    fs = {i: tuple(c * den for c in x) for i, x in enumerate(ints)}
    for v in members:
        w = out_nbr[v]
        # Slide v along its outside edge down to the level alpha.
        k = den // gap[w] * drop
        fs[v] = tuple(cv * den + (cw - cv) * k for cv, cw in zip(ints[v], ints[w]))
    scalars = _edge_scalars(skel, dict(enumerate(ints)), mult, fs, den * mult)
    if _equal_scalars(scalars):
        raise EngineInconsistencyError("facet-slide witness degenerated to a homothety")
    return DecomposingFunction(
        {i: fraction_vec(f, den * mult) for i, f in fs.items()}, scalars
    )


def _equal_scalars(scalars: Dict[Tuple[int, int], Fraction]) -> bool:
    """Whether a decomposing function on a connected skeleton, given by
    its edge scalars, is a homothety: it is exactly when they are all
    equal."""
    return len(set(scalars.values())) <= 1


def shephard_facet(
    p: Polytope,
) -> Optional[Tuple[CertificateTrace, DecomposingFunction]]:
    """Decomposability from a facet whose vertices each have exactly one
    neighbor outside it (and at least two vertices lie outside): sliding
    the facet down to the outside level is a non-homothety decomposing
    function, built and verified in integers (`_shephard_witness`): its
    edge scalars are checked edge by edge and, the skeleton being
    connected, it is no homothety because they are not all equal."""
    skel = skeleton(p)
    for fi in range(len(p.facets)):
        witness = _shephard_witness(p, skel, fi)
        if witness is None:
            continue
        step = CertificateStep(
            rule="ShephardFacet",
            inputs=(fi, tuple(p.facets[fi])),
            conclusion=POLYTOPE_DECOMPOSABLE,
            vertices=tuple(p.facets[fi]),
            note="facet slides along its unique outside edges",
        )
        trace = assemble_trace(
            step, DECOMPOSABLE, f"facet {fi} slides to a proper summand"
        )
        return trace, witness
    return None


def pyramid_apex(p: Polytope) -> Optional[CertificateTrace]:
    """A vertex lying in every facet but one, the exception containing
    all other vertices: the polytope is a pyramid, hence indecomposable."""
    n = len(p.vertices)
    for u in range(n):
        away = [fi for fi, f in enumerate(p.facets) if u not in f]
        if len(away) != 1:
            continue
        base = p.facets[away[0]]
        if len(base) == n - 1:
            step = CertificateStep(
                rule="PyramidApex",
                inputs=(u, away[0]),
                conclusion=POLYTOPE_INDECOMPOSABLE,
                vertices=tuple(range(n)),
                note=f"vertex {u} is an apex over facet {away[0]}",
            )
            return assemble_trace(step, INDECOMPOSABLE, f"pyramid with apex {u}")
    return None


@dataclass(frozen=True)
class PyramidReductionData:
    apex: int
    reduced: Polytope
    facet: Tuple[int, ...]  # members in the reduced polytope's indexing
    facet_trace: CertificateTrace


def _stack_structure(p: Polytope, u: int) -> Optional[Tuple[Polytope, Tuple[int, ...]]]:
    """The reduced polytope and facet witnessing that p results from
    stacking a pyramid with apex u, or None.

    Checks the definition itself: removing u leaves a valid polytope in
    which u's neighbor set is a facet, and u lies strictly beyond that
    facet and strictly beneath every other facet of the reduced polytope.
    The beneath conditions are essential; without them the status
    equivalence fails (the apex would absorb other facets).

    The reduced hull is built only for a vertex that passes a cheaper
    necessary test first: u's neighbors span a unique hyperplane, u lies
    strictly off it, and every other vertex lies strictly on the far
    side.  A facet of the reduced polytope holds exactly the vertices on
    its hyperplane with the rest strictly beneath, and u must lie
    strictly beyond it, so the test rejects only what the full check
    would reject.

    Both tests run in integers.  The pretest fits the neighbors' plane on
    the cached integer coordinates X = mult * x (`linalg.int_hyperplane`,
    which stops as soon as the neighbors span more than a hyperplane).
    `from_vertices` keeps the reduced hull's planes a.x <= o / mult_r
    with an integral normal a and o an integer on the reduced polytope's
    own scale, so the apex's side of each is the sign of
    mult_r * (a.X_u) - mult * o."""
    n = len(p.vertices)
    nbrs = p.neighbors(u)
    ints, mult = p.int_coords()
    plane = int_hyperplane([ints[x] for x in nbrs])
    if plane is None:
        return None
    a, b = plane
    apex_side = int_side(a, b, ints[u])
    others = (int_side(a, b, ints[x]) for x in range(n) if x != u and x not in nbrs)
    if apex_side == 0 or any(side * apex_side >= 0 for side in others):
        return None
    kept = [x for x in range(n) if x != u]
    try:
        reduced = Polytope.from_vertices(
            p.dim,
            [p.vertices[x] for x in kept],
            name=f"{p.name or 'polytope'} minus vertex {u}",
        )
    except DegenerateInputError:
        return None
    fmem = tuple(x - (x > u) for x in nbrs)
    if fmem not in set(reduced.facets):
        return None
    apex = ints[u]
    _, mult_r = reduced.int_coords()
    for fi, members in enumerate(reduced.facets):
        normal, offset = reduced.facet_plane(fi)
        o = offset.numerator * (mult_r // offset.denominator)
        side = mult_r * sum(c.numerator * x for c, x in zip(normal, apex)) - mult * o
        if members == fmem:
            if side <= 0:
                return None
        elif side >= 0:
            return None
    return reduced, fmem


def pyramid_reduction(p: Polytope) -> Optional[PyramidReductionData]:
    """Detect a stacked apex and reduce past it.  Applicable only when
    the stacked-on facet is certified indecomposable as a
    lower-dimensional polytope; the two polytopes then share their
    decomposability status."""
    if p.dim < 3:
        return None
    for u in range(len(p.vertices)):
        data = _stack_structure(p, u)
        if data is None:
            continue
        reduced, fmem = data
        sub = analyze(facet_as_polytope(reduced, reduced.facets.index(fmem)))
        if sub.verdict != INDECOMPOSABLE or sub.trace is None:
            continue
        return PyramidReductionData(u, reduced, fmem, sub.trace)
    return None


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


def _count_rule_close(p: Polytope) -> Optional[Tuple[CertificateTrace, str]]:
    fv = p.f_vector()
    concl = next(
        (c for c in count_rules(p.dim, fv.v, fv.e, fv.f) if c.unconditional), None
    )
    if concl is None:
        return None
    rule = "SmilanskyCount" if concl.tag.startswith("Smilansky") else "LowVertexCount"
    verdict = INDECOMPOSABLE if concl.verdict == "indecomposable" else DECOMPOSABLE
    conclusion = (
        POLYTOPE_INDECOMPOSABLE if verdict == INDECOMPOSABLE else POLYTOPE_DECOMPOSABLE
    )
    step = CertificateStep(
        rule=rule,
        inputs=(p.dim, fv.v, fv.e, fv.f),
        conclusion=conclusion,
        note=concl.tag,
    )
    return assemble_trace(step, verdict, concl.tag), concl.tag


def _stages_direct(
    p: Polytope,
) -> Optional[Tuple[CertificateTrace, str, Optional[DecomposingFunction]]]:
    """Stages that need no search: apex, unconditional count rules, facet
    slide."""
    t = pyramid_apex(p)
    if t is not None:
        return t, "certificate", None
    closed = _count_rule_close(p)
    if closed is not None:
        return closed[0], "count-rule", None
    sh = shephard_facet(p)
    if sh is not None:
        return sh[0], "certificate", sh[1]
    return None


# Cap on how many cycles feed the pairwise cover stage.
CYCLE_FRAGMENT_LIMIT = 100


def _stages_search(
    p: Polytope,
) -> Optional[Tuple[CertificateTrace, str, Optional[DecomposingFunction]]]:
    """Search stages: extension closures, triangle chains, independent
    cycles, then pairwise two-graph covers over the found fragments."""
    skel = skeleton(p)
    fragments: List[CertifiedGraph] = []
    seen: Set[Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]]] = set()

    def add_fragment(cg: CertifiedGraph) -> bool:
        key = (cg.vertices, cg.edges)
        if key in seen:
            return False
        seen.add(key)
        fragments.append(cg)
        return True

    for e in skel.edges:
        cg = simple_extension_closure(skel, e)
        if not add_fragment(cg):
            continue
        if touches_every_facet(cg.vertices, p):
            return (
                _close_by_coverage(cg, p, "extension closure touches every facet"),
                "certificate",
                None,
            )
    if p.dim == 3:
        chain = chain_of_triangles(p)
        if chain is not None:
            if touches_every_facet(chain.vertices, p):
                return (
                    _close_by_coverage(chain, p, "triangle chain touches every facet"),
                    "certificate",
                    None,
                )
            add_fragment(chain)
    cycles = independent_cycle_search(p, p.dim + 1)
    if cycles is not None:
        return cycles, "certificate", None
    for vs in islice(_independent_cycles(p, p.dim + 1), CYCLE_FRAGMENT_LIMIT):
        add_fragment(independent_cycle(skel, vs))
    for i in range(len(fragments)):
        for j in range(i, len(fragments)):
            try:
                trace = two_graph_cover(p, fragments[i], fragments[j])
            except RuleNotApplicableError:
                continue
            return trace, "certificate", None
    return None


def _restriction_homothety(
    pairs: Sequence[Tuple[Vec, Vec]],
) -> Tuple[Fraction, Vec]:
    """The exact homothety x -> alpha x + c agreeing with the given
    (point, image) pairs.  The callers apply it to a facet certified
    indecomposable, where existence is guaranteed; failure to fit means
    an engine bug."""
    if len(pairs) < 2:
        raise EngineInconsistencyError("homothety fit needs two points")
    alpha = None
    for (x, gx), (y, gy) in combinations(pairs, 2):
        j = next((k for k in range(len(x)) if x[k] != y[k]), None)
        if j is not None:
            alpha = Fraction(gx[j] - gy[j], 1) / (x[j] - y[j])
            break
    if alpha is None:
        raise EngineInconsistencyError("homothety fit on coincident points")
    x0, gx0 = pairs[0]
    c = gx0 - x0 * alpha
    for x, gx in pairs:
        if x * alpha + c != gx:
            raise EngineInconsistencyError(
                "facet restriction of the witness is not a homothety"
            )
    return alpha, c


def _lift_witness(
    w: DecomposingFunction, red: PyramidReductionData, outer: Polytope
) -> DecomposingFunction:
    """Extend a decomposing function across one pyramid reduction: the
    apex follows the homothety the function restricts to on the stacked
    facet, the unique extension under the status equivalence."""
    pairs = [(red.reduced.vertices[i], w.images[i]) for i in red.facet]
    alpha, c = _restriction_homothety(pairs)
    images = {i + (1 if i >= red.apex else 0): img for i, img in w.images.items()}
    images[red.apex] = outer.vertices[red.apex] * alpha + c
    try:
        return DecomposingFunction.from_images(skeleton(outer), images)
    except InvalidInputError as exc:
        raise EngineInconsistencyError(f"witness lift failed: {exc}") from exc


def _certificate_pipeline(
    p: Polytope, search: bool
) -> Optional[Tuple[CertificateTrace, str, Optional[DecomposingFunction]]]:
    """Direct stages and pyramid reductions, then the graph search if
    `search` is set.  The search can only prove indecomposability, so
    the caller clears `search` once the oracle has said Decomposable."""
    reductions: List[PyramidReductionData] = []
    current = p
    closed = None
    while True:
        closed = _stages_direct(current)
        if closed is not None:
            break
        red = pyramid_reduction(current)
        if red is None:
            break
        reductions.append(red)
        current = red.reduced
    if closed is None and search:
        closed = _stages_search(current)
    if closed is None:
        return None
    trace, method, witness = closed
    if witness is not None:
        for i in range(len(reductions) - 1, -1, -1):
            outer = p if i == 0 else reductions[i - 1].reduced
            witness = _lift_witness(witness, reductions[i], outer)
    if reductions:
        red_steps = tuple(
            CertificateStep(
                rule="PyramidReduction",
                inputs=(r.apex, r.facet, r.facet_trace),
                conclusion=STATUS_EQUIVALENT,
                vertices=r.facet,
                note=f"apex {r.apex} stacked on an indecomposable facet; "
                "later steps index the reduced polytope",
            )
            for r in reductions
        )
        trace = CertificateTrace(
            red_steps + trace.steps,
            trace.verdict,
            trace.coverage_note + "; status carried through pyramid reduction",
        )
    return trace, method, witness


def analyze(p: Polytope, mode: str = "certificates-first") -> AnalysisReport:
    """Decide decomposability.  In certificates-first mode the rank oracle
    runs first, then the rule pipeline: the direct stages and pyramid
    reductions always, the graph search only when the oracle said
    Indecomposable, since the search can prove nothing else.  The oracle
    backstops the pipeline and cross-checks every certificate verdict;
    oracle-only skips the rules entirely.

    A certificate's witness (a facet slide, possibly lifted through
    pyramid reductions) is checked once more as handed out: `check`
    re-derives its edge scalars from its `Fraction` images, and since a
    polytope skeleton is connected, a decomposing function on it is a
    homothety iff those scalars are all equal.  Either failure, like a
    verdict the oracle contradicts, raises EngineInconsistencyError."""
    if mode not in ("certificates-first", "oracle-only"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    fv = p.f_vector()
    notes = tuple(c.render() for c in count_rules(p.dim, fv.v, fv.e, fv.f))
    o = oracle_verdict(p)
    if mode == "oracle-only":
        return AnalysisReport(o.verdict, "oracle", None, o.dimension, fv, notes, o.witness)
    closed = _certificate_pipeline(p, search=o.verdict == INDECOMPOSABLE)
    if closed is None:
        return AnalysisReport(o.verdict, "oracle", None, o.dimension, fv, notes, o.witness)
    trace, method, witness = closed
    if trace.verdict != o.verdict:
        raise EngineInconsistencyError(
            f"certificate says {trace.verdict} but the rank oracle says {o.verdict}"
        )
    if witness is not None:
        g = skeleton(p)
        if not witness.check(g) or _equal_scalars(witness.edge_scalars):
            raise EngineInconsistencyError("witness does not decompose the input")
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
    if not trace.steps:
        raise _ReplayFailure("empty trace")
    current = p
    skel = skeleton(current)
    skel_edges = set(skel.edges)
    known: Dict[int, CertificateStep] = {}

    def resolve(k, step, x) -> CertificateStep:
        if id(x) not in known:
            _fail(k, step, "references a step outside the earlier trace")
        return x

    for k, step in enumerate(trace.steps, start=1):
        allowed = _RULE_CONCLUSIONS.get(step.rule)
        if allowed is None:
            _fail(k, step, f"unknown rule {step.rule!r}")
        if step.conclusion not in allowed:
            _fail(k, step, f"a {step.rule} step cannot conclude {step.conclusion!r}")
        vset = set(step.vertices)
        eset = set(step.edges)
        if any(edge_key(*e) != e or not set(e) <= vset for e in eset):
            _fail(k, step, "edge list is not over the vertex list")
        if step.rule == "SimpleExtension":
            if step.inputs[0] == "seed":
                e = step.inputs[1]
                if e not in skel_edges:
                    _fail(k, step, f"seed {e} is not a skeleton edge")
                if vset != set(e) or eset != {e}:
                    _fail(k, step, "seed step must cover exactly its edge")
            else:
                base, w, (a, b) = step.inputs
                base = resolve(k, step, base)
                if w in set(base.vertices):
                    _fail(k, step, f"vertex {w} was already covered")
                if a == b or a not in set(base.vertices) or b not in set(base.vertices):
                    _fail(k, step, f"witnesses ({a},{b}) not two covered vertices")
                if edge_key(a, w) not in skel_edges or edge_key(b, w) not in skel_edges:
                    _fail(k, step, f"({a},{w}) or ({b},{w}) is not a skeleton edge")
                ints, _ = current.int_coords()
                if int_collinear(ints[w], ints[a], ints[b]):
                    _fail(k, step, f"{w},{a},{b} are collinear")
                if vset != set(base.vertices) | {w} or eset != set(base.edges) | {
                    edge_key(a, w),
                    edge_key(b, w),
                }:
                    _fail(k, step, "result sets do not match the extension")
        elif step.rule == "UnionSharedPair":
            c1, c2, (a, b) = step.inputs
            c1, c2 = resolve(k, step, c1), resolve(k, step, c2)
            if a == b or not {a, b} <= set(c1.vertices) & set(c2.vertices):
                _fail(k, step, f"({a},{b}) are not two shared vertices")
            if vset != set(c1.vertices) | set(c2.vertices) or eset != set(
                c1.edges
            ) | set(c2.edges):
                _fail(k, step, "result sets are not the union")
        elif step.rule == "EdgeReplacement":
            h, e, g = step.inputs
            h, g = resolve(k, step, h), resolve(k, step, g)
            if e not in set(h.edges):
                _fail(k, step, f"{e} is not an edge of the base step")
            if not set(e) <= set(g.vertices):
                _fail(k, step, "replacement misses an endpoint")
            if vset != set(h.vertices) | set(g.vertices) or eset != (
                set(h.edges) - {e}
            ) | set(g.edges):
                _fail(k, step, "result sets do not match the replacement")
        elif step.rule == "IndependentCycle":
            (vs,) = step.inputs
            if len(vs) < 3 or len(set(vs)) != len(vs):
                _fail(k, step, "not a cycle on three or more distinct vertices")
            if not affinely_independent([current.vertices[v] for v in vs]):
                _fail(k, step, "cycle vertices are affinely dependent")
            cyc = {edge_key(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))}
            if vset != set(vs) or eset != cyc:
                _fail(k, step, "result sets do not match the cycle")
        elif step.rule == "TwoGraphCover":
            c1, c2, glued = step.inputs
            c1, c2 = resolve(k, step, c1), resolve(k, step, c2)
            glued = resolve(k, step, glued)
            if not set(c1.vertices) & set(c2.vertices):
                _fail(k, step, "the covered graphs share no vertex")
            missing = set(range(len(current.vertices))) - (
                set(c1.vertices) | set(c2.vertices)
            )
            if len(missing) > current.dim - 2:
                _fail(k, step, "more than d-2 vertices uncovered")
            if set(glued.vertices) != set(range(len(current.vertices))):
                _fail(k, step, "the glued graph does not reach every vertex")
            if vset != set(glued.vertices) or eset != set(glued.edges):
                _fail(k, step, "result sets do not match the glued graph")
        elif step.rule == "ShephardFacet":
            fi, members = step.inputs
            if not 0 <= fi < len(current.facets) or tuple(current.facets[fi]) != tuple(members):
                _fail(k, step, "facet does not exist as recorded")
            if _shephard_witness(current, skel, fi) is None:
                _fail(k, step, "facet does not meet the slide condition")
        elif step.rule == "PyramidApex":
            u, base_fi = step.inputs
            away = [fi for fi, f in enumerate(current.facets) if u not in f]
            if away != [base_fi]:
                _fail(k, step, f"vertex {u} is not in every facet but {base_fi}")
            if len(current.facets[base_fi]) != len(current.vertices) - 1:
                _fail(k, step, "the base facet misses some non-apex vertex")
        elif step.rule in ("SmilanskyCount", "LowVertexCount"):
            d, v, e, f = step.inputs
            fv = current.f_vector()
            if (d, v, e, f) != (current.dim, fv.v, fv.e, fv.f):
                _fail(k, step, "recorded counts disagree with the polytope")
            match = next(
                (
                    c
                    for c in count_rules(d, v, e, f)
                    if c.unconditional and c.tag == step.note
                ),
                None,
            )
            if match is None:
                _fail(k, step, "no unconditional count rule with this tag applies")
            want = (
                POLYTOPE_INDECOMPOSABLE
                if match.verdict == "indecomposable"
                else POLYTOPE_DECOMPOSABLE
            )
            if step.conclusion != want:
                _fail(k, step, "conclusion disagrees with the count rule")
        elif step.rule == "PyramidReduction":
            apex, fmem, facet_trace = step.inputs
            if current.dim < 3:
                _fail(k, step, "reduction needs dimension at least 3")
            data = _stack_structure(current, apex)
            if data is None:
                _fail(k, step, "vertex is not a stacked pyramid apex")
            reduced, base = data
            if tuple(fmem) != base:
                _fail(k, step, "recorded facet is not the apex base in the reduction")
            if facet_trace.verdict != INDECOMPOSABLE:
                _fail(k, step, "base facet certificate does not say indecomposable")
            sub = facet_as_polytope(reduced, reduced.facets.index(tuple(fmem)))
            ok, why = replay_report(facet_trace, sub)
            if not ok:
                _fail(k, step, f"base facet certificate fails: {why}")
            # Later steps speak about the reduced polytope.
            current = reduced
            skel = skeleton(current)
            skel_edges = set(skel.edges)
            known = {}
            continue
        else:
            _fail(k, step, f"unknown rule {step.rule!r}")
        if step.conclusion == POLYTOPE_INDECOMPOSABLE and step.rule in GRAPH_RULES:
            if not eset <= skel_edges:
                _fail(k, step, "certified graph is not a skeleton subgraph")
            if not touches_every_facet(vset, current):
                _fail(k, step, "certified graph misses a facet")
        known[id(step)] = step
    final = trace.steps[-1]
    want = (
        POLYTOPE_INDECOMPOSABLE
        if trace.verdict == INDECOMPOSABLE
        else POLYTOPE_DECOMPOSABLE
    )
    if final.conclusion != want:
        raise _ReplayFailure("final step does not conclude the verdict")
