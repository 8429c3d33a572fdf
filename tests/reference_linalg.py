"""Linear-algebra helpers kept only as test references.

The library decides ranks and solves its systems over cleared integer
coordinates; these rational forms back the reference constructions the
tests compare it against (`test_graphs`, `test_polytope`), and
`test_linalg` checks them in turn.  `hyperplane_through` is the rational
hyperplane fit over `linalg.int_hyperplane`, which the library itself
uses directly.

`reference_rref_int` is integer Gauss-Jordan elimination that keeps
every row primitive throughout, written independently of the library's
one elimination (`kernels.Echelon`), which `test_kernels` checks against
it.  Every reference here that eliminates runs through it:
`reference_kernel_basis` reads an integer kernel basis off its reduced
form, `reference_rank_and_kernel` is the rational rank and kernel over
that (behind `matrix_rank` and `reference_common_hyperplane`), and
`solve_exact` back-solves a square system from it.
`reference_int_hyperplane` and `reference_affine_rank` are the fits by
full elimination over every point; the library's early-exit echelon
must give the same answers.  The exact
phase-1 simplex `_phase1_feasible` backs two LP tests: `point_in_hull`,
the membership test the hull's vertex pruning (`from_vertices`,
`extreme_points`) is checked against, and `linear_feasible`, behind
`is_geometric_edge`, the supporting-hyperplane edge test the
combinatorial edge rule is checked against.

`reference_facet_scan` is the double-description hull with the
combinatorial adjacency test run by a scan over every facet mask for
every candidate pair; `kernels.facet_scan` skips the scan when a facet
of the pair is simplicial and must return the same list in the same
order.

`reference_int_collinear` is the collinearity test on two difference
lists, tested on every 2x2 minor with u's first nonzero entry.  The
library has none: three vertices of a polytope are never collinear, and
every polytope is checked when it is made.  The arbitrary graphs
`test_graphs` builds draw no collinear 3-cycle by it, and
`reference_replay` keeps the simple extension's collinearity condition
with it.

`reference_shephard_facet` is the facet-slide search that tries the rule
on every facet; `certificates.shephard_facet` skips a facet by vertex
degree first and must return the same trace and slide.

`reference_cycle_rows` is Kallay's system, one block of rows per
fundamental cycle, every nonzero row kept, repeats included;
`graphs.cycle_rows` writes one block per (vertex, class) incidence and
keeps each distinct row once, and the kernels eliminated from the two
must agree.

`reference_independent_cycles` is the skeleton-cycle enumeration that
re-ranks every prefix on the `Fraction` coordinates (`affinely_independent`
on the whole path at each extension); the certificate search's one
incremental integer echelon must yield the same cycles in the same order.

`reference_replay` is the trace replay with each rule's conditions
written out by hand, step by step; the library's replay re-derives every
step with the rule function that made it instead, and must accept every
trace the engine emits and nothing this reference rejects.

`reference_plane` is a facet's outward hyperplane by a rational kernel
over its points (`reference_common_hyperplane`), and `reference_int_plane`
the same plane as the primitive integer vector on the polytope's
`int_coords` scale, the form `Polytope.int_plane` keeps.

`reference_from_images` derives a decomposing function's edge scalars
from its images in `Fraction`s, edge by edge; the library builds every
function it hands out with its scalars.  `reference_check` is the
witness check by scalars so derived afresh and compared as dicts;
`DecomposingFunction.check` decides it in integers and must agree.

`reference_lift_witness` lifts a witness across one pyramid reduction
in `Fraction`s, with the homothety fitted pairwise on the stacked facet;
the library lifts in integers on its one homothety fit
(`graphs._homothety_fit`) and must hand out the same witness.

`unchecked` builds a polytope object from rational points and a facet
list through the library's one unchecked path (`Polytope._of_ints`), as
the tests need objects that are not polytopes: the disconnected skeleton
the skeleton still refuses, the arbitrary graphs of `test_graphs`, and
the broken facet lists `validate` names.  `Polytope(...)` refuses every
one of them.

Helpers the library does not need are kept here for the tests that
state properties with them: `incidence_isomorphic` (vertex-facet
incidence isomorphism by backtracking), `simple_vertex_spectrum_below_3d`
(the vertex counts of simple d-polytopes below 3d vertices), `is_simple`
(every vertex has degree d),
`is_homothety` (the homothety residue of `graphs.homothety_residue` is
zero), `is_zero`, `vertex_degree`, `translate` and `graph_vertices` (a
skeleton's rational vertices, which the library's skeleton does not
keep).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from minkdecomp import certificates
from minkdecomp.counts import count_rules
from minkdecomp.errors import EngineInconsistencyError, InvalidInputError, RuleNotApplicableError
from minkdecomp.graphs import (
    DecomposingFunction,
    GeometricGraph,
    edge_key,
    homothety_residue,
    skeleton,
    touches_every_facet,
)
from minkdecomp.kernels import Echelon, rref_int
from minkdecomp.linalg import (
    Rational,
    Vec,
    affinely_independent,
    as_int_coords,
    clear_denominators,
    fraction_vec,
    int_hyperplane,
)
from minkdecomp.polytope import Polytope, facet_as_polytope


def reference_kernel_basis(rows, ncols):
    """Pivot columns and an integer kernel basis read off the reduced form
    of `reference_rref_int`: per non-pivot column f, in column order, the
    vector that is lcm(pivots) at f, 0 at the other non-pivot columns and
    solves each reduced row at its pivot."""
    pivot_cols, reduced = reference_rref_int([r for r in rows if any(r)], ncols)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        used = [(row, c) for row, c in zip(reduced, pivot_cols) if row[f]]
        scale = lcm(*(row[c] for row, c in used))
        vec = [0] * ncols
        vec[f] = scale
        for row, c in used:
            vec[c] = -row[f] * (scale // row[c])
        basis.append(vec)
    return pivot_cols, basis


def reference_rank_and_kernel(rows: Sequence[Sequence[Rational]], ncols: int):
    """Rank and rational kernel basis over `reference_kernel_basis`, each
    vector 1 at its non-pivot column."""
    pivot_cols, basis = reference_kernel_basis(clear_denominators(rows), ncols)
    free = [f for f in range(ncols) if f not in pivot_cols]
    return len(pivot_cols), [fraction_vec(vec, vec[f]) for f, vec in zip(free, basis)]


def matrix_rank(rows: Sequence[Sequence[Rational]], ncols: Optional[int] = None) -> int:
    if not rows:
        return 0
    return reference_rank_and_kernel(rows, len(rows[0]) if ncols is None else ncols)[0]


def solve_exact(
    rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> List[Rational]:
    """Unique solution of a square nonsingular system; ValueError otherwise."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("system is not square")
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    int_rows = [r for r in clear_denominators(aug) if any(r)]
    pivot_cols, reduced = reference_rref_int(int_rows, n + 1)
    if tuple(pivot_cols) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [Fraction(reduced[i][n], reduced[i][i]) for i in range(n)]


def hyperplane_through(points: Sequence[Sequence[Rational]]) -> Optional[Tuple[Vec, Rational]]:
    """The hyperplane a.x = b through the given points, if unique.

    Returns (a, b) with the first nonzero entry of a normalized to +1,
    which makes equal hyperplanes literally equal.  Returns None when the
    points do not affinely span exactly a hyperplane: uniqueness holds
    for any number of points precisely when the incidence system below
    has a one-dimensional kernel.
    """
    if not points:
        return None
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed dimension")
    ints, mult = as_int_coords(points)
    plane = int_hyperplane(ints)
    if plane is None:
        return None
    a, b = plane
    lead = next(x for x in a if x)
    return fraction_vec(a, lead), Fraction(b, lead * mult)


def reference_common_hyperplane(pts):
    """The unique hyperplane through all the points, by a rational kernel,
    with the first nonzero normal entry scaled to 1."""
    if not pts:
        return None
    d = len(pts[0])
    rows = [list(p) + [Fraction(-1)] for p in pts]
    _, basis = reference_rank_and_kernel(rows, d + 1)
    if len(basis) != 1:
        return None
    vec = basis[0]
    normal, offset = Vec(vec[:d]), vec[d]
    lead = next((x for x in normal if x), None)
    if lead is None:
        return None
    return normal / lead, offset / lead


def reference_plane(p, members) -> Tuple[Vec, Rational]:
    """Outward rational hyperplane (a, b) of a facet: a.x <= b on p, with
    equality on the facet, normal lead entry +1 or -1."""
    normal, offset = reference_common_hyperplane([p.vertices[i] for i in members])
    outside = next((i for i in range(len(p.vertices)) if i not in set(members)), None)
    if outside is not None and normal.dot(p.vertices[outside]) > offset:
        normal, offset = -normal, -offset
    return normal, offset


def reference_int_plane(p, members) -> Tuple[Tuple[int, ...], int]:
    """`reference_plane` on the scale X = mult * x of `as_int_coords`,
    scaled to a primitive integer vector (a, o): a.X <= o on p."""
    normal, offset = reference_plane(p, members)
    _, mult = as_int_coords(p.vertices)
    row = list(normal) + [offset * mult]
    den = lcm(*(c.denominator for c in row))
    ints = [c.numerator * (den // c.denominator) for c in row]
    g = gcd(*ints)
    return tuple(c // g for c in ints[:-1]), ints[-1] // g


def reference_affine_rank(points: Sequence[Sequence[int]], d: int) -> int:
    """Affine rank of integer points by one elimination over all the
    differences from the first point."""
    if not points:
        return 0
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return len(reference_rref_int([r for r in diffs if any(r)], d)[0])


def reference_int_hyperplane(points: Sequence[Sequence[int]]) -> Optional[Tuple[List[int], int]]:
    """`linalg.int_hyperplane` read off the kernel basis of the whole
    incidence system p.a - b = 0, one row per point."""
    if not points:
        return None
    d = len(points[0])
    _, kernel = reference_kernel_basis([list(p) + [-1] for p in points], d + 1)
    if len(kernel) != 1:
        return None
    h = kernel[0]
    lead = next((x for x in h[:d] if x), None)
    if lead is None:
        return None
    g = gcd(*h) if lead > 0 else -gcd(*h)
    return [x // g for x in h[:d]], h[d] // g


def _phase1_feasible(rows: List[List[Fraction]], rhs: List[Fraction]) -> bool:
    """Exact phase-1 simplex: is {x >= 0 : A.x = b} nonempty?

    Bland's rule on entering and leaving variables, so termination is
    guaranteed despite degeneracy.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return True
    # Flip rows so every right-hand side is nonnegative, then append an
    # identity of artificial variables; minimize their sum.
    tab = []
    for i in range(m):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-x for x in row]
            b = -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(row + art + [b])
    basis = list(range(n, n + m))
    total = n + m
    # Reduced cost row for the artificial objective, with the artificial
    # basis already priced out: cost_j = c_j - sum_i tab[i][j].
    cost = []
    for j in range(total):
        cj = Fraction(1) if j >= n else Fraction(0)
        cost.append(cj - sum(tab[i][j] for i in range(m)))
    objective = -sum((tab[i][-1] for i in range(m)), Fraction(0))

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # Cannot happen: the artificial objective is bounded below by 0.
            raise ArithmeticError("unbounded phase-1 objective")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if cost[enter]:
            f = cost[enter]
            for j in range(total):
                cost[j] -= f * tab[leave][j]
            objective -= f * tab[leave][-1]
        basis[leave] = enter
    return objective == 0


def point_in_hull(p: Sequence[Rational], points: Sequence[Sequence[Rational]]) -> bool:
    """True iff p is a convex combination of the given points (exact LP)."""
    if not points:
        return False
    pt = Vec(p)
    pts = [Vec(q) for q in points]
    d = len(pt)
    if any(len(q) != d for q in pts):
        raise ValueError("points of mixed dimension")
    # sum mu_i q_i = p, sum mu_i = 1, mu >= 0
    rows = [[q[r] for q in pts] for r in range(d)]
    rows.append([Fraction(1)] * len(pts))
    rhs = list(pt) + [Fraction(1)]
    return _phase1_feasible(rows, rhs)


def linear_feasible(
    eq_rows: Sequence[Sequence[Rational]],
    eq_rhs: Sequence[Rational],
    le_rows: Sequence[Sequence[Rational]],
    le_rhs: Sequence[Rational],
    nvars: int,
) -> bool:
    """Is there an unrestricted x with Aeq.x = beq and Ale.x <= ble?

    Free variables are split into differences of nonnegative ones and
    inequalities get slack variables, then phase-1 simplex decides.
    """
    rows = []
    rhs = []
    nslack = len(le_rows)
    for row, b in zip(eq_rows, eq_rhs, strict=True):
        split = []
        for c in row:
            split.extend((Fraction(c), -Fraction(c)))
        rows.append(split + [Fraction(0)] * nslack)
        rhs.append(Fraction(b))
    for k, (row, b) in enumerate(zip(le_rows, le_rhs, strict=True)):
        split = []
        for c in row:
            split.extend((Fraction(c), -Fraction(c)))
        slack = [Fraction(0)] * nslack
        slack[k] = Fraction(1)
        rows.append(split + slack)
        rhs.append(Fraction(b))
    if any(len(r) != 2 * nvars + nslack for r in rows):
        raise ValueError("row length does not match nvars")
    return _phase1_feasible(rows, rhs)


def is_geometric_edge(p, u: int, v: int) -> bool:
    """Supporting-hyperplane test: some (a, b) has a.u = a.v = b and
    a.w <= b - 1 for every other vertex (the margin is scale-free since
    (a, b) ranges over all of R^{d+1})."""
    d = p.dim
    pu, pv = p.vertices[u], p.vertices[v]
    eq_rows = [list(pu) + [-1], list(pv) + [-1]]
    eq_rhs = [Fraction(0), Fraction(0)]
    le_rows = []
    le_rhs = []
    for w, pw in enumerate(p.vertices):
        if w in (u, v):
            continue
        le_rows.append(list(pw) + [-1])
        le_rhs.append(Fraction(-1))
    return linear_feasible(eq_rows, eq_rhs, le_rows, le_rhs, d + 1)


def _primitive(row):
    """Divide row by the gcd of its entries, first nonzero made positive."""
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g == 0:
        return
    lead = next(x for x in row if x)
    if lead < 0:
        g = -g
    if g != 1:
        for j, x in enumerate(row):
            row[j] = x // g


def reference_rref_int(rows, ncols):
    """Integer Gauss-Jordan elimination that makes every updated row
    primitive: (pivot_cols, reduced), each reduced row primitive with a
    positive pivot and every pivot column zero in the other rows."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivot_cols = []
    rank = 0
    for col in range(ncols):
        best = -1
        for i in range(rank, nrows):
            x = mat[i][col]
            if x != 0 and (best < 0 or abs(x) < abs(mat[best][col])):
                best = i
        if best < 0:
            continue
        mat[rank], mat[best] = mat[best], mat[rank]
        piv_row = mat[rank]
        _primitive(piv_row)
        p = piv_row[col]
        for i in range(nrows):
            if i == rank:
                continue
            q = mat[i][col]
            if q == 0:
                continue
            row = mat[i]
            for j in range(ncols):
                row[j] = row[j] * p - q * piv_row[j]
            _primitive(row)
        pivot_cols.append(col)
        rank += 1
    return pivot_cols, mat[:rank]


def reference_facet_scan(coords, d):
    """`kernels.facet_scan` as it was before simplicial pairs were
    accepted without a scan: every positive/negative pair whose common
    mask has at least d-1 points is adjacent iff that common mask lies in
    no third facet's mask, and that is checked by scanning every mask.
    The library must return the same list, in the same order."""
    rows = [tuple(x) + (-1,) for x in coords]
    ech = Echelon()
    start = []
    for i, row in enumerate(rows):
        if ech.add(row):
            start.append(i)
            if len(start) > d:
                break
    else:
        raise ValueError("input not full-dimensional")
    aug = [list(rows[i]) + [int(j == r) for j in range(d + 1)] for r, i in enumerate(start)]
    _, red = rref_int(aug, 2 * (d + 1))
    scale = lcm(*(red[r][r] for r in range(d + 1)))
    full = sum(1 << i for i in start)

    def primitive(h):
        g = gcd(*h)
        return tuple(x // g for x in h)

    facets = []
    for k, i in enumerate(start):
        h = [-red[r][d + 1 + k] * (scale // red[r][r]) for r in range(d + 1)]
        facets.append((primitive(h), full & ~(1 << i)))
    for k in sorted(set(range(len(rows))) - set(start)):
        q = rows[k]
        bit = 1 << k
        pos = []
        neg = []
        kept = []
        for f in facets:
            s = sum(a * b for a, b in zip(f[0], q))
            if s > 0:
                pos.append((f, s))
            elif s < 0:
                neg.append((f, s))
                kept.append(f)
            else:
                kept.append((f[0], f[1] | bit))
        masks = [f[1] for f in facets]
        for (hp, mp), sp in pos:
            for (hn, mn), sn in neg:
                common = mp & mn
                if common.bit_count() < d - 1:
                    continue
                if sum(m & common == common for m in masks) <= 2:
                    h = [sp * y - sn * x for x, y in zip(hp, hn)]
                    kept.append((primitive(h), common | bit))
        facets = kept
    return [(m, h[:d], h[d]) for h, m in facets]


def reference_int_collinear(p: Sequence[int], q: Sequence[int], r: Sequence[int]) -> bool:
    """Whether three integer points lie on one line, coincident points
    included: q - p and r - p are parallel or one of them is zero, which
    every 2x2 minor of the two differences vanishing says."""
    u = [x - y for x, y in zip(q, p)]
    v = [x - y for x, y in zip(r, p)]
    j = next((i for i, c in enumerate(u) if c), None)
    if j is None:
        return True
    return all(u[j] * y == v[j] * x for x, y in zip(u, v))


def reference_shephard_facet(p: Polytope):
    """`certificates.shephard_facet` trying `_shephard_rule` on every
    facet, with no degree pretest."""
    skel = skeleton(p)
    for fi in range(len(p.facets)):
        try:
            step, slide = certificates._shephard_rule(p, skel, fi)
        except RuleNotApplicableError:
            continue
        why = f"facet {fi} slides to a proper summand"
        return certificates.assemble_trace(step, certificates.DECOMPOSABLE, why), slide
    return None


def reference_cycle_rows(xs, tree, col_of, ncols):
    """`graphs.cycle_rows` as it was before it wrote one block per
    (vertex, class) incidence and dropped repeated rows: d rows per
    non-tree edge, the scalar-weighted edge directions summed around its
    fundamental cycle (path(u) - path(v) + x_v - x_u over the BFS tree,
    whose edges it reads off the parent map), all-zero rows dropped and
    every other row kept, repeats included."""
    parent, order, comp_edges = tree
    tree_edges = {edge_key(v, parent[v]) for v in order[1:]}
    d = len(xs[order[0]])
    path = {order[0]: [[0] * ncols for _ in range(d)]}
    for v in order[1:]:
        u = parent[v]
        k = col_of[edge_key(u, v)]
        block = path[v] = [row[:] for row in path[u]]
        for row, xu, xv in zip(block, xs[u], xs[v]):
            row[k] += xv - xu
    rows = []
    for e in comp_edges:
        if e in tree_edges:
            continue
        u, v = e
        k = col_of[e]
        for pu, pv, xu, xv in zip(path[u], path[v], xs[u], xs[v]):
            row = [a - b for a, b in zip(pu, pv)]
            row[k] += xv - xu
            if any(row):
                rows.append(row)
    return rows


def reference_independent_cycles(p: Polytope, max_len: int):
    """Skeleton cycles with affinely independent vertices, emitted in
    depth-first lexicographic order; each extension re-tests the whole
    prefix's `Fraction` coordinates."""
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


class _ReplayFailure(Exception):
    pass


def reference_replay(trace, p: Polytope) -> Tuple[bool, str]:
    """Trace replay with each rule's conditions written out by hand
    instead of re-derived by the rule functions; (ok, message) as
    `certificates.replay_report` gives it."""
    try:
        _reference_replay_checked(trace, p)
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


# The rules whose steps certify their subgraph; such a step may conclude
# polytope-indecomposable only if the subgraph lies in the skeleton and
# touches every facet.
_GRAPH_RULES = {"SimpleExtension", "UnionSharedPair", "EdgeReplacement", "IndependentCycle",
                "TwoGraphCover"}


def _reference_replay_checked(trace, p: Polytope) -> None:
    def fail(k, step, why):
        raise _ReplayFailure(f"step_{k} ({step.rule}): {why}")

    if not trace.steps:
        raise _ReplayFailure("empty trace")
    current = p
    skel = skeleton(current)
    skel_edges = set(skel.edges)
    known = {}

    def resolve(k, step, x):
        if id(x) not in known:
            fail(k, step, "references a step outside the earlier trace")
        return x

    for k, step in enumerate(trace.steps, start=1):
        allowed = certificates._RULE_CONCLUSIONS.get(step.rule)
        if allowed is None:
            fail(k, step, f"unknown rule {step.rule!r}")
        if step.conclusion not in allowed:
            fail(k, step, f"a {step.rule} step cannot conclude {step.conclusion!r}")
        vset = set(step.vertices)
        eset = set(step.edges)
        if any(edge_key(*e) != e or not set(e) <= vset for e in eset):
            fail(k, step, "edge list is not over the vertex list")
        if step.rule == "SimpleExtension":
            if step.inputs[0] == "seed":
                e = step.inputs[1]
                if e not in skel_edges:
                    fail(k, step, f"seed {e} is not a skeleton edge")
                if vset != set(e) or eset != {e}:
                    fail(k, step, "seed step must cover exactly its edge")
            else:
                base, w, (a, b) = step.inputs
                base = resolve(k, step, base)
                if w in set(base.vertices):
                    fail(k, step, f"vertex {w} was already covered")
                if a == b or a not in set(base.vertices) or b not in set(base.vertices):
                    fail(k, step, f"witnesses ({a},{b}) not two covered vertices")
                if edge_key(a, w) not in skel_edges or edge_key(b, w) not in skel_edges:
                    fail(k, step, f"({a},{w}) or ({b},{w}) is not a skeleton edge")
                ints, _ = current.int_coords()
                if reference_int_collinear(ints[w], ints[a], ints[b]):
                    fail(k, step, f"{w},{a},{b} are collinear")
                if vset != set(base.vertices) | {w} or eset != set(base.edges) | {
                    edge_key(a, w),
                    edge_key(b, w),
                }:
                    fail(k, step, "result sets do not match the extension")
        elif step.rule == "UnionSharedPair":
            c1, c2, (a, b) = step.inputs
            c1, c2 = resolve(k, step, c1), resolve(k, step, c2)
            if a == b or not {a, b} <= set(c1.vertices) & set(c2.vertices):
                fail(k, step, f"({a},{b}) are not two shared vertices")
            if vset != set(c1.vertices) | set(c2.vertices) or eset != set(
                c1.edges
            ) | set(c2.edges):
                fail(k, step, "result sets are not the union")
        elif step.rule == "EdgeReplacement":
            h, e, g = step.inputs
            h, g = resolve(k, step, h), resolve(k, step, g)
            if e not in set(h.edges):
                fail(k, step, f"{e} is not an edge of the base step")
            if not set(e) <= set(g.vertices):
                fail(k, step, "replacement misses an endpoint")
            if vset != set(h.vertices) | set(g.vertices) or eset != (
                set(h.edges) - {e}
            ) | set(g.edges):
                fail(k, step, "result sets do not match the replacement")
        elif step.rule == "IndependentCycle":
            (vs,) = step.inputs
            if len(vs) < 3 or len(set(vs)) != len(vs):
                fail(k, step, "not a cycle on three or more distinct vertices")
            ints, _ = current.int_coords()
            if not affinely_independent([ints[v] for v in vs]):
                fail(k, step, "cycle vertices are affinely dependent")
            cyc = {edge_key(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))}
            if vset != set(vs) or eset != cyc:
                fail(k, step, "result sets do not match the cycle")
        elif step.rule == "TwoGraphCover":
            c1, c2, glued = step.inputs
            c1, c2 = resolve(k, step, c1), resolve(k, step, c2)
            glued = resolve(k, step, glued)
            if not set(c1.vertices) & set(c2.vertices):
                fail(k, step, "the covered graphs share no vertex")
            missing = set(range(len(current.vertices))) - (
                set(c1.vertices) | set(c2.vertices)
            )
            if len(missing) > current.dim - 2:
                fail(k, step, "more than d-2 vertices uncovered")
            if set(glued.vertices) != set(range(len(current.vertices))):
                fail(k, step, "the glued graph does not reach every vertex")
            if vset != set(glued.vertices) or eset != set(glued.edges):
                fail(k, step, "result sets do not match the glued graph")
        elif step.rule == "ShephardFacet":
            fi, members = step.inputs
            if not 0 <= fi < len(current.facets) or tuple(current.facets[fi]) != tuple(members):
                fail(k, step, "facet does not exist as recorded")
            if certificates._shephard_slide(current, skel, fi) is None:
                fail(k, step, "facet does not meet the slide condition")
        elif step.rule == "PyramidApex":
            u, base_fi = step.inputs
            away = [fi for fi, f in enumerate(current.facets) if u not in f]
            if away != [base_fi]:
                fail(k, step, f"vertex {u} is not in every facet but {base_fi}")
            if len(current.facets[base_fi]) != len(current.vertices) - 1:
                fail(k, step, "the base facet misses some non-apex vertex")
        elif step.rule in ("SmilanskyCount", "LowVertexCount"):
            d, v, e, f = step.inputs
            fv = current.f_vector()
            if (d, v, e, f) != (current.dim, fv.v, fv.e, fv.f):
                fail(k, step, "recorded counts disagree with the polytope")
            match = next(
                (
                    c
                    for c in count_rules(d, v, e, f)
                    if c.unconditional and c.tag == step.note
                ),
                None,
            )
            if match is None:
                fail(k, step, "no unconditional count rule with this tag applies")
            want = (
                certificates.POLYTOPE_INDECOMPOSABLE
                if match.verdict == "indecomposable"
                else certificates.POLYTOPE_DECOMPOSABLE
            )
            if step.conclusion != want:
                fail(k, step, "conclusion disagrees with the count rule")
        elif step.rule == "PyramidReduction":
            apex, fmem, facet_trace = step.inputs
            if current.dim < 3:
                fail(k, step, "reduction needs dimension at least 3")
            data = certificates._stack_structure(current, apex)
            if data is None:
                fail(k, step, "vertex is not a stacked pyramid apex")
            reduced, base = data
            if tuple(fmem) != base:
                fail(k, step, "recorded facet is not the apex base in the reduction")
            if facet_trace.verdict != certificates.INDECOMPOSABLE:
                fail(k, step, "base facet certificate does not say indecomposable")
            sub = facet_as_polytope(reduced, reduced.facets.index(tuple(fmem)))
            ok, why = reference_replay(facet_trace, sub)
            if not ok:
                fail(k, step, f"base facet certificate fails: {why}")
            # Later steps speak about the reduced polytope.
            current = reduced
            skel = skeleton(current)
            skel_edges = set(skel.edges)
            known = {}
            continue
        else:
            fail(k, step, f"unknown rule {step.rule!r}")
        if step.conclusion == certificates.POLYTOPE_INDECOMPOSABLE and step.rule in _GRAPH_RULES:
            if not eset <= skel_edges:
                fail(k, step, "certified graph is not a skeleton subgraph")
            if not touches_every_facet(vset, current):
                fail(k, step, "certified graph misses a facet")
        known[id(step)] = step
    final = trace.steps[-1]
    want = (
        certificates.POLYTOPE_INDECOMPOSABLE
        if trace.verdict == certificates.INDECOMPOSABLE
        else certificates.POLYTOPE_DECOMPOSABLE
    )
    if final.conclusion != want:
        raise _ReplayFailure("final step does not conclude the verdict")


def incidence_isomorphic(p: Polytope, q: Polytope) -> bool:
    """Vertex-facet incidence isomorphism by backtracking; small inputs only.

    Sound and complete for deciding combinatorial equivalence at the
    vertex-facet level, which determines the whole face lattice for
    polytopes.
    """
    np_, nq = len(p), len(q)
    if np_ != nq or len(p.facets) != len(q.facets):
        return False
    p_sizes = sorted(len(f) for f in p.facets)
    q_sizes = sorted(len(f) for f in q.facets)
    if p_sizes != q_sizes:
        return False
    p_facets = [frozenset(f) for f in p.facets]
    q_facets = set(frozenset(f) for f in q.facets)

    # Signature pruning: per vertex, the multiset of sizes of its facets.
    def signature(facets, v):
        return tuple(sorted(len(f) for f in facets if v in f))

    p_sig = [signature(p_facets, v) for v in range(np_)]
    q_sig = [signature(q_facets, v) for v in range(nq)]
    candidates = [
        [w for w in range(nq) if q_sig[w] == p_sig[v]] for v in range(np_)
    ]
    if any(not c for c in candidates):
        return False
    order = sorted(range(np_), key=lambda v: len(candidates[v]))
    mapping: Dict[int, int] = {}
    used = set()

    def feasible(v, w):
        # Every fully-mapped P-facet through v must land inside some Q-facet.
        for f in p_facets:
            if v not in f:
                continue
            image = {mapping[x] for x in f if x in mapping} | {w}
            if not any(image <= g for g in q_facets):
                return False
        return True

    def extend(k):
        if k == np_:
            return all(frozenset(mapping[x] for x in f) in q_facets for f in p_facets)
        v = order[k]
        for w in candidates[v]:
            if w in used or not feasible(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if extend(k + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return extend(0)


def simple_vertex_spectrum_below_3d(d: int) -> set:
    """Achievable vertex counts of simple d-polytopes below 3d vertices."""
    if d < 3:
        raise ValueError("needs d >= 3")
    spectrum = {d + 1, 2 * d, 3 * d - 3, 3 * d - 1}
    if d == 6:
        spectrum.add(3 * d - 2)
    return spectrum


def is_simple(p) -> bool:
    degree = [0] * len(p.vertices)
    for a, b in p.edges():
        degree[a] += 1
        degree[b] += 1
    return all(deg == p.dim for deg in degree)


def decomposing_system_matrix(vertices, edges):
    """The naive linear system on the points `vertices` (by index) joined
    by `edges`, which need not form a skeleton: unknowns are all vertex
    images plus one scalar per edge, d equations per edge.  Used to
    cross-check the cycle-space computation; exponentially slower to
    eliminate."""
    d = len(vertices[0])
    vcol = [i * d for i in range(len(vertices))]
    ecol_base = len(vertices) * d
    ecol = {e: ecol_base + i for i, e in enumerate(edges)}
    ncols = ecol_base + len(edges)
    rows = []
    for u, v in edges:
        direction = vertices[u] - vertices[v]
        for j in range(d):
            row = [Fraction(0)] * ncols
            row[vcol[u] + j] = Fraction(1)
            row[vcol[v] + j] = Fraction(-1)
            row[ecol[(u, v)]] = -direction[j]
            rows.append(row)
    return rows, ncols


def naive_dimension(vertices, edges):
    """The dimension of the decomposing space of any graph on the points
    `vertices`, connected or not: the kernel of the naive system
    (`decomposing_system_matrix`), read off the test-side elimination."""
    rows, ncols = decomposing_system_matrix(vertices, edges)
    _, basis = reference_rank_and_kernel(rows, ncols)
    return len(basis)


def graph_vertices(g: GeometricGraph) -> Tuple[Vec, ...]:
    """The rational vertices x = X / mult of a skeleton's integer points."""
    return tuple(fraction_vec(x, g.mult) for x in g.points)


def reference_from_images(g: GeometricGraph, images) -> DecomposingFunction:
    """The decomposing function with the given images, each edge's scalar
    derived in `Fraction`s from its first nonzero coordinate and checked
    on every other; InvalidInputError when an image is missing or of the
    wrong length, or an edge does not decompose."""
    for v in range(len(g.points)):
        if v not in images:
            raise InvalidInputError(f"no image for vertex {v}")
        if len(images[v]) != g.dim:
            raise InvalidInputError(
                f"image of vertex {v} has {len(images[v])} coordinates, not {g.dim}"
            )
    scalars = {}
    for u, v in g.edges:
        dx = [a - b for a, b in zip(*(graph_vertices(g)[i] for i in (u, v)))]
        df = [Fraction(a) - b for a, b in zip(images[u], images[v])]
        j = next(k for k, c in enumerate(dx) if c)
        s = df[j] / dx[j]
        if any(c * s != e for c, e in zip(dx, df)):
            raise InvalidInputError(f"images do not decompose along edge ({u},{v})")
        scalars[(u, v)] = s
    return DecomposingFunction(images, scalars)


def reference_check(f: DecomposingFunction, g: GeometricGraph) -> bool:
    """Whether f decomposes g with its recorded edge scalars, by deriving
    the scalars afresh (`reference_from_images`) and comparing the two
    dicts; `DecomposingFunction.check`, which decides the same in
    integers by cross-multiplication, must give the same answer."""
    try:
        derived = reference_from_images(g, f.images)
    except InvalidInputError:
        return False
    return derived.edge_scalars == f.edge_scalars


def _reference_restriction_homothety(pairs) -> Tuple[Fraction, Vec]:
    """The exact homothety x -> alpha x + c agreeing with the given
    (point, image) pairs, fitted from the first pair of distinct points
    in `Fraction`s and then checked on every pair."""
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
            raise EngineInconsistencyError("facet restriction of the witness is not a homothety")
    return alpha, c


def reference_lift_witness(w: DecomposingFunction, red, outer: Polytope) -> DecomposingFunction:
    """The lift of a decomposing function across one pyramid reduction,
    given by its PyramidReduction step, in `Fraction`s: the apex image
    follows the homothety fitted pairwise on the stacked facet's rational
    vertices, and the edge scalars are derived afresh
    (`reference_from_images`).  The library's
    `certificates._lift_witness` lifts in integers on the one homothety
    fit and must hand out the same images and scalars."""
    apex, facet, _ = red.inputs
    pairs = [(outer.vertices[i + (i >= apex)], w.images[i]) for i in facet]
    alpha, c = _reference_restriction_homothety(pairs)
    images = {i + (1 if i >= apex else 0): img for i, img in w.images.items()}
    images[apex] = outer.vertices[apex] * alpha + c
    try:
        return reference_from_images(skeleton(outer), images)
    except InvalidInputError as exc:
        raise EngineInconsistencyError(f"witness lift failed: {exc}") from exc


def is_homothety(g: GeometricGraph, f: DecomposingFunction) -> bool:
    residue = homothety_residue(g, f)
    return all(is_zero(img) for img in residue.images.values())


def is_zero(v: Sequence[Rational]) -> bool:
    return not any(v)


def vertex_degree(p, v: int) -> int:
    return len(p.neighbors(v))


def unchecked(dim: int, vertices, facets, name: Optional[str] = None) -> Polytope:
    """The polytope object with these rational vertices and facets as
    given, built with no check (`Polytope._of_ints`)."""
    return Polytope._of_ints(dim, *as_int_coords(vertices), tuple(facets), name)


def translate(p, shift: Sequence[Rational]) -> Polytope:
    """p shifted by a vector, its facet lists kept."""
    t = Vec(shift)
    return Polytope(p.dim, tuple(v + t for v in p.vertices), p.facets, p.name)
