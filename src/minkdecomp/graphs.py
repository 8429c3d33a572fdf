"""Geometric graphs and the decomposing-function oracle.

A geometric graph carries coordinates on its vertices; a decomposing
function maps each vertex somewhere such that every edge's image
difference is a scalar multiple of the edge direction.  The space of
decomposing functions always contains the homotheties x -> a*x + b; a
connected, affinely spanning graph is indecomposable exactly when there
is nothing else, i.e. when the space has dimension d + 1.

The space is computed per connected component through the cycle space:
an edge-scalar assignment extends to a decomposing function iff it sums
to zero (weighted by edge directions) around every fundamental cycle,
and the extension is then unique up to translation.  This solves a
system over the edge scalars only, much smaller than the naive system
over all vertex images, with an identical kernel dimension; the naive
system is kept alongside for cross-checking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidInputError
from .linalg import Rational, Vec, matrix_rank, rank_and_kernel, solve_exact, zero_vec
from .polytope import Polytope


def edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GeometricGraph:
    dim: int
    vertices: Dict[int, Vec]
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(edge_key(*e) for e in set(self.edges))))
        for u, v in self.edges:
            if u == v:
                raise InvalidInputError(f"loop edge at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise InvalidInputError(f"edge ({u},{v}) has a missing endpoint")
            if self.vertices[u] == self.vertices[v]:
                raise InvalidInputError(f"edge ({u},{v}) endpoints share coordinates")

    def neighbors(self, v: int) -> List[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def components(self) -> List[List[int]]:
        """Connected components (vertex id lists, each sorted), sorted."""
        adjacency: Dict[int, List[int]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        seen = set()
        comps = []
        for start in sorted(self.vertices):
            if start in seen:
                continue
            queue = deque([start])
            seen.add(start)
            comp = []
            while queue:
                x = queue.popleft()
                comp.append(x)
                for y in sorted(adjacency[x]):
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def spans_ambient(self) -> bool:
        pts = [self.vertices[v] for v in sorted(self.vertices)]
        if not pts:
            return False
        return matrix_rank([p - pts[0] for p in pts[1:]] or [], ncols=self.dim) == self.dim


@dataclass(frozen=True)
class DecomposingFunction:
    images: Dict[int, Vec]
    edge_scalars: Dict[Tuple[int, int], Rational]

    @staticmethod
    def from_images(g: GeometricGraph, images: Dict[int, Vec]) -> "DecomposingFunction":
        """Derive the per-edge scalars, verifying the defining identity."""
        scalars = {}
        for u, v in g.edges:
            diff_f = images[u] - images[v]
            diff_x = g.vertices[u] - g.vertices[v]
            j = next(i for i, c in enumerate(diff_x) if c)
            lam = diff_f[j] / diff_x[j]
            if diff_f != diff_x * lam:
                raise InvalidInputError(
                    f"images do not decompose along edge ({u},{v})"
                )
            scalars[(u, v)] = lam
        return DecomposingFunction(images, scalars)

    def check(self, g: GeometricGraph) -> bool:
        try:
            derived = DecomposingFunction.from_images(g, self.images)
        except InvalidInputError:
            return False
        return derived.edge_scalars == self.edge_scalars

    def is_constant(self) -> bool:
        values = set(self.images.values())
        return len(values) <= 1


def skeleton(p: Polytope) -> GeometricGraph:
    return GeometricGraph(
        dim=p.dim,
        vertices={i: v for i, v in enumerate(p.vertices)},
        edges=p.edges(),
    )


def _bfs_tree(g: GeometricGraph, comp: Sequence[int]):
    """Rooted spanning tree of one component: parent map and tree edges."""
    adjacency: Dict[int, List[int]] = {v: [] for v in comp}
    comp_set = set(comp)
    comp_edges = [e for e in g.edges if e[0] in comp_set and e[1] in comp_set]
    for a, b in comp_edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    root = comp[0]
    parent: Dict[int, Optional[int]] = {root: None}
    depth = {root: 0}
    order = [root]
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in sorted(adjacency[x]):
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
                queue.append(y)
    tree_edges = set(edge_key(v, parent[v]) for v in parent if parent[v] is not None)
    return parent, depth, order, comp_edges, tree_edges


def _path_steps(parent, depth, u, v):
    """Oriented steps (a -> b) walking from u to v inside the tree."""
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


def decomposing_space(g: GeometricGraph) -> Tuple[int, List[DecomposingFunction]]:
    """Dimension and a basis of the space of decomposing functions on g."""
    if not g.edges:
        raise InvalidInputError("decomposing space of an edgeless graph is not defined here")
    d = g.dim
    total = 0
    basis: List[DecomposingFunction] = []
    zero_images = {v: zero_vec(d) for v in g.vertices}
    zero_scalars = {e: Fraction(0) for e in g.edges}
    for comp in g.components():
        parent, depth, order, comp_edges, tree_edges = _bfs_tree(g, comp)
        # Translations: d dimensions per component.
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
        # One block of d equations per fundamental cycle: the scalar-weighted
        # edge directions must cancel around the cycle.
        rows = []
        for e in comp_edges:
            if e in tree_edges:
                continue
            u, v = e
            coeffs = [zero_vec(d)] * len(comp_edges)
            coeffs = list(coeffs)
            steps = _path_steps(parent, depth, v, u)
            for a, b in steps:
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


def decomposing_system_matrix(g: GeometricGraph):
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


def is_indecomposable_graph(g: GeometricGraph) -> bool:
    if not g.is_connected():
        raise InvalidInputError("graph must be connected")
    if not g.spans_ambient():
        raise InvalidInputError("graph vertices must affinely span the ambient dimension")
    dim, _ = decomposing_space(g)
    return dim == g.dim + 1


def homothety_residue(g: GeometricGraph, f: DecomposingFunction) -> DecomposingFunction:
    """Subtract the least-squares homothety fit; zero residue iff f is one."""
    d = g.dim
    vids = sorted(g.vertices)
    n = len(vids)
    pts = [g.vertices[v] for v in vids]
    # Normal equations for min sum ||alpha*x + c - f(x)||^2 over (alpha, c).
    rows = []
    rhs = []
    rows.append(
        [sum(p.dot(p) for p in pts)] + [sum(p[j] for p in pts) for j in range(d)]
    )
    rhs.append(sum(p.dot(f.images[v]) for p, v in zip(pts, vids)))
    for j in range(d):
        row = [sum(p[j] for p in pts)] + [Fraction(0)] * d
        row[1 + j] = Fraction(n)
        rows.append(row)
        rhs.append(sum(f.images[v][j] for v in vids))
    fit = solve_exact(rows, rhs)
    alpha, shift = fit[0], Vec(fit[1:])
    images = {v: f.images[v] - (g.vertices[v] * alpha + shift) for v in vids}
    return DecomposingFunction.from_images(g, images)


def is_homothety(g: GeometricGraph, f: DecomposingFunction) -> bool:
    residue = homothety_residue(g, f)
    return all(img.is_zero() for img in residue.images.values())


@dataclass(frozen=True)
class OracleResult:
    verdict: str  # "Indecomposable" | "Decomposable"
    dimension: int
    witness: Optional[DecomposingFunction]


def oracle_verdict(p: Polytope) -> OracleResult:
    """Kallay's criterion on the whole skeleton, decided by exact rank."""
    g = skeleton(p)
    dim, basis = decomposing_space(g)
    if dim == p.dim + 1:
        return OracleResult("Indecomposable", dim, None)
    witness = None
    # The first d basis elements are the translations of the one
    # component a polytope skeleton has: homotheties, never a witness.
    for f in basis[p.dim:]:
        residue = homothety_residue(g, f)
        if not all(img.is_zero() for img in residue.images.values()):
            witness = residue
            break
    if witness is None:
        raise InvalidInputError(
            "oracle dimension exceeds d+1 but every basis element is a homothety"
        )
    return OracleResult("Decomposable", dim, witness)


def touches_every_facet(s, p: Polytope) -> bool:
    vertex_set = set(s)
    return all(vertex_set.intersection(f) for f in p.facets)
