"""Geometric graphs and the decomposing-function oracle.

A geometric graph carries coordinates on its vertices; a decomposing
function maps each vertex somewhere such that every edge's image
difference is a scalar multiple of the edge direction.  The space of
decomposing functions always contains the homotheties x -> a*x + b; a
connected, affinely spanning graph is indecomposable exactly when there
is nothing else, i.e. when the space has dimension d + 1.

The space is computed per connected component through the cycle space
(Kallay 1982): an edge-scalar assignment extends to a decomposing
function iff it sums to zero (weighted by edge directions) around every
fundamental cycle, and the extension is then unique up to translation.
This solves a system over the edge scalars only, much smaller than the
naive system over all vertex images, with an identical kernel dimension.

The system is then contracted over triangles (McMullen 1987; the
"triangular faces" method): every 3-cycle whose points are not collinear
forces equal scalars on its three edges, so the edges fall into classes,
the union-find closure of those 3-cycles, and the elimination runs over
one column per class (`triangle_classes`) instead of one per edge.  A
complete skeleton is one class.  The dimension of the space is read off
that elimination alone (`_component_kernels`).  The kernel vectors are
expanded back to the edges and brought to the basis the uncontracted
system's reduced echelon form gives (`_edge_rows`), so the basis does not
depend on the contraction.

The whole computation runs over integers: the vertex coordinates are
cleared to a common denominator once (`linalg.as_int_coords`), which
scales every cycle equation by the same factor and so keeps its kernel.
The cycle rows are built as integer lists and reduced without fractions,
the kernel vectors and edge rows stay integer, and so do the images
summed along a spanning tree and the homothety fit (`_residue`), solved
in closed form from integer sums.  `Fraction` appears only where a
function is handed out: the basis of `decomposing_space` and the witness
of `oracle_verdict`, whose edge scalars are verified edge by edge.

`oracle_verdict` builds no basis.  It stops at the dimension when that
is d + 1, and otherwise expands the edge rows only until the first one
whose scalars differ, the first element of the basis that is not a
homothety; that one's images and homothety fit are built only when the
witness is read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import kernels
from .errors import InvalidInputError
from .linalg import (
    Rational,
    Vec,
    affine_rank,
    as_int_coords,
    fraction_vec,
    int_collinear,
    int_kernel_basis,
    zero_vec,
)
from .polytope import Polytope


def edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GeometricGraph:
    """Vertices with exact coordinates, by id, and undirected edges
    (stored as sorted (u, v) pairs with u < v).

    The sorted adjacency is built once, when the graph is made, and the
    integer view of the coordinates (`int_coords`) on first use; neither
    takes part in comparisons."""

    dim: int
    vertices: Dict[int, Vec]
    edges: Tuple[Tuple[int, int], ...]
    _adjacency: Dict[int, Tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _ints: Optional[Tuple[Dict[int, Tuple[int, ...]], int]] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(edge_key(*e) for e in set(self.edges))))
        adjacency: Dict[int, List[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            if u == v:
                raise InvalidInputError(f"loop edge at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise InvalidInputError(f"edge ({u},{v}) has a missing endpoint")
            if self.vertices[u] == self.vertices[v]:
                raise InvalidInputError(f"edge ({u},{v}) endpoints share coordinates")
            adjacency[u].append(v)
            adjacency[v].append(u)
        object.__setattr__(
            self, "_adjacency", {v: tuple(sorted(ns)) for v, ns in adjacency.items()}
        )

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The vertices adjacent to v, ascending (none for a non-vertex)."""
        return self._adjacency.get(v, ())

    def int_coords(self) -> Tuple[Dict[int, Tuple[int, ...]], int]:
        """The vertices cleared to one common denominator, by id, and
        that denominator (`linalg.as_int_coords`); computed once."""
        if self._ints is None:
            ints, mult = as_int_coords(self.vertices.values())
            object.__setattr__(self, "_ints", (dict(zip(self.vertices, ints)), mult))
        return self._ints

    def components(self) -> List[List[int]]:
        """Connected components (vertex id lists, each sorted), sorted."""
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
                for y in self._adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def spans_ambient(self) -> bool:
        if not self.vertices:
            return False
        xs, _ = self.int_coords()
        return affine_rank([xs[v] for v in sorted(self.vertices)], self.dim) == self.dim


@dataclass(frozen=True)
class DecomposingFunction:
    images: Dict[int, Vec]
    edge_scalars: Dict[Tuple[int, int], Rational]

    @staticmethod
    def from_images(g: GeometricGraph, images: Dict[int, Vec]) -> "DecomposingFunction":
        """Derive the per-edge scalars, verifying the defining identity."""
        xs, mult = g.int_coords()
        fs, den = as_int_coords(images[v] for v in g.vertices)
        scalars = _edge_scalars(g, xs, mult, dict(zip(g.vertices, fs)), den)
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


def _edge_scalars(
    g: GeometricGraph, xs: Dict[int, Sequence[int]], mult: int,
    fs: Dict[int, Sequence[int]], den: int,
) -> Dict[Tuple[int, int], Rational]:
    """Edge scalars of the images fs/den over the vertices xs/mult, each
    edge verified in integers: the image difference must be a multiple
    of the vertex difference."""
    scalars = {}
    for u, v in g.edges:
        diff_f = [a - b for a, b in zip(fs[u], fs[v])]
        diff_x = [a - b for a, b in zip(xs[u], xs[v])]
        j = next(i for i, c in enumerate(diff_x) if c)
        fj, xj = diff_f[j], diff_x[j]
        if any(a * xj != b * fj for a, b in zip(diff_f, diff_x, strict=True)):
            raise InvalidInputError(f"images do not decompose along edge ({u},{v})")
        scalars[(u, v)] = Fraction(fj * mult, xj * den)
    return scalars


def skeleton(p: Polytope) -> GeometricGraph:
    """The edge graph of p, built and validated once per polytope; its
    integer view is the polytope's cached one."""
    g = p._cache.get("skeleton")
    if g is None:
        g = GeometricGraph(
            dim=p.dim,
            vertices={i: v for i, v in enumerate(p.vertices)},
            edges=p.edges(),
        )
        ints, mult = p.int_coords()
        object.__setattr__(g, "_ints", (dict(enumerate(ints)), mult))
        p._cache["skeleton"] = g
    return g


def _bfs_tree(g: GeometricGraph, comp: Sequence[int]):
    """Rooted spanning tree of one connected component (as `components`
    lists it): parent map and tree edges."""
    comp_set = set(comp)
    comp_edges = [e for e in g.edges if e[0] in comp_set]
    root = comp[0]
    parent: Dict[int, Optional[int]] = {root: None}
    depth = {root: 0}
    order = [root]
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
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


def triangle_classes(
    xs: Dict[int, Sequence[int]], comp_edges: Sequence[Tuple[int, int]]
) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Column of each edge in the contracted cycle system, and the number
    of columns.

    A 3-cycle u, v, w whose points are not collinear forces one scalar on
    its three edges: its cycle equation reads
    (l_uv - l_uw) a + (l_vw - l_uw) b = 0 with a = x_v - x_u and
    b = x_w - x_v independent.  That equation lies in the span of the
    fundamental cycles, so every kernel vector is constant on the classes
    of the union-find closure of these 3-cycles, whether or not they are
    2-faces.  Collinear 3-cycles (possible in a graph, never in a
    skeleton) give one equation and join nothing.  Classes are numbered
    by their first edge in comp_edges order.
    """
    index = {e: i for i, e in enumerate(comp_edges)}
    root = list(range(len(comp_edges)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    adjacency: Dict[int, set] = {}
    for u, v in comp_edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    for (u, v), i in index.items():
        for w in adjacency[u] & adjacency[v]:
            # Each triangle once, as u < v < w.
            if w < v:
                continue
            ri, rj, rk = find(i), find(index[(u, w)]), find(index[(v, w)])
            if ri == rj == rk or int_collinear(xs[u], xs[v], xs[w]):
                continue
            root[rj] = ri
            root[find(rk)] = ri
    number: Dict[int, int] = {}
    col_of = {e: number.setdefault(find(i), len(number)) for e, i in index.items()}
    return col_of, len(number)


def cycle_rows(
    xs: Dict[int, Sequence[int]], tree, col_of: Dict[Tuple[int, int], int], ncols: int
) -> List[List[int]]:
    """The cycle system of one component over integer coordinates xs.

    One block of d rows per non-tree edge: the scalar-weighted edge
    directions must cancel around the edge's fundamental cycle.  Edge e's
    term is accumulated into column col_of[e] of ncols, so edges that
    share a column share one unknown: the identity map gives Kallay's
    system over the edges, `triangle_classes` its contraction.  Each row
    is accumulated per coordinate; all-zero rows are dropped.
    """
    parent, depth, _, comp_edges, tree_edges = tree
    d = len(next(iter(xs.values())))
    rows = []
    for e in comp_edges:
        if e in tree_edges:
            continue
        u, v = e
        block = [[0] * ncols for _ in range(d)]
        # Walk the tree from v back to u, then close the cycle along e.
        for a, b in _path_steps(parent, depth, v, u) + [(u, v)]:
            k = col_of[edge_key(a, b)]
            for row, xa, xb in zip(block, xs[a], xs[b]):
                row[k] += xb - xa
        rows.extend(row for row in block if any(row))
    return rows


def _component_kernels(g: GeometricGraph, xs: Dict[int, Sequence[int]]):
    """The integer core of the decomposing space: per connected component,
    its BFS tree, the column of each of its edges in the contracted cycle
    system (`triangle_classes`) and that system's integer kernel basis
    (`linalg.int_kernel_basis`).  The space has dimension d per component
    plus the total number of kernel vectors."""
    if not g.edges:
        raise InvalidInputError("decomposing space of an edgeless graph is not defined here")
    out = []
    for comp in g.components():
        tree = _bfs_tree(g, comp)
        comp_edges = tree[3]
        cols: List[int] = []
        kernel: List[List[int]] = []
        if comp_edges:
            col_of, k = triangle_classes(xs, comp_edges)
            _, kernel = int_kernel_basis(cycle_rows(xs, tree, col_of, k), k)
            cols = [col_of[e] for e in comp_edges]
        out.append((comp, tree, cols, kernel))
    return out


def _edge_rows(
    cols: Sequence[int], kernel: Sequence[Sequence[int]]
) -> List[Tuple[List[int], int]]:
    """Kernel vectors over classes, expanded to the edges (edge i takes
    the value of class cols[i]) and brought to the kernel basis that the
    uncontracted system's reduced row echelon form gives, as integer
    pairs (lam, den): edge i's scalar is lam[i] / den.

    That basis has one vector per free column f, with 1 at f and 0 at the
    other free columns.  Column f is free exactly when some kernel vector
    has its last nonzero entry at f, so the free columns are the pivots of
    the expanded vectors reduced with the columns reversed, and each
    reduced row, divided by its pivot, is the vector of its free column.
    The reduced rows are primitive, so lam / den is in lowest terms as a
    vector: den is the least common denominator of the scalars.
    """
    if not kernel:
        return []
    rows = [[mu[c] for c in reversed(cols)] for mu in kernel]
    pivots, reduced = kernels.rref_int(rows, len(cols))
    # Reversed pivots ascend, so free columns descend: read them backwards.
    return [(row[::-1], row[p]) for p, row in reversed(list(zip(pivots, reduced)))]


def _tree_sums(
    xs: Dict[int, Sequence[int]], tree, lam: Sequence[int]
) -> Dict[int, Tuple[int, ...]]:
    """Images of one component under the edge scalars lam (in the
    component's edge order), times their common denominator, summed in
    integers along the BFS tree from the root, which maps to the origin."""
    parent, _, order, comp_edges, _ = tree
    lam_of = dict(zip(comp_edges, lam))
    sums = {order[0]: (0,) * len(xs[order[0]])}
    for v in order[1:]:
        u = parent[v]
        s = lam_of[edge_key(u, v)]
        sums[v] = tuple(a + (xv - xu) * s for a, xv, xu in zip(sums[u], xs[v], xs[u]))
    return sums


def decomposing_space(g: GeometricGraph) -> Tuple[int, List[DecomposingFunction]]:
    """Dimension and a basis of the space of decomposing functions on g.

    Per connected component: d translations, then one function per
    kernel vector of the component's integer cycle system (`cycle_rows`).
    The system is built over the component's triangle classes
    (`triangle_classes`) and its integer kernel read off
    (`_component_kernels`); `_edge_rows` expands each kernel vector to
    the edges and gives the kernel basis of the uncontracted system's
    primitive reduced row echelon form, in free-column order.  That form
    does not depend on how the rows were scaled or contracted, so the
    basis is the same exact rational basis whatever the common
    denominator of the coordinates.  A kernel vector's images are summed
    in integers along a BFS tree from the component's first vertex, which
    maps to the origin.
    """
    d = g.dim
    xs, mult = g.int_coords()
    total = 0
    basis: List[DecomposingFunction] = []
    zero_images = {v: zero_vec(d) for v in g.vertices}
    zero_scalars = {e: Fraction(0) for e in g.edges}
    for comp, tree, cols, kernel in _component_kernels(g, xs):
        # Translations: d dimensions per component.
        for j in range(d):
            images = dict(zero_images)
            shift = Vec(int(k == j) for k in range(d))
            for v in comp:
                images[v] = shift
            basis.append(DecomposingFunction(images, dict(zero_scalars)))
        total += d + len(kernel)
        for lam, den in _edge_rows(cols, kernel):
            scalars = dict(zero_scalars)
            scalars.update(zip(tree[3], (Fraction(x, den) for x in lam)))
            # The scalars are lam / den, so the images are sums / (den * mult).
            images = dict(zero_images)
            for v, coords in _tree_sums(xs, tree, lam).items():
                images[v] = fraction_vec(coords, den * mult)
            basis.append(DecomposingFunction(images, scalars))
    return total, basis


def is_indecomposable_graph(g: GeometricGraph) -> bool:
    if not g.is_connected():
        raise InvalidInputError("graph must be connected")
    if not g.spans_ambient():
        raise InvalidInputError("graph vertices must affinely span the ambient dimension")
    dim, _ = decomposing_space(g)
    return dim == g.dim + 1


def homothety_residue(g: GeometricGraph, f: DecomposingFunction) -> DecomposingFunction:
    """Subtract the least-squares homothety fit; zero residue iff f is one
    (`_residue` over the cleared vertices and images)."""
    vids = sorted(g.vertices)
    xs, mult = as_int_coords(g.vertices[v] for v in vids)
    fs, den = as_int_coords(f.images[v] for v in vids)
    return _residue(g, dict(zip(vids, xs)), mult, fs, den)


def _residue(
    g: GeometricGraph, xs: Dict[int, Sequence[int]], mult: int,
    fs: Sequence[Sequence[int]], den: int,
) -> DecomposingFunction:
    """The homothety residue of the images fs/den (listed in the order of
    xs) over the vertices xs/mult, with xs in vertex-id order.

    The fit minimises sum ||alpha*x + c - f(x)||^2 over (alpha, c).  With
    the vertices cleared to X = mult*x and the images to F = den*f, its
    normal equations solve in closed form: alpha' = num / q with
    num = n<X,F> - <sum X, sum F> and q = n<X,X> - |sum X|^2, and
    c' = (sum F - alpha' sum X) / n, so n*q times every residue
    F - alpha' X - c' is an integer.  The residue is linear in F, so any
    common scaling of fs and den gives the same rationals.
    """
    n = len(xs)
    points = list(xs.values())
    sum_x = [sum(col) for col in zip(*points)]
    sum_f = [sum(col) for col in zip(*fs)]
    num = n * sum(a * b for x, y in zip(points, fs) for a, b in zip(x, y)) - sum(
        a * b for a, b in zip(sum_x, sum_f)
    )
    q = n * sum(a * a for x in points for a in x) - sum(a * a for a in sum_x)
    if q == 0:
        raise ValueError("matrix is singular")
    offset = [num * a - q * b for a, b in zip(sum_x, sum_f)]
    res = [
        tuple(n * q * b - n * num * a + c for a, b, c in zip(x, y, offset))
        for x, y in zip(points, fs)
    ]
    res_den = n * q * den
    scalars = _edge_scalars(g, xs, mult, dict(zip(xs, res)), res_den)
    return DecomposingFunction(
        {v: fraction_vec(r, res_den) for v, r in zip(xs, res)}, scalars
    )


def is_homothety(g: GeometricGraph, f: DecomposingFunction) -> bool:
    residue = homothety_residue(g, f)
    return all(img.is_zero() for img in residue.images.values())


class _PendingWitness:
    """A witness not fitted yet: `fit()` builds it."""

    __slots__ = ("fit",)

    def __init__(self, fit: Callable[[], DecomposingFunction]):
        self.fit = fit


class _WitnessField:
    """The `witness` field of OracleResult: it holds a witness or None,
    or a _PendingWitness, which it fits on the first read and keeps.
    Comparing, copying or printing a result reads the field, so all of
    them see the fitted witness."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            # No class-level value: the field stays a required argument.
            raise AttributeError(self.key)
        value = obj.__dict__[self.key]
        if isinstance(value, _PendingWitness):
            value = value.fit()
            obj.__dict__[self.key] = value
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.key] = value


@dataclass(frozen=True)
class OracleResult:
    """The rank oracle's answer: the verdict, the dimension of the space
    of decomposing functions and, for Decomposable, a witness (None for
    Indecomposable).  `oracle_verdict` defers the witness's images and
    homothety fit to the first read of `witness`, so a caller that
    settles the case another way never builds them."""

    verdict: str  # "Indecomposable" | "Decomposable"
    dimension: int
    witness: Optional[DecomposingFunction] = _WitnessField()  # type: ignore[assignment]


def oracle_verdict(p: Polytope) -> OracleResult:
    """Kallay's criterion on the whole skeleton, decided by exact rank.

    Indecomposable exactly when the decomposing space has dimension d+1,
    which the integer kernels of `_component_kernels` give over the
    polytope's cached integer coordinates, with no basis built.
    Otherwise the witness is the homothety residue of the first basis
    element of `decomposing_space` that is not a homothety.  A polytope
    skeleton is connected, and on a connected graph a decomposing
    function is a homothety iff all its edge scalars are equal, so the
    translations (all scalars 0) and any other homothety are skipped
    without a fit: the witness comes from the first edge row (`_edge_rows`)
    whose scalars differ, its images summed in integers.  On a graph
    with several components every edge row counts, as its scalars are 0
    on the other components' edges.

    That edge row is found before returning, so a dimension above d+1
    with no such row raises InvalidInputError on every call; its images
    and residue are built only when the result's witness is read.
    """
    g = skeleton(p)
    xs, mult = g.int_coords()
    comps = _component_kernels(g, xs)
    dim = sum(p.dim + len(kernel) for _, _, _, kernel in comps)
    if dim == p.dim + 1:
        return OracleResult("Indecomposable", dim, None)
    zero = (0,) * p.dim
    for _, tree, cols, kernel in comps:
        whole = len(tree[3]) == len(g.edges)
        for lam, den in _edge_rows(cols, kernel):
            if whole and len(set(lam)) == 1:
                continue

            def fit() -> DecomposingFunction:
                sums = _tree_sums(xs, tree, lam)
                fs = [sums.get(v, zero) for v in xs]
                return _residue(g, xs, mult, fs, den * mult)

            return OracleResult("Decomposable", dim, _PendingWitness(fit))
    raise InvalidInputError(
        "oracle dimension exceeds d+1 but every basis element is a homothety"
    )


def touches_every_facet(s, p: Polytope) -> bool:
    vertex_set = set(s)
    return all(vertex_set.intersection(f) for f in p.facets)
