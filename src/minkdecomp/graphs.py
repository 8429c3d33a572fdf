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
The trees come from `_bfs_forest`, the module's only graph walk.  This
solves a system over the edge scalars only, much smaller than the naive
system over all vertex images, with an identical kernel dimension.

The system is then contracted over triangles (McMullen 1987; the
"triangular faces" method): every 3-cycle whose points are not collinear
forces equal scalars on its three edges, so the edges fall into classes,
the union-find closure of those 3-cycles, and the elimination runs over
one column per class (`triangle_classes`) instead of one per edge.  A
complete skeleton is one class, and so is that of every simplicial
polytope of dimension 3 or more.  The union-find stops once one class is
left, and a one-class system, whose rows all vanish, is neither built
nor eliminated.  The dimension of the space is read off that elimination
alone (`_component_kernels`).  The kernel vectors are expanded back to
the edges and brought to the basis the uncontracted system's reduced
echelon form gives (`_edge_rows`), so the basis does not depend on the
contraction.

The whole computation runs over integers: the vertex coordinates are
cleared to a common denominator once (`linalg.as_int_coords`), which
scales every cycle equation by the same factor and so keeps its kernel.
The cycle rows are built as integer lists and reduced without fractions,
the kernel vectors and edge rows stay integer, and so do the images
summed along a spanning tree and the package's only homothety fit
(`_homothety_fit`, which the oracle's `_residue` and the lift of a slide
through a pyramid reduction read), solved in closed form from integer
sums.  `Fraction` appears only where a function is handed out: the basis
of `decomposing_space`, and the witnesses.  Every witness, the residue
of `oracle_verdict` and the facet slide `certificates.analyze` returns,
is an integer slide (images times one denominator, and each edge's
integer ratio, verified edge by edge) until `_slide_witness` makes its
`Fraction`s once.

A polytope's graph (`skeleton`) takes the polytope's cached edges,
adjacency and integer coordinates as they are.  It is refused unless
connected, as every polytope's skeleton is (Balinski 1961), so the
oracle and every equal-scalar homothety test see one component;
`decomposing_space` takes a `GeometricGraph` with any number.

`oracle_verdict` builds no basis.  It stops at the dimension when that
is d + 1, and otherwise takes the first edge row, the first element of
the basis that is not a homothety; its images and homothety fit are
built only when the witness is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
        return [sorted(order) for _, order, _, _ in _bfs_forest(self)]

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

    def check(self, g: GeometricGraph) -> bool:
        """Whether the images decompose g with exactly the recorded edge
        scalars, decided in integers: the same answer as deriving each
        edge's scalar afresh and comparing the two dicts.

        Every vertex needs an image with one coordinate per dimension, and
        the scalars must be keyed by exactly g's edges.  The images are
        cleared to F = den * f (`linalg.as_int_coords`), and an edge (u, v)
        with recorded scalar n/m holds iff m*mult*(F_u - F_v) equals
        n*den*(X_u - X_v) coordinate by coordinate.  A scalar that is not
        an int or a `Fraction` is compared as `Fraction` equality would
        compare it, through the edge's verified ratio (`_edge_ratios`)."""
        for v in g.vertices:
            if v not in self.images or len(self.images[v]) != g.dim:
                return False
        xs, mult = g.int_coords()
        ints, den = as_int_coords(self.images[v] for v in g.vertices)
        fs = dict(zip(g.vertices, ints))
        scalars = self.edge_scalars
        if len(scalars) != len(g.edges):
            return False
        for e in g.edges:
            if e not in scalars:
                return False
            s = scalars[e]
            u, v = e
            if isinstance(s, (int, Fraction)):
                m, n = s.denominator * mult, s.numerator * den
                if [m * (a - b) for a, b in zip(fs[u], fs[v])] != [
                    n * (a - b) for a, b in zip(xs[u], xs[v])
                ]:
                    return False
            else:
                try:
                    ((fj, xj),) = _edge_ratios((e,), xs, fs).values()
                except InvalidInputError:
                    return False
                if Fraction(fj * mult, xj * den) != s:
                    return False
        return True


def _edge_ratios(
    edges: Iterable[Tuple[int, int]], xs: Dict[int, Sequence[int]],
    fs: Dict[int, Sequence[int]],
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Each edge's integer ratio (f_j, x_j) for the integer images fs
    over the integer vertices xs, verified in integers: the image
    difference must be a multiple of the vertex difference, which is
    x_j != 0 at its first nonzero coordinate j and f_j there.  Raises
    InvalidInputError at the first edge where it is not.  Every image has
    one coordinate per vertex coordinate; the callers make or check it."""
    ratios = {}
    for u, v in edges:
        fu, fv = fs[u], fs[v]
        diff_x = [a - b for a, b in zip(xs[u], xs[v])]
        xj = next(filter(None, diff_x))
        j = diff_x.index(xj)
        fj = fu[j] - fv[j]
        if [(a - b) * xj for a, b in zip(fu, fv)] != [c * fj for c in diff_x]:
            raise InvalidInputError(f"images do not decompose along edge ({u},{v})")
        ratios[(u, v)] = (fj, xj)
    return ratios


# An integer slide: the images times D, D, and each edge's ratio.
Slide = Tuple[Dict[int, Tuple[int, ...]], int, Dict[Tuple[int, int], Tuple[int, int]]]


def _slide_witness(mult: int, slide: Slide) -> DecomposingFunction:
    """The `Fraction` witness of an integer slide (fs, D, ratios) over
    vertices cleared to X = mult*x: images fs / D and edge scalars
    f_j * mult / (x_j * D), one per verified ratio (`_edge_ratios`).  It
    hands out every witness, the facet slide's and the oracle's residue,
    and makes the `Fraction`s once, with no second verification."""
    fs, den, ratios = slide
    return DecomposingFunction(
        {i: fraction_vec(f, den) for i, f in fs.items()},
        {e: Fraction(fj * mult, xj * den) for e, (fj, xj) in ratios.items()},
    )


def skeleton(p: Polytope) -> GeometricGraph:
    """The edge graph of p, built once per polytope.

    Its edges, adjacency and integer view are the polytope's cached ones
    (`Polytope.edges`, `Polytope._adjacency`, `Polytope.int_coords`),
    taken as they are: the edges are derived sorted, with u < v and no
    repeats, so the graph skips the normalising and checking that
    `GeometricGraph` does for edges given by hand.  It keeps two checks,
    for what only an unvalidated `Polytope` can have: an edge whose
    endpoints share coordinates (compared as integer tuples) and a
    disconnected graph, both InvalidInputError.  `analyze`, `_decide`
    and `replay` build it before any rule or the oracle runs."""
    return p._derived("skeleton", lambda: _build_skeleton(p))


def _build_skeleton(p: Polytope) -> GeometricGraph:
    ints, mult = p.int_coords()
    edges = p.edges()
    for u, v in edges:
        if ints[u] == ints[v]:
            raise InvalidInputError(f"edge ({u},{v}) endpoints share coordinates")
    g = object.__new__(GeometricGraph)
    for name, value in (
        ("dim", p.dim),
        ("vertices", dict(enumerate(p.vertices))),
        ("edges", edges),
        ("_adjacency", dict(enumerate(p._adjacency()))),
        ("_ints", (dict(enumerate(ints)), mult)),
    ):
        object.__setattr__(g, name, value)
    trees = len(_bfs_forest(g))
    if trees != 1:
        raise InvalidInputError(f"skeleton is disconnected: {trees} components")
    return g


def _bfs_forest(g: GeometricGraph):
    """One rooted BFS spanning tree per connected component: its parent
    map, its vertices in BFS order, its edges (in g.edges order) and its
    tree edges.  Components come in order of their smallest vertex, each
    rooted there and walked over the sorted adjacency."""
    adjacency = g._adjacency
    forest = []
    seen = set()
    for root in sorted(g.vertices):
        if root in seen:
            continue
        parent: Dict[int, Optional[int]] = {root: None}
        order = [root]
        # The order grows behind the walk, so it is the walk's queue.
        for x in order:
            for y in adjacency[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
        seen.update(order)
        comp_edges = [e for e in g.edges if e[0] in parent]
        forest.append((parent, order, comp_edges, {edge_key(v, parent[v]) for v in order[1:]}))
    return forest


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

    The union-find stops once one class is left, as no further 3-cycle
    can change the answer: every edge then has column 0.
    """
    index = {e: i for i, e in enumerate(comp_edges)}
    root = list(range(len(comp_edges)))
    left = len(comp_edges)

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
        if left == 1:
            break
        for w in adjacency[u] & adjacency[v]:
            # Each triangle once, as u < v < w.
            if w < v:
                continue
            ri, rj, rk = find(i), find(index[(u, w)]), find(index[(v, w)])
            if ri == rj == rk or int_collinear(xs[u], xs[v], xs[w]):
                continue
            left -= len({ri, rj, rk}) - 1
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
    system over the edges, `triangle_classes` its contraction.

    Each vertex's path block, the terms of the tree edges from the root
    down to it, is summed once in BFS order.  Edge (u, v)'s block is
    path(u) - path(v) plus its own term x_v - x_u: the walk from v up
    the tree and down to u, then along the edge, whose part from the
    root to the lowest common ancestor cancels exactly.  All-zero rows
    are dropped.
    """
    parent, order, comp_edges, tree_edges = tree
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


def _component_kernels(g: GeometricGraph, xs: Dict[int, Sequence[int]]):
    """The integer core of the decomposing space: for each tree of
    `_bfs_forest`, that tree, the column of each of its component's edges
    in the contracted cycle system (`triangle_classes`) and that system's
    integer kernel basis (`linalg.int_kernel_basis`).  The space has
    dimension d per component plus the total number of kernel vectors.
    A polytope's skeleton gives one tree.

    With one class, as on every simplicial polytope of dimension 3 or
    more, each cycle row sums the edge directions around a closed walk
    and is zero, so the kernel is [[1]] and the system is neither built
    nor eliminated."""
    if not g.edges:
        raise InvalidInputError("decomposing space of an edgeless graph is not defined here")
    out = []
    for tree in _bfs_forest(g):
        comp_edges = tree[2]
        cols: List[int] = []
        kernel: List[List[int]] = []
        if comp_edges:
            col_of, k = triangle_classes(xs, comp_edges)
            if k == 1:
                kernel = [[1]]
            else:
                _, kernel = int_kernel_basis(cycle_rows(xs, tree, col_of, k), k)
            cols = [col_of[e] for e in comp_edges]
        out.append((tree, cols, kernel))
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
    parent, order, comp_edges, _ = tree
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
    for tree, cols, kernel in _component_kernels(g, xs):
        # Translations: d dimensions per component.
        for j in range(d):
            images = dict(zero_images)
            shift = Vec(int(k == j) for k in range(d))
            for v in tree[1]:
                images[v] = shift
            basis.append(DecomposingFunction(images, dict(zero_scalars)))
        total += d + len(kernel)
        for lam, den in _edge_rows(cols, kernel):
            scalars = dict(zero_scalars)
            scalars.update(zip(tree[2], (Fraction(x, den) for x in lam)))
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
    # One component, so the dimension is d plus its kernel size; no
    # basis is built.
    ((_, _, kernel),) = _component_kernels(g, g.int_coords()[0])
    return len(kernel) == 1


def homothety_residue(g: GeometricGraph, f: DecomposingFunction) -> DecomposingFunction:
    """Subtract the least-squares homothety fit; zero residue iff f is one
    (`_residue` over the cleared vertices and images)."""
    vids = sorted(g.vertices)
    xs, mult = as_int_coords(g.vertices[v] for v in vids)
    fs, den = as_int_coords(f.images[v] for v in vids)
    return _residue(g, dict(zip(vids, xs)), mult, fs, den)


def _homothety_fit(
    points: Sequence[Sequence[int]], images: Sequence[Sequence[int]],
) -> Tuple[int, int, List[int]]:
    """The least-squares homothety fit of integer images F over integer
    points X (listed in the same order), in integers: (nq, m, offset)
    with nq * (alpha' X + c') = m * X - offset for every X.

    The fit minimises sum ||alpha' X + c' - F||^2 over (alpha', c').  Its
    normal equations solve in closed form: alpha' = num / q with
    num = n<X,F> - <sum X, sum F> and q = n<X,X> - |sum X|^2, and
    c' = (sum F - alpha' sum X) / n, so nq = n*q, m = n*num and
    offset = num * sum X - q * sum F.  q is 0 only when every point
    coincides, which raises ValueError."""
    n = len(points)
    sum_x = [sum(col) for col in zip(*points)]
    sum_f = [sum(col) for col in zip(*images)]
    dot = sum(a * b for x, y in zip(points, images) for a, b in zip(x, y))
    num = n * dot - sum(a * b for a, b in zip(sum_x, sum_f))
    q = n * sum(a * a for x in points for a in x) - sum(a * a for a in sum_x)
    if q == 0:
        raise ValueError("matrix is singular")
    return n * q, n * num, [num * a - q * b for a, b in zip(sum_x, sum_f)]


def _residue(
    g: GeometricGraph, xs: Dict[int, Sequence[int]], mult: int,
    fs: Sequence[Sequence[int]], den: int,
) -> DecomposingFunction:
    """The homothety residue of the images fs/den (listed in the order of
    xs) over the vertices xs/mult, with xs in vertex-id order.

    With the vertices cleared to X = mult*x and the images to F = den*f,
    nq times every residue F - alpha' X - c' of the fit (`_homothety_fit`)
    is the integer nq*F - m*X + offset, a slide over nq*den that
    `_slide_witness` hands out.  The residue is linear in F, so any
    common scaling of fs and den gives the same rationals."""
    nq, m, offset = _homothety_fit(list(xs.values()), fs)
    res = {
        v: tuple(nq * b - m * a + c for a, b, c in zip(x, y, offset))
        for (v, x), y in zip(xs.items(), fs)
    }
    return _slide_witness(mult, (res, nq * den, _edge_ratios(g.edges, xs, res)))


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
    """Kallay's criterion on the skeleton, decided by exact rank.

    Indecomposable exactly when the decomposing space has dimension d+1,
    which the integer kernel of `_component_kernels` gives over the
    polytope's cached integer coordinates, with no basis built; the
    skeleton is connected, so it has one component.  Otherwise the
    witness is the homothety residue of the first basis element of
    `decomposing_space` that is not a homothety, the first edge row
    (`_edge_rows`): on a connected graph a homothety has equal edge
    scalars, and with two or more rows each is 1 at its own free column
    and 0 at the others'.  Its images, summed in integers, and its
    residue are built only when the result's witness is read.
    """
    g = skeleton(p)
    xs, mult = g.int_coords()
    ((tree, cols, kernel),) = _component_kernels(g, xs)
    dim = p.dim + len(kernel)
    if len(kernel) == 1:
        return OracleResult("Indecomposable", dim, None)
    lam, den = _edge_rows(cols, kernel)[0]

    def fit() -> DecomposingFunction:
        sums = _tree_sums(xs, tree, lam)
        return _residue(g, xs, mult, [sums[v] for v in xs], den * mult)

    return OracleResult("Decomposable", dim, _PendingWitness(fit))


def touches_every_facet(s, p: Polytope) -> bool:
    vertex_set = set(s)
    return all(vertex_set.intersection(f) for f in p.facets)
