"""Geometric graphs and the decomposing-function oracle.

A geometric graph carries coordinates on its vertices; a decomposing
function maps each vertex somewhere such that every edge's image
difference is a scalar multiple of the edge direction.  The space of
decomposing functions always contains the homotheties x -> a*x + b; a
connected, affinely spanning graph is indecomposable exactly when there
is nothing else, i.e. when the space has dimension d + 1.

Every graph is a polytope's edge graph, and `skeleton` is the only place
one is built.  It takes the polytope's cached edges, adjacency and
integer coordinates as they are: every polytope is checked when it is
made (`polytope.Polytope`), so its vertices are distinct, no three are
collinear and it has an edge.  It still refuses a disconnected graph,
the premise of the homothety test, as every polytope's skeleton is
connected (Balinski 1961).  So every graph has one component, and one
BFS tree from vertex 0 (`_bfs_tree`), the walk that checked the
connectivity: the oracle's system and every sum of images read that one
tree, so a skeleton is walked once.

The space is computed through the edge scalars (Kallay 1982): an
edge-scalar assignment extends to a decomposing function iff it sums to
zero (weighted by edge directions) around every fundamental cycle of
the tree, and the extension is then unique up to translation.  This
solves a system over the edge scalars only, much smaller than the naive
system over all vertex images, with an identical kernel dimension.

The system is then contracted over triangles (McMullen 1987; the
"triangular faces" method): every 3-cycle forces equal scalars on its
three edges, as three vertices of a polytope are never collinear, so the
edges fall into classes, the union-find closure of those 3-cycles, and
the elimination runs over one column per class (`triangle_classes`)
instead of one per edge.  The
triangles a class joins share edges, so each class is a connected set of
edges that a decomposing function moves rigidly, and the rows are
written per class, not per cycle (`cycle_rows`): each class is anchored
at its first vertex in the tree's BFS order, and every (vertex, class)
incidence but a class's anchor and a vertex's tree-edge class gives one
block of d rows: sum |V_c| - V - k + 1 blocks over k classes instead of
Kallay's E - V + 1.  A complete skeleton is one class, and so is that of
every simplicial polytope of dimension 3 or more.  The union-find stops
once one class is left, and a one-class system, which has no rows, is
neither built nor eliminated.  The dimension of the space is read off that elimination
alone (`_cycle_kernel`).  The kernel vectors are expanded back to the
edges and brought to the basis the uncontracted system's reduced
echelon form gives (`_edge_rows`), so the basis does not depend on the
contraction.

The whole computation runs over integers: over the polytope's own
integer points, its vertices cleared to one common denominator
(`Polytope.int_coords`), which the skeleton holds in place of rational
coordinates; the scaling multiplies every cycle equation by the same
factor and so keeps its kernel.  The cycle rows are built as integer
lists and reduced without fractions, the kernel vectors and edge rows
stay integer, and so do the images summed along the tree and the
package's only homothety fit (`_homothety_fit`, which the oracle's
`_residue` and the lift of a slide through a pyramid reduction read),
solved in closed form from integer sums.  `Fraction` appears only where a handed-out function is read.
`_slide_witness` is the only builder of a `DecomposingFunction`, each
basis element of `decomposing_space` and each witness, and every one
of them keeps its integer slide (images times one denominator, and each
edge's integer ratio, verified edge by edge for a witness: the residue
of `oracle_verdict` and the facet slide `certificates.analyze`
returns).  It makes its `Fraction` images and scalars once, on their
first read, and `check` runs on the slide, so a caller that only
decides makes none.

`oracle_verdict` builds no basis.  It stops at the dimension when that
is d + 1, and otherwise takes the first edge row, the first element of
the basis that is not a homothety; its images and homothety fit are
built only when the witness is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from . import kernels
from .errors import EngineInconsistencyError, InvalidInputError
from .linalg import (
    Rational,
    Vec,
    as_int_coords,
    fraction_vec,
    int_kernel_basis,
)
from .polytope import Polytope


def edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


# A BFS spanning tree: its parent map, its vertices in BFS order and the
# graph's edges.
Tree = Tuple[Dict[int, Optional[int]], List[int], Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class GeometricGraph:
    """A polytope's edge graph, as `skeleton` builds it: the vertices as
    the polytope's integer points X = mult * x, by index, mult, and the
    undirected edges as sorted (u, v) pairs with u < v.

    The adjacency (each vertex's neighbours, ascending) is the polytope's
    cached one, and the BFS tree is the one `skeleton` walked; neither
    takes part in comparisons."""

    dim: int
    points: List[Tuple[int, ...]] = field(repr=False)
    mult: int
    edges: Tuple[Tuple[int, int], ...]
    _adjacency: Tuple[Tuple[int, ...], ...] = field(repr=False, compare=False)
    _tree: Tree = field(repr=False, compare=False)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The vertices adjacent to v, ascending; none for an index that
        names no vertex, -1 included."""
        adj = self._adjacency
        return adj[v] if 0 <= v < len(adj) else ()


class DecomposingFunction:
    """A decomposing function: the image of each vertex (`images`, a dict
    of `Vec`s by vertex index) and each edge's scalar (`edge_scalars`, a
    dict by sorted edge).

    Built either from those two dicts, or by `_slide_witness` from an
    integer slide, whose `Fraction`s it makes on the first read of
    `images` or `edge_scalars`.  Equality and `repr` read both dicts."""

    __slots__ = ("_images", "_scalars", "_slide")

    def __init__(
        self,
        images: Optional[Dict[int, Vec]],
        edge_scalars: Optional[Dict[Tuple[int, int], Rational]],
        *,
        _slide: Optional[Tuple[int, Slide]] = None,
    ):
        self._images, self._scalars, self._slide = images, edge_scalars, _slide

    @property
    def images(self) -> Dict[int, Vec]:
        if self._images is None:
            self._make_fractions()
        return self._images

    @property
    def edge_scalars(self) -> Dict[Tuple[int, int], Rational]:
        if self._scalars is None:
            self._make_fractions()
        return self._scalars

    def _make_fractions(self) -> None:
        """The slide's `Fraction`s, made once: images fs / D and edge
        scalars f_j * mult / (x_j * D), one per ratio."""
        mult, (fs, den, ratios) = self._slide
        self._images = {i: fraction_vec(f, den) for i, f in fs.items()}
        self._scalars = {e: Fraction(fj * mult, xj * den) for e, (fj, xj) in ratios.items()}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.images, self.edge_scalars) == (other.images, other.edge_scalars)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DecomposingFunction(images={self.images!r}, edge_scalars={self.edge_scalars!r})"

    def check(self, g: GeometricGraph) -> bool:
        """Whether the images decompose g with exactly the recorded edge
        scalars: the same answer as deriving each edge's scalar afresh and
        comparing the two dicts.

        Every vertex needs an image with one coordinate per dimension, and
        the scalars must be keyed by exactly g's edges.  The check runs in
        integers, on a slide's own images F = D * f, or on the `Fraction`
        images cleared to them (`linalg.as_int_coords`): every edge is
        verified by `_edge_ratios`, and each recorded scalar is compared
        with its edge's ratio (f_j, x_j), the scalar f_j * mult / (x_j * D).
        A slide's scalar, its ratio's f_j' * mult' / (x_j' * D), an int or
        a `Fraction` is compared by cross-multiplication; anything else as
        `Fraction` equality compares it."""
        slide = self._slide
        if slide is None:
            images, scalars = self._images, self._scalars
        else:
            slide_mult, (images, den, scalars) = slide
        vids = range(len(g.points))
        if len(scalars) != len(g.edges):
            return False
        for v in vids:
            if v not in images or len(images[v]) != g.dim:
                return False
        if slide is None:
            images, den = as_int_coords(images[v] for v in vids)
        mult = g.mult
        try:
            ratios = _edge_ratios(g.edges, g.points, images)
        except InvalidInputError:
            return False
        for e, (fj, xj) in ratios.items():
            # A missing key reads None, which no ratio equals.
            s = scalars.get(e)
            if s is not None and slide is not None:
                num, dnm = s[0] * slide_mult, s[1] * den
            elif isinstance(s, (int, Fraction)):
                num, dnm = s.numerator, s.denominator
            elif Fraction(fj * mult, xj * den) == s:
                continue
            else:
                return False
            if num * xj * den != dnm * fj * mult:
                return False
        return True


def _edge_ratios(
    edges: Iterable[Tuple[int, int]], xs: Sequence[Sequence[int]],
    fs: Union[Sequence[Sequence[int]], Dict[int, Sequence[int]]],
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Each edge's integer ratio (f_j, x_j) for the integer images fs
    (a list or a dict, by vertex index) over the integer vertices xs,
    verified in integers: the image difference must be a multiple of the
    vertex difference, which is x_j != 0 at its first nonzero coordinate
    j and f_j there.  Raises InvalidInputError at the first edge where it
    is not.  Every image has one coordinate per vertex coordinate; the
    callers make or check it."""
    ratios = {}
    for u, v in edges:
        fu, fv = fs[u], fs[v]
        diff_x = list(map(sub, xs[u], xs[v]))
        xj = next(filter(None, diff_x))
        j = diff_x.index(xj)
        fj = fu[j] - fv[j]
        # `any` over a list: faster than over a generator at these lengths.
        if any([(a - b) * xj - c * fj for a, b, c in zip(fu, fv, diff_x)]):
            raise InvalidInputError(f"images do not decompose along edge ({u},{v})")
        ratios[(u, v)] = (fj, xj)
    return ratios


def _equal_ratios(ratios: Dict[Tuple[int, int], Tuple[int, int]]) -> bool:
    """Whether a decomposing function on a connected skeleton, given by
    its verified edge ratios (`_edge_ratios`), is a homothety: it is
    exactly when all its edge scalars are equal, that is when every ratio
    equals the first, compared by cross-multiplication."""
    (f0, x0), *rest = ratios.values()
    return all(fj * x0 == f0 * xj for fj, xj in rest)


# What a witness that fails its integer check raises with.
_WITNESS_FAULT = "witness does not decompose the input"

# An integer slide: the images times D, D, and each edge's ratio.
Slide = Tuple[Dict[int, Tuple[int, ...]], int, Dict[Tuple[int, int], Tuple[int, int]]]


def _slide_witness(mult: int, slide: Slide) -> DecomposingFunction:
    """The function of an integer slide (fs, D, ratios) over vertices
    cleared to X = mult*x: images fs / D and edge scalars
    f_j * mult / (x_j * D), one per ratio, made as `Fraction`s on their
    first read.  It builds every `DecomposingFunction`: each witness (the
    facet slide's and the oracle's residue), from ratios `_edge_ratios`
    verified, and each basis element of `decomposing_space`.  It verifies
    nothing a second time."""
    return DecomposingFunction(None, None, _slide=(mult, slide))


def skeleton(p: Polytope) -> GeometricGraph:
    """The edge graph of p, built once per polytope (`_build_skeleton`).

    Its edges, adjacency and integer view are the polytope's cached ones
    (`Polytope.edges`, `Polytope._adjacency`, `Polytope.int_coords`),
    taken as they are: the edges are derived sorted, with u < v and no
    repeats.  A disconnected graph, which only a polytope built through
    the unchecked `Polytope._of_ints` can have, is refused with
    InvalidInputError.  The BFS tree that the connectivity check walked
    is kept for the oracle.  `analyze`, `_decide` and `replay` build the
    skeleton before any rule or the oracle runs."""
    return p._derived("skeleton", lambda: _build_skeleton(p))


def _build_skeleton(p: Polytope) -> GeometricGraph:
    xs, mult = p.int_coords()
    edges = p.edges()
    adjacency = p._adjacency()
    n = len(adjacency)
    tree = parent, order, _ = _bfs_tree(adjacency, edges)
    if len(order) != n:
        missed = next(v for v in range(n) if v not in parent)
        raise InvalidInputError(
            f"skeleton is disconnected: vertex {missed} is not reached from vertex 0"
        )
    return GeometricGraph(p.dim, xs, mult, edges, adjacency, tree)


def _bfs_tree(adjacency: Sequence[Sequence[int]], edges: Tuple[Tuple[int, int], ...]) -> Tree:
    """The BFS tree from vertex 0 over the sorted adjacency: its parent
    map, the vertices it reaches in BFS order and the edges.  It spans
    the graph exactly when the graph is connected."""
    parent: Dict[int, Optional[int]] = {0: None}
    order = [0]
    # The order grows behind the walk, so it is the walk's queue.
    for x in order:
        for y in adjacency[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    return parent, order, edges


def triangle_classes(g: GeometricGraph) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Column of each edge of g in the contracted cycle system, and the
    number of columns.

    A 3-cycle u, v, w forces one scalar on its three edges: its cycle
    equation reads (l_uv - l_uw) a + (l_vw - l_uw) b = 0 with
    a = x_v - x_u and b = x_w - x_v independent, as three vertices of a
    polytope are never collinear.  That equation lies in the span of the
    fundamental cycles, so every kernel vector is constant on the classes
    of the union-find closure of these 3-cycles, whether or not they are
    2-faces.  Classes are numbered by their first edge in edges order.

    The 3-cycles over each edge (u, v) are read off the skeleton's cached
    adjacency: each neighbour w > v of u that is joined to v, found by
    its edge's index.  The union-find stops once one class is left, as
    no further 3-cycle can change the answer: every edge then has column
    0.
    """
    edges, adjacency = g.edges, g._adjacency
    index = {e: i for i, e in enumerate(edges)}
    root = list(range(len(edges)))
    left = len(edges)

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for (u, v), i in index.items():
        if left == 1:
            break
        for w in adjacency[u]:
            # Each triangle once, as u < v < w.
            if w <= v:
                continue
            k = index.get((v, w))
            if k is None:
                continue
            ri, rj, rk = find(i), find(index[(u, w)]), find(k)
            if ri == rj == rk:
                continue
            left -= len({ri, rj, rk}) - 1
            root[rj] = ri
            root[find(rk)] = ri
    number: Dict[int, int] = {}
    col_of = {e: number.setdefault(find(i), len(number)) for e, i in index.items()}
    return col_of, len(number)


def cycle_rows(
    xs: Sequence[Sequence[int]], tree: Tree, col_of: Dict[Tuple[int, int], int], ncols: int
) -> List[List[int]]:
    """The rows of an integer system with the solutions of Kallay's, over
    coordinates xs and a BFS tree, one column per class of the
    edge-to-column map col_of (ncols columns).

    Each class must be a connected set of edges, as every triangle class
    and every single edge is.  A decomposing function then moves the
    whole class rigidly: f(v) - f(a) = l_c (x_v - x_a) for any two of its
    vertices a and v, whose path inside the class has scalar l_c on every
    edge.  So each class is anchored at its first vertex a in BFS order,
    and each vertex v reaches f(v), as a combination of the columns,
    through the class of its tree edge: f(b) + l_own (x_v - x_b), where b
    is that class's anchor, which comes no later than v's parent.  Every
    other (vertex, class) incidence gives one block of d rows,
    f(a) - f(v) + l_c (x_v - x_a) = 0: sum |V_c| - V - k + 1 blocks over
    k classes with vertex sets V_c, where Kallay's system, one block per
    fundamental cycle, has E - V + 1.  The two systems have the same
    solutions; under the identity map, where every class is one edge,
    they have the same number of blocks.  Rows read f(v) through f(b),
    so only the anchors' blocks are kept, each made once, when its
    vertex comes up in BFS order.

    All-zero rows are dropped, and so is every repeat of a row, which
    leaves the row space, and with it the pivots and the kernel basis,
    unchanged: each distinct row is kept once, in order of first
    appearance.
    """
    parent, order, edges = tree
    root = order[0]
    d = len(xs[root])
    classes: List[Set[int]] = [set() for _ in xs]
    for e in edges:
        c = col_of[e]
        classes[e[0]].add(c)
        classes[e[1]].add(c)
    # The root comes first in every class it is in: it anchors them all
    # and has no other incidence.
    anchor = dict.fromkeys(classes[root], root)
    block = {root: [[0] * ncols for _ in range(d)]}
    rows: Dict[Tuple[int, ...], List[int]] = {}
    for v in order[1:]:
        own = col_of[edge_key(parent[v], v)]
        b = anchor[own]
        fb, xb, xv = block[b], xs[b], xs[v]
        for c in classes[v]:
            a = anchor.setdefault(c, v)
            if a == v:
                if v not in block:
                    fv = block[v] = [row[:] for row in fb]
                    for row, tb, tv in zip(fv, xb, xv):
                        row[own] += tv - tb
                continue
            if c == own:
                continue
            for fa, fbj, ta, tb, tv in zip(block[a], fb, xs[a], xb, xv):
                row = list(map(sub, fa, fbj))
                row[own] -= tv - tb
                row[c] += tv - ta
                if any(row):
                    rows.setdefault(tuple(row), row)
    return list(rows.values())


def _cycle_kernel(g: GeometricGraph) -> Tuple[List[int], List[List[int]]]:
    """The integer core of the decomposing space: the column of each of
    g's edges in the contracted cycle system (`triangle_classes`) and
    that system's integer kernel basis (`linalg.int_kernel_basis`), over
    the tree `skeleton` walked.  The space has dimension d plus the
    number of kernel vectors.

    With one class, as on every simplicial polytope of dimension 3 or
    more, every edge has one scalar and every function it extends to is
    a homothety, so the kernel is [[1]] and the system is neither built
    nor eliminated.  Otherwise the system has one block of rows per
    (vertex, class) incidence, the classes anchored on that tree, and
    only its distinct rows are eliminated (`cycle_rows`): the kernel
    basis is the unique one the row space determines, the same as that
    of Kallay's system over the fundamental cycles, which has the same
    solutions."""
    xs = g.points
    col_of, k = triangle_classes(g)
    if k == 1:
        kernel = [[1]]
    else:
        _, kernel = int_kernel_basis(cycle_rows(xs, g._tree, col_of, k), k)
    return [col_of[e] for e in g.edges], kernel


def _edge_rows(
    cols: Sequence[int], kernel: Sequence[Sequence[int]]
) -> List[Tuple[List[int], int]]:
    """Kernel vectors over classes, expanded to the edges (edge i takes
    the value of class cols[i]) and brought to the kernel basis that the
    uncontracted system's reduced row echelon form gives, as integer
    pairs (lam, den): edge i's scalar is lam[i] / den.  `_cycle_kernel`
    gives the classes and the kernel; `decomposing_space` hands out every
    row, `oracle_verdict` reads the first.

    That basis has one vector per free column f, with 1 at f and 0 at the
    other free columns.  Column f is free exactly when some kernel vector
    has its last nonzero entry at f, so the free columns are the pivots of
    the expanded vectors reduced with the columns reversed, and each
    reduced row, divided by its pivot, is the vector of its free column.
    The reduced rows are primitive, so lam / den is in lowest terms as a
    vector: den is the least common denominator of the scalars.
    """
    rows = [[mu[c] for c in reversed(cols)] for mu in kernel]
    pivots, reduced = kernels.rref_int(rows, len(cols))
    # Reversed pivots ascend, so free columns descend: read them backwards.
    return [(row[::-1], row[p]) for p, row in reversed(list(zip(pivots, reduced)))]


def _tree_sums(
    xs: Sequence[Sequence[int]], tree: Tree, lam: Sequence[int]
) -> List[Tuple[int, ...]]:
    """Images under the edge scalars lam (in edge order), times their
    common denominator, by vertex index, summed in integers along the
    BFS tree from the root, which maps to the origin."""
    parent, order, edges = tree
    lam_of = dict(zip(edges, lam))
    # The tree spans the graph, so every entry is overwritten but the root's.
    sums = [(0,) * len(xs[order[0]])] * len(xs)
    for v in order[1:]:
        u = parent[v]
        s = lam_of[edge_key(u, v)]
        sums[v] = tuple(a + (xv - xu) * s for a, xv, xu in zip(sums[u], xs[v], xs[u]))
    return sums


def decomposing_space(g: GeometricGraph) -> Tuple[int, List[DecomposingFunction]]:
    """Dimension and a basis of the space of decomposing functions on the
    skeleton g.

    d translations, then one function per kernel vector of the integer
    cycle system (`cycle_rows`).  The system is built over the triangle
    classes (`triangle_classes`) and its integer kernel read off
    (`_cycle_kernel`); `_edge_rows` expands each kernel vector to the
    edges and gives the kernel basis of the uncontracted system's
    primitive reduced row echelon form, in free-column order.  That form
    does not depend on how the rows were scaled or contracted, so the
    basis is the same exact rational basis whatever the common
    denominator of the coordinates.  Each element is an integer slide
    made a function by `_slide_witness`.  Translation j puts the unit
    vector e_j at every vertex, over D = 1, with ratio (0, 1) on every
    edge.  A kernel vector lam / den has its images summed in integers
    along the BFS tree from vertex 0, which maps to the origin, over
    D = den * mult, with ratio (lam_e, 1), the scalar lam_e / den, on edge e.
    """
    d = g.dim
    cols, kernel = _cycle_kernel(g)
    xs, mult = g.points, g.mult
    zero = dict.fromkeys(g.edges, (0, 1))
    basis = []
    for j in range(d):
        shift = tuple(int(k == j) for k in range(d))
        basis.append(_slide_witness(mult, (dict.fromkeys(range(len(xs)), shift), 1, zero)))
    for lam, den in _edge_rows(cols, kernel):
        sums = _tree_sums(xs, g._tree, lam)
        ratios = {e: (x, 1) for e, x in zip(g.edges, lam)}
        basis.append(_slide_witness(mult, (dict(enumerate(sums)), den * mult, ratios)))
    return d + len(kernel), basis


def homothety_residue(g: GeometricGraph, f: DecomposingFunction) -> DecomposingFunction:
    """Subtract the least-squares homothety fit; zero residue iff f is one
    (`_residue` over the skeleton's integer points and f's integer
    images: a slide's own images and denominator, read as they are, or
    the `Fraction` images cleared)."""
    vids = range(len(g.points))
    if f._slide is None:
        fs, den = as_int_coords(f.images[v] for v in vids)
    else:
        _, (images, den, _) = f._slide
        fs = [images[v] for v in vids]
    return _slide_witness(g.mult, _residue(g, fs, den))


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


def _residue(g: GeometricGraph, fs: Sequence[Sequence[int]], den: int) -> Slide:
    """The homothety residue of the images fs/den over g's vertices, both
    listed by vertex index, as an integer slide.

    With the vertices cleared to X = mult*x and the images to F = den*f,
    nq times every residue F - alpha' X - c' of the fit (`_homothety_fit`)
    is the integer nq*F - m*X + offset, a slide over nq*den whose edges
    `_edge_ratios` verifies.  The residue is linear in F, so any common
    scaling of fs and den gives the same rationals."""
    xs = g.points
    nq, m, offset = _homothety_fit(xs, fs)
    res = {
        v: tuple(nq * b - m * a + c for a, b, c in zip(x, y, offset))
        for v, (x, y) in enumerate(zip(xs, fs))
    }
    return res, nq * den, _edge_ratios(g.edges, xs, res)


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
    which the integer kernel of `_cycle_kernel` gives over the polytope's
    cached integer coordinates and the BFS tree `skeleton` walked, with
    no basis built.  Otherwise the witness is the homothety residue of
    the first basis element of `decomposing_space` that is not a
    homothety, the first edge row (`_edge_rows`): on the connected
    skeleton a homothety has equal edge scalars, and with two or more
    rows each is 1 at its own free column and 0 at the others'.  Its
    images, summed in integers along that tree, and its residue are built
    only when the result's witness is read, and its `Fraction`s only when
    the witness's images or scalars are.  The residue is verified as the
    facet slide's witness is in `certificates.analyze`: a residue that
    fails an edge (`_edge_ratios`) or whose edge scalars are all equal
    (`_equal_ratios`) raises EngineInconsistencyError.
    """
    g = skeleton(p)
    cols, kernel = _cycle_kernel(g)
    dim = p.dim + len(kernel)
    if len(kernel) == 1:
        return OracleResult("Indecomposable", dim, None)
    lam, den = _edge_rows(cols, kernel)[0]

    def fit() -> DecomposingFunction:
        try:
            slide = _residue(g, _tree_sums(g.points, g._tree, lam), den * g.mult)
        except InvalidInputError as exc:
            raise EngineInconsistencyError(f"{_WITNESS_FAULT}: {exc}") from exc
        if _equal_ratios(slide[2]):
            raise EngineInconsistencyError(f"{_WITNESS_FAULT}: it is a homothety")
        return _slide_witness(g.mult, slide)

    return OracleResult("Decomposable", dim, _PendingWitness(fit))


def touches_every_facet(s, p: Polytope) -> bool:
    vertex_set = set(s)
    return all(vertex_set.intersection(f) for f in p.facets)
