"""The library's row reduction must equal `reference_rref_int`.

`kernels.rref_int` makes a row primitive only where a pivot other than 1
multiplies it; the reference makes every updated row primitive.  Both
must give the same output on random matrices and on the systems the
library reduces, because the primitive reduced row echelon form with
positive pivots is unique, whatever pivot rows are chosen on the way.

Facet enumeration is checked against a brute-force reference scan in
tests/test_hull.py.
"""

import random

from minkdecomp import kernels
from minkdecomp.catalogue import catalogue_list
from minkdecomp.graphs import _bfs_tree, cycle_rows, decomposing_space, skeleton
from minkdecomp.polytope import validate

from reference_linalg import reference_rref_int


def _random_matrix(rng):
    """Zero rows, negative leads, rank deficiency (rows combined from
    earlier ones), tall and wide shapes, and entries above 2**64."""
    nrows = rng.randint(0, 9)
    ncols = rng.randint(1, 9)
    huge = rng.random() < 0.2
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randint(-3, 3)
            rows.append([k * x - y for x, y in zip(a, b)])
        else:
            rows.append([
                rng.randint(-(2**70), 2**70) if huge and rng.random() < 0.5 else rng.randint(-6, 6)
                for _ in range(ncols)
            ])
    return rows, ncols


def _assert_matches_reference(rows, ncols):
    want = reference_rref_int([list(r) for r in rows], ncols)
    assert kernels.rref_int([list(r) for r in rows], ncols) == want, (rows, ncols)


def test_rref_matches_reference_on_random_matrices():
    rng = random.Random(29)
    shapes = set()
    for _ in range(10_000):
        rows, ncols = _random_matrix(rng)
        shapes.add((len(rows) > ncols, len(rows) < ncols))
        _assert_matches_reference(rows, ncols)
    assert shapes == {(True, False), (False, True), (False, False)}


def test_rref_matches_reference_on_library_systems(monkeypatch):
    """The cycle and edge-basis systems of `decomposing_space`, the
    start-simplex inversions of the hulls that building and validating
    an entry run through `facet_scan`, the uncontracted cycle systems and
    the homogeneous facet systems (one row (x, -1) per facet vertex),
    over the catalogue.  The library eliminates over triangle classes,
    never reducing a one-class system, and fits facets with the
    early-exit echelon, so the facet systems and each skeleton's system
    over its edges (`cycle_rows` under the identity map, as
    `identity_decomposing_space` in test_graphs.py builds it) are fed in
    directly."""
    calls = []
    real = kernels.rref_int

    def record(rows, ncols):
        calls.append(([list(r) for r in rows], ncols))
        return real(rows, ncols)

    monkeypatch.setattr(kernels, "rref_int", record)
    for e in catalogue_list():
        p = e.build()
        assert validate(p).ok
        g = skeleton(p)
        decomposing_space(g)
        xs, _ = g.int_coords()
        for comp in g.components():
            tree = _bfs_tree(g, comp)
            identity = {e: i for i, e in enumerate(tree[3])}
            calls.append((cycle_rows(xs, tree, identity, len(identity)), len(identity)))
        ints, _ = p.int_coords()
        calls.extend(([list(ints[i]) + [-1] for i in f], p.dim + 1) for f in p.facets)
    monkeypatch.undo()
    assert len(calls) > 300
    for rows, ncols in calls:
        _assert_matches_reference(rows, ncols)
