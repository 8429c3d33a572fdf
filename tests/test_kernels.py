"""The library's one elimination must equal an independent reference.

`kernels.rref_int` feeds a matrix to the fraction-free echelon
(`kernels.Echelon`) and back-reduces it (`Echelon.reduced`);
`reference_rref_int` is Gauss-Jordan elimination that picks the
smallest pivot and makes every updated row primitive.  Both must give
the same output on random matrices and on the systems the library
reduces, because the primitive reduced row echelon form with positive
pivots is unique, whatever pivot rows are chosen on the way.  The
kernel read-off (`linalg.int_kernel_basis` over `Echelon.kernel`) must
give the reference's pivot columns and, per free column, a kernel vector
positive there and zero at the other free columns.

Facet enumeration is checked against a brute-force reference scan in
tests/test_hull.py.
"""

import random

from minkdecomp import kernels
from minkdecomp.catalogue import catalogue_list
from minkdecomp.graphs import cycle_rows, decomposing_space, triangle_classes
from minkdecomp.linalg import int_kernel_basis
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


def test_kernel_basis_matches_reference_on_random_matrices():
    rng = random.Random(29)
    for _ in range(10_000):
        rows, ncols = _random_matrix(rng)
        pivots, basis = int_kernel_basis([list(r) for r in rows], ncols)
        assert pivots == reference_rref_int(rows, ncols)[0], (rows, ncols)
        free = [f for f in range(ncols) if f not in pivots]
        assert len(basis) == ncols - len(pivots), (rows, ncols)
        for f, vec in zip(free, basis):
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows), (rows, ncols)
            assert vec[f] > 0 and not any(vec[j] for j in free if j != f), (rows, ncols)


def test_rref_matches_reference_on_library_systems(monkeypatch):
    """The edge-basis systems of `decomposing_space`, the start-simplex
    inversions of the hulls that building and validating an entry run
    through `facet_scan`, the contracted and uncontracted cycle systems
    and the homogeneous facet systems (one row (x, -1) per facet vertex),
    over the catalogue.  The library solves its cycle systems over
    triangle classes with `linalg.int_kernel_basis`, never reducing a
    one-class system, and fits facets with the early-exit echelon, so the
    facet systems and each skeleton's cycle systems, over its triangle
    classes and over its edges (`cycle_rows` under the identity map),
    are fed in directly."""
    calls = []
    real = kernels.rref_int

    def record(rows, ncols):
        calls.append(([list(r) for r in rows], ncols))
        return real(rows, ncols)

    monkeypatch.setattr(kernels, "rref_int", record)
    for e in catalogue_list():
        p = e.build()
        assert validate(p).ok
        decomposing_space(p)
        col_of, k = triangle_classes(p)
        calls.append((cycle_rows(p, col_of, k), k))
        identity = {e: i for i, e in enumerate(p.edges())}
        calls.append((cycle_rows(p, identity, len(identity)), len(identity)))
        ints, _ = p.int_coords()
        calls.extend(([list(ints[i]) + [-1] for i in f], p.dim + 1) for f in p.facets)
    monkeypatch.undo()
    assert len(calls) > 300
    for rows, ncols in calls:
        _assert_matches_reference(rows, ncols)
