"""The pure and compiled row reductions must be behaviourally identical.

Both must also equal `reference_rref_int`, the reduction that makes every
updated row primitive, on random matrices and on the systems the library
reduces: the primitive reduced row echelon form with positive pivots is
unique, whatever pivot rows are chosen on the way.

Facet enumeration has one implementation on both paths; tests/test_hull.py
checks it against a brute-force reference scan.
"""

import random

import pytest

from minkdecomp import _kernels_py, kernels
from minkdecomp.catalogue import catalogue_list
from minkdecomp.graphs import decomposing_space, skeleton
from minkdecomp.polytope import validate

from reference_linalg import reference_rref_int

try:
    from minkdecomp import _kernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled extension not built"
)


@needs_compiled
def test_rref_identical():
    rng = random.Random(11)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        want = _kernels_py.rref_int([list(r) for r in rows], ncols)
        got = compiled.rref_int([list(r) for r in rows], ncols)
        assert got == want


@needs_compiled
def test_rref_identical_with_huge_entries():
    rows = [[10**40, 1, 0], [3, -(10**38), 7], [2, 5, 10**25]]
    want = _kernels_py.rref_int([list(r) for r in rows], 3)
    got = compiled.rref_int([list(r) for r in rows], 3)
    assert got == want


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
    assert _kernels_py.rref_int([list(r) for r in rows], ncols) == want, (rows, ncols)
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
    """The cycle and edge-basis systems of `decomposing_space`, and the
    homogeneous facet systems (one row (x, -1) per facet vertex), over
    the catalogue.  `validate` fits its facets with the early-exit
    echelon of `linalg`, not `rref_int`, so the facet systems are fed in
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
        decomposing_space(skeleton(p))
        ints, _ = p.int_coords()
        calls.extend(([list(ints[i]) + [-1] for i in f], p.dim + 1) for f in p.facets)
    monkeypatch.undo()
    assert len(calls) > 300
    for rows, ncols in calls:
        _assert_matches_reference(rows, ncols)


def test_pure_env_forces_fallback():
    import os
    import pathlib
    import subprocess
    import sys

    # The child must import the same copy of the package as this process,
    # however that copy was found (PYTHONPATH, an editable install or
    # pytest's pythonpath setting), so its parent directory goes first.
    src = str(pathlib.Path(kernels.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import minkdecomp.kernels as k; print(k.HAVE_COMPILED)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path, "MINKDECOMP_PURE": "1"},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_pure_env_switch_with_stub_extension():
    import os
    import pathlib
    import subprocess
    import sys

    # A stub stands in for the compiled module, so the switch is observable
    # whether or not the extension is built.
    src = str(pathlib.Path(kernels.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, types; "
        "sys.modules['minkdecomp._kernels'] = types.ModuleType('minkdecomp._kernels'); "
        "import minkdecomp.kernels as k; print(k.HAVE_COMPILED)"
    )
    env = {k: v for k, v in os.environ.items() if k != "MINKDECOMP_PURE"}
    env["PYTHONPATH"] = path
    for extra, want in (({}, "True"), ({"MINKDECOMP_PURE": "1"}, "False")):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**env, **extra},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == want, extra


@needs_compiled
def test_compiled_facet_scan_vertex_cap():
    with pytest.raises(ValueError):
        compiled.facet_scan([(i,) for i in range(64)], 1)


def test_bench_reports_class_and_edge_counts(capsys):
    from minkdecomp import bench

    assert bench.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["case", "classes", "edges"]
    counts = {line.split()[1]: line.split()[4:6] for line in lines[1:4]}
    assert counts == {"delta(2,2)": ["6", "18"], "bd198": ["5", "15"], "delta(3,3)": ["8", "48"]}
