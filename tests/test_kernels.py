"""The pure and compiled kernels must be behaviourally identical."""

import random

import pytest

from minkdecomp import _kernels_py, kernels
from minkdecomp.constructors import bd198, cyclic, delta

try:
    from minkdecomp import _kernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled extension not built"
)


def _int_coords(p):
    return [tuple(int(c) for c in v) for v in p.vertices]


@needs_compiled
@pytest.mark.parametrize("build", [lambda: delta(2, 2), lambda: cyclic(6, 4), bd198, lambda: delta(1, 3)])
def test_facet_scan_identical(build):
    p = build()
    coords = _int_coords(p)
    assert compiled.facet_scan(coords, p.dim) == _kernels_py.facet_scan(coords, p.dim)


@needs_compiled
def test_facet_scan_identical_on_random_point_sets():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.choice([2, 3])
        n = rng.randint(d + 1, d + 5)
        pts = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(n)]
        if len(set(pts)) < len(pts):
            continue
        try:
            want = _kernels_py.facet_scan(pts, d)
        except ValueError:
            with pytest.raises(ValueError):
                compiled.facet_scan(pts, d)
            continue
        assert compiled.facet_scan(pts, d) == want


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


def test_dispatcher_overflow_gate():
    # Small coordinates pass the int64 gate, huge ones must not.
    small = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernels._scan_fits_int64(small, 3)
    huge = [tuple(10**12 * c for c in v) for v in small]
    assert not kernels._scan_fits_int64(huge, 3)
    assert not kernels._scan_fits_int64([(0,)] * 64, 1)


def test_dispatcher_falls_back_beyond_gate():
    # Beyond the gate the dispatcher must still answer, via pure Python.
    verts = [
        (0, 0),
        (10**12, 0),
        (0, 10**12),
        (10**12, 10**12),
    ]
    got = kernels.facet_scan(verts, 2)
    assert got == _kernels_py.facet_scan(verts, 2)
    assert len(got) == 4


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
