"""The pure and compiled row reductions must be behaviourally identical.

Facet enumeration has one implementation on both paths; tests/test_hull.py
checks it against a brute-force reference scan.
"""

import random

import pytest

from minkdecomp import _kernels_py, kernels

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
