"""Micro-benchmark comparing the pure and compiled row reduction.

Run as `python -m minkdecomp.bench`.  The inputs are the integer cycle
systems the rank oracle reduces, built by `graphs.cycle_rows` over the
triangle classes of a few polytope skeleta; each row of the report
gives the class and edge counts of its system.  Both implementations
are invoked directly (bypassing the dispatcher) on identical inputs,
results are checked for equality, and per-call timings are reported
side by side.
Compiled rows are skipped when the extension is not built.  Facet
enumeration has one implementation on both paths and is not compared.
"""

import time
from typing import Callable, List, Optional, Tuple

from . import _kernels_py
from .constructors import bd198, delta
from .graphs import _bfs_tree, cycle_rows, skeleton, triangle_classes
from .linalg import as_int_coords

try:
    from . import _kernels as _compiled  # type: ignore[attr-defined]
except ImportError:
    _compiled = None

REPEAT = 5


def _time_best(fn: Callable[[], object], repeat: int = REPEAT) -> Tuple[float, object]:
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best or 0.0, result


def _rref_cases() -> List[Tuple[str, List[List[int]], int, int]]:
    """(label, rows, class count, edge count) per skeleton."""
    cases = []
    for p in (delta(2, 2), bd198(), delta(3, 3)):
        g = skeleton(p)
        ints, _ = as_int_coords(g.vertices.values())
        xs = dict(zip(g.vertices, ints))
        tree = _bfs_tree(g, sorted(g.vertices))
        col_of, k = triangle_classes(xs, g.edges)
        rows = cycle_rows(xs, tree, col_of, k)
        cases.append((f"rref_int {p.name} cycle system", rows, k, len(g.edges)))
    return cases


def main() -> int:
    rows_out: List[Tuple[str, int, int, float, Optional[float]]] = []
    for label, mat, ncols, edges in _rref_cases():
        t_pure, r_pure = _time_best(lambda: _kernels_py.rref_int([list(r) for r in mat], ncols))
        t_comp = None
        if _compiled is not None:
            t_comp, r_comp = _time_best(lambda: _compiled.rref_int([list(r) for r in mat], ncols))
            if r_comp != r_pure:
                raise AssertionError(f"kernel mismatch on {label}")
        rows_out.append((label, ncols, edges, t_pure, t_comp))

    width = max(len(r[0]) for r in rows_out)
    print(
        f"{'case':<{width}}  {'classes':>7}  {'edges':>5}  {'pure':>10}  "
        f"{'compiled':>10}  {'speedup':>8}"
    )
    for label, ncols, edges, t_pure, t_comp in rows_out:
        head = f"{label:<{width}}  {ncols:>7}  {edges:>5}  {t_pure * 1e3:9.3f}ms"
        if t_comp is None:
            print(f"{head}  {'-':>10}  {'-':>8}")
        else:
            ratio = t_pure / t_comp if t_comp > 0 else float("inf")
            print(f"{head}  {t_comp * 1e3:9.3f}ms  {ratio:7.1f}x")
    if _compiled is None:
        print("compiled extension not available; showing pure timings only")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
