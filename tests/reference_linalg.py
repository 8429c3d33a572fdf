"""Rational linear-algebra helpers kept only as test references.

The library decides ranks and solves its systems over cleared integer
coordinates; these rational forms back the reference constructions the
tests compare it against (`test_graphs`, `test_polytope`), and
`test_linalg` checks them in turn.
"""

from fractions import Fraction
from typing import List, Optional, Sequence

from minkdecomp import kernels
from minkdecomp.linalg import Rational, clear_denominators, rank_and_kernel


def matrix_rank(rows: Sequence[Sequence[Rational]], ncols: Optional[int] = None) -> int:
    if ncols is None and not rows:
        return 0
    return rank_and_kernel(rows, ncols)[0]


def solve_exact(
    rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> List[Rational]:
    """Unique solution of a square nonsingular system; ValueError otherwise."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("system is not square")
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    int_rows = [r for r in clear_denominators(aug) if any(r)]
    pivot_cols, reduced = kernels.rref_int(int_rows, n + 1)
    if tuple(pivot_cols) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [Fraction(reduced[i][n], reduced[i][i]) for i in range(n)]
