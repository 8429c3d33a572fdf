"""Count-based decomposability rules: what (d, V, E, F) alone implies.

These rules are advisory paraphrases of published results; they never
look at coordinates.  A few are sharp enough to act as standalone
verdicts (flagged unconditional), the rest narrow the possibilities.
"""

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class CountConclusion:
    verdict: str  # decomposable | indecomposable | prism-or-indecomposable |
                  # prism-or-delta22-or-indecomposable | no-such-polytope
    tag: str      # attribution / condition, rendered in brackets
    unconditional: bool  # usable as a standalone verdict

    def render(self) -> str:
        return f"{self.verdict} [{self.tag}]"


def count_rules(
    d: int,
    v: Optional[int] = None,
    e: Optional[int] = None,
    f: Optional[int] = None,
) -> List[CountConclusion]:
    """All applicable conclusions for the given counts; missing counts
    simply disable the rules that need them."""
    if d < 1 or any(x is not None and x < 0 for x in (v, e, f)):
        raise ValueError("counts must be nonnegative and d >= 1")
    out: List[CountConclusion] = []
    if d == 3 and v is not None and f is not None:
        if v > f:
            out.append(CountConclusion("decomposable", "Smilansky: V > F", True))
        if f >= 2 * v - 6:
            out.append(CountConclusion("indecomposable", "Smilansky: F >= 2V - 6", True))
    if d >= 2 and v is not None:
        if v < 2 * d:
            out.append(CountConclusion("indecomposable", "fewer than 2d vertices", True))
        if v <= 2 * d:
            out.append(
                CountConclusion(
                    "prism-or-indecomposable",
                    "at most 2d vertices: simplicial prism or indecomposable",
                    False,
                )
            )
    if d >= 3 and e is not None and 2 * e <= 2 * d * d + d:
        out.append(
            CountConclusion(
                "prism-or-delta22-or-indecomposable",
                "at most d^2 + d/2 edges: simplicial prism, sum of two triangles, "
                "or indecomposable",
                False,
            )
        )
    if d >= 4 and v == 2 * d and e == d * d + 1:
        out.append(
            CountConclusion(
                "no-such-polytope",
                "Grunbaum: no d-polytope has 2d vertices and d^2 + 1 edges",
                False,
            )
        )
    if d == 4 and e is not None and (e <= 15 or e == 17):
        out.append(
            CountConclusion(
                "indecomposable",
                "every 4-polytope with at most 15 or exactly 17 edges",
                False,
            )
        )
    return out

