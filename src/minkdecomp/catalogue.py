"""Named reference polytopes with their expected statuses and counts.

Every entry is built from scratch by its recipe, so the catalogue doubles
as a regression corpus: verify() rebuilds each polytope, validates it,
compares the counts, and checks that the certificate engine and the rank
oracle both reproduce the expected status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from .certificates import DECOMPOSABLE, INDECOMPOSABLE, analyze, replay
from .constructors import (
    bd182,
    bd198,
    bipyramid3,
    capped_prism,
    cube,
    cyclic,
    delta,
    octahedron,
    pentagon,
    simplex,
    wedge,
)
from .polytope import (
    FVector,
    Polytope,
    minkowski_sum,
    prism_over,
    pyramid_over,
    validate,
)


_E = [[int(i == j) for j in range(4)] for i in range(4)]
_O4 = [0, 0, 0, 0]


def _sum_18() -> Polytope:
    return minkowski_sum([_O4, _E[0], _E[1]], [_O4, _E[2], _E[3]], "sum-18-edges")


def _sum_19() -> Polytope:
    return minkowski_sum(simplex(4), [_O4, [1, 1, 0, 0]], "sum-19-edges")


def _sum_20() -> Polytope:
    return minkowski_sum(simplex(4), [_O4, [1, 2, 4, 8]], "sum-20-edges")


def _sum_22() -> Polytope:
    base = [_O4, _E[0], _E[1], _E[2], _E[3], [0, 0, 1, 1]]
    return minkowski_sum(base, [_O4, _E[0]], "sum-22-edges")


def _sum_25() -> Polytope:
    # The segment must be parallel to an edge of C(6,4); not all edges
    # give the same count, and [p(1), p(3)] is one that yields 25.
    c = cyclic(6, 4)
    direction = c.vertices[2] - c.vertices[0]
    return minkowski_sum(c, [_O4, direction], "sum-25-edges")


def _sum_27() -> Polytope:
    return minkowski_sum(simplex(4), [_O4, [-1, 0, 0, 0], [0, -1, 0, 0]], "sum-27-edges")


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    dim: int
    build: Callable[[], Polytope]
    expected_status: str
    expected: Optional[FVector] = None
    expected_edges: Optional[int] = None
    origin: str = ""


def _delta_entry(m: int, n: int) -> CatalogueEntry:
    v = (m + 1) * (n + 1)
    return CatalogueEntry(
        name=f"delta-{m}-{n}",
        dim=m + n,
        build=lambda m=m, n=n: delta(m, n),
        expected_status=DECOMPOSABLE,
        expected=FVector(v, (m + n) * v // 2, m + n + 2),
        origin=f"sum of a {m}-simplex and an {n}-simplex in complementary subspaces",
    )


def _wedge_entry(d: int) -> CatalogueEntry:
    v = 3 * d - 1
    return CatalogueEntry(
        name=f"wedge-{d}",
        dim=d,
        build=lambda d=d: wedge(d),
        expected_status=DECOMPOSABLE,
        expected=FVector(v, d * v // 2, d + 3),
        origin="simplicial prism with one vertex truncated; simple, one facet more",
    )


def _simplex_entry(d: int) -> CatalogueEntry:
    return CatalogueEntry(
        name=f"simplex-{d}",
        dim=d,
        build=lambda d=d: simplex(d),
        expected_status=INDECOMPOSABLE,
        expected=FVector(d + 1, d * (d + 1) // 2, d + 1),
        origin="standard simplex",
    )


def _entries() -> List[CatalogueEntry]:
    out = [
        CatalogueEntry(
            "triangle",
            2,
            lambda: simplex(2),
            INDECOMPOSABLE,
            FVector(3, 3, 3),
            origin="the indecomposable polygon",
        ),
        CatalogueEntry(
            "square",
            2,
            lambda: cube(2),
            DECOMPOSABLE,
            FVector(4, 4, 4),
            origin="sum of two orthogonal segments",
        ),
        CatalogueEntry(
            "tetrahedron",
            3,
            lambda: simplex(3),
            INDECOMPOSABLE,
            FVector(4, 6, 4),
            origin="3-simplex",
        ),
        CatalogueEntry(
            "square-pyramid",
            3,
            lambda: pyramid_over(cube(2)),
            INDECOMPOSABLE,
            FVector(5, 8, 5),
            origin="pyramid over a square",
        ),
        CatalogueEntry(
            "triangular-bipyramid",
            3,
            bipyramid3,
            INDECOMPOSABLE,
            FVector(5, 9, 6),
            origin="two apexes over a shared triangle",
        ),
        CatalogueEntry(
            "octahedron",
            3,
            octahedron,
            INDECOMPOSABLE,
            FVector(6, 12, 8),
            origin="cross-polytope, all faces triangles",
        ),
        CatalogueEntry(
            "cube-3",
            3,
            lambda: cube(3),
            DECOMPOSABLE,
            FVector(8, 12, 6),
            origin="sum of three orthogonal segments",
        ),
        CatalogueEntry(
            "pentagonal-prism",
            3,
            lambda: prism_over(pentagon()),
            DECOMPOSABLE,
            FVector(10, 15, 7),
            origin="prism over a pentagon",
        ),
        CatalogueEntry(
            "capped-prism",
            3,
            capped_prism,
            DECOMPOSABLE,
            FVector(7, 12, 7),
            origin="tetrahedron stacked onto one end of a triangular prism",
        ),
        CatalogueEntry(
            "bd182",
            3,
            bd182,
            DECOMPOSABLE,
            FVector(8, 15, 9),
            origin="Britton-Dunitz polyhedron no. 182",
        ),
        CatalogueEntry(
            "bd198",
            3,
            bd198,
            DECOMPOSABLE,
            FVector(8, 15, 9),
            origin="Britton-Dunitz polyhedron no. 198",
        ),
        CatalogueEntry(
            "cyclic-6-4",
            4,
            lambda: cyclic(6, 4),
            INDECOMPOSABLE,
            FVector(6, 15, 9),
            origin="cyclic polytope C(6,4) on the moment curve",
        ),
    ]
    out.extend(_delta_entry(1, n) for n in range(2, 6))
    out.extend(_delta_entry(2, n) for n in range(2, 5))
    out.append(_delta_entry(3, 3))
    out.append(_delta_entry(3, 4))
    out.extend(_wedge_entry(d) for d in range(3, 7))
    out.extend(_simplex_entry(d) for d in (4, 5, 6))
    out.extend(
        [
            CatalogueEntry(
                "sum-18-edges",
                4,
                _sum_18,
                DECOMPOSABLE,
                expected_edges=18,
                origin="sum of two triangles lying in orthogonal planes",
            ),
            CatalogueEntry(
                "sum-19-edges",
                4,
                _sum_19,
                DECOMPOSABLE,
                expected_edges=19,
                origin="sum of a 4-simplex and a diagonal segment of a 2-face",
            ),
            CatalogueEntry(
                "sum-20-edges",
                4,
                _sum_20,
                DECOMPOSABLE,
                expected_edges=20,
                origin="sum of a 4-simplex and a segment in general position",
            ),
            CatalogueEntry(
                "sum-22-edges",
                4,
                _sum_22,
                DECOMPOSABLE,
                expected_edges=22,
                origin="sum of a segment and a simplex with one pulled vertex",
            ),
            CatalogueEntry(
                "sum-25-edges",
                4,
                _sum_25,
                DECOMPOSABLE,
                expected_edges=25,
                origin="sum of C(6,4) and a segment in general position",
            ),
            CatalogueEntry(
                "sum-27-edges",
                4,
                _sum_27,
                DECOMPOSABLE,
                expected_edges=27,
                origin="sum of a 4-simplex and a triangle",
            ),
        ]
    )
    return out


def catalogue_list() -> List[CatalogueEntry]:
    return _entries()


def catalogue_entry(name: str) -> CatalogueEntry:
    for entry in _entries():
        if entry.name == name:
            return entry
    raise KeyError(name)


@dataclass(frozen=True)
class EntryResult:
    name: str
    ok: bool
    details: str


@dataclass(frozen=True)
class VerifyReport:
    results: Tuple[EntryResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [
            f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.details}"
            for r in self.results
        ]
        good = sum(1 for r in self.results if r.ok)
        lines.append(f"{good}/{len(self.results)} entries pass")
        return "\n".join(lines)


def _verify_entry(entry: CatalogueEntry) -> EntryResult:
    problems = []
    p = entry.build()
    report = validate(p)
    if not report.ok:
        problems.append(f"invalid: {'; '.join(report.violations)}")
    fv = p.f_vector()
    if entry.expected is not None and fv != entry.expected:
        problems.append(f"f-vector {tuple(fv)} != expected {tuple(entry.expected)}")
    if entry.expected_edges is not None and fv.e != entry.expected_edges:
        problems.append(f"{fv.e} edges != expected {entry.expected_edges}")
    analysis = analyze(p, mode="certificates-first")
    if analysis.verdict != entry.expected_status:
        problems.append(f"verdict {analysis.verdict} != expected {entry.expected_status}")
    if analysis.trace is not None and not replay(analysis.trace, p):
        problems.append("trace does not replay")
    if problems:
        return EntryResult(entry.name, False, "; ".join(problems))
    return EntryResult(
        entry.name,
        True,
        f"{analysis.verdict} via {analysis.method}, f-vector {tuple(fv)}",
    )


def catalogue_verify(dims: Optional[Set[int]] = None) -> VerifyReport:
    """Rebuild and re-decide every entry (optionally restricted to some
    dimensions) against its expected status, reporting pass/fail per
    entry."""
    results = []
    for entry in _entries():
        if dims is not None and entry.dim not in dims:
            continue
        try:
            results.append(_verify_entry(entry))
        except Exception as exc:  # verification must not abort the report
            results.append(EntryResult(entry.name, False, f"error: {exc}"))
    return VerifyReport(tuple(results))
