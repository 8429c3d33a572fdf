"""Polytope file format: canonical JSON with exact coordinates.

Coordinates are integers or "p/q" strings, never floats: a string must
match -?[0-9]+(/[0-9]+)? in full, with ASCII digits, so "1.5", "1e2",
" 3/4 ", "1_0" and other scripts' digits, which `Fraction` would take,
are refused.  Each coordinate is read straight to its numerator and
denominator in lowest terms, with no `Fraction` made, and the vertex
list is cleared to the least common denominator mult of them all: the
integer points X = mult * x that a polytope stores
(`Polytope.int_coords`).  Facets are optional on input and always
written on output, with members and facet lists sorted, so write ->
read -> write is byte-identical.  Either way the polytope is built from
its integer points (`Polytope.from_int_coords`, under the enumeration
guard).  Listed facets, once each is seen to be a list of integers, are
checked as `Polytope(...)` checks them (`Polytope.from_listed_facets`):
they must be exactly the hull's, each listing every vertex on its
hyperplane once, in any order, and an error's "facet i" is the i-th
facet listed in the file, counted from 0.
"""

from __future__ import annotations

import json
import re
from math import gcd, lcm
from typing import Tuple

from .errors import InvalidInputError
from .polytope import Polytope

FORMAT_VERSION = "1"
_COORD_STRING = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _coord_to_json(x):
    """A coordinate of the vertex view as an int, or "p/q" in lowest terms."""
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def _coord_from_json(x) -> Tuple[int, int]:
    """A coordinate as (p, q) in lowest terms, q > 0."""
    if isinstance(x, bool) or isinstance(x, float):
        raise InvalidInputError(f"coordinates must be exact (int or 'p/q'), got {x!r}")
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        m = _COORD_STRING.fullmatch(x)
        if m is None:
            raise InvalidInputError(f"bad coordinate {x!r}: not an integer or 'p/q'")
        p, q = int(m[1]), int(m[2] or 1)
        if q == 0:
            # The message the format has always given, `Fraction`'s own.
            raise InvalidInputError(f"bad coordinate {x!r}: Fraction({p}, 0)")
        common = gcd(p, q)
        return p // common, q // common
    raise InvalidInputError(f"bad coordinate {x!r}")


def polytope_to_dict(p: Polytope) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "dimension": p.dim,
        "vertices": [[_coord_to_json(c) for c in v] for v in p.vertices],
        "facets": [list(f) for f in p.facets],
    }
    if p.name is not None:
        out["name"] = p.name
    return out


def polytope_from_dict(data: dict) -> Polytope:
    if not isinstance(data, dict):
        raise InvalidInputError("polytope file must be a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise InvalidInputError(
            f"unsupported format_version {data.get('format_version')!r}"
        )
    dim = data.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidInputError("dimension must be a positive integer")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InvalidInputError("vertices must be a nonempty list")
    rows = []
    for row in raw_vertices:
        if not isinstance(row, list) or len(row) != dim:
            raise InvalidInputError(f"each vertex needs {dim} coordinates")
        rows.append([_coord_from_json(c) for c in row])
    mult = lcm(*(q for row in rows for _, q in row))
    ints = [tuple(p * (mult // q) for p, q in row) for row in rows]
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInputError("name must be a string")
    raw_facets = data.get("facets")
    if raw_facets is None:
        return Polytope.from_int_coords(dim, ints, mult, name)
    if not isinstance(raw_facets, list):
        raise InvalidInputError("facets must be a list of index lists")
    for f in raw_facets:
        if not isinstance(f, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in f
        ):
            raise InvalidInputError("each facet must be a list of integers")
    return Polytope.from_listed_facets(dim, ints, mult, raw_facets, name)


def dumps(p: Polytope) -> str:
    return json.dumps(polytope_to_dict(p), sort_keys=True, indent=2) + "\n"


def loads(text: str) -> Polytope:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"not valid JSON: {exc}") from exc
    return polytope_from_dict(data)


def write_polytope(p: Polytope, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(p))


def read_polytope(path: str) -> Polytope:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    return loads(text)
