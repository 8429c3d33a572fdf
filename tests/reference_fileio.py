"""The polytope file reader as it was written over `Fraction`s, kept as
the test reference for `fileio.polytope_from_dict`.

It parses every coordinate to a `Fraction` and every vertex to a `Vec`,
then builds the polytope from those rational vertices
(`Polytope.from_vertices`, which clears them with
`linalg.as_int_coords`).  The library reads each coordinate straight to
a reduced integer pair and clears the vertex list itself; it must refuse
exactly the documents this reference refuses, with the same error, and
build the same polytope from every other.
"""

import re
from fractions import Fraction
from typing import List, Tuple

from minkdecomp.errors import InvalidInputError
from minkdecomp.fileio import FORMAT_VERSION
from minkdecomp.linalg import Vec
from minkdecomp.polytope import Polytope, facet_list_faults

_COORD_STRING = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def reference_coord_from_json(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise InvalidInputError(f"coordinates must be exact (int or 'p/q'), got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = _COORD_STRING.fullmatch(x)
        if m is None:
            raise InvalidInputError(f"bad coordinate {x!r}: not an integer or 'p/q'")
        try:
            return Fraction(int(m[1]), int(m[2] or 1))
        except ZeroDivisionError as exc:
            raise InvalidInputError(f"bad coordinate {x!r}: {exc}") from exc
    raise InvalidInputError(f"bad coordinate {x!r}")


def reference_polytope_from_dict(data) -> Tuple[Polytope, List[Vec]]:
    """The polytope a file dict describes, and its vertices as `Vec`s of
    `Fraction`s, read as the `Fraction` reader read them."""
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
    vertices = []
    for row in raw_vertices:
        if not isinstance(row, list) or len(row) != dim:
            raise InvalidInputError(f"each vertex needs {dim} coordinates")
        vertices.append(Vec(reference_coord_from_json(c) for c in row))
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInputError("name must be a string")
    raw_facets = data.get("facets")
    if raw_facets is None:
        return Polytope.from_vertices(dim, vertices, name=name), vertices
    if not isinstance(raw_facets, list):
        raise InvalidInputError("facets must be a list of index lists")
    listed = []
    for f in raw_facets:
        if not isinstance(f, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in f
        ):
            raise InvalidInputError("each facet must be a list of integers")
        if any(i < 0 or i >= len(vertices) for i in f):
            raise InvalidInputError("facet index out of range")
        if len(set(f)) != len(f):
            repeated = next(i for i in f if f.count(i) > 1)
            raise InvalidInputError(f"facet lists vertex index {repeated} more than once")
        listed.append(tuple(sorted(f)))
    p = Polytope.from_vertices(dim, vertices, name=name)
    faults = facet_list_faults(listed, p.facets)
    if faults:
        raise InvalidInputError("invalid polytope: " + "; ".join(faults))
    return p, vertices
