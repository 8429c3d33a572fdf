"""JSON serialization: exact coordinates, canonical output."""

import copy
import json
import os
import random
import re
from fractions import Fraction

import pytest

from minkdecomp.cli import main
from minkdecomp.constructors import cube, cyclic, simplex
from minkdecomp.errors import InvalidInputError
from minkdecomp.fileio import (
    dumps,
    loads,
    polytope_from_dict,
    polytope_to_dict,
    read_polytope,
    write_polytope,
)
from minkdecomp.linalg import as_int_coords
from minkdecomp.polytope import Polytope

from reference_fileio import reference_coord_from_json, reference_polytope_from_dict

BENCH_INPUTS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs", "polytopes.json")


def test_write_read_write_is_byte_identical(tmp_path):
    p = cyclic(7, 4)
    path = tmp_path / "c74.json"
    write_polytope(p, str(path))
    q = read_polytope(str(path))
    assert dumps(q) == path.read_text(encoding="utf-8")
    assert q.vertices == p.vertices
    assert q.facets == p.facets
    assert q.name == p.name


def test_facets_recomputed_when_absent():
    p = cube(3)
    data = polytope_to_dict(p)
    del data["facets"]
    q = polytope_from_dict(data)
    assert q.facets == p.facets


def test_fraction_coordinates_round_trip():
    p = Polytope.from_vertices(
        2, [["1/3", 0], [1, 0], [0, 1]], name="thin-triangle"
    )
    text = dumps(p)
    assert '"1/3"' in text
    assert loads(text).vertices == p.vertices


def test_no_floats_in_output():
    text = dumps(cyclic(6, 4))
    data = json.loads(text)
    for row in data["vertices"]:
        assert all(isinstance(c, (int, str)) for c in row)


REJECTED_DOCUMENTS = {
    "version": (lambda d: d.update(format_version="2"), "unsupported format_version"),
    "dim-zero": (lambda d: d.update(dimension=0), "dimension must be a positive integer"),
    "dim-string": (lambda d: d.update(dimension="3"), "dimension must be a positive integer"),
    "dim-bool": (lambda d: d.update(dimension=True), "dimension must be a positive integer"),
    "no-vertices": (lambda d: d.update(vertices=[]), "vertices must be a nonempty list"),
    "float-coord": (
        lambda d: d.update(vertices=[[0.5, 0, 0]] + d["vertices"][1:]), "must be exact"
    ),
    "bool-coord": (
        lambda d: d.update(vertices=[[True, 0, 0]] + d["vertices"][1:]), "must be exact"
    ),
    "zero-denominator": (
        lambda d: d.update(vertices=[["1/0", 0, 0]] + d["vertices"][1:]), "bad coordinate '1/0'"
    ),
    # String forms that `Fraction` parses but the format does not allow,
    # and malformed fractions.
    **{
        f"coord-{kind}": (
            lambda d, coord=coord: d["vertices"][1].__setitem__(0, coord),
            f"bad coordinate {coord!r}",
        )
        for kind, coord in {
            "decimal": "1.5",
            "exponent": "1e2",
            "spaces": " 3/4 ",
            "underscore": "1_0",
            "arabic-indic-digit": "\u0663",
            "plus-sign": "+1",
            "trailing-newline": "1/2\n",
            "negative-denominator": "1/-2",
            "no-denominator": "3/",
            "empty": "",
        }.items()
    },
    "short-vertex": (
        lambda d: d.update(vertices=[v[:2] for v in d["vertices"]]), "needs 3 coordinates"
    ),
    "facet-range": (lambda d: d.update(facets=[[0, 99]]), "facet index out of range"),
    "facet-bool": (
        lambda d: d.update(facets=[[0, False, 2]]), "each facet must be a list of integers"
    ),
    "facet-repeat": (
        lambda d: d["facets"].append([0, 0, 1, 2]), "facet lists vertex index 0 more than once"
    ),
    "facets-type": (lambda d: d.update(facets="not-a-list"), "facets must be a list"),
    "name-type": (lambda d: d.update(name=7), "name must be a string"),
}


@pytest.mark.parametrize("mutate", list(REJECTED_DOCUMENTS))
def test_rejected_documents(mutate):
    change, message = REJECTED_DOCUMENTS[mutate]
    data = polytope_to_dict(simplex(3))
    change(data)
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        polytope_from_dict(data)
    # Refused as the `Fraction` reader refused it, with the same message.
    assert not _assert_same_reading(data)


def test_cli_exits_2_on_a_coordinate_outside_the_format(tmp_path, capsys):
    data = polytope_to_dict(simplex(3))
    del data["facets"]
    data["vertices"][1][0] = "1e2"
    path = tmp_path / "bad-coordinate.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad coordinate '1e2'" in captured.err


def test_format_coordinate_strings_still_load():
    data = polytope_to_dict(simplex(3))
    data["vertices"][1] = ["2/2", "-0", "007"]
    data["vertices"][2] = ["-0/1", "-1/3", "0/5"]
    data["vertices"][3] = ["0", "0", "12/4"]
    del data["facets"]
    p = polytope_from_dict(data)
    assert p.vertices[1:] == (
        (Fraction(1), Fraction(0), Fraction(7)),
        (Fraction(0), Fraction(-1, 3), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(3)),
    )


def test_tampered_facet_list_rejected():
    data = polytope_to_dict(simplex(3))
    data["facets"] = data["facets"][:-1]
    with pytest.raises(InvalidInputError):
        polytope_from_dict(data)


def test_not_json():
    with pytest.raises(InvalidInputError):
        loads("{")
    with pytest.raises(InvalidInputError):
        polytope_from_dict([1, 2])


def test_missing_file():
    with pytest.raises(InvalidInputError):
        read_polytope("/nonexistent/path.json")


def test_nameless_polytope_omits_name_key():
    p = Polytope.from_vertices(1, [[0], [1]])
    assert "name" not in polytope_to_dict(p)
    assert loads(dumps(p)).name is None


def test_benchmark_inputs_with_facets_load():
    # The committed benchmark inputs list their facets; each list must be
    # exactly the hull's facets.
    with open(BENCH_INPUTS, encoding="utf-8") as fh:
        bases = json.load(fh)
    listed = {name: data for name, data in bases.items() if "facets" in data}
    assert len(listed) == 48
    for name, data in listed.items():
        p = polytope_from_dict(data)
        assert [list(f) for f in p.facets] == data["facets"], name


# ---------------------------------------------------------------------------
# The integer reader against the `Fraction` reader it replaced


def _outcome(read, data):
    """What a reader makes of a document: ("ok", its result), or
    ("refused", the error's type and message)."""
    try:
        return "ok", read(copy.deepcopy(data))
    except Exception as exc:  # every refusal is compared, whatever its type
        return "refused", (type(exc), str(exc))


def _assert_same_reading(data):
    """The library reader refuses the document exactly when the
    `Fraction` reader does, with the same error; otherwise its vertex
    view is the reference's `Fraction`s, its integer points are those
    cleared, and the polytopes are equal.  Returns whether it read."""
    got = _outcome(polytope_from_dict, data)
    want = _outcome(reference_polytope_from_dict, data)
    if want[0] == "refused":
        assert got == want
        return False
    assert got[0] == "ok", got
    p, (q, vertices) = got[1], want[1]
    assert p.vertices == tuple(vertices)
    assert p.int_coords() == as_int_coords(vertices)
    assert p == q and p.facets == q.facets and p.name == q.name
    return True


_ODD_COORDINATES = [
    "1.5", "1e2", " 3/4 ", "1_0", "\u0663", "+1", "1/2\n", "1/-2", "3/", "", "/3",
    "--1", "0x10", "1//2", "\u00bd", "2/0", "-0/0", True, False, 0.5, 2.0, None, [1],
]


def _random_coordinate(rng):
    """An int, a format string (leading zeros, signs, unreduced, zero
    and huge numerators), or now and then anything else."""
    roll = rng.random()
    if roll < 0.3:
        return rng.randint(-12, 12)
    if roll < 0.97:
        p = rng.choice([0, 1, 2, 3, 6, 12, 35, 10**30 + 7])
        q = rng.choice([1, 2, 3, 4, 6, 9, 12, 10**20])
        sign = rng.choice(["", "-"])
        zeros = "0" * rng.randint(0, 2)
        return f"{sign}{zeros}{p}" if rng.random() < 0.2 else f"{sign}{zeros}{p}/{zeros}{q}"
    return rng.choice(_ODD_COORDINATES)


def _seeded_documents(rng):
    """800 documents in dimension 1 to 3, their coordinates drawn by
    `_random_coordinate`, with no facet list."""
    for _ in range(800):
        dim = rng.randint(1, 3)
        yield {
            "format_version": "1",
            "dimension": dim,
            "vertices": [
                [_random_coordinate(rng) for _ in range(dim)]
                for _ in range(rng.randint(dim + 1, dim + 4))
            ],
        }


def test_the_reader_matches_the_fraction_reader_on_seeded_coordinates():
    rng = random.Random(31)
    read = refused = listed = 0
    for data in _seeded_documents(rng):
        if _assert_same_reading(data):
            read += 1
            # Read again with the hull's facets listed, shuffled.
            facets = [list(f) for f in reference_polytope_from_dict(data)[0].facets]
            rng.shuffle(facets)
            data["facets"] = facets
            listed += _assert_same_reading(data)
        else:
            refused += 1
    assert read > 150 and refused > 150 and listed == read, (read, refused, listed)


def _assert_the_constructor_reads_alike(data):
    """`Polytope(...)`, given a document's dimension, its vertices read as
    `Fraction`s, its facet list and its name, admits the same polytope
    the reader does, or refuses it with the same error.  The document's
    shape must be valid: the reader's shape checks come before the
    check they share.  Returns whether it was admitted."""
    vertices = [[reference_coord_from_json(c) for c in row] for row in data["vertices"]]

    def construct(d):
        return Polytope(d["dimension"], vertices, d["facets"], d.get("name"))

    got = _outcome(construct, data)
    assert got == _outcome(polytope_from_dict, data)
    return got[0] == "ok"


def test_the_constructor_matches_the_reader_on_seeded_documents():
    """On each seeded document whose coordinates are in the format, with
    the hull's facets listed, shuffled, where the reader reads it, and an
    empty list where it refuses the points."""
    rng = random.Random(31)
    admitted = refused = 0
    for data in _seeded_documents(rng):
        try:
            facets = [list(f) for f in reference_polytope_from_dict(data)[0].facets]
        except InvalidInputError as exc:
            if any(word in str(exc) for word in ("coordinate", "exact")):
                continue
            facets = []
        rng.shuffle(facets)
        data["facets"] = facets
        if _assert_the_constructor_reads_alike(data):
            admitted += 1
        else:
            refused += 1
    assert admitted > 150 and refused > 150, (admitted, refused)


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d.update(facets=[[0, 99]]),
        lambda d: d.update(facets=[[0, -1]]),
        lambda d: d["facets"].append([0, 0, 1, 2]),
        lambda d: d.update(facets=d["facets"][:-1]),
        lambda d: d["facets"].append(d["facets"][0]),
        lambda d: d["facets"].__setitem__(0, d["facets"][0] + [3]),
        lambda d: d["vertices"].append(["1/4", "1/4", "1/4"]),
        lambda d: d["vertices"].append([0, 0, 0]),
        lambda d: d.update(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
    ],
    ids=[
        "index-past-the-end", "negative-index", "repeated-index", "missing-facet",
        "repeated-facet", "grown-facet", "stray-point", "duplicate-point", "flat",
    ],
)
def test_the_constructor_refuses_what_the_reader_refuses(change):
    """Documents whose shape is valid but whose facet list or points the
    reader refuses: the constructor refuses them with the same error."""
    data = polytope_to_dict(simplex(3))
    change(data)
    assert not _assert_the_constructor_reads_alike(data)


def test_the_reader_matches_the_fraction_reader_on_the_benchmark_inputs():
    with open(BENCH_INPUTS, encoding="utf-8") as fh:
        bases = json.load(fh)
    assert all(_assert_same_reading(data) for data in bases.values())


def test_a_point_that_is_not_a_vertex_is_named_with_rational_coordinates():
    data = polytope_to_dict(simplex(2))
    del data["facets"]
    data["vertices"].append(["1/2", "2/6"])
    message = "not vertices of the convex hull of the input: point 3 (1/2, 1/3)"
    with pytest.raises(InvalidInputError) as caught:
        polytope_from_dict(data)
    assert str(caught.value) == message
