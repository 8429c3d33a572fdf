"""JSON serialization: exact coordinates, canonical output."""

import json
import os
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
from minkdecomp.polytope import Polytope


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
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs", "polytopes.json")
    with open(path, encoding="utf-8") as fh:
        bases = json.load(fh)
    listed = {name: data for name, data in bases.items() if "facets" in data}
    assert len(listed) == 48
    for name, data in listed.items():
        p = polytope_from_dict(data)
        assert [list(f) for f in p.facets] == data["facets"], name
