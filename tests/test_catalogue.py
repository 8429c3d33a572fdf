"""The worked-example catalogue: builds, expected counts, verdicts."""

import dataclasses

import pytest

from minkdecomp import catalogue
from minkdecomp.catalogue import (
    catalogue_entry,
    catalogue_list,
    catalogue_verify,
)
from minkdecomp.certificates import analyze
from minkdecomp.graphs import skeleton

from reference_linalg import incidence_isomorphic


def test_catalogue_names_unique_and_lookup():
    entries = catalogue_list()
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert catalogue_entry("bd198").dim == 3
    with pytest.raises(KeyError):
        catalogue_entry("no-such-entry")


def test_catalogue_covers_desk_scale_dimensions():
    dims = {e.dim for e in catalogue_list()}
    assert dims == {2, 3, 4, 5, 6, 7}


def test_full_catalogue_verifies():
    report = catalogue_verify()
    assert len(report.results) == 34
    assert report.ok, report.render()


def test_catalogue_verify_render_lines():
    report = catalogue_verify(dims={2})
    lines = report.render().splitlines()
    assert any(line.startswith("PASS  triangle:") for line in lines)
    assert any(line.startswith("PASS  square:") for line in lines)


def test_dims_filter():
    report = catalogue_verify(dims={2})
    assert {r.name for r in report.results} == {"triangle", "square"}


def test_expected_override_flips_exactly_one_entry(monkeypatch):
    entries = catalogue._entries

    def flipped():
        return [
            dataclasses.replace(e, expected_status="Decomposable") if e.name == "octahedron" else e
            for e in entries()
        ]

    monkeypatch.setattr(catalogue, "_entries", flipped)
    report = catalogue_verify()
    bad = [r for r in report.results if not r.ok]
    assert [r.name for r in bad] == ["octahedron"]
    assert "verdict" in bad[0].details


@pytest.mark.parametrize("edges", [18, 19, 20, 22, 25, 27])
def test_sum_entries_hit_their_edge_counts(edges):
    entry = catalogue_entry(f"sum-{edges}-edges")
    p = entry.build()
    assert p.dim == 4
    assert p.f_vector().e == edges


def test_bd_pair_have_equal_counts_but_different_incidences():
    a = catalogue_entry("bd182").build()
    b = catalogue_entry("bd198").build()
    assert tuple(a.f_vector()) == tuple(b.f_vector()) == (8, 15, 9)
    assert not incidence_isomorphic(a, b)


def test_status_split():
    entries = catalogue_list()
    ind = {e.name for e in entries if e.expected_status == "Indecomposable"}
    assert ind == {
        "triangle",
        "tetrahedron",
        "square-pyramid",
        "triangular-bipyramid",
        "octahedron",
        "cyclic-6-4",
        "simplex-4",
        "simplex-5",
        "simplex-6",
    }
    assert len(entries) - len(ind) == 25


def test_every_decomposable_report_has_a_witness_that_checks():
    """A count rule decides without a witness, so its Decomposable
    report carries the oracle's, the one oracle-only mode hands out."""
    count_ruled = set()
    for e in catalogue_list():
        p = e.build()
        r = analyze(p)
        if r.verdict != "Decomposable":
            assert r.witness is None, e.name
            continue
        assert r.witness is not None and r.witness.check(skeleton(p)), e.name
        if r.method == "count-rule":
            count_ruled.add(e.name)
            assert r.witness == analyze(p, "oracle-only").witness, e.name
    assert count_ruled == {"cube-3", "pentagonal-prism", "delta-1-2", "wedge-3"}
