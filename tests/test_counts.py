"""Count-only rules: verdicts derivable from (d, V, E, F) alone."""

import pytest

from minkdecomp.counts import CountConclusion, count_rules

from reference_linalg import simple_vertex_spectrum_below_3d


def verdicts(conclusions):
    return [c.verdict for c in conclusions]


def test_three_dim_more_vertices_than_facets_is_decomposable():
    out = count_rules(3, v=6, e=9, f=5)
    dec = [c for c in out if c.verdict == "decomposable"]
    assert len(dec) == 1 and dec[0].unconditional
    assert "V > F" in dec[0].tag


def test_three_dim_many_facets_is_indecomposable():
    out = count_rules(3, v=6, e=12, f=8)
    ind = [c for c in out if c.verdict == "indecomposable" and c.unconditional]
    assert any("F >= 2V - 6" in c.tag for c in ind)


def test_few_vertices_is_indecomposable_in_any_dimension():
    for d in (2, 3, 4, 6):
        out = count_rules(d, v=2 * d - 1)
        assert any(
            c.verdict == "indecomposable" and c.unconditional and "2d" in c.tag
            for c in out
        )
    # At exactly 2d vertices only the advisory form remains.
    out = count_rules(4, v=8)
    assert not any(c.verdict == "indecomposable" and c.unconditional for c in out)
    assert any(c.verdict == "prism-or-indecomposable" for c in out)


def test_edge_bound_advisory():
    out = count_rules(4, v=9, e=18, f=6)
    assert any(c.verdict == "prism-or-delta22-or-indecomposable" for c in out)
    assert all(not c.unconditional or c.verdict != "decomposable" for c in out)


def test_no_such_polytope_window():
    for d in range(4, 9):
        out = count_rules(d, v=2 * d, e=d * d + 1, f=d + 2)
        assert any(c.verdict == "no-such-polytope" for c in out)
    # Off by one in either count and the rule stays silent.
    assert not any(
        c.verdict == "no-such-polytope" for c in count_rules(4, v=9, e=17, f=6)
    )
    assert not any(
        c.verdict == "no-such-polytope" for c in count_rules(4, v=8, e=18, f=6)
    )


def test_four_dim_edge_scarcity_rule():
    for e in (13, 15, 17):
        out = count_rules(4, v=10, e=e, f=7)
        assert any(
            c.verdict == "indecomposable" and "15 or exactly 17" in c.tag for c in out
        )
    out16 = count_rules(4, v=8, e=16, f=6)
    assert not any("15 or exactly 17" in c.tag for c in out16)


def test_missing_counts_disable_rules():
    assert count_rules(3) == []
    out = count_rules(3, v=10)
    assert verdicts(out) == []  # V > F needs F; V < 2d fails at 10 >= 6


def test_invalid_inputs():
    with pytest.raises(ValueError):
        count_rules(0, v=1)
    with pytest.raises(ValueError):
        count_rules(3, v=-1)


def test_render_format():
    c = CountConclusion("decomposable", "Smilansky: V > F", True)
    assert c.render() == "decomposable [Smilansky: V > F]"


def test_spectrum_values():
    assert simple_vertex_spectrum_below_3d(3) == {4, 6, 8}
    assert simple_vertex_spectrum_below_3d(4) == {5, 8, 9, 11}
    assert simple_vertex_spectrum_below_3d(5) == {6, 10, 12, 14}
    assert simple_vertex_spectrum_below_3d(6) == {7, 12, 15, 16, 17}
    assert simple_vertex_spectrum_below_3d(7) == {8, 14, 18, 20}
    with pytest.raises(ValueError):
        simple_vertex_spectrum_below_3d(2)
