"""Constructor families and their documented counts."""

import pytest

from minkdecomp import constructors
from minkdecomp.constructors import (
    bd182,
    bd198,
    bipyramid3,
    capped_prism,
    construct_basic,
    cube,
    cyclic,
    delta,
    octahedron,
    pentagon,
    segment,
    simplex,
    wedge,
)
from minkdecomp.errors import GuardExceededError, InvalidInputError
from minkdecomp.polytope import FVector, validate

from reference_linalg import incidence_isomorphic, is_simple, vertex_degree


@pytest.mark.parametrize("d", range(1, 7))
def test_simplex_counts(d):
    p = simplex(d)
    fv = p.f_vector()
    assert fv.v == d + 1
    assert fv.e == d * (d + 1) // 2
    assert fv.f == d + 1
    assert is_simple(p)


@pytest.mark.parametrize(
    "m,n",
    [(m, n) for m in range(0, 4) for n in range(max(m, 1), 5)],
)
def test_delta_counts(m, n):
    p = delta(m, n)
    fv = p.f_vector()
    assert fv.v == (m + 1) * (n + 1)
    assert fv.e == (m + n) * (m + 1) * (n + 1) // 2
    # The product formula for facets holds for two genuine factors; a
    # point factor leaves a plain simplex.
    assert fv.f == (m + n + 2 if m >= 1 else n + 1)
    assert is_simple(p)


def test_delta_zero_zero_rejected():
    with pytest.raises(InvalidInputError):
        delta(0, 0)


@pytest.mark.parametrize("d", range(1, 5))
def test_cube_counts(d):
    fv = cube(d).f_vector()
    assert fv.v == 2**d
    assert fv.e == d * 2 ** (d - 1)
    assert fv.f == 2 * d


@pytest.mark.parametrize("d", [6, 40])
def test_cube_is_refused_before_its_points_are_listed(monkeypatch, d):
    def no_points(*args):
        raise AssertionError("cube listed its points above the guard")

    monkeypatch.setattr(constructors, "Vec", no_points)
    with pytest.raises(GuardExceededError):
        cube(d)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_wedge_counts(d):
    fv = wedge(d).f_vector()
    assert fv == FVector(3 * d - 1, d * (3 * d - 1) // 2, d + 3)
    assert is_simple(wedge(d))


def test_cyclic_counts():
    assert cyclic(6, 4).f_vector() == FVector(6, 15, 9)
    # Neighborliness: every pair of vertices is an edge for d = 4.
    assert cyclic(7, 4).f_vector().e == 21


def test_three_dimensional_specials():
    assert octahedron().f_vector() == FVector(6, 12, 8)
    assert bipyramid3().f_vector() == FVector(5, 9, 6)
    assert capped_prism().f_vector() == FVector(7, 12, 7)
    assert bd182().f_vector() == FVector(8, 15, 9)
    assert bd198().f_vector() == FVector(8, 15, 9)
    assert pentagon().f_vector().v == 5


def test_bd_pair_differs_combinatorially():
    a, b = bd182(), bd198()
    degs = lambda p: sorted(vertex_degree(p, v) for v in range(len(p.vertices)))
    assert degs(a) != degs(b)
    assert not incidence_isomorphic(a, b)


def test_bd198_is_prism_with_two_caps():
    p = bd198()
    # Two degree-3 cap apexes over opposite triangles.
    caps = [v for v in range(8) if vertex_degree(p, v) == 3]
    assert len(caps) == 2


def test_segment():
    s = segment(-2, 5)
    assert s.dim == 1
    assert len(s.vertices) == 2


def test_construct_basic_dispatch():
    p = construct_basic("delta", m=1, n=2)
    assert p.f_vector() == FVector(6, 9, 5)
    q = construct_basic("cyclic", n=6, d=4)
    assert q.f_vector() == FVector(6, 15, 9)
    with pytest.raises(InvalidInputError):
        construct_basic("dodecahedron")


def test_constructors_validate():
    for p in (simplex(5), delta(2, 3), cube(4), wedge(4), bd198(), capped_prism()):
        assert validate(p).ok


def test_bad_parameters_rejected():
    with pytest.raises(InvalidInputError):
        simplex(0)
    with pytest.raises(InvalidInputError):
        cyclic(4, 4)  # needs n >= d + 1
    with pytest.raises(InvalidInputError):
        cyclic(6, 3)  # implemented for even d
    with pytest.raises(InvalidInputError):
        wedge(2)
