"""The command-line interface: subcommands, output shapes, exit codes."""

import dataclasses
import json

import pytest

from minkdecomp import certificates, constructors, graphs, kernels
from minkdecomp.cli import PARAMETRIC_KINDS, main
from minkdecomp.fileio import loads, read_polytope, write_polytope
from minkdecomp.catalogue import catalogue_entry
from minkdecomp.constructors import capped_prism, cube, cyclic, simplex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct


def test_construct_parametric_to_stdout(capsys):
    code, out, _ = run(capsys, "construct", "delta", "--m", "2", "--n", "2")
    assert code == 0
    p = loads(out)
    assert p.dim == 4
    assert tuple(p.f_vector()) == (9, 18, 6)


def test_construct_to_file(tmp_path, capsys):
    path = tmp_path / "cube.json"
    code, out, _ = run(capsys, "construct", "cube", "--d", "3", "-o", str(path))
    assert code == 0 and out == ""
    assert read_polytope(str(path)).f_vector().v == 8


# Small values every parametric family accepts: cyclic needs an even d
# and n >= d + 1, wedge needs d >= 3.
SMALL_PARAMS = {"d": 4, "m": 1, "n": 6}


@pytest.mark.parametrize("kind", sorted(PARAMETRIC_KINDS))
def test_construct_every_parametric_kind(capsys, kind):
    argv = ["construct", kind]
    for key in PARAMETRIC_KINDS[kind]:
        argv += [f"--{key}", str(SMALL_PARAMS[key])]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert loads(out).vertices


def test_construct_param_validation(capsys):
    code, _, err = run(capsys, "construct", "cube")
    assert code == 2 and "--d" in err
    code, _, err = run(capsys, "construct", "cube", "--d", "3", "--m", "1")
    assert code == 2 and "does not take" in err
    code, _, err = run(capsys, "construct", "nonagon")
    assert code == 2 and "unknown construction kind" in err
    code, _, err = run(capsys, "construct", "octahedron", "somefile.json")
    assert code == 2 and "no input files" in err


def test_construct_sum(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_polytope(cube(2), str(a))
    write_polytope(simplex(2), str(b))
    code, out, _ = run(capsys, "construct", "sum", str(a), str(b))
    assert code == 0
    # The triangle shares its axis normals with the square: a pentagon.
    assert loads(out).f_vector().v == 5
    code, _, err = run(capsys, "construct", "sum", str(a))
    assert code == 2 and "exactly 2" in err


def test_construct_derived_single_input(tmp_path, capsys):
    src = tmp_path / "t.json"
    write_polytope(simplex(3), str(src))

    code, out, _ = run(capsys, "construct", "prism-over", str(src))
    assert code == 0 and loads(out).f_vector() == (8, 16, 6)

    code, out, _ = run(capsys, "construct", "stack-pyramid", str(src), "--facet", "0")
    assert code == 0 and loads(out).f_vector() == (5, 9, 6)
    code, _, err = run(capsys, "construct", "stack-pyramid", str(src))
    assert code == 2 and "--facet" in err

    code, out, _ = run(capsys, "construct", "truncate-vertex", str(src), "--vertex", "0")
    assert code == 0 and loads(out).f_vector() == (6, 9, 5)
    code, _, err = run(capsys, "construct", "truncate-vertex", str(src))
    assert code == 2 and "--vertex" in err

    code, _, err = run(capsys, "construct", "truncate-vertex", str(src), "--vertex", "9")
    assert code == 2


def test_construct_missing_input_file(capsys):
    code, _, err = run(capsys, "construct", "prism-over", "/nonexistent.json")
    assert code == 2 and "cannot read" in err


# ---------------------------------------------------------------------------
# analyze


@pytest.fixture()
def octa_file(tmp_path, capsys):
    path = tmp_path / "octa.json"
    assert main(["construct", "octahedron", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture()
def bd198_file(tmp_path, capsys):
    path = tmp_path / "bd198.json"
    assert main(["construct", "bd198", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_analyze_text_output(capsys, octa_file):
    code, out, _ = run(capsys, "analyze", octa_file)
    assert code == 0
    assert "verdict: Indecomposable (method: count-rule, rule: SmilanskyCount)" in out
    assert "f-vector: v=6 e=12 f=8" in out
    assert "oracle dimension: 4 (d+1 = 4)" in out


def test_analyze_oracle_only(capsys, octa_file):
    code, out, _ = run(capsys, "analyze", octa_file, "--oracle-only")
    assert code == 0
    assert "verdict: Indecomposable (oracle dimension 4 = d+1)" in out


def test_analyze_trace_flag(capsys, bd198_file):
    code, out, _ = run(capsys, "analyze", bd198_file, "--trace")
    assert code == 0
    assert "PyramidReduction" in out and "ShephardFacet" in out
    assert "witness: decomposing function moving vertices [0, 1, 2, 6]" in out


def test_analyze_json(capsys, bd198_file):
    code, out, _ = run(capsys, "analyze", bd198_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Decomposable"
    assert data["method"] == "certificate"
    assert data["rule"] == "ShephardFacet"
    assert data["fvector"] == {"v": 8, "e": 15, "f": 9}
    assert data["oracle_dimension"] == 5
    assert isinstance(data["trace"], list) and len(data["trace"]) >= 2
    assert set(data["witness"]) == {str(i) for i in range(8)}
    # Exact rational images, "p/q" strings only.
    assert all(
        all("/" in c for c in img) for img in data["witness"].values()
    )


def test_analyze_json_oracle_fields(capsys, octa_file):
    code, out, _ = run(capsys, "analyze", octa_file, "--json", "--oracle-only")
    data = json.loads(out)
    assert code == 0
    assert data["method"] == "oracle"
    assert data["trace"] is None and data["rule"] is None
    assert data["witness"] is None


def test_analyze_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "error:" in err


def test_analyze_rejects_non_extreme_point_without_facets(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "dimension": 3,
        "vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 0, 0]],
    }
    path = tmp_path / "edge-point.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert "not vertices" in err and "point 4 (1, 0, 0)" in err
    assert "homothety" not in err


def test_analyze_rejects_non_extreme_point_in_listed_facets(tmp_path, capsys):
    # cyclic(8,4) plus the midpoint of edge (0,1), listed in each of the
    # six facets through that edge: every facet check passes.
    p = cyclic(8, 4)
    doc = {
        "format_version": "1",
        "dimension": 4,
        "vertices": [[str(c) for c in v] for v in p.vertices]
        + [[str(c) for c in (p.vertices[0] + p.vertices[1]) / 2]],
        "facets": [list(f) + [8] if 0 in f and 1 in f else list(f) for f in p.facets],
    }
    assert sum(1 for f in doc["facets"] if 8 in f) == 6
    path = tmp_path / "edge-point.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert "not vertices" in err and "point 8 (3/2, 5/2, 9/2, 17/2)" in err
    assert "homothety" not in err


def _guard_document():
    import random

    rng = random.Random(11)
    pts = {tuple(rng.randrange(0, 2) for _ in range(12)) for _ in range(40)}
    return {
        "format_version": "1",
        "dimension": 12,
        "vertices": [list(p) for p in sorted(pts)],
    }


def test_analyze_guard_exit_code(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_guard_document()), encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3 and "error:" in err


def test_analyze_guard_exit_code_with_listed_facets(tmp_path, capsys, monkeypatch):
    # `fileio` builds the hull through `Polytope.from_vertices` to check
    # listed facets, under the same guard; the hull must not even start.
    def no_scan(*args):
        raise AssertionError("facet_scan ran above the guard")

    monkeypatch.setattr(kernels, "facet_scan", no_scan)
    doc = _guard_document()
    doc["facets"] = [list(range(12)), list(range(12, 24))]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3 and "exceeds the guard" in err


@pytest.mark.parametrize("listed", [False, True], ids=["vertices-only", "listed-facets"])
def test_analyze_guard_exit_code_on_a_hyperplane(tmp_path, capsys, monkeypatch, listed):
    # The guard document's points put on the hyperplane x_12 = 0: too
    # many d-subsets, so the guard refuses them before any hull, and so
    # before the affine span is known, with listed facets or without.
    def no_scan(*args):
        raise AssertionError("facet_scan ran above the guard")

    monkeypatch.setattr(kernels, "facet_scan", no_scan)
    doc = _guard_document()
    doc["vertices"] = [list(x) for x in sorted({tuple(v[:11]) + (0,) for v in doc["vertices"]})]
    assert len(doc["vertices"]) == 40
    if listed:
        doc["facets"] = [list(range(12)), list(range(12, 24))]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == "" and "exceeds the guard" in err


def test_construct_cube_above_the_guard_exit_code(capsys, monkeypatch):
    # The guard refuses the 2^40 points before any is listed.
    def no_points(*args):
        raise AssertionError("cube listed its points above the guard")

    monkeypatch.setattr(constructors, "Vec", no_points)
    code, out, err = run(capsys, "construct", "cube", "--d", "40")
    assert code == 3 and out == "" and "exceeds the guard" in err


@pytest.mark.parametrize(
    "d,count",
    [
        (6, "C(64,6) = 74974368 d-subsets"),
        (40, "C(1099511627776,40) >= 10^15 d-subsets"),
        (300, "C(91-digit n,300) >= 10^15 d-subsets"),
        (5000, "C(1506-digit n,5000) >= 10^15 d-subsets"),
    ],
)
def test_guard_refusal_is_one_short_line(capsys, d, count):
    # A count below 10^15 is printed in full, a larger one as ">= 10^15",
    # and n by its digit count past 15 digits.  C(2^5000, 5000) is never
    # computed: its partial products stop at 10^15.
    code, out, err = run(capsys, "construct", "cube", "--d", str(d))
    assert code == 3 and out == "" and "exceeds the guard" in err
    assert count in err
    assert err.count("\n") == 1 and len(err.rstrip("\n")) < 120, err


def test_package_runs_as_a_module_from_a_checkout():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "minkdecomp", "catalogue", "list"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "delta-3-4" in done.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_standard_output_exits_quietly(unbuffered):
    """A reader that closes the pipe early gets exit 1 and no traceback,
    whether the listing is written line by line or flushed at the end."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "minkdecomp", "catalogue", "list"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr, done.stderr


def test_analyze_rejects_a_facet_list_missing_a_facet(tmp_path, capsys, octa_file):
    with open(octa_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    missing = doc["facets"].pop(3)
    path = tmp_path / "octa-missing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    # The one fault is the missing facet, named by its members.
    assert err == f"error: invalid polytope: hull facet {tuple(missing)} is not listed\n"


@pytest.mark.parametrize(
    "vertices, facets, named, not_named",
    [
        # File facet 2, [0,1], is a hull edge; file facet 3, [0,3], is
        # not, and is facet 2 once the list is sorted.
        pytest.param(
            [[0, 0], [4, 0], [0, 4], [3, 3]], [[2, 3], [0, 2], [0, 1], [0, 3]],
            ["facet 3 (0, 3) is not a hull facet", "hull facet (1, 3) is not listed"],
            "facet 2",
            id="vertices0-facets0-named0-facet 2 does not",
        ),
        # The short facet is listed last but sorts first.
        pytest.param(
            [[0, 0], [1, 0], [0, 1]], [[1, 2], [0, 2], [0]],
            ["facet 2 (0,) is not a hull facet", "hull facet (0, 1) is not listed"],
            "facet 0",
            id="vertices1-facets1-named1-facet 0",
        ),
    ],
)
def test_analyze_names_faulty_facets_in_file_order(
    tmp_path, capsys, vertices, facets, named, not_named
):
    doc = {"format_version": "1", "dimension": 2, "vertices": vertices, "facets": facets}
    path = tmp_path / "bad-facets.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err == "error: invalid polytope: " + "; ".join(named) + "\n"
    assert not_named not in err


def test_analyze_inconsistency_exit_code(tmp_path, capsys, monkeypatch):
    # The oracle is made to contradict the facet-slide certificate.
    real = certificates.oracle_verdict
    monkeypatch.setattr(
        certificates,
        "oracle_verdict",
        lambda p: dataclasses.replace(real(p), verdict="Indecomposable"),
    )
    path = tmp_path / "capped.json"
    write_polytope(capped_prism(), str(path))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 4 and out == ""
    assert "internal inconsistency: certificate says Decomposable" in err


def test_analyze_exits_4_when_the_oracle_witness_fails(tmp_path, capsys, monkeypatch):
    # The oracle's tree sums are made the identity map, whose homothety
    # residue is zero: the witness it hands out would be a homothety.
    monkeypatch.setattr(graphs, "_tree_sums", lambda p, lam: [tuple(x) for x in p.int_coords()[0]])
    path = tmp_path / "sum.json"
    write_polytope(catalogue_entry("sum-25-edges").build(), str(path))
    for flags in ([], ["--oracle-only"]):
        code, out, err = run(capsys, "analyze", str(path), *flags)
        assert code == 4 and out == ""
        assert "internal inconsistency: witness does not decompose the input" in err


# ---------------------------------------------------------------------------
# counts


def test_counts_command(capsys):
    code, out, _ = run(capsys, "counts", "--d", "4", "--v", "8", "--e", "17")
    assert code == 0
    assert "indecomposable [every 4-polytope with at most 15 or exactly 17 edges]" in out
    code, out, _ = run(capsys, "counts", "--d", "5")
    assert code == 0 and "no applicable count rules" in out
    code, _, err = run(capsys, "counts", "--d", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# catalogue


def test_catalogue_list(capsys):
    code, out, _ = run(capsys, "catalogue", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 34
    assert any(line.startswith("bd198  (d=3, Decomposable)") for line in lines)


def test_catalogue_verify_dims(capsys):
    code, out, _ = run(capsys, "catalogue", "verify", "--dims", "2")
    assert code == 0
    assert "PASS  triangle" in out and "PASS  square" in out


def test_catalogue_verify_bad_dims_exit_code(capsys):
    code, _, err = run(capsys, "catalogue", "verify", "--dims", "x")
    assert code == 2 and "error:" in err


def test_catalogue_verify_dims_that_select_no_entry_exit_2(capsys):
    # Verifying no entry would print "0/0 entries pass" and exit 0.
    code, out, err = run(capsys, "catalogue", "verify", "--dims", "9")
    assert (code, out) == (2, "")
    assert err == (
        "error: no catalogue entry has a dimension in [9]; "
        "the catalogue has dimensions 2, 3, 4, 5, 6, 7\n"
    )


def test_internal_value_error_is_not_reported_as_input_error(monkeypatch, octa_file):
    # Exit 2 means invalid input; a ValueError from inside the library is
    # a bug and must surface as one.
    import minkdecomp.cli as cli

    def broken(p, mode):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "analyze", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["analyze", octa_file])


def test_catalogue_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "w.json"
    code, _, _ = run(capsys, "catalogue", "export", "wedge-4", "-o", str(path))
    assert code == 0
    p = read_polytope(str(path))
    assert p.name == "wedge-4"
    assert tuple(p.f_vector()) == (11, 22, 7)
    code, _, err = run(capsys, "catalogue", "export", "missing-name")
    assert code == 2 and "no catalogue entry" in err
