"""The package is one pure-Python implementation with no dead code.

There is no compiled extension to build and no switch between two
implementations, so the package directory holds Python modules only and
none of them reads the environment.  Every
module-level function and class must have a use: a reference elsewhere
in the package, a place in `minkdecomp.__all__`, or a probe of the
benchmark's tracer, which looks its targets up by name.  Every method of
a module-level class other than the dunder ones must be referenced in
the package outside its own body.  A helper that only the tests call
belongs in tests/reference_linalg.py.  A `Polytope`'s cache of derived
data is laid out in polytope.py alone; other modules go through its
accessors.  Every integer elimination runs through `kernels.Echelon`.
No module, and no test file, imports a name it never uses.  A
`GeometricGraph` is built in one place, `graphs._build_skeleton`,
through its own constructor, and a `DecomposingFunction` in one place,
`graphs._slide_witness`.  Only the modules at the package's edges import
`Fraction`.
"""

import ast
from pathlib import Path

import pytest

import minkdecomp
from minkdecomp import kernels, linalg

from test_bench_probes import _load_tracer

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "minkdecomp"


def test_package_is_pure_python_with_no_path_switch():
    compiled = sorted(p.name for p in PACKAGE.rglob("*") if p.suffix in (".pyx", ".c"))
    assert not compiled, compiled
    # No module reads the environment, so no variable can pick a path.
    switched = sorted(
        p.name for p in PACKAGE.glob("*.py")
        if any(word in p.read_text(encoding="utf-8") for word in ("environ", "getenv"))
    )
    assert not switched, switched


def _definitions_and_references():
    """(module, node) for each module-level def and class, the
    (module, class name, node) of each of their classes' non-dunder
    methods, and for each name the (module, line) of every load of it,
    bare or as an attribute."""
    defs = []
    methods = []
    refs = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defs.extend(
            (path.stem, node) for node in tree.body
            if isinstance(node, (*functions, ast.ClassDef))
        )
        methods.extend(
            (path.stem, cls.name, node)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, functions) and not node.name.startswith("__")
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path.stem, node.lineno))
    return defs, methods, refs


def _used_elsewhere(module, node, refs):
    """Whether node's name is loaded anywhere in the package outside
    node's own body."""
    return any(
        m != module or not node.lineno <= line <= node.end_lineno
        for m, line in refs.get(node.name, ())
    )


def test_every_module_level_definition_has_a_use():
    defs, _, refs = _definitions_and_references()
    exported = {
        (obj.__module__, obj.__name__)
        for obj in (getattr(minkdecomp, name) for name in minkdecomp.__all__)
    }
    probed = {(probe.home, probe.attr) for probe in _load_tracer().PROBES}
    unused = []
    for module, node in defs:
        if not (
            _used_elsewhere(module, node, refs)
            or (f"minkdecomp.{module}", node.name) in exported
            or (module, node.name) in probed
        ):
            unused.append(f"{module}.{node.name}")
    assert not unused, f"no caller in src/, not exported, not probed: {unused}"


def test_every_method_has_a_use():
    _, methods, refs = _definitions_and_references()
    unused = [
        f"{module}.{cls}.{node.name}"
        for module, cls, node in methods
        if not _used_elsewhere(module, node, refs)
    ]
    assert not unused, f"no caller in src/ outside their own bodies: {unused}"


def test_no_module_imports_a_name_it_never_uses():
    """Every name a package module or a test file imports is loaded
    somewhere in it; the package's `__init__`, which imports to
    re-export, and `__future__` imports are exempt."""
    unused = []
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for path in modules + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        ]
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        where = f"{path.parent.name}.{path.stem}"
        unused.extend(f"{where}.{name}" for name in imported if name not in loaded)
    assert not unused, f"imported but never used: {unused}"


def test_only_the_polytope_module_touches_its_cache():
    touching = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.stem != "polytope"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "_cache"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        )
    )
    assert not touching, touching


def test_every_elimination_runs_through_the_echelon(monkeypatch):
    def refuse(self, row):
        raise AssertionError("eliminated through Echelon")

    monkeypatch.setattr(kernels.Echelon, "add", refuse)
    rows = [[1, 2, 3], [0, 1, 1]]
    for call in (
        lambda: kernels.rref_int(rows, 3),
        lambda: linalg.int_kernel_basis(rows, 3),
        lambda: linalg.int_hyperplane([(0, 0), (1, 2)]),
        lambda: linalg.affine_rank([(0, 0), (1, 2)], 2),
    ):
        with pytest.raises(AssertionError, match="through Echelon"):
            call()


def test_only_the_skeleton_builder_makes_a_geometric_graph():
    """The only `GeometricGraph(...)` call in the package is in
    `graphs._build_skeleton`, and no module sidesteps a constructor with
    `object.__new__`."""
    assert _callers_of("GeometricGraph") == ["graphs._build_skeleton"]
    sidesteps = [
        where for where, callee in _package_calls()
        if isinstance(callee, ast.Attribute) and callee.attr == "__new__"
        and isinstance(callee.value, ast.Name) and callee.value.id == "object"
    ]
    assert not sidesteps, sidesteps


def test_only_the_slide_hand_out_makes_a_decomposing_function():
    """The only `DecomposingFunction(...)` call in the package is in
    `graphs._slide_witness`: every witness and every basis element of
    `decomposing_space` is an integer slide handed out there."""
    assert _callers_of("DecomposingFunction") == ["graphs._slide_witness"]


def test_only_the_edge_modules_import_fraction():
    """`Fraction` is made only at the package's edges: the vertex view
    and the constructors' arithmetic (`polytope`, `constructors`), the
    `Vec` type and its helpers (`linalg`), and the witness's images and
    scalars (`graphs`).  The reader, the hull, the certificates and the
    rest work on integers and import it, or `linalg.Rational`, its other
    name, from nowhere."""
    importing = sorted(
        path.stem for path in PACKAGE.glob("*.py")
        if any(
            (isinstance(node, ast.ImportFrom) and node.module == "fractions")
            or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
            # `linalg.Rational` is `Fraction` under another name.
            or (
                isinstance(node, ast.ImportFrom)
                and any(a.name in ("Fraction", "Rational") for a in node.names)
            )
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        )
    )
    assert importing == ["constructors", "graphs", "linalg", "polytope"]


def _callers_of(name):
    """`module.function` of every call of the bare name in the package."""
    return [
        where for where, callee in _package_calls()
        if isinstance(callee, ast.Name) and callee.id == name
    ]


def _package_calls():
    """(`module.function`, callee) for every call in the package, the
    function being the innermost one that holds the call."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, call in _calls(tree, "<module>"):
            yield f"{path.stem}.{owner}", call.func


def _calls(node, owner):
    """(owner, call) for every call below node, owner being the name of
    the innermost function that holds the call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield owner, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _calls(child, inner)
