"""Command-line interface.

Exit codes are a stable contract: 0 success, 2 input error, 3 resource
guard exceeded, 4 internal inconsistency (a certificate and the oracle
disagree).  A Decomposable verdict is still exit 0; the code reports how
the run went, not what it concluded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .catalogue import catalogue_entry, catalogue_list, catalogue_verify
from .certificates import AnalysisReport, analyze
from .constructors import construct_basic
from .errors import (
    EngineInconsistencyError,
    GuardExceededError,
    InvalidInputError,
    MinkdecompError,
)
from .fileio import dumps, read_polytope, write_polytope
from .polytope import Polytope, minkowski_sum, prism_over, stack_pyramid, truncate_vertex

PARAMETRIC_KINDS = {
    "simplex": ("d",),
    "delta": ("m", "n"),
    "cube": ("d",),
    "cyclic": ("n", "d"),
    "bipyramid3": (),
    "octahedron": (),
    "capped-prism": (),
    "bd182": (),
    "bd198": (),
    "wedge": ("d",),
    "pentagon": (),
}
DERIVED_KINDS = ("sum", "prism-over", "stack-pyramid", "truncate-vertex")


def _write_out(p: Polytope, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(dumps(p))
    else:
        write_polytope(p, out)


def cmd_construct(args) -> int:
    kind = args.kind
    if kind in PARAMETRIC_KINDS:
        if args.files:
            raise InvalidInputError(f"{kind} takes no input files")
        wanted = PARAMETRIC_KINDS[kind]
        params = {}
        for key in ("d", "m", "n"):
            value = getattr(args, key)
            if value is not None:
                if key not in wanted:
                    raise InvalidInputError(f"{kind} does not take --{key}")
                params[key] = value
        missing = [key for key in wanted if key not in params]
        if missing:
            raise InvalidInputError(
                f"{kind} needs --" + " --".join(missing)
            )
        p = construct_basic(kind.replace("-", "_"), **params)
    elif kind in DERIVED_KINDS:
        need = 2 if kind == "sum" else 1
        if len(args.files) != need:
            raise InvalidInputError(f"{kind} takes exactly {need} input file(s)")
        inputs = [read_polytope(f) for f in args.files]
        if kind == "sum":
            p = minkowski_sum(inputs[0], inputs[1])
        elif kind == "prism-over":
            p = prism_over(inputs[0])
        elif kind == "stack-pyramid":
            if args.facet is None:
                raise InvalidInputError("stack-pyramid needs --facet")
            p = stack_pyramid(inputs[0], args.facet)
        else:
            if args.vertex is None:
                raise InvalidInputError("truncate-vertex needs --vertex")
            p = truncate_vertex(inputs[0], args.vertex)
    else:
        raise InvalidInputError(f"unknown construction kind {kind!r}")
    _write_out(p, args.out)
    return 0


def _report_dict(p: Polytope, report: AnalysisReport) -> dict:
    trace_lines = report.trace.render().split("\n") if report.trace else None
    witness = None
    if report.witness is not None:
        witness = {
            str(v): [f"{c.numerator}/{c.denominator}" for c in img]
            for v, img in sorted(report.witness.images.items())
        }
    return {
        "name": p.name,
        "dimension": p.dim,
        "verdict": report.verdict,
        "method": report.method,
        "rule": report.trace.steps[-1].rule if report.trace else None,
        "fvector": {"v": report.fvector.v, "e": report.fvector.e, "f": report.fvector.f},
        "oracle_dimension": report.oracle_dimension,
        "rule_notes": list(report.rule_notes),
        "trace": trace_lines,
        "coverage_note": report.trace.coverage_note if report.trace else None,
        "witness": witness,
    }


def _render_report(p: Polytope, report: AnalysisReport, show_trace: bool) -> str:
    lines = [f"polytope: {p.name or '(unnamed)'} (dimension {p.dim})"]
    if report.trace is not None:
        rule = report.trace.steps[-1].rule
        lines.append(
            f"verdict: {report.verdict} (method: {report.method}, rule: {rule})"
        )
    else:
        k, h = report.oracle_dimension, p.dim + 1
        rel = f"{k} = d+1" if k == h else f"{k} > d+1 = {h}"
        lines.append(f"verdict: {report.verdict} (oracle dimension {rel})")
    fv = report.fvector
    lines.append(f"f-vector: v={fv.v} e={fv.e} f={fv.f}")
    if report.trace is not None:
        lines.append(f"oracle dimension: {report.oracle_dimension} (d+1 = {p.dim + 1})")
    if report.rule_notes:
        lines.append("count rules:")
        lines.extend(f"  - {note}" for note in report.rule_notes)
    else:
        lines.append("count rules: none apply")
    if report.witness is not None:
        moved = sorted(
            v
            for v, img in report.witness.images.items()
            if img != p.vertices[v]
        )
        lines.append(f"witness: decomposing function moving vertices {moved}")
    if show_trace and report.trace is not None:
        lines.append(f"trace ({report.trace.coverage_note}):")
        lines.extend(f"  {line}" for line in report.trace.render().split("\n"))
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    p = read_polytope(args.path)
    mode = "oracle-only" if args.oracle_only else "certificates-first"
    report = analyze(p, mode=mode)
    if args.json:
        print(json.dumps(_report_dict(p, report), sort_keys=True, indent=2))
    else:
        print(_render_report(p, report, args.trace))
    return 0


def cmd_counts(args) -> int:
    from .counts import count_rules

    try:
        conclusions = count_rules(args.d, args.v, args.e, args.f)
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from exc
    if not conclusions:
        print("no applicable count rules")
    for c in conclusions:
        print(c.render())
    return 0


def cmd_catalogue(args) -> int:
    if args.sub == "list":
        for entry in catalogue_list():
            print(
                f"{entry.name}  (d={entry.dim}, {entry.expected_status}): {entry.origin}"
            )
        return 0
    if args.sub == "verify":
        dims = None
        if args.dims:
            try:
                dims = {int(x) for x in args.dims.split(",")}
            except ValueError as exc:
                raise InvalidInputError(f"--dims must list integers: {exc}") from exc
        report = catalogue_verify(dims=dims)
        print(report.render())
        return 0 if report.ok else 1
    try:
        entry = catalogue_entry(args.name)
    except KeyError:
        raise InvalidInputError(f"no catalogue entry named {args.name!r}")
    p = entry.build()
    p = Polytope._of_ints(p.dim, *p.int_coords(), p.facets, entry.name)
    _write_out(p, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minkdecomp",
        description="Decide Minkowski decomposability of convex polytopes "
        "from exact vertex coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a polytope and write its file")
    c.add_argument("kind", help="family name or sum/prism-over/stack-pyramid/truncate-vertex")
    c.add_argument("files", nargs="*", help="input files for derived constructions")
    c.add_argument("--d", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--facet", type=int, help="facet index for stack-pyramid")
    c.add_argument("--vertex", type=int, help="vertex index for truncate-vertex")
    c.add_argument("-o", "--out", default="-", help="output path (default stdout)")
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="decide decomposability of a polytope file")
    a.add_argument("path")
    a.add_argument("--oracle-only", action="store_true")
    a.add_argument("--json", action="store_true")
    a.add_argument("--trace", action="store_true")
    a.set_defaults(func=cmd_analyze)

    k = sub.add_parser("counts", help="what (d, V, E, F) alone already implies")
    k.add_argument("--d", type=int, required=True)
    k.add_argument("--v", type=int)
    k.add_argument("--e", type=int)
    k.add_argument("--f", type=int)
    k.set_defaults(func=cmd_counts)

    g = sub.add_parser("catalogue", help="reference polytopes")
    gsub = g.add_subparsers(dest="sub", required=True)
    glist = gsub.add_parser("list")
    glist.set_defaults(func=cmd_catalogue)
    gverify = gsub.add_parser("verify")
    gverify.add_argument("--dims", help="comma-separated dimensions to include")
    gverify.set_defaults(func=cmd_catalogue)
    gexport = gsub.add_parser("export")
    gexport.add_argument("name")
    gexport.add_argument("-o", "--out", default="-")
    gexport.set_defaults(func=cmd_catalogue)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output: point it at devnull, so the
        # flush at interpreter exit stays quiet too.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EngineInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except MinkdecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
