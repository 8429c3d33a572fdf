"""One op and its correctness gate: loads -> analyze -> replay, checked.

An op fails when it raises anything, when its verdict or oracle dimension
differs from the known answer, or when replay rejects the trace the same
op emitted. A failed op is counted, never retried or dropped.

The library is reached through module attributes at call time, so the
tracer's wrappers are the functions that run.
"""

import dataclasses

from minkdecomp import certificates, fileio


def run_op(op, tamper=None):
    """Decide one op. Returns (ok, reason, outcome); outcome is what a traced
    run of the same op must reproduce. `tamper`, when given, alters the
    emitted trace before replay (used only by the self-test)."""
    try:
        p = fileio.loads(op.text)
        report = certificates.analyze(p, op.mode)
        steps = 0
        if report.trace is not None:
            trace = report.trace if tamper is None else tamper(report.trace)
            steps = len(report.trace.steps)
            if not certificates.replay(trace, p):
                return False, "replay rejected the emitted trace", None
    except Exception as exc:  # any error is a failed op, reported by type
        return False, f"raised {type(exc).__name__}: {exc}", None
    outcome = (report.verdict, report.method, report.oracle_dimension, steps)
    if report.verdict != op.verdict:
        return False, f"verdict {report.verdict}, expected {op.verdict}", outcome
    if report.oracle_dimension != op.oracle_dimension:
        return False, (
            f"oracle dimension {report.oracle_dimension}, expected {op.oracle_dimension}"
        ), outcome
    return True, "", outcome


def _flip_verdict(trace):
    other = "Decomposable" if trace.verdict == "Indecomposable" else "Indecomposable"
    return dataclasses.replace(trace, verdict=other)


def self_test(make_op):
    """Show the gate firing. `make_op(name, mode, verdict, dimension)` builds
    an op from a committed input. Returns a list of problems (empty = ok)."""
    problems = []

    def expect(label, op, tamper, want_ok):
        ok, reason, _ = run_op(op, tamper)
        if ok != want_ok:
            problems.append(f"{label}: gate said ok={ok} ({reason or 'no reason'})")

    good = make_op("octahedron", "certificates-first", "Indecomposable", 4)
    expect("true answer", good, None, True)
    expect("tampered trace", good, _flip_verdict, False)
    expect("wrong verdict", make_op("octahedron", "certificates-first", "Decomposable", 4),
           None, False)
    expect("wrong oracle dimension", make_op("square", "oracle-only", "Decomposable", 5),
           None, False)
    broken = make_op("square", "oracle-only", "Decomposable", 4)
    broken.text = broken.text.replace('"vertices"', '"vertexes"')
    expect("input that raises", broken, None, False)
    return problems
