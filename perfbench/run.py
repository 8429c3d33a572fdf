"""Layered benchmark for `analyze`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

One process, one closed-loop caller: each op parses an input's JSON text
(`fileio.loads`), decides it (`analyze`) and replays the trace it emitted
(`replay`), and the next op starts only when the last one is checked. A
pass decides every input of the workload once; passes repeat until the
time is up (at least MIN_PASSES of them).

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1
alternates untraced and traced passes and reports per-layer metrics from
spans recorded around each layer's functions (see tracer.py).

The last line of standard output is the result as one JSON object. A full
record (environment stamp, per-input medians, sample counts) goes to
perfbench/out/, with the spans of a traced run beside it.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
MIN_PASSES = 2
# Host speed on a shared machine drifts by a quarter over tens of seconds,
# and the program slows with it. Every end-to-end time is therefore
# reported in reference seconds: wall time scaled by REF_NOMINAL_S over
# the median duration of a reference loop timed around it. An integer
# loop tracks the program: regressing the log of op time on the log of
# the loop's time gave a slope of 0.92 on catalogue-cold, against 0.68
# for a loop of Fraction and dict work, which over-corrected.
# REF_NOMINAL_S is the loop's time on an idle 2.1 GHz Xeon core under
# Python 3.11, so reference seconds read as wall seconds on such a core.
REF_ITERATIONS = 25_000
REF_NOMINAL_S = 0.0017
REF_WINDOW = 3

if not os.path.isfile(os.path.join(SRC, "minkdecomp", "__init__.py")):
    sys.exit("perfbench: no src/minkdecomp beside perfbench/; run it from a checkout")
sys.path.insert(0, SRC)

import workloads  # noqa: E402
from gate import run_op, self_test  # noqa: E402
from minkdecomp import kernels  # noqa: E402


def _commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu():
    """Keep this process and its setup probes on one CPU, so that the
    reference loop times the same core the work runs on. Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed, nproc, cpu):
    return {
        "have_compiled": kernels.HAVE_COMPILED,
        "minkdecomp_pure_set": bool(os.environ.get("MINKDECOMP_PURE")),
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "seed": seed,
        "commit": _commit(),
    }


def measure_setup(workload, seed):
    """Seconds from starting a fresh interpreter to its first op being
    ready (imports, inputs read, seeded transform applied), per probe, as
    (wall, reference seconds)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        refs = [reference_s() for _ in range(REF_WINDOW)]
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed (exit {proc.returncode})")
        refs += [reference_s() for _ in range(REF_WINDOW)]
        raw.append(dt)
        scaled.append(dt * REF_NOMINAL_S / statistics.median(refs))
    return raw, scaled


def reference_s():
    """Time a fixed integer loop that does not touch the library: the
    host's speed at this moment."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


def run_pass(ops, tracer=None):
    """Decide every op once. Returns per-op wall seconds, the same in
    reference seconds, and per-op (ok, reason, outcome)."""
    gc.collect()
    raw, results = [], []
    refs = [reference_s()]
    for i, op in enumerate(ops):
        t0 = perf_counter()
        results.append(run_op(op) if tracer is None else tracer.root(i, run_op, op))
        raw.append(perf_counter() - t0)
        refs.append(reference_s())
    # Op i ran between refs[i] and refs[i + 1]; take the median of the
    # REF_WINDOW samples either side of it.
    scaled = [
        dt * REF_NOMINAL_S / statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
        for i, dt in enumerate(raw)
    ]
    return raw, scaled, results


def end_to_end(ops, seconds, setup):
    deadline = perf_counter() + seconds
    raw_passes, passes, lats, failures = [], [], [], []
    last = 0.0
    while len(passes) < MIN_PASSES or perf_counter() + last <= deadline:
        t0 = perf_counter()
        raw, scaled, results = run_pass(ops)
        last = perf_counter() - t0
        raw_passes.append(sum(raw))
        passes.append(sum(scaled))
        lats.append(scaled)
        failures += [(op.name, r[1]) for op, r in zip(ops, results) if not r[0]]
    # An input's latency pools its relabelled copies across all passes.
    samples = {}
    for scaled in lats:
        for op, dt in zip(ops, scaled):
            samples.setdefault(op.name, []).append(dt)
    per_input = {name: statistics.median(v) for name, v in samples.items()}
    slowest = max(per_input, key=per_input.get)
    attempted = len(ops) * len(passes)
    metrics = {
        "setup_s": (statistics.median(setup[1]), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "op_p50_ms": (statistics.median(per_input.values()) * 1e3, "ms"),
        "op_max_ms": (per_input[slowest] * 1e3, "ms"),
        "failed_frac": (len(failures) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "passes": len(passes),
        "pass_s": passes,
        "pass_wall_s": raw_passes,
        "setup_s": setup[1],
        "setup_wall_s": setup[0],
        "op_samples": attempted,
        "slowest_input": slowest,
        "per_input_median_ms": {name: t * 1e3 for name, t in per_input.items()},
    }
    return metrics, attempted, failures, detail


def per_layer(ops, seconds):
    """Alternate untraced and traced passes; a traced op must reproduce the
    untraced outcome, and every count must repeat across traced passes."""
    from tracer import METRICS, TIMED, Tracer

    tracer = Tracer()
    deadline = perf_counter() + seconds
    plain, traced, layer_runs, failures = [], [], [], []
    reference = None
    last = 0.0
    while len(traced) < 1 or perf_counter() + last <= deadline:
        t0 = perf_counter()
        _, scaled, results = run_pass(ops)
        plain.append(sum(scaled))
        failures += [(op.name, r[1]) for op, r in zip(ops, results) if not r[0]]
        reference = reference or [r[2] for r in results]
        tracer.install()
        try:
            raw, scaled, results = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(scaled))
        layer_runs.append(tracer.take_pass(sum(raw)))
        for op, r, want in zip(ops, results, reference):
            if not r[0]:
                failures.append((op.name, r[1]))
            elif r[2] != want:
                failures.append((op.name, f"traced outcome {r[2]} differs from {want}"))
        last = perf_counter() - t0
    counts_repeat = True
    metrics = {}
    for name, unit in [m[:2] for m in METRICS] + [("trace.spans", "count")]:
        values = [run[name] for run in layer_runs]
        if name in TIMED:
            metrics[name] = (statistics.median(values), unit)
        else:
            counts_repeat &= all(v == values[0] for v in values)
            metrics[name] = (values[0], unit)
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    attempted = len(ops) * (len(plain) + len(traced))
    detail = {"untraced_pass_s": plain, "traced_pass_s": traced, "counts_repeat": counts_repeat}
    return metrics, attempted, failures, detail, tracer


def _self_test():
    with open(os.path.join(workloads.INPUTS, "polytopes.json"), encoding="utf-8") as fh:
        bases = json.load(fh)

    def make_op(name, mode, verdict, dimension):
        return workloads.Op(name, json.dumps(bases[name]), mode, verdict, dimension)

    return self_test(make_op)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show the correctness gate firing, then exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    problems = _self_test()
    if args.self_test or problems:
        for p in problems:
            print(f"self-test: {p}", file=sys.stderr)
        print("self-test: gate fires on a wrong verdict, a wrong oracle dimension, "
              "a tampered trace and an input that raises" if not problems else
              "self-test: FAILED")
        return 1 if problems else 0
    if args.workload is None:
        ap.error("--workload is required")

    nproc = len(os.sched_getaffinity(0))
    env = environment(args.seed, nproc, pin_to_one_cpu())
    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    ops = workloads.build(args.workload, args.seed)
    if args.trace == 0:
        metrics, attempted, failures, detail = end_to_end(ops, args.seconds, setup)
        correct = not failures
    else:
        metrics, attempted, failures, detail, tracer = per_layer(ops, args.seconds)
        correct = not failures and detail["counts_repeat"]

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace == 1:
        tracer.write(stem + ".spans.tsv.gz", [op.name for op in ops])
    record = {
        "workload": args.workload, "env": env, "ops_per_pass": len(ops), "correct": correct,
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  inputs {len({op.name for op in ops})}  "
          f"ops per pass {len(ops)}  ops attempted {attempted}  failed {len(failures)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for name, reason in failures[:5]:
        print(f"  FAILED {name}: {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
