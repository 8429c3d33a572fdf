"""Compare two sets of benchmark records (the JSON files run.py writes to
perfbench/out/), workload by workload.

    python3 perfbench/compare.py --base OLD/*.json --change NEW/*.json

Runs are comparable only on the same kernel path and the same seeds: a
seed fixes the relabelling, and the search work depends on it. The tool
refuses (exit 2) when either differs. For every end-to-end metric it
prints each side's median and quartiles and the change against the
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    by_workload = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _stamp(records):
    return {r["env"]["have_compiled"] for r in records}, sorted(r["env"]["seed"] for r in records)


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, change = _load(args.base), _load(args.change)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    refused = []
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            refused.append(f"{workload}: runs on one side only")
            continue
        (kb, sb), (kc, sc) = _stamp(base[workload]), _stamp(change[workload])
        if len(kb | kc) != 1:
            refused.append(f"{workload}: kernel paths differ (compiled: {sorted(kb | kc)})")
        if sb != sc:
            refused.append(f"{workload}: seeds differ ({sb} against {sc})")
    if refused:
        for line in refused:
            print(f"refused: {line}", file=sys.stderr)
        return 2

    for workload in sorted(base):
        print(f"{workload}  ({len(base[workload])} runs a side)")
        for m in metrics:
            b = _summary([r["metrics"][m["name"]]["value"] for r in base[workload]])
            c = _summary([r["metrics"][m["name"]]["value"] for r in change[workload]])
            worse = (c[0] - b[0]) / b[0] * (1 if m["better"] == "lower" else -1)
            flag = "REGRESSION" if worse > m["bound"] else ""
            print(f"  {m['name']:12s} base {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}]  "
                  f"change {c[0]:.6g} [{c[1]:.6g}, {c[2]:.6g}] {m['unit']}  "
                  f"worse by {worse:+.1%} (bound {m['bound']:.0%}) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
