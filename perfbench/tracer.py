"""Outside-in tracing: wrap each layer's functions from the benchmark's
own files, record one span per call, and derive per-layer metrics.

A function is wrapped at every module attribute that holds it (or only at
the named caller modules), because callers import by name: wrapping
`graphs.oracle_verdict` alone would miss `certificates.oracle_verdict`,
which is the name `analyze` resolves.

Each span stores its probe, start, end, parent span and input id in flat
arrays. Spans stay in memory and are written out when the run ends. A
probe's time is the sum of its outermost spans (no ancestor of the same
probe); self time subtracts the spans of other layers nested inside.
"""

import gzip
import importlib
import sys
from array import array
from math import comb
from time import perf_counter


def _facet_subsets(dim, vertices):
    return comb(len(vertices), dim)


def _rref_entries(rows, ncols):
    return len(rows) * ncols


def _not_none(result):
    return result is not None


def _returned(result):
    return True


class Probe:
    """A wrapped function: span name, home module (its layer), attribute,
    the caller modules to patch (None: every module holding it), and
    optional hit and work counters."""

    def __init__(self, name, home, attr, sites=None, hit=None, work=None):
        self.name, self.home, self.attr = name, home, attr
        self.sites, self.hit, self.work = sites, hit, work


PROBES = [
    Probe("fileio.loads", "fileio", "loads"),
    Probe("polytope.validate", "polytope", "validate"),
    Probe("polytope.edges", "polytope", "_edges_combinatorial"),
    Probe("hull.facet_data", "hull", "facet_data", work=_facet_subsets),
    Probe("kernels.facet_scan", "kernels", "facet_scan"),
    Probe("certificates.analyze", "certificates", "analyze"),
    Probe("certificates.direct", "certificates", "_stages_direct"),
    Probe("certificates.pyramid_reduction", "certificates", "pyramid_reduction", hit=_not_none),
    Probe("certificates.search", "certificates", "_stages_search", hit=_not_none),
    Probe("certificates.two_graph_cover", "certificates", "two_graph_cover", hit=_returned),
    Probe("certificates.skeleton", "graphs", "skeleton", sites=["certificates"]),
    Probe("certificates.affinely_independent", "linalg", "affinely_independent",
          sites=["certificates"]),
    Probe("certificates.replay_report", "certificates", "replay_report"),
    Probe("graphs.oracle_verdict", "graphs", "oracle_verdict"),
    Probe("graphs.decomposing_space", "graphs", "decomposing_space"),
    Probe("graphs.homothety_residue", "graphs", "homothety_residue"),
    Probe("linalg.clear_denominators", "linalg", "clear_denominators"),
    Probe("linalg.rank_and_kernel", "linalg", "rank_and_kernel"),
    Probe("kernels.rref_int", "kernels", "rref_int", work=_rref_entries),
]
ROOT = "op"  # the benchmark's own span around one op

# Layer groups whose share of the traced pass is reported: the union of
# their outermost spans over the pass time.
GROUPS = {
    "share.hull": ["hull.facet_data", "kernels.facet_scan"],
    # The rank oracle, with the linalg and rref work it calls.
    "share.oracle": ["graphs.oracle_verdict", "graphs.decomposing_space", "graphs.homothety_residue"],
    "share.search_reduction": ["certificates.search", "certificates.pyramid_reduction"],
    "share.pyramid_reduction": ["certificates.pyramid_reduction"],
}

# (metric, unit, better, source): source is (probe, field) or a group name.
METRICS = [
    ("hull.facet_data.calls", "count", "lower", ("hull.facet_data", "calls")),
    ("hull.facet_data.s", "s", "lower", ("hull.facet_data", "s")),
    ("kernels.facet_scan.s", "s", "lower", ("kernels.facet_scan", "s")),
    ("hull.subsets_scanned", "count", "lower", ("hull.facet_data", "work")),
    ("fileio.loads.self_s", "s", "lower", ("fileio.loads", "self_s")),
    ("polytope.validate.calls", "count", "lower", ("polytope.validate", "calls")),
    ("polytope.validate.s", "s", "lower", ("polytope.validate", "s")),
    ("polytope.edges.calls", "count", "lower", ("polytope.edges", "calls")),
    ("polytope.edges.s", "s", "lower", ("polytope.edges", "s")),
    ("certificates.analyze.calls", "count", "lower", ("certificates.analyze", "calls")),
    ("certificates.direct.s", "s", "lower", ("certificates.direct", "s")),
    ("certificates.pyramid_reduction.calls", "count", "lower",
     ("certificates.pyramid_reduction", "calls")),
    ("certificates.pyramid_reduction.s", "s", "lower", ("certificates.pyramid_reduction", "s")),
    ("certificates.pyramid_reduction.hits", "count", "higher",
     ("certificates.pyramid_reduction", "hits")),
    ("certificates.pyramid_reduction.hit_ratio", "ratio", "higher",
     ("certificates.pyramid_reduction", "hit_ratio")),
    ("certificates.search.s", "s", "lower", ("certificates.search", "s")),
    ("certificates.search.ran", "count", "lower", ("certificates.search", "calls")),
    ("certificates.search.closed", "count", "higher", ("certificates.search", "hits")),
    ("certificates.search.useful_ratio", "ratio", "higher", ("certificates.search", "hit_ratio")),
    ("certificates.two_graph_cover.attempts", "count", "lower",
     ("certificates.two_graph_cover", "calls")),
    ("certificates.two_graph_cover.accepted", "count", "higher",
     ("certificates.two_graph_cover", "hits")),
    ("certificates.skeleton.calls", "count", "lower", ("certificates.skeleton", "calls")),
    ("certificates.affinely_independent.calls", "count", "lower",
     ("certificates.affinely_independent", "calls")),
    ("certificates.affinely_independent.s", "s", "lower",
     ("certificates.affinely_independent", "s")),
    ("certificates.replay_report.calls", "count", "lower", ("certificates.replay_report", "calls")),
    ("certificates.replay_report.s", "s", "lower", ("certificates.replay_report", "s")),
    ("graphs.oracle_verdict.calls", "count", "lower", ("graphs.oracle_verdict", "calls")),
    ("graphs.oracle_verdict.s", "s", "lower", ("graphs.oracle_verdict", "s")),
    ("graphs.decomposing_space.s", "s", "lower", ("graphs.decomposing_space", "s")),
    ("graphs.homothety_residue.calls", "count", "lower", ("graphs.homothety_residue", "calls")),
    ("graphs.homothety_residue.s", "s", "lower", ("graphs.homothety_residue", "s")),
    ("linalg.clear_denominators.calls", "count", "lower", ("linalg.clear_denominators", "calls")),
    ("linalg.clear_denominators.s", "s", "lower", ("linalg.clear_denominators", "s")),
    ("linalg.rank_and_kernel.calls", "count", "lower", ("linalg.rank_and_kernel", "calls")),
    ("kernels.rref_int.calls", "count", "lower", ("kernels.rref_int", "calls")),
    ("kernels.rref_int.s", "s", "lower", ("kernels.rref_int", "s")),
    ("kernels.rref_int.entries", "count", "lower", ("kernels.rref_int", "work")),
    ("share.hull", "ratio", "lower", "share.hull"),
    ("share.oracle", "ratio", "lower", "share.oracle"),
    ("share.search_reduction", "ratio", "lower", "share.search_reduction"),
    ("share.pyramid_reduction", "ratio", "lower", "share.pyramid_reduction"),
]
# Metrics measured in time (medians over traced passes); the rest are exact
# counts and ratios of counts, which must repeat in every traced pass.
TIMED = {m for m, _, _, src in METRICS if isinstance(src, str) or src[1] in ("s", "self_s")}
# Reported by the run itself rather than derived from spans.
RUN_METRICS = [
    ("trace.spans", "count", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.names = [p.name for p in PROBES] + [ROOT]
        self.layer = [p.home for p in PROBES] + ["bench"]
        self.input_id = 0
        self.stack = []
        self.passes = []  # the span arrays of every finished pass
        self._patched = []
        self._reset()
        self._root = self._wrap(lambda fn, *args: fn(*args), len(PROBES), None, None)

    def _reset(self):
        self.probe = array("H")
        self.parent = array("i")
        self.inp = array("H")
        self.start = array("d")
        self.end = array("d")
        self.hit = array("b")
        self.work = array("q")

    def _wrap(self, fn, pid, hit, work):
        stack = self.stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.probe.append(pid)
            self.parent.append(stack[-1] if stack else -1)
            self.inp.append(self.input_id)
            self.hit.append(0)
            self.work.append(work(*args, **kwargs) if work else 0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if hit is not None and hit(result):
                self.hit[i] = 1
            return result

        return traced

    def install(self):
        package = [m for name, m in list(sys.modules.items())
                   if name == "minkdecomp" or name.startswith("minkdecomp.")]
        for pid, probe in enumerate(PROBES):
            original = getattr(importlib.import_module(f"minkdecomp.{probe.home}"), probe.attr)
            if probe.sites is None:
                sites = [m for m in package if getattr(m, probe.attr, None) is original]
            else:
                sites = [importlib.import_module(f"minkdecomp.{s}") for s in probe.sites]
            wrapper = self._wrap(original, pid, probe.hit, probe.work)
            for module in sites:
                self._patched.append((module, probe.attr, getattr(module, probe.attr)))
                setattr(module, probe.attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def root(self, input_id, fn, *args):
        """Run fn(*args) under the benchmark's own root span for one op."""
        self.input_id = input_id
        return self._root(fn, *args)

    def take_pass(self, pass_s):
        """Close the current pass: keep its spans and return its metrics."""
        spans = (self.probe, self.parent, self.inp, self.start, self.end)
        metrics = self._aggregate(pass_s)
        self.passes.append(spans)
        self._reset()
        return metrics

    def _aggregate(self, pass_s):
        probe, parent, start, end = self.probe, self.parent, self.start, self.end
        n = len(start)
        k = len(self.names)
        bit = [1 << j for j in range(k)]
        layer = self.layer
        anc = [0] * n  # probes on the ancestor chain, as a bit mask
        for i in range(n):
            p = parent[i]
            if p >= 0:
                anc[i] = anc[p] | bit[probe[p]]
        dur = [end[i] - start[i] for i in range(n)]
        foreign = [0.0] * n  # time inside i spent in other layers
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                foreign[p] += dur[i] if layer[probe[i]] != layer[probe[p]] else foreign[i]
        calls, hits, work = [0] * k, [0] * k, [0] * k
        total, self_s = [0.0] * k, [0.0] * k
        for i in range(n):
            j = probe[i]
            calls[j] += 1
            hits[j] += self.hit[i]
            work[j] += self.work[i]
            if not anc[i] & bit[j]:
                total[j] += dur[i]
                self_s[j] += dur[i] - foreign[i]
        groups = {}
        for gname, members in GROUPS.items():
            mask = sum(bit[self.names.index(m)] for m in members)
            covered = sum(dur[i] for i in range(n) if bit[probe[i]] & mask and not anc[i] & mask)
            groups[gname] = covered / pass_s
        out = {}
        for metric, _, _, source in METRICS:
            if isinstance(source, str):
                out[metric] = groups[source]
                continue
            j = self.names.index(source[0])
            field = source[1]
            out[metric] = {
                "calls": calls[j], "hits": hits[j], "work": work[j], "s": total[j],
                "self_s": self_s[j], "hit_ratio": hits[j] / calls[j] if calls[j] else 0.0,
            }[field]
        out["trace.spans"] = n
        return out

    def write(self, path, labels):
        """Write every kept span, one per line: pass, index, name, start,
        end, parent index, input label."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("pass\tspan\tname\tstart\tend\tparent\tinput\n")
            for k, (probe, parent, inp, start, end) in enumerate(self.passes):
                for i in range(len(start)):
                    fh.write(f"{k}\t{i}\t{self.names[probe[i]]}\t{start[i]:.9f}\t"
                             f"{end[i]:.9f}\t{parent[i]}\t{labels[inp[i]]}\n")
