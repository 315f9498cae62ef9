"""Traced mode: per-layer timings and counts, taken from outside the program.

`Tracer.install()` replaces a fixed set of collabnet's public functions
(and the two private ones every stage goes through) with wrappers that
record a span per call. Each module that imported a function by name gets
the wrapper too, so calls from inside the program are seen. Nothing in
the program itself changes.

A layer metric is the self time of its spans, in reference seconds: a
span's duration minus the spans it encloses. So the CNM runs inside
`ego_modularity` count in `structure.communities_s`, and the threshold
filter that every window load re-applies counts in `ingest.count_s`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric name -> (module, attribute[, class]) of each wrapped callable
TIMED = {
    "ingest.parse_s": [("collabnet.ingest", "parse_publications_file")],
    "ingest.count_s": [
        ("collabnet.ingest", "country_year_stats"),
        ("collabnet.ingest", "build_annual_edges"),
        ("collabnet.ingest", "filter_countries"),
    ],
    "ingest.write_s": [
        ("collabnet.ingest", "write_edges", "CorpusStore"),
        ("collabnet.ingest", "write_stats", "CorpusStore"),
    ],
    # run_pipeline and granger_panel load each slice through this helper,
    # not through network_for_year
    "graph.window_load_s": [("collabnet.pipeline", "_load_window_network")],
    # one wrapper on betweenness; calls with weighted=True go to bc_weighted_s
    "centrality.bc_topo_s": [("collabnet.centrality", "betweenness")],
    "centrality.bc_weighted_s": [],
    "centrality.eigenvector_s": [("collabnet.centrality", "eigenvector_centrality")],
    "centrality.degree_s": [("collabnet.centrality", "degree_centrality")],
    "paths.bridging_s": [("collabnet.paths", "bridging_fraction")],
    "structure.ego_modularity_s": [("collabnet.structure", "ego_modularity")],
    "structure.communities_s": [("collabnet.structure", "communities")],
    "structure.clustering_s": [("collabnet.structure", "clustering")],
    "structure.kcore_s": [("collabnet.structure", "k_core")],
    "structure.efficiency_s": [("collabnet.structure", "global_efficiency")],
    "timeseries.granger_test_s": [("collabnet.timeseries", "granger_test")],
    "timeseries.bh_fdr_s": [("collabnet.timeseries", "bh_fdr")],
    # hole_closure_experiment grows through _grow, not generate_fitness
    "synth.growth_s": [("collabnet.synth", "_grow")],
    "synth.graph_at_s": [("collabnet.synth", "graph_at", "SynthTrajectory")],
}

COUNTS = (
    "ingest.records",
    "ingest.skipped",
    "ingest.slices",
    "ingest.edges_written",
    "graph.nodes",
    "graph.edges",
    "structure.community_merges",
    "timeseries.granger_cells",
    "synth.edges",
)


def _count(counts, metric, args, kwargs, result) -> None:
    """Counts read from a wrapped call's arguments and result."""
    if metric == "ingest.parse_s":
        counts["ingest.records"] += len(result.records)
        counts["ingest.skipped"] += result.skipped
    elif metric == "ingest.write_s" and len(args) == 2:  # write_edges(self, edge_list)
        counts["ingest.slices"] += 1
        counts["ingest.edges_written"] += len(args[1].edges)
    elif metric == "graph.window_load_s":
        net, _ = result
        counts["graph.nodes"] += net.n
        counts["graph.edges"] += net.m
    elif metric == "structure.communities_s":
        counts["structure.community_merges"] += args[0].n - len(result)
    elif metric == "timeseries.granger_test_s":
        counts["timeseries.granger_cells"] += 1
    elif metric == "synth.growth_s":
        counts["synth.edges"] += len(result.events)


class Tracer:
    """Records (metric, start, end, parent) spans of the wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, metric, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            name = metric
            if fn.__name__ == "betweenness" and (kwargs.get("weighted") or (len(args) > 1 and args[1])):
                name = "centrality.bc_weighted_s"
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            _count(counts, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("collabnet") and m is not None]
        for metric, targets in TIMED.items():
            for target in targets:
                owner = sys.modules[target[0]]
                if len(target) == 3:
                    owner = getattr(owner, target[2])
                    orig = owner.__dict__[target[1]]
                    self._set(owner, target[1], self._wrap(metric, orig))
                    continue
                orig = getattr(owner, target[1])
                wrapper = self._wrap(metric, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self, to_ref, t0: float, t1: float) -> dict[str, float]:
        """Self time per metric, in reference seconds, of spans started in [t0, t1)."""
        dur = [to_ref(end) - to_ref(start) for _, start, end, _ in self.spans]
        own = list(dur)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= dur[i]
        out = dict.fromkeys(TIMED, 0.0)
        for i, (metric, start, _, _) in enumerate(self.spans):
            if t0 <= start < t1:
                out[metric] += own[i]
        return out
