"""The weighted undirected collaboration network and its transforms.

One type holds every country-pair set: a stored (year, field) slice, a
rolling window and a saved network are each a `CollabNetwork`, and its
edge dict is its data. Rows of (a, b, weight) become a network through
`CollabNetwork.from_pairs`, which orders each pair, checks each row's
weight and sums repeated pairs in input order. Every metric reads the
topology through one cached form of it: `CollabNetwork.adjacency`, the
symmetric weighted adjacency in CSR form, with the 0/1 `pattern` that
shares its index arrays and the `degrees` vector beside it. Distances for every
weighted shortest-path metric are the inverse edge weights
(`CollabNetwork.distance_csr`, a CSR beside `adjacency`), so heavily
collaborating country pairs are close.
Hop metrics share `hop_sweep`: the topological betweenness and hop
distances of one `paths.hop_levels` pass. Weighted metrics share
`geodesics`: one all-sources Dijkstra over `distance_csr` (an n x n float
matrix, 8 MB at n = 1,000) and the CSR entries that can end a co-minimal
path, from `paths.geodesics`.
Treat a constructed CollabNetwork as immutable: metric code only reads it,
and the cached forms assume the edge dict never changes after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import DataError

NORM_SCHEMES = ("raw", "log", "salton", "jaccard")


@dataclass(frozen=True)
class NetworkSlice:
    """Provenance tag: window-end year, field label, normalization scheme."""

    year: int | None = None
    field: str = "all"
    norm: str = "raw"


@dataclass
class CollabNetwork:
    """Weighted undirected country graph for one (year-window, field) slice."""

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], float]
    slice: NetworkSlice = field(default_factory=NetworkSlice)

    def __post_init__(self):
        self.nodes = tuple(sorted(set(self.nodes)))
        node_set = set(self.nodes)
        for (a, b), w in self.edges.items():
            if a == b:
                raise DataError(f"self-loop on {a}")
            if a > b:
                raise DataError(f"edge ({a}, {b}) not stored with ordered endpoints")
            if not math.isfinite(w) or w <= 0:
                raise DataError(f"weight {w} on ({a}, {b}) is not a positive finite number")
            if a not in node_set or b not in node_set:
                raise DataError(f"edge ({a}, {b}) references unknown node")

    @classmethod
    def from_pairs(cls, triples, slice: NetworkSlice) -> "CollabNetwork":
        """The network of (a, b, weight) rows, its nodes their endpoints. Each
        row's weight must be finite and positive, so a bad row cannot hide
        inside a positive sum; repeated pairs are summed in input order."""
        edges: dict[tuple[str, str], float] = {}
        for a, b, w in triples:
            if not 0 < w < math.inf:  # NaN fails too
                raise DataError(f"weight {w!r} of {a}-{b} in {slice.year}/{slice.field} must be finite and positive")
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0.0) + w
        return cls(tuple({c for pair in edges for c in pair}), edges, slice)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_node(self, node: str) -> bool:
        return node in self.index

    @cached_property
    def index(self) -> dict[str, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def adjacency(self) -> sp.csr_array:
        """Symmetric weighted adjacency in CSR form; each row lists its neighbors by index."""
        idx, m = self.index, self.m
        i = np.fromiter((idx[a] for a, _ in self.edges), dtype=np.intp, count=m)
        j = np.fromiter((idx[b] for _, b in self.edges), dtype=np.intp, count=m)
        w = np.fromiter(self.edges.values(), dtype=np.float64, count=m)
        coords = (np.concatenate([i, j]), np.concatenate([j, i]))
        return sp.csr_array((np.concatenate([w, w]), coords), shape=(self.n, self.n))

    @cached_property
    def pattern(self) -> sp.csr_array:
        """The 0/1 adjacency: `adjacency` with every weight set to 1, sharing its index arrays."""
        A = self.adjacency
        return sp.csr_array((np.ones_like(A.data), A.indices, A.indptr), shape=A.shape)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Neighbor count of each node, in node order."""
        return np.diff(self.adjacency.indptr)

    @cached_property
    def distance_csr(self) -> sp.csr_array:
        """Inverse edge weights that weighted paths walk, in `adjacency`'s CSR layout."""
        A = self.adjacency
        return sp.csr_array((1.0 / A.data, A.indices, A.indptr), shape=A.shape)

    @cached_property
    def hop_sweep(self) -> tuple[np.ndarray, np.ndarray]:
        """`paths.hop_levels` of this network, (topological betweenness, hop distances), run once and shared."""
        from . import paths  # paths imports this module
        return paths.hop_levels(self)

    @cached_property
    def geodesics(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """`paths.geodesics` of this network, (all-pairs distances, kept (tail, head, length) entries), run once and shared."""
        from . import paths  # paths imports this module
        return paths.geodesics(self)

    def neighbors(self, node: str) -> list[str]:
        if node not in self.index:
            raise DataError(f"unknown node {node}")
        A, i = self.adjacency, self.index[node]
        return [self.nodes[j] for j in A.indices[A.indptr[i]:A.indptr[i + 1]]]

    def subgraph(self, keep) -> "CollabNetwork":
        keep = set(keep)
        unknown = keep - set(self.nodes)
        if unknown:
            raise DataError(f"unknown nodes in subgraph request: {sorted(unknown)}")
        edges = {(a, b): w for (a, b), w in self.edges.items() if a in keep and b in keep}
        return CollabNetwork(tuple(sorted(keep)), edges, self.slice)

    def connected_components(self) -> list[set[str]]:
        """Node sets of the components, in the order of their first node."""
        _, labels = csgraph.connected_components(self.pattern, directed=False)
        comps: dict[int, set[str]] = {}
        for node, label in zip(self.nodes, labels.tolist()):
            comps.setdefault(label, set()).add(node)
        return list(comps.values())

    def to_json(self) -> str:
        payload = {
            "nodes": list(self.nodes),
            "edges": [[a, b, w] for (a, b), w in sorted(self.edges.items())],
            "slice": {"year": self.slice.year, "field": self.slice.field, "norm": self.slice.norm},
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, payload) -> "CollabNetwork":
        """The network of a `to_json` document, given as its text or already parsed."""
        try:
            if isinstance(payload, str):
                payload = json.loads(payload)
            nodes = tuple(payload["nodes"])
            edges = {}
            for a, b, w in payload["edges"]:
                key = (a, b) if a < b else (b, a)
                edges[key] = float(w)
            sl = payload.get("slice", {})
            slc = NetworkSlice(sl.get("year"), sl.get("field", "all"), sl.get("norm", "raw"))
        except (KeyError, ValueError, TypeError) as exc:
            raise DataError(f"malformed network JSON: {exc}") from exc
        return cls(nodes, edges, slc)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CollabNetwork":
        from .ingest import read_json  # ingest imports this module
        return cls.from_json(read_json(path, f"network file {path}"))


def rolling_window(annual: list[CollabNetwork]) -> CollabNetwork:
    """Sum 1-3 consecutive annual slices into one windowed network.

    The window is labeled by its final year; series edges use truncated
    windows rather than dropping the first years. Weights are summed in
    year order, each pair keeping the place where it was first seen.
    """
    if not 1 <= len(annual) <= 3:
        raise DataError(f"rolling window takes 1-3 years, got {len(annual)}")
    ordered = sorted(annual, key=lambda net: net.slice.year)
    years = [net.slice.year for net in ordered]
    if any(b - a != 1 for a, b in zip(years, years[1:])):
        raise DataError(f"window years must be consecutive, got {years}")
    fields = {net.slice.field for net in ordered}
    if len(fields) > 1:
        raise DataError(f"window mixes fields: {sorted(fields)}")
    triples = ((a, b, w) for net in ordered for (a, b), w in net.edges.items())
    return CollabNetwork.from_pairs(triples, NetworkSlice(years[-1], ordered[0].slice.field, "raw"))


def normalize_weights(network: CollabNetwork, productivity: dict[str, float] | None, scheme: str) -> CollabNetwork:
    """Rescale edge weights: raw (identity), log, Salton, or Jaccard.

    log uses the natural logarithm of (w + 1). Salton divides by the
    geometric mean of the endpoint productivities, Jaccard by their
    non-overlapping total; both need productivity >= incident weight.
    """
    if scheme not in NORM_SCHEMES:
        raise DataError(f"unknown normalization scheme {scheme!r}; choose from {NORM_SCHEMES}")
    if scheme == "raw":
        return CollabNetwork(network.nodes, dict(network.edges),
                             NetworkSlice(network.slice.year, network.slice.field, "raw"))

    new_edges: dict[tuple[str, str], float] = {}
    if scheme == "log":
        for pair, w in network.edges.items():
            new_edges[pair] = math.log(w + 1.0)
    else:
        if productivity is None:
            raise DataError(f"{scheme} normalization needs per-country productivity")
        for (a, b), w in network.edges.items():
            try:
                pa, pb = productivity[a], productivity[b]
            except KeyError as exc:
                raise DataError(f"missing productivity for {exc.args[0]} under {scheme} normalization") from exc
            denom = math.sqrt(pa * pb) if scheme == "salton" else pa + pb - w
            if denom <= 0:
                raise DataError(f"non-positive {scheme} denominator on ({a}, {b})")
            new_edges[(a, b)] = w / denom
    return CollabNetwork(network.nodes, new_edges,
                         NetworkSlice(network.slice.year, network.slice.field, scheme))
