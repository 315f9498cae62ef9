"""The weighted undirected collaboration network and its transforms.

One type holds every country-pair set: a stored (year, field) slice, a
rolling window and a saved network are each a `CollabNetwork` of sorted
distinct node names, an m x 2 array `ends` of node index pairs (lo < hi),
each pair listed once, and m finite positive float64 weights. The type
checks this invariant once, when built, and is read-only after, so `m`,
`edges` (a dict view derived from the arrays) and `adjacency` all read
the same edges. Rows of (a, b, weight) become a network through
`from_pairs`, which sums repeated pairs in input order. Metrics
read the arrays or `adjacency`, the symmetric weighted CSR, with the 0/1
`pattern` that shares its index arrays and the `degrees` vector. Weighted
shortest paths walk the inverse weights (`distance_csr`), so heavily
collaborating country pairs are close. Hop metrics share `hop_sweep` (one
`paths.hop_levels` pass), weighted ones `geodesics` (one all-sources
Dijkstra, an n x n float matrix: 8 MB at n = 1,000).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError

NORM_SCHEMES = ("raw", "log", "salton", "jaccard")


@dataclass(frozen=True)
class NetworkSlice:
    """Provenance tag: window-end year, field label, normalization scheme."""

    year: int | None = None
    field: str = "all"
    norm: str = "raw"


@dataclass(frozen=True, eq=False)
class CollabNetwork:
    """Weighted undirected country graph for one (year-window, field) slice;
    edge k joins nodes[ends[k, 0]] < nodes[ends[k, 1]] with weight[k] > 0, each pair once."""

    nodes: tuple[str, ...]
    ends: np.ndarray
    weight: np.ndarray
    slice: NetworkSlice = field(default_factory=NetworkSlice)

    def __post_init__(self):
        nodes, ends, weight = tuple(self.nodes), np.array(self.ends, dtype=np.intp), np.array(self.weight, dtype=float)
        if ends.shape == (0,):  # an empty list of pairs: no edges
            ends = ends.reshape(0, 2)
        if ends.shape != (len(weight), 2):
            raise DataError(f"{ends.shape} edge ends for {weight.shape} weights")
        unordered = next(((a, b) for a, b in zip(nodes, nodes[1:]) if a >= b), None)
        if unordered:
            raise DataError(f"nodes must be sorted and distinct: {unordered[0]!r} before {unordered[1]!r}")
        lo, hi = ends.T
        bad = ~((0 <= lo) & (lo < hi) & (hi < len(nodes)) & (weight > 0) & (weight < np.inf))
        if bad.any():
            k = int(bad.argmax())
            a, b = (nodes[i] if 0 <= i < len(nodes) else i for i in ends[k].tolist())
            raise DataError(f"self-loop on {a}" if a == b else
                            f"edge ({a}, {b}) of weight {weight[k]} needs ordered known ends and a finite positive weight")
        key = np.sort(lo * len(nodes) + hi)
        repeated = key[1:] == key[:-1]
        if repeated.any():
            a, b = divmod(int(key[repeated.argmax()]), len(nodes))
            raise DataError(f"edge ({nodes[a]}, {nodes[b]}) is listed twice")
        ends.flags.writeable = weight.flags.writeable = False
        self.__dict__.update(nodes=nodes, ends=ends, weight=weight)  # frozen: no __setattr__

    @classmethod
    def from_pairs(cls, triples, slice: NetworkSlice) -> "CollabNetwork":
        """The network of (a, b, weight) rows, its nodes their endpoints. Each
        row's weight must be finite and positive, so a bad row cannot hide
        inside a positive sum; repeated pairs are summed in input order, each
        kept where it was first seen."""
        a, b, w = tuple(zip(*triples)) or ((), (), ())
        weight = np.array(w, dtype=float)
        bad = ~((weight > 0) & (weight < np.inf))  # NaN fails too
        if bad.any():
            k = int(bad.argmax())
            raise DataError(f"weight {w[k]!r} of {a[k]}-{b[k]} in {slice.year}/{slice.field} must be finite and positive")
        nodes = sorted(set(a).union(b))
        index = dict(zip(nodes, range(len(nodes))))
        ends = np.array([[index[x] for x in a], [index[x] for x in b]], dtype=np.intp).T
        return _summed(nodes, np.sort(ends, axis=1), weight, slice)

    @cached_property
    def edges(self) -> dict[tuple[str, str], float]:
        """The edge dict {(a, b): weight} in edge order, derived from the arrays."""
        return {(self.nodes[i], self.nodes[j]): w for i, j, w in zip(*self.ends.T.tolist(), self.weight.tolist())}

    def select(self, mask: np.ndarray) -> "CollabNetwork":
        """The network of the edges where `mask` holds, its nodes their endpoints."""
        return _summed(self.nodes, self.ends[mask], self.weight[mask], self.slice)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.weight)

    def has_node(self, node: str) -> bool:
        return node in self.index

    @cached_property
    def index(self) -> dict[str, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def adjacency(self) -> sp.csr_array:
        """Symmetric weighted adjacency in CSR form; each row lists its neighbors by index."""
        i, j, w = self.ends[:, 0], self.ends[:, 1], self.weight
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
    def hop_sweep(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`paths.hop_levels` of this network, (topological betweenness, pair counts per hop distance,
        closed wedges), run once and shared."""
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
        """The `keep` nodes and the edges between them."""
        keep = set(keep)
        unknown = keep - set(self.nodes)
        if unknown:
            raise DataError(f"unknown nodes in subgraph request: {sorted(unknown)}")
        inside = np.array([node in keep for node in self.nodes], dtype=bool)
        kept = inside[self.ends].all(axis=1)
        return CollabNetwork(tuple(compress(self.nodes, inside)), (np.cumsum(inside) - 1)[self.ends[kept]],
                             self.weight[kept], self.slice)

    def connected_components(self) -> list[set[str]]:
        """Node sets of the components, in the order of their first node."""
        from scipy.sparse import csgraph  # loaded on first use: it brings scipy.sparse.linalg and scipy.linalg
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
        """The network of a `to_json` document, given as its text or already
        parsed: a list of names, and edge rows [name, name, number] that
        join listed names, each pair once."""
        try:
            if isinstance(payload, str):
                payload = json.loads(payload)
            names, rows = payload["nodes"], payload["edges"]
            if type(names) is not list or not all(type(c) is str for c in names):
                raise ValueError("nodes must be a list of names")
            if type(rows) is not list or not all(type(r) is list and len(r) == 3 and type(r[0]) is type(r[1]) is str
                                                 and type(r[2]) in (int, float) for r in rows):  # bool is not a weight
                raise ValueError("edges must be a list of [name, name, number] rows")
            nodes = tuple(sorted(set(names)))
            index = {c: i for i, c in enumerate(nodes)}
            unknown = {c for r in rows for c in r[:2]} - index.keys()
            if unknown:
                raise ValueError(f"edges name unknown nodes {sorted(unknown)}")
            ends = np.sort(np.array([(index[a], index[b]) for a, b, _ in rows], dtype=np.intp).reshape(-1, 2), axis=1)
            weight = [float(w) for _, _, w in rows]
            sl = payload.get("slice", {})
            slc = NetworkSlice(sl.get("year"), sl.get("field", "all"), sl.get("norm", "raw"))
        except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise DataError(f"malformed network JSON: {exc}") from exc
        return cls(nodes, ends, weight, slc)

    def save(self, path: str | Path) -> None:
        from .ingest import fresh_output  # ingest imports this module
        fresh_output(path).write_text(self.to_json() + "\n", encoding="utf-8")

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
    label = NetworkSlice(years[-1], ordered[0].slice.field, "raw")
    net = ordered[0]  # a lone slice whose pairs name every node, as each stored one's do, is its own sum
    if len(ordered) == 1 and np.bincount(net.ends.ravel(), minlength=net.n).all():
        return CollabNetwork(net.nodes, net.ends, net.weight, label)
    nodes = sorted(set().union(*(net.nodes for net in ordered)))
    index = {c: i for i, c in enumerate(nodes)}
    ends = np.concatenate([np.array([index[c] for c in net.nodes], dtype=np.intp)[net.ends] for net in ordered])
    weight = np.concatenate([net.weight for net in ordered])
    return _summed(nodes, ends, weight, label)


def _summed(nodes, ends: np.ndarray, weight: np.ndarray, slice: NetworkSlice) -> CollabNetwork:
    """The network of the index pairs `ends` (lo <= hi) into the sorted
    `nodes`, the nodes no pair names dropped. Repeated pairs are summed in
    input order (`np.bincount` adds in index order), each kept where it was
    first seen."""
    key, first, inverse = np.unique(ends[:, 0] * len(nodes) + ends[:, 1], return_index=True, return_inverse=True)
    order = np.argsort(first)
    ends = ends[first[order]]
    used = np.bincount(ends.ravel(), minlength=len(nodes)) > 0
    weight = np.bincount(inverse, weights=weight, minlength=len(key))[order]
    return CollabNetwork(tuple(compress(nodes, used.tolist())), (np.cumsum(used) - 1)[ends], weight, slice)


def normalize_weights(network: CollabNetwork, productivity: dict[str, float] | None, scheme: str) -> CollabNetwork:
    """Rescale edge weights: raw (identity), log, Salton, or Jaccard.

    log uses the natural logarithm of (w + 1). Salton divides by the
    geometric mean of the endpoint productivities, Jaccard by their
    non-overlapping total; both need productivity >= incident weight.
    """
    if scheme not in NORM_SCHEMES:
        raise DataError(f"unknown normalization scheme {scheme!r}; choose from {NORM_SCHEMES}")
    w = network.weight
    if scheme == "log":
        w = np.array([math.log(x + 1.0) for x in w.tolist()])
    elif scheme != "raw":
        if productivity is None:
            raise DataError(f"{scheme} normalization needs per-country productivity")
        p = np.array([productivity.get(c, math.nan) for c in network.nodes], dtype=float)[network.ends]
        if np.isnan(p).any():
            raise DataError(f"missing productivity for {network.nodes[network.ends.flat[np.isnan(p).argmax()]]} "
                            f"under {scheme} normalization")
        with np.errstate(invalid="ignore"):
            denom = np.sqrt(p[:, 0] * p[:, 1]) if scheme == "salton" else p[:, 0] + p[:, 1] - w
        if not (denom > 0).all():
            raise DataError(f"non-positive {scheme} denominator on edge {list(network.edges)[np.argmin(denom > 0)]}")
        w = w / denom
    return CollabNetwork(network.nodes, network.ends, w, NetworkSlice(network.slice.year, network.slice.field, scheme))
