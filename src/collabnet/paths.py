"""The shortest-path layer: one hop sweep, one Dijkstra, and bridging on top.

Every path metric reads one of two kernels:

- `hop_levels` runs a level-synchronous breadth-first search from every
  source at once, as sparse-matrix products, and returns the path counts
  sigma and the frontier of each level. It runs once per network, cached
  as `CollabNetwork.hop_sweep`; topological betweenness and hop
  efficiency both read that one result.
- `dijkstra` runs one source over the inverse-weight distances of
  `CollabNetwork.distance_lists` and returns distances, co-minimal path
  counts, predecessors and the order in which nodes were finalized.
  Weighted betweenness, weighted efficiency and bridging read it. Paths
  whose lengths agree within TIE_TOLERANCE (relative) count as co-minimal,
  so float noise cannot split genuinely tied routes.

Bridging: a target counts as bridged when the intermediary is an interior
vertex of at least one minimum-distance path from the source, detected
through the additivity test dist(s, via) + dist(via, t) == dist(s, t)
under the same tolerance. A sigma-weighted variant apportions each target
by the share of co-minimal paths through the intermediary.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import CollabNetwork

TIE_TOLERANCE = 1e-12  # relative, on accumulated path distances


def hop_levels(network: CollabNetwork) -> tuple[np.ndarray, list[np.ndarray]]:
    """All-sources breadth-first search, one level per step.

    Arrays are indexed [target, source]: sigma counts the shortest hop paths,
    and frontiers[k] marks the pairs k hops apart.
    """
    n = network.n
    A = network.csr(weighted=False)
    sigma = np.eye(n)
    unvisited = ~np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    frontiers = [frontier]
    while True:
        contrib = A @ (sigma * frontier)
        frontier = (contrib > 0.0) & unvisited
        if not frontier.any():
            return sigma, frontiers
        sigma = np.where(frontier, contrib, sigma)
        unvisited &= ~frontier
        frontiers.append(frontier)


def dijkstra(network: CollabNetwork, s: int) -> tuple[list[float], list[float], list[list[int]], list[int]]:
    """Single-source inverse-weight distances from node index s.

    Returns (dist, sigma, preds, order) per node index: distance (inf when
    unreachable), number of co-minimal paths, predecessors on those paths,
    and the reachable nodes in the order they were finalized.
    """
    n = network.n
    nbrs = network.distance_lists
    inf = math.inf
    dist = [inf] * n
    sigma = [0.0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    done = [False] * n
    order: list[int] = []
    dist[s] = 0.0
    sigma[s] = 1.0
    heap = [(0.0, s)]
    while heap:
        d_u, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        for v, d_uv in nbrs[u]:
            if done[v]:
                continue
            nd = d_u + d_uv
            cur = dist[v]
            tol = TIE_TOLERANCE * max(nd, cur if cur < inf else nd)
            if nd < cur - tol:
                dist[v] = nd
                sigma[v] = sigma[u]
                preds[v] = [u]
                heapq.heappush(heap, (nd, v))
            elif abs(nd - cur) <= tol:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return dist, sigma, preds, order


@dataclass
class BridgingReport:
    source: str
    intermediary: str
    year: int | None
    fraction: float
    target_count: int
    mode: str = "any"


def shortest_path_info(network: CollabNetwork, source: str):
    """Single-source inverse-weight distances and co-minimal path counts, keyed by name."""
    if not network.has_node(source):
        raise DataError(f"unknown country {source}")
    dist, sigma, _, _ = dijkstra(network, network.index[source])
    return dict(zip(network.nodes, dist)), dict(zip(network.nodes, sigma))


def bridging_fraction(network: CollabNetwork, source: str, intermediary: str, mode: str = "any") -> BridgingReport:
    """Fraction of targets whose shortest paths from source pass through the intermediary.

    Unreachable targets count as not bridged. mode="sigma" replaces the 0/1
    interior test with the share of co-minimal paths through the intermediary.
    """
    if source == intermediary:
        raise DataError("source and intermediary must differ")
    if mode not in ("any", "sigma"):
        raise DataError(f"unknown bridging mode {mode!r}")
    for node in (source, intermediary):
        if not network.has_node(node):
            raise DataError(f"unknown country {node}")
    s, v = network.index[source], network.index[intermediary]
    targets = [t for t in range(network.n) if t not in (s, v)]
    if not targets:
        raise DataError("network has no targets besides source and intermediary")

    dist_s, sigma_s, _, _ = dijkstra(network, s)
    dist_v, sigma_v, _, _ = dijkstra(network, v)
    d_sv = dist_s[v]

    total = 0.0
    for t in targets:
        d_st = dist_s[t]
        if not (math.isfinite(d_st) and math.isfinite(d_sv) and math.isfinite(dist_v[t])):
            continue
        through = d_sv + dist_v[t]
        if through <= d_st + TIE_TOLERANCE * max(through, d_st):
            if mode == "any":
                total += 1.0
            else:
                total += (sigma_s[v] * sigma_v[t]) / sigma_s[t]
    return BridgingReport(source, intermediary, network.slice.year, total / len(targets), len(targets), mode)
