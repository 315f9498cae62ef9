"""The shortest-path layer: one hop pass, one weighted kernel, and bridging on top.

Every path metric reads one of two kernels:

- `hop_levels` runs a level-synchronous breadth-first search and Brandes'
  backward pass from each block of SOURCE_BLOCK sources, as sparse-matrix
  products, and returns only topological betweenness and hop distances.
  The path counts live only on each level's frontier, the backward pass
  divides only there, and a block stops once it has reached every node.
  It runs once per network, cached as `CollabNetwork.hop_sweep`, so
  topological betweenness and hop efficiency share one pass.
- `weighted_paths` runs scipy's Dijkstra from a block of sources over the
  cached inverse-weight CSR `CollabNetwork.distance_csr`, tests each CSR
  entry as the last step of a co-minimal path, and returns the distances,
  the path counts and those predecessor edges as one sparse DAG, the
  recursion of Brandes (2001) as fixed points of sparse products.
  Weighted betweenness and bridging read it, each asking for the rows it
  reads. Paths whose lengths agree within TIE_TOLERANCE (relative) count
  as co-minimal, so float noise cannot split genuinely tied routes.

Bridging: a target counts as bridged when the intermediary is an interior
vertex of at least one minimum-distance path from the source, detected
through the additivity test dist(s, via) + dist(via, t) == dist(s, t)
under the same tolerance. A sigma-weighted variant apportions each target
by the share of co-minimal paths through the intermediary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import DataError
from .graph import CollabNetwork

TIE_TOLERANCE = 1e-12  # relative, on accumulated path distances
SOURCE_BLOCK = 16  # sources per block; weighted_paths' temporaries are block x nnz


def hop_levels(network: CollabNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Topological betweenness and hop distances, one block of sources at a time.

    Returns (bc, hops): bc is the raw betweenness over unordered pairs, and
    hops[t, s] the hop distance between t and s, 0 where t == s or t is
    unreachable. Within a block, arrays are [target, source]: fronts[k] holds
    the shortest-path counts sigma on the pairs k hops apart and 0 elsewhere,
    a target's hop distance counts the levels that start with it unvisited,
    and the sweep ends once it has reached every target or a level reaches none.
    """
    n = network.n
    A = network.pattern
    bc = np.zeros(n)
    own = np.zeros(n)  # each source's dependency on itself, never credited
    hops = np.zeros((n, n), dtype=np.min_scalar_type(n))  # no hop distance reaches n
    for start in range(0, n, SOURCE_BLOCK):
        block = slice(start, min(start + SOURCE_BLOCK, n))
        front = np.eye(n, block.stop - start, -start)
        unvisited = front == 0.0
        fronts, frontiers = [front], [~unvisited]
        while unvisited.any():
            contrib = A @ front
            frontier = (contrib > 0.0) & unvisited
            if not frontier.any():
                hops[:, block][unvisited] = 0  # unreachable, yet counted at every level
                break
            hops[:, block] += unvisited
            unvisited ^= frontier
            front = contrib * frontier
            fronts.append(front)
            frontiers.append(frontier)
        delta = np.zeros_like(front)
        for level in range(len(fronts) - 1, 0, -1):
            coeff = np.divide(1.0 + delta, fronts[level], out=np.zeros_like(delta), where=frontiers[level])
            delta += (A @ coeff) * fronts[level - 1]
        own[block] = delta[block].diagonal()
        for column in delta.T:  # one source at a time, so bc sums in source order
            bc += column
    return (bc - own) / 2.0, hops


def weighted_paths(network: CollabNetwork, sources) -> tuple[np.ndarray, np.ndarray, sp.csr_array]:
    """Co-minimal inverse-weight paths from a block of source indices.

    Returns (dist, sigma, succ), dist and sigma with one row per source:
    dist[b, v] is the distance (inf when unreachable) and sigma[b, v] the
    number of co-minimal paths. succ is the block's predecessor DAG, a 0/1
    matrix over the (source, node) pairs b * n + v: row b * n + u lists
    b * n + v for each edge u -> v that ends a co-minimal path to v, the v
    that Dijkstra finalizes last first. Dijkstra finalizes nodes by
    distance, ties by index; an edge is kept only if it finalizes u before
    v, which on a non-degenerate network drops nothing and always leaves
    the DAG acyclic.
    """
    sources = np.asarray(sources)
    n, blocks = network.n, len(sources)
    D = network.distance_csr
    dist = csgraph.dijkstra(D, indices=sources)
    # [nnz, block] arrays, one row per CSR entry u -> v: gathering rows of dist.T keeps them contiguous
    tail, dist_t = np.repeat(np.arange(n), network.degrees), np.ascontiguousarray(dist.T)
    through = np.take(dist_t, tail, axis=0) + D.data[:, None]  # dist(s, u) + d(u, v)
    bound = np.take(dist_t, D.indices, axis=0)
    bound += TIE_TOLERANCE * through
    hits = np.flatnonzero(through <= bound)
    hits = hits[np.isfinite(through.ravel()[hits])]  # inf <= inf would make every unreachable pair a tie
    k, b = np.divmod(hits, blocks)
    u, v = b * n + tail[k], b * n + D.indices[k]  # as (source, node) pairs
    rank = np.argsort(np.argsort(dist, axis=1, kind="stable"), axis=1).ravel()  # Dijkstra's finalize order
    keep = rank[u] < rank[v]
    u, v = u[keep], v[keep]
    by_row = np.argsort(u * n + (n - 1 - rank[v]))  # each row u lists its v last-finalized first
    indptr = np.r_[0, np.cumsum(np.bincount(u, minlength=blocks * n))]
    succ = sp.csr_array((np.ones(len(u)), v[by_row], indptr), shape=(blocks * n, blocks * n))

    seed = np.zeros(succ.shape[0])
    seed[np.arange(blocks) * n + sources] = 1.0
    sigma = settle(lambda sigma: seed + succ.T @ sigma, seed, n)  # sigma <- e + P sigma
    return dist, sigma.reshape(dist.shape), succ


def settle(step, x: np.ndarray, n: int) -> np.ndarray:
    """Iterate x <- step(x) until it stops changing, at most n + 1 times:
    a step over a DAG of n nodes per source settles one more level of it."""
    for _ in range(n + 1):
        nxt = step(x)
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x


@dataclass
class BridgingReport:
    source: str
    intermediary: str
    year: int | None
    fraction: float
    target_count: int
    mode: str = "any"


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
    targets = network.n - 2
    if not targets:
        raise DataError("network has no targets besides source and intermediary")

    (dist_s, dist_v), (sigma_s, sigma_v), _ = weighted_paths(network, [s, v])
    through = dist_s[v] + dist_v  # finite only where s reaches v and v reaches the target
    bridged = np.isfinite(through) & (through <= dist_s + TIE_TOLERANCE * np.maximum(through, dist_s))
    bridged[[s, v]] = False
    if mode == "any":
        total = float(bridged.sum())
    else:  # shares add up target by target, in index order
        total = float(np.cumsum(np.r_[0.0, sigma_s[v] * sigma_v[bridged] / sigma_s[bridged]])[-1])
    return BridgingReport(source, intermediary, network.slice.year, total / targets, targets, mode)
