"""The shortest-path layer: one hop pass, one weighted kernel, and bridging on top.

Every path metric reads one of two kernels:

- `_sweep`, the hop kernel, runs a level-synchronous breadth-first search
  from a block of SOURCE_BLOCK sources as sparse-matrix products. The path
  counts live only on each level's frontier, and a block stops once it
  has reached every node. Level d's frontier holds the pairs d hops apart,
  so the sweep counts them into `pairs[d]`; no n x n hop matrix is kept.
  Level 1's front is the sources' neighbour columns, so level 2's product
  also counts each source's closed wedges (`closed`), which clustering
  reads. It has two readers, each returning the betweenness and those
  counts. `hop_levels` adds Brandes' backward pass, dividing only on the
  frontier, for every node's topological betweenness; it runs once per
  network, cached as `CollabNetwork.hop_sweep`, so topological
  betweenness, clustering and hop efficiency share one pass.
  `node_betweenness` returns one node's betweenness from the forward
  sweeps alone, for callers that need a single node's value.
- `geodesics` runs scipy's Dijkstra once from every source over the
  cached inverse-weight CSR `CollabNetwork.distance_csr`, cached as
  `CollabNetwork.geodesics`: the n x n distance matrix, and the CSR entries
  that can end a co-minimal path from some source. An entry longer than
  the distance between its own endpoints (beyond the tie and rounding
  slack) ends none, the "essential subgraph" of Karger, Koller & Phillips
  (1993); in dense weighted windows only a few percent of entries remain.
- `weighted_paths` reads a block of those distance rows, tests each kept
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

from .errors import DataError
from .graph import CollabNetwork

TIE_TOLERANCE = 1e-12  # relative, on accumulated path distances
SOURCE_BLOCK = 16  # sources per block; weighted_paths' temporaries are block x kept entries


def _sweep(A: sp.csr_array, start: int, stop: int, pairs: np.ndarray, closed: np.ndarray):
    """Level-synchronous breadth-first search from the sources start..stop-1.

    Yields each level's (front, frontier), level 0 the sources themselves.
    Arrays are [target, source]: a front holds the shortest-path counts
    sigma on the pairs that many hops apart and 0 elsewhere, so the fronts
    sum to the full sigma columns. Adds the size of each level d >= 1's
    frontier, its (source, target) pairs d hops apart, to pairs[d]; the
    sweep ends once it has reached every target or a level reaches none.
    Level 1's front is the sources' 0/1 neighbour columns R, so level 2's
    product A @ R also gives each source's closed wedges, ((A @ R) * R)
    summed over targets, into closed[start:stop] (twice its triangles);
    that product runs even when level 1 has reached every target.
    """
    front = np.eye(A.shape[0], stop - start, -start)
    unvisited = front == 0.0
    yield front, ~unvisited
    level = 0
    while unvisited.any() or level == 1:
        contrib = A @ front
        if level == 1:
            closed[start:stop] = (contrib * front).sum(axis=0)
        frontier = (contrib > 0.0) & unvisited
        reached = np.count_nonzero(frontier)
        if not reached:
            return
        level += 1
        pairs[level] += reached
        unvisited ^= frontier
        front = contrib * frontier
        yield front, frontier


def hop_levels(network: CollabNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Topological betweenness, pair counts per hop distance and closed wedges, one block of sources at a time.

    Returns (bc, pairs, closed): bc is the raw betweenness over unordered
    pairs, pairs[d] the number of ordered (source, target) pairs d >= 1 hops
    apart, of length n since no hop distance reaches n (pairs[0] and
    unreachable pairs count nothing), and closed[v] the number of ordered
    pairs of v's neighbours that are linked, twice v's triangles, as
    integer-valued floats. Each block's `_sweep` keeps its fronts for
    Brandes' backward pass, which divides only on each level's frontier.
    """
    n = network.n
    A = network.pattern
    bc = np.zeros(n)
    own = np.zeros(n)  # each source's dependency on itself, never credited
    pairs, closed = np.zeros(n, dtype=np.int64), np.zeros(n)
    for start in range(0, n, SOURCE_BLOCK):
        block = slice(start, min(start + SOURCE_BLOCK, n))
        fronts, frontiers = zip(*_sweep(A, block.start, block.stop, pairs, closed))
        delta = np.zeros_like(fronts[0])
        for level in range(len(fronts) - 1, 0, -1):
            coeff = np.divide(1.0 + delta, fronts[level], out=np.zeros_like(delta), where=frontiers[level])
            delta += (A @ coeff) * fronts[level - 1]
        own[block] = delta[block].diagonal()
        for column in delta.T:  # one source at a time, so bc sums in source order
            bc += column
    return (bc - own) / 2.0, pairs, closed


def _sigma_hops(A: sp.csr_array, start: int, stop: int, pairs: np.ndarray,
                closed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The full sigma columns of `_sweep` from start..stop-1, the sum of its fronts, and its hop columns.

    The sweep adds to pairs and fills closed[start:stop]. Both returned
    arrays are [target, source], hops 0 where t == s or t is unreachable,
    in the smallest dtype that holds n - 1.
    """
    n = A.shape[0]
    sigma, hops = 0.0, np.zeros((n, stop - start), dtype=np.min_scalar_type(n))
    for level, (front, frontier) in enumerate(_sweep(A, start, stop, pairs, closed)):
        sigma = sigma + front
        hops += frontier * hops.dtype.type(level)
    return sigma, hops


def node_betweenness(network: CollabNetwork, node: str) -> tuple[float, np.ndarray, np.ndarray]:
    """One node's topological betweenness, pair counts per hop distance and closed wedges, from forward sweeps alone.

    Returns (bc, pairs, closed) with pairs and closed as `hop_levels`
    returns them, and bc the node v's raw betweenness over unordered
    pairs: the sum of the pair dependencies sigma_sv sigma_vt / sigma_st
    over the pairs s != t, both other than v, with d(s, v) + d(v, t) =
    d(s, t). One sweep from v gives d(v, .) and sigma(v, .); each block of
    SOURCE_BLOCK sources then needs only its own sigma and hop columns
    (`_sigma_hops`), and no backward pass.
    """
    if not network.has_node(node):
        raise DataError(f"unknown node {node}")
    n, v = network.n, network.index[node]
    A = network.pattern
    pairs, closed = np.zeros(n, dtype=np.int64), np.zeros(n)
    sigma_v, to_v = _sigma_hops(A, v, v + 1, np.zeros_like(pairs), np.zeros_like(closed))  # both counted in v's block
    sigma_v, to_v = sigma_v[:, 0], to_v[:, 0].astype(np.intp)  # the small dtype could wrap d(s, v) + d(v, t)
    to_v[to_v == 0] = 2 * n  # v and the nodes it cannot reach: no sum through them is a distance
    bc = 0.0
    for start in range(0, n, SOURCE_BLOCK):
        block = slice(start, min(start + SOURCE_BLOCK, n))
        sigma, hops = _sigma_hops(A, block.start, block.stop, pairs, closed)
        through = hops == to_v[:, None] + to_v[block]  # never where t == s: hops is 0 there
        bc += float(np.divide(np.outer(sigma_v, sigma_v[block]), sigma, out=np.zeros_like(sigma), where=through).sum())
    return bc / 2.0, pairs, closed


def geodesics(network: CollabNetwork) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All-pairs inverse-weight distances and the CSR entries that can end a co-minimal path.

    Returns (dist, (tail, head, length)): dist, one Dijkstra over all sources
    (inf where unreachable), and in CSR order the entries u -> v of
    `distance_csr` with length - dist[u, v] <= slack, where
    slack = 8 * (TIE_TOLERANCE + n * eps) * (scale + length) and scale is
    the largest finite distance.

    A dropped entry fails `weighted_paths`' test, through = dist[s, u] +
    length <= dist[s, v] + TIE_TOLERANCE * through, from every source s.
    Each computed distance is a float sum along a path of at most n - 1
    edges, no larger than the float sum along an exact shortest path, so it
    is within a factor 1 +/- g, g ~ n * eps, of the exact distance, and
    dist[u, v] <= length. With the exact d(s, v) <= d(s, u) + d(u, v) and
    one rounding per operation, a passing test gives, to first order,
    length - dist[u, v] <= 2 (eps + g) (dist[s, u] + length) + TIE_TOLERANCE * through
    <= 2 * (TIE_TOLERANCE + n * eps) * (scale + length): a quarter of the
    slack, the rest covering the prune's own rounding. On unit weights every
    entry is kept; on degenerate weights (1e13 beside 1) every short one is.
    """
    from scipy.sparse import csgraph  # loaded on first use: it brings scipy.sparse.linalg and scipy.linalg

    D = network.distance_csr
    dist = csgraph.dijkstra(D)
    tail, head, length = np.repeat(np.arange(network.n), network.degrees), D.indices, D.data
    scale = dist.max(where=np.isfinite(dist), initial=0.0)
    slack = 8.0 * (TIE_TOLERANCE + network.n * np.finfo(float).eps) * (scale + length)
    kept = length - dist[tail, head] <= slack
    return dist, (tail[kept], head[kept], length[kept])


def weighted_paths(network: CollabNetwork, sources) -> tuple[np.ndarray, np.ndarray, sp.csr_array]:
    """Co-minimal inverse-weight paths from a block of source indices.

    Returns (dist, sigma, succ), dist and sigma with one row per source:
    dist[b, v] is the distance (inf when unreachable) and sigma[b, v] the
    number of co-minimal paths. succ is the block's predecessor DAG, a 0/1
    matrix over the (source, node) pairs b * n + v: row b * n + u lists
    b * n + v for each edge u -> v that ends a co-minimal path to v, the v
    that Dijkstra finalizes last first. Only the entries `geodesics` keeps
    are tested; the rest fail the test from every source. Dijkstra
    finalizes nodes by distance, ties by index; an edge is kept only if it
    finalizes u before v, which on a non-degenerate network drops nothing
    and always leaves the DAG acyclic.

    The tie test is relative to each path's own length, so "co-minimal" is
    not transitive: where an edge is shorter than TIE_TOLERANCE times a
    path through it (weights 1e13 beside 1), which co-minimal routes the
    DAG keeps follows Dijkstra's index tie-break, and weighted betweenness
    then depends on node order, not only on the graph.
    """
    sources = np.asarray(sources)
    n, blocks = network.n, len(sources)
    all_dist, (tail, head, length) = network.geodesics
    dist = all_dist[sources]
    # [kept, block] arrays, one row per kept entry u -> v: gathering rows of dist.T keeps them contiguous
    dist_t = np.ascontiguousarray(dist.T)
    through = np.take(dist_t, tail, axis=0) + length[:, None]  # dist(s, u) + d(u, v)
    bound = np.take(dist_t, head, axis=0)
    bound += TIE_TOLERANCE * through
    hits = np.flatnonzero(through <= bound)
    hits = hits[np.isfinite(through.ravel()[hits])]  # inf <= inf would make every unreachable pair a tie
    k, b = np.divmod(hits, blocks)
    u, v = b * n + tail[k], b * n + head[k]  # as (source, node) pairs
    rank = np.argsort(np.argsort(dist, axis=1, kind="stable"), axis=1).ravel()  # Dijkstra's finalize order
    keep = rank[u] < rank[v]
    u, v = u[keep], v[keep]
    by_row = np.argsort(u * n + (n - 1 - rank[v]))  # each row u lists its v last-finalized first
    indptr = np.r_[0, np.cumsum(np.bincount(u, minlength=blocks * n))]
    succ = sp.csr_array((np.ones(len(u)), v[by_row], indptr), shape=(blocks * n, blocks * n))

    seed = np.zeros(succ.shape[0])
    seed[np.arange(blocks) * n + sources] = 1.0
    P = succ.T  # once: .T builds a new matrix each time it is taken
    sigma = settle(lambda sigma: seed + P @ sigma, seed, n)  # sigma <- e + P sigma
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
