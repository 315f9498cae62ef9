"""Cohesion and community structure: k-cores, clustering, efficiency, modularity.

Topology-only metrics (k-core, clustering, global efficiency) ignore edge
weights; community detection is greedy modularity maximization in the
Clauset-Newman-Moore style, merging whichever pair of communities raises Q
most and stopping when no merge helps. Merge ties within 1e-12 of the best
gain are broken by the lexicographically smallest combined member labels,
which pins the partition across runs and platforms.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import CollabNetwork

DQ_TIE_TOLERANCE = 1e-12


@dataclass
class CorePartition:
    """Core numbers plus the size and share of the maximum k-core."""

    core_number: dict[str, int]
    max_k: int
    kcore_nodes: int
    kcore_ratio: float

    @property
    def max_core(self) -> set[str]:
        return {v for v, c in self.core_number.items() if c == self.max_k}


def k_core(network: CollabNetwork) -> CorePartition:
    """Level-by-level peeling; weights are ignored.

    At level k every node whose remaining degree is at most k gets core
    number k and is peeled at once; its neighbors lose one degree each.
    """
    if network.n < 1:
        raise DataError("k-core needs at least 1 node")
    degree = network.degrees.astype(float)
    alive = np.ones(network.n, dtype=bool)
    core = np.zeros(network.n, dtype=int)
    k = 0
    while alive.any():
        k = max(k, int(degree[alive].min()))
        peeled = alive & (degree <= k)
        core[peeled] = k
        alive &= ~peeled
        degree -= network.pattern @ peeled
    max_k = int(core.max())
    members = int((core == max_k).sum())
    return CorePartition(dict(zip(network.nodes, core.tolist())), max_k, members, members / network.n)


@dataclass
class ClusteringResult:
    per_node: dict[str, float]
    average: float


def clustering(network: CollabNetwork) -> ClusteringResult:
    """Local clustering coefficients; nodes of degree < 2 score 0."""
    if network.n < 1:
        raise DataError("clustering needs at least 1 node")
    A = network.pattern
    closed = ((A @ A) * A).sum(axis=1)  # counts each triangle at a node twice
    d = network.degrees
    coeff = np.divide(closed, d * (d - 1), out=np.zeros(network.n), where=d >= 2)
    per_node = dict(zip(network.nodes, coeff.tolist()))
    return ClusteringResult(per_node, sum(per_node.values()) / network.n)


def global_efficiency(network: CollabNetwork) -> float:
    """Mean inverse hop distance over unordered pairs; unreachable pairs add 0."""
    n = network.n
    if n < 2:
        raise DataError(f"global efficiency needs at least 2 nodes, got {n}")
    _, frontiers = network.hop_sweep
    dist = np.full((n, n), np.inf)
    for level, frontier in enumerate(frontiers):
        dist[frontier] = level
    vals = dist[np.triu_indices(n, k=1)]
    return float((1.0 / vals[np.isfinite(vals)]).sum()) / (n * (n - 1) / 2.0)


@dataclass
class CommunityPartition:
    """Disjoint blocks covering the node set, with their modularity score."""

    blocks: list[tuple[str, ...]]
    q: float

    def __post_init__(self):
        self.blocks = sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0])

    def __len__(self) -> int:
        return len(self.blocks)


def modularity_score(network: CollabNetwork, partition) -> float:
    """Q = sum over blocks of intra-weight/m - (block degree / 2m)^2."""
    blocks = [tuple(b) for b in partition]
    covered: set[str] = set()
    for b in blocks:
        overlap = covered & set(b)
        if overlap:
            raise DataError(f"partition blocks overlap on {sorted(overlap)}")
        covered |= set(b)
    missing = set(network.nodes) - covered
    if missing:
        raise DataError(f"partition misses nodes {sorted(missing)}")
    extra = covered - set(network.nodes)
    if extra:
        raise DataError(f"partition covers unknown nodes {sorted(extra)}")

    m = sum(network.edges.values())
    if m == 0:
        return 0.0
    block_of = {node: i for i, b in enumerate(blocks) for node in b}
    intra = [0.0] * len(blocks)
    degree = [0.0] * len(blocks)
    for (a, b), w in network.edges.items():
        degree[block_of[a]] += w
        degree[block_of[b]] += w
        if block_of[a] == block_of[b]:
            intra[block_of[a]] += w
    return sum(e / m - (d / (2.0 * m)) ** 2 for e, d in zip(intra, degree))


def communities(network: CollabNetwork) -> CommunityPartition:
    """Greedy modularity merging with the deterministic tie rule.

    Starts from singletons, repeatedly merges the community pair with the
    largest positive modularity gain, and returns the resulting partition
    with its Q. Gains within DQ_TIE_TOLERANCE of the best are tied and the
    smallest combined label (the sorted union of both member lists) wins.

    Heap entries hold only the gain, the two community ids and their merge
    stamps; an entry whose stamps are out of date is stale and skipped. The
    sorted-union tie key is built only when two or more valid candidates
    fall inside the tie window.
    """
    if network.n < 1:
        raise DataError("community detection needs at least 1 node")

    m = sum(network.edges.values())
    members: dict[int, tuple[str, ...]] = {i: (node,) for i, node in enumerate(network.nodes)}
    if m == 0:
        return CommunityPartition(list(members.values()), 0.0)

    comm_of = {node: i for i, node in enumerate(network.nodes)}
    degree: dict[int, float] = {i: 0.0 for i in members}
    between: dict[int, dict[int, float]] = {i: {} for i in members}
    for (a, b), w in network.edges.items():
        ca, cb = comm_of[a], comm_of[b]
        degree[ca] += w
        degree[cb] += w
        between[ca][cb] = between[ca].get(cb, 0.0) + w
        between[cb][ca] = between[cb].get(ca, 0.0) + w

    stamp: dict[int, int] = {i: 0 for i in members}

    def gain(a: int, b: int) -> float:
        return between[a][b] / m - degree[a] * degree[b] / (2.0 * m * m)

    heap: list[tuple[float, int, int, int, int]] = []

    def push(a: int, b: int) -> None:
        heapq.heappush(heap, (-gain(a, b), a, b, stamp[a], stamp[b]))

    for a in between:
        for b in between[a]:
            if a < b:
                push(a, b)

    def pop_valid():
        while heap:
            neg_dq, a, b, sa, sb = heapq.heappop(heap)
            if a in members and b in members and stamp[a] == sa and stamp[b] == sb:
                return -neg_dq, a, b
        return None

    while True:
        top = pop_valid()
        if top is None or top[0] <= 0.0:
            break
        # gather every valid candidate inside the tie window below the best gain
        best_dq = top[0]
        candidates = [top]
        while heap and -heap[0][0] >= best_dq - DQ_TIE_TOLERANCE:
            cand = pop_valid()
            if cand is None:
                break
            candidates.append(cand)
            if cand[0] < best_dq - DQ_TIE_TOLERANCE:
                break
        in_window = [c for c in candidates if c[0] >= best_dq - DQ_TIE_TOLERANCE]
        winner = in_window[0]
        if len(in_window) > 1:
            winner = min(in_window, key=lambda c: tuple(sorted(members[c[1]] + members[c[2]])))
        for cand in candidates:
            if cand is not winner:
                heapq.heappush(heap, (-cand[0], cand[1], cand[2], stamp[cand[1]], stamp[cand[2]]))
        _, a, b = winner

        # merge b into a
        members[a] = tuple(sorted(members[a] + members[b]))
        degree[a] += degree[b]
        nbrs_b = between.pop(b)
        del members[b]
        del degree[b]
        stamp[a] += 1
        between[a].pop(b, None)
        for x, w in nbrs_b.items():
            if x == a:
                continue
            between[x].pop(b, None)
            between[a][x] = between[a].get(x, 0.0) + w
            between[x][a] = between[a][x]
        for x in between[a]:
            push(min(a, x), max(a, x))

    # re-evaluate Q from the formula so the score matches modularity_score exactly
    blocks = list(members.values())
    return CommunityPartition(blocks, modularity_score(network, blocks))


def ego_modularity(network: CollabNetwork, country: str) -> float:
    """Q of the CNM partition of the country's ego network (the country and its neighbors)."""
    if not network.has_node(country):
        raise DataError(f"unknown country {country}")
    return communities(network.subgraph({country, *network.neighbors(country)})).q
