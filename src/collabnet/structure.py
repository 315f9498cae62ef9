"""Cohesion and community structure: k-cores, clustering, efficiency, modularity.

Topology-only metrics (k-core, clustering, global efficiency) ignore edge
weights; global efficiency reads the hop distances of the cached hop pass
(`CollabNetwork.hop_sweep`). Community detection is greedy modularity
maximization in the Clauset-Newman-Moore style, merging whichever pair of
communities raises Q most and stopping when no merge helps. Merge ties
within 1e-12 of the best gain are broken by the lexicographically smallest
combined member labels, which pins the partition across runs and platforms.
"""

from __future__ import annotations

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
    vals = network.hop_sweep[1][np.triu(np.ones((n, n), dtype=bool), k=1)]  # upper triangle, row by row
    vals = vals[vals > 0]  # 0: unreachable
    return float((1.0 / vals).sum()) / (n * (n - 1) / 2.0)


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

    Every linked community pair is one slot of the arrays `lo < hi`,
    `weight` and `gains`. Merging `hi` into `lo` adds the two weights of a
    partner linked to both into one slot and relabels a partner linked only
    to `hi`; only the survivor's slots get their gain recomputed.
    """
    if network.n < 1:
        raise DataError("community detection needs at least 1 node")

    m = sum(network.edges.values())
    # ids are node indices; reassigning members[a] in place keeps the dict
    # order, in which modularity_score sums the blocks
    members: dict[int, tuple[str, ...]] = {i: (node,) for i, node in enumerate(network.nodes)}
    if m == 0:
        return CommunityPartition(list(members.values()), 0.0)

    idx = network.index
    ends = np.array([(idx[a], idx[b]) for a, b in network.edges], dtype=np.intp)
    weight = np.array(list(network.edges.values()), dtype=float)
    degree = np.zeros(network.n)
    np.add.at(degree, ends.ravel(), np.repeat(weight, 2))  # in edge-dict order
    lo, hi = ends[:, 0].copy(), ends[:, 1].copy()
    alive = np.ones(len(weight), dtype=bool)
    norm = 2.0 * m * m

    def gain(slots: np.ndarray) -> np.ndarray:
        return weight[slots] / m - degree[lo[slots]] * degree[hi[slots]] / norm

    gains = gain(np.arange(len(weight)))
    while alive.any():
        live = np.flatnonzero(alive)
        best = gains[live].max()
        if best <= 0.0:
            break
        tied = live[gains[live] >= best - DQ_TIE_TOLERANCE]
        s = tied[0]
        if len(tied) > 1:
            s = min(tied, key=lambda t: tuple(sorted(members[lo[t]] + members[hi[t]])))
        a, b = lo[s], hi[s]

        # merge b into a
        alive[s] = False
        members[a] = tuple(sorted(members[a] + members[b]))
        del members[b]
        degree[a] += degree[b]
        at_a = np.flatnonzero(alive & ((lo == a) | (hi == a)))
        at_b = np.flatnonzero(alive & ((lo == b) | (hi == b)))
        partner_a = lo[at_a] + hi[at_a] - a
        partner_b = lo[at_b] + hi[at_b] - b
        _, shared_a, shared_b = np.intersect1d(partner_a, partner_b, assume_unique=True, return_indices=True)
        weight[at_a[shared_a]] += weight[at_b[shared_b]]
        alive[at_b[shared_b]] = False
        moved, partner = np.delete(at_b, shared_b), np.delete(partner_b, shared_b)
        lo[moved] = np.minimum(a, partner)
        hi[moved] = np.maximum(a, partner)
        touched = np.concatenate([at_a, moved])
        gains[touched] = gain(touched)

    # re-evaluate Q from the formula so the score matches modularity_score exactly
    blocks = list(members.values())
    return CommunityPartition(blocks, modularity_score(network, blocks))


def ego_modularity(network: CollabNetwork, country: str) -> float:
    """Q of the CNM partition of the country's ego network (the country and its neighbors)."""
    if not network.has_node(country):
        raise DataError(f"unknown country {country}")
    return communities(network.subgraph({country, *network.neighbors(country)})).q
