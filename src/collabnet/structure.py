"""Cohesion and community structure: k-cores, clustering, efficiency, modularity.

Topology-only metrics (k-core, clustering, global efficiency) ignore edge
weights. Clustering and global efficiency read the cached hop pass
(`CollabNetwork.hop_sweep`): clustering its closed-wedge counts, global
efficiency its pair counts per hop distance, summed exactly in integers and
correctly rounded. Community detection is greedy modularity
maximization in the Clauset-Newman-Moore style, merging whichever pair of
communities raises Q most and stopping when no merge helps. Merge ties
within 1e-12 of the best gain are broken by the lexicographically smallest
combined member labels, which pins the partition across runs and platforms.
Each linked community pair is one slot of flat arrays, a dead slot's gain
is -inf, and each community keeps a list of its slots, so a merge touches
only the two merged communities' slots.
"""

from __future__ import annotations

import math
from collections import Counter
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
    """Local clustering coefficients; nodes of degree < 2 score 0.

    A node's closed wedges are its column of (A @ A) * A, counted by the
    cached hop pass (`CollabNetwork.hop_sweep`) at its second level.
    """
    if network.n < 1:
        raise DataError("clustering needs at least 1 node")
    return _wedge_clustering(network, network.hop_sweep[2])


def _wedge_clustering(network: CollabNetwork, closed: np.ndarray) -> ClusteringResult:
    """Clustering from the hop kernels' closed-wedge counts, twice each node's triangles."""
    d = network.degrees
    coeff = np.divide(closed, d * (d - 1), out=np.zeros(network.n), where=d >= 2)
    per_node = dict(zip(network.nodes, coeff.tolist()))
    return ClusteringResult(per_node, sum(per_node.values()) / network.n)


def global_efficiency(network: CollabNetwork) -> float:
    """Mean inverse hop distance over unordered pairs; unreachable pairs add 0."""
    n = network.n
    if n < 2:
        raise DataError(f"global efficiency needs at least 2 nodes, got {n}")
    return _hop_efficiency(network.hop_sweep[1])


def _hop_efficiency(pairs: np.ndarray) -> float:
    """Mean inverse hop distance over the n(n - 1) ordered pairs, from the hop kernels' pair counts.

    pairs[d] counts the ordered pairs d >= 1 hops apart, and len(pairs) is n.
    The sum of pairs[d] / d is exact as an integer over L, the lcm of the
    distances reached, and Python's int / int division rounds the mean
    correctly.
    """
    n = len(pairs)
    reached = {d: c for d, c in enumerate(pairs.tolist()) if c}  # pairs[0] is 0
    L = math.lcm(*reached)
    return sum(c * (L // d) for d, c in reached.items()) / (n * (n - 1) * L)


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
    count = Counter(node for b in blocks for node in b)
    wrong = sorted(count.keys() ^ set(network.nodes) | {node for node, k in count.items() if k > 1})
    if wrong:
        raise DataError(f"partition does not hold each node once: {wrong}")

    m = sum(network.weight.tolist())  # Python's left-to-right sum, as before; np.sum adds pairwise
    if m == 0:
        return 0.0
    block_of = {node: i for i, b in enumerate(blocks) for node in b}
    ends, w = np.array([block_of[node] for node in network.nodes], dtype=np.intp)[network.ends], network.weight
    same = ends[:, 0] == ends[:, 1]
    intra = np.bincount(ends[same, 0], weights=w[same], minlength=len(blocks))  # in edge order
    degree = np.bincount(ends.ravel(), weights=np.repeat(w, 2), minlength=len(blocks))
    return sum(e / m - (d / (2.0 * m)) ** 2 for e, d in zip(intra.tolist(), degree.tolist()))


def communities(network: CollabNetwork) -> CommunityPartition:
    """Greedy modularity merging with the deterministic tie rule.

    Starts from singletons, repeatedly merges the community pair with the
    largest positive modularity gain, and returns the resulting partition
    with its Q. Gains within DQ_TIE_TOLERANCE of the best are tied and the
    smallest combined label (the sorted union of both member lists) wins.

    Every linked community pair is one slot of the arrays `lo < hi`,
    `weight` and `gains`; a dead slot's gain is -inf, so the best gain is
    `gains.max()`. Each community keeps the list of its slots. Merging `hi`
    into `lo` reads only the two lists: it adds the two weights of a partner
    linked to both into one slot, kills the other and relabels a partner
    linked only to `hi`; only the survivor's slots get their gain
    recomputed, and their live union becomes its list.
    """
    if network.n < 1:
        raise DataError("community detection needs at least 1 node")

    m = sum(network.weight.tolist())
    # ids are node indices; reassigning members[a] in place keeps the dict
    # order, in which modularity_score sums the blocks
    members: dict[int, tuple[str, ...]] = {i: (node,) for i, node in enumerate(network.nodes)}
    if m == 0:
        return CommunityPartition(list(members.values()), 0.0)

    ends, weight = network.ends, network.weight.copy()  # merges add into `weight`
    degree = np.bincount(ends.ravel(), weights=np.repeat(weight, 2), minlength=network.n)  # in edge order
    lo, hi = ends[:, 0].copy(), ends[:, 1].copy()
    # slots[c]: the slots of community c, live ones among them; a merge stores the survivor's live union
    order = np.argsort(ends.ravel())
    slots = np.split(order // 2, np.cumsum(np.bincount(ends.ravel(), minlength=network.n))[:-1])
    position = np.full(network.n, -1, dtype=np.intp)  # partner -> slot of `a`, reset after each merge
    norm = 2.0 * m * m

    def gain(at: np.ndarray) -> np.ndarray:
        return weight[at] / m - degree[lo[at]] * degree[hi[at]] / norm

    gains = gain(np.arange(len(weight)))
    while (best := gains.max()) > 0.0:
        tied = np.flatnonzero(gains >= best - DQ_TIE_TOLERANCE)
        s = tied[0]
        if len(tied) > 1:
            s = min(tied, key=lambda t: tuple(sorted(members[lo[t]] + members[hi[t]])))
        a, b = lo[s], hi[s]

        # merge b into a
        gains[s] = -np.inf
        members[a] = tuple(sorted(members[a] + members[b]))
        del members[b]
        degree[a] += degree[b]
        at_a, at_b = slots[a], slots[b]
        at_a, at_b = at_a[gains[at_a] > -np.inf], at_b[gains[at_b] > -np.inf]
        partner_a, partner_b = lo[at_a] + hi[at_a] - a, lo[at_b] + hi[at_b] - b
        position[partner_a] = at_a
        into = position[partner_b]  # the slot of `a` shared with each partner of `b`, or -1
        position[partner_a] = -1
        shared = into >= 0
        weight[into[shared]] += weight[at_b[shared]]
        gains[at_b[shared]] = -np.inf
        moved, partner = at_b[~shared], partner_b[~shared]
        lo[moved] = np.minimum(a, partner)
        hi[moved] = np.maximum(a, partner)
        slots[a] = np.concatenate([at_a, moved])
        gains[slots[a]] = gain(slots[a])

    # re-evaluate Q from the formula so the score matches modularity_score exactly
    blocks = list(members.values())
    return CommunityPartition(blocks, modularity_score(network, blocks))


def ego_modularity(network: CollabNetwork, country: str) -> float:
    """Q of the CNM partition of the country's ego network (the country and its neighbors)."""
    if not network.has_node(country):
        raise DataError(f"unknown country {country}")
    return communities(network.subgraph({country, *network.neighbors(country)})).q
