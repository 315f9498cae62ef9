"""Independent brute-force oracles used to cross-check the fast kernels.

Everything here works from first principles on tiny graphs: exhaustive
path enumeration with exact rational arithmetic, Floyd-Warshall, k-cores
by repeated deletion, clustering by counting each node's closed neighbor
pairs, modularity maximization over all set partitions, a
naive greedy merge that recomputes every gain at every step, and
participation shares counted from the publication records.
None of it shares code with the package implementations, except the
dense weighted kernel and the edge dict functions at the end: the
package's former weighted betweenness and its former dict-backed
`CollabNetwork.from_pairs` and `normalize_weights`, kept as the
float-for-float references of the sparse and array forms.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.sparse import csgraph


def build_adj(edges):
    adj = {}
    for (a, b), w in edges.items():
        adj.setdefault(a, {})[b] = w
        adj.setdefault(b, {})[a] = w
    return adj


def random_connected_graph(rng: random.Random, n: int, max_weight: int = 10):
    """Random connected graph with integer weights: spanning tree plus extras."""
    nodes = [f"v{i}" for i in range(n)]
    edges = {}
    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        key = (a, b) if a < b else (b, a)
        edges[key] = rng.randint(1, max_weight)
    extra = rng.randint(0, n * (n - 1) // 2 - (n - 1))
    candidates = [tuple(sorted(p)) for p in combinations(nodes, 2)]
    rng.shuffle(candidates)
    for pair in candidates:
        if extra == 0:
            break
        if pair not in edges:
            edges[pair] = rng.randint(1, max_weight)
            extra -= 1
    return nodes, edges


def random_graph(rng: random.Random, n: int, max_weight: int = 10):
    """Random graph with integer weights that may have isolated nodes, several components or no edges."""
    nodes = [f"v{i}" for i in range(n)]
    p = rng.choice([0.0, 0.15, 0.3, 0.6])
    pairs = [tuple(sorted(pair)) for pair in combinations(nodes, 2)]
    return nodes, {pair: rng.randint(1, max_weight) for pair in pairs if rng.random() < p}


def enum_betweenness(nodes, edges, weighted: bool) -> dict[str, Fraction]:
    """Exact betweenness by enumerating every simple path of every pair."""
    adj = build_adj(edges)
    bc = {v: Fraction(0) for v in nodes}

    def all_paths(s, t):
        found = []

        def dfs(v, visited, dist):
            if v == t:
                found.append((dist, tuple(visited)))
                return
            for u, w in adj.get(v, {}).items():
                if u not in visited:
                    step = Fraction(1, w) if weighted else Fraction(1)
                    dfs(u, visited + (u,), dist + step)

        dfs(s, (s,), Fraction(0))
        return found

    for s, t in combinations(nodes, 2):
        paths = all_paths(s, t)
        if not paths:
            continue
        dmin = min(d for d, _ in paths)
        shortest = [p for d, p in paths if d == dmin]
        sigma = len(shortest)
        for v in nodes:
            if v in (s, t):
                continue
            through = sum(1 for p in shortest if v in p)
            bc[v] += Fraction(through, sigma)
    return bc


def floyd_warshall_hops(nodes, edges):
    inf = float("inf")
    dist = {a: {b: inf for b in nodes} for a in nodes}
    for v in nodes:
        dist[v][v] = 0
    for a, b in edges:
        dist[a][b] = dist[b][a] = 1
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def efficiency_oracle(nodes, edges) -> Fraction:
    dist = floyd_warshall_hops(nodes, edges)
    total = Fraction(0)
    pairs = 0
    for s, t in combinations(nodes, 2):
        pairs += 1
        d = dist[s][t]
        if d != float("inf") and d > 0:
            total += Fraction(1, int(d))
    return total / pairs if pairs else Fraction(0)


def core_numbers_oracle(nodes, edges) -> dict[str, int]:
    """core(v) = largest k whose k-core (by repeated deletion) contains v."""
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    core = {v: 0 for v in nodes}
    k = 0
    while True:
        k += 1
        alive = set(nodes)
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if len(adj[v] & alive) < k:
                    alive.discard(v)
                    changed = True
        if not alive:
            break
        for v in alive:
            core[v] = k
    return core


def clustering_oracle(nodes, edges) -> dict[str, Fraction]:
    """Local clustering: the share of each node's neighbor pairs that are adjacent, 0 below two neighbors."""
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    coeff = {}
    for v in nodes:
        pairs = list(combinations(sorted(adj[v]), 2))
        triangles = sum(1 for x, y in pairs if y in adj[x])
        coeff[v] = Fraction(triangles, len(pairs)) if pairs else Fraction(0)
    return coeff


def modularity_oracle(nodes, edges, blocks) -> Fraction:
    """Q from the definition, in exact arithmetic (integer weights assumed)."""
    member = {v: i for i, blk in enumerate(blocks) for v in blk}
    m = Fraction(0)
    intra = [Fraction(0)] * len(blocks)
    deg = [Fraction(0)] * len(blocks)
    for (a, b), w in edges.items():
        wv = Fraction(int(w))
        m += wv
        deg[member[a]] += wv
        deg[member[b]] += wv
        if member[a] == member[b]:
            intra[member[a]] += wv
    if m == 0:
        return Fraction(0)
    return sum((e / m - (d / (2 * m)) ** 2 for e, d in zip(intra, deg)), Fraction(0))


def set_partitions(items):
    """All set partitions (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def best_partition_oracle(nodes, edges):
    """Globally optimal-modularity partition by exhaustive search (n <= 8)."""
    best_q = None
    best = None
    for part in set_partitions(sorted(nodes)):
        q = modularity_oracle(nodes, edges, part)
        if best_q is None or q > best_q:
            best_q, best = q, [sorted(b) for b in part]
    return best, best_q


def greedy_modularity_oracle(nodes, edges):
    """Greedy modularity merging in exact arithmetic (integer weights assumed).

    Starts from singletons. Every step recomputes the gain of every pair of
    communities, e_ab / m - d_a * d_b / (2 m^2), merges the pair with the
    largest gain (exact ties go to the smallest sorted union of members) and
    stops once the best gain is <= 0. Returns the blocks as sorted tuples,
    ordered by their smallest member.
    """
    m = sum((Fraction(int(w)) for w in edges.values()), Fraction(0))
    blocks = [(v,) for v in sorted(nodes)]
    while m > 0 and len(blocks) > 1:
        member = {v: i for i, blk in enumerate(blocks) for v in blk}
        deg = [Fraction(0)] * len(blocks)
        between = {}
        for (a, b), w in edges.items():
            i, j = sorted((member[a], member[b]))
            wv = Fraction(int(w))
            deg[i] += wv
            deg[j] += wv
            if i != j:
                between[i, j] = between.get((i, j), Fraction(0)) + wv
        gain, union, i, j = min(
            (-(between.get((i, j), Fraction(0)) / m - deg[i] * deg[j] / (2 * m * m)),
             tuple(sorted(blocks[i] + blocks[j])), i, j)
            for i, j in combinations(range(len(blocks)), 2)
        )
        if -gain <= 0:
            break
        blocks = sorted([blk for k, blk in enumerate(blocks) if k not in (i, j)] + [union])
    return blocks


def participation_series(records, country: str) -> dict[int, float]:
    """Per year, the share of all publications that are international and
    involve the country, counted record by record."""
    pubs: dict[int, int] = {}
    involved: dict[int, int] = {}
    for rec in records:
        pubs[rec.year] = pubs.get(rec.year, 0) + 1
        if len(rec.countries) >= 2 and country in rec.countries:
            involved[rec.year] = involved.get(rec.year, 0) + 1
    return {year: involved.get(year, 0) / pubs[year] for year in sorted(pubs)}


def dense_weighted_paths(network, sources, tolerance: float = 1e-12):
    """Co-minimal inverse-weight paths from a block of sources over [block, n, n] tensors.

    Returns (dist, sigma, preds, order): preds[b, v, u] marks u as the last
    step before v on a co-minimal path (lengths equal within `tolerance`,
    relative), and order[b] lists the nodes by distance, ties by index, as
    far as the farthest-reaching row reaches. sigma sums the predecessors'
    counts in that order, so a predecessor that finishes after its target
    adds nothing.
    """
    D = network.distance_csr
    dense = np.full((network.n, network.n), np.inf)
    dense[np.repeat(np.arange(network.n), network.degrees), D.indices] = D.data
    sources = np.asarray(sources)
    rows = np.arange(len(sources))
    dist = csgraph.dijkstra(D, indices=sources)
    through = dist[:, None, :] + dense  # [b, v, u]: dist(s, u) + d(u, v)
    # inf <= inf would make every unreachable pair a tie
    preds = np.isfinite(through) & (through <= dist[:, :, None] + tolerance * through)
    reach = int(np.isfinite(dist).sum(axis=1).max())
    order = np.argsort(dist, axis=1, kind="stable")[:, :reach]
    sigma = np.zeros_like(dist)
    sigma[rows, sources] = 1.0
    for v in order.T[1:]:
        sigma[rows, v] = np.where(preds[rows, v], sigma, 0.0).sum(axis=1)
    return dist, sigma, preds, order


def dense_weighted_betweenness(network, block: int = 16):
    """Raw weighted betweenness: Brandes' dependency pass over `dense_weighted_paths`,
    one node rank at a time, crediting every predecessor of each target."""
    n = network.n
    bc = np.zeros(n)
    for start in range(0, n, block):
        sources = np.arange(start, min(start + block, n))
        rows = np.arange(len(sources))
        _, sigma, preds, order = dense_weighted_paths(network, sources)
        safe_sigma = np.where(sigma == 0.0, 1.0, sigma)  # unreachable: no predecessors, finite coefficient
        delta = np.zeros_like(sigma)
        for w in order.T[:0:-1]:
            coeff = (1.0 + delta[rows, w]) / safe_sigma[rows, w]
            delta += np.where(preds[rows, w], sigma * coeff[:, None], 0.0)
        delta[rows, sources] = 0.0  # a source is never credited for its own paths
        for row in delta:  # one source at a time, so bc sums in source order
            bc += row
    return bc / 2.0


def summed_pairs(triples) -> dict[tuple[str, str], float]:
    """The edge dict of (a, b, weight) rows: each pair ordered, repeated pairs
    summed in input order, each kept where it was first seen."""
    edges: dict[tuple[str, str], float] = {}
    for a, b, w in triples:
        key = (a, b) if a < b else (b, a)
        edges[key] = edges.get(key, 0.0) + w
    return edges


def normalized_edges(edges, productivity, scheme: str) -> dict[tuple[str, str], float]:
    """Log, Salton or Jaccard weights of an edge dict, edge by edge."""
    if scheme == "log":
        return {pair: math.log(w + 1.0) for pair, w in edges.items()}
    out = {}
    for (a, b), w in edges.items():
        pa, pb = productivity[a], productivity[b]
        out[(a, b)] = w / (math.sqrt(pa * pb) if scheme == "salton" else pa + pb - w)
    return out
