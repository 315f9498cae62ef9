"""Independent brute-force oracles used to cross-check the fast kernels.

Everything here works from first principles on tiny graphs: exhaustive
path enumeration with exact rational arithmetic, Floyd-Warshall, k-cores
by repeated deletion, clustering by counting each node's closed neighbor
pairs, modularity maximization over all set partitions, a
naive greedy merge that recomputes every gain at every step, and
participation shares counted from the publication records.
None of it shares code with the package implementations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


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
