"""Synthetic network laboratory: preferential attachment, fitness entrants,
and the hole-closure experiment.

Growth starts from a complete seed of m+1 nodes; each arriving node attaches
m edges to distinct existing nodes with probability proportional to
fitness x degree (classic preferential attachment when all fitness is
equal). A designated entrant can arrive mid-run with a fitness multiple of
the median, and a densification phase can add extra edges each step: open
triads closed through a broker (direct ties bypassing an intermediary) and
fitness-weighted shortcuts between random pairs.

Randomness comes from PCG64 generators seeded as SeedSequence((seed, phase))
with phase 0 for growth and phase 1 for densification, so toggling
densification or the entrant fitness never perturbs the growth draws of a
paired seed. Each draw table, the running sums of its weights with the
total as the last one, is built once per change of its weights, and both
ends of a densification edge come from one rng.random(2), the stream of two
scalar draws. The hole-closure checkpoints read the hub's betweenness, the
hop efficiency and the clustering from one `paths.node_betweenness` pass.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import paths, structure
from .centrality import bc_pairs
from .errors import DataError
from .graph import CollabNetwork, NetworkSlice
from .ingest import ALL_FIELDS, CorpusStore, CountryYearStats
from .pipeline import SliceAnalysis

FITNESS_LAWS = ("constant", "uniform", "entrant")
REJECTION_CAP = 32  # repeated targets in a row before an arrival's draw excludes its chosen ones
DENSIFY_ATTEMPTS = 30  # draws per densification edge before it is given up


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_final: int
    m: int = 3
    fitness_law: str = "constant"
    eta: float = 1.0
    entrant_arrival: int | None = None
    checkpoint_stride: int = 50
    # densification intensities are edges per growth step expressed as a
    # fraction of the current node count, so hole closure accelerates as the
    # network matures; fractional remainders carry over deterministically
    densify_closure: float = 0.0
    densify_random: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise DataError(f"m must be >= 1, got {self.m}")
        if self.n_final <= self.m + 1:
            raise DataError(f"n_final must exceed m+1={self.m + 1}, got {self.n_final}")
        if not 0 < self.eta < np.inf:
            raise DataError(f"eta must be positive and finite, got {self.eta}")
        if self.fitness_law not in FITNESS_LAWS:
            raise DataError(f"unknown fitness law {self.fitness_law!r}")
        if self.fitness_law == "entrant" and self.entrant_arrival is None:
            raise DataError("entrant fitness law needs entrant_arrival")
        if self.entrant_arrival is not None and not (self.m + 1 <= self.entrant_arrival < self.n_final):
            raise DataError(f"entrant_arrival {self.entrant_arrival} outside ({self.m + 1}, {self.n_final})")
        if self.checkpoint_stride < 1:
            raise DataError("checkpoint_stride must be >= 1")
        if not (0 <= self.densify_closure < np.inf and 0 <= self.densify_random < np.inf):
            raise DataError("densification rates must be finite and non-negative")


def _node_name(i: int) -> str:
    return f"N{i:05d}"


@dataclass
class SynthTrajectory:
    """Edge-creation log: each entry is (node count when added, endpoint ids).

    densify_dropped counts the densification edges given up after
    DENSIFY_ATTEMPTS draws found no new pair. `graph_at` reads the log as
    one integer array, converted on its first call, once growth has ended.
    """

    config: SynthConfig
    events: list[tuple[int, int, int]] = field(default_factory=list)
    entrant: int | None = None
    densify_dropped: int = 0

    def graph_at(self, count: int) -> CollabNetwork:
        if not (self.config.m + 1 <= count <= self.config.n_final):
            raise DataError(f"count {count} outside trajectory range")
        names = [_node_name(i) for i in range(count)]
        rank = np.argsort(sorted(range(count), key=names.__getitem__))  # node id -> place among the sorted names
        events = self._event_array
        ends = np.sort(rank[events[:np.searchsorted(events[:, 0], count, side="right"), 1:]], axis=1)
        return CollabNetwork(tuple(sorted(names)), ends, np.ones(len(ends)), NetworkSlice(None, "synth", "raw"))

    @cached_property
    def _event_array(self) -> np.ndarray:
        return np.array(self.events, dtype=np.intp).reshape(-1, 3)

    def final_graph(self) -> CollabNetwork:
        return self.graph_at(self.config.n_final)


def _running_sums(weights: np.ndarray) -> tuple[float, np.ndarray]:
    """What _weighted_pick draws from: the weights' total, read as their last running sum, and the running sums."""
    cum = weights.cumsum()
    return cum[-1], cum


def _weighted_pick(rng: np.random.Generator, sums: tuple[float, np.ndarray]) -> int:
    total, cum = sums
    if total <= 0:
        return int(rng.integers(0, len(cum)))
    return int(cum.searchsorted(rng.random() * total, side="right"))


def _weighted_pair(rng: np.random.Generator, sums: tuple[float, np.ndarray]) -> tuple[int, int]:
    """Two successive _weighted_picks, from one rng.random(2): the same stream as two scalar draws."""
    total, cum = sums
    if total <= 0:
        return _weighted_pick(rng, sums), _weighted_pick(rng, sums)
    u, v = cum.searchsorted(rng.random(2) * total, side="right").tolist()
    return u, v


def _pick_excluding(rng: np.random.Generator, weights: np.ndarray, chosen: list[int]) -> int:
    """The capped draw: in proportion to weights, with the chosen indices zeroed."""
    rest = weights.copy()
    rest[chosen] = 0.0
    return _weighted_pick(rng, _running_sums(rest))


def _grow(config: SynthConfig) -> SynthTrajectory:
    rng_grow = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 0))))
    rng_dense = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 1))))

    m = config.m
    n0 = m + 1
    traj = SynthTrajectory(config)
    fitness = np.ones(config.n_final)
    if config.fitness_law == "uniform":
        fitness[:n0] = rng_grow.random(n0)
    weight = np.zeros(config.n_final)  # fitness x degree, the attachment weight
    adj: list[set[int]] = [set() for _ in range(config.n_final)]
    tables: dict[int, tuple] = {}  # broker -> its sorted neighbours and their fitness running sums

    def add_edge(count: int, i: int, j: int) -> None:
        key = (i, j) if i < j else (j, i)
        adj[i].add(j)
        adj[j].add(i)
        tables.pop(i, None)
        tables.pop(j, None)
        weight[i] = fitness[i] * len(adj[i])
        weight[j] = fitness[j] * len(adj[j])
        traj.events.append((count, key[0], key[1]))

    for i in range(n0):
        for j in range(i + 1, n0):
            add_edge(n0, i, j)

    arrival = config.entrant_arrival
    closure_carry = 0.0
    shortcut_carry = 0.0
    span = (config.n_final - arrival) if arrival is not None else 1
    for v in range(n0, config.n_final):
        if config.fitness_law == "uniform":
            fitness[v] = rng_grow.random()
        if arrival is not None and v == arrival and config.fitness_law == "entrant":
            traj.entrant = v
            fitness[v] = config.eta * statistics.median(fitness[:v])
        # the arrival's own edges change only chosen weights, which the capped draw zeroes
        weights = weight[:v]
        sums = _running_sums(weights)
        count = v + 1
        chosen: list[int] = []
        rejected = 0
        while len(chosen) < m:
            if rejected < REJECTION_CAP:
                t = _weighted_pick(rng_grow, sums)
            else:
                t = _pick_excluding(rng_grow, weights, chosen)
            if t in chosen:
                rejected += 1
            else:
                chosen.append(t)
                rejected = 0
                add_edge(count, v, t)

        if arrival is not None and v >= arrival:
            # closure accelerates as the run matures (unit-mean linear ramp),
            # shortcuts stay proportional to current size
            progress = (v - arrival) / span if span > 0 else 0.0
            closure_carry += config.densify_closure * count * (0.4 + 1.2 * progress)
            shortcut_carry += config.densify_random * count
            n_closure, closure_carry = int(closure_carry), closure_carry - int(closure_carry)
            n_shortcut, shortcut_carry = int(shortcut_carry), shortcut_carry - int(shortcut_carry)
            missing = count * (count - 1) // 2 - len(traj.events)  # node pairs not yet linked
            traj.densify_dropped += _densify_step(rng_dense, fitness, weight, adj, tables, count, add_edge,
                                                  n_closure, n_shortcut, missing)

    return traj


def _densify_step(rng, fitness, weight, adj, tables, count, add_edge, n_closure, n_shortcut, missing) -> int:
    """Add n_closure closure and n_shortcut shortcut edges; returns how many were given up.

    Each kind asks for at most the `missing` node pairs still unlinked; the
    rest are given up without a draw, so no rate can outgrow the graph.
    Draw tables are built once per change of their weights: the brokers'
    after each added edge, a broker's neighbour table (kept in `tables`,
    which add_edge clears for both ends) after the broker gains an edge.
    """
    dropped = max(n_closure - missing, 0)
    brokers = None
    for _ in range(min(n_closure, missing)):
        # close an open triad: pick a broker by fitness-weighted degree, then
        # two of its neighbors by fitness, and connect them directly
        if brokers is None:
            brokers = _running_sums(weight[:count])  # only an added edge changes the weights
        for _attempt in range(DENSIFY_ATTEMPTS):
            broker = _weighted_pick(rng, brokers)
            if len(adj[broker]) < 2:
                continue
            if broker not in tables:
                nbrs = sorted(adj[broker])
                tables[broker] = nbrs, _running_sums(fitness[nbrs])
            nbrs, w = tables[broker]
            u, v = _weighted_pair(rng, w)
            u, v = nbrs[u], nbrs[v]
            if u == v or v in adj[u]:
                continue
            add_edge(count, u, v)
            brokers = None
            break
        else:
            dropped += 1
    missing -= n_closure - dropped  # the closures added
    dropped += max(n_shortcut - missing, 0)
    ends = _running_sums(fitness[:count])  # fitness is fixed within a step
    for _ in range(min(n_shortcut, missing)):
        for _attempt in range(DENSIFY_ATTEMPTS):
            u, v = _weighted_pair(rng, ends)
            if u == v or v in adj[u]:
                continue
            add_edge(count, u, v)
            break
        else:
            dropped += 1
    return dropped


def generate_fitness(config: SynthConfig) -> SynthTrajectory:
    """Fitness-model growth: attachment probability proportional to fitness x degree
    (classic preferential attachment under the constant fitness law)."""
    return _grow(config)


@dataclass
class Checkpoint:
    node_count: int
    hub_bc_norm: float
    avg_clustering: float
    global_efficiency: float
    max_k: int
    communities: int


@dataclass
class SynthRun:
    config: SynthConfig
    hub: str
    checkpoints: list[Checkpoint]
    densify_dropped: int  # printed by `synth`, left out of the hashed JSON

    def to_json(self) -> str:
        payload = {
            "config": asdict(self.config),
            "attachment_kernel": "fitness*degree",
            "rng": "pcg64/seedseq(seed,phase)",
            "hub": self.hub,
            "checkpoints": [asdict(c) for c in self.checkpoints],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def checkpoint_counts(config: SynthConfig) -> list[int]:
    start = config.entrant_arrival if config.entrant_arrival is not None else config.m + 1
    counts = list(range(start, config.n_final + 1, config.checkpoint_stride))
    if counts[-1] != config.n_final:
        counts.append(config.n_final)
    return counts


def hole_closure_experiment(config: SynthConfig) -> SynthRun:
    """Grow a hub-centered network, inject a high-fitness entrant, densify,
    and record the incumbent hub's structural standing at each checkpoint."""
    if config.entrant_arrival is None:
        raise DataError("hole-closure experiment needs entrant_arrival")
    traj = _grow(config)

    checkpoints = []
    for count in checkpoint_counts(config):
        net = traj.graph_at(count)
        if not checkpoints:  # the first checkpoint is the entrant's arrival; ties go to the oldest node
            hub = net.nodes[int(np.argmax(net.degrees))]
        a = SliceAnalysis(net)
        hub_bc, pairs, closed = paths.node_betweenness(net, hub)  # the hub's value alone needs no backward pass
        cp = Checkpoint(
            node_count=count,
            communities=len(a.partition),
            hub_bc_norm=hub_bc / bc_pairs(net.n),
            global_efficiency=structure._hop_efficiency(pairs),
            avg_clustering=structure._wedge_clustering(net, closed).average,
            max_k=a.cores.max_k,
        )
        checkpoints.append(cp)
    return SynthRun(config, hub, checkpoints, traj.densify_dropped)


def standard_run_config(seed: int) -> SynthConfig:
    """The reference hole-closure setup: 200-node hub phase, eta=5 entrant,
    growth plus densification to 1000 nodes.

    Densification intensities were pinned from pilot seeds so that the run
    produces rising clustering and efficiency while the graph grows.
    """
    return SynthConfig(
        seed=seed,
        n_final=1000,
        m=3,
        fitness_law="entrant",
        eta=5.0,
        entrant_arrival=200,
        checkpoint_stride=100,
        densify_closure=0.010,
        densify_random=0.005,
    )


def export_corpus(traj: SynthTrajectory, out_dir: str | Path, years: int = 24) -> dict:
    """Write a synthetic trajectory as an ingestable corpus: one cumulative
    edge snapshot per year from 2001, with degree-based stand-in statistics."""
    if years < 1:
        raise DataError("need at least one year")
    lo = traj.config.m + 2
    hi = traj.config.n_final
    if years == 1:
        counts = [hi]
    else:
        counts = [int(round(lo + (hi - lo) * k / (years - 1))) for k in range(years)]

    def year_slice(year: int, count: int) -> tuple[CollabNetwork, dict[str, CountryYearStats]]:
        g = traj.graph_at(count)
        stats = {v: CountryYearStats(d, d) for v, d in zip(g.nodes, g.degrees.tolist())}
        return CollabNetwork(g.nodes, g.ends, g.weight, NetworkSlice(year, ALL_FIELDS)), stats

    manifest = {
        "fields": [ALL_FIELDS],
        "records": None,
        "skipped": 0,
        "stats_source": "synthetic degree approximation",
        "threshold": 0,
    }
    slices = (year_slice(2001 + k, count) for k, count in enumerate(counts))
    return CorpusStore(out_dir).write(slices, manifest)
