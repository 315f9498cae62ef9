import math
import random

import numpy as np
import pytest
from scipy.sparse import csgraph

from collabnet import paths
from collabnet.errors import DataError
from collabnet.paths import bridging_fraction, hop_levels, weighted_paths
from collabnet.pipeline import SliceAnalysis, bridge_value
from collabnet.synth import checkpoint_counts, generate_fitness, standard_run_config
from conftest import make_net
from oracles import random_connected_graph, random_graph


def detour_net():
    return make_net([("A", "B", 100), ("B", "C", 100), ("A", "C", 1), ("A", "D", 2)])


def hop_oracle(net):
    """scipy's breadth-first hop distances, 0 where unreachable (the diagonal is already 0)."""
    dist = csgraph.shortest_path(net.pattern, unweighted=True)
    dist[np.isinf(dist)] = 0.0
    return dist


class TestHopLevels:
    @pytest.mark.parametrize("block", [2, 3, 16])
    def test_hops_match_scipy_on_random_graphs(self, monkeypatch, block):
        # isolated nodes, several components and no edges, over one or several blocks
        monkeypatch.setattr(paths, "SOURCE_BLOCK", block)
        rng = random.Random(67)
        for _ in range(60):
            nodes, edges = random_graph(rng, rng.randint(1, 40))
            net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
            np.testing.assert_array_equal(hop_levels(net)[1], hop_oracle(net))

    def test_hops_match_scipy_on_standard_checkpoints(self):
        config = standard_run_config(1)
        traj = generate_fitness(config)
        for count in checkpoint_counts(config):
            net = traj.graph_at(count)
            np.testing.assert_array_equal(hop_levels(net)[1], hop_oracle(net))


WEIGHT_CLASSES = {
    "ties": lambda rng: rng.choice([1, 2, 4]),
    "counts": lambda rng: rng.randint(1, 29),
    # 1/3 + 1/6 = 1/2 and 1/4 + 1/12 = 1/3 are ties whose float sums miss the direct edge by an ulp
    "harmonic": lambda rng: rng.choice([2, 3, 4, 6, 12]),
    "degenerate": lambda rng: rng.choice([1, 1e13]),
    "uniform": lambda rng: rng.uniform(0.1, 10.0),
}


def weighted_random_net(rng, weight, n):
    """`random_graph` (isolated nodes, several components or no edges) with weights drawn by `weight`."""
    nodes, edges = random_graph(rng, n)
    return make_net([(a, b, weight(rng)) for a, b in edges], nodes=nodes)


def entries(net):
    """Every CSR entry of `distance_csr` as (tail, head) pairs."""
    D = net.distance_csr
    return set(zip(np.repeat(np.arange(net.n), net.degrees).tolist(), D.indices.tolist()))


class TestGeodesics:
    @pytest.mark.parametrize("weights", sorted(WEIGHT_CLASSES))
    def test_prune_keeps_every_entry_the_test_accepts(self, weights):
        # the reference runs the predecessor test on every entry from every source, one Dijkstra per source
        rng = random.Random(41)
        for _ in range(40):
            net = weighted_random_net(rng, WEIGHT_CLASSES[weights], rng.randint(2, 30))
            D = net.distance_csr
            tail = np.repeat(np.arange(net.n), net.degrees)
            accepted = set()
            for s in range(net.n):
                dist = csgraph.dijkstra(D, indices=s)
                through = dist[tail] + D.data
                ok = np.isfinite(through) & (through <= dist[D.indices] + paths.TIE_TOLERANCE * through)
                accepted |= set(zip(tail[ok].tolist(), D.indices[ok].tolist()))
            all_dist, (kept_tail, kept_head, kept_length) = net.geodesics
            kept = set(zip(kept_tail.tolist(), kept_head.tolist()))
            assert accepted <= kept <= entries(net)
            np.testing.assert_array_equal(all_dist, csgraph.dijkstra(D))
            np.testing.assert_array_equal(kept_length, D.toarray()[kept_tail, kept_head])

    def test_near_tie_within_tolerance_is_kept(self):
        # A-B is 5e-14 longer than A-C-B: outside float rounding, inside TIE_TOLERANCE, so both routes count
        net = make_net([("A", "B", 1.0 / (0.5 + 5e-14)), ("A", "C", 4), ("C", "B", 4)])
        assert len(net.geodesics[1][0]) == net.adjacency.nnz
        assert weighted_paths(net, [net.index["A"]])[1][0, net.index["B"]] == 2.0

    def test_unit_weights_keep_every_entry(self):
        net = weighted_random_net(random.Random(3), lambda rng: 1.0, 30)
        assert net.m and set(zip(*(a.tolist() for a in net.geodesics[1][:2]))) == entries(net)

    def test_detour_entry_is_dropped(self):
        # A-C (1/1) is far longer than A-B-C (1/100 + 1/100); every other entry is a shortest path
        net = detour_net()
        a, c = net.index["A"], net.index["C"]
        assert set(zip(*(x.tolist() for x in net.geodesics[1][:2]))) == entries(net) - {(a, c), (c, a)}

    def test_one_dijkstra_per_network(self, monkeypatch):
        calls = []

        def counting_dijkstra(*args, **kwargs):
            calls.append(kwargs.get("indices"))
            return dijkstra(*args, **kwargs)

        dijkstra = csgraph.dijkstra
        monkeypatch.setattr(csgraph, "dijkstra", counting_dijkstra)
        rng = random.Random(8)
        nodes, edges = random_connected_graph(rng, 12)
        net = make_net([(a, b, w) for (a, b), w in edges.items()])
        analysis = SliceAnalysis(net)
        for country in nodes[:3]:
            analysis.bcw[country]
        for source, via in ((nodes[0], nodes[1]), (nodes[2], nodes[0])):
            for mode in ("any", "sigma"):
                bridge_value(net, source, via, mode)
        assert calls == [None]


class TestShortestPathInfo:
    def test_worked_distances(self):
        net = detour_net()
        dist, sigma, _ = weighted_paths(net, [net.index["D"]])
        assert dist[0, net.index["A"]] == pytest.approx(0.5, abs=1e-12)
        assert dist[0, net.index["B"]] == pytest.approx(0.51, abs=1e-12)
        assert dist[0, net.index["C"]] == pytest.approx(0.52, abs=1e-12)
        assert sigma[0, net.index["C"]] == 1.0

    def test_unreachable_is_infinite(self):
        net = make_net([("A", "B", 1)], nodes=["C"])
        dist, _, _ = weighted_paths(net, [net.index["A"]])
        assert math.isinf(dist[0, net.index["C"]])

    def test_counts_comimal_paths(self):
        # two equal-cost routes A-B-D and A-C-D
        net = make_net([("A", "B", 2), ("B", "D", 2), ("A", "C", 2), ("C", "D", 2)])
        _, sigma, _ = weighted_paths(net, [net.index["A"]])
        assert sigma[0, net.index["D"]] == 2.0


class TestBridgingFraction:
    def test_detour_fixture_full_bridging(self):
        rep = bridging_fraction(detour_net(), "D", "A")
        assert rep.fraction == 1.0
        assert rep.target_count == 2

    def test_star_leaf_through_center(self):
        net = make_net([("S", "A", 1), ("S", "B", 1), ("S", "C", 1)])
        rep = bridging_fraction(net, "A", "S")
        assert rep.fraction == 1.0

    def test_complete_uniform_no_bridging(self):
        net = make_net([(a, b, 5) for a in "ABCDE" for b in "ABCDE" if a < b])
        rep = bridging_fraction(net, "A", "B")
        assert rep.fraction == 0.0

    def test_source_equals_intermediary(self):
        with pytest.raises(DataError):
            bridging_fraction(detour_net(), "A", "A")

    def test_unknown_country(self):
        with pytest.raises(DataError):
            bridging_fraction(detour_net(), "D", "ZZ")

    def test_unreachable_targets_not_bridged(self):
        net = make_net([("A", "B", 1), ("B", "C", 1)], nodes=["X"])
        rep = bridging_fraction(net, "A", "B")
        # targets C (bridged) and X (unreachable)
        assert rep.fraction == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = random.Random(5)
        nodes, edges = random_connected_graph(rng, 7)
        base = make_net([(a, b, w) for (a, b), w in edges.items()])
        scaled = make_net([(a, b, w * 1000.0) for (a, b), w in edges.items()])
        src, via = nodes[0], nodes[1]
        assert bridging_fraction(base, src, via).fraction == pytest.approx(
            bridging_fraction(scaled, src, via).fraction, abs=1e-12
        )

    def test_direct_strong_edge_unbridges_target(self):
        # B bridges A -> C until a strong direct A-C edge appears
        before = make_net([("A", "B", 10), ("B", "C", 10), ("A", "C", 1)])
        assert bridging_fraction(before, "A", "B").fraction == 1.0
        after = make_net([("A", "B", 10), ("B", "C", 10), ("A", "C", 50)])
        # direct distance 1/50 = 0.02 < 0.1 + 0.1
        assert bridging_fraction(after, "A", "B").fraction == 0.0

    def test_hop_agreement_on_uniform_weights(self):
        # with equal weights, bridging = interior membership under hop counts,
        # checked against exhaustive shortest-path enumeration
        rng = random.Random(13)
        for _ in range(10):
            nodes, edges = random_connected_graph(rng, 6)
            uniform = {pair: 3 for pair in edges}
            net = make_net([(a, b, w) for (a, b), w in uniform.items()])
            src, via = nodes[0], nodes[1]
            rep = bridging_fraction(net, src, via)
            # recompute by enumeration: share of targets with via interior
            from oracles import build_adj

            adj = build_adj(uniform)
            bridged = 0
            targets = [t for t in nodes if t not in (src, via)]
            for t in targets:
                paths = []

                def dfs(v, visited, d):
                    if v == t:
                        paths.append((d, tuple(visited)))
                        return
                    for u in adj.get(v, {}):
                        if u not in visited:
                            dfs(u, visited + (u,), d + 1)

                dfs(src, (src,), 0)
                if not paths:
                    continue
                dmin = min(d for d, _ in paths)
                if any(via in p[1:-1] for d, p in paths if d == dmin):
                    bridged += 1
            assert rep.fraction == pytest.approx(bridged / len(targets), abs=1e-12)

    def test_sigma_mode_between_zero_and_any(self):
        net = make_net([("A", "B", 2), ("B", "D", 2), ("A", "C", 2), ("C", "D", 2)])
        any_mode = bridging_fraction(net, "A", "B").fraction
        sigma_mode = bridging_fraction(net, "A", "B", mode="sigma").fraction
        # targets C (direct, not bridged) and D (two co-minimal paths, one through B)
        assert any_mode == pytest.approx(0.5)
        assert sigma_mode == pytest.approx(0.25)


class TestBridgingSeries:
    """`bridge_value`, the one bridge cell of `series --bridge` and `bridge`, year by year."""

    def test_missing_country_year_marked_missing(self):
        y1 = make_net([("A", "B", 1), ("B", "C", 1)])
        y2 = make_net([("A", "C", 1), ("C", "D", 1)])  # B absent
        assert bridge_value(y1, "A", "B") == 1.0
        assert bridge_value(y2, "A", "B") is None
        assert bridge_value(make_net([("A", "B", 1)]), "A", "B") is None  # fewer than 3 nodes

    def test_static_network_constant_series(self):
        net = make_net([("A", "B", 1), ("B", "C", 1)])
        assert [bridge_value(net, "A", "B") for _ in (2001, 2002, 2003)] == [1.0, 1.0, 1.0]

    def test_new_direct_edge_decreases_fraction(self):
        # year 1: all of A's routes pass through H; year 2: direct A-C appears
        y1 = make_net([("A", "H", 10), ("H", "B", 10), ("H", "C", 10), ("B", "C", 10), ("C", "D", 10), ("B", "D", 10)])
        y2_edges = [("A", "H", 10), ("H", "B", 10), ("H", "C", 10), ("B", "C", 10), ("C", "D", 10), ("B", "D", 10), ("A", "C", 40)]
        y2 = make_net(y2_edges)
        assert bridge_value(y2, "A", "H") < bridge_value(y1, "A", "H")
