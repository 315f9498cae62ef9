import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from collabnet import paths, structure
from collabnet.centrality import betweenness
from collabnet.errors import DataError
from collabnet.structure import (
    clustering,
    communities,
    ego_modularity,
    global_efficiency,
    k_core,
    modularity_score,
)
from collabnet.synth import generate_fitness, standard_run_config
from conftest import make_net
from oracles import (
    best_partition_oracle,
    clustering_oracle,
    core_numbers_oracle,
    efficiency_oracle,
    greedy_modularity_oracle,
    modularity_oracle,
    random_connected_graph,
    random_graph,
)


def triangle():
    return make_net([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])


def two_triangles_bridge():
    return make_net(
        [("A", "B", 1), ("B", "C", 1), ("A", "C", 1),
         ("D", "E", 1), ("E", "F", 1), ("D", "F", 1),
         ("C", "D", 1)]
    )


class TestKCore:
    def test_triangle(self):
        part = k_core(triangle())
        assert (part.max_k, part.kcore_nodes, part.kcore_ratio) == (2, 3, 1.0)

    def test_triangle_with_pendant(self):
        net = make_net([("A", "B", 1), ("B", "C", 1), ("A", "C", 1), ("C", "D", 1)])
        part = k_core(net)
        assert (part.max_k, part.kcore_nodes, part.kcore_ratio) == (2, 3, 0.75)
        assert part.core_number == {"A": 2, "B": 2, "C": 2, "D": 1}

    def test_complete_k5(self):
        net = make_net([(a, b, 1) for a in "ABCDE" for b in "ABCDE" if a < b])
        assert k_core(net).max_k == 4

    def test_matches_deletion_oracle(self):
        rng = random.Random(41)
        for _ in range(20):
            nodes, edges = random_connected_graph(rng, rng.randint(3, 8))
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            assert k_core(net).core_number == core_numbers_oracle(nodes, edges)
        # isolated nodes, several components and graphs with no edges at all
        for _ in range(60):
            nodes, edges = random_graph(rng, rng.randint(1, 9))
            net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
            assert k_core(net).core_number == core_numbers_oracle(nodes, edges)

    def test_core_nestedness(self):
        rng = random.Random(43)
        nodes, edges = random_connected_graph(rng, 8)
        net = make_net([(a, b, w) for (a, b), w in edges.items()])
        core = k_core(net).core_number
        # membership in the (k+1)-core implies membership in the k-core
        for k in range(1, max(core.values()) + 1):
            upper = {v for v, c in core.items() if c >= k + 1}
            lower = {v for v, c in core.items() if c >= k}
            assert upper <= lower

    def test_edge_monotonicity(self):
        rng = random.Random(47)
        for _ in range(10):
            nodes, edges = random_connected_graph(rng, 6)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            before = k_core(net)
            missing = [
                (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]
                if (min(a, b), max(a, b)) not in edges and a != b
            ]
            if not missing:
                continue
            a, b = missing[0]
            bigger = make_net([(x, y, w) for (x, y), w in edges.items()] + [(a, b, 1)])
            after = k_core(bigger)
            assert after.max_k >= before.max_k
            for v in nodes:
                assert after.core_number[v] >= before.core_number[v]
            assert global_efficiency(bigger) >= global_efficiency(net) - 1e-12

    def test_max_core_subgraph(self):
        net = make_net([("A", "B", 1), ("B", "C", 1), ("A", "C", 1), ("C", "D", 1)])
        sub = net.subgraph(k_core(net).max_core)  # as `metrics --metric kcore_bc` builds it
        assert set(sub.nodes) == {"A", "B", "C"}
        assert len(sub.edges) == 3


class TestClustering:
    def test_triangle_fully_clustered(self):
        res = clustering(triangle())
        assert all(v == 1.0 for v in res.per_node.values())
        assert res.average == 1.0

    def test_star_no_triangles(self):
        net = make_net([("S", "A", 1), ("S", "B", 1), ("S", "C", 1)])
        res = clustering(net)
        assert all(v == 0.0 for v in res.per_node.values())

    def test_k4_minus_edge(self):
        net = make_net([("A", "C", 1), ("A", "D", 1), ("B", "C", 1), ("B", "D", 1), ("C", "D", 1)])
        res = clustering(net)
        assert res.per_node["A"] == pytest.approx(1.0)
        assert res.per_node["B"] == pytest.approx(1.0)
        assert res.per_node["C"] == pytest.approx(2 / 3)
        assert res.per_node["D"] == pytest.approx(2 / 3)
        assert res.average == pytest.approx(5 / 6)

    def test_matches_triangle_oracle(self):
        rng = random.Random(59)
        graphs = [random_connected_graph(rng, rng.randint(3, 8)) for _ in range(20)]
        graphs += [random_graph(rng, rng.randint(1, 9)) for _ in range(60)]
        for nodes, edges in graphs:
            net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
            res = clustering(net)
            expected = clustering_oracle(nodes, edges)
            assert res.per_node == {v: float(c) for v, c in expected.items()}
            assert res.average == pytest.approx(float(sum(expected.values()) / len(nodes)))

    @pytest.mark.parametrize("n", [4 * paths.SOURCE_BLOCK + k for k in (-1, 0, 1)] + [8 * paths.SOURCE_BLOCK + 2])
    def test_matches_triangle_oracle_at_block_edges(self, n):
        # the hop pass's source blocks: one short of four full blocks, exactly four, one column over,
        # and a ninth block of two columns
        rng = random.Random(n)
        nodes = [f"v{i:03d}" for i in range(n)]
        edges = {pair: 1 for pair in combinations(nodes, 2) if rng.random() < 0.15}
        net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
        assert clustering(net).per_node == {v: float(c) for v, c in clustering_oracle(nodes, edges).items()}

    def test_matches_triangle_oracle_on_star_heavy_graph(self):
        # three hubs spanning every block, leaves linked in sparse rings: most wedges are open
        rng = random.Random(61)
        hubs, leaves = ["h0", "h1", "h2"], [f"l{i:03d}" for i in range(150)]
        edges = {(h, leaf): 1 for h in hubs for leaf in leaves if rng.random() < 0.8}
        edges.update({(a, b): 1 for a, b in zip(leaves, leaves[3:]) if rng.random() < 0.3})
        edges[("h0", "h1")] = 1
        nodes = hubs + leaves
        net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
        assert clustering(net).per_node == {v: float(c) for v, c in clustering_oracle(nodes, edges).items()}

    def test_memory_on_standard_final_graph(self):
        # 1,000 nodes, ~10.8k edges: the hop pass's blocks of columns, never the whole A @ A (about 16 MiB)
        net = generate_fitness(standard_run_config(1)).final_graph()
        tracemalloc.start()
        try:
            clustering(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"

    def test_average_in_unit_interval(self):
        rng = random.Random(53)
        for _ in range(10):
            _, edges = random_connected_graph(rng, 7)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            assert 0.0 <= clustering(net).average <= 1.0


class TestGlobalEfficiency:
    def test_complete_graph(self):
        net = make_net([(a, b, 1) for a in "ABCD" for b in "ABCD" if a < b])
        assert global_efficiency(net) == pytest.approx(1.0)

    def test_path_hand_value(self):
        net = make_net([("A", "B", 1), ("B", "C", 1)])
        assert global_efficiency(net) == pytest.approx((1 + 1 + 0.5) / 3)

    def test_two_isolated_nodes(self):
        net = make_net([], nodes=["A", "B"])
        assert global_efficiency(net) == 0.0

    def test_matches_floyd_warshall_oracle(self):
        rng = random.Random(59)
        for _ in range(20):
            nodes, edges = random_connected_graph(rng, rng.randint(2, 8))
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            assert global_efficiency(net) == float(efficiency_oracle(nodes, edges))  # correctly rounded

    @pytest.mark.parametrize("block", [2, 3])
    def test_matches_floyd_warshall_oracle_in_small_blocks(self, monkeypatch, block):
        # isolated nodes, several components and no edges, with the hop pass over several blocks
        monkeypatch.setattr(paths, "SOURCE_BLOCK", block)
        rng = random.Random(61)
        for _ in range(40):
            nodes, edges = random_graph(rng, rng.randint(2, 9))
            net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
            assert global_efficiency(net) == float(efficiency_oracle(nodes, edges))  # correctly rounded

    def test_memory_with_betweenness_on_standard_final_graph(self):
        # 1,000 nodes, ~10.8k edges: the hop pass keeps one block of levels and pair counts, no n x n hop matrix
        net = generate_fitness(standard_run_config(1)).final_graph()
        tracemalloc.start()
        try:
            betweenness(net)
            global_efficiency(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"

    def test_memory_with_node_betweenness_on_standard_final_graph(self):
        # a hole-closure checkpoint's hop work: one block's n x 16 hop columns at a time, never an n x n matrix
        net = generate_fitness(standard_run_config(1)).final_graph()
        tracemalloc.start()
        try:
            _, pairs, closed = paths.node_betweenness(net, net.nodes[int(np.argmax(net.degrees))])
            structure._hop_efficiency(pairs)
            structure._wedge_clustering(net, closed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"


class TestCommunities:
    def test_two_triangles_bridge(self):
        part = communities(two_triangles_bridge())
        assert part.blocks == [("A", "B", "C"), ("D", "E", "F")]
        assert part.q == pytest.approx(5 / 14, abs=1e-12)

    def test_matches_brute_force_on_fixture(self):
        net = two_triangles_bridge()
        edges = {k: int(v) for k, v in net.edges.items()}
        best, best_q = best_partition_oracle(net.nodes, edges)
        part = communities(net)
        assert sorted(map(list, part.blocks)) == sorted(best)
        assert part.q == pytest.approx(float(best_q), abs=1e-9)

    def test_complete_graph_single_block(self):
        net = make_net([(a, b, 1) for a in "ABCDE" for b in "ABCDE" if a < b])
        part = communities(net)
        assert len(part) == 1
        assert part.q == pytest.approx(0.0, abs=1e-12)

    def test_two_disjoint_edges(self):
        net = make_net([("A", "B", 1), ("C", "D", 1)])
        part = communities(net)
        assert part.blocks == [("A", "B"), ("C", "D")]
        assert part.q == pytest.approx(0.5, abs=1e-12)

    def test_never_beats_brute_force_but_close(self):
        rng = random.Random(61)
        for _ in range(8):
            nodes, edges = random_connected_graph(rng, rng.randint(3, 8))
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            part = communities(net)
            _, best_q = best_partition_oracle(nodes, edges)
            assert part.q <= float(best_q) + 1e-9

    def test_deterministic_under_rerun(self):
        rng = random.Random(67)
        nodes, edges = random_connected_graph(rng, 8)
        net = make_net([(a, b, w) for (a, b), w in edges.items()])
        p1 = communities(net)
        p2 = communities(net)
        assert p1.blocks == p2.blocks and p1.q == p2.q

    def test_matches_exact_greedy_oracle(self):
        # random graphs (isolated nodes allowed) with unit weights and small integer weights
        rng = random.Random(73)
        for trial in range(300):
            n = rng.randint(3, 14)
            density = rng.uniform(0.2, 0.6)
            nodes = [f"v{i}" for i in range(n)]
            edges = {
                (a, b): 1 if trial % 3 == 0 else rng.randint(1, 4)
                for i, a in enumerate(nodes) for b in nodes[i + 1:] if rng.random() < density
            }
            net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
            expected = greedy_modularity_oracle(nodes, edges)
            part = communities(net)
            assert part.blocks == expected, (trial, n, edges)
            assert part.q == pytest.approx(float(modularity_oracle(nodes, edges, expected)), abs=1e-12)

    def test_matches_exact_greedy_oracle_on_larger_graphs(self):
        # 25-50 nodes in 2-4 components plus isolated nodes: communities absorb many
        # partners, so relabelled and dead slots pile up in the per-community slot lists
        rng = random.Random(79)
        for trial in range(20):
            n = rng.randint(25, 50)
            nodes = [f"v{i:02d}" for i in range(n)]
            shuffled = rng.sample(nodes, n)
            cuts = sorted(rng.sample(range(3, n - 3), rng.randint(1, 3)))
            linked = shuffled[:n - rng.randint(0, 4)]  # the rest stay isolated
            edges = {}
            for part in (linked[i:j] for i, j in zip([0, *cuts], [*cuts, len(linked)])):
                density = rng.uniform(0.15, 0.5)
                for i, a in enumerate(part):
                    for b in part[i + 1:]:
                        if rng.random() < density:
                            edges[(a, b) if a < b else (b, a)] = rng.randint(1, 5)
            net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
            expected = greedy_modularity_oracle(nodes, edges)
            part = communities(net)
            assert part.blocks == expected, (trial, n)
            assert part.q == pytest.approx(float(modularity_oracle(nodes, edges, expected)), abs=1e-12)

    def test_near_tie_goes_to_smallest_union(self, monkeypatch):
        # after D+E and A+C merge, B's gains toward (A, C) and (D, E) are equal in
        # exact arithmetic; 1.1 + 2.2 and 0.1 + 0.2 round them ~7e-18 apart
        net = make_net([("A", "C", 3.3), ("A", "D", 1.1 + 2.2), ("B", "C", 0.3),
                        ("B", "D", 0.1 + 0.2), ("C", "E", 0.3), ("D", "E", 3.3)])
        assert communities(net).blocks == [("A", "B", "C"), ("D", "E")]
        monkeypatch.setattr(structure, "DQ_TIE_TOLERANCE", 0.0)
        assert communities(net).blocks == [("A", "C"), ("B", "D", "E")]

    def test_memory_on_standard_final_graph(self):
        # 1,000 nodes, ~10.8k edges: the merge state is a few arrays of one slot per edge
        net = generate_fitness(standard_run_config(1)).final_graph()
        tracemalloc.start()
        try:
            communities(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


class TestModularityScore:
    def test_single_block_zero(self):
        rng = random.Random(71)
        for _ in range(10):
            nodes, edges = random_connected_graph(rng, 6)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            assert modularity_score(net, [list(nodes)]) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangle_partition_value(self):
        net = two_triangles_bridge()
        q = modularity_score(net, [("A", "B", "C"), ("D", "E", "F")])
        assert q == pytest.approx(5 / 14, abs=1e-12)

    def test_singletons_nonpositive(self):
        rng = random.Random(73)
        for _ in range(10):
            nodes, edges = random_connected_graph(rng, 6)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            q = modularity_score(net, [[v] for v in nodes])
            assert q <= 1e-12

    def test_missing_node_rejected(self):
        net = triangle()
        with pytest.raises(DataError):
            modularity_score(net, [["A", "B"]])

    def test_matches_fraction_oracle(self):
        rng = random.Random(79)
        for _ in range(10):
            nodes, edges = random_connected_graph(rng, 7)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            blocks = [nodes[: len(nodes) // 2], nodes[len(nodes) // 2 :]]
            got = modularity_score(net, blocks)
            want = modularity_oracle(nodes, edges, blocks)
            assert got == pytest.approx(float(want), abs=1e-12)

    def test_q_range(self):
        rng = random.Random(83)
        for _ in range(10):
            nodes, edges = random_connected_graph(rng, 7)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            part = communities(net)
            assert -0.5 - 1e-9 <= part.q <= 1.0


class TestEgoModularity:
    def test_star_center_ego_is_whole_star(self):
        net = make_net([("S", "A", 1), ("S", "B", 1), ("S", "C", 1)])
        assert ego_modularity(net, "S") == pytest.approx(0.0, abs=1e-12)

    def test_complete_graph_ego(self):
        net = make_net([(a, b, 1) for a in "ABCDE" for b in "ABCDE" if a < b])
        assert ego_modularity(net, "A") == pytest.approx(0.0, abs=1e-12)

    def test_bridge_endpoint_ego_matches_brute_force(self):
        net = two_triangles_bridge()
        # ego of C: nodes {A, B, C, D}, edges AB, AC, BC, CD
        ego_nodes = ["A", "B", "C", "D"]
        ego_edges = {("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1, ("C", "D"): 1}
        _, best_q = best_partition_oracle(ego_nodes, ego_edges)
        got = ego_modularity(net, "C")
        assert got == pytest.approx(float(best_q), abs=1e-9)

    def test_unknown_country(self):
        with pytest.raises(DataError):
            ego_modularity(triangle(), "ZZ")
