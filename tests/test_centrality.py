import math
import random
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from collabnet import centrality, paths
from collabnet.centrality import (
    betweenness,
    centralization,
    degree_centrality,
    eigenvector_centrality,
    normalize_bc,
)
from collabnet.errors import ConvergenceError, DataError
from collabnet.pipeline import SliceAnalysis
from collabnet.synth import checkpoint_counts, generate_fitness, standard_run_config
from conftest import arpack_fails, make_net
from oracles import dense_weighted_betweenness, dense_weighted_paths, enum_betweenness, random_connected_graph, random_graph


def path3():
    return make_net([("A", "B", 1), ("B", "C", 1)])


def star4():
    return make_net([("S", "A", 1), ("S", "B", 1), ("S", "C", 1)])


class TestBetweenness:
    def test_path_interior_vertex(self):
        bc = betweenness(path3())
        assert bc.scores == {"A": 0.0, "B": 1.0, "C": 0.0}

    def test_triangle_all_zero(self):
        net = make_net([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])
        assert all(v == 0.0 for v in betweenness(net).scores.values())

    def test_weighted_mediated_pair(self):
        # direct A-C edge is weak; the heavy A-B-C route wins
        net = make_net([("A", "B", 100), ("B", "C", 100), ("A", "C", 1)])
        bc = betweenness(net, weighted=True)
        assert bc.scores["B"] == pytest.approx(1.0, abs=1e-12)
        assert bc.scores["A"] == 0.0 and bc.scores["C"] == 0.0

    def test_unweighted_ignores_weights(self):
        net = make_net([("A", "B", 100), ("B", "C", 100), ("A", "C", 1)])
        assert all(v == 0.0 for v in betweenness(net, weighted=False).scores.values())

    def test_too_small_network(self):
        with pytest.raises(DataError):
            betweenness(make_net([], nodes=["A"]))

    def test_disconnected_pairs_contribute_zero(self):
        net = make_net([("A", "B", 1), ("B", "C", 1), ("D", "E", 1)])
        bc = betweenness(net)
        assert bc.scores["B"] == 1.0
        assert bc.scores["D"] == 0.0

    def test_weight_scale_invariance(self):
        rng = random.Random(17)
        nodes, edges = random_connected_graph(rng, 7)
        base = make_net([(a, b, w) for (a, b), w in edges.items()])
        for c in (0.001, 3.0, 1e6):
            scaled = make_net([(a, b, w * c) for (a, b), w in edges.items()])
            got = betweenness(scaled, weighted=True).scores
            want = betweenness(base, weighted=True).scores
            for node in got:
                assert got[node] == pytest.approx(want[node], abs=1e-9)

    def test_uniform_weight_reduces_to_topological(self):
        rng = random.Random(23)
        for trial in range(10):
            nodes, edges = random_connected_graph(rng, 6)
            net = make_net([(a, b, 4.0) for (a, b) in edges])
            w = betweenness(net, weighted=True).scores
            u = betweenness(net, weighted=False).scores
            for node in nodes:
                assert w[node] == pytest.approx(u[node], abs=1e-9)

    @staticmethod
    def two_component_graph(rng):
        """Two random connected graphs side by side, so some pairs are unreachable."""
        nodes, edges = random_connected_graph(rng, rng.randint(2, 5))
        more_nodes, more_edges = random_connected_graph(rng, rng.randint(2, 4))
        rename = {v: "w" + v[1:] for v in more_nodes}
        edges.update({tuple(sorted((rename[a], rename[b]))): w for (a, b), w in more_edges.items()})
        return nodes + [rename[v] for v in more_nodes], edges

    def test_matches_enumeration_oracle(self):
        rng = random.Random(99)
        for trial in range(40):
            if trial < 25:
                nodes, edges = random_connected_graph(rng, rng.randint(3, 7))
            else:
                nodes, edges = self.two_component_graph(rng)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            for weighted in (False, True):
                got = betweenness(net, weighted=weighted).scores
                want = enum_betweenness(nodes, edges, weighted)
                for node in nodes:
                    assert got[node] == pytest.approx(float(want[node]), abs=1e-9)

    def test_matches_enumeration_oracle_in_blocks_of_two(self, monkeypatch):
        # every oracle graph has at most 9 nodes, so blocks of 2 make both kernels accumulate over several
        monkeypatch.setattr(paths, "SOURCE_BLOCK", 2)
        self.test_matches_enumeration_oracle()


class TestWeightedKernel:
    """The sparse predecessor-DAG kernel against the dense [block, n, n] one it replaced."""

    @staticmethod
    def random_nets(seed, weight, count=40):
        rng = random.Random(seed)
        for _ in range(count):
            nodes, edges = random_graph(rng, rng.randint(2, 30))
            yield make_net([(a, b, weight(rng)) for a, b in edges], nodes=nodes)

    @staticmethod
    def assert_bytes_equal_to_dense_reference(net, block):
        np.testing.assert_array_equal(betweenness(net, weighted=True).array, dense_weighted_betweenness(net))
        sources = np.arange(min(block, net.n))
        dist, sigma, _ = paths.weighted_paths(net, sources)
        ref_dist, ref_sigma, _, _ = dense_weighted_paths(net, sources)
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(sigma, ref_sigma)

    @pytest.mark.parametrize("block", [1, 2, 3, 16])
    @pytest.mark.parametrize("weights", ["ties", "counts", "uniform"])
    def test_bytes_equal_to_dense_reference(self, monkeypatch, block, weights):
        # weights from {1, 2, 4} make exact ties; counts from 1 to 29 make float sums that nearly tie;
        # uniform reals leave most entries off every shortest path, so the prune drops them
        monkeypatch.setattr(paths, "SOURCE_BLOCK", block)
        weight = {
            "ties": lambda rng: rng.choice([1, 2, 4]),
            "counts": lambda rng: rng.randint(1, 29),
            "uniform": lambda rng: rng.uniform(0.1, 10.0),
        }[weights]
        for net in self.random_nets(block, weight):
            self.assert_bytes_equal_to_dense_reference(net, block)

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_disconnected_bytes_equal_to_dense_reference(self, monkeypatch, block):
        # two or three components side by side, so whole blocks of pairs are unreachable
        monkeypatch.setattr(paths, "SOURCE_BLOCK", block)
        rng = random.Random(100 + block)
        for _ in range(30):
            edges = []
            for part in range(rng.randint(2, 3)):
                _, part_edges = random_connected_graph(rng, rng.randint(2, 12))
                edges += [(f"{part}{a}", f"{part}{b}", rng.uniform(0.1, 10.0)) for a, b in part_edges]
            self.assert_bytes_equal_to_dense_reference(make_net(edges), block)

    def test_degenerate_edge_finishes_with_tree_betweenness(self):
        # d(B, C) = 1e-13 lies within the tie tolerance of every path through it, so B and C
        # would each count as the other's predecessor; the DAG keeps only B -> C from sources
        # nearer B (and C -> B from those nearer C), so this tree gets its exact betweenness:
        # B and C each separate 7 pairs. The dense kernel credited each with 12.
        net = make_net([("A", "B", 1), ("B", "C", 1e13), ("C", "D", 1), ("B", "E", 1), ("C", "F", 1)])
        start = time.perf_counter()
        bcw = betweenness(net, weighted=True).array
        assert time.perf_counter() - start < 1.0
        assert bcw.tolist() == [0.0, 7.0, 7.0, 0.0, 0.0, 0.0]
        assert dense_weighted_betweenness(net).tolist() == [0.0, 12.0, 12.0, 0.0, 0.0, 0.0]

    def test_degenerate_weights_make_bcw_depend_on_node_order(self):
        # swapping A with D and B with C maps this graph onto itself, so exact betweenness would give
        # each pair equal scores; the relative tie test is not transitive once B-C is 1e-13 long, and
        # Dijkstra's index tie-break then picks the predecessors. Pinned so a fix moves them on purpose.
        net = make_net([("A", "B", 1), ("B", "C", 1e13), ("C", "D", 1), ("A", "E", 1), ("E", "D", 1)])
        assert betweenness(net, weighted=True).scores == {"A": 1.25, "B": 2.0, "C": 1.75, "D": 0.75, "E": 0.5}
        assert len(net.geodesics[1][0]) == net.adjacency.nnz  # the prune keeps every entry here

    def test_degenerate_weights_keep_sigma_and_finish(self):
        for net in self.random_nets(5, lambda rng: rng.choice([1, 1e13])):
            sources = np.arange(net.n)
            np.testing.assert_array_equal(paths.weighted_paths(net, sources)[1], dense_weighted_paths(net, sources)[1])
            assert np.isfinite(betweenness(net, weighted=True).array).all()

    def test_memory_on_final_standard_graph(self):
        # the dense kernel peaked at 406 MiB traced here; unit weights make bcw topological BC
        config = standard_run_config(1)
        net = generate_fitness(config).graph_at(checkpoint_counts(config)[-1])
        net.distance_csr  # cached before tracing: the network's own form, not the kernel's
        tracemalloc.start()
        try:
            bcw = betweenness(net, weighted=True).array
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        np.testing.assert_allclose(bcw, betweenness(net).array, rtol=1e-12, atol=0.0)


class TestNormalizeBC:
    def test_star_center_is_one(self):
        vec = normalize_bc(betweenness(star4()), 4)
        assert vec.scores["S"] == pytest.approx(1.0)

    def test_path_forced_by_divisor(self):
        vec = normalize_bc(betweenness(path3()), 3)
        assert vec.scores["B"] == pytest.approx(1.0)

    def test_zero_vector_stays_zero(self):
        net = make_net([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])
        vec = normalize_bc(betweenness(net), 3)
        assert all(v == 0.0 for v in vec.scores.values())

    def test_small_n_rejected(self):
        with pytest.raises(DataError):
            normalize_bc(betweenness(path3()), 2)

    def test_scores_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(10):
            nodes, edges = random_connected_graph(rng, 7)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            vec = normalize_bc(betweenness(net), net.n)
            assert all(0.0 <= v <= 1.0 + 1e-12 for v in vec.scores.values())


class TestEigenvector:
    def test_complete_graph_symmetry(self):
        net = make_net([(a, b, 1) for a in "ABCD" for b in "ABCD" if a < b])
        vec = eigenvector_centrality(net)
        for v in vec.scores.values():
            assert v == pytest.approx(0.5, abs=1e-8)

    def test_star_closed_form(self):
        vec = eigenvector_centrality(star4())
        assert vec.scores["S"] == pytest.approx(1 / math.sqrt(2), abs=1e-5)
        for leaf in "ABC":
            assert vec.scores[leaf] == pytest.approx(1 / math.sqrt(6), abs=1e-5)
        assert vec.meta["eigenvalue"] == pytest.approx(math.sqrt(3), abs=1e-8)

    def test_two_nodes(self):
        vec = eigenvector_centrality(make_net([("A", "B", 1)]))
        assert vec.scores["A"] == pytest.approx(math.sqrt(0.5), abs=1e-8)

    def test_fixed_point_residual(self):
        rng = random.Random(7)
        nodes, edges = random_connected_graph(rng, 7)
        net = make_net([(a, b, w) for (a, b), w in edges.items()])
        vec = eigenvector_centrality(net)
        A = net.adjacency
        x = np.array([vec.scores[v] for v in net.nodes])
        lam = vec.meta["eigenvalue"]
        assert np.max(np.abs(A @ x - lam * x)) <= 1e-10
        assert np.all(x >= 0)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_eigensolver(self):
        rng = random.Random(31)
        nodes, edges = random_connected_graph(rng, 7)
        net = make_net([(a, b, w) for (a, b), w in edges.items()])
        vec = eigenvector_centrality(net)
        dense = net.adjacency.toarray()
        vals, vecs = np.linalg.eigh(dense)
        principal = np.abs(vecs[:, -1])
        for i, node in enumerate(net.nodes):
            assert vec.scores[node] == pytest.approx(principal[i], abs=1e-7)

    def test_relabeling_invariance(self):
        edges = [("A", "B", 3), ("B", "C", 1), ("A", "C", 2), ("C", "D", 5)]
        relabel = {"A": "W", "B": "X", "C": "Y", "D": "Z"}
        net1 = make_net(edges)
        net2 = make_net([(relabel[a], relabel[b], w) for a, b, w in edges])
        v1 = eigenvector_centrality(net1)
        v2 = eigenvector_centrality(net2)
        for old, new in relabel.items():
            assert v1.scores[old] == pytest.approx(v2.scores[new], abs=1e-9)

    def test_disconnected_warns_and_zeroes_minor_component(self):
        net = make_net([("A", "B", 1), ("B", "C", 1), ("D", "E", 1)])
        with pytest.warns(UserWarning, match="components"):
            vec = eigenvector_centrality(net)
        assert vec.scores["D"] == 0.0
        assert vec.scores["B"] > 0.0

    def test_long_path_does_not_converge(self, monkeypatch):
        # the shifted power iteration closes the spectral gap of a 180-node path too slowly and hands
        # over at step 900; with eigsh failing too, the error carries the power iteration's residual
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", arpack_fails)
        with pytest.raises(ConvergenceError, match="did not converge in 900 power iterations") as info:
            eigenvector_centrality(long_path())
        assert info.value.residual == pytest.approx(5.05e-5, rel=1e-2)

    @pytest.mark.parametrize("n", [180, 1000])
    def test_long_path_hands_over_early(self, n):
        # the residual's rate over the last stretch predicts a miss long before EV_MAX_ITERATIONS
        meta = eigenvector_centrality(long_path(n)).meta
        assert meta["solver"] == "eigsh" and meta["iterations"] < 2000

    def test_converging_iteration_never_hands_over(self):
        rng = random.Random(13)
        for _ in range(20):
            nodes, edges = random_connected_graph(rng, rng.randint(3, 30))
            meta = eigenvector_centrality(make_net([(a, b, w) for (a, b), w in edges.items()])).meta
            assert meta["solver"] == "power" and meta["iterations"] < centrality.EV_MAX_ITERATIONS

    def test_long_path_converges_through_eigsh(self):
        net = long_path()
        vec = eigenvector_centrality(net)
        A = net.adjacency
        x, lam = vec.array, vec.meta["eigenvalue"]
        assert np.max(np.abs(A @ x - lam * x)) <= 1e-10
        assert np.all(x > 0) and np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        vals, vecs = np.linalg.eigh(A.toarray())
        assert lam == pytest.approx(vals[-1], abs=1e-12)
        assert np.max(np.abs(x - np.abs(vecs[:, -1]))) <= 1e-12
        # the fallback starts from a fixed vector, so reruns are byte-identical
        assert eigenvector_centrality(long_path()).array.tobytes() == x.tobytes()

    @staticmethod
    def dense_window(scale):
        """A dense 40-country window with counts 1-29, every weight times `scale`."""
        rng = random.Random(100)
        nodes = [f"C{i:02d}" for i in range(40)]
        return make_net([(a, b, rng.randint(1, 29) * scale) for i, a in enumerate(nodes) for b in nodes[i + 1:]
                         if rng.random() < 0.7])

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_large_eigenvalue_converges(self, scale):
        # lambda is about 4e6 at scale 1e4: no answer's absolute residual reaches EV_TOLERANCE, so eigsh's is relative
        net = self.dense_window(scale)
        vec = eigenvector_centrality(net)
        vals, vecs = np.linalg.eigh(net.adjacency.toarray())
        assert vec.meta["solver"] == "eigsh"
        assert np.max(np.abs(vec.array - np.abs(vecs[:, -1]))) <= 1e-9
        assert vec.meta["eigenvalue"] == pytest.approx(vals[-1], rel=1e-12)

    def test_heavy_and_unit_weights_converge(self):
        # weights from {1, 1e13}; where the top two eigenvalues lie within a relative 1e-6 of each other,
        # the eigenvector is not determined to 1e-9 in double precision, so only its residual is checked
        rng = random.Random(0)
        compared = 0
        for _ in range(99):
            nodes, edges = random_connected_graph(rng, rng.randint(3, 40))
            net = make_net([(a, b, rng.choice([1.0, 1e13])) for a, b in edges])
            vec = eigenvector_centrality(net)
            x, lam = vec.array, vec.meta["eigenvalue"]
            assert np.max(np.abs(net.adjacency @ x - lam * x)) <= centrality.EV_TOLERANCE * lam
            vals, vecs = np.linalg.eigh(net.adjacency.toarray())
            if vals[-1] - vals[-2] >= 1e-6 * vals[-1]:
                assert np.max(np.abs(x - np.abs(vecs[:, -1]))) <= 1e-9
                compared += 1
        assert compared >= 90

    def test_eigsh_beyond_relative_tolerance_raises(self, monkeypatch):
        def eigsh_off(*args, **kwargs):
            vals, vecs = real_eigsh(*args, **kwargs)
            vecs[0] *= 1 + 1e-6
            return vals, vecs

        real_eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh_off)
        with pytest.raises(ConvergenceError, match="nor with eigsh"):
            eigenvector_centrality(self.dense_window(1e4))


def long_path(n=180):
    return make_net([(f"N{i:04d}", f"N{i + 1:04d}", 1) for i in range(n - 1)])


class TestDegreeCentrality:
    def test_star(self):
        vec = degree_centrality(star4())
        assert vec.scores["S"] == 1.0
        assert vec.scores["A"] == pytest.approx(1 / 3)

    def test_isolated_node(self):
        net = make_net([("A", "B", 1), ("B", "C", 1), ("C", "D", 1)], nodes=["E"])
        assert degree_centrality(net).scores["E"] == 0.0

    def test_complete_graph_saturates(self):
        net = make_net([(a, b, 1) for a in "ABCDEF" for b in "ABCDEF" if a < b])
        assert all(v == 1.0 for v in degree_centrality(net).scores.values())


def betweenness_centralization(net):
    """The `betw_centralization` metric and `metrics --metric centralization`."""
    return centralization(SliceAnalysis(net).bc)


class TestCentralization:
    def test_star_is_one(self):
        assert betweenness_centralization(star4()) == pytest.approx(1.0)

    def test_cycle_is_zero(self):
        net = make_net([("A", "B", 1), ("B", "C", 1), ("C", "D", 1), ("A", "D", 1)])
        assert betweenness_centralization(net) == pytest.approx(0.0)

    def test_path_hand_value(self):
        assert betweenness_centralization(path3()) == pytest.approx(1.0)

    def test_bounded_unit_interval(self):
        rng = random.Random(11)
        for _ in range(10):
            nodes, edges = random_connected_graph(rng, 7)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])
            c = betweenness_centralization(net)
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_small_network_rejected(self):
        with pytest.raises(DataError):
            betweenness_centralization(make_net([("A", "B", 1)]))
