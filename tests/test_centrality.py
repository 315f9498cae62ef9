import math
import random

import numpy as np
import pytest

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
from conftest import arpack_fails, make_net
from oracles import enum_betweenness, random_connected_graph


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
        # the shifted power iteration closes the spectral gap of a 180-node path too slowly;
        # with eigsh failing too, the error carries the power iteration's residual
        monkeypatch.setattr(centrality, "eigsh", arpack_fails)
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            eigenvector_centrality(long_path())
        assert info.value.residual == pytest.approx(2.73e-8, rel=1e-2)

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


def long_path(n=180):
    return make_net([(f"N{i:03d}", f"N{i + 1:03d}", 1) for i in range(n - 1)])


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
