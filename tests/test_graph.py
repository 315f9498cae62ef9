import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collabnet.errors import DataError
from collabnet.graph import CollabNetwork, NetworkSlice, normalize_weights, rolling_window
from collabnet.paths import weighted_paths
from collabnet.structure import communities
from conftest import make_net
from oracles import floyd_warshall_hops, normalized_edges, random_graph, summed_pairs


def edge_list(year, pairs, field="all"):
    return CollabNetwork.from_pairs(pairs, NetworkSlice(year, field))


class TestCollabNetwork:
    def test_rejects_self_loop(self):
        with pytest.raises(DataError, match="self-loop on A"):
            CollabNetwork(("A",), [[0, 0]], [1.0])
        with pytest.raises(DataError, match="self-loop on A"):
            edge_list(2001, [("A", "B", 1.0), ("A", "A", 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DataError):
            CollabNetwork(("A", "B"), [[0, 1]], [0.0])

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(DataError):
            CollabNetwork(("A", "B"), [[0, 1]], [w])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(DataError):
            CollabNetwork(("A",), [[0, 1]], [1.0])
        with pytest.raises(DataError):
            CollabNetwork(("A", "B"), [[-1, 1]], [1.0])

    @pytest.mark.parametrize("nodes, ends", [(("A", "B"), [[1, 0]]), (("B", "A"), [[0, 1]]), (("A", "A"), [[0, 1]])])
    def test_rejects_unordered_ends_or_nodes(self, nodes, ends):
        with pytest.raises(DataError):
            CollabNetwork(nodes, ends, [1.0])

    def test_rejects_repeated_pair(self):
        # built directly, its `edges` would hold 0.5 for B-C and its `adjacency` the sum 2.5
        with pytest.raises(DataError, match=r"^edge \(B, C\) is listed twice$"):
            CollabNetwork(("A", "B", "C"), [[1, 2], [0, 1], [1, 2]], [2.0, 1.0, 0.5])
        with pytest.raises(DataError, match=r"^edge \(A, B\) is listed twice$"):
            CollabNetwork.from_json({"nodes": ["A", "B"], "edges": [["A", "B", 1.0], ["B", "A", 2.0]]})

    @given(st.integers(0, 2**32 - 1))
    def test_names_the_first_repeated_pair_in_node_order(self, seed):
        rng = random.Random(seed)
        nodes, edges = random_graph(rng, rng.randint(2, 9))
        pairs = [(nodes.index(a), nodes.index(b)) for a, b in edges]
        if not pairs:
            return
        repeats = rng.sample(pairs, rng.randint(1, len(pairs)))
        ends = pairs + repeats
        rng.shuffle(ends)
        lo, hi = min(repeats)
        with pytest.raises(DataError, match=rf"^edge \({nodes[lo]}, {nodes[hi]}\) is listed twice$"):
            CollabNetwork(tuple(nodes), ends, [1.0] * len(ends))

    def test_rejects_ends_that_do_not_pair_the_weights(self):
        with pytest.raises(DataError, match=r"^\(2, 2\) edge ends for \(1,\) weights$"):
            CollabNetwork(("A", "B", "C"), [[0, 1], [1, 2]], [1.0])
        with pytest.raises(DataError, match=r"^\(2,\) edge ends for \(1,\) weights$"):  # flat, not pairs
            CollabNetwork(("A", "B"), [0, 1], [1.0])

    def test_empty_ends_are_no_edges(self):
        for ends in ([], np.zeros((0, 2), dtype=int)):
            net = CollabNetwork(("A",), ends, [])
            assert (net.n, net.m, net.ends.shape, net.edges) == (1, 0, (0, 2), {})
        with pytest.raises(DataError, match=r"^nodes must be sorted and distinct: 'B' before 'A'$"):
            CollabNetwork(("B", "A"), [], [])

    def test_is_immutable(self):
        net = make_net([("A", "B", 2), ("B", "C", 3)])
        with pytest.raises(ValueError):
            net.weight[0] = 5.0
        with pytest.raises(ValueError):
            net.ends[0, 1] = 2
        assert net.edges == {("A", "B"): 2.0, ("B", "C"): 3.0}

    def test_cnm_leaves_its_input_byte_equal(self):
        # CNM adds merged weights into its own copy of the weights
        rng = random.Random(5)
        for _ in range(20):
            nodes, edges = random_graph(rng, rng.randint(2, 12))
            net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
            before = net.weight.tobytes(), net.ends.tobytes()
            communities(net)
            assert (net.weight.tobytes(), net.ends.tobytes()) == before

    def test_json_round_trip(self):
        net = make_net([("US", "CN", 5), ("US", "GB", 2.5)], year=2010)
        back = CollabNetwork.from_json(net.to_json())
        assert back.nodes == net.nodes
        assert back.edges == net.edges
        assert back.slice == net.slice

    def test_components(self):
        net = make_net([("A", "B", 1), ("C", "D", 1)])
        comps = sorted(sorted(c) for c in net.connected_components())
        assert comps == [["A", "B"], ["C", "D"]]
        # isolated nodes, several components and graphs with no edges at all
        rng = random.Random(13)
        for _ in range(60):
            nodes, edges = random_graph(rng, rng.randint(1, 9))
            net = make_net([(a, b, w) for (a, b), w in edges.items()], nodes=nodes)
            hops = floyd_warshall_hops(nodes, edges)
            reach = {frozenset(t for t in nodes if hops[s][t] < math.inf) for s in nodes}
            # components come in the order of their first node
            assert net.connected_components() == sorted(map(set, reach), key=lambda c: net.index[min(c)])

    def test_csr_forms_agree(self):
        net = make_net([("A", "B", 2), ("B", "C", 0.5)], nodes=["A", "B", "C", "D"])
        assert net.adjacency.toarray().tolist() == [[0, 2, 0, 0], [2, 0, 0.5, 0], [0, 0.5, 0, 0], [0, 0, 0, 0]]
        assert net.pattern.toarray().tolist() == (net.adjacency.toarray() > 0).tolist()
        assert np.shares_memory(net.pattern.indices, net.adjacency.indices)
        assert net.degrees.tolist() == [1, 2, 1, 0]
        assert [net.neighbors(v) for v in net.nodes] == [["B"], ["A", "C"], ["B"], []]


class TestRollingWindow:
    def test_single_year_identity(self):
        el = edge_list(2019, [("A", "B", 2)])
        net = rolling_window([el])
        assert net.edges == {("A", "B"): 2.0}
        assert net.slice.year == 2019

    def test_single_year_sums_any_network(self):
        # a slice whose pairs name every node is its own sum; one with an isolated node is still summed
        stored = CollabNetwork(("A", "B", "C"), [[1, 2], [0, 1]], [2.0, 1.0], NetworkSlice(2019, "Physics", "log"))
        isolated = CollabNetwork(("A", "B", "C", "D"), [[1, 2], [0, 1]], [2.0, 1.0], NetworkSlice(2019, "Physics"))
        for net in (stored, isolated):
            out = rolling_window([net])
            assert list(out.edges.items()) == [(("B", "C"), 2.0), (("A", "B"), 1.0)]
            assert out.nodes == ("A", "B", "C")
            assert out.slice == NetworkSlice(2019, "Physics", "raw")

    def test_weights_summed_across_window(self):
        els = [
            edge_list(2019, [("A", "B", 2)]),
            edge_list(2020, [("A", "B", 3)]),
            edge_list(2021, [("A", "C", 1)]),
        ]
        net = rolling_window(els)
        assert net.edges[("A", "B")] == 5.0
        assert net.edges[("A", "C")] == 1.0
        assert net.slice.year == 2021

    def test_edge_outside_window_absent(self):
        els = [edge_list(y, [("A", "B", 1)]) for y in (2019, 2020, 2021)]
        net = rolling_window(els[1:])  # window 2020-2021
        assert net.edges[("A", "B")] == 2.0

    def test_nonconsecutive_years_error(self):
        with pytest.raises(DataError):
            rolling_window([edge_list(2019, [("A", "B", 1)]), edge_list(2021, [("A", "B", 1)])])

    def test_window_of_identical_years_scales_weights(self):
        base = [("A", "B", 2), ("B", "C", 7)]
        for k in (1, 2, 3):
            els = [edge_list(2000 + i, base) for i in range(k)]
            net = rolling_window(els)
            for a, b, w in base:
                assert net.edges[(a, b)] == k * w

    def test_too_many_years(self):
        with pytest.raises(DataError):
            rolling_window([edge_list(2000 + i, [("A", "B", 1)]) for i in range(4)])


class TestOrderedParity:
    """`from_pairs`, `rolling_window` and `normalize_weights` against the
    dict-built references, compared edge by edge in order and float for float."""

    WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.0, 3.0, 1e-3, 1e15)  # sums that depend on their order

    def rows(self, rng, k):
        return [(*rng.sample("ABCDEFG", 2), rng.choice(self.WEIGHTS)) for _ in range(k)]

    @staticmethod
    def assert_same(net, ref):
        assert list(net.edges.items()) == list(ref.items())
        assert net.nodes == tuple(sorted({c for pair in ref for c in pair}))

    def test_from_pairs(self):
        rng = random.Random(21)
        for _ in range(200):
            rows = self.rows(rng, rng.randint(0, 30))
            self.assert_same(edge_list(2001, rows), summed_pairs(rows))

    def test_rolling_window(self):
        rng = random.Random(22)
        for _ in range(200):
            annual = [edge_list(2001 + i, self.rows(rng, rng.randint(0, 15))) for i in range(rng.randint(1, 3))]
            ref = summed_pairs((a, b, w) for net in annual for (a, b), w in net.edges.items())
            self.assert_same(rolling_window(rng.sample(annual, len(annual))), ref)

    @pytest.mark.parametrize("scheme", ["log", "salton", "jaccard"])
    def test_normalize_weights(self, scheme):
        rng = random.Random(23)
        for _ in range(100):
            net = edge_list(2001, self.rows(rng, rng.randint(1, 20)))
            prod = {c: sum(w for pair, w in net.edges.items() if c in pair) + rng.choice((0.0, 0.3, 7.0)) for c in net.nodes}
            out = normalize_weights(net, prod, scheme)
            assert out.nodes == net.nodes
            assert list(out.edges.items()) == list(normalized_edges(net.edges, prod, scheme).items())

    def test_log_of_many_weights(self):
        # numpy's vectorised log differs from math.log in the last bit for about 1 weight in 10^4
        rng = random.Random(24)
        names = [f"N{i:03d}" for i in range(300)]
        net = edge_list(2001, [(a, b, rng.random() * 100) for i, a in enumerate(names) for b in names[i + 1:]])
        assert list(normalize_weights(net, None, "log").edges.items()) == list(normalized_edges(net.edges, None, "log").items())


class TestNormalizeWeights:
    def test_log_natural(self):
        net = make_net([("A", "B", 99)])
        out = normalize_weights(net, None, "log")
        assert out.edges[("A", "B")] == pytest.approx(math.log(100), abs=1e-12)
        assert out.slice.norm == "log"

    def test_salton(self):
        net = make_net([("A", "B", 10)])
        out = normalize_weights(net, {"A": 100, "B": 25}, "salton")
        assert out.edges[("A", "B")] == pytest.approx(0.2, abs=1e-12)

    def test_jaccard(self):
        net = make_net([("A", "B", 10)])
        out = normalize_weights(net, {"A": 100, "B": 25}, "jaccard")
        assert out.edges[("A", "B")] == pytest.approx(10 / 115, abs=1e-12)

    def test_raw_identity(self):
        net = make_net([("A", "B", 7)])
        assert normalize_weights(net, None, "raw").edges == net.edges

    def test_missing_productivity_error(self):
        net = make_net([("A", "B", 10)])
        with pytest.raises(DataError, match="B"):
            normalize_weights(net, {"A": 100}, "salton")

    def test_unknown_scheme(self):
        with pytest.raises(DataError):
            normalize_weights(make_net([("A", "B", 1)]), None, "zscore")

    @given(
        w=st.integers(min_value=1, max_value=10_000),
        extra_i=st.integers(min_value=0, max_value=10_000),
        extra_j=st.integers(min_value=0, max_value=10_000),
    )
    def test_jaccard_below_salton_and_unit_bounded(self, w, extra_i, extra_j):
        # productivity always covers the shared weight
        p_i, p_j = w + extra_i, w + extra_j
        net = make_net([("A", "B", w)])
        prod = {"A": p_i, "B": p_j}
        salton = normalize_weights(net, prod, "salton").edges[("A", "B")]
        jaccard = normalize_weights(net, prod, "jaccard").edges[("A", "B")]
        assert 0.0 < jaccard <= salton + 1e-15
        assert jaccard <= 1.0 + 1e-15
        assert salton <= 1.0 + 1e-15


class TestToDistance:
    """The inverse-weight distance transform, built once in CollabNetwork.distance_csr."""

    @staticmethod
    def distance(net, a, b):
        return net.distance_csr[net.index[a], net.index[b]]

    @pytest.mark.parametrize("w,d", [(100, 0.01), (1, 1.0), (2, 0.5)])
    def test_inverse_weight(self, w, d):
        net = make_net([("A", "B", w)])
        assert self.distance(net, "A", "B") == pytest.approx(d, abs=1e-15)
        assert self.distance(net, "B", "A") == self.distance(net, "A", "B")

    def test_strictly_antitone(self):
        weights = [1, 2, 5, 10, 100, 10_000]
        nets = [make_net([("A", "B", w)]) for w in weights]
        dists = [self.distance(n, "A", "B") for n in nets]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_non_edges_are_unreachable(self):
        net = make_net([("A", "B", 1)], nodes=["A", "B", "C"])
        D, a, c = net.distance_csr, net.index["A"], net.index["C"]
        assert c not in D.indices[D.indptr[a]:D.indptr[a + 1]]  # no A-C entry
        assert D.indptr[c] == D.indptr[c + 1]  # C's row stores no entry at all
        assert weighted_paths(net, [a])[0][0, c] == math.inf
