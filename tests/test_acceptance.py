"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The dataset-dependent criterion 11 is skipped when the published
country-pair aggregates are not present (set COLLABNET_REFERENCE_DATA to a
pre-aggregated edge CSV to enable it).
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from collabnet.centrality import betweenness, eigenvector_centrality
from collabnet.graph import normalize_weights
from collabnet.paths import bridging_fraction, weighted_paths
from collabnet.pipeline import PipelineConfig, run_pipeline
from collabnet.structure import communities, global_efficiency, k_core, modularity_score
from collabnet.synth import hole_closure_experiment, standard_run_config
from collabnet.timeseries import bh_fdr, granger_test
from conftest import make_net
from oracles import (
    best_partition_oracle,
    efficiency_oracle,
    enum_betweenness,
    core_numbers_oracle,
    random_connected_graph,
)


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def detour_net():
    return make_net([("A", "B", 100), ("B", "C", 100), ("A", "C", 1), ("A", "D", 2)])


class TestCriterion1WeightedShortestPaths:
    def test_shortest_paths_and_bridging(self):
        start = time.perf_counter()
        net = detour_net()
        dist, _, _, _ = weighted_paths(net, [net.index["D"]])
        assert abs(dist[0, net.index["A"]] - 0.5) <= 1e-12
        assert abs(dist[0, net.index["B"]] - 0.51) <= 1e-12
        assert abs(dist[0, net.index["C"]] - 0.52) <= 1e-12
        rep = bridging_fraction(detour_net(), "D", "A")
        assert rep.fraction == 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(1, f"worked distances from D: 0.5/0.51/0.52 within 1e-12, bridging(D via A)=1.0 in {elapsed * 1000:.0f} ms")


class TestCriterion2WeightedBetweennessExample:
    def test_mediated_pair_counted(self):
        net = make_net([("A", "B", 100), ("B", "C", 100), ("A", "C", 1)])
        bc = betweenness(net, weighted=True)
        assert bc.scores["B"] == pytest.approx(1.0, abs=1e-12)
        report(2, "A->C routes through B under inverse-weight distances; raw weighted BC(B)=1")


class TestCriterion3OracleEquivalence:
    def test_hundred_random_graphs(self):
        start = time.perf_counter()
        rng = random.Random(424242)
        for trial in range(100):
            n = rng.randint(3, 7)
            nodes, edges = random_connected_graph(rng, n)
            net = make_net([(a, b, w) for (a, b), w in edges.items()])

            want_u = enum_betweenness(nodes, edges, weighted=False)
            got_u = betweenness(net, weighted=False).scores
            want_w = enum_betweenness(nodes, edges, weighted=True)
            got_w = betweenness(net, weighted=True).scores
            for v in nodes:
                assert got_u[v] == pytest.approx(float(want_u[v]), abs=1e-9)
                assert got_w[v] == pytest.approx(float(want_w[v]), abs=1e-9)

            assert global_efficiency(net) == pytest.approx(float(efficiency_oracle(nodes, edges)), abs=1e-9)

            assert k_core(net).core_number == core_numbers_oracle(nodes, edges)  # integers: exact

            blocks = [nodes[: n // 2], nodes[n // 2 :]]
            from oracles import modularity_oracle

            assert modularity_score(net, blocks) == pytest.approx(
                float(modularity_oracle(nodes, edges, blocks)), abs=1e-9
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report(3, f"100 random graphs: betweenness/efficiency/k-core/modularity match enumeration in {elapsed:.1f} s")


class TestCriterion4CommunityFixture:
    def test_two_triangles_bridge(self):
        net = make_net(
            [("A", "B", 1), ("B", "C", 1), ("A", "C", 1),
             ("D", "E", 1), ("E", "F", 1), ("D", "F", 1), ("C", "D", 1)]
        )
        part = communities(net)
        assert part.blocks == [("A", "B", "C"), ("D", "E", "F")]
        assert part.q == pytest.approx(5 / 14, abs=1e-9)
        best, best_q = best_partition_oracle(net.nodes, {k: int(v) for k, v in net.edges.items()})
        assert sorted(map(list, part.blocks)) == sorted(best)
        assert part.q == pytest.approx(float(best_q), abs=1e-9)
        report(4, "CNM finds the two triangles with Q = 5/14, matching the brute-force optimum")


class TestCriterion5EigenvectorFixture:
    def test_star(self):
        net = make_net([("S", "A", 1), ("S", "B", 1), ("S", "C", 1)])
        vec = eigenvector_centrality(net)
        assert vec.scores["S"] == pytest.approx(0.70711, abs=1e-5)
        for leaf in "ABC":
            assert vec.scores[leaf] == pytest.approx(0.40825, abs=1e-5)
        A = net.adjacency
        x = np.array([vec.scores[v] for v in net.nodes])
        residual = float(np.max(np.abs(A @ x - vec.meta["eigenvalue"] * x)))
        assert residual <= 1e-10
        report(5, f"star K1,3 eigenvector 0.70711/0.40825, fixed-point residual {residual:.2e}")


class TestCriterion6NormalizationFormulas:
    def test_hand_values_and_inequality(self):
        log_net = normalize_weights(make_net([("A", "B", 99)]), None, "log")
        assert log_net.edges[("A", "B")] == pytest.approx(math.log(100), abs=1e-9)
        prod = {"A": 100, "B": 25}
        salton = normalize_weights(make_net([("A", "B", 10)]), prod, "salton").edges[("A", "B")]
        jaccard = normalize_weights(make_net([("A", "B", 10)]), prod, "jaccard").edges[("A", "B")]
        assert salton == pytest.approx(0.2, abs=1e-9)
        assert jaccard == pytest.approx(10 / 115, abs=1e-9)

        rng = np.random.default_rng(606)
        for _ in range(1000):
            w = float(rng.integers(1, 1000))
            p_i = w + float(rng.integers(0, 1000))
            p_j = w + float(rng.integers(0, 1000))
            net = make_net([("A", "B", w)])
            s = normalize_weights(net, {"A": p_i, "B": p_j}, "salton").edges[("A", "B")]
            j = normalize_weights(net, {"A": p_i, "B": p_j}, "jaccard").edges[("A", "B")]
            assert j <= s + 1e-15
            assert 0.0 < j <= 1.0 and 0.0 < s <= 1.0
        report(6, "ln(100), 0.2, 10/115 reproduced to 1e-9; Jaccard <= Salton on 1000 random triples")


class TestCriterion7GrangerCalibration:
    def test_size_and_power(self):
        start = time.perf_counter()

        def ar1(rng, T, phi=0.5):
            x = np.zeros(T)
            e = rng.normal(size=T)
            for t in range(1, T):
                x[t] = phi * x[t - 1] + e[t]
            return x

        rng = np.random.default_rng(20260809)
        rejections = 0
        for _ in range(1000):
            x, y = ar1(rng, 24), ar1(rng, 24)
            rejections += granger_test(x, y, max_lag=1).pvalues[1] <= 0.05
        size = rejections / 1000
        assert 0.02 <= size <= 0.09

        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(500):
            x = rng.normal(size=100)
            y = np.concatenate([[0.0], 0.8 * x[:-1]]) + 0.1 * rng.normal(size=100)
            hits += granger_test(x, y, max_lag=1).pvalues[1] <= 0.05
        power = hits / 500
        assert power >= 0.95

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report(7, f"size {size:.3f} in [0.02, 0.09], power {power:.3f} >= 0.95 in {elapsed:.1f} s")


class TestCriterion8BhFdr:
    def test_fixtures_and_dominance(self):
        assert list(bh_fdr([0.005, 0.05])) == pytest.approx([0.01, 0.05], abs=0)
        assert list(bh_fdr([0.01, 0.02, 0.03, 0.04])) == pytest.approx([0.04] * 4, abs=0)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            p = rng.random(int(rng.integers(1, 50)))
            adj = bh_fdr(p)
            assert np.all(adj >= p - 1e-15)
            assert np.all(adj <= 1.0)
        report(8, "step-up fixtures match exactly; adjusted >= raw on 1000 random vectors")


class TestCriterion9HoleClosure:
    def test_twenty_seed_standard_run(self):
        start = time.perf_counter()
        runs = [hole_closure_experiment(standard_run_config(seed)) for seed in range(1, 21)]
        n_cp = len(runs[0].checkpoints)
        assert all(len(r.checkpoints) == n_cp for r in runs)

        mean_bc = [float(np.mean([r.checkpoints[k].hub_bc_norm for r in runs])) for k in range(n_cp)]
        mean_cl = [float(np.mean([r.checkpoints[k].avg_clustering for r in runs])) for k in range(n_cp)]
        mean_ef = [float(np.mean([r.checkpoints[k].global_efficiency for r in runs])) for k in range(n_cp)]

        fall = 1.0 - mean_bc[-1] / mean_bc[0]
        assert fall >= 0.50

        rho_cl = spearmanr(range(n_cp), mean_cl).statistic
        rho_ef = spearmanr(range(n_cp), mean_ef).statistic
        assert rho_cl > 0.8
        assert rho_ef > 0.8

        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        report(
            9,
            f"hub BC falls {fall:.0%} (>=50%), clustering rho={rho_cl:.2f}, "
            f"efficiency rho={rho_ef:.2f} (>0.8) over {n_cp} checkpoints in {elapsed:.0f} s",
        )


class TestCriterion10Determinism:
    def test_pipeline_and_simulation_reruns(self, tmp_path):
        pubs = tmp_path / "pubs.jsonl"
        rng = random.Random(10)
        codes = ["US", "GB", "CN", "DE", "FR", "JP"]
        rows = []
        for year in range(2001, 2009):
            for i in range(120):
                k = rng.choice([1, 2, 2, 3])
                rows.append(json.dumps({
                    "id": f"{year}-{i}", "year": year, "field": "all",
                    "countries": rng.sample(codes, k),
                }))
        pubs.write_text("\n".join(rows))
        from collabnet.ingest import ingest_publications

        ingest_publications(pubs, tmp_path / "c", threshold=0)
        outs = []
        for name in ("r1", "r2"):
            config = PipelineConfig(
                corpus=str(tmp_path / "c"), out=str(tmp_path / name), threshold=0,
                countries=("US", "CN"), bridges=(("CN", "US"),),
            )
            run_pipeline(config)
            outs.append(tmp_path / name)
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

        cfg = standard_run_config(3)
        small = type(cfg)(
            seed=3, n_final=150, m=3, fitness_law="entrant", eta=5.0,
            entrant_arrival=60, checkpoint_stride=45,
            densify_closure=cfg.densify_closure, densify_random=cfg.densify_random,
        )
        assert hole_closure_experiment(small).to_json() == hole_closure_experiment(small).to_json()
        report(10, f"pipeline reruns byte-identical across {len(files)} files; simulation JSON identical")


class TestCriterion11ReferenceDataDirectional:
    @pytest.mark.skipif(
        "COLLABNET_REFERENCE_DATA" not in os.environ,
        reason="published country-pair aggregates not available in this environment "
        "(optional criterion; set COLLABNET_REFERENCE_DATA to the pre-aggregated edge CSV)",
    )
    def test_us_decline_cn_rise(self, tmp_path):
        from collabnet.ingest import ingest_publications

        ingest_publications(os.environ["COLLABNET_REFERENCE_DATA"], tmp_path / "corpus", threshold=10)
        config = PipelineConfig(
            corpus=str(tmp_path / "corpus"), out=str(tmp_path / "out"),
            countries=("US", "CN"), threshold=10,
        )
        run_pipeline(config)
        from collabnet.pipeline import read_series_csv

        us = read_series_csv(tmp_path / "out" / "series" / "bc_US__all.csv")
        assert us.value_at(2003) == pytest.approx(0.17, abs=0.02)
        assert us.value_at(2024) == pytest.approx(0.035, abs=0.02)
        cn_w = read_series_csv(tmp_path / "out" / "series" / "bcw_CN__all.csv")
        assert cn_w.value_at(2024) >= 0.08
        report(11, "US normalized BC 0.17 -> 0.035 and CN weighted BC rise reproduced")
