import hashlib
from dataclasses import replace

import numpy as np
import pytest

from collabnet import synth
from collabnet.errors import DataError
from collabnet.ingest import CorpusStore
from collabnet.synth import (
    SynthConfig,
    checkpoint_counts,
    export_corpus,
    generate_fitness,
    hole_closure_experiment,
    standard_run_config,
)


class TestConfigValidation:
    def test_bad_m(self):
        with pytest.raises(DataError):
            SynthConfig(seed=1, n_final=100, m=0)

    def test_n_final_too_small(self):
        with pytest.raises(DataError):
            SynthConfig(seed=1, n_final=3, m=3)

    def test_entrant_needs_arrival(self):
        with pytest.raises(DataError):
            SynthConfig(seed=1, n_final=100, fitness_law="entrant")

    def test_arrival_in_range(self):
        with pytest.raises(DataError):
            SynthConfig(seed=1, n_final=100, fitness_law="entrant", eta=2.0, entrant_arrival=100)


class TestGenerators:
    def test_same_seed_identical_edges(self):
        cfg = SynthConfig(seed=42, n_final=60, m=2)
        assert generate_fitness(cfg).events == generate_fitness(cfg).events

    def test_different_seed_differs(self):
        a = generate_fitness(SynthConfig(seed=1, n_final=60, m=2)).events
        b = generate_fitness(SynthConfig(seed=2, n_final=60, m=2)).events
        assert a != b

    def test_m1_yields_tree(self):
        traj = generate_fitness(SynthConfig(seed=3, n_final=50, m=1))
        g = traj.final_graph()
        assert g.m == g.n - 1
        assert len(g.connected_components()) == 1

    def test_every_graph_connected(self):
        for seed in range(5):
            g = generate_fitness(SynthConfig(seed=seed, n_final=80, m=3)).final_graph()
            assert len(g.connected_components()) == 1

    def test_heavy_tail_degrees(self):
        maxes, medians = [], []
        for seed in range(8):
            traj = generate_fitness(SynthConfig(seed=seed, n_final=2000, m=3))
            deg = traj.graph_at(2000).degrees
            maxes.append(deg.max())
            medians.append(np.median(deg))
        assert np.mean(maxes) > 10 * np.mean(medians)

    def test_entrant_outgrows_same_age_cohort(self):
        wins = 0
        for seed in range(20):
            cfg = SynthConfig(seed=seed, n_final=1000, m=3, fitness_law="entrant", eta=5.0, entrant_arrival=100)
            deg = generate_fitness(cfg).graph_at(1000).degrees
            cohort = [deg[i] for i in range(80, 121) if i != 100]
            wins += deg[100] > np.median(cohort)
        assert wins >= 19

    def test_extreme_eta_entrant_targeted_by_every_arrival(self):
        cfg = SynthConfig(seed=3, n_final=50, m=3, fitness_law="entrant", eta=1e6, entrant_arrival=10)
        traj = generate_fitness(cfg)
        adj: dict[int, set[int]] = {}
        for _, i, j in traj.events:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
        assert all(10 in adj[v] for v in range(11, 50))

    def test_standard_seeds_never_reach_rejection_cap(self, monkeypatch):
        # the capped draw would change a pinned run's targets, so it must not fire on one
        def fallback(*_):
            raise AssertionError(f"{synth.REJECTION_CAP} repeated targets in a row")

        monkeypatch.setattr(synth, "_pick_excluding", fallback)
        for seed in range(1, 21):
            generate_fitness(standard_run_config(seed))

    def test_densify_dropped_counts_given_up_edges(self):
        # the densify schedule does not depend on eta, so grown plus dropped edges stay fixed
        cfg = standard_run_config(1)
        base = generate_fitness(cfg)
        extreme = generate_fitness(replace(cfg, eta=1e4))
        assert (len(base.events), base.densify_dropped) == (10_836, 0)
        assert (len(extreme.events), extreme.densify_dropped) == (8_910, 1_926)

    @pytest.mark.parametrize("law, eta, digest", [
        ("uniform", 1.0, "f226c21454600dcd10a5571f53d3ec3fbbdd6f6369397add9cd4590d3d2bc00a"),
        ("entrant", 2.7, "e963f75bdb407c71381271284ba17c5240ef7997838751e0689349f46915542d"),
    ], ids=["uniform", "entrant"])
    def test_densified_growth_with_fractional_weights_is_pinned(self, law, eta, digest):
        # the golden runs' weights are whole numbers (constant fitness, eta = 5); these
        # pin densified growth under fractional fitness and attachment weights
        cfg = SynthConfig(seed=5, n_final=400, m=3, fitness_law=law, eta=eta, entrant_arrival=80,
                          densify_closure=0.01, densify_random=0.005)
        traj = generate_fitness(cfg)
        assert len(traj.events) == 2448
        assert hashlib.sha256(repr((traj.events, traj.densify_dropped, traj.entrant)).encode()).hexdigest() == digest

    def test_eta_monotone_in_entrant_degree(self):
        means = []
        for eta in (1.0, 2.0, 5.0):
            degs = []
            for seed in range(10):
                cfg = SynthConfig(seed=seed, n_final=600, m=3, fitness_law="entrant", eta=eta, entrant_arrival=150)
                degs.append(generate_fitness(cfg).graph_at(600).degrees[150])
            means.append(np.mean(degs))
        assert means[0] < means[1] < means[2]

    def test_graph_prefix_consistency(self):
        traj = generate_fitness(SynthConfig(seed=7, n_final=80, m=2))
        g50 = traj.graph_at(50)
        g80 = traj.final_graph()
        assert set(g50.edges) <= set(g80.edges)
        assert g50.n == 50


class TestDrawStream:
    """Densification draws both ends of an edge from one rng.random(2), the stream of two scalar draws."""

    @staticmethod
    def twins():
        return [np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, 1)))) for _ in range(2)]

    def test_two_at_once_are_two_scalar_draws(self):
        one, two = self.twins()
        for _ in range(1000):
            assert one.random(2).tolist() == [two.random(), two.random()]

    @pytest.mark.parametrize("weights", [[0.3, 1.7, 0.0, 2.9, 0.1], [1.0, 1.0], [0.0, 0.0, 0.0]],
                             ids=["fractional", "equal", "zero"])
    def test_weighted_pair_is_two_weighted_picks(self, weights):
        one, two = self.twins()
        sums = synth._running_sums(np.array(weights))
        for _ in range(500):
            assert synth._weighted_pair(one, sums) == (synth._weighted_pick(two, sums), synth._weighted_pick(two, sums))


class TestHoleClosure:
    def small_config(self, seed=1):
        return SynthConfig(
            seed=seed, n_final=120, m=2, fitness_law="entrant", eta=5.0,
            entrant_arrival=40, checkpoint_stride=40,
            densify_closure=0.01, densify_random=0.005,
        )

    def test_checkpoint_grid(self):
        counts = checkpoint_counts(self.small_config())
        assert counts == [40, 80, 120]

    def test_run_is_deterministic(self):
        r1 = hole_closure_experiment(self.small_config())
        r2 = hole_closure_experiment(self.small_config())
        assert r1.to_json() == r2.to_json()

    def test_checkpoints_record_all_metrics(self):
        run = hole_closure_experiment(self.small_config())
        for cp in run.checkpoints:
            assert cp.node_count >= 40
            assert 0.0 <= cp.hub_bc_norm <= 1.0
            assert 0.0 <= cp.avg_clustering <= 1.0
            assert 0.0 <= cp.global_efficiency <= 1.0
            assert cp.max_k >= 1
            assert cp.communities >= 1
        counts = [cp.node_count for cp in run.checkpoints]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)

    def test_needs_arrival(self):
        with pytest.raises(DataError):
            hole_closure_experiment(SynthConfig(seed=1, n_final=100, m=2))

    def test_densification_changes_nothing_before_arrival(self):
        cfg = self.small_config()
        plain = SynthConfig(seed=cfg.seed, n_final=120, m=2, fitness_law="entrant",
                            eta=5.0, entrant_arrival=40)
        dense_traj = generate_fitness(cfg)
        plain_traj = generate_fitness(plain)
        cutoff = 40
        dense_pre = [e for e in dense_traj.events if e[0] <= cutoff]
        plain_pre = [e for e in plain_traj.events if e[0] <= cutoff]
        assert dense_pre == plain_pre


class TestExportCorpus:
    def test_round_trip_series_span(self, tmp_path):
        traj = generate_fitness(SynthConfig(seed=5, n_final=150, m=2))
        manifest = export_corpus(traj, tmp_path / "corpus", years=24)
        assert manifest["years"] == list(range(2001, 2025))
        store = CorpusStore(tmp_path / "corpus")
        el = store.read_edges(2024, "all")
        final = traj.final_graph()
        assert len(el.edges) == final.m
        first = store.read_edges(2001, "all")
        assert 0 < len(first.edges) <= final.m
