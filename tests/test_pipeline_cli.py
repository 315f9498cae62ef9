import csv
import hashlib
import json
import math
import os
import random
import shutil
import string
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
import scipy.sparse.linalg
from hypothesis import given, strategies as st

from collabnet import cli, paths, structure
from collabnet import ingest as ingest_mod
from collabnet.chart import ESCAPE_ATTR, ESCAPE_TEXT, emit_chart
from collabnet.errors import DataError
from collabnet.graph import CollabNetwork
from collabnet.ingest import CorpusStore, ingest_publications
from collabnet.pipeline import (
    PipelineConfig,
    SliceAnalysis,
    _slice_metrics,
    granger_panel,
    read_forecast_csv,
    read_series_csv,
    read_windows,
    run_pipeline,
    write_series_csv,
)
from collabnet.synth import SynthConfig, hole_closure_experiment
from collabnet.timeseries import MetricSeries
from conftest import arpack_fails, make_net

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import pubgen  # noqa: E402


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 14-year two-field corpus with drifting collaboration patterns."""
    tmp = tmp_path_factory.mktemp("corpus_src")
    rng = random.Random(12345)
    codes = ["US", "GB", "CN", "DE", "FR", "JP", "KR", "CA", "AU", "IT", "NL", "ES"]
    lines = []
    rid = 0
    for year in range(2001, 2015):
        cn_pull = (year - 2001) / 13
        for _ in range(400):
            rid += 1
            k = rng.choices([1, 2, 3, 4], weights=[3, 4, 2, 1])[0]
            pool = codes if rng.random() < 0.5 + 0.5 * cn_pull else codes[:8]
            cs = rng.sample(pool, min(k, len(pool)))
            if rng.random() < 0.25 + 0.5 * cn_pull and "CN" not in cs and k > 1:
                cs[0] = "CN"
            fld = rng.choice(["Physics", "Biology"])
            lines.append(json.dumps({"id": f"W{rid}", "year": year, "field": fld, "countries": cs}))
    pubs = tmp / "pubs.jsonl"
    pubs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp / "corpus"
    ingest_publications(pubs, out, threshold=5)
    return out


# sha256 prefixes of the outputs of TestWindowLoading.run_all on the partial store
PARTIAL_STORE_DIGESTS = {
    "bc_US__all.csv": "628c443a3b724a5d",
    "bc_US__physics.csv": "997a625101dc536c",
    "bcw_US__all.csv": "f1beb5c5c2b347a7",
    "bcw_US__physics.csv": "7bf5ca679771f47c",
    "bridge_CN_US__all.csv": "b5a6a64630533ab5",
    "bridge_CN_US__physics.csv": "b1c00dc3ab807725",
    "clustering__all.csv": "702686bec428ceeb",
    "clustering__physics.csv": "9ab90249c70a6612",
    "deg_US__all.csv": "e83efcfc6f18a757",
    "deg_US__physics.csv": "de9b3240e67ed46a",
    "ego_q_US__all.csv": "746fab4894dec05c",
    "ego_q_US__physics.csv": "84f5d91775b6cdbf",
    "ev_US__all.csv": "9c465d010899e828",
    "ev_US__physics.csv": "0505a3e3be09aed0",
    "modularity__all.csv": "5b06981f6bf96e0c",
    "modularity__physics.csv": "c98d92a606f3cf36",
    "granger.csv": "810172cedea6bb0e",
    "bridge.csv": "782e58a402ed15ff",
}


def base_config(corpus, out, **kw):
    defaults = dict(
        corpus=str(corpus), out=str(out), window=3, threshold=5,
        countries=("US", "CN"), bridges=(("CN", "US"),),
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestRunPipeline:
    def test_series_written_and_parse_back(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path / "out")
        summary = run_pipeline(config)
        assert summary["series_files"]
        for rel in summary["series_files"]:
            series = read_series_csv(tmp_path / "out" / rel)
            assert len(series.years) >= 1
        clustering = read_series_csv(tmp_path / "out" / "series" / "clustering__all.csv")
        assert len(clustering) == 14
        assert all(v is None or 0 <= v <= 1 for v in clustering.values)

    def test_truncated_windows_labeled(self, corpus, tmp_path):
        summary = run_pipeline(base_config(corpus, tmp_path / "out"))
        truncated = {t.split(":")[0] for t in summary["truncated_windows"]}
        assert "2001/all" in truncated and "2002/all" in truncated

    def test_rerun_byte_identical(self, corpus, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_pipeline(base_config(corpus, out1))
        run_pipeline(base_config(corpus, out2))
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_config_hash_embedded(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path / "out")
        run_pipeline(config)
        text = (tmp_path / "out" / "series" / "clustering__all.csv").read_text()
        assert f"# config={config.hash()}" in text

    def test_missing_years_reported_not_fatal(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path / "out", years=(1999, 2003))
        summary = run_pipeline(config)
        assert "1999/all" in summary["missing"]
        assert (tmp_path / "out" / "series" / "clustering__all.csv").exists()

    def test_per_country_series_have_missing_markers(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path / "out", countries=("US", "ZZ"))
        run_pipeline(config)
        zz = read_series_csv(tmp_path / "out" / "series" / "bc_ZZ__all.csv")
        assert all(v is None for v in zz.values)

    def test_single_year_corpus_degenerate(self, tmp_path):
        pubs = tmp_path / "one.jsonl"
        rows = [json.dumps({"id": str(i), "year": 2005, "field": "all",
                            "countries": ["US", "CN"]}) for i in range(12)]
        pubs.write_text("\n".join(rows))
        ingest_publications(pubs, tmp_path / "c1", threshold=0)
        config = PipelineConfig(corpus=str(tmp_path / "c1"), out=str(tmp_path / "o1"), threshold=0)
        summary = run_pipeline(config)
        series = read_series_csv(tmp_path / "o1" / "series" / "kcore_max__all.csv")
        assert len(series) == 1


class TestSliceMetrics:
    """Keys and missing values of one slice on networks too small for some metrics."""

    CONFIG = PipelineConfig(corpus=".", out=".", countries=("US", "ZZ"), bridges=(("US", "CN"), ("CN", "ZZ")))
    GLOBAL = {"kcore_max", "kcore_nodes", "kcore_ratio", "clustering", "efficiency", "num_communities",
              "modularity", "betw_centralization", "avg_bc"}
    PER_COUNTRY = {f"{m}:{c}" for m in ("bc", "bcw", "ev", "deg", "ego_q") for c in ("US", "ZZ")}
    BRIDGES = {"bridge:US->CN", "bridge:CN->ZZ"}
    ABSENT = {"bc:ZZ", "bcw:ZZ", "ev:ZZ", "deg:ZZ", "ego_q:ZZ", "bridge:CN->ZZ"}

    def check(self, net, none_keys):
        out = _slice_metrics(net, self.CONFIG)
        assert set(out) == (self.GLOBAL | self.PER_COUNTRY | self.BRIDGES if net.n else self.GLOBAL)
        assert {k for k, v in out.items() if v is None} == none_keys

    def test_empty_network_has_only_global_keys(self):
        self.check(make_net([]), self.GLOBAL)

    def test_two_nodes_have_no_betweenness_or_bridging(self):
        net = make_net([("CN", "US", 2.0)])
        self.check(net, self.ABSENT | {"betw_centralization", "avg_bc", "bc:US", "bcw:US", "bridge:US->CN"})

    def test_three_nodes_miss_only_the_absent_country(self):
        net = make_net([("CN", "US", 2.0), ("CN", "GB", 1.0)])
        self.check(net, self.ABSENT)


class TestOneHopSweep:
    """Topological betweenness and hop efficiency share one hop pass per network."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        hop_levels = paths.hop_levels

        def counting(network):
            calls.append(network.n)
            return hop_levels(network)

        # also where a module imported the kernel by name
        for name, module in list(sys.modules.items()):
            if name.startswith("collabnet") and getattr(module, "hop_levels", None) is hop_levels:
                monkeypatch.setattr(module, "hop_levels", counting)
        return calls

    def test_series_sweeps_once_per_slice(self, corpus, tmp_path, sweeps):
        summary = run_pipeline(base_config(corpus, tmp_path / "out"))
        assert not summary["missing"]
        assert len(sweeps) == 14

    def test_hole_closure_sweeps_once_per_checkpoint(self, sweeps):
        config = SynthConfig(seed=1, n_final=120, m=2, fitness_law="entrant", eta=3.0,
                             entrant_arrival=40, checkpoint_stride=40, densify_closure=0.01)
        run = hole_closure_experiment(config)
        assert len(sweeps) == len(run.checkpoints) == 3

    def test_metrics_sweeps_once(self, tmp_path, sweeps):
        net = tmp_path / "net.json"
        make_net([("A", "B", 1.0), ("B", "C", 2.0), ("B", "D", 1.0)]).save(net)
        assert cli.main(["metrics", "--net", str(net), "--metric", "bc,centralization,efficiency",
                         "--out", str(tmp_path / "m.csv")]) == 0
        assert len(sweeps) == 1


class TestEgoReuse:
    """A country linked to every other node of a window has the window as its
    ego network: `SliceAnalysis.ego_q` reads the window's partition instead."""

    @pytest.fixture(scope="class")
    def windows(self, tmp_path_factory):
        """Every 1- and 3-year window, all fields and the six fields, of a `pubgen` seed-2 corpus."""
        tmp = tmp_path_factory.mktemp("pubgen2")
        pubgen.write_corpus(tmp / "pubs.jsonl", 2, pubgen.RECORDS)
        ingest_publications(tmp / "pubs.jsonl", tmp / "corpus", threshold=10)
        nets = []
        for window in (1, 3):
            config = PipelineConfig(corpus=str(tmp / "corpus"), out=".", window=window)
            for fld in ("all",) + pubgen.FIELDS:
                nets += [net for _, net, _, _ in read_windows(config, fld) if net is not None]
        return nets

    def test_ego_q_is_ego_modularity(self, windows):
        spanning = 0
        for net in windows:
            analysis = SliceAnalysis(net)
            for country in filter(net.has_node, pubgen.FOCUS):
                assert repr(analysis.ego_q(country)) == repr(structure.ego_modularity(net, country))
                spanning += len(net.neighbors(country)) == net.n - 1
        assert spanning == 538

    def test_one_cnm_per_spanning_window(self, windows, monkeypatch):
        runs = []
        communities = structure.communities
        monkeypatch.setattr(structure, "communities", lambda net: runs.append(net.n) or communities(net))
        spanned = 0
        for net in windows:
            egos = [c for c in pubgen.FOCUS if net.has_node(c) and len(net.neighbors(c)) == net.n - 1]
            if not egos:
                continue
            runs.clear()
            analysis = SliceAnalysis(net)
            for country in egos:
                analysis.ego_q(country)
            assert analysis.partition.q == analysis.ego_q(egos[0])
            assert runs == [net.n]
            spanned += 1
        assert spanned == 272


def _digest(paths) -> dict[str, str]:
    """sha256 of each file's bytes, keyed by name; Granger's `# config=` line is left out."""
    out = {}
    for path in paths:
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name == "granger.csv":
            lines = lines[1:]
        out[path.name] = hashlib.sha256(b"".join(lines)).hexdigest()[:16]
    return out


class TestWindowLoading:
    """`series`, `granger` and `bridge` on stores with absent, present and malformed slices."""

    COMMANDS = (
        ["series", "--corpus", "corpus", "--out", "results", "--threshold", "5", "--fields", "all,Physics",
         "--metrics", "clustering,modularity", "--countries", "US", "--bridge", "CN:US"],
        ["granger", "--corpus", "corpus", "--iv", "CN", "--threshold", "5", "--fields", "all,Physics",
         "--metrics", "clustering,efficiency", "--max-lag", "2", "--out", "granger.csv"],
        ["bridge", "--corpus", "corpus", "--source", "CN", "--via", "US", "--threshold", "5", "--out", "bridge.csv"],
    )

    @pytest.fixture
    def store(self, corpus, tmp_path, monkeypatch):
        """A copy of the corpus at ./corpus, so that the config hashes do not depend on tmp_path."""
        monkeypatch.chdir(tmp_path)
        shutil.copytree(corpus, "corpus")
        return Path("corpus")

    def run_all(self):
        """Run the three window-loading commands on ./corpus; returns the summary and output digests."""
        for argv in self.COMMANDS:
            assert cli.main(argv) == 0, argv
        summary = json.loads(Path("results/summary.json").read_text())
        files = sorted(Path("results/series").iterdir()) + [Path("granger.csv"), Path("bridge.csv")]
        return summary, _digest(files)

    def test_partial_store(self, store):
        (store / "edges_2005_all.csv").unlink()
        (store / "stats_2009_all.csv").unlink()
        summary, digests = self.run_all()
        # a window with an absent slice is truncated, one that would span the gap is missing
        assert summary["missing"] == ["2006/all", "2010/all"]
        assert summary["truncated_windows"] == [
            "2001/Physics:1", "2001/all:1", "2002/Physics:2", "2002/all:2",
            "2005/all:2", "2007/all:2", "2009/all:2", "2011/all:2",
        ]
        assert digests == PARTIAL_STORE_DIGESTS
        # a missing year keeps its row, with the value empty
        clustering = Path("results/series/clustering__all.csv").read_text().splitlines()
        bridge = Path("bridge.csv").read_text().splitlines()
        for year in (2006, 2010):
            assert f"{year}," in clustering
            assert f"{year},CN,US,,0" in bridge
        assert len(clustering) == 4 + 14 and len(bridge) == 1 + 14

    def test_each_slice_read_once(self, store, monkeypatch):
        reads = Counter()
        for name in ("read_edges", "read_stats"):
            def counting(self, year, fld, _read=getattr(CorpusStore, name), _name=name):
                reads[_name, year, fld] += 1
                return _read(self, year, fld)
            monkeypatch.setattr(CorpusStore, name, counting)
        for argv in self.COMMANDS:
            reads.clear()
            assert cli.main(argv) == 0, argv
            assert reads and max(reads.values()) == 1, (argv[0], reads.most_common(3))

    @pytest.mark.parametrize("command", [0, 1, 2], ids=["series", "granger", "bridge"])
    def test_malformed_stored_row_is_a_data_error(self, store, command, capsys):
        path = store / "edges_2010_all.csv"
        header, first, *rest = path.read_text().splitlines()
        first = first.rsplit(",", 1)[0] + ",notanumber"
        path.write_text("\n".join([header, first, *rest]) + "\n")
        assert cli.main(self.COMMANDS[command]) == 2
        assert "bad edge row" in capsys.readouterr().err

    def test_ingest_threshold_is_not_reapplied(self, store, monkeypatch):
        # the stored edges already hold the ingest threshold (5); only a higher one filters again
        calls = []
        real = ingest_mod.filter_countries
        monkeypatch.setattr("collabnet.pipeline.filter_countries", lambda el, stats, t: calls.append(t) or real(el, stats, t))
        assert cli.main(self.COMMANDS[0]) == 0
        assert calls == []
        assert cli.main([arg if arg != "5" else "6" for arg in self.COMMANDS[0]]) == 0
        assert set(calls) == {6}

    @pytest.mark.parametrize("threshold", ["5", "6"], ids=["ingest", "above"])
    def test_edge_country_without_stats_is_a_data_error(self, store, threshold, capsys):
        path = store / "stats_2010_all.csv"
        path.write_text("".join(line for line in path.read_text().splitlines(True) if ",US," not in line))
        assert cli.main([arg if arg != "5" else threshold for arg in self.COMMANDS[0]]) == 2
        assert "country US appears in edges but is missing from stats 2010/all" in capsys.readouterr().err


COLD_START = """
import sys
from pathlib import Path

from collabnet import cli
from collabnet.pipeline import GLOBAL_METRICS

UNUSED = ("scipy.stats", "ssl", "http.client")  # modules no command needs
# Dijkstra, components and ARPACK, with scipy.linalg: series, bridge and the weighted or eigenvector metrics load them
GRAPH = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")

def run(*argv):
    assert cli.main(list(argv)) == 0, argv
    assert not [name for name in UNUSED if name in sys.modules], argv

out = Path(sys.argv[1])
assert not [name for name in UNUSED + GRAPH if name in sys.modules]
run("synth", "--experiment", "--n", "60", "--m", "2", "--arrival", "20", "--checkpoints", "20",
    "--seed", "3", "--out", str(out / "exp.json"))
run("ingest", "--pubs", str(out / "edges.csv"), "--out", str(out / "corpus"), "--threshold", "0")
run("granger", "--corpus", str(out / "corpus"), "--iv", "CN", "--threshold", "0",
    "--metrics", ",".join(GLOBAL_METRICS), "--max-lag", "1", "--out", str(out / "granger.csv"))
run("forecast", "--series", str(out / "s.csv"), "--horizon", "3", "--out", str(out / "fc.csv"))
run("chart", "--series", str(out / "s.csv"), "--forecast", str(out / "fc.csv"), "--out", str(out / "chart.svg"))
assert not [name for name in GRAPH if name in sys.modules]  # a module once loaded stays: none of the five loaded one
run("series", "--corpus", str(out / "corpus"), "--out", str(out / "series"), "--threshold", "0",
    "--countries", "US,CN", "--bridge", "CN:US")
print("ok")
"""


class TestUnreadableInputs:
    """A directory, or a file holding a 0xff byte, in place of one stored
    input at a time ends as a data error (exit 2), never a traceback."""

    FILES = {"series": "s.csv", "forecast": "fc.csv", "net": "net.json", "config": "cfg.json",
             "manifest": "corpus/manifest.json", "edges": "corpus/edges_2005_all.csv",
             "stats": "corpus/stats_2005_all.csv", "pubs": "pubs.jsonl"}
    SERIES = ["series", "--corpus", "{corpus}", "--threshold", "5", "--out", "{out}"]
    # the command line that reads each input; {name} stands for the path of FILES[name]
    COMMANDS = {
        "series": ["forecast", "--series", "{series}", "--out", "{out}/fc.csv"],
        "forecast": ["chart", "--series", "{series}", "--forecast", "{forecast}", "--out", "{out}/c.svg"],
        "net": ["metrics", "--net", "{net}", "--metric", "bc", "--out", "{out}/m.csv"],
        "config": ["--config", "{config}", "forecast", "--series", "{series}", "--out", "{out}/fc.csv"],
        "manifest": SERIES, "edges": SERIES, "stats": SERIES,
        "pubs": ["ingest", "--pubs", "{pubs}", "--out", "{out}"],
    }

    @pytest.fixture
    def inputs(self, corpus, tmp_path):
        shutil.copytree(corpus, tmp_path / "corpus")
        (tmp_path / "s.csv").write_text("# name=s\nyear,value\n" + "".join(f"{2001 + i},{i % 4}\n" for i in range(12)))
        assert cli.main(["forecast", "--series", str(tmp_path / "s.csv"), "--out", str(tmp_path / "fc.csv")]) == 0
        make_net([("A", "B", 1.0), ("B", "C", 2.0)]).save(tmp_path / "net.json")
        (tmp_path / "cfg.json").write_text(json.dumps({"horizon": 3}))
        (tmp_path / "pubs.jsonl").write_text("".join(
            json.dumps({"year": 2001, "countries": ["US", c]}) + "\n" for c in ("CN", "GB", "DE")))
        return tmp_path

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize("case", list(FILES))
    def test_data_error_not_traceback(self, inputs, case, kind, capsys):
        target = inputs / self.FILES[case]
        if kind == "directory":
            target.unlink()
            target.mkdir()
        else:
            data = target.read_bytes()
            target.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
        paths = {"corpus": inputs / "corpus", "out": inputs / "out", **{k: inputs / v for k, v in self.FILES.items()}}
        capsys.readouterr()
        assert cli.main([arg.format_map(paths) for arg in self.COMMANDS[case]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("collabnet: data error:") and "Traceback" not in err, err


class TestColdStart:
    """No command loads scipy.stats, not even granger and forecast, whose tails
    come from scipy.special, nor ssl or http.client, which `xml.sax.saxutils`
    would bring in for the chart's escaping. synth, ingest, granger, forecast
    and chart load no csgraph, ARPACK or scipy.linalg either; series, run
    last, does. Run in a fresh interpreter, because this test session has
    imported them already."""

    def test_no_command_loads_scipy_stats(self, tmp_path):
        rng = random.Random(4)
        rows = ["year,field,country_a,country_b,weight"]
        for year in range(2001, 2013):
            for a, b in combinations(["CN", "DE", "FR", "GB", "JP", "KR", "US"], 2):
                if rng.random() < 0.6:
                    rows.append(f"{year},all,{a},{b},{rng.randint(1, 9)}")
        (tmp_path / "edges.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "s.csv").write_text("# name=s\nyear,value\n" + "".join(f"{2001 + i},{i % 4}\n" for i in range(12)))
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "ok"


class TestYearSpan:
    """A corpus, and a run over one, spans at most `ingest.MAX_YEAR_SPAN`
    years, so no year can make a command walk for hours, and a manifest of
    the wrong shape is a data error. Each command runs in a fresh interpreter
    with a timeout, so that a regression fails instead of hanging."""

    def cli(self, cwd, *argv):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, "-m", "collabnet.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=30)

    def test_far_year_exit_2(self, tmp_path):
        lines = [json.dumps({"year": 2001 + i % 3, "countries": ["US", c]})
                 for i, c in enumerate(["CN", "GB", "DE", "FR", "JP"] * 3)]
        far = json.dumps({"year": 1_000_000_000, "countries": ["US", "CN"]})
        (tmp_path / "pubs.jsonl").write_text("\n".join(lines + [far]) + "\n")
        ingest = ["ingest", "--pubs", "pubs.jsonl", "--out", "corpus", "--threshold", "0"]
        done = self.cli(tmp_path, *ingest)
        assert done.returncode == 2 and "span more than 1000 years" in done.stderr, done.stderr
        assert not (tmp_path / "corpus").exists()
        # a store that names the far year, as one written before the cap could
        (tmp_path / "pubs.jsonl").write_text("\n".join(lines) + "\n")
        assert self.cli(tmp_path, *ingest).returncode == 0
        path = tmp_path / "corpus" / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "years": [2001, 2002, 2003, 1_000_000_000]}))
        series = ["series", "--corpus", "corpus", "--threshold", "0", "--out", "series"]
        for argv in (series, ["granger", "--corpus", "corpus", "--iv", "US", "--threshold", "0", "--out", "g.csv"]):
            done = self.cli(tmp_path, *argv)
            assert done.returncode == 2 and "span more than 1000 years" in done.stderr, (argv[0], done.stderr)
        # and a run's --years on a store that holds only 2001-2003
        path.write_text(json.dumps(manifest))
        done = self.cli(tmp_path, *series, "--years", "1:1000000000")
        assert done.returncode == 2 and "span more than 1000 years" in done.stderr, done.stderr
        assert self.cli(tmp_path, *series, "--years", "1001:2000").returncode == 0

    @pytest.mark.parametrize("year", [10_000, -10_000, 10**300])
    def test_year_beyond_four_digits_exit_2(self, tmp_path, capsys, year):
        # each year names stored files, so an unbounded one ends in a file name too long to open
        (tmp_path / "pubs.jsonl").write_text(json.dumps({"year": year, "countries": ["US", "CN"]}) + "\n")
        argv = ["ingest", "--pubs", str(tmp_path / "pubs.jsonl"), "--out", str(tmp_path / "corpus"), "--threshold", "0"]
        assert cli.main(argv) == 2
        assert not (tmp_path / "corpus").exists()
        (tmp_path / "pubs.jsonl").write_text(json.dumps({"year": 2001, "countries": ["US", "CN"]}) + "\n")
        assert cli.main(argv) == 0
        series = ["series", "--corpus", str(tmp_path / "corpus"), "--threshold", "0", "--out", str(tmp_path / "series")]
        assert cli.main([*series, f"--years={year}:{year}"]) == 2
        assert capsys.readouterr().err.count(f"year {year} lies outside -9999 to 9999") == 2
        assert not (tmp_path / "series").exists()

    @pytest.mark.parametrize("key, value", [("years", []), ("years", None), ("years", "2001"), ("years", [2001, True]),
                                            ("threshold", "0"), ("threshold", None), ("threshold", -1),
                                            ("slice_counts", [1]), ("slice_counts", {"2001/all": 5})])
    def test_malformed_manifest_exit_2(self, tmp_path, key, value):
        (tmp_path / "pubs.jsonl").write_text("".join(
            json.dumps({"year": 2001 + i % 3, "countries": ["US", c]}) + "\n" for i, c in enumerate(["CN", "GB", "DE"] * 3)))
        ingest_publications(tmp_path / "pubs.jsonl", tmp_path / "corpus", threshold=0)
        path = tmp_path / "corpus" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        done = self.cli(tmp_path, "granger", "--corpus", "corpus", "--iv", "US", "--threshold", "0", "--out", "g.csv")
        assert done.returncode == 2 and f"manifest.json under corpus has {key}" in done.stderr, done.stderr
        assert "Traceback" not in done.stderr and not (tmp_path / "g.csv").exists()


class TestSeriesCsv:
    def test_round_trip_lossless(self, tmp_path):
        series = MetricSeries("x", (2001, 2002, 2003), (0.1234567890123456789, None, 1e-17), unit="share")
        path = tmp_path / "s.csv"
        write_series_csv(series, path, "deadbeef")
        back = read_series_csv(path)
        assert back.name == series.name
        assert back.unit == series.unit
        assert back.years == series.years
        assert back.values == series.values  # repr round-trips floats exactly


class TestGrangerPanel:
    def test_panel_produces_joint_fdr(self, corpus, tmp_path):
        config = PipelineConfig(corpus=str(corpus), out=str(tmp_path), window=1, threshold=5,
                                metrics=("clustering", "efficiency", "avg_bc"), fields=("all",))
        results, diagnostics = granger_panel(config, "CN", max_lag=3)
        assert results
        for res in results:
            for lag, p in res.pvalues.items():
                assert res.adjusted[lag] >= p - 1e-15
            assert res.min_p_adj == min(res.adjusted.values())
            assert res.flagged == (res.min_p_adj <= 0.05)
        assert diagnostics["nonstationary_share"] is not None

    def test_skipped_cells_keep_their_reasons(self, corpus, tmp_path):
        # a field with no records has no window; the all-fields cells are testable
        config = PipelineConfig(corpus=str(corpus), out=str(tmp_path), window=1, threshold=5,
                                metrics=("clustering", "efficiency"), fields=("all", "Astronomy"))
        results, diagnostics = granger_panel(config, "CN", max_lag=1)
        assert [(res.field, res.metric) for res in results] == [("all", "clustering"), ("all", "efficiency")]
        assert diagnostics["skipped_cells"] == {"Astronomy:*": "no window of the field has a network"}

    def test_unknown_metric_cells_skipped(self, corpus, tmp_path):
        with pytest.raises(DataError):
            config = PipelineConfig(corpus=str(corpus), out=str(tmp_path), window=1, threshold=5,
                                    metrics=("definitely_not_a_metric",), fields=("all",))
            granger_panel(config, "CN")


class TestChart:
    def series(self, vals, name="s"):
        return MetricSeries(name, tuple(range(2001, 2001 + len(vals))), tuple(vals))

    def test_constant_series_horizontal_polyline(self):
        svg = emit_chart([self.series([0.4] * 5, "flat")])
        root = ET.fromstring(svg)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        lines = [e for e in root.iter("{http://www.w3.org/2000/svg}polyline") if e.get("class") == "series"]
        assert len(lines) == 1
        ys = {pt.split(",")[1] for pt in lines[0].get("points").split()}
        assert len(ys) == 1  # horizontal

    @given(st.text(st.sampled_from("&<>\"' ;#a\u00e9")) | st.text())
    def test_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape

        assert text.translate(ESCAPE_TEXT) == escape(text)
        assert text.translate(ESCAPE_ATTR) == escape(text, {'"': "&quot;"})

    def test_two_series_two_polylines_and_legend(self):
        svg = emit_chart([self.series([1, 2, 3], "a"), self.series([3, 2, 1], "b")])
        root = ET.fromstring(svg)
        lines = [e for e in root.iter("{http://www.w3.org/2000/svg}polyline") if e.get("class") == "series"]
        assert len(lines) == 2
        legend = [e for e in root.iter("{http://www.w3.org/2000/svg}text") if e.text in ("a", "b")]
        assert len(legend) == 2

    def test_band_polygon_behind_series(self):
        band = {"years": [2004, 2005, 2006], "points": [2.0, 2.1, 2.2],
                "lower": [1.5, 1.4, 1.3], "upper": [2.5, 2.8, 3.1]}
        svg = emit_chart([self.series([1, 2, 3, 2], "hist")], band=band)
        root = ET.fromstring(svg)
        tags = [e.get("class") for e in root.iter() if e.get("class") in ("band", "series")]
        assert tags[0] == "band"  # band rendered first, virtually behind
        polys = [e for e in root.iter("{http://www.w3.org/2000/svg}polygon") if e.get("class") == "band"]
        assert len(polys) == 1

    def test_missing_values_split_polyline(self):
        svg = emit_chart([MetricSeries("gap", (2001, 2002, 2003, 2004, 2005),
                                       (1.0, 2.0, None, 3.0, 4.0))])
        root = ET.fromstring(svg)
        lines = [e for e in root.iter("{http://www.w3.org/2000/svg}polyline") if e.get("class") == "series"]
        assert len(lines) == 2

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            emit_chart([])

    def test_deterministic_output(self):
        s = [self.series([0.5, 0.25, 0.8], "x")]
        assert emit_chart(s) == emit_chart(s)

    # series CSV rows (";" between rows) and the exit code each must end in
    EXTREMES = {
        "2001,1e20;2002,100000000000000016384": 0,  # one float step apart: ticks stepped below it stalled
        "2001,1e20;2002,1e20": 0,  # flat, and too large for a +/-0.5 axis
        "2001,0;2002,5e-324": 0,  # a subnormal span
        "2001,-1e308;2002,1e308": 3,  # the padded axis overflows
        "100000000000000000,1;100000000000000001,2": 2,  # years no corpus holds; the ticks stalled on them
    }

    def test_extreme_values_and_years(self, tmp_path):
        # each case once hung or raised; a fresh interpreter with a timeout, so a regression fails instead of hanging
        script = textwrap.dedent("""
            import sys
            from pathlib import Path
            from collabnet import cli
            out = Path(sys.argv[1])
            for k, rows in enumerate(sys.argv[2:]):
                (out / f"s{k}.csv").write_text("year,value\\n" + rows.replace(";", "\\n") + "\\n")
                print("exit", cli.main(["chart", "--series", str(out / f"s{k}.csv"), "--out", str(out / f"c{k}" / "c.svg")]))
            """)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path), *self.EXTREMES], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        codes = [int(line[5:]) for line in done.stdout.splitlines() if line.startswith("exit ")]
        assert codes == list(self.EXTREMES.values()), done.stderr
        assert [(tmp_path / f"c{k}").exists() for k in range(len(codes))] == [code == 0 for code in codes]
        assert "Traceback" not in done.stderr


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_usage_error_exit_1(self, capsys):
        assert self.run("not-a-command") == 1
        assert self.run() == 1

    def test_data_error_exit_2(self, tmp_path):
        assert self.run("build", "--corpus", str(tmp_path / "nope"), "--year", "2001",
                        "--out", str(tmp_path / "x.json")) == 2

    def test_eigenvector_non_convergence_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", arpack_fails)
        net = tmp_path / "path.json"
        make_net([(f"N{i:03d}", f"N{i + 1:03d}", 1.0) for i in range(179)]).save(net)
        assert self.run("metrics", "--net", str(net), "--metric", "ev", "--out", str(tmp_path / "m.csv")) == 3
        assert "collabnet: numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_chain_window_keeps_every_slice(self, tmp_path):
        # 2001-2003 are a 180-country chain, on which the power iteration stalls and eigsh takes over
        codes = ["".join(pair) for pair in product(string.ascii_uppercase, repeat=2)][:180]
        rows = [f"{year},,{a},{b},1" for year in (2001, 2002, 2003) for a, b in zip(codes, codes[1:])]
        rows += ["2004,,AA,AB,2", "2004,,AB,AC,1", "2004,,AA,AC,1"]
        edges = tmp_path / "chain.csv"
        edges.write_text("year,field,country_a,country_b,weight\n" + "\n".join(rows) + "\n")
        corpus, out = str(tmp_path / "corpus"), tmp_path / "res"
        assert self.run("ingest", "--pubs", str(edges), "--out", corpus, "--threshold", "0") == 0
        assert self.run("series", "--corpus", corpus, "--out", str(out), "--window", "1", "--threshold", "0",
                        "--countries", "AA") == 0
        ev = read_series_csv(out / "series" / "ev_AA__all.csv")
        assert ev.years == (2001, 2002, 2003, 2004)
        # a path's Perron vector is sqrt(2 / (n + 1)) sin(k pi / (n + 1)); AA is its end, k = 1
        end = math.sqrt(2 / 181) * math.sin(math.pi / 181)
        assert ev.values[:3] == pytest.approx([end] * 3, abs=1e-12)
        assert ev.values[3] is not None and ev.values[3] > end

    def test_threshold_below_ingest_threshold_exit_2(self, corpus, tmp_path, capsys):
        # the corpus was ingested at threshold 5: its edges to weaker countries are gone
        for argv in (["series", "--out", str(tmp_path / "series")],
                     ["granger", "--iv", "CN", "--out", str(tmp_path / "granger.csv")],
                     ["bridge", "--source", "CN", "--via", "US", "--out", str(tmp_path / "bridge.csv")],
                     ["build", "--year", "2010", "--out", str(tmp_path / "net.json")]):
            assert self.run(*argv, "--corpus", str(corpus), "--threshold", "4") == 2, argv
            assert "threshold 4 is below the corpus's ingest threshold 5" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.*"))
        assert not (tmp_path / "series").exists()

    @pytest.mark.parametrize("text", ['{"years": [2001]}', "{not json", "[]"])
    def test_bad_manifest_exit_2(self, corpus, tmp_path, capsys, text):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        (copy / "manifest.json").write_text(text)
        assert self.run("granger", "--corpus", str(copy), "--iv", "CN", "--threshold", "5",
                        "--out", str(tmp_path / "granger.csv")) == 2
        assert "manifest.json under" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        {"nodes": [1, "A"], "edges": []},
        {"nodes": [["A"], "B"], "edges": []},
        {"nodes": "AB", "edges": []},
        {"nodes": ["A", "B"], "edges": [[["A"], "B", 1.0]]},
        {"nodes": ["A", "B"], "edges": [["A", "B"]]},
        {"nodes": ["A", "B"], "edges": [["A", "B", True]]},
        {"nodes": ["A", "B"], "edges": [["A", "B", "1"]]},
        {"nodes": ["A", "B"], "edges": [["A", "B", 1.0], ["B", "A", 2.0]]},  # to_json never repeats a pair
        {"nodes": ["A", "B"], "edges": [["A", "C", 1.0]]},
        {"nodes": ["A", "B"], "edges": [["A", "A", 1.0]]},
        {"nodes": ["A", "B"], "edges": [["A", "B", -1.0]]},
        {"nodes": ["A", "B"], "edges": [["A", "B", 1.0]], "slice": 2001},
    ])
    def test_malformed_network_json_exit_2(self, tmp_path, capsys, document):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(document))
        assert self.run("metrics", "--net", str(net), "--metric", "deg", "--out", str(tmp_path / "res" / "m.csv")) == 2
        assert "collabnet: data error:" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_metrics_quotes_a_name_holding_a_comma(self, tmp_path):
        net = tmp_path / "net.json"
        make_net([("A,B", "C", 1.0), ("C", "D", 1.0)]).save(net)
        out = tmp_path / "m.csv"
        assert self.run("metrics", "--net", str(net), "--metric", "bc", "--out", str(out)) == 0
        with out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "node", "value"]
        assert ["bc", "A,B", "0.0"] in rows
        assert all(len(row) == 3 for row in rows)
        assert b"\r" not in out.read_bytes()

    def test_nan_weight_network_exit_2(self, tmp_path):
        net = tmp_path / "nan.json"
        net.write_text(json.dumps({"nodes": ["A", "B", "C"], "edges": [["A", "B", float("nan")], ["B", "C", 1.0]]}))
        assert self.run("metrics", "--net", str(net), "--metric", "bc", "--out", str(tmp_path / "m.csv")) == 2

    def test_full_flow(self, corpus, tmp_path, capsys):
        out = tmp_path / "flow"
        net_path = out / "net.json"
        assert self.run("build", "--corpus", str(corpus), "--year", "2010",
                        "--threshold", "5", "--out", str(net_path)) == 0
        net = CollabNetwork.load(net_path)
        assert net.n >= 3

        metrics_csv = out / "metrics.csv"
        assert self.run("metrics", "--net", str(net_path),
                        "--metric", "bc,bcw,ev,deg,centralization,kcore,clustering,efficiency,communities,ego:US",
                        "--out", str(metrics_csv)) == 0
        header = metrics_csv.read_text().splitlines()[0]
        assert header == "metric,node,value"
        assert metrics_csv.with_suffix(".communities.json").exists()

        assert self.run("series", "--corpus", str(corpus), "--out", str(out / "series_out"),
                        "--threshold", "5", "--countries", "US,CN", "--bridge", "CN:US") == 0
        assert self.run("bridge", "--corpus", str(corpus), "--source", "CN", "--via", "US",
                        "--threshold", "5", "--out", str(out / "bridge.csv")) == 0
        bridge_lines = (out / "bridge.csv").read_text().splitlines()
        assert bridge_lines[0] == "year,source,via,fraction,targets"
        assert len(bridge_lines) == 15
        # `bridge` and `series --bridge` read one bridge cell
        fractions = {int(row.split(",")[0]): row.split(",")[3] for row in bridge_lines[1:]}
        series = read_series_csv(out / "series_out" / "series" / "bridge_CN_US__all.csv")
        assert fractions == {y: "" if v is None else repr(v) for y, v in zip(series.years, series.values)}

        assert self.run("granger", "--corpus", str(corpus), "--iv", "CN",
                        "--metrics", "clustering,efficiency", "--threshold", "5",
                        "--max-lag", "3", "--out", str(out / "granger.csv")) == 0
        granger_lines = (out / "granger.csv").read_text().splitlines()
        assert granger_lines[1] == "field,metric,lag,p_raw,aic,p_adj,min_p_adj,flag"

        assert self.run("forecast", "--series", str(out / "series_out" / "series" / "clustering__all.csv"),
                        "--horizon", "4", "--out", str(out / "fc.csv")) == 0
        fc = read_forecast_csv(out / "fc.csv")
        assert len(fc["years"]) == 4

        assert self.run("chart", "--series", str(out / "series_out" / "series" / "bc_US__all.csv"),
                        str(out / "series_out" / "series" / "bc_CN__all.csv"),
                        "--forecast", str(out / "fc.csv"),
                        "--title", "demo", "--out", str(out / "chart.svg")) == 0
        ET.fromstring((out / "chart.svg").read_text())  # well-formed XML

    def test_synth_cli_and_corpus_round_trip(self, tmp_path):
        out = tmp_path / "synth"
        assert self.run("synth", "--model", "pa", "--n", "150", "--m", "2", "--seed", "9",
                        "--out", str(out / "pa.json"), "--export-corpus", str(out / "corpus")) == 0
        assert self.run("series", "--corpus", str(out / "corpus"), "--out", str(out / "pipe"),
                        "--threshold", "0") == 0
        series = read_series_csv(out / "pipe" / "series" / "clustering__all.csv")
        assert len(series) == 24  # full synthetic span survives the round trip

    def test_simulation_through_the_corpus_pipeline(self, tmp_path):
        # the exported corpus's last year is the run's final graph, so its hub's BC is the run's, byte for byte
        assert self.run("synth", "--standard", "--seed", "1", "--out", str(tmp_path / "run.json"),
                        "--export-corpus", str(tmp_path / "corpus")) == 0
        assert self.run("build", "--corpus", str(tmp_path / "corpus"), "--year", "2024", "--window", "1",
                        "--threshold", "0", "--out", str(tmp_path / "net.json")) == 0
        assert self.run("metrics", "--net", str(tmp_path / "net.json"), "--metric", "bc",
                        "--out", str(tmp_path / "m.csv")) == 0
        run = json.loads((tmp_path / "run.json").read_text())
        with (tmp_path / "m.csv").open(newline="") as fh:
            bc = {row["node"]: row["value"] for row in csv.DictReader(fh) if row["metric"] == "bc"}
        assert run["hub"] == "N00002"
        assert bc["N00002"] == repr(run["checkpoints"][-1]["hub_bc_norm"]) == "0.024576987717965633"

    def test_synth_experiment_cli(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        assert self.run("synth", "--experiment", "--n", "120", "--m", "2", "--eta", "4",
                        "--arrival", "40", "--checkpoints", "40",
                        "--densify-closure", "0.01", "--densify-random", "0.005",
                        "--seed", "2", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert [c["node_count"] for c in payload["checkpoints"]] == [40, 80, 120]
        assert "densify edges dropped" in capsys.readouterr().out
        assert "densify_dropped" not in payload

    def test_series_writes_exactly_the_requested_metrics(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert self.run("series", "--corpus", str(corpus), "--out", str(out), "--threshold", "5",
                        "--metrics", "kcore_nodes,modularity") == 0
        expected = ["series/kcore_nodes__all.csv", "series/modularity__all.csv"]
        assert json.loads((out / "summary.json").read_text())["series_files"] == expected
        assert sorted(f"series/{p.name}" for p in (out / "series").iterdir()) == expected

    def test_granger_config_hash_covers_panel_options(self, corpus, tmp_path):
        def config_line(name, *options):
            out = tmp_path / f"{name}.csv"
            assert self.run("granger", "--corpus", str(corpus), "--threshold", "5", "--out", str(out),
                            "--metrics", "clustering,efficiency", *options) == 0
            return out.read_text().splitlines()[0]

        lines = [
            config_line("base", "--iv", "CN", "--max-lag", "3"),
            config_line("iv", "--iv", "US", "--max-lag", "3"),
            config_line("lag", "--iv", "CN", "--max-lag", "2"),
            config_line("metrics", "--iv", "CN", "--max-lag", "3", "--metrics", "clustering"),
            config_line("fields", "--iv", "CN", "--max-lag", "3", "--fields", "Physics"),
        ]
        assert all(line.startswith("# config=") for line in lines)
        assert len(set(lines)) == len(lines)

    def test_granger_reports_skipped_cells(self, tmp_path, capsys):
        # Physics is the same five-country clique every year, so its clustering
        # series is constant and that cell cannot be tested; CN's share still varies
        rng = random.Random(5)
        recs = []
        for year in range(2001, 2015):
            physics = [list(p) for p in combinations(["CN", "DE", "FR", "GB", "US"], 2)] + [["CN", "US"]] * (year % 4)
            biology = [rng.sample(["CN", "US", "JP", "KR", "BR"], rng.randint(1, 3)) for _ in range(20)]
            recs += [{"id": f"P{year}-{i}", "year": year, "field": "Physics", "countries": t} for i, t in enumerate(physics)]
            recs += [{"id": f"B{year}-{i}", "year": year, "field": "Biology", "countries": t} for i, t in enumerate(biology)]
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
        ingest_publications(pubs, tmp_path / "corpus", threshold=0)
        out = tmp_path / "granger.csv"
        assert self.run("granger", "--corpus", str(tmp_path / "corpus"), "--iv", "CN", "--threshold", "0",
                        "--fields", "all,Physics", "--metrics", "clustering", "--max-lag", "1",
                        "--out", str(out)) == 0
        summary = capsys.readouterr().out
        assert "(1 cells, " in summary and summary.rstrip().endswith(
            "; 1 skipped: Physics:clustering (target series has no variation after differencing))")
        assert {row.split(",")[0] for row in out.read_text().splitlines()[2:]} == {"all"}

    def test_granger_skips_field_with_one_year(self, tmp_path, capsys):
        # twelve years of all-fields rows and one year of Physics rows: the Physics cells are skipped, not fatal
        rng = random.Random(8)
        rows = ["year,field,country_a,country_b,weight"]
        for year in range(2001, 2013):
            rows += [f"{year},,{a},{b},{rng.randint(1, 9)}"
                     for a, b in combinations(["CN", "DE", "FR", "GB", "JP", "KR", "US"], 2) if rng.random() < 0.6]
        rows += ["2006,Physics,CN,US,3", "2006,Physics,GB,US,2", "2006,Physics,CN,GB,1"]
        (tmp_path / "edges.csv").write_text("\n".join(rows) + "\n")
        corpus = str(tmp_path / "corpus")
        assert self.run("ingest", "--pubs", str(tmp_path / "edges.csv"), "--out", corpus, "--threshold", "0") == 0
        for fields in ("all", "all,Physics"):
            capsys.readouterr()
            assert self.run("granger", "--corpus", corpus, "--iv", "CN", "--threshold", "0", "--fields", fields,
                            "--metrics", "clustering,efficiency", "--max-lag", "1",
                            "--out", str(tmp_path / "granger.csv")) == 0, capsys.readouterr().err
        assert capsys.readouterr().out.rstrip().endswith(
            "(2 cells, residual trend flagged in 0.0% of series; 2 skipped: "
            "Physics:clustering (series too short to difference), Physics:efficiency (series too short to difference))")

    def test_config_file_supplies_defaults(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": str(corpus)}))
        out = tmp_path / "cfgout"
        assert self.run("--config", str(cfg), "series", "--out", str(out), "--threshold", "5") == 0
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("before, after, expect", [
        ((), (), {"m": 2, "seed": 3}),
        ((), ("--m", "3", "--seed", "9"), {"m": 3, "seed": 9}),
        (("--seed", "7"), (), {"m": 2, "seed": 7}),
    ])
    def test_config_file_replaces_defaults(self, corpus, tmp_path, before, after, expect):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": str(corpus), "threshold": 6, "window": 1, "years": "2001:2003",
                                   "metrics": "clustering", "n": 30, "m": 2, "seed": 3}))
        out = tmp_path / "cfgout"
        assert self.run("--config", str(cfg), *before, "series", "--out", str(out)) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert (config["threshold"], config["window"], config["years"]) == (6, 1, [2001, 2003])
        # the global --seed (read by synth only) and synth's --m: a flag before or after the subcommand beats the file
        assert self.run("--config", str(cfg), *before, "synth", "--out", str(tmp_path / "g.json"), *after) == 0
        assert self.run("synth", "--n", "30", "--m", str(expect["m"]), "--seed", str(expect["seed"]),
                        "--out", str(tmp_path / "direct.json")) == 0
        assert (tmp_path / "g.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    @pytest.mark.parametrize("command, key, value, flags, code", [
        ("series", "fields", ["all"], ["--fields", "all"], 0),
        ("series", "countries", ["US", "CN"], ["--countries", "US,CN"], 0),
        ("series", "metrics", ["clustering", "modularity"], ["--metrics", "clustering,modularity"], 0),
        ("series", "metrics", 5, ["--metrics", "5"], 2),
        ("series", "window", 1, ["--window", "1"], 0),
        ("series", "window", 2.5, ["--window", "2.5"], 1),
        ("series", "window", True, ["--window", "true"], 1),
        ("series", "threshold", 10.5, ["--threshold", "10.5"], 1),
        ("series", "years", ["2002:2004"], ["--years", "2002:2004"], 0),
        ("series", "normalize", "bogus", ["--normalize", "bogus"], 1),
        ("series", "bridge", "CN:US", ["--bridge", "CN:US"], 0),
        ("series", "bridge", ["CN:US", "GB:US"], ["--bridge", "CN:US", "--bridge", "GB:US"], 0),
        ("series", "bridge", "C", ["--bridge", "C"], 2),
        ("series", "countries", [["US"]], None, 1),  # no flag spells a nested list
        ("synth", "experiment", True, ["--experiment"], 0),
        ("synth", "experiment", False, [], 0),
        ("synth", "experiment", 1, ["--experiment", "1"], 1),
        ("synth", "seed", "x", ["--seed", "x"], 1),
    ])
    def test_config_value_reads_as_its_flag(self, corpus, tmp_path, command, key, value, flags, code):
        # a list is the flag's comma list, or one flag per item; true/false only set a switch
        base = {"corpus": str(corpus), "years": "2001:2004", "metrics": "clustering",
                "n": 30, "m": 2, "arrival": 10, "eta": 5, "checkpoints": 5}
        (tmp_path / "base.json").write_text(json.dumps(base))
        (tmp_path / "cfg.json").write_text(json.dumps({**base, key: value}))
        by_file = self.run("--config", str(tmp_path / "cfg.json"), command, "--out", str(tmp_path / "file" / "out"))
        assert by_file == code
        if flags is None:
            return
        by_flag = self.run("--config", str(tmp_path / "base.json"), command, *flags, "--out", str(tmp_path / "flag" / "out"))
        assert by_flag == code
        written = [{p.relative_to(side): p.read_bytes() for p in side.rglob("*") if p.is_file()}
                   for side in (tmp_path / "file", tmp_path / "flag")]
        assert written[0] == written[1] and bool(written[0]) == (code == 0)

    def test_config_file_not_an_object_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert self.run("--config", str(cfg), "forecast", "--series", "s.csv", "--out", str(tmp_path / "fc.csv")) == 2

    def test_unknown_metric_exit_2(self, corpus, tmp_path):
        out = tmp_path / "bad"
        assert self.run("series", "--corpus", str(corpus), "--out", str(out), "--threshold", "5",
                        "--metrics", "clustering,not_a_metric") == 2
        assert not out.exists()
        assert self.run("granger", "--corpus", str(corpus), "--iv", "CN", "--threshold", "5",
                        "--metrics", "clustering,bogus", "--out", str(out / "granger.csv")) == 2
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["inf", "nan", "0", "-1"])
    def test_non_finite_or_zero_edge_weight_exit_2(self, tmp_path, capsys, weight):
        # each row is checked, so a bad row is refused even where the pair's sum would be positive
        edges = tmp_path / "edges.csv"
        edges.write_text(f"year,field,country_a,country_b,weight\n2001,all,US,CN,{weight}\n2001,all,CN,US,5\n"
                         "2001,all,US,GB,2\n")
        assert self.run("ingest", "--pubs", str(edges), "--out", str(tmp_path / "corpus"), "--threshold", "0") == 2
        assert "of US-CN in 2001/all must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("row, error", [("2001,,US", "short row"), ("2001,, ,CN,2", "blank country")])
    def test_short_or_blank_edge_csv_row_exit_2(self, tmp_path, capsys, row, error):
        edges = tmp_path / "edges.csv"
        edges.write_text(f"year,field,country_a,country_b,weight\n2001,all,US,GB,2\n{row}\n")
        assert self.run("ingest", "--pubs", str(edges), "--out", str(tmp_path / "corpus"), "--threshold", "0") == 2
        assert f"bad edge CSV row in {edges} at line 3: {error}" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("name, short, error", [("edges_2005_all.csv", "2005,all,CN,US", "bad edge row"),
                                                    ("stats_2002_all.csv", "2002,all,FR", "bad stats row")])
    def test_short_corpus_row_exit_2(self, corpus, tmp_path, capsys, name, short, error):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        path = copy / name
        path.write_text(path.read_text() + short + "\n")
        assert self.run("series", "--corpus", str(copy), "--threshold", "5", "--out", str(tmp_path / "series")) == 2
        assert f"{error} in {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("row, error", [("2002,all,ZZ,5,3", "intl_pubs=5 and total_pubs=3 break"),
                                            ("2002,all,ZZ,-1,3", "intl_pubs=-1 and total_pubs=3 break"),
                                            ("2002,all,ZZ,0,-1", "intl_pubs=0 and total_pubs=-1 break"),
                                            ("2002,all,US,1,2", "country US repeated")])
    def test_bad_stats_row_exit_2(self, corpus, tmp_path, capsys, row, error):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        path = copy / "stats_2002_all.csv"
        text = path.read_text()
        path.write_text(text + row + "\n")
        assert self.run("series", "--corpus", str(copy), "--threshold", "5", "--out", str(tmp_path / "series")) == 2
        assert f"bad stats row in {path} at line {len(text.splitlines()) + 1}: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["edge", "stats"])
    @pytest.mark.parametrize("year, field", [("2003", "all"), ("2002", "Physics"), ("02002", "all"), ("2002", "")])
    def test_row_of_another_slice_exit_2(self, corpus, tmp_path, capsys, table, year, field):
        # a misplaced or hand-edited table must not feed the slice its file name stands for
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        path = copy / f"{'edges' if table == 'edge' else 'stats'}_2002_all.csv"
        lines = path.read_text().splitlines(True)
        assert lines[2].startswith("2002,all,")
        lines[2] = f"{year},{field}," + lines[2][len("2002,all,"):]
        path.write_text("".join(lines))
        assert self.run("series", "--corpus", str(copy), "--threshold", "5", "--out", str(tmp_path / "series")) == 2
        err = capsys.readouterr().err
        assert (f"bad {table} row in {path} at line 3: year '{year}' and field '{field}' "
                "are not the file's slice 2002/all") in err
        assert not (tmp_path / "series").exists()

    @pytest.mark.parametrize("name, text, error", [
        ("pubs.jsonl", '{"year": 2001, "field": "Physics", "countries": ["US", "CN"]}\n'
                       '{"year": 2001, "field": "physics", "countries": ["US", "GB"]}\n',
         "'Physics' and 'physics' would share the file name slug"),
        ("pubs.jsonl", '{"year": 2001, "field": "Physics", "countries": ["US", "CN"]}\n'
                       '{"year": 2001, "field": "All", "countries": ["US", "GB"]}\n',
         "'all' and 'All' would share the file name slug"),
        ("edges.csv", "year,field,country_a,country_b,weight\n2001,Physics,US,CN,1\n2001,physics,US,GB,1\n",
         "'Physics' and 'physics' would share the file name slug"),
        ("pubs.jsonl", json.dumps({"year": 2001, "field": "F" * 201, "countries": ["US", "CN"]}),
         "has a file name slug of 201 characters, more than 200"),
    ])
    def test_field_that_cannot_name_its_files_exit_2(self, tmp_path, capsys, name, text, error):
        # one field's slices would overwrite the other's, or open a file name too long
        (tmp_path / name).write_text(text)
        assert self.run("ingest", "--pubs", str(tmp_path / name), "--out", str(tmp_path / "corpus"), "--threshold", "0") == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    def test_nan_series_cell_forecast_exit_2(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("# name=s\nyear,value\n" + "".join(
            f"{2001 + i},{'nan' if i == 5 else float(i)}\n" for i in range(12)))
        assert self.run("forecast", "--series", str(series), "--out", str(tmp_path / "fc.csv")) == 2

    def test_forecast_of_non_consecutive_years_exit_2(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("# name=s\nyear,value\n" + "".join(
            f"{year},{float(i)}\n" for i, year in enumerate(y for y in range(2001, 2014) if y != 2006)))
        assert self.run("forecast", "--series", str(series), "--out", str(tmp_path / "fc.csv")) == 2
        assert "consecutive" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    def test_forecast_horizon_beyond_series_length_exit_2(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("# name=s\nyear,value\n" + "".join(f"{2001 + i},{float(i % 4)}\n" for i in range(12)))
        assert self.run("forecast", "--series", str(series), "--horizon", "12", "--out", str(tmp_path / "ok.csv")) == 0
        assert self.run("forecast", "--series", str(series), "--horizon", "1000000", "--out", str(tmp_path / "fc.csv")) == 2
        assert "horizon 1000000 exceeds" in capsys.readouterr().err
        assert not (tmp_path / "fc.csv").exists()

    @pytest.mark.parametrize("level", ["1.5", "1", "0", "-0.2", "nan"])
    def test_forecast_level_outside_unit_interval_exit_2(self, tmp_path, level):
        series = tmp_path / "s.csv"
        series.write_text("# name=s\nyear,value\n" + "".join(f"{2001 + i},{float(i % 4)}\n" for i in range(12)))
        assert self.run("forecast", "--series", str(series), "--level", level, "--out", str(tmp_path / "fc.csv")) == 2
        assert not (tmp_path / "fc.csv").exists()

    @pytest.mark.parametrize("rows", [
        "year,point,lower,upper\n2013,abc,0.1,0.9\n",
        "year,point,lower\n2013,0.5,0.1\n",
        "year,point,lower,upper\n2013,0.5,0.1\n",
        "year,point,lower,upper\n2013,0.5,-inf,0.9\n",
        "year,point,lower,upper\n2013.5,0.5,0.1,0.9\n",
    ])
    def test_malformed_forecast_csv_chart_exit_2(self, tmp_path, rows):
        series, fc = tmp_path / "s.csv", tmp_path / "fc.csv"
        series.write_text("# name=s\nyear,value\n2011,0.25\n2012,0.5\n")
        fc.write_text("# model=ar1+drift\n" + rows)
        assert self.run("chart", "--series", str(series), "--forecast", str(fc), "--out", str(tmp_path / "c.svg")) == 2
        assert not (tmp_path / "c.svg").exists()

    def test_env_var_corpus_default(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("COLLABNET_CORPUS", str(corpus))
        parser_out = tmp_path / "envout"
        assert self.run("series", "--out", str(parser_out), "--threshold", "5") == 0
