"""Golden snapshot: refactors must leave every output byte as it was.

A small seeded `pubgen` corpus (the benchmark's generator, imported
through sys.path) is ingested and run through `series`, `build`,
`metrics` and `granger` (the last two also once with every metric they
know), through `bridge` twice and `build` and `series` once more with
other windows, years and normalizations, and through `forecast` of one
all-fields series and a `chart` of two series with that forecast as its
band; bridging in both modes, a shortened
hole-closure run and the standard 1,000-node run of seed 1 (whose CNM
merges meet many tied gains) are computed in-process. Each output is hashed
(sha256) and compared with tests/golden.json. Three corpus layouts are
hashed as whole trees (every file's relative name and bytes): the
ingested JSONL corpus, an edge-CSV ingest, and `synth.export_corpus` for
24 years and for 1 year. Next to the hashes the
snapshot keeps the values the paper's argument rests on (US `bc`/`bcw`
and CN `bcw` in the first and last all-fields windows, and the hub's
normalized betweenness, average clustering and global efficiency at the
first and last checkpoints of the standard seed-1 run), so a broken hash
also reports which named value moved and by how much.

The CSVs and summary.json embed the config hash, which covers the corpus
path, so the outputs are built from a fixed relative `corpus` directory.

A change that is meant to move outputs regenerates the snapshot with

    PYTHONPATH=src python tests/test_golden.py

and names the moved values in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
sys.path.insert(0, str(HERE.parent / "src"))

import pubgen  # noqa: E402
from collabnet import cli, synth  # noqa: E402
from collabnet.graph import CollabNetwork  # noqa: E402
from collabnet.paths import bridging_fraction  # noqa: E402
from collabnet.pipeline import read_series_csv  # noqa: E402

GOLDEN = HERE / "golden.json"
SEED, RECORDS, THRESHOLD = 5, 4000, "3"
FIELDS = "all,Physics,Medicine"
BRIDGES = (("CN", "US"), ("GB", "US"))
SYNTH = synth.SynthConfig(
    seed=3, n_final=500, m=3, fitness_law="entrant", eta=5.0, entrant_arrival=100,
    checkpoint_stride=100, densify_closure=0.01, densify_random=0.005,
)
# pre-aggregated input: lowercase codes, an empty field cell, a fractional
# weight; at EDGE_THRESHOLD, IN (weight 2.5 -> stats 2) drops out of 2001
EDGE_CSV = """year,field,country_a,country_b,weight
2001,Physics,us,cn,5
2001,Physics,us,in,2.5
2001,,gb,us,4
2002,Medicine,cn,gb,3
2002,Physics,US,CN,7
2003,,fr,de,6
2003,Medicine,us,fr,1.25
"""
EDGE_THRESHOLD = "3"
EXPORT = synth.SynthConfig(seed=5, n_final=150, m=2)
ALL_NET_METRICS = "bc,bcw,ev,deg,centralization,kcore,kcore_bc,clustering,efficiency,communities,ego:US"
ALL_GLOBAL_METRICS = ("kcore_max,kcore_nodes,kcore_ratio,clustering,efficiency,num_communities,modularity,"
                      "betw_centralization,avg_bc")
# (series file, label) pairs whose first and last values are named
NAMED = (("bc_US__all.csv", "bc:US"), ("bcw_US__all.csv", "bcw:US"), ("bcw_CN__all.csv", "bcw:CN"))
# hole-closure checkpoint fields named at the standard seed-1 run's first and last checkpoints
NAMED_HOLE = ("hub_bc_norm", "avg_clustering", "global_efficiency")


def _cli(*argv: str) -> None:
    logging.disable(logging.WARNING)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
    finally:
        logging.disable(logging.NOTSET)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_sha(root: Path) -> str:
    """sha256 over the relative name and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def build_snapshot(workdir: Path) -> dict:
    """Run every snapshotted output inside `workdir`; returns hashes and named values."""
    prev = Path.cwd()
    os.chdir(workdir)
    try:
        pubgen.write_corpus("pubs.jsonl", SEED, RECORDS)
        _cli("ingest", "--pubs", "pubs.jsonl", "--out", "corpus", "--threshold", THRESHOLD)
        bridge_args = [arg for src, via in BRIDGES for arg in ("--bridge", f"{src}:{via}")]
        _cli("series", "--corpus", "corpus", "--out", "results", "--fields", FIELDS,
             "--threshold", THRESHOLD, "--countries", "US,CN,GB", *bridge_args)
        _cli("build", "--corpus", "corpus", "--year", "2024", "--threshold", THRESHOLD, "--out", "net.json")
        _cli("metrics", "--net", "net.json", "--metric", "bc,bcw,centralization,efficiency,kcore_bc",
             "--out", "metrics.csv")
        _cli("granger", "--corpus", "corpus", "--iv", "CN", "--threshold", THRESHOLD, "--out", "granger.csv")
        # every metric at once; the metrics tree holds the CSV and its .communities.json
        _cli("metrics", "--net", "net.json", "--metric", ALL_NET_METRICS, "--out", "metrics_all/metrics.csv")
        _cli("granger", "--corpus", "corpus", "--iv", "CN", "--threshold", THRESHOLD, "--fields", "all,Physics",
             "--metrics", ALL_GLOBAL_METRICS, "--out", "granger_all.csv")
        # the window-loading commands at their defaults and at non-default windows, years and normalizations
        _cli("bridge", "--corpus", "corpus", "--source", "CN", "--via", "US", "--out", "bridge.csv")
        _cli("bridge", "--corpus", "corpus", "--source", "GB", "--via", "US", "--mode", "sigma", "--window", "2",
             "--years", "2005:2020", "--field", "Physics", "--out", "bridge_sigma.csv")
        _cli("build", "--corpus", "corpus", "--year", "2003", "--normalize", "salton", "--out", "net_salton.json")
        _cli("series", "--corpus", "corpus", "--out", "results_jaccard", "--fields", "Physics", "--window", "2",
             "--normalize", "jaccard", "--countries", "US")
        # the forecast writer, and the series and forecast readers behind a chart with a band
        _cli("forecast", "--series", "results/series/clustering__all.csv", "--out", "forecast.csv")
        _cli("chart", "--series", "results/series/bc_US__all.csv", "results/series/bcw_US__all.csv",
             "--forecast", "forecast.csv", "--out", "chart.svg")

        hashes = {f"series/{p.name}": _sha(p.read_bytes()) for p in sorted(Path("results/series").iterdir())}
        for name in ("results/summary.json", "metrics.csv", "granger.csv", "granger_all.csv", "bridge.csv",
                     "bridge_sigma.csv", "net_salton.json", "forecast.csv", "chart.svg"):
            hashes[Path(name).name] = _sha(Path(name).read_bytes())

        net = CollabNetwork.load("net.json")
        bridging = "".join(
            f"{src},{via},{mode},{bridging_fraction(net, src, via, mode).fraction!r}\n"
            for src, via in BRIDGES for mode in ("any", "sigma")
        )
        hashes["bridging"] = _sha(bridging.encode())
        hashes["synth_run"] = _sha(synth.hole_closure_experiment(SYNTH).to_json().encode())
        standard = synth.hole_closure_experiment(synth.standard_run_config(1))
        hashes["synth_run_standard_1"] = _sha(standard.to_json().encode())
        values = {
            f"{name}:standard_1@{cp.node_count}": getattr(cp, name)
            for cp in (standard.checkpoints[0], standard.checkpoints[-1]) for name in NAMED_HOLE
        }

        hashes["tree/metrics_all"] = _tree_sha(Path("metrics_all"))
        hashes["tree/results_jaccard"] = _tree_sha(Path("results_jaccard"))
        hashes["tree/corpus"] = _tree_sha(Path("corpus"))
        Path("edges.csv").write_text(EDGE_CSV, encoding="utf-8")
        _cli("ingest", "--pubs", "edges.csv", "--out", "edge_corpus", "--threshold", EDGE_THRESHOLD)
        hashes["tree/edge_corpus"] = _tree_sha(Path("edge_corpus"))
        traj = synth.generate_fitness(EXPORT)
        for years in (24, 1):
            synth.export_corpus(traj, f"export_{years}", years=years)
            hashes[f"tree/export_{years}"] = _tree_sha(Path(f"export_{years}"))

        for fname, label in NAMED:
            series = read_series_csv(Path("results/series") / fname)
            years, vals = series.present()
            for i in (0, -1):
                values[f"{label}@{years[i]}"] = float(vals[i])
    finally:
        os.chdir(prev)
    return {"hashes": hashes, "values": values}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def snapshot(workdir):
    return build_snapshot(workdir)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _moved(golden: dict, snapshot: dict) -> str:
    lines = []
    for name, old in golden["values"].items():
        new = snapshot["values"].get(name)
        if new != old:
            diff = "" if new is None else f" ({new - old:+.3e})"
            lines.append(f"  {name}: {old!r} -> {new!r}{diff}")
    return "\n".join(lines) or "  (no named value moved)"


def test_named_values(golden, snapshot):
    assert snapshot["values"] == golden["values"], "named values moved:\n" + _moved(golden, snapshot)


def test_output_hashes(golden, snapshot):
    old, new = golden["hashes"], snapshot["hashes"]
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    assert not changed, f"outputs changed: {changed}\nnamed values:\n" + _moved(golden, snapshot)


def test_dense_window_prune(snapshot, workdir):
    """The 2024 all-fields window keeps only the CSR entries that can end a co-minimal path."""
    net = CollabNetwork.load(workdir / "net.json")
    assert (net.n, net.adjacency.nnz, len(net.geodesics[1][0])) == (164, 5742, 902)


def _first_last(values: dict, label: str) -> tuple[float, float]:
    """The named value of `label` in its first and last present year."""
    by_year = sorted((int(key.split("@")[1]), v) for key, v in values.items() if key.split("@")[0] == label)
    return by_year[0][1], by_year[-1][1]


def test_brokerage_asymmetry_direction(snapshot):
    """The paper's asymmetry: US topological BC falls by a larger share than its weighted BC changes."""
    bc_first, bc_last = _first_last(snapshot["values"], "bc:US")
    bcw_first, bcw_last = _first_last(snapshot["values"], "bcw:US")
    bc_change = (bc_last - bc_first) / bc_first
    bcw_change = (bcw_last - bcw_first) / bcw_first
    assert bc_change < 0, f"US bc did not fall: {bc_first!r} -> {bc_last!r}"
    assert bc_change < bcw_change, f"US bc changed by {bc_change:+.1%}, bcw by {bcw_change:+.1%}"
    cn_first, cn_last = _first_last(snapshot["values"], "bcw:CN")
    assert cn_last > cn_first, f"CN bcw did not rise: {cn_first!r} -> {cn_last!r}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        snap = build_snapshot(Path(tmp))
    GOLDEN.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(snap['hashes'])} hashes)")
