"""Each output check passes on the program's real outputs and fails on a perturbed copy.

Runs a small instance of every workload through the CLI (a 2,000-record
corpus at threshold 3, and a 300-node hole-closure run), then feeds each
check in checks.py the outputs with one value changed.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import logging
import sys
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import pubgen  # noqa: E402
from collabnet import cli, synth  # noqa: E402

SEED, RECORDS, THRESHOLD = 5, 2000, 3
YEARS = [2022, 2023, 2024]
COUNTRIES = ("US", "CN", "GB")
BRIDGES = (("CN", "US"), ("GB", "US"))
FIELDS = ",".join(("all",) + pubgen.FIELDS)


def _cli(*argv: str) -> None:
    logging.disable(logging.WARNING)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0
    finally:
        logging.disable(logging.NOTSET)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    pubs, corpus, results = tmp / "pubs.jsonl", tmp / "corpus", tmp / "results"
    lines = pubgen.write_corpus(pubs, SEED, RECORDS)
    _cli("ingest", "--pubs", str(pubs), "--out", str(corpus), "--threshold", str(THRESHOLD))
    _cli("series", "--corpus", str(corpus), "--out", str(results), "--years", "2022:2024",
         "--fields", FIELDS, "--threshold", str(THRESHOLD), "--countries", ",".join(COUNTRIES),
         "--bridge", "CN:US", "--bridge", "GB:US")
    _cli("granger", "--corpus", str(corpus), "--iv", "CN", "--fields", FIELDS, "--threshold", str(THRESHOLD),
         "--metrics", "kcore_max,kcore_nodes,kcore_ratio,clustering,efficiency,betw_centralization,avg_bc",
         "--max-lag", "6", "--out", str(tmp / "granger.csv"))
    _cli("synth", "--experiment", "--n", "300", "--m", "3", "--eta", "5", "--arrival", "100",
         "--checkpoints", "100", "--densify-closure", "0.01", "--densify-random", "0.005",
         "--seed", "3", "--out", str(tmp / "run.json"))

    ref = checks.recount(pubgen.generate(SEED, RECORDS), THRESHOLD)
    corpus_out = checks.load_corpus(corpus)
    slices = [(y, f) for f in ref.fields for y in YEARS if ref.window_graph(y, f, 3).number_of_nodes() >= 3]
    rows = checks.load_granger(tmp / "granger.csv")
    cells = sorted({(r["field"], r["metric"]) for r in rows})
    run = json.loads((tmp / "run.json").read_text(encoding="utf-8"))
    traj = synth.generate_fitness(synth.SynthConfig(**run["config"]))
    graphs = {}
    for cp in run["checkpoints"]:
        net = traj.graph_at(cp["node_count"])
        graphs[cp["node_count"]] = g = nx.Graph()
        g.add_nodes_from(net.nodes)
        g.add_edges_from(net.edges)
    return {
        "ref": ref, "lines": lines, "corpus": corpus_out, "slices": slices,
        "series": checks.load_series(results / "series", corpus_out["manifest"]["field_slugs"]),
        "rows": rows, "cells": cells, "run": run, "graphs": graphs,
    }


def run_ingest(o):
    return checks.check_ingest(o["corpus"], o["ref"], o["lines"], pubgen.MALFORMED_LINES)


def run_series(o):
    return checks.check_series(o["series"], o["ref"], YEARS, 3, COUNTRIES, BRIDGES, o["slices"], o["slices"])


def run_series_bounds(o):
    return checks.check_series(o["series"], o["ref"], YEARS, 3, COUNTRIES, BRIDGES, [], [])


def run_granger(o):
    return checks.check_granger(o["rows"], o["ref"], "CN", o["cells"], 6)


def run_hole(o):
    return checks.check_hole(o["run"], o["graphs"])


CHECKS = {"ingest": run_ingest, "series": run_series, "series_bounds": run_series_bounds,
          "granger": run_granger, "hole": run_hole}


def test_real_outputs_pass(outputs):
    assert len(outputs["slices"]) >= 3 and len(outputs["cells"]) >= 3
    for name, check in CHECKS.items():
        assert check(outputs) == [], name


# --- perturbations: each takes a deep copy of the outputs and changes one value


def _first_edge_slice(o):
    return next(k for k, v in sorted(o["corpus"]["edges"].items()) if v)


def _bump_edge(o):
    edges = o["corpus"]["edges"][_first_edge_slice(o)]
    pair = sorted(edges)[0]
    edges[pair] += 1.0


def _drop_stats_row(o):
    stats = o["corpus"]["stats"][_first_edge_slice(o)]
    del stats[sorted(stats)[0]]


def _bump_intl(o):
    stats = o["corpus"]["stats"][_first_edge_slice(o)]
    c = sorted(stats)[0]
    stats[c] = (stats[c][0] + 1, stats[c][1] + 1)


def _skip_count(o):
    o["corpus"]["manifest"]["skipped"] -= 1


def _series_value(name_of, factor=1.001, offset=0.0):
    def perturb(o):
        for year, fld in o["slices"]:
            key = (fld, name_of(fld, year))
            value = o["series"].get(key, {}).get(year)
            if value:
                o["series"][key][year] = value * factor + offset
                return
        raise AssertionError(f"no value to perturb for {name_of('all', YEARS[0])}")
    return perturb


def _set_series(name, value):
    def perturb(o):
        o["series"][("all", name)][YEARS[0]] = value
    return perturb


def _drop_year(o):
    del o["series"][("all", "clustering")][YEARS[-1]]


def _granger_row(pred, change):
    def perturb(o):
        sampled = set(o["cells"])
        row = next(r for r in o["rows"] if (r["field"], r["metric"]) in sampled and pred(r))
        change(row)
    return perturb


def _adj_order(o):
    rows = sorted(o["rows"], key=lambda r: r["p_raw"])
    assert any(r["p_adj"] < 1.0 and r["p_raw"] > rows[0]["p_raw"] for r in rows)
    rows[0]["p_adj"] = 1.0  # still within [p_raw, 1], but above later rows


def _drop_cell(o):
    cell = o["cells"][0]
    o["rows"] = [r for r in o["rows"] if (r["field"], r["metric"]) != cell]


def _checkpoint(key, change):
    def perturb(o):
        cp = o["run"]["checkpoints"][-1]
        cp[key] = change(cp[key])
    return perturb


def _hub_bc(o):
    o["run"]["checkpoints"][0]["hub_bc_norm"] *= 1.001


def _rename_hub(o):
    o["run"]["hub"] = "N00003" if o["run"]["hub"] == "N00002" else "N00002"


def _disconnect(o):
    g = o["graphs"][max(o["graphs"])]
    v = max(g.nodes)
    g.remove_edges_from(list(g.edges(v)))


# name -> (check, perturbation, text the check's failure message must contain)
PERTURBATIONS = {
    "ingest: edge weight +1": ("ingest", _bump_edge, "edges "),
    "ingest: stats row dropped": ("ingest", _drop_stats_row, "stats "),
    "ingest: intl count +1": ("ingest", _bump_intl, "stats "),
    "ingest: skipped count -1": ("ingest", _skip_count, "planted malformed"),
    "series: bc": ("series", _series_value(lambda f, y: "bc:US"), "bc:US"),
    "series: deg": ("series", _series_value(lambda f, y: "deg:US"), "deg:US"),
    "series: clustering": ("series", _series_value(lambda f, y: "clustering"), "clustering"),
    "series: efficiency": ("series", _series_value(lambda f, y: "efficiency"), "efficiency"),
    "series: kcore_nodes": ("series", _series_value(lambda f, y: "kcore_nodes", 1.0, 1.0), "kcore_nodes"),
    "series: avg_bc identity": ("series", _series_value(lambda f, y: "avg_bc"), "detour sum"),
    "series: betw_centralization": ("series", _series_value(lambda f, y: "betw_centralization"), "betw_centralization"),
    "series: bcw": ("series", _series_value(lambda f, y: "bcw:US"), "bcw:US"),
    "series: bridge": ("series", _series_value(lambda f, y: "bridge:GB->US", 0.5), "bridge:GB->US"),
    "series: modularity bound": ("series_bounds", _set_series("modularity", 1.0), "outside [-1/2, 1)"),
    "series: communities bound": ("series_bounds", _set_series("num_communities", 0.0), "num_communities"),
    "series: bc bound": ("series_bounds", _set_series("bc:US", 1.5), "outside [0, 1]"),
    "series: year dropped": ("series_bounds", _drop_year, "covers years"),
    "granger: p_raw": ("granger", _granger_row(lambda r: r["p_raw"] > 1e-6, lambda r: r.update(p_raw=r["p_raw"] * 1.01)), "want"),
    "granger: p_adj below raw": ("granger", _granger_row(lambda r: r["p_raw"] > 1e-6, lambda r: r.update(p_adj=r["p_raw"] / 2)), "not in [p_raw"),
    "granger: p_adj order": ("granger", _adj_order, "decreases in raw order"),
    "granger: flag": ("granger", _granger_row(lambda r: True, lambda r: r.update(flag=1 - r["flag"])), ": flag"),
    "granger: min_p_adj": ("granger", _granger_row(lambda r: True, lambda r: r.update(min_p_adj=r["min_p_adj"] * 1.5)), "min over lags"),
    "granger: cell dropped": ("granger", _drop_cell, "missing from the output"),
    "hole: node count": ("hole", _checkpoint("node_count", lambda v: v - 1), "node counts"),
    "hole: clustering": ("hole", _checkpoint("avg_clustering", lambda v: v * 1.001), "avg_clustering"),
    "hole: efficiency": ("hole", _checkpoint("global_efficiency", lambda v: v * 1.001), "global_efficiency"),
    "hole: max_k": ("hole", _checkpoint("max_k", lambda v: v + 1), "max_k"),
    "hole: communities bound": ("hole", _checkpoint("communities", lambda v: 0), "communities at"),
    "hole: hub bc": ("hole", _hub_bc, "hub_bc_norm"),
    "hole: hub": ("hole", _rename_hub, "highest-degree"),
    "hole: disconnected graph": ("hole", _disconnect, "not connected"),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_perturbed_output_fails(outputs, name):
    check, perturb, expect = PERTURBATIONS[name]
    bad = dict(outputs)
    for key in ("corpus", "series", "rows", "run", "graphs"):
        bad[key] = copy.deepcopy(outputs[key])
    perturb(bad)
    fails = CHECKS[check](bad)
    assert any(expect in msg for msg in fails), f"{check} check missed a perturbed output ({name}): {fails}"


def test_cell_without_usable_lag_is_not_missing():
    """A target that moves only in its last year has all-zero own lags at
    every lag, so no lag can be tested; the program leaves such a cell out
    of its output and the check must not call it missing."""
    years = list(range(2001, 2016))
    slices = {}
    for year in years:
        sl = checks.Slice()
        sl.pubs, sl.intl["CN"] = 10, year % 4
        # a triangle (k-core ratio 1), plus a pendant node in the last year
        for pair in (("CN", "GB"), ("CN", "US"), ("GB", "US")) + ((("DE", "US"),) if year == years[-1] else ()):
            sl.edges[pair] = 5
        slices[(year, "all")] = sl
    ref = checks.Recount(years, ["all"], 0, slices)
    target = [checks.hop_metrics(ref.window_graph(y, "all", 1), ("kcore_ratio",))["kcore_ratio"] for y in years]
    assert checks.f_test_pvalues(checks.participation(ref, "CN", "all"), target, 6) == {}
    other = {"field": "all", "metric": "clustering", "lag": 1, "p_raw": 0.5, "p_adj": 0.5, "min_p_adj": 0.5, "flag": 0}
    assert checks.check_granger([other], ref, "CN", [("all", "kcore_ratio")], 6) == []
