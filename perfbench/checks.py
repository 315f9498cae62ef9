"""Output checks made apart from the program.

Every reference value here comes from the generator's own records or from
networkx, numpy and scipy; nothing calls collabnet's metric code. Each
`check_*` function takes the program's parsed outputs plus the reference
data and returns a list of failure messages (empty when the outputs are
correct), so `test_checks.py` can feed each one a perturbed output.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
from scipy import stats
from scipy.sparse.csgraph import shortest_path

ALL = "all"
REL_TOL = 1e-9
ABS_TOL = 1e-12
UNIT_METRICS = ("clustering", "efficiency", "kcore_ratio", "betw_centralization")
UNIT_PREFIXES = ("bc:", "bcw:", "deg:", "bridge:")


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Reference counts from the generator's records


@dataclass
class Slice:
    pubs: int = 0
    total: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    intl: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    edges: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))


@dataclass
class Recount:
    """Per-(year, field) counts, with edges already thresholded."""

    years: list[int]
    fields: list[str]
    records: int
    slices: dict[tuple[int, str], Slice]

    def window_graph(self, year: int, fld: str, window: int) -> nx.Graph:
        """The program's window network, rebuilt: summed thresholded annual edges."""
        weights: dict[tuple[str, str], int] = defaultdict(int)
        for y in range(year - window + 1, year + 1):
            for pair, w in self.slices.get((y, fld), Slice()).edges.items():
                weights[pair] += w
        graph = nx.Graph()
        for (a, b), w in weights.items():
            graph.add_edge(a, b, w=w)
        return graph


def recount(records, threshold: int) -> Recount:
    slices: dict[tuple[int, str], Slice] = defaultdict(Slice)
    n = 0
    for rec in records:
        n += 1
        countries = sorted(set(rec["countries"]))
        international = len(countries) >= 2
        for fld in (ALL, rec["field"]):
            sl = slices[(rec["year"], fld)]
            sl.pubs += 1
            for c in countries:
                sl.total[c] += 1
                sl.intl[c] += international
            for pair in combinations(countries, 2):
                sl.edges[pair] += 1
    for sl in slices.values():
        keep = {c for c, k in sl.intl.items() if k >= threshold}
        sl.edges = {(a, b): w for (a, b), w in sl.edges.items() if a in keep and b in keep}
    years = sorted({y for y, _ in slices})
    fields = [ALL] + sorted({f for _, f in slices} - {ALL})
    return Recount(years, fields, n, dict(slices))


# ---------------------------------------------------------------------------
# Loaders for the program's outputs


def load_corpus(corpus: Path) -> dict:
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    edges, cstats = {}, {}
    for fld, slug in manifest["field_slugs"].items():
        for year in manifest["years"]:
            with (corpus / f"edges_{year}_{slug}.csv").open(encoding="utf-8", newline="") as fh:
                edges[(year, fld)] = {(r["country_a"], r["country_b"]): float(r["weight"]) for r in csv.DictReader(fh)}
            with (corpus / f"stats_{year}_{slug}.csv").open(encoding="utf-8", newline="") as fh:
                cstats[(year, fld)] = {r["country"]: (int(r["intl_pubs"]), int(r["total_pubs"])) for r in csv.DictReader(fh)}
    return {"manifest": manifest, "edges": edges, "stats": cstats}


def load_series(series_dir: Path, field_slugs: dict[str, str]) -> dict[tuple[str, str], dict[int, float | None]]:
    """{(field, series name): {year: value or None}} from every series CSV."""
    by_slug = {slug: fld for fld, slug in field_slugs.items()}
    out = {}
    for path in sorted(series_dir.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        name = next(line.split("=", 1)[1] for line in lines if line.startswith("# name="))
        rows = csv.DictReader(line for line in lines if not line.startswith("#"))
        fld = by_slug[path.stem.rsplit("__", 1)[1]]
        out[(fld, name)] = {int(r["year"]): (float(r["value"]) if r["value"] else None) for r in rows}
    return out


def load_granger(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    for r in rows:
        r["lag"] = int(r["lag"])
        for key in ("p_raw", "p_adj"):
            r[key] = float(r[key])
        r["min_p_adj"] = float(r["min_p_adj"]) if r["min_p_adj"] else None
        r["flag"] = int(r["flag"])
    return rows


# ---------------------------------------------------------------------------
# country_series: ingest


def check_ingest(corpus: dict, ref: Recount, lines_written: int, planted: int) -> list[str]:
    fails = []
    man = corpus["manifest"]
    if man["records"] + man["skipped"] != lines_written:
        fails.append(f"manifest records {man['records']} + skipped {man['skipped']} != {lines_written} lines written")
    if man["skipped"] != planted:
        fails.append(f"manifest skipped {man['skipped']} != {planted} planted malformed lines")
    if man["records"] != ref.records:
        fails.append(f"manifest records {man['records']} != {ref.records} generated")
    if man["years"] != ref.years or man["fields"] != ref.fields:
        fails.append(f"manifest slices {man['years']} x {man['fields']} != {ref.years} x {ref.fields}")
    for year in ref.years:
        for fld in ref.fields:
            sl = ref.slices.get((year, fld), Slice())
            want_edges = {pair: float(w) for pair, w in sl.edges.items()}
            got_edges = corpus["edges"].get((year, fld))
            if got_edges != want_edges:
                fails.append(f"edges {year}/{fld}: {_dict_diff(got_edges, want_edges)}")
            want_stats = {c: (sl.intl[c], sl.total[c]) for c in sl.total}
            got_stats = corpus["stats"].get((year, fld))
            if got_stats != want_stats:
                fails.append(f"stats {year}/{fld}: {_dict_diff(got_stats, want_stats)}")
    return fails


def _dict_diff(got, want) -> str:
    if got is None:
        return "missing"
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k) != want.get(k)]
    return f"{len(bad)} entries differ, first {bad[0]}: got {got.get(bad[0])}, want {want.get(bad[0])}"


# ---------------------------------------------------------------------------
# country_series: metric series


def _value(series, fld, name, year):
    return series.get((fld, name), {}).get(year, "absent")


def _compare(fails, label, got, want, rel=REL_TOL) -> None:
    if want is None or got is None or got == "absent":
        if got != want:
            fails.append(f"{label}: got {got}, want {want}")
    elif not close(got, want, rel):
        fails.append(f"{label}: got {got!r}, want {want!r}")


BC_METRICS = ("bc", "avg_bc", "betw_centralization")
HOP_METRICS = ("kcore_max", "kcore_nodes", "kcore_ratio", "clustering", "efficiency", "deg") + BC_METRICS


def hop_metrics(graph: nx.Graph, want=HOP_METRICS) -> dict:
    """k-core, clustering, efficiency, degree and topological BC by networkx.

    Values the program leaves empty for small networks (efficiency and
    degree below 2 nodes, betweenness below 3) are None.
    """
    n = graph.number_of_nodes()
    out: dict = {"n": n}
    if n == 0:
        return out
    if {"kcore_max", "kcore_nodes", "kcore_ratio"} & set(want):
        core = nx.core_number(graph)
        max_k = max(core.values())
        members = sum(1 for k in core.values() if k == max_k)
        out.update(kcore_max=float(max_k), kcore_nodes=float(members), kcore_ratio=members / n)
    if "clustering" in want:
        out["clustering"] = nx.average_clustering(graph)
    if "efficiency" in want:
        out["efficiency"] = nx.global_efficiency(graph) if n >= 2 else None
    if "deg" in want:
        out["deg"] = nx.degree_centrality(graph) if n >= 2 else None
    if set(BC_METRICS) & set(want):
        out.update(dict.fromkeys(BC_METRICS))
        if n >= 3:
            bc = nx.betweenness_centrality(graph, normalized=True)
            vals = np.array(list(bc.values()))
            out.update(bc=bc, avg_bc=float(vals.mean()), betw_centralization=float((vals.max() - vals).sum() / (n - 1)))
            # sum over v of raw BC == sum over connected pairs of (hops - 1)
            lengths = nx.all_pairs_shortest_path_length(graph)
            out["detour_sum"] = sum(d - 1 for _, dist in lengths for d in dist.values() if d > 0) / 2
    return out


def exact_weighted(graph: nx.Graph, pairs) -> tuple[dict, dict]:
    """Normalized weighted BC and 'any'-mode bridging fractions, with exact distances.

    Distances are 1/w; scaling every edge by the lcm of the weights makes
    them integers, so ties are exact without a tolerance.
    """
    scale = math.lcm(*(d["w"] for _, _, d in graph.edges(data=True))) if graph.number_of_edges() else 1
    for _, _, d in graph.edges(data=True):
        d["dist"] = scale // d["w"]
    n = graph.number_of_nodes()
    bcw = nx.betweenness_centrality(graph, normalized=True, weight="dist") if n >= 3 else {}
    bridges = {}
    for src, via in pairs:
        if n < 3 or src not in graph or via not in graph:
            bridges[(src, via)] = None
            continue
        d_s = nx.single_source_dijkstra_path_length(graph, src, weight="dist")
        d_v = nx.single_source_dijkstra_path_length(graph, via, weight="dist")
        targets = [t for t in graph if t not in (src, via)]
        hits = sum(1 for t in targets if t in d_s and via in d_s and t in d_v and d_s[via] + d_v[t] == d_s[t])
        bridges[(src, via)] = hits / len(targets)
    return bcw, bridges


def check_series(series, ref: Recount, years, window, countries, bridges, hop_sample, weighted_sample) -> list[str]:
    fails = []
    global_names = ("kcore_max", "kcore_nodes", "kcore_ratio", "clustering", "efficiency",
                    "num_communities", "modularity", "betw_centralization", "avg_bc")
    names = list(global_names) + [f"{m}:{c}" for c in countries for m in ("bc", "bcw", "ev", "deg", "ego_q")]
    names += [f"bridge:{s}->{v}" for s, v in bridges]
    for fld in ref.fields:
        # per-country and bridge series exist only where some window has nodes
        has_nodes = any(ref.window_graph(y, fld, window).number_of_nodes() for y in years)
        for name in names if has_nodes else global_names:
            got_years = sorted(series.get((fld, name), {}))
            if got_years != list(years):
                fails.append(f"series {name}/{fld} covers years {got_years}, want {list(years)}")

    # bounds, on every slice
    for (fld, name), per_year in series.items():
        for year, v in per_year.items():
            if v is None:
                continue
            if name in UNIT_METRICS or name.startswith(UNIT_PREFIXES):
                if not -ABS_TOL <= v <= 1.0 + ABS_TOL:
                    fails.append(f"{name} {year}/{fld} = {v} outside [0, 1]")
            elif name == "modularity" and not -0.5 <= v < 1.0:
                fails.append(f"modularity {year}/{fld} = {v} outside [-1/2, 1)")
            elif name == "num_communities":
                n = ref.window_graph(year, fld, window).number_of_nodes()
                if not 1 <= v <= n:
                    fails.append(f"num_communities {year}/{fld} = {v} outside [1, {n}]")

    # hop-based metrics against networkx
    for year, fld in hop_sample:
        want = hop_metrics(ref.window_graph(year, fld, window))
        n = want["n"]
        if n == 0:
            continue
        for name in ("kcore_max", "kcore_nodes", "kcore_ratio", "clustering", "efficiency", "avg_bc", "betw_centralization"):
            _compare(fails, f"{name} {year}/{fld}", _value(series, fld, name, year), want[name])
        for c in countries:
            for m in ("bc", "deg"):
                exp = want[m].get(c) if want[m] is not None else None
                _compare(fails, f"{m}:{c} {year}/{fld}", _value(series, fld, f"{m}:{c}", year), exp)
        avg = _value(series, fld, "avg_bc", year)
        if n >= 3 and isinstance(avg, float):
            raw_sum = avg * n * (n - 1) * (n - 2) / 2
            if not close(raw_sum, want["detour_sum"], 1e-9, 1e-9):
                fails.append(f"avg_bc {year}/{fld}: raw BC sum {raw_sum} != detour sum {want['detour_sum']}")

    # weighted metrics against networkx with exact distances
    for year, fld in weighted_sample:
        graph = ref.window_graph(year, fld, window)
        bcw, bridged = exact_weighted(graph, bridges)
        for c in countries:
            _compare(fails, f"bcw:{c} {year}/{fld}", _value(series, fld, f"bcw:{c}", year), bcw.get(c))
        for (s, v), frac in bridged.items():
            _compare(fails, f"bridge:{s}->{v} {year}/{fld}", _value(series, fld, f"bridge:{s}->{v}", year), frac)
    return fails


# ---------------------------------------------------------------------------
# country_granger


def participation(ref: Recount, iv: str, fld: str) -> list[float | None]:
    out = []
    for year in ref.years:
        sl = ref.slices.get((year, fld), Slice())
        out.append(sl.intl.get(iv, 0) / sl.pubs if sl.pubs else None)
    return out


def f_test_pvalues(x: list, y: list, max_lag: int) -> dict[int, float] | None:
    """Restricted/unrestricted OLS F-test per lag on first differences.

    Uses the longest run of years where both series have values, as the
    program documents. Returns None when the differenced target is constant
    (the program skips such cells). Lags whose sample is too small, or whose
    normal equations are ill-conditioned, are left out.
    """
    runs, cur = [], []
    for i, (a, b) in enumerate(zip(x, y)):
        if a is None or b is None:
            cur = []
            continue
        cur.append(i)
        if len(cur) == 1:
            runs.append(cur)
    best = max(runs, key=len) if runs else []
    if len(best) < 2:
        return None
    xv = np.diff(np.array([x[i] for i in best], dtype=float))
    yv = np.diff(np.array([y[i] for i in best], dtype=float))
    if np.ptp(yv) == 0.0:
        return None
    out = {}
    T = len(yv)
    for lag in range(1, max_lag + 1):
        t_eff = T - lag
        if t_eff < 2 * lag + 2:
            continue
        target = yv[lag:]
        own = [yv[lag - 1 - i: T - 1 - i] for i in range(lag)]
        other = [xv[lag - 1 - i: T - 1 - i] for i in range(lag)]
        rss = []
        for cols in (own, own + other):
            X = np.column_stack([np.ones(t_eff)] + cols)
            gram = X.T @ X
            if np.linalg.cond(gram) > 1e10:
                rss = None
                break
            beta = np.linalg.solve(gram, X.T @ target)
            resid = target - X @ beta
            rss.append(float(resid @ resid))
        if rss is None:
            continue
        rss_r, rss_u = rss[0], min(rss[1], rss[0])
        dof = t_eff - 2 * lag - 1
        if rss_u <= 0.0:
            out[lag] = 0.0
            continue
        f = max(0.0, (rss_r - rss_u) / lag / (rss_u / dof))
        out[lag] = float(stats.f.sf(f, lag, dof))
    return out


def check_granger(rows: list[dict], ref: Recount, iv: str, sample_cells, max_lag: int, alpha: float = 0.05) -> list[str]:
    fails = []
    if not rows:
        return ["granger output has no rows"]
    # Benjamini-Hochberg over the whole grid; the adjustment p * m / rank
    # can round one ulp below p for the largest p, hence the 1e-15 slack
    for r in rows:
        if not r["p_raw"] * (1.0 - 1e-15) <= r["p_adj"] <= 1.0:
            fails.append(f"{r['field']}/{r['metric']} lag {r['lag']}: p_adj {r['p_adj']} not in [p_raw {r['p_raw']}, 1]")
    ordered = sorted(rows, key=lambda r: r["p_raw"])
    for a, b in zip(ordered, ordered[1:]):
        if b["p_adj"] < a["p_adj"]:
            fails.append(f"p_adj decreases in raw order: {a['p_adj']} then {b['p_adj']} at p_raw {b['p_raw']}")
            break
    cells = defaultdict(list)
    for r in rows:
        cells[(r["field"], r["metric"])].append(r)
    for (fld, metric), lag_rows in cells.items():
        min_adj = min(r["p_adj"] for r in lag_rows)
        for r in lag_rows:
            if r["min_p_adj"] != min_adj:
                fails.append(f"{fld}/{metric}: min_p_adj {r['min_p_adj']} != min over lags {min_adj}")
            if r["flag"] != int(min_adj <= alpha):
                fails.append(f"{fld}/{metric}: flag {r['flag']} but min_p_adj {min_adj}")
    # raw p-values of sampled cells, from networkx series and recounted participation
    for fld, metric in sample_cells:
        target = []
        for year in ref.years:
            graph = ref.window_graph(year, fld, 1)
            target.append(hop_metrics(graph, (metric,)).get(metric))
        want = f_test_pvalues(participation(ref, iv, fld), target, max_lag)
        got = {r["lag"]: r["p_raw"] for r in cells.get((fld, metric), [])}
        if want is None:
            if got:
                fails.append(f"{fld}/{metric}: constant differenced target, but the program tested it")
            continue
        if not want:
            # no lag has a full-rank design here (a target that moves only
            # in its last year has all-zero own lags); the program skips
            # such a cell, and may keep lags this stricter test leaves out
            continue
        if not got:
            fails.append(f"{fld}/{metric}: testable cell missing from the output")
            continue
        for lag, p in want.items():
            if lag not in got or not close(got[lag], p, 1e-6, 1e-9):
                fails.append(f"{fld}/{metric} lag {lag}: p_raw {got.get(lag)}, want {p}")
    return fails


# ---------------------------------------------------------------------------
# hole_closure


def checkpoint_counts(arrival: int, n_final: int, stride: int) -> list[int]:
    counts = list(range(arrival, n_final + 1, stride))
    return counts if counts[-1] == n_final else counts + [n_final]


def check_hole(run: dict, graphs: dict[int, nx.Graph]) -> list[str]:
    """`graphs` maps each checkpoint node count to the trajectory's graph there."""
    fails = []
    cfg = run["config"]
    m = cfg["m"]
    counts = checkpoint_counts(cfg["entrant_arrival"], cfg["n_final"], cfg["checkpoint_stride"])
    got_counts = [c["node_count"] for c in run["checkpoints"]]
    if got_counts != counts:
        return [f"checkpoint node counts {got_counts}, want {counts}"]
    first = graphs[counts[0]]
    top = max(d for _, d in first.degree())
    hub = min(v for v, d in first.degree() if d == top)
    if run["hub"] != hub:
        fails.append(f"hub {run['hub']}, want the highest-degree node at arrival {hub}")
    for cp in run["checkpoints"]:
        count = cp["node_count"]
        g = graphs[count]
        if g.number_of_nodes() != count:
            fails.append(f"checkpoint {count}: graph has {g.number_of_nodes()} nodes")
        floor = (m + 1) * m // 2 + m * (count - m - 1)
        if g.number_of_edges() < floor:
            fails.append(f"checkpoint {count}: {g.number_of_edges()} edges < growth floor {floor}")
        if not nx.is_connected(g):
            fails.append(f"checkpoint {count}: graph is not connected")
        _compare(fails, f"avg_clustering at {count}", cp["avg_clustering"], nx.average_clustering(g))
        _compare(fails, f"global_efficiency at {count}", cp["global_efficiency"], hop_efficiency(g))
        want_k = max(nx.core_number(g).values())
        if cp["max_k"] != want_k:
            fails.append(f"max_k at {count}: got {cp['max_k']}, want {want_k}")
        if not 1 <= cp["communities"] <= count:
            fails.append(f"communities at {count}: {cp['communities']} outside [1, {count}]")
    bc = nx.betweenness_centrality(first, normalized=True)
    _compare(fails, f"hub_bc_norm at {counts[0]}", run["checkpoints"][0]["hub_bc_norm"], bc.get(run["hub"]))
    _compare(fails, f"global_efficiency at {counts[0]} (networkx)", run["checkpoints"][0]["global_efficiency"],
             nx.global_efficiency(first))
    return fails


def hop_efficiency(graph: nx.Graph) -> float:
    """Global hop efficiency from scipy's breadth-first all-pairs distances.

    networkx's pure-Python version takes about 7 s over one run's nine
    checkpoints, so it is used on the first checkpoint only.
    """
    n = graph.number_of_nodes()
    dist = shortest_path(nx.to_scipy_sparse_array(graph), directed=False, unweighted=True)
    upper = dist[np.triu_indices(n, k=1)]
    return float((1.0 / upper[np.isfinite(upper)]).sum() / (n * (n - 1) / 2))

