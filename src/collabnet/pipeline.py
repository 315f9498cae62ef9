"""End-to-end pipelines: corpus directory to metric series, bridging
series, Granger panels, and forecasts.

Descriptive series are computed on 3-year rolling-window networks (with
truncated windows at the start of the range, labeled in the summary);
Granger panels always rebuild plain annual networks because smoothing
would distort the temporal precedence the test looks for. Every output
embeds the sha256 hash of the canonical config, and reruns with an equal
config are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import structure
from .centrality import CentralityVector, betweenness, centralization, degree_centrality, eigenvector_centrality, normalize_bc
from .errors import DataError
from .graph import CollabNetwork, normalize_weights, rolling_window
from .ingest import ALL_FIELDS, CorpusStore, field_slug
from .paths import TIE_TOLERANCE, bridging_fraction
from .timeseries import (
    Forecast,
    MetricSeries,
    bh_fdr,
    granger_test,
    report_min_adjusted,
    trend_diagnostic,
)


class SliceAnalysis:
    """The metrics of one network; each shared intermediate is computed at most once, on first use."""

    def __init__(self, net: CollabNetwork):
        self.net = net

    @cached_property
    def bc(self) -> CentralityVector:
        return normalize_bc(betweenness(self.net, weighted=False), self.net.n)

    @cached_property
    def bcw(self) -> CentralityVector:
        return normalize_bc(betweenness(self.net, weighted=True), self.net.n)

    @cached_property
    def ev(self) -> CentralityVector:
        return eigenvector_centrality(self.net)

    @cached_property
    def deg(self) -> CentralityVector:
        return degree_centrality(self.net)

    @cached_property
    def cores(self) -> structure.CorePartition:
        return structure.k_core(self.net)

    @cached_property
    def partition(self) -> structure.CommunityPartition:
        return structure.communities(self.net)

    def global_value(self, name: str) -> float | None:
        fewest, value = GLOBAL_METRICS[name]
        return value(self) if self.net.n >= fewest else None


# name -> (fewest nodes, value); smaller networks report the metric as missing
GLOBAL_METRICS = {
    "kcore_max": (1, lambda a: float(a.cores.max_k)),
    "kcore_nodes": (1, lambda a: float(a.cores.kcore_nodes)),
    "kcore_ratio": (1, lambda a: a.cores.kcore_ratio),
    "clustering": (1, lambda a: structure.clustering(a.net).average),
    "efficiency": (2, lambda a: structure.global_efficiency(a.net)),
    "num_communities": (1, lambda a: float(len(a.partition))),
    "modularity": (1, lambda a: a.partition.q),
    "betw_centralization": (3, lambda a: centralization(a.bc)),
    "avg_bc": (3, lambda a: a.bc.mean()),
}
COUNTRY_METRICS = {
    "bc": (3, lambda a, c: a.bc[c]),
    "bcw": (3, lambda a, c: a.bcw[c]),
    "ev": (1, lambda a, c: a.ev[c]),
    "deg": (2, lambda a, c: a.deg[c]),
    "ego_q": (1, lambda a, c: structure.ego_modularity(a.net, c)),
}


def _check_metrics(names) -> None:
    unknown = [m for m in names if m not in GLOBAL_METRICS]
    if unknown:
        raise DataError(f"unknown metric(s) {', '.join(unknown)}; known: {', '.join(GLOBAL_METRICS)}")


@dataclass
class PipelineConfig:
    corpus: str
    out: str
    years: tuple[int, int] | None = None
    fields: tuple[str, ...] = (ALL_FIELDS,)
    window: int = 3
    normalize: str = "raw"
    threshold: int = 10
    metrics: tuple[str, ...] = tuple(GLOBAL_METRICS)
    countries: tuple[str, ...] = ()
    bridges: tuple[tuple[str, str], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.window <= 3:
            raise DataError(f"window must be 1-3 years, got {self.window}")
        if self.threshold < 0:
            raise DataError(f"threshold must be >= 0, got {self.threshold}")
        if self.years is not None and self.years[0] > self.years[1]:
            raise DataError(f"empty year range {self.years}")
        _check_metrics(self.metrics)

    def canonical(self) -> dict:
        # the output directory is excluded: it does not affect computed
        # content, and the hash asserts content identity
        return {
            "corpus": str(self.corpus),
            "years": list(self.years) if self.years else None,
            "fields": list(self.fields),
            "window": self.window,
            "normalize": self.normalize,
            "threshold": self.threshold,
            "metrics": list(self.metrics),
            "countries": list(self.countries),
            "bridges": [list(b) for b in self.bridges],
            "seed": self.seed,
        }

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def write_series_csv(series: MetricSeries, path: str | Path, config_hash: str = "") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# name={series.name}\n")
        fh.write(f"# unit={series.unit}\n")
        if config_hash:
            fh.write(f"# config={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["year", "value"])
        for year, value in zip(series.years, series.values):
            writer.writerow([year, "" if value is None else repr(value)])


def read_series_csv(path: str | Path) -> MetricSeries:
    path = Path(path)
    if not path.exists():
        raise DataError(f"series file {path} does not exist")
    name, unit = path.stem, ""
    pairs: list[tuple[int, float | None]] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                if key.strip() == "name":
                    name = val.strip()
                elif key.strip() == "unit":
                    unit = val.strip()
                continue
            rows.append(line)
        for row in csv.DictReader(rows):
            try:
                value = float(row["value"]) if row["value"] else None
                pairs.append((int(row["year"]), value))
            except (KeyError, ValueError) as exc:
                raise DataError(f"bad series row in {path}: {row}") from exc
            if value is not None and not math.isfinite(value):
                raise DataError(f"non-finite value in series row of {path}: {row}")
    if not pairs:
        raise DataError(f"series file {path} has no rows")
    return MetricSeries.from_pairs(name, pairs, unit)


def _load_window_network(
    store: CorpusStore, year: int, fld: str, window: int, threshold: int, normalize: str
) -> tuple[CollabNetwork, int]:
    """Build the rolling-window network ending at `year`; returns (net, years used)."""
    from .ingest import filter_countries  # local import keeps module load cheap

    lists = []
    productivity: dict[str, float] = {}
    for y in range(year - window + 1, year + 1):
        try:
            el = store.read_edges(y, fld)
            stats = store.read_stats(y, fld)
        except DataError:
            continue
        if threshold > 0:
            el = filter_countries(el, stats, threshold)
        lists.append(el)
        for c, s in stats.items():
            productivity[c] = productivity.get(c, 0.0) + s.total_pubs
    if not lists:
        raise DataError(f"no edge lists for window ending {year}/{fld}")
    net = rolling_window(lists)
    if normalize != "raw":
        net = normalize_weights(net, productivity, normalize)
    return net, len(lists)


def network_for_year(config: PipelineConfig, year: int, fld: str = ALL_FIELDS) -> CollabNetwork:
    store = CorpusStore(config.corpus)
    net, _ = _load_window_network(store, year, fld, config.window, config.threshold, config.normalize)
    return net


def _slice_metrics(net: CollabNetwork, config: PipelineConfig) -> dict[str, float | None]:
    """All requested global and per-country values for one windowed network."""
    analysis = SliceAnalysis(net)
    out = {m: analysis.global_value(m) for m in config.metrics}
    if net.n == 0:
        return out
    for c in config.countries:
        present = net.has_node(c)
        for name, (fewest, value) in COUNTRY_METRICS.items():
            out[f"{name}:{c}"] = value(analysis, c) if present and net.n >= fewest else None
    for source, via in config.bridges:
        key = f"bridge:{source}->{via}"
        if net.has_node(source) and net.has_node(via) and net.n >= 3:
            out[key] = bridging_fraction(net, source, via).fraction
        else:
            out[key] = None
    return out


def run_pipeline(config: PipelineConfig) -> dict:
    """Compute every requested metric series per field and persist them.

    Returns the summary that is also written to out/summary.json.
    """
    store = CorpusStore(config.corpus)
    manifest = store.manifest()
    years = config.years or (min(manifest["years"]), max(manifest["years"]))
    year_range = list(range(years[0], years[1] + 1))
    cfg_hash = config.hash()

    out_dir = Path(config.out)
    (out_dir / "series").mkdir(parents=True, exist_ok=True)

    summary: dict = {
        "config": config.canonical(),
        "config_hash": cfg_hash,
        "metric_notes": {
            "avg_bc": "mean normalized topological betweenness over all nodes",
            "log_base": "natural",
            "tie_tolerance": TIE_TOLERANCE,
            "efficiency": "hop-based (unweighted topology)",
            "communities": "weighted greedy modularity",
        },
        "missing": [],
        "truncated_windows": [],
        "series_files": [],
    }

    by_field: dict[str, dict[int, dict[str, float | None]]] = {}
    for fld in config.fields:
        for year in year_range:
            try:
                net, used = _load_window_network(store, year, fld, config.window, config.threshold, config.normalize)
            except DataError:
                summary["missing"].append(f"{year}/{fld}")
                continue
            if 0 < used < config.window:
                summary["truncated_windows"].append(f"{year}/{fld}:{used}")
            by_field.setdefault(fld, {})[year] = _slice_metrics(net, config)

    for fld in sorted(by_field):
        per_year = by_field[fld]
        keys = sorted({k for m in per_year.values() for k in m})
        for key in keys:
            pairs = [(y, per_year[y].get(key)) for y in sorted(per_year)]
            series = MetricSeries.from_pairs(key, pairs)
            fname = f"{key.replace(':', '_').replace('->', '_')}__{field_slug(fld)}.csv"
            write_series_csv(series, out_dir / "series" / fname, cfg_hash)
            summary["series_files"].append(f"series/{fname}")

    summary["missing"].sort()
    summary["truncated_windows"].sort()
    summary["series_files"].sort()
    with (out_dir / "summary.json").open("w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# Granger panel


def participation_from_store(store: CorpusStore, country: str, fld: str, years: list[int]) -> MetricSeries:
    """IV series: share of the year's output that is international and involves the country.

    Uses manifest slice counts when the corpus was ingested from publication
    records; falls back to the country's share of total international
    activity for pre-aggregated corpora.
    """
    manifest = store.manifest()
    slice_counts = manifest.get("slice_counts") or {}
    pairs: list[tuple[int, float | None]] = []
    for year in years:
        try:
            stats = store.read_stats(year, fld)
        except DataError:
            pairs.append((year, None))
            continue
        counts = slice_counts.get(f"{year}/{fld}")
        if counts and counts.get("pubs"):
            denom = counts["pubs"]
        else:
            denom = sum(s.intl_pubs for s in stats.values())
        if denom <= 0:
            pairs.append((year, None))
            continue
        numer = stats[country].intl_pubs if country in stats else 0
        pairs.append((year, numer / denom))
    return MetricSeries.from_pairs(f"participation:{country}", pairs, unit="share")


@dataclass
class GrangerResult:
    """One (field, metric) cell of the Granger panel."""

    field: str
    metric: str
    pvalues: dict[int, float]
    aic: dict[int, float]
    optimal_lag: int
    adjusted: dict[int, float] = field(default_factory=dict)
    min_p_adj: float | None = None
    flagged: bool = False


def granger_panel(
    config: PipelineConfig,
    iv_country: str,
    metrics: tuple[str, ...],
    fields: tuple[str, ...],
    max_lag: int = 6,
    alpha: float = 0.05,
) -> tuple[list[GrangerResult], dict]:
    """Granger tests of the IV country's participation against each global
    metric, per field, with joint BH-FDR over the whole grid."""
    _check_metrics(metrics)
    store = CorpusStore(config.corpus)
    manifest = store.manifest()
    years_cfg = config.years or (min(manifest["years"]), max(manifest["years"]))
    years = list(range(years_cfg[0], years_cfg[1] + 1))

    results: list[GrangerResult] = []
    diagnostics = {"nonstationary_share": None, "skipped_cells": []}
    flagged_trend = 0
    total_series = 0

    for fld in fields:
        per_year: dict[int, dict[str, float | None]] = {}
        for year in years:
            try:
                net, _ = _load_window_network(store, year, fld, 1, config.threshold, "raw")
            except DataError:
                continue
            analysis = SliceAnalysis(net)
            per_year[year] = {m: analysis.global_value(m) for m in metrics}
        if not per_year:
            diagnostics["skipped_cells"].append(f"{fld}:*")
            continue
        iv = participation_from_store(store, iv_country, fld, years)
        for metric in metrics:
            pairs = [(y, per_year[y].get(metric)) for y in sorted(per_year)]
            target = MetricSeries.from_pairs(f"{metric}__{fld}", pairs)
            total_series += 1
            if trend_diagnostic(target) <= alpha:
                flagged_trend += 1
            try:
                test = granger_test(iv, target, max_lag=max_lag)
            except DataError:
                diagnostics["skipped_cells"].append(f"{fld}:{metric}")
                continue
            results.append(GrangerResult(fld, metric, test.pvalues, test.aic, test.optimal_lag))

    if not results:
        raise DataError("no Granger-testable (field, metric) cells")

    flat: list[tuple[GrangerResult, int, float]] = []
    for res in results:
        for lag, p in sorted(res.pvalues.items()):
            flat.append((res, lag, p))
    adjusted = bh_fdr([p for _, _, p in flat])
    for (res, lag, _), adj in zip(flat, adjusted):
        res.adjusted[lag] = float(adj)

    grid = {(r.field, r.metric): r.adjusted for r in results}
    for cell in report_min_adjusted(grid, alpha):
        for res in results:
            if (res.field, res.metric) == (cell.field, cell.metric):
                res.min_p_adj = cell.min_p_adj
                res.flagged = cell.flagged

    if total_series:
        diagnostics["nonstationary_share"] = flagged_trend / total_series
    return results, diagnostics


def write_granger_csv(results: list[GrangerResult], path: str | Path, config_hash: str = "") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        if config_hash:
            fh.write(f"# config={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["field", "metric", "lag", "p_raw", "aic", "p_adj", "min_p_adj", "flag"])
        for res in sorted(results, key=lambda r: (r.field, r.metric)):
            for lag in sorted(res.pvalues):
                writer.writerow([
                    res.field,
                    res.metric,
                    lag,
                    repr(res.pvalues[lag]),
                    repr(res.aic[lag]),
                    repr(res.adjusted.get(lag, float("nan"))),
                    "" if res.min_p_adj is None else repr(res.min_p_adj),
                    int(res.flagged),
                ])


def write_forecast_csv(fc: Forecast, path: str | Path, config_hash: str = "") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# model={fc.model}\n")
        fh.write(f"# level={fc.level}\n")
        if config_hash:
            fh.write(f"# config={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["year", "point", "lower", "upper"])
        for year, p, lo, hi in zip(fc.years, fc.points, fc.lower, fc.upper):
            writer.writerow([year, repr(p), repr(lo), repr(hi)])


def read_forecast_csv(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"forecast file {path} does not exist")
    years, points, lower, upper = [], [], [], []
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    for row in csv.DictReader(rows):
        years.append(int(row["year"]))
        points.append(float(row["point"]))
        lower.append(float(row["lower"]))
        upper.append(float(row["upper"]))
    if not years:
        raise DataError(f"forecast file {path} has no rows")
    return {"years": years, "points": points, "lower": lower, "upper": upper}
