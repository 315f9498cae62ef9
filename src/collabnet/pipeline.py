"""End-to-end pipelines: corpus directory to metric series, bridging
series, Granger panels, and forecasts.

Descriptive series are computed on 3-year rolling-window networks (with
truncated windows at the start of the range, labeled in the summary);
Granger panels always rebuild plain annual networks because smoothing
would distort the temporal precedence the test looks for. Every output
embeds the sha256 hash of the canonical config, and reruns with an equal
config are byte-identical. Its CSVs and `summary.json` are stored through
ingest's table and JSON helpers.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

from . import structure
from .centrality import CentralityVector, betweenness, centralization, degree_centrality, eigenvector_centrality, normalize_bc
from .errors import DataError
from .graph import CollabNetwork, NetworkSlice, normalize_weights, rolling_window
from .ingest import (ALL_FIELDS, CorpusStore, check_year_span, field_slug, filter_countries, finite, participation,
                     read_table, require_stats, write_json, write_table, year_cell)
from .paths import TIE_TOLERANCE, bridging_fraction
from .timeseries import (
    Forecast,
    MetricSeries,
    bh_fdr,
    contiguous_overlap,
    granger_test,
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

    def ego_q(self, country: str) -> float:
        """`structure.ego_modularity` of the country. A country linked to every
        other node has the whole network as its ego network, so the cached
        `partition` answers without a second CNM run."""
        net = self.net
        if net.has_node(country) and net.degrees[net.index[country]] == net.n - 1:
            return self.partition.q
        return structure.ego_modularity(net, country)

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
    "ego_q": (1, lambda a, c: a.ego_q(c)),
}


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

    def __post_init__(self):
        if not 1 <= self.window <= 3:
            raise DataError(f"window must be 1-3 years, got {self.window}")
        if self.threshold < 0:
            raise DataError(f"threshold must be >= 0, got {self.threshold}")
        if self.years is not None and self.years[0] > self.years[1]:
            raise DataError(f"empty year range {self.years}")
        unknown = [m for m in self.metrics if m not in GLOBAL_METRICS]
        if unknown:
            raise DataError(f"unknown metric(s) {', '.join(unknown)}; known: {', '.join(GLOBAL_METRICS)}")

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
        }

    def hash(self, **extra) -> str:
        """Hash of the canonical config plus any options a command adds to it (such as Granger's IV)."""
        blob = json.dumps({**self.canonical(), **extra}, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def write_series_csv(series: MetricSeries, path: str | Path, config_hash: str) -> None:
    comments = {"name": series.name, "unit": series.unit, "config": config_hash}
    with write_table(path, ["year", "value"], comments) as writer:
        for year, value in zip(series.years, series.values):
            writer.writerow([year, "" if value is None else repr(value)])


def read_series_csv(path: str | Path) -> MetricSeries:
    """A series CSV; its name and unit come from its comments, the name
    defaulting to the file's stem. An empty value cell is a missing year."""
    comments = {"name": Path(path).stem, "unit": ""}
    pairs: list[tuple[int, float | None]] = []
    with read_table(path, ("year", "value"), "series", comments) as (rows, (y, v)):
        for row in rows:
            pairs.append((year_cell(row[y]), finite(row[v]) if row[v] else None))
    if not pairs:
        raise DataError(f"series file {path} has no rows")
    return MetricSeries.from_pairs(comments["name"], pairs, comments["unit"])


def _load_window_network(
    store: CorpusStore, slices: dict, year: int, fld: str, window: int, threshold: int, normalize: str
) -> tuple[CollabNetwork, int]:
    """Build the rolling-window network ending at `year`; returns (net, years used).

    `slices` maps each year of the previous window to its (thresholded network,
    stats) pair, None for an absent file: only the years new to this window
    are read, and years that left it are dropped. A window with no slice, or
    whose slices are not consecutive, is missing: it returns (empty net, 0)
    rather than raising, so that no caller catches a read error as a missing
    year. The stored edges already hold the corpus's ingest threshold;
    `threshold` is re-applied on top of it, and 0 re-applies none.
    """
    for y in [y for y in slices if y <= year - window]:
        del slices[y]
    for y in range(year - window + 1, year + 1):
        if y not in slices:
            annual = store.read_edges(y, fld) if store.edge_path(y, fld).exists() else None
            stats = store.read_stats(y, fld) if store.stats_path(y, fld).exists() else None
            if annual is not None and stats is not None:
                if threshold > 0:
                    annual = filter_countries(annual, stats, threshold)
                else:
                    require_stats(annual, stats)
            slices[y] = annual, stats
    present = [slices[y] for y in range(year - window + 1, year + 1) if None not in slices[y]]
    if not present or present[-1][0].slice.year - present[0][0].slice.year != len(present) - 1:
        return CollabNetwork.from_pairs((), NetworkSlice()), 0
    net = rolling_window([annual for annual, _ in present])
    if normalize != "raw":
        productivity: dict[str, float] = {}
        for _, stats in present:
            for c, s in stats.items():
                productivity[c] = productivity.get(c, 0.0) + s.total_pubs
        net = normalize_weights(net, productivity, normalize)
    return net, len(present)


def read_windows(config: PipelineConfig, fld: str) -> Iterator[tuple[int, CollabNetwork | None, int, dict | None]]:
    """Yield (year, window network or None if missing, years used, the year's
    stats or None) for each year of the config's range (the corpus's by
    default) in one field. Each annual slice is read once and at most
    `config.window` of them are kept. A range wider than
    `ingest.MAX_YEAR_SPAN` years is a DataError.

    The corpus's edges were thresholded at ingest, so a run threshold below
    the manifest's cannot be honoured and is a DataError."""
    store = CorpusStore(config.corpus)
    manifest = store.manifest()
    if config.threshold < manifest["threshold"]:
        raise DataError(f"threshold {config.threshold} is below the corpus's ingest threshold "
                        f"{manifest['threshold']}; re-ingest with --threshold {config.threshold}")
    years = config.years or manifest["years"]
    check_year_span(years)
    refilter = config.threshold if config.threshold > manifest["threshold"] else 0  # the filter is idempotent
    slices: dict = {}
    for year in range(min(years), max(years) + 1):
        net, used = _load_window_network(store, slices, year, fld, config.window, refilter, config.normalize)
        yield year, net if used else None, used, slices[year][1]


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
        out[f"bridge:{source}->{via}"] = bridge_value(net, source, via)
    return out


def bridge_value(net: CollabNetwork, source: str, via: str, mode: str = "any") -> float | None:
    """The bridging fraction of one window; None unless both countries are in a network of 3 or more nodes."""
    if net.n < 3 or not (net.has_node(source) and net.has_node(via)):
        return None
    return bridging_fraction(net, source, via, mode).fraction


def run_pipeline(config: PipelineConfig) -> dict:
    """Compute every requested metric series per field and persist them.

    Returns the summary that is also written to out/summary.json.
    """
    cfg_hash = config.hash()

    out_dir = Path(config.out)
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
        per_year = by_field.setdefault(fld, {})
        for year, net, used, _ in read_windows(config, fld):
            if net is None:
                summary["missing"].append(f"{year}/{fld}")
            elif used < config.window:
                summary["truncated_windows"].append(f"{year}/{fld}:{used}")
            # a missing year keeps its row, with every value empty
            per_year[year] = {} if net is None else _slice_metrics(net, config)

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
    write_json(out_dir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Granger panel


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


ALPHA = 0.05  # the joint FDR level of a flagged cell, and the trend diagnostic's p-value cut


def granger_panel(config: PipelineConfig, iv_country: str, max_lag: int = 6) -> tuple[list[GrangerResult], dict]:
    """Granger tests of the IV country's participation against each of the
    config's global metrics, per config field, on plain annual networks,
    with joint BH-FDR over the whole grid.

    Participation is `ingest.participation` of the year's stats, over the
    manifest's slice pub count when the corpus was ingested from publication
    records. diagnostics["skipped_cells"] maps the name of each untested
    cell ("field:metric", or "field:*" for a field with no window) to why
    it was skipped, the message of the DataError that stopped its test.
    """
    annual = replace(config, window=1, normalize="raw")
    slice_counts = CorpusStore(config.corpus).manifest().get("slice_counts") or {}

    results: list[GrangerResult] = []
    diagnostics = {"nonstationary_share": None, "skipped_cells": {}}
    flagged_trend = 0
    total_series = 0

    for fld in config.fields:
        per_year: dict[int, dict[str, float | None]] = {}
        shares: list[tuple[int, float | None]] = []
        for year, net, _, stats in read_windows(annual, fld):
            if net is not None:
                analysis = SliceAnalysis(net)
                per_year[year] = {m: analysis.global_value(m) for m in config.metrics}
            pubs = slice_counts.get(f"{year}/{fld}", {}).get("pubs")
            shares.append((year, None if stats is None else participation(stats, iv_country, pubs)))
        if not per_year:
            diagnostics["skipped_cells"][f"{fld}:*"] = "no window of the field has a network"
            continue
        iv = MetricSeries.from_pairs(f"participation:{iv_country}", shares, unit="share")
        for metric in config.metrics:
            pairs = [(y, per_year[y].get(metric)) for y in sorted(per_year)]
            target = MetricSeries.from_pairs(f"{metric}__{fld}", pairs)
            total_series += 1
            if trend_diagnostic(target) <= ALPHA:
                flagged_trend += 1
            try:
                test = granger_test(*contiguous_overlap(iv, target), max_lag=max_lag)
            except DataError as exc:
                diagnostics["skipped_cells"][f"{fld}:{metric}"] = str(exc)
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
    for res in results:
        res.min_p_adj = min(res.adjusted.values())
        res.flagged = res.min_p_adj <= ALPHA

    if total_series:
        diagnostics["nonstationary_share"] = flagged_trend / total_series
    return results, diagnostics


def write_granger_csv(results: list[GrangerResult], path: str | Path, config_hash: str) -> None:
    header = ["field", "metric", "lag", "p_raw", "aic", "p_adj", "min_p_adj", "flag"]
    with write_table(path, header, {"config": config_hash}) as writer:
        for res in sorted(results, key=lambda r: (r.field, r.metric)):
            for lag in sorted(res.pvalues):
                writer.writerow([res.field, res.metric, lag, repr(res.pvalues[lag]), repr(res.aic[lag]),
                                 repr(res.adjusted.get(lag, float("nan"))),
                                 "" if res.min_p_adj is None else repr(res.min_p_adj), int(res.flagged)])


def write_forecast_csv(fc: Forecast, path: str | Path) -> None:
    with write_table(path, ["year", "point", "lower", "upper"], {"model": fc.model, "level": fc.level}) as writer:
        for year, p, lo, hi in zip(fc.years, fc.points, fc.lower, fc.upper):
            writer.writerow([year, repr(p), repr(lo), repr(hi)])


def read_forecast_csv(path: str | Path) -> dict:
    parsed = []
    with read_table(path, ("year", "point", "lower", "upper"), "forecast") as (rows, (y, p, lo, hi)):
        for row in rows:
            parsed.append((year_cell(row[y]), finite(row[p]), finite(row[lo]), finite(row[hi])))
    if not parsed:
        raise DataError(f"forecast file {path} has no rows")
    years, points, lower, upper = (list(column) for column in zip(*parsed))
    return {"years": years, "points": points, "lower": lower, "upper": upper}
