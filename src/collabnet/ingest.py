"""Publication parsing, full counting, thresholds, and the on-disk corpus.

Full counting means each unordered country pair on a publication adds
exactly one unit to that pair's edge weight, regardless of author counts.
The corpus store is a directory of per-(year, field) CSV edge lists plus
country-year statistics and a JSON manifest.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

ALL_FIELDS = "all"


@dataclass(frozen=True)
class PublicationRecord:
    """One document: its year, field label, and the set of contributing countries."""

    id: str
    year: int
    field: str
    countries: frozenset[str]

    @property
    def international(self) -> bool:
        return len(self.countries) >= 2


@dataclass
class EdgeList:
    """Weighted country-pair counts for one (year, field) slice."""

    year: int
    field: str
    edges: dict[tuple[str, str], float] = field(default_factory=dict)

    def add(self, a: str, b: str, w: float = 1.0) -> None:
        if a == b:
            raise DataError(f"self-pair {a!r} in edge list {self.year}/{self.field}")
        if not math.isfinite(w) or w <= 0:
            raise DataError(f"weight {w!r} of {a}-{b} in edge list {self.year}/{self.field} must be finite and positive")
        key = (a, b) if a < b else (b, a)
        self.edges[key] = self.edges.get(key, 0.0) + w

    def countries(self) -> set[str]:
        out: set[str] = set()
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return out


class _CountryYearCounts(NamedTuple):
    country: str
    year: int
    field: str
    intl_pubs: int
    total_pubs: int


class CountryYearStats(_CountryYearCounts):
    """Publication counts for one country in one (year, field) slice; an
    immutable tuple, checked on construction."""

    __slots__ = ()

    def __new__(cls, country: str, year: int, field: str, intl_pubs: int, total_pubs: int):
        if intl_pubs > total_pubs or intl_pubs < 0:
            raise DataError(
                f"{country} {year}/{field}: intl_pubs={intl_pubs} inconsistent with total_pubs={total_pubs}"
            )
        return tuple.__new__(cls, (country, year, field, intl_pubs, total_pubs))


@dataclass
class ParseResult:
    records: list[PublicationRecord]
    skipped: int


def _clean_countries(raw) -> frozenset[str]:
    if not isinstance(raw, (list, tuple)):
        raise ValueError("countries must be a list")
    cleaned = set()
    for c in raw:
        if not isinstance(c, str):
            raise ValueError(f"country {c!r} is not a string")
        code = c.strip().upper()
        if code:
            cleaned.add(code)
    return frozenset(cleaned)


def _year(raw) -> int:
    """A JSON integer or a string of one; floats and booleans are malformed."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"year {raw!r} is not an integer")
    return int(raw)


def _field(raw) -> str:
    """A JSON string; blank means all fields."""
    if not isinstance(raw, str):
        raise ValueError(f"field {raw!r} is not a string")
    return raw.strip() or ALL_FIELDS


def parse_publications(lines) -> ParseResult:
    """Parse JSON-lines publication records; malformed lines are counted and skipped.

    Country codes are uppercased and deduplicated; records with no usable
    country are dropped (they also count as skipped). A year that is not an
    integer or a string of one, or a country or field that is not a string,
    makes the line malformed; a missing or blank field means all fields.
    """
    records: list[PublicationRecord] = []
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
            year = _year(obj["year"])
            countries = _clean_countries(obj["countries"])
            fld = _field(obj.get("field", ALL_FIELDS))
            rid = str(obj.get("id", f"line{lineno}"))
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("skipping malformed line %d: %s", lineno, exc)
            skipped += 1
            continue
        if not countries:
            skipped += 1
            continue
        records.append(PublicationRecord(rid, year, fld, countries))
    return ParseResult(records, skipped)


def parse_publications_file(path: str | Path) -> ParseResult:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            return parse_publications(fh)
    except OSError as exc:
        raise DataError(f"cannot read publication file {path}: {exc}") from exc


def _matches(record: PublicationRecord, year: int, fld: str) -> bool:
    return record.year == year and (fld == ALL_FIELDS or record.field == fld)


def build_annual_edges(records, year: int, fld: str = ALL_FIELDS) -> EdgeList:
    """Full counting: every unordered country pair on a record adds weight 1.

    The reference definition of a slice's edges; ingest counts every slice at
    once in `_record_slices`, which must agree with it."""
    out = EdgeList(year, fld)
    for rec in records:
        if not _matches(rec, year, fld):
            continue
        for a, b in combinations(sorted(rec.countries), 2):
            out.add(a, b)
    return out


def country_year_stats(records, year: int, fld: str = ALL_FIELDS) -> dict[str, CountryYearStats]:
    """Per-country publication counts in one (year, field) slice.

    The reference definition of a slice's stats, which `_record_slices` must
    agree with."""
    total: Counter[str] = Counter()
    intl: Counter[str] = Counter()
    for rec in records:
        if not _matches(rec, year, fld):
            continue
        for c in rec.countries:
            total[c] += 1
            if rec.international:
                intl[c] += 1
    return {
        c: CountryYearStats(c, year, fld, intl.get(c, 0), total[c])
        for c in sorted(total)
    }


def participation(stats: dict[str, CountryYearStats], country: str, pubs: int | None = None) -> float | None:
    """The country's international publications over the slice's publication
    count `pubs`; without `pubs` (edge-CSV corpora, which have no publication
    count) over the summed `intl_pubs` of the slice. None when the
    denominator is 0."""
    denom = sum(s.intl_pubs for s in stats.values()) if pubs is None else pubs
    if denom == 0:
        return None
    return (stats[country].intl_pubs if country in stats else 0) / denom


def require_stats(edge_list: EdgeList, stats: dict[str, CountryYearStats]) -> None:
    """DataError naming the first country of the edges that has no stats row."""
    missing = edge_list.countries() - stats.keys()
    if missing:
        raise DataError(f"country {min(missing)} appears in edges but is missing from stats {edge_list.year}/{edge_list.field}")


def filter_countries(edge_list: EdgeList, stats: dict[str, CountryYearStats], threshold: int = 10) -> EdgeList:
    """Drop every edge touching a country below the international-output threshold."""
    if threshold < 0:
        raise DataError(f"threshold must be non-negative, got {threshold}")
    require_stats(edge_list, stats)
    keep = {c for c in edge_list.countries() if stats[c].intl_pubs >= threshold}
    out = EdgeList(edge_list.year, edge_list.field)
    for (a, b), w in edge_list.edges.items():
        if a in keep and b in keep:
            out.edges[(a, b)] = w
    return out


# ---------------------------------------------------------------------------
# Corpus store: edges_<year>_<field>.csv, stats_<year>_<field>.csv, manifest.json

EDGE_HEADER = ["year", "field", "country_a", "country_b", "weight"]
STATS_HEADER = ["year", "field", "country", "intl_pubs", "total_pubs"]


def field_slug(fld: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", fld).strip("_").lower()
    return slug or "field"


class CorpusStore:
    """Read/write access to an ingested corpus directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def manifest(self) -> dict:
        path = self._manifest_path()
        if not path.exists():
            raise DataError(f"no manifest.json under {self.root}")
        try:
            with path.open("r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError as exc:
            raise DataError(f"manifest.json under {self.root} is not JSON: {exc}") from exc
        if not isinstance(manifest, dict) or not {"years", "threshold"} <= manifest.keys():
            raise DataError(f"manifest.json under {self.root} lacks its years or threshold")
        return manifest

    def edge_path(self, year: int, fld: str) -> Path:
        return self.root / f"edges_{year}_{field_slug(fld)}.csv"

    def stats_path(self, year: int, fld: str) -> Path:
        return self.root / f"stats_{year}_{field_slug(fld)}.csv"

    def write_edges(self, edge_list: EdgeList) -> Path:
        path = self.edge_path(edge_list.year, edge_list.field)
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EDGE_HEADER)
            for (a, b), w in sorted(edge_list.edges.items()):
                writer.writerow([edge_list.year, edge_list.field, a, b, repr(float(w))])
        return path

    def write_stats(self, year: int, fld: str, stats: dict[str, CountryYearStats]) -> Path:
        path = self.stats_path(year, fld)
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(STATS_HEADER)
            for c in sorted(stats):
                s = stats[c]
                writer.writerow([year, fld, c, s.intl_pubs, s.total_pubs])
        return path

    def write(self, slices, manifest: dict) -> dict:
        """Write every (edges, stats) slice, edges already thresholded at the
        manifest's `threshold` and stats unfiltered, then the manifest with
        its `years`, `field_slugs` and `edge_counts` filled in; returns the
        manifest."""
        self.root.mkdir(parents=True, exist_ok=True)
        years, edge_counts = set(), {}
        for edges, stats in slices:
            years.add(edges.year)
            self.write_edges(edges)
            self.write_stats(edges.year, edges.field, stats)
            edge_counts[f"{edges.year}/{edges.field}"] = len(edges.edges)
        manifest.update(years=sorted(years), field_slugs={f: field_slug(f) for f in manifest["fields"]},
                        edge_counts=edge_counts)
        with self._manifest_path().open("w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest

    def read_edges(self, year: int, fld: str) -> EdgeList:
        path = self.edge_path(year, fld)
        if not path.exists():
            raise DataError(f"no edge list for {year}/{fld} under {self.root}")
        out = EdgeList(year, fld)
        with path.open("r", encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            a, b, w = _columns(next(rows, []), ("country_a", "country_b", "weight"), path)
            for row in rows:
                if not row:  # a blank line
                    continue
                try:
                    out.add(row[a], row[b], float(row[w]))
                except (IndexError, ValueError) as exc:  # IndexError: a short row
                    raise DataError(f"bad edge row in {path}: {row}") from exc
        return out

    def read_stats(self, year: int, fld: str) -> dict[str, CountryYearStats]:
        path = self.stats_path(year, fld)
        if not path.exists():
            raise DataError(f"no stats for {year}/{fld} under {self.root}")
        out: dict[str, CountryYearStats] = {}
        with path.open("r", encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            c, y, f, i, t = _columns(next(rows, []), ("country", "year", "field", "intl_pubs", "total_pubs"), path)
            for row in rows:
                if not row:  # a blank line
                    continue
                try:
                    out[row[c]] = CountryYearStats(row[c], int(row[y]), row[f], int(row[i]), int(row[t]))
                except (IndexError, ValueError) as exc:  # IndexError: a short row
                    raise DataError(f"bad stats row in {path}: {row}") from exc
        return out


def _columns(header: list[str], names: tuple[str, ...], path: Path) -> list[int]:
    """The position of each named column in a stored CSV's header row."""
    missing = [name for name in names if name not in header]
    if missing:
        raise DataError(f"{path} has no {', '.join(missing)} column")
    return [header.index(name) for name in names]


def ingest_publications(pubs_path: str | Path, out_dir: str | Path, threshold: int = 10) -> dict:
    """Parse a JSONL publication file and persist the full corpus store.

    Edge lists are written with the threshold applied; the unfiltered
    country-year statistics are kept alongside so later stages can
    re-derive participation series and normalization productivities.
    """
    if threshold < 0:
        raise DataError(f"threshold must be non-negative, got {threshold}")
    pubs_path = Path(pubs_path)
    store = CorpusStore(out_dir)

    if pubs_path.suffix.lower() == ".csv":
        slices = _edge_csv_slices(pubs_path)
        manifest = {
            "fields": sorted({el.field for el, _ in slices}),
            "records": None,
            "skipped": 0,
            "stats_source": "edge-weight approximation (pre-aggregated input)",
            "threshold": threshold,
        }
        return store.write(((filter_countries(el, stats, threshold), stats) for el, stats in slices), manifest)

    parsed = parse_publications_file(pubs_path)
    records = parsed.records
    if not records:
        raise DataError(f"no usable records in {pubs_path} ({parsed.skipped} skipped)")

    years = sorted({r.year for r in records})
    fields = [ALL_FIELDS] + sorted({r.field for r in records} - {ALL_FIELDS})
    slice_counts: dict[str, dict[str, int]] = {}
    manifest = {
        "fields": fields,
        "records": len(records),
        "skipped": parsed.skipped,
        "slice_counts": slice_counts,
        "threshold": threshold,
    }
    return store.write(_record_slices(records, years, fields, threshold, slice_counts), manifest)


def _record_slices(records, years: list[int], fields: list[str], threshold: int, slice_counts: dict):
    """Yield every year x field slice, empty ones included, as (edges
    thresholded at `threshold`, stats), counted in one pass over the records;
    fills `slice_counts`. Equal, slice by slice, to `filter_countries` of
    `build_annual_edges` and `country_year_stats`.

    The pass numbers the countries in code order and appends to compact
    integer arrays of the record's (year, field): a domestic record's
    country, or an international record's countries and its country pairs
    (i * n + j for i < j). A year's `all` slice joins the arrays of all its
    fields. Each slice is then counted with numpy, and only the pairs of
    countries at or above the threshold become an edge dict. Lazy, and a
    year's arrays go once its slices are out."""
    codes = sorted({c for rec in records for c in rec.countries})
    index = {c: i for i, c in enumerate(codes)}
    n = len(codes)
    member_type, pair_type = np.min_scalar_type(n - 1).char, np.min_scalar_type(n * n - 1).char
    tallies: defaultdict[int, dict[str, _Tally]] = defaultdict(dict)  # year -> record field -> tally
    for rec in records:
        tally = tallies[rec.year].get(rec.field)
        if tally is None:
            tally = tallies[rec.year][rec.field] = _Tally(member_type, pair_type)
        ids = sorted([index[c] for c in rec.countries])
        if len(ids) == 1:
            tally.domestic.append(ids[0])
            continue
        tally.members.extend(ids)
        tally.pairs.extend([i * n + j for i, j in combinations(ids, 2)])
        tally.intl_pubs += 1

    def joined(parts: list[_Tally], name: str) -> np.ndarray:
        arrays = [getattr(t, name) for t in parts]
        return np.concatenate([np.frombuffer(a, dtype=a.typecode) for a in arrays] or [np.zeros(0, np.intp)])

    for year in years:
        by_field = tallies.pop(year, {})
        for fld in fields:
            parts = list(by_field.values()) if fld == ALL_FIELDS else [by_field[fld]] if fld in by_field else []
            intl_pubs = sum(t.intl_pubs for t in parts)
            pubs = sum(len(t.domestic) for t in parts) + intl_pubs
            slice_counts[f"{year}/{fld}"] = {"pubs": pubs, "intl": intl_pubs}
            intl = np.bincount(joined(parts, "members"), minlength=n)
            total = np.bincount(joined(parts, "domestic"), minlength=n) + intl
            total_of, intl_of = total.tolist(), intl.tolist()
            stats = {codes[i]: CountryYearStats(codes[i], year, fld, intl_of[i], total_of[i])
                     for i in np.flatnonzero(total).tolist()}
            pair, weight = np.unique(joined(parts, "pairs"), return_counts=True)
            a, b = np.divmod(pair, n)
            kept = (intl[a] >= threshold) & (intl[b] >= threshold)
            edges = {(codes[i], codes[j]): w
                     for i, j, w in zip(a[kept].tolist(), b[kept].tolist(), weight[kept].astype(float).tolist())}
            yield EdgeList(year, fld, edges), stats


class _Tally:
    """The records of one (year, field) as compact arrays of country numbers."""

    __slots__ = ("domestic", "members", "pairs", "intl_pubs")

    def __init__(self, member_type: str, pair_type: str):
        self.domestic = array(member_type)  # each domestic record's country
        self.members = array(member_type)  # each international record's countries
        self.pairs = array(pair_type)  # each international record's pairs i < j, as i * n + j
        self.intl_pubs = 0


def _edge_csv_slices(path: Path) -> list[tuple[EdgeList, dict[str, CountryYearStats]]]:
    """Read a pre-aggregated edge CSV (year,field,country_a,country_b,weight)
    into the slices it names, in (year, field) order.

    No publication-level statistics exist in this form, so intl_pubs and
    total_pubs are both approximated by the country's total edge weight in
    the slice; the manifest records that approximation.

    The `all` slice of a year is built only from rows whose field cell is
    empty. Field rows are not summed into it, because pre-aggregated
    per-field rows may share publications; a year with field rows only has
    no `all` slice.
    """
    by_slice: dict[tuple[int, str], EdgeList] = {}
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if None in row.values():
                    raise DataError(f"short row in edge CSV {path}: {row}")
                year = int(row["year"])
                fld = row.get("field") or ALL_FIELDS
                a, b = row["country_a"].strip().upper(), row["country_b"].strip().upper()
                if not (a and b):
                    raise DataError(f"blank country in edge CSV {path}: {row}")
                by_slice.setdefault((year, fld), EdgeList(year, fld)).add(a, b, float(row["weight"]))
    except (OSError, KeyError, ValueError) as exc:
        raise DataError(f"cannot ingest edge CSV {path}: {exc}") from exc
    if not by_slice:
        raise DataError(f"no edges in {path}")

    slices = []
    for (year, fld), edges in sorted(by_slice.items()):
        strength: defaultdict[str, float] = defaultdict(float)
        for (a, b), w in edges.edges.items():
            strength[a] += w
            strength[b] += w
        stats = {
            c: CountryYearStats(c, year, fld, int(strength[c]), int(strength[c]))
            for c in sorted(strength)
        }
        slices.append((edges, stats))
    return slices
