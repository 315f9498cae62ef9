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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

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


@dataclass(frozen=True)
class CountryYearStats:
    """Publication counts for one country in one (year, field) slice."""

    country: str
    year: int
    field: str
    intl_pubs: int
    total_pubs: int

    def __post_init__(self):
        if self.intl_pubs > self.total_pubs or self.intl_pubs < 0:
            raise DataError(
                f"{self.country} {self.year}/{self.field}: "
                f"intl_pubs={self.intl_pubs} inconsistent with total_pubs={self.total_pubs}"
            )


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


def parse_publications(lines) -> ParseResult:
    """Parse JSON-lines publication records; malformed lines are counted and skipped.

    Country codes are uppercased and deduplicated; records with no usable
    country are dropped (they also count as skipped). A year that is not an
    integer or a string of one, or a country that is not a string, makes the
    line malformed.
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
            fld = str(obj.get("field", ALL_FIELDS)).strip() or ALL_FIELDS
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
    """Full counting: every unordered country pair on a record adds weight 1."""
    out = EdgeList(year, fld)
    for rec in records:
        if not _matches(rec, year, fld):
            continue
        for a, b in combinations(sorted(rec.countries), 2):
            out.add(a, b)
    return out


def country_year_stats(records, year: int, fld: str = ALL_FIELDS) -> dict[str, CountryYearStats]:
    """Per-country publication counts in one (year, field) slice."""
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


def filter_countries(edge_list: EdgeList, stats: dict[str, CountryYearStats], threshold: int = 10) -> EdgeList:
    """Drop every edge touching a country below the international-output threshold."""
    if threshold < 0:
        raise DataError(f"threshold must be non-negative, got {threshold}")
    for c in sorted(edge_list.countries()):
        if c not in stats:
            raise DataError(f"country {c} appears in edges but is missing from stats {edge_list.year}/{edge_list.field}")
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

    def write(self, slices, threshold: int, manifest: dict) -> dict:
        """Write every (edges, stats) slice, edges thresholded and stats
        unfiltered, then the manifest with its `years`, `field_slugs`,
        `threshold` and `edge_counts` filled in; returns the manifest."""
        self.root.mkdir(parents=True, exist_ok=True)
        years, edge_counts = set(), {}
        for edges, stats in slices:
            years.add(edges.year)
            filtered = filter_countries(edges, stats, threshold)
            self.write_edges(filtered)
            self.write_stats(edges.year, edges.field, stats)
            edge_counts[f"{edges.year}/{edges.field}"] = len(filtered.edges)
        manifest.update(years=sorted(years), field_slugs={f: field_slug(f) for f in manifest["fields"]},
                        threshold=threshold, edge_counts=edge_counts)
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
            for row in csv.DictReader(fh):
                try:
                    out.add(row["country_a"], row["country_b"], float(row["weight"]))
                except (KeyError, ValueError, TypeError) as exc:  # TypeError: a short row's missing cells are None
                    raise DataError(f"bad edge row in {path}: {row}") from exc
        return out

    def read_stats(self, year: int, fld: str) -> dict[str, CountryYearStats]:
        path = self.stats_path(year, fld)
        if not path.exists():
            raise DataError(f"no stats for {year}/{fld} under {self.root}")
        out: dict[str, CountryYearStats] = {}
        with path.open("r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                try:
                    out[row["country"]] = CountryYearStats(
                        row["country"], int(row["year"]), row["field"],
                        int(row["intl_pubs"]), int(row["total_pubs"]),
                    )
                except (KeyError, ValueError, TypeError) as exc:  # TypeError: a short row's missing cells are None
                    raise DataError(f"bad stats row in {path}: {row}") from exc
        return out


def ingest_publications(pubs_path: str | Path, out_dir: str | Path, threshold: int = 10) -> dict:
    """Parse a JSONL publication file and persist the full corpus store.

    Edge lists are written with the threshold applied; the unfiltered
    country-year statistics are kept alongside so later stages can
    re-derive participation series and normalization productivities.
    """
    pubs_path = Path(pubs_path)
    store = CorpusStore(out_dir)

    if pubs_path.suffix.lower() == ".csv":
        slices = _edge_csv_slices(pubs_path)
        fields = sorted({el.field for el, _ in slices})
        manifest = {
            "fields": fields,
            "records": None,
            "skipped": 0,
            "stats_source": "edge-weight approximation (pre-aggregated input)",
        }
        return store.write(slices, threshold, manifest)

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
    }
    return store.write(_record_slices(records, years, fields, slice_counts), threshold, manifest)


def _record_slices(records, years: list[int], fields: list[str], slice_counts: dict):
    """Yield every year x field slice, empty ones included, from one pass that
    buckets the records by (year, "all") and (year, field); fills `slice_counts`.
    Lazy, so that only one slice's edges and stats are alive at a time."""
    buckets = defaultdict(list)
    for rec in records:
        buckets[rec.year, ALL_FIELDS].append(rec)
        if rec.field != ALL_FIELDS:
            buckets[rec.year, rec.field].append(rec)
    for year in years:
        for fld in fields:
            bucket = buckets.pop((year, fld), [])
            slice_counts[f"{year}/{fld}"] = {"pubs": len(bucket), "intl": sum(r.international for r in bucket)}
            yield build_annual_edges(bucket, year, fld), country_year_stats(bucket, year, fld)


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
