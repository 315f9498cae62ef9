"""Publication parsing, full counting, thresholds, and the on-disk corpus.

Full counting means each unordered country pair on a publication adds
exactly one unit to that pair's edge weight, regardless of author counts.
The corpus store is a directory of per-(year, field) CSV edge lists plus
country-year statistics and a JSON manifest. A (year, field) slice is a
`graph.CollabNetwork` whose `slice` carries its year and field; a stored
edge table, or a pre-aggregated edge CSV, is read into one through
`CollabNetwork.from_pairs`, and ingest's counting pass builds each one from
index arrays. A threshold is a mask over a network's node index pairs. A
corpus spans at most `MAX_YEAR_SPAN` years, none outside -`MAX_YEAR`..`MAX_YEAR`.

Every stored CSV table and JSON document is written and read through
`write_table`/`read_table` and `write_json`/`read_json`. Every output file,
these and the saved networks, runs and charts, is written to a path made
ready by `fresh_output`.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import re
import stat
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import chain, combinations, compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .graph import CollabNetwork, NetworkSlice

log = logging.getLogger(__name__)

ALL_FIELDS = "all"
MAX_YEAR_SPAN = 1000  # the most years a corpus, or a run over one, may span
MAX_YEAR = 9999  # no year lies outside -MAX_YEAR..MAX_YEAR: each one names stored files
MAX_SLUG = 200  # the longest field slug a stored file name holds, well inside the usual 255 bytes


class PublicationRecord(NamedTuple):
    """One document: its year, field label, and the set of contributing countries."""

    year: int
    field: str
    countries: frozenset[str]

    @property
    def international(self) -> bool:
        return len(self.countries) >= 2


class CountryYearStats(NamedTuple):
    """A country's international and total publication counts in one (year,
    field) slice. Stored rows are checked where `CorpusStore.read_stats` reads
    them."""

    intl_pubs: int
    total_pubs: int


class ParseResult(NamedTuple):
    records: list[PublicationRecord] | Tallies  # the kept records, or their tallies
    skipped: int


def _clean_countries(raw) -> frozenset[str]:
    if not isinstance(raw, (list, tuple)):
        raise ValueError("countries must be a list")
    cleaned = set()
    for c in raw:
        if not isinstance(c, str):
            raise ValueError(f"country {c!r} is not a string")
        code = c.strip().upper()
        if not code.isascii():
            code.encode("utf-8")  # a lone surrogate cannot be stored: UnicodeEncodeError, a ValueError
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
    raw.encode("utf-8")  # as for a country
    return raw.strip() or ALL_FIELDS


def parse_publications(lines, into=None) -> ParseResult:
    """Parse JSON-lines publication records; malformed lines are counted and skipped.

    Country codes are uppercased and deduplicated; records with no usable
    country are dropped (they also count as skipped). A year that is not an
    integer or a string of one, or a country or field that is not a string
    UTF-8 can store, makes the line malformed; a missing or blank field
    means all fields. An `id` key is allowed and ignored.

    Each kept record is appended to `into`: a new list by default, or a
    `Tallies`, which counts it and keeps no record.
    """
    records = [] if into is None else into
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
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("skipping malformed line %d: %s", lineno, exc)
            skipped += 1
            continue
        if not countries:
            skipped += 1
            continue
        records.append(PublicationRecord(year, fld, countries))
    return ParseResult(records, skipped)


def parse_publications_file(path: str | Path) -> ParseResult:
    """The file's records counted into a `Tallies` as each line is read."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not part of line 1
            return parse_publications(fh, Tallies())
    except OSError as exc:
        raise DataError(f"cannot read publication file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"publication file {path} is not UTF-8: {exc}") from exc


def _matches(record: PublicationRecord, year: int, fld: str) -> bool:
    return record.year == year and (fld == ALL_FIELDS or record.field == fld)


def build_annual_edges(records, year: int, fld: str = ALL_FIELDS) -> CollabNetwork:
    """Full counting: every unordered country pair on a record adds weight 1.

    The reference definition of a slice's edges; ingest counts every slice at
    once in `_record_slices`, which must agree with it."""
    pairs = (pair for rec in records if _matches(rec, year, fld) for pair in combinations(sorted(rec.countries), 2))
    return CollabNetwork.from_pairs(((a, b, 1.0) for a, b in pairs), NetworkSlice(year, fld))


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
        c: CountryYearStats(intl.get(c, 0), total[c])
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


def require_stats(net: CollabNetwork, stats: dict[str, CountryYearStats]) -> None:
    """DataError naming the first country of the slice that has no stats row."""
    missing = set(net.nodes) - stats.keys()
    if missing:
        raise DataError(f"country {min(missing)} appears in edges but is missing from stats {net.slice.year}/{net.slice.field}")


def filter_countries(net: CollabNetwork, stats: dict[str, CountryYearStats], threshold: int = 10) -> CollabNetwork:
    """Drop every edge touching a country below the international-output threshold."""
    if threshold < 0:
        raise DataError(f"threshold must be non-negative, got {threshold}")
    require_stats(net, stats)
    keep = np.array([stats[c].intl_pubs >= threshold for c in net.nodes], dtype=bool)
    return net.select(keep[net.ends].all(axis=1))


def check_year_span(years) -> None:
    """DataError if the years run over more than `MAX_YEAR_SPAN` years, or one
    of them lies outside -`MAX_YEAR`..`MAX_YEAR`."""
    lo, hi = min(years), max(years)
    if hi - lo >= MAX_YEAR_SPAN:
        raise DataError(f"years {lo} to {hi} span more than {MAX_YEAR_SPAN} years")
    if max(-lo, hi) > MAX_YEAR:
        raise DataError(f"year {hi if hi > MAX_YEAR else lo} lies outside -{MAX_YEAR} to {MAX_YEAR}")


# ---------------------------------------------------------------------------
# Stored tables and documents


def fresh_output(path: str | Path) -> Path:
    """`path` made ready for a new output file: its parent made if needed,
    and a regular file already there removed, so that the output is created
    anew instead of rewriting the old file's blocks, which on a filesystem
    mounted with online discard can stall each write for tens of
    milliseconds. A symlink is kept, and written through."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return path


@contextmanager
def write_table(path: str | Path, header: list[str], comments=()):
    """Write a stored CSV table through `fresh_output`: a `# key=value`
    line per item of `comments`, the header, then the yielded writer's rows."""
    with fresh_output(path).open("w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in dict(comments).items())
        writer = csv.writer(fh)
        writer.writerow(header)
        yield writer


@contextmanager
def read_table(path: str | Path, names: tuple[str, ...], what: str, comments: dict | None = None):
    """Read a stored CSV table: yields (its non-blank rows, the header position
    of each named column), and fills `comments` from the `#` lines before the
    header. A DataError names the file if it cannot be read, is not UTF-8 or
    lacks a named column, and the line too if a row is short (an IndexError)
    or a ValueError is raised inside the block."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            line, before = fh.readline(), 1  # `before`: the comment and header lines
            while line.startswith("#"):
                if comments is not None:
                    key, _, value = line[1:].partition("=")
                    comments[key.strip()] = value.strip()
                line, before = fh.readline(), before + 1
            header = next(csv.reader([line]), [])
            missing = [name for name in names if name not in header]
            if missing:
                raise DataError(f"{path} has no {', '.join(missing)} column")
            rows = csv.reader(fh)
            try:
                yield filter(None, rows), [header.index(name) for name in names]
            except UnicodeDecodeError:
                raise
            except (IndexError, ValueError, csv.Error) as exc:
                reason = "short row" if isinstance(exc, IndexError) else str(exc)
                raise DataError(f"bad {what} row in {path} at line {before + rows.line_num}: {reason}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file {path} is not UTF-8: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path (the block's own are DataErrors by now)
        raise DataError(f"cannot read {what} file {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def finite(text: str) -> float:
    """The float that `text` spells; ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def year_cell(text: str) -> int:
    """The year that `text` spells; ValueError unless it lies in -MAX_YEAR..MAX_YEAR."""
    year = int(text)
    if abs(year) > MAX_YEAR:
        raise ValueError(f"year {year} lies outside -{MAX_YEAR} to {MAX_YEAR}")
    return year


def write_json(path: str | Path, payload) -> None:
    """Write a stored JSON document through `fresh_output`."""
    fresh_output(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path: str | Path, what: str):
    """The JSON document at `path`; a DataError naming it as `what` if it cannot be read or parsed."""
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError(f"cannot read {what}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise DataError(f"{what} is not UTF-8 JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Corpus store: edges_<year>_<field>.csv, stats_<year>_<field>.csv, manifest.json

def field_slug(fld: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", fld).strip("_").lower()
    return slug or "field"


class CorpusStore:
    """Read/write access to an ingested corpus directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def manifest(self) -> dict:
        """The manifest; a DataError unless its `years` are a non-empty list of
        integers, its `threshold` an integer >= 0 and its `slice_counts`, if
        any, an object of objects with an integer `pubs`."""
        where = f"manifest.json under {self.root}"
        manifest = read_json(self.root / "manifest.json", where)
        if not isinstance(manifest, dict) or not {"years", "threshold"} <= manifest.keys():
            raise DataError(f"{where} lacks its years or threshold")
        years, threshold = manifest["years"], manifest["threshold"]
        if not (type(years) is list and years and all(type(y) is int for y in years)):
            raise DataError(f"{where} has years {years!r}, not a non-empty list of integers")
        if type(threshold) is not int or threshold < 0:
            raise DataError(f"{where} has threshold {threshold!r}, not an integer >= 0")
        counts = manifest.get("slice_counts", {})
        if type(counts) is not dict or not all(type(c) is dict and type(c.get("pubs")) is int for c in counts.values()):
            raise DataError(f"{where} has slice_counts that are not an object of objects with an integer pubs")
        return manifest

    def edge_path(self, year: int, fld: str) -> Path:
        return self.root / f"edges_{year}_{field_slug(fld)}.csv"

    def stats_path(self, year: int, fld: str) -> Path:
        return self.root / f"stats_{year}_{field_slug(fld)}.csv"

    def write_edges(self, net: CollabNetwork) -> None:
        year, fld = net.slice.year, net.slice.field
        with write_table(self.edge_path(year, fld), ["year", "field", "country_a", "country_b", "weight"]) as writer:
            order = np.lexsort(net.ends.T[::-1])  # by (a, b): the nodes are sorted
            for i, j, w in zip(*net.ends[order].T.tolist(), net.weight[order].tolist()):
                writer.writerow([year, fld, net.nodes[i], net.nodes[j], repr(w)])

    def write_stats(self, year: int, fld: str, stats: dict[str, CountryYearStats]) -> None:
        with write_table(self.stats_path(year, fld), ["year", "field", "country", "intl_pubs", "total_pubs"]) as writer:
            for c, s in sorted(stats.items()):
                writer.writerow([year, fld, c, s.intl_pubs, s.total_pubs])

    def write(self, slices, manifest: dict) -> dict:
        """Write every (network, stats) slice, the network already thresholded
        at the manifest's `threshold` and stats unfiltered, then the manifest
        with its `years`, `field_slugs` and `edge_counts` filled in; returns
        the manifest. Two fields whose file names would be one (`field_slug`),
        or a slug too long for a file name, are a DataError, raised before
        any file is written."""
        field_of: dict[str, str] = {}
        for fld in manifest["fields"]:
            slug = field_slug(fld)
            if len(slug) > MAX_SLUG:
                raise DataError(f"field {fld!r} has a file name slug of {len(slug)} characters, more than {MAX_SLUG}")
            other = field_of.setdefault(slug, fld)
            if other != fld:
                raise DataError(f"fields {other!r} and {fld!r} would share the file name slug {slug!r}")
        years, edge_counts = set(), {}
        for net, stats in slices:
            year, fld = net.slice.year, net.slice.field
            years.add(year)
            self.write_edges(net)
            self.write_stats(year, fld, stats)
            edge_counts[f"{year}/{fld}"] = net.m
        manifest.update(years=sorted(years), field_slugs={f: slug for slug, f in field_of.items()},
                        edge_counts=edge_counts)
        write_json(self.root / "manifest.json", manifest)
        return manifest

    def read_edges(self, year: int, fld: str) -> CollabNetwork:
        """The slice's network. A row is bad unless its year and field cells spell the slice's, as text."""
        names, year_text = ("year", "field", "country_a", "country_b", "weight"), str(year)
        with read_table(self.edge_path(year, fld), names, "edge") as (rows, (y, f, a, b, w)):
            return CollabNetwork.from_pairs(((row[a], row[b], float(row[w])) for row in rows
                                             if row[y] == year_text and row[f] == fld
                                             or _misplaced(row[y], row[f], year, fld)), NetworkSlice(year, fld))

    def read_stats(self, year: int, fld: str) -> dict[str, CountryYearStats]:
        """The slice's stats by country. A row is bad unless it has every
        column, its year and field cells spell the slice's, 0 <= intl_pubs <=
        total_pubs, and its country is new."""
        out: dict[str, CountryYearStats] = {}
        names, year_text = ("country", "year", "field", "intl_pubs", "total_pubs"), str(year)
        with read_table(self.stats_path(year, fld), names, "stats") as (rows, (c, y, f, i, t)):
            for row in rows:
                country, intl, total = row[c], int(row[i]), int(row[t])
                if row[y] != year_text or row[f] != fld:
                    _misplaced(row[y], row[f], year, fld)
                if not 0 <= intl <= total:
                    raise ValueError(f"intl_pubs={intl} and total_pubs={total} break 0 <= intl_pubs <= total_pubs")
                if country in out:
                    raise ValueError(f"country {country} repeated")
                out[country] = CountryYearStats(intl, total)
        return out


def _misplaced(year_cell: str, field_cell: str, year: int, fld: str):  # a stored row of another slice
    raise ValueError(f"year {year_cell!r} and field {field_cell!r} are not the file's slice {year}/{fld}")


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
        check_year_span([net.slice.year for net, _ in slices])
        manifest = {
            "fields": sorted({net.slice.field for net, _ in slices}),
            "records": None,
            "skipped": 0,
            "stats_source": "edge-weight approximation (pre-aggregated input)",
            "threshold": threshold,
        }
        return store.write(((filter_countries(net, stats, threshold), stats) for net, stats in slices), manifest)

    tallies, skipped = parse_publications_file(pubs_path)
    if not tallies:
        raise DataError(f"no usable records in {pubs_path} ({skipped} skipped)")

    years = sorted(tallies.by_year)
    check_year_span(years)
    fields = [ALL_FIELDS] + sorted(set().union(*tallies.by_year.values()) - {ALL_FIELDS})
    slice_counts: dict[str, dict[str, int]] = {}
    manifest = {
        "fields": fields,
        "records": len(tallies),
        "skipped": skipped,
        "slice_counts": slice_counts,
        "threshold": threshold,
    }
    return store.write(_record_slices(tallies, years, fields, threshold, slice_counts), manifest)


class Tallies:
    """Publication records counted, as they are appended, into a `_Tally` per
    (year, field), countries numbered as first seen in the narrowest array
    type that holds them. No record is kept; `len()` counts those appended."""

    def __init__(self):
        self.index: dict[str, int] = {}  # country code -> number, in first-seen order
        self.typecode, self.room = "B", 1 << 8  # the array type, and how many numbers it holds
        # year -> record field -> tally, made in the array type of the day
        self.by_year: defaultdict[int, defaultdict[str, _Tally]] = defaultdict(
            lambda: defaultdict(lambda: _Tally(self.typecode)))

    def __len__(self) -> int:
        return sum(len(t.domestic) + t.intl_pubs for by_field in self.by_year.values() for t in by_field.values())

    def append(self, rec: PublicationRecord) -> None:
        index = self.index
        ids = [index.setdefault(c, len(index)) for c in rec.countries]
        if len(index) > self.room:  # widen every array to number the newcomers
            self.typecode = np.min_scalar_type(len(index) - 1).char
            self.room = np.iinfo(self.typecode).max + 1
            for t in (t for by_field in self.by_year.values() for t in by_field.values()):
                t.domestic, t.members, t.pairs = (array(self.typecode, a) for a in (t.domestic, t.members, t.pairs))
        tally = self.by_year[rec.year][rec.field]
        if len(ids) == 1:
            tally.domestic.append(ids[0])
            return
        tally.members.extend(ids)
        tally.pairs.extend(chain.from_iterable(combinations(ids, 2)))
        tally.intl_pubs += 1


class _Tally:
    """One (year, field)'s records as arrays of country numbers: each domestic record's
    country, and each international record's countries (`members`) and pairs, two numbers each."""

    def __init__(self, typecode: str):
        self.domestic, self.members, self.pairs = array(typecode), array(typecode), array(typecode)
        self.intl_pubs = 0


def _record_slices(tallies: Tallies, years: list[int], fields: list[str], threshold: int, slice_counts: dict):
    """Yield every year x field slice of the tallies, empty ones included, as
    (network thresholded at `threshold`, stats); fills `slice_counts`. Equal,
    slice by slice, to `filter_countries` of `build_annual_edges` and
    `country_year_stats` over the records, its edges in pair order. A year's
    `all` slice joins the arrays of all its fields; each slice is counted
    with numpy, and no per-edge Python object is made. Lazy."""
    codes = sorted(tallies.index)
    n = len(codes)
    rank = np.argsort([tallies.index[c] for c in codes]).astype(np.min_scalar_type(n))  # first-seen -> code order

    def joined(parts: list[_Tally], name: str) -> np.ndarray:
        arrays = [getattr(t, name) for t in parts]
        return rank[np.concatenate([np.frombuffer(a, dtype=a.typecode) for a in arrays] or [np.zeros(0, np.intp)])]

    for year in years:
        by_field = tallies.by_year[year]
        for fld in fields:
            parts = list(by_field.values()) if fld == ALL_FIELDS else [by_field[fld]] if fld in by_field else []
            intl_pubs = sum(t.intl_pubs for t in parts)
            pubs = sum(len(t.domestic) for t in parts) + intl_pubs
            slice_counts[f"{year}/{fld}"] = {"pubs": pubs, "intl": intl_pubs}
            intl = np.bincount(joined(parts, "members"), minlength=n)
            total = np.bincount(joined(parts, "domestic"), minlength=n) + intl
            total_of, intl_of = total.tolist(), intl.tolist()
            stats = {codes[i]: CountryYearStats(intl_of[i], total_of[i])
                     for i in np.flatnonzero(total).tolist()}
            ends = np.sort(joined(parts, "pairs").reshape(-1, 2), axis=1).astype(np.min_scalar_type(n * n))  # holds lo * n + hi
            pair, weight = np.unique(ends[:, 0] * n + ends[:, 1], return_counts=True)
            ends = np.stack(np.divmod(pair, n), axis=1)
            kept = (intl[ends] >= threshold).all(axis=1)
            used = np.bincount(ends[kept].ravel(), minlength=n) > 0  # the kept pairs' countries, renumbered
            yield CollabNetwork(tuple(compress(codes, used.tolist())), (np.cumsum(used) - 1)[ends[kept]], weight[kept],
                                NetworkSlice(year, fld)), stats


def _edge_csv_slices(path: Path) -> list[tuple[CollabNetwork, dict[str, CountryYearStats]]]:
    """Read a pre-aggregated edge CSV (year,field,country_a,country_b,weight)
    into the slices it names, in (year, field) order. A short row, a bad
    year or weight, or a blank country is a DataError naming its line.

    No publication-level statistics exist in this form, so intl_pubs and
    total_pubs are both approximated by the country's total edge weight in
    the slice; the manifest records that approximation.

    The `all` slice of a year is built only from rows whose field cell is
    empty. Field rows are not summed into it, because pre-aggregated
    per-field rows may share publications; a year with field rows only has
    no `all` slice.
    """
    by_slice: defaultdict[tuple[int, str], list] = defaultdict(list)
    names = ("year", "field", "country_a", "country_b", "weight")
    with read_table(path, names, "edge CSV") as (rows, (y, f, ca, cb, w)):
        for row in rows:
            a, b = row[ca].strip().upper(), row[cb].strip().upper()
            if not (a and b):
                raise ValueError("blank country")
            by_slice[int(row[y]), row[f] or ALL_FIELDS].append((a, b, float(row[w])))
    if not by_slice:
        raise DataError(f"no edges in {path}")

    slices = []
    for (year, fld), triples in sorted(by_slice.items()):
        net = CollabNetwork.from_pairs(triples, NetworkSlice(year, fld))
        strength = np.bincount(net.ends.ravel(), weights=np.repeat(net.weight, 2), minlength=net.n)  # in edge order
        stats = {c: CountryYearStats(int(s), int(s)) for c, s in zip(net.nodes, strength.tolist())}
        slices.append((net, stats))
    return slices
