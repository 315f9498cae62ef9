import json
import logging
import os
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from collabnet.errors import DataError
from collabnet.graph import CollabNetwork, NetworkSlice
from collabnet.ingest import (
    ALL_FIELDS,
    CorpusStore,
    CountryYearStats,
    Tallies,
    _record_slices,
    build_annual_edges,
    country_year_stats,
    filter_countries,
    ingest_publications,
    parse_publications,
    parse_publications_file,
    participation,
    read_json,
    write_json,
    write_table,
)
from collabnet.pipeline import read_forecast_csv, read_series_csv
from oracles import participation_series

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import pubgen  # noqa: E402


def rec_line(year, countries, field="all", rid="w1"):
    return json.dumps({"id": rid, "year": year, "field": field, "countries": countries})


class TestParsePublications:
    def test_dedup_and_uppercase(self):
        result = parse_publications([rec_line(2010, ["us", "US", "cn"])])
        assert len(result.records) == 1
        assert result.records[0].countries == frozenset({"US", "CN"})
        assert result.records[0].year == 2010

    def test_empty_countries_dropped(self):
        result = parse_publications([rec_line(2010, [])])
        assert result.records == []
        assert result.skipped == 1

    def test_mixed_fixture_counts(self):
        lines = [
            rec_line(2001, ["US", "CN"], rid="a"),
            rec_line(2001, ["DE"], rid="b"),
            rec_line(2002, ["FR", "GB"], rid="c"),
            "{bad json",
        ]
        result = parse_publications(lines)
        assert len(result.records) == 3
        assert result.skipped == 1

    def test_missing_year_is_malformed(self):
        result = parse_publications(['{"id": "x", "countries": ["US"]}'])
        assert result.records == []
        assert result.skipped == 1

    @pytest.mark.parametrize("line", [
        '{"year": Infinity, "countries": ["US", "CN"]}',
        '{"year": 1e400, "countries": ["US", "CN"]}',
        '{"year": 2002.9, "countries": ["US", "CN"]}',
        '{"year": true, "countries": ["US", "CN"]}',
        '{"year": 2002, "countries": ["US", null]}',
        # a lone surrogate escape parses, but UTF-8 cannot store it in a corpus file
        '{"year": 2002, "countries": ["US", "\\ud800"]}',
        '{"year": 2002, "field": "\\udfff", "countries": ["US", "CN"]}',
    ])
    def test_non_integer_year_or_non_string_country_is_malformed(self, line):
        result = parse_publications([line, rec_line(2002, ["US", "CN"])])
        assert [(r.year, r.countries) for r in result.records] == [(2002, frozenset({"US", "CN"}))]
        assert result.skipped == 1

    @pytest.mark.parametrize("field", [None, 7, True, ["x"]], ids=["null", "number", "bool", "list"])
    def test_non_string_field_is_malformed(self, field):
        result = parse_publications([rec_line(2002, ["US", "CN"], field=field), rec_line(2002, ["US", "CN"])])
        assert [(r.field, r.countries) for r in result.records] == [(ALL_FIELDS, frozenset({"US", "CN"}))]
        assert result.skipped == 1

    def test_missing_or_blank_field_means_all(self):
        lines = ['{"year": 2002, "countries": ["US"]}', rec_line(2002, ["US"], field=" "), rec_line(2002, ["US"], field="")]
        result = parse_publications(lines)
        assert [r.field for r in result.records] == [ALL_FIELDS] * 3
        assert result.skipped == 0

    def test_integer_and_digit_string_years_accepted(self):
        result = parse_publications([rec_line(2002, ["US"]), rec_line("2003", ["US"])])
        assert [r.year for r in result.records] == [2002, 2003]
        assert result.skipped == 0

    def test_international_flag(self):
        result = parse_publications([rec_line(2010, ["US"]), rec_line(2010, ["US", "CN"])])
        assert [r.international for r in result.records] == [False, True]

    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path):
        path = tmp_path / "pubs.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + f"{rec_line(2002, ['US', 'CN'])}\r\n{rec_line(2003, ['US'])}\r\n".encode())
        result = parse_publications_file(path)
        assert len(result.records) == 2
        assert sorted(result.records.by_year) == [2002, 2003]
        assert result.skipped == 0

    def test_id_key_is_ignored(self):
        with_id, without = parse_publications([rec_line(2010, ["US", "CN"], rid="W1"),
                                                '{"year": 2010, "countries": ["US", "CN"]}']).records
        assert with_id == without


class TestBuildAnnualEdges:
    def test_single_pair_counted_once(self):
        recs = parse_publications([rec_line(2010, ["US", "CN"])]).records
        el = build_annual_edges(recs, 2010)
        assert el.edges == {("CN", "US"): 1.0}

    def test_single_country_no_edges(self):
        recs = parse_publications([rec_line(2010, ["US"])]).records
        assert build_annual_edges(recs, 2010).edges == {}

    def test_pair_enumeration(self):
        recs = parse_publications(
            [rec_line(2010, ["A", "B", "C"], rid="1"), rec_line(2010, ["A", "B"], rid="2")]
        ).records
        el = build_annual_edges(recs, 2010)
        assert el.edges == {("A", "B"): 2.0, ("A", "C"): 1.0, ("B", "C"): 1.0}

    def test_total_weight_equals_pair_count_sum(self):
        from math import comb

        rng = random.Random(5)
        codes = [f"C{i}" for i in range(8)]
        lines = []
        for i in range(60):
            k = rng.randint(1, 5)
            lines.append(rec_line(2010, rng.sample(codes, k), rid=str(i)))
        recs = parse_publications(lines).records
        el = build_annual_edges(recs, 2010)
        assert sum(el.edges.values()) == sum(comb(len(r.countries), 2) for r in recs)

    def test_field_filtering_and_all(self):
        recs = parse_publications(
            [rec_line(2010, ["A", "B"], field="Physics"), rec_line(2010, ["A", "C"], field="Biology")]
        ).records
        assert build_annual_edges(recs, 2010, "Physics").edges == {("A", "B"): 1.0}
        assert len(build_annual_edges(recs, 2010, ALL_FIELDS).edges) == 2


def stats_for(net: CollabNetwork, intl: dict[str, int], threshold_source=None):
    return {
        c: CountryYearStats(intl.get(c, 0), max(intl.get(c, 0), 1))
        for c in net.nodes
    }


class TestFilterCountries:
    def make(self):
        return CollabNetwork.from_pairs([("A", "B", 3), ("B", "C", 2)], NetworkSlice(2010, "all"))

    def test_below_threshold_removed(self):
        el = self.make()
        stats = stats_for(el, {"A": 12, "B": 15, "C": 9})
        out = filter_countries(el, stats, 10)
        assert out.edges == {("A", "B"): 3.0}

    def test_threshold_zero_identity(self):
        el = self.make()
        stats = stats_for(el, {"A": 1, "B": 1, "C": 1})
        assert filter_countries(el, stats, 0).edges == el.edges

    def test_low_intl_country_cut(self):
        el = self.make()
        stats = stats_for(el, {"A": 10, "B": 10, "C": 3})
        out = filter_countries(el, stats, 10)
        assert out.edges == {("A", "B"): 3.0}

    def test_missing_country_named_in_error(self):
        el = self.make()
        stats = stats_for(el, {"A": 10, "B": 10, "C": 3})
        del stats["C"]
        with pytest.raises(DataError, match="C"):
            filter_countries(el, stats, 10)

    def test_idempotent_and_monotone(self):
        el = self.make()
        stats = stats_for(el, {"A": 12, "B": 8, "C": 4})
        for t1 in range(0, 15, 3):
            once = filter_countries(el, stats, t1)
            assert filter_countries(once, stats, t1).edges == once.edges
            for t2 in range(t1, 15, 3):
                tighter = filter_countries(el, stats, t2)
                assert set(tighter.edges) <= set(once.edges)


class TestParticipationSeries:
    """`participation` on an ingested JSONL store equals the record-count oracle exactly."""

    def fixture(self):
        lines = []
        # 2010: 10 pubs, 3 international ones involve CN
        for i in range(3):
            lines.append(rec_line(2010, ["CN", "US"], rid=f"i{i}"))
        for i in range(4):
            lines.append(rec_line(2010, ["US"], rid=f"d{i}"))
        for i in range(3):
            lines.append(rec_line(2010, ["DE", "FR"], rid=f"o{i}"))
        lines.append(rec_line(2011, ["CN", "US"], rid="x"))
        return lines

    def shares(self, tmp_path, lines, country, threshold=0):
        """Per year, `participation` of the stored all-fields slice over its pub count; checked against the oracle."""
        tmp_path.mkdir(exist_ok=True)
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text("\n".join(lines) + "\n")
        manifest = ingest_publications(pubs, tmp_path / "corpus", threshold=threshold)
        store = CorpusStore(tmp_path / "corpus")
        out = {
            year: participation(store.read_stats(year, ALL_FIELDS), country,
                                manifest["slice_counts"][f"{year}/{ALL_FIELDS}"]["pubs"])
            for year in manifest["years"]
        }
        assert out == participation_series(parse_publications(lines).records, country)
        return out

    def test_value_is_share_of_global(self, tmp_path):
        assert self.shares(tmp_path, self.fixture(), "CN") == {2010: 0.3, 2011: 1.0}

    def test_absent_country_all_zero(self, tmp_path):
        assert set(self.shares(tmp_path, self.fixture(), "JP").values()) == {0.0}

    def test_values_within_unit_interval(self, tmp_path):
        for country in ("CN", "US", "DE", "JP"):
            for v in self.shares(tmp_path / country, self.fixture(), country).values():
                assert 0.0 <= v <= 1.0

    def test_generated_corpus(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        pubgen.write_corpus(path, 5, 4000)
        lines = path.read_text().splitlines()
        for country in ("CN", "US", "GB", "ZZ"):
            shares = self.shares(tmp_path / country, lines, country, threshold=3)
            assert len(shares) == 24 and all(0.0 <= v <= 1.0 for v in shares.values())

    def test_edge_csv_denominator_is_summed_intl_pubs(self, tmp_path):
        # no publication count in this form: stats are each country's edge weight
        csv_path = tmp_path / "edges.csv"
        csv_path.write_text("year,field,country_a,country_b,weight\n2001,all,US,CN,5\n2001,all,US,GB,2\n")
        manifest = ingest_publications(csv_path, tmp_path / "corpus", threshold=0)
        assert "slice_counts" not in manifest
        stats = CorpusStore(tmp_path / "corpus").read_stats(2001, ALL_FIELDS)
        # US 7, CN 5, GB 2: 14 in all
        assert participation(stats, "US") == 0.5
        assert participation(stats, "CN") == 5 / 14
        assert participation(stats, "JP") == 0.0
        assert participation({}, "US") is None
        assert participation(stats, "US", pubs=0) is None


class TestCorpusStore:
    def test_ingest_and_read_back(self, tmp_path):
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text(
            "\n".join(
                [
                    rec_line(2001, ["US", "CN"], rid="1"),
                    rec_line(2001, ["US", "GB"], rid="2"),
                    rec_line(2002, ["US", "CN"], rid="3"),
                    "garbage line",
                ]
            )
        )
        manifest = ingest_publications(pubs, tmp_path / "corpus", threshold=0)
        assert manifest["records"] == 3
        assert manifest["skipped"] == 1
        assert manifest["years"] == [2001, 2002]
        store = CorpusStore(tmp_path / "corpus")
        el = store.read_edges(2001, ALL_FIELDS)
        assert el.edges == {("CN", "US"): 1.0, ("GB", "US"): 1.0}
        stats = store.read_stats(2001, ALL_FIELDS)
        assert stats["US"].total_pubs == 2
        assert stats["US"].intl_pubs == 2
        counts = manifest["slice_counts"]["2001/all"]
        assert counts == {"pubs": 2, "intl": 2}

    def test_threshold_applied_at_ingest(self, tmp_path):
        pubs = tmp_path / "pubs.jsonl"
        rows = [rec_line(2001, ["US", "CN"], rid=str(i)) for i in range(12)]
        rows.append(rec_line(2001, ["US", "GB"], rid="g"))
        pubs.write_text("\n".join(rows))
        ingest_publications(pubs, tmp_path / "corpus", threshold=10)
        el = CorpusStore(tmp_path / "corpus").read_edges(2001, ALL_FIELDS)
        assert ("GB", "US") not in el.edges  # GB has 1 intl pub < 10
        assert ("CN", "US") in el.edges

    def test_preaggregated_csv_ingest(self, tmp_path):
        csv_path = tmp_path / "edges.csv"
        csv_path.write_text(
            "year,field,country_a,country_b,weight\n"
            "2001,all,US,CN,5\n"
            "2001,all,US,GB,2\n"
            "2002,all,US,CN,6\n"
        )
        manifest = ingest_publications(csv_path, tmp_path / "corpus", threshold=0)
        assert manifest["years"] == [2001, 2002]
        el = CorpusStore(tmp_path / "corpus").read_edges(2001, ALL_FIELDS)
        assert el.edges == {("CN", "US"): 5.0, ("GB", "US"): 2.0}

    @pytest.mark.parametrize("weight", ["0", "-1", "nan", "inf"])
    def test_bad_stored_weight_is_a_data_error(self, tmp_path, weight):
        # each row is checked, so a bad row is refused even where the pair's sum would be positive
        (tmp_path / "edges_2001_all.csv").write_text(
            f"year,field,country_a,country_b,weight\n2001,all,CN,US,{weight}\n2001,all,US,CN,5\n")
        with pytest.raises(DataError, match="of CN-US in 2001/all must be finite and positive"):
            CorpusStore(tmp_path).read_edges(2001, ALL_FIELDS)

    def test_stats_invariant_rejected(self, tmp_path):
        # a stored row is checked where it is read, naming its file and line
        path = tmp_path / "stats_2001_all.csv"
        path.write_text("year,field,country,intl_pubs,total_pubs\n2001,all,CN,1,1\n2001,all,US,5,3\n")
        with pytest.raises(DataError, match=re.escape(f"bad stats row in {path} at line 3: intl_pubs=5 and total_pubs=3 break")):
            CorpusStore(tmp_path).read_stats(2001, ALL_FIELDS)

    def test_unusable_input_leaves_no_directory(self, tmp_path):
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text("garbage line\n" + rec_line(2001, []))
        with pytest.raises(DataError, match="no usable records"):
            ingest_publications(pubs, tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    def test_unreadable_source_fatal(self, tmp_path):
        with pytest.raises(DataError):
            ingest_publications(tmp_path / "nope.jsonl", tmp_path / "corpus")


# each stored table a reader reads back: (file name, reader, lines of a valid
# file, the value it reads, a row short of a named column)
STORED_TABLES = {
    # a hand-edited edge table: swapped endpoints are ordered and a repeated pair is summed
    "edge": ("edges_2001_all.csv", lambda path: CorpusStore(path.parent).read_edges(2001, ALL_FIELDS).edges,
             ["year,field,country_a,country_b,weight", "2001,all,US,CN,2.0", "2001,all,GB,US,1.0", "2001,all,US,GB,0.5"],
             {("CN", "US"): 2.0, ("GB", "US"): 1.5}, "2001,all,FR"),
    "stats": ("stats_2001_all.csv", lambda path: CorpusStore(path.parent).read_stats(2001, ALL_FIELDS),
              ["year,field,country,intl_pubs,total_pubs", "2001,all,CN,2,3", "2001,all,US,3,3"],
              {"CN": (2, 3), "US": (3, 3)}, "2001,all,FR"),
    "series": ("s.csv", lambda path: read_series_csv(path).values,
               ["# name=s", "# unit=share", "year,value", "2001,0.5", "2002,", "2003,0.25"],
               (0.5, None, 0.25), "2004"),
    "forecast": ("fc.csv", read_forecast_csv,
                 ["# model=ar1+drift", "# level=0.95", "year,point,lower,upper", "2013,0.5,0.1,0.9", "2014,0.6,0.2,1.0"],
                 {"years": [2013, 2014], "points": [0.5, 0.6], "lower": [0.1, 0.2], "upper": [0.9, 1.0]},
                 "2015,0.7,0.3"),
}


@pytest.mark.parametrize("what", list(STORED_TABLES))
class TestStoredTables:
    """The four stored tables read back through `read_table`."""

    def read(self, tmp_path, what, lines):
        name, reader, *_ = STORED_TABLES[what]
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        value = reader(path)
        return {c: (s.intl_pubs, s.total_pubs) for c, s in value.items()} if what == "stats" else value

    def header_at(self, what) -> int:
        """The index of the header in the valid lines."""
        return next(i for i, line in enumerate(STORED_TABLES[what][2]) if not line.startswith("#"))

    def test_valid_file(self, tmp_path, what):
        _, _, lines, expected, _ = STORED_TABLES[what]
        assert self.read(tmp_path, what, lines) == expected

    def test_blank_line_is_skipped(self, tmp_path, what):
        _, _, lines, expected, _ = STORED_TABLES[what]
        assert self.read(tmp_path, what, lines[:-1] + [""] + lines[-1:]) == expected

    def test_short_row_names_its_line(self, tmp_path, what):
        _, _, lines, _, short = STORED_TABLES[what]
        with pytest.raises(DataError, match=f"bad {what} row in .* at line {len(lines) + 2}: short row"):
            self.read(tmp_path, what, lines + ["", short])

    def test_missing_column_is_named(self, tmp_path, what):
        lines = list(STORED_TABLES[what][2])
        k = self.header_at(what)
        *kept, dropped = lines[k].split(",")
        lines[k] = ",".join(kept)
        with pytest.raises(DataError, match=f"has no {dropped} column"):
            self.read(tmp_path, what, lines)

    def test_comment_after_header_is_a_bad_row(self, tmp_path, what):
        lines = list(STORED_TABLES[what][2])
        k = self.header_at(what)
        with pytest.raises(DataError, match=f"bad {what} row in .* at line {k + 2}:"):
            self.read(tmp_path, what, lines[:k + 1] + ["# a note"] + lines[k + 1:])

    def test_bad_byte_past_the_first_chunk_is_not_utf8(self, tmp_path, what):
        # the decoder reads 8 KiB at a time, so this byte fails inside the reading loop
        _, _, lines, _, _ = STORED_TABLES[what]
        body = "".join(line + "\n" for line in lines) + "\n" * 10_000
        path = tmp_path / STORED_TABLES[what][0]
        path.write_bytes(body.encode() + b"\xff\n")
        with pytest.raises(DataError, match=f"{what} file .* is not UTF-8"):
            STORED_TABLES[what][1](path)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file(self, tmp_path, what, kind):
        path = tmp_path / STORED_TABLES[what][0]
        if kind == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=f"cannot read {what} file"):
            STORED_TABLES[what][1](path)

    def test_path_with_a_nul_byte(self, tmp_path, what):
        with pytest.raises(DataError, match=f"cannot read {what} file .*: embedded null byte"):
            STORED_TABLES[what][1](tmp_path / "a\0b" / STORED_TABLES[what][0])


def test_json_path_with_a_nul_byte(tmp_path):
    with pytest.raises(DataError, match="^cannot read the manifest: embedded null byte$"):
        read_json(tmp_path / "manifest\0.json", "the manifest")


def write_table_rows(path):
    with write_table(path, ["a", "b"], {"k": "v"}) as writer:
        writer.writerow([1, 2.5])


WRITERS = {
    "table": write_table_rows,
    "json": lambda path: write_json(path, {"years": [2001], "threshold": 0}),
    "network": lambda path: CollabNetwork.from_pairs([("A", "B", 1.0)], NetworkSlice(2001)).save(path),
}


@pytest.mark.parametrize("writer", list(WRITERS))
class TestRewrittenOutputs:
    """A writer removes a regular file already at its path and creates the output anew; a symlink is written through."""

    def fresh_bytes(self, tmp_path, writer) -> bytes:
        WRITERS[writer](tmp_path / "fresh" / "out")
        return (tmp_path / "fresh" / "out").read_bytes()

    def test_over_a_longer_file(self, tmp_path, writer):
        path, old = tmp_path / "out", tmp_path / "old"
        path.write_text("x" * 10_000)
        os.link(path, old)
        WRITERS[writer](path)
        assert path.read_bytes() == self.fresh_bytes(tmp_path, writer)
        assert old.read_text() == "x" * 10_000  # removed and created anew, not rewritten in place

    def test_through_a_symlink(self, tmp_path, writer):
        path, target = tmp_path / "out", tmp_path / "target"
        target.write_text("x" * 10_000)
        path.symlink_to(target)
        WRITERS[writer](path)
        assert path.is_symlink()
        assert target.read_bytes() == self.fresh_bytes(tmp_path, writer)


def test_second_ingest_into_the_same_out_is_byte_identical(tmp_path):
    pubs, out = tmp_path / "pubs.jsonl", tmp_path / "corpus"
    pubgen.write_corpus(pubs, 5, 4000)

    def tree():
        return {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*"))}

    first = ingest_publications(pubs, out, threshold=3)
    written = tree()
    assert ingest_publications(pubs, out, threshold=3) == first
    assert tree() == written


class TestOnePassIngest:
    """`_record_slices` over the streamed tallies against the reference
    definitions over the parsed records, slice by slice."""

    LINES = [
        '{"id": "a", "year": 2001, "countries": ["US", "CN"]}',  # no field: all fields only
        rec_line(2001, ["us", "US", "cn", "gb"], field=" ", rid="b"),  # duplicate, lower-case, blank field
        rec_line(2001, ["US", "CN"], field="Physics", rid="c"),
        rec_line(2001, ["DE"], field="Physics", rid="d"),  # single-country
        rec_line(2001, ["fr", "de", "US"], field="Physics", rid="e"),
        rec_line(2003, ["JP"], field="Biology", rid="f"),  # 2003 has no Physics record, 2001 no Biology one
        rec_line(2003, ["US", "JP", "CN"], field="Biology", rid="g"),
        rec_line(2003, ["CN", "US"], field="Biology", rid="h"),
    ]

    def reference(self, records, years, fields, threshold):
        for year in years:
            for fld in fields:
                stats = country_year_stats(records, year, fld)
                matching = [r for r in records if r.year == year and fld in (ALL_FIELDS, r.field)]
                counts = {"pubs": len(matching), "intl": sum(r.international for r in matching)}
                yield filter_countries(build_annual_edges(records, year, fld), stats, threshold), stats, counts

    def assert_parity(self, tallies, records, threshold):
        years = sorted({r.year for r in records})
        fields = [ALL_FIELDS] + sorted({r.field for r in records} - {ALL_FIELDS})
        assert (len(tallies), sorted(tallies.by_year)) == (len(records), years)
        slice_counts = {}
        got = list(_record_slices(tallies, years, fields, threshold, slice_counts))
        want = list(self.reference(records, years, fields, threshold))
        assert len(got) == len(want) == len(years) * len(fields)
        for (net, stats), (ref_net, ref_stats, ref_counts) in zip(got, want):
            assert net.slice == ref_net.slice
            assert net.nodes == ref_net.nodes
            assert list(net.edges.items()) == sorted(ref_net.edges.items())  # in pair order
            assert all(type(w) is float for w in net.edges.values())
            assert list(stats.items()) == list(ref_stats.items())
            assert slice_counts[f"{net.slice.year}/{net.slice.field}"] == ref_counts
        return got

    def assert_lines_parity(self, lines, thresholds):
        tallies = parse_publications(lines, Tallies()).records
        records = parse_publications(lines).records
        for threshold in thresholds:
            self.assert_parity(tallies, records, threshold)
        return tallies, records

    @pytest.mark.parametrize("threshold", [0, 1, 2, 3, 100])
    def test_edge_cases(self, threshold):
        tallies = parse_publications(self.LINES, Tallies()).records
        got = self.assert_parity(tallies, parse_publications(self.LINES).records, threshold)
        empty = {(net.slice.year, net.slice.field) for net, stats in got if not stats}
        assert empty == {(2001, "Biology"), (2003, "Physics")}
        if threshold == 100:  # above every country
            assert all(not net.edges for net, _ in got)

    def test_generated_corpus(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        pubgen.write_corpus(path, 5, 4000)
        with path.open() as fh:
            lines = list(fh)
        self.assert_lines_parity(lines, (0, 3, 10))

    def test_more_countries_than_one_byte_numbers(self):
        # 300 countries need 16-bit country numbers; the arrays widen when the 257th is first seen
        rng = random.Random(3)
        codes = [f"C{i:03d}" for i in range(300)]
        teams = [rng.sample(codes, rng.choice([1, 2, 5, 40])) for _ in range(400)]
        lines = [rec_line(2001 + i % 2, team, field=rng.choice("XY"), rid=str(i)) for i, team in enumerate(teams)]
        tallies, _ = self.assert_lines_parity(lines, (2,))
        assert tallies.typecode == "H"

    def test_countries_first_seen_in_reverse_code_order(self, tmp_path):
        # each line brings the next country down in code order, in another field than the last;
        # the file starts with a byte-order mark and ends its lines with CRLF
        codes = [f"C{i:02d}" for i in range(12)][::-1]
        lines = [rec_line(2001 + i % 3, codes[max(0, i - 2):i + 1], field=["A", "B", ""][i % 3], rid=str(i))
                 for i in range(len(codes))]
        path = tmp_path / "pubs.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + "".join(line + "\r\n" for line in lines).encode())
        parsed = parse_publications_file(path)
        assert parsed.skipped == 0
        assert list(parsed.records.index) == codes  # numbered in reverse code order
        for threshold in (0, 1, 2):
            self.assert_parity(parsed.records, parse_publications(lines).records, threshold)

    def test_memory_peak_on_generated_corpus(self, tmp_path, caplog):
        # ingest over a held list of parsed records peaked at 12.06 MiB here; streaming into tallies
        # peaks at 1.26-1.27 MiB (over four hash seeds). A parsed record cost about 670 bytes, so holding
        # about a thousand of the 20,000 would break the bound
        path = tmp_path / "gen.jsonl"
        pubgen.write_corpus(path, 2, pubgen.RECORDS)
        caplog.set_level(logging.ERROR, logger="collabnet.ingest")
        tracemalloc.start()
        try:
            ingest_publications(path, tmp_path / "corpus", threshold=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * 2**20, peak
