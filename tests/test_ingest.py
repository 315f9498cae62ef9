import json
import sys
from pathlib import Path

import pytest

from collabnet.errors import DataError
from collabnet.ingest import (
    ALL_FIELDS,
    CorpusStore,
    CountryYearStats,
    EdgeList,
    build_annual_edges,
    filter_countries,
    ingest_publications,
    parse_publications,
    participation,
)
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
    ])
    def test_non_integer_year_or_non_string_country_is_malformed(self, line):
        result = parse_publications([line, rec_line(2002, ["US", "CN"])])
        assert [(r.year, r.countries) for r in result.records] == [(2002, frozenset({"US", "CN"}))]
        assert result.skipped == 1

    def test_integer_and_digit_string_years_accepted(self):
        result = parse_publications([rec_line(2002, ["US"]), rec_line("2003", ["US"])])
        assert [r.year for r in result.records] == [2002, 2003]
        assert result.skipped == 0

    def test_international_flag(self):
        result = parse_publications([rec_line(2010, ["US"]), rec_line(2010, ["US", "CN"])])
        assert [r.international for r in result.records] == [False, True]


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
        import random
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


def stats_for(el: EdgeList, intl: dict[str, int], threshold_source=None):
    return {
        c: CountryYearStats(c, el.year, el.field, intl.get(c, 0), max(intl.get(c, 0), 1))
        for c in el.countries()
    }


class TestFilterCountries:
    def make(self):
        el = EdgeList(2010, "all")
        el.add("A", "B", 3)
        el.add("B", "C", 2)
        return el

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

    def test_stats_invariant_rejected(self):
        with pytest.raises(DataError):
            CountryYearStats("US", 2001, "all", intl_pubs=5, total_pubs=3)

    def test_unusable_input_leaves_no_directory(self, tmp_path):
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text("garbage line\n" + rec_line(2001, []))
        with pytest.raises(DataError, match="no usable records"):
            ingest_publications(pubs, tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    def test_unreadable_source_fatal(self, tmp_path):
        with pytest.raises(DataError):
            ingest_publications(tmp_path / "nope.jsonl", tmp_path / "corpus")
