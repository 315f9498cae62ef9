"""Stored inputs that the program cannot use end as a data error.

Hypothesis writes network JSON documents, edge-CSV rows and JSONL
publication lines, many of them malformed (non-string names, short or long
rows, blank cells, fractional, negative, NaN, infinite, huge and boolean
weights, repeated pairs; float, boolean, huge and non-digit years, nested and
unstorable countries, fields whose file names collide or run too long, a
byte-order mark, CRLF), and runs them through `cli.main` in-process. The
exit code is 0 or 2, nothing is raised, and a run that exits 2 leaves no
output behind. An ingest that exits 0 counts every non-blank JSONL line as
a record or as skipped.
"""

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from collabnet import cli

NAME = st.sampled_from(["A", "B", "C", "D"])
ODD_NAME = st.one_of(st.sampled_from(["", "A,B", "a"]), st.integers(-2, 2), st.none(), st.booleans(),
                     st.lists(NAME, max_size=1))
ANY_NAME = st.one_of(NAME, NAME, ODD_NAME)
WEIGHT = st.one_of(st.floats(0.125, 8.0), st.floats(0.125, 8.0), st.floats(), st.integers(-3, 3),
                   st.integers(-10**400, 10**400), st.booleans(), st.none(), st.just("1"))
ROW = st.tuples(ANY_NAME, ANY_NAME, WEIGHT).map(list)
ROWS = st.lists(st.one_of(ROW, ROW, ROW, st.lists(st.one_of(ANY_NAME, WEIGHT), max_size=4), ANY_NAME), max_size=6)
DOCUMENT = st.fixed_dictionaries(
    {"nodes": st.one_of(st.lists(ANY_NAME, max_size=6), st.lists(NAME, max_size=6), ANY_NAME),
     "edges": st.one_of(ROWS, ROWS, ANY_NAME)},
    optional={"slice": st.one_of(st.fixed_dictionaries({"year": st.integers(2000, 2030)}), st.integers())})

COUNTRY = st.sampled_from(["US", "CN", "GB", "DE", "us", "", " "])
CELL_WEIGHT = st.one_of(st.floats(0.125, 8.0).map(repr), st.floats().map(repr),
                        st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "0.5", "1e308", "5e-324", "x"]))
CSV_ROW = st.tuples(st.sampled_from(["2001", "2002", "2003", "", "x", "2001.5"]), st.sampled_from(["", "", "Physics"]),
                    COUNTRY, COUNTRY, CELL_WEIGHT, st.lists(st.sampled_from(["", "x", "1"]), max_size=2))
CSV_ROWS = st.lists(st.one_of(CSV_ROW.map(lambda r: [*r[:5], *r[5]]), CSV_ROW.map(lambda r: list(r[:5])),
                              CSV_ROW.map(lambda r: list(r[:3]))), max_size=8)


@settings(max_examples=150, deadline=None)
@given(DOCUMENT)
def test_network_json(document):
    with tempfile.TemporaryDirectory() as tmp:
        net, out = Path(tmp, "net.json"), Path(tmp, "res", "m.csv")
        net.write_text(json.dumps(document), encoding="utf-8")
        code = cli.main(["metrics", "--net", str(net), "--metric", "bc,bcw,deg,clustering,communities", "--out", str(out)])
        assert code in (0, 2)
        assert Path(tmp, "res").exists() == (code == 0)


@settings(max_examples=150, deadline=None)
@given(CSV_ROWS)
def test_edge_csv(rows):
    with tempfile.TemporaryDirectory() as tmp:
        edges, corpus = Path(tmp, "edges.csv"), Path(tmp, "corpus")
        with edges.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["year", "field", "country_a", "country_b", "weight"])
            writer.writerows(rows)
        code = cli.main(["ingest", "--pubs", str(edges), "--out", str(corpus), "--threshold", "0"])
        assert code in (0, 2)
        assert corpus.exists() == (code == 0)


GOOD_YEAR = st.integers(1990, 1993)
YEAR = st.one_of(GOOD_YEAR, GOOD_YEAR, GOOD_YEAR, GOOD_YEAR.map(str), st.floats(), st.booleans(), st.none(),
                 st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).map(str),
                 st.sampled_from(["", "x", " 1991 ", "1991.0", "1e3", "1" * 5000]))
CODE = st.sampled_from(["US", "cn", "GB", "", " ", "A,B", "\x00", "\ud800"])
GOOD_CODES = st.lists(st.sampled_from(["US", "CN", "GB", "DE"]), min_size=1, max_size=4)
COUNTRIES = st.one_of(GOOD_CODES, GOOD_CODES, GOOD_CODES, st.lists(CODE, max_size=4),
                      st.lists(st.one_of(CODE, st.integers(), st.none(), st.lists(CODE, max_size=2)), max_size=3),
                      CODE, st.integers(), st.none())
GOOD_FIELD = st.sampled_from(["Physics", "Biology", "", " "])
FIELD = st.one_of(GOOD_FIELD, GOOD_FIELD, GOOD_FIELD, st.sampled_from(["physics", "All", "all", "Phys-ics", "F" * 201]),
                  st.integers(), st.none(), st.booleans(), st.lists(CODE, max_size=1))
RECORD = st.fixed_dictionaries({"year": YEAR, "countries": COUNTRIES}, optional={"field": FIELD, "id": st.text(max_size=3)})
GOOD_RECORD = st.fixed_dictionaries({"year": GOOD_YEAR, "countries": GOOD_CODES, "field": GOOD_FIELD})
LINE = st.one_of(GOOD_RECORD.map(json.dumps), RECORD.map(json.dumps), RECORD.map(json.dumps),
                 st.sampled_from(["", " ", "{bad", "null", "[1]", '"x"', "{}", "\x00", "1" * 5000]))
LINES = st.tuples(st.lists(LINE, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans(), st.booleans())


@settings(max_examples=150, deadline=None)
@given(LINES)
def test_jsonl_lines(drawn):
    lines, end, bom, last_end = drawn
    with tempfile.TemporaryDirectory() as tmp:
        pubs, corpus = Path(tmp, "pubs.jsonl"), Path(tmp, "corpus")
        text = ("\ufeff" if bom else "") + end.join(lines) + (end if last_end else "")
        pubs.write_text(text, encoding="utf-8", newline="")
        code = cli.main(["ingest", "--pubs", str(pubs), "--out", str(corpus), "--threshold", "0"])
        assert code in (0, 2)
        assert corpus.exists() == (code == 0)
        if code == 0:
            manifest = json.loads(Path(corpus, "manifest.json").read_text(encoding="utf-8"))
            with pubs.open(encoding="utf-8-sig") as fh:
                assert manifest["records"] + manifest["skipped"] == sum(1 for line in fh if line.strip())
