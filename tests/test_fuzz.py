"""Stored inputs that the program cannot use end as a data error.

Hypothesis writes network JSON documents, edge-CSV rows, JSONL publication
lines, and series and forecast CSVs, many of them malformed (non-string
names, short or long rows, blank cells, fractional, negative, NaN, infinite,
huge, subnormal and boolean weights or values, repeated pairs or years;
float, boolean, huge and non-digit years, nested and unstorable countries,
fields whose file names collide or run too long, odd headers, a byte-order
mark, CRLF), and runs them through `cli.main` in-process. The exit code is
0 or 2, or 3 where a forecast's fit or a chart's axis overflows; nothing is
raised, and a run that does not exit 0 leaves no output behind. `--config`
documents (any JSON value; objects of known and unknown keys holding
plausible values, every JSON type, nested objects and lists) run the
window, forecast and chart commands, which may also exit 1. An ingest
that exits 0 counts every non-blank JSONL line as a record or as skipped,
a forecast that exits 0 writes only finite numbers, and a chart that exits
0 is XML with no NaN or infinite attribute.
"""

import contextlib
import csv
import io
import json
import random
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from collabnet import cli
from collabnet.ingest import ingest_publications
from collabnet.pipeline import read_forecast_csv

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


GOOD_VALUE = st.floats(-10.0, 10.0).map(repr)
VALUE = st.one_of(GOOD_VALUE, st.floats().map(repr), st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.sampled_from(["", "nan", "inf", "-1e308", "1e308", "5e-324", "-0.0", "x", "1e999", "0x10"]))
ODD_YEAR = st.sampled_from(["", "x", "2001.5", " 2001", "-0", "1" * 30, "1" * 400])
START = st.one_of(st.integers(1990, 2010), st.integers(1990, 2010), st.integers(-10**30, 10**30))
NAME_LINE = st.sampled_from(["", "# name=s\n", "# name=a<b&c\"d\n", "# name=ünï\n", "# unit=\n", "# name\n"])
HEADER = st.sampled_from(["year,value", "year,value", "year,value", "value,year", "year", "year,value,extra", ""])


@st.composite
def series_csv(draw):
    """A series CSV: mostly consecutive years from one start, with finite small
    values, huge or odd cells, a short, long or repeated row, or an odd header."""
    start = draw(START)
    scale = draw(st.sampled_from([1.0, 1.0, 1e307, 1e-320]))  # finite, yet overflowing or subnormal
    values = draw(st.one_of(st.lists(st.floats(-10.0, 10.0).map(lambda x: repr(x * scale)), min_size=10, max_size=14),
                            st.lists(VALUE, max_size=14)))
    rows = [[str(start + i), v] for i, v in enumerate(values)]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            k = draw(st.integers(0, len(rows) - 1))
            rows[k] = draw(st.sampled_from([[draw(ODD_YEAR), *rows[k][1:]], rows[k][:1], rows[k] + ["x"], rows[k - 1]]))
    return draw(NAME_LINE) + draw(HEADER) + "\n" + "".join(",".join(row) + "\n" for row in rows)


@st.composite
def forecast_csv(draw):
    """A forecast CSV: consecutive years, each row's cells finite and ordered or drawn at will."""
    start = draw(START)
    good = st.tuples(GOOD_VALUE, GOOD_VALUE, GOOD_VALUE).map(sorted).map(lambda c: [c[1], c[0], c[2]])
    cells = draw(st.lists(st.one_of(good, good, st.lists(VALUE, min_size=0, max_size=4)), max_size=6))
    header = draw(st.sampled_from(["year,point,lower,upper", "year,point,lower,upper", "year,point"]))
    return "# model=ar1\n" + header + "\n" + "".join(",".join([str(start + i), *c]) + "\n" for i, c in enumerate(cells))


def svg_numbers_finite(svg: str) -> bool:
    root = ET.fromstring(svg)
    return not any(word in value for el in root.iter() for value in el.attrib.values() for word in ("nan", "inf"))


@settings(max_examples=100, deadline=None)
@given(series_csv(), st.integers(1, 16), st.sampled_from(["0.95", "0.95", "0.5", "0.999999", "1", "0", "nan"]))
def test_forecast_series_csv(series, horizon, level):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "s.csv"), Path(tmp, "res", "fc.csv")
        path.write_text(series, encoding="utf-8")
        code = cli.main(["forecast", "--series", str(path), "--horizon", str(horizon), "--level", level, "--out", str(out)])
        assert code in (0, 2, 3)
        assert Path(tmp, "res").exists() == (code == 0)
        if code == 0:  # a forecast that succeeds writes only finite numbers, as chart reads them
            read_forecast_csv(out)


@settings(max_examples=100, deadline=None)
@given(st.lists(series_csv(), min_size=1, max_size=2), st.one_of(st.none(), forecast_csv()))
def test_chart_series_and_forecast_csv(series, band):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"s{i}.csv") for i in range(len(series))]
        for path, text in zip(paths, series):
            path.write_text(text, encoding="utf-8")
        argv = ["chart", "--series", *map(str, paths), "--out", str(Path(tmp, "res", "c.svg"))]
        if band is not None:
            Path(tmp, "fc.csv").write_text(band, encoding="utf-8")
            argv += ["--forecast", str(Path(tmp, "fc.csv"))]
        code = cli.main(argv)
        assert code in (0, 2, 3)
        assert Path(tmp, "res").exists() == (code == 0)
        if code == 0:
            assert svg_numbers_finite(Path(tmp, "res", "c.svg").read_text(encoding="utf-8"))


JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
# plausible values of each config key, and text no command line can carry (a NUL, a lone surrogate);
# "@corpus", "@series" and "@missing" stand for paths in the test's directory
PLAUSIBLE = {
    "corpus": ["@corpus", "@corpus", "@missing", "c\x00"],
    "years": ["2001:2010", "2004", 2006, "2008:2003", [2003, 2009]],
    "fields": ["all", ["all", "Physics"], "Physics,Biology"], "field": ["Physics", "all"], "window": [1, 2, 3, "2"],
    "normalize": ["log", "salton", "jaccard", "raw"], "threshold": [0, 1, "2", 50],
    "metrics": ["clustering", ["clustering", "avg_bc"], "efficiency,modularity", "bc"],
    "countries": [["US", "CN"], "US", ["ZZ"]], "bridge": [["CN:US"], "CN:US", ["CN:US", "GB:US"], "CN"],
    "mode": ["sigma", "any"], "max-lag": [1, 2, 10**12], "max_lag": [3], "horizon": [1, 3, 99],
    "level": [0.9, 0.5, 2], "title": ["t<&>", "\ud800"], "forecast": ["@series", "@missing", "f\x00"],
    "year": [2004, 1990], "iv": ["GB"], "source": ["GB", "ZZ"], "via": ["CN"], "seed": [1], "config": ["@missing"],
    "command": ["ingest"], "out": ["@missing"], "series": ["@missing"],
}
KEY = st.one_of(st.sampled_from(sorted(PLAUSIBLE)), st.sampled_from(["", "unknown", "n", "Window", "help", "--years"]))
ENTRY = KEY.flatmap(lambda key: st.tuples(st.just(key), st.one_of(st.sampled_from(PLAUSIBLE.get(key, [None])), JSON)))
CONFIG = st.one_of(st.lists(ENTRY, max_size=5).map(dict), st.lists(ENTRY, max_size=5).map(dict), JSON)
# each command's required flags; {series} names the shared series file, {out} the output
CONFIG_COMMANDS = {
    "series": ["series", "--out", "{out}"],
    "granger": ["granger", "--iv", "CN", "--out", "{out}/g.csv"],
    "bridge": ["bridge", "--source", "CN", "--via", "US", "--out", "{out}/b.csv"],
    "build": ["build", "--year", "2006", "--out", "{out}/net.json"],
    "forecast": ["forecast", "--series", "{series}", "--out", "{out}/f.csv"],
    "chart": ["chart", "--series", "{series}", "--out", "{out}/c.svg"],
}


@pytest.fixture(scope="module")
def config_inputs(tmp_path_factory):
    """A corpus of five countries in two fields over 2001-2012, most of them
    above the default threshold each year, and one of its series files."""
    root = tmp_path_factory.mktemp("config_fuzz")
    rng = random.Random(4)
    lines = [json.dumps({"year": rng.randint(2001, 2012), "field": rng.choice(["Physics", "Biology"]),
                         "countries": rng.sample(["US", "CN", "GB", "DE", "FR"], rng.randint(1, 3))})
             for _ in range(500)]
    Path(root, "pubs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    ingest_publications(root / "pubs.jsonl", root / "corpus", threshold=0)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["series", "--corpus", str(root / "corpus"), "--out", str(root / "res"),
                         "--metrics", "clustering"]) == 0
    return {"corpus": root / "corpus", "series": root / "res" / "series" / "clustering__all.csv"}


@settings(max_examples=60, deadline=2000)
@given(st.sampled_from(sorted(CONFIG_COMMANDS)), CONFIG, st.booleans())
@example("chart", {"forecast": "f\x00"}, False)  # a NUL in a path makes open() raise ValueError
@example("chart", {"title": "\ud800"}, False)  # a lone surrogate cannot be written as UTF-8
def test_config_documents(config_inputs, command, document, corpus_flag):
    with tempfile.TemporaryDirectory() as tmp:
        names = {"corpus": str(config_inputs["corpus"]), "series": str(config_inputs["series"]),
                 "missing": str(Path(tmp, "missing")), "out": str(Path(tmp, "res"))}
        text = json.dumps(document)
        for name in ("corpus", "series", "missing"):
            text = text.replace(f'"@{name}"', json.dumps(names[name]))
        Path(tmp, "cfg.json").write_text(text, encoding="utf-8")
        argv = [arg.format(**names) for arg in CONFIG_COMMANDS[command]]
        if corpus_flag and command in ("series", "granger", "bridge", "build"):
            argv += ["--corpus", names["corpus"]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(Path(tmp, "cfg.json")), *argv])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert Path(tmp, "res").exists() == (code == 0)
