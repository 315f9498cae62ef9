"""Seeded publication generator for the benchmark's country workloads.

Writes JSON-lines records in the form `collabnet ingest` reads:
`{"id", "year", "field", "countries"}`. The same seed always gives the
same file. It uses only the standard library, so generating inputs never
imports numpy ahead of the program's own (timed) import.

Make-up of a corpus:
- 180 countries with heavy-tailed output (Zipf weights, exponent 1.1);
  US is the largest and GB the third largest. CN rises from rank 13 of
  the table in 2001 to the largest output by 2024.
- Records per year grow 7% a year over 2001-2024; each record gets one
  of six fields with unequal shares.
- DOMESTIC_SHARE of the records have one country. The other records have
  a power-law number of countries (2-12, exponent 2.5): a lead drawn by
  output, each partner uniform with probability 0.75 and otherwise by
  output. Uniform partners are what lift small countries over the ingest
  threshold.
- CONSORTIUM_SHARE of each year's records are consortia of 10-40
  countries, half drawn by output and half uniformly. Their number and
  sizes are fixed per year, so the density of the windows varies little
  with the seed; the late 3-year all-fields windows hold all 180
  countries and 9-11k edges.
- MALFORMED_LINES lines that ingest must skip are planted at seeded
  positions.

Usage: python3 perfbench/pubgen.py --seed 7 --out pubs.jsonl  (RECORDS valid records)
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
import string
from pathlib import Path

YEARS = tuple(range(2001, 2025))
# valid records in a benchmark corpus
RECORDS = 20000
FIELDS = ("Physics", "Medicine", "Chemistry", "Engineering", "Life Sciences", "Social Sciences")
FIELD_SHARES = (0.22, 0.25, 0.15, 0.15, 0.13, 0.10)
FOCUS = ("US", "CN", "GB")
N_COUNTRIES = 180

# one of each kind of line that ingest counts as skipped
_BAD_LINES = (
    "{not json",
    '{"id": "x", "field": "Physics", "countries": ["US", "GB"]}',
    '{"id": "x", "year": "twenty", "field": "Physics", "countries": ["US"]}',
    '{"id": "x", "year": 2010, "field": "Physics", "countries": "US,GB"}',
    '{"id": "x", "year": 2010, "field": "Physics", "countries": []}',
    '{"id": "x", "year": 2010, "field": "Physics", "countries": ["  ", ""]}',
    "[1, 2, 3]",
)
MALFORMED_LINES = 7 * len(_BAD_LINES)

DOMESTIC_SHARE = 0.20
CONSORTIUM_SHARE = 0.006
GROWTH = 1.07
_TEAM_SIZES = tuple(range(2, 13))
_TEAM_CUM = tuple(itertools.accumulate(k ** -2.5 for k in _TEAM_SIZES))


def country_codes() -> tuple[str, ...]:
    """The 180 codes, largest base output first; fixed across seeds."""
    others = (
        a + b
        for a, b in itertools.product(string.ascii_uppercase, repeat=2)
        if a + b not in FOCUS
    )
    rest = list(itertools.islice(others, N_COUNTRIES - len(FOCUS)))
    # US first, GB third, CN at rank 12 of the base table
    return ("US", rest[0], "GB") + tuple(rest[1:10]) + ("CN",) + tuple(rest[10:])


def _year_weights(codes: tuple[str, ...], year: int) -> list[float]:
    weights = [(rank + 1) ** -1.1 for rank in range(len(codes))]
    progress = (year - YEARS[0]) / (YEARS[-1] - YEARS[0])
    weights[codes.index("CN")] = 0.08 + 1.02 * progress  # US is 1.0
    return weights


def _draw_distinct(rng: random.Random, cum: list[float], k: int) -> list[int]:
    chosen: set[int] = set()
    total = cum[-1]
    while len(chosen) < k:
        chosen.add(bisect.bisect_right(cum, rng.random() * total))
    return sorted(chosen)


def year_counts(records: int) -> list[int]:
    """Valid records per year: about `records` in total, growing 7% a year."""
    growth = [GROWTH ** i for i in range(len(YEARS))]
    return [round(records * g / sum(growth)) for g in growth]


def generate(seed: int, records: int):
    """Yield the valid records (dicts) in file order, for the given seed."""
    rng = random.Random(seed)
    codes = country_codes()
    field_cum = list(itertools.accumulate(FIELD_SHARES))
    rid = 0
    for year, count in zip(YEARS, year_counts(records)):
        cum = list(itertools.accumulate(_year_weights(codes, year)))
        # consortia make most of the window density, so their number and
        # sizes are fixed per year and only their members vary with the seed
        n_consortia = round(CONSORTIUM_SHARE * count)
        sizes = [10 + 30 * i // max(n_consortia - 1, 1) for i in range(n_consortia)]
        teams = []
        for _ in range(count - n_consortia):
            if rng.random() < DOMESTIC_SHARE:
                teams.append(_draw_distinct(rng, cum, 1))
                continue
            # a lead drawn by output; each partner uniform with p=0.75, else by output
            k = _TEAM_SIZES[bisect.bisect_right(_TEAM_CUM, rng.random() * _TEAM_CUM[-1])]
            team = set(_draw_distinct(rng, cum, 1 + sum(rng.random() < 0.25 for _ in range(k - 1))))
            while len(team) < k:
                team.add(rng.randrange(N_COUNTRIES))
            teams.append(sorted(team))
        for size in sizes:
            # half of the members by output, half uniform
            by_output = set(_draw_distinct(rng, cum, size // 2))
            teams.append(sorted(by_output | set(rng.sample(range(N_COUNTRIES), size - size // 2))))
        for team in teams:
            fld = FIELDS[bisect.bisect_right(field_cum, rng.random() * field_cum[-1])]
            rid += 1
            yield {"id": f"P{rid:07d}", "year": year, "field": fld, "countries": [codes[i] for i in team]}


def write_corpus(path: str | Path, seed: int, records: int = RECORDS) -> int:
    """Write the JSONL file with the planted malformed lines; returns lines written."""
    rng = random.Random(f"malformed:{seed}")
    positions = sorted(rng.sample(range(sum(year_counts(records))), MALFORMED_LINES))
    bad = iter(_BAD_LINES * (MALFORMED_LINES // len(_BAD_LINES)))
    written = 0
    nxt = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(generate(seed, records)):
            while nxt < len(positions) and positions[nxt] == i:
                fh.write(next(bad) + "\n")
                written += 1
                nxt += 1
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            written += 1
    return written


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    lines = write_corpus(args.out, args.seed)
    print(f"wrote {lines} lines ({MALFORMED_LINES} malformed) to {args.out}")


if __name__ == "__main__":
    main()
