"""Benchmark entry point: one workload, timed against an in-process speed reference.

    python3 perfbench/run.py --workload country_series --seed 3 --seconds 12 --trace 0

Run from the root of a checkout (the program is imported from ./src).
BENCHMARK.json runs it under `env` with BLAS/OpenMP threads pinned to 1.

Every timed stage is a `collabnet.cli.main([...])` call in this process,
the entry point a user types. Times are "reference seconds" (see
refclock.py); raw wall seconds are printed beside them for reference only.
A run makes a fixed number of whole rounds of its workload's CLI calls
(--seconds over the round's nominal length, at least one), then checks
the last round's outputs against computations made apart from the
program (checks.py) and that every round of a country workload wrote
byte-identical outputs. The last line of standard output is the JSON
result.

Workloads:
  country_series   ingest a generated corpus, then `series` on 3-year
                   windows over all fields plus the six fields
  country_granger  `granger` over all fields plus the six fields, on a
                   corpus (other seed) ingested during set-up
  hole_closure     two `synth --standard` runs (two seeds) per round
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import pubgen  # noqa: E402  (standard library only: numpy stays unimported until set-up)
import refclock  # noqa: E402

WORKLOADS = ("country_series", "country_granger", "hole_closure")
THRESHOLD = 10
SERIES_YEARS = (2022, 2024)
COUNTRIES = ("US", "CN", "GB")
BRIDGES = (("CN", "US"), ("GB", "US"))
IV = "CN"
MAX_LAG = 6
GLOBAL_METRICS = ("kcore_max", "kcore_nodes", "kcore_ratio", "clustering", "efficiency",
                  "num_communities", "modularity", "betw_centralization", "avg_bc")
FIELDS_ARG = ",".join(("all",) + pubgen.FIELDS)
# the program's own acceptance test uses standard seeds 1-20
HOLE_SEED_BASE = 1000
# nominal reference seconds of one round: a run makes --seconds // this
# many rounds (at least one), a number fixed by --seconds alone, so the
# measured work does not change with the host's or the program's speed.
# At --seconds 12: one country_series round (a second ingest in the same
# process runs 15-30% slower, README), six country_granger rounds and one
# hole_closure round of two seeds.
ROUND_SECONDS = {"country_series": 12.0, "country_granger": 2.0, "hole_closure": 24.0}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _tree_digest(path: Path) -> str:
    """Hash of every file under path (names and bytes), for round-to-round identity."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


class Call(NamedTuple):
    """One timed CLI call."""

    phase: str  # "setup" or "loop"
    round: int
    name: str
    start: float
    end: float
    rc: int


class Workload:
    """Inputs, set-up, the CLI calls of one round, and the output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.gen_seed = 2 * seed + (name == "country_granger")
        # country rounds repeat the same calls, so their outputs must match
        # byte for byte; hole_closure rounds run new seeds
        self.same_each_round = name != "hole_closure"
        self.pubs = work / "pubs.jsonl"
        self.lines = 0

    def make_inputs(self) -> None:
        if self.name != "hole_closure":
            self.lines = pubgen.write_corpus(self.pubs, self.gen_seed)

    def setup_calls(self) -> list[list[str]]:
        if self.name == "country_granger":
            return [["ingest", "--pubs", str(self.pubs), "--out", str(self.work / "corpus"), "--threshold", str(THRESHOLD)]]
        return []

    def round_calls(self, k: int) -> tuple[list[list[str]], Path]:
        """The CLI calls of round k and the directory they write to.

        Every round writes to the same path: the program hashes its
        options, paths included, into its outputs."""
        out = self.work / "round"
        if self.name == "country_series":
            corpus = out / "corpus"
            series = ["series", "--corpus", str(corpus), "--out", str(out / "results"),
                      "--years", f"{SERIES_YEARS[0]}:{SERIES_YEARS[1]}", "--fields", FIELDS_ARG,
                      "--countries", ",".join(COUNTRIES)]
            for src, via in BRIDGES:
                series += ["--bridge", f"{src}:{via}"]
            ingest = ["ingest", "--pubs", str(self.pubs), "--out", str(corpus), "--threshold", str(THRESHOLD)]
            return [ingest, series], out
        if self.name == "country_granger":
            return [["granger", "--corpus", str(self.work / "corpus"), "--iv", IV, "--metrics", ",".join(GLOBAL_METRICS),
                     "--fields", FIELDS_ARG, "--max-lag", str(MAX_LAG), "--out", str(out / "granger.csv")]], out
        return [["synth", "--standard", "--seed", str(seed), "--out", str(out / f"run{seed}.json")]
                for seed in self.hole_seeds(k)], out

    def hole_seeds(self, k: int) -> tuple[int, int]:
        """The two standard-run seeds of round k."""
        base = HOLE_SEED_BASE + 7919 * self.seed + 2 * k
        return base, base + 1

    def check(self, out: Path, k: int) -> list[str]:
        """Independent checks of round k's outputs (imports networkx only now)."""
        import checks

        rng = random.Random(f"checks:{self.name}:{self.seed}")
        if self.name == "hole_closure":
            from collabnet import synth
            import networkx as nx

            fails = []
            for seed in self.hole_seeds(k):
                # the trajectory is regrown by the program's own generator:
                # the checks are on the metrics reported at its checkpoints
                traj = synth.generate_fitness(synth.standard_run_config(seed))
                run = json.loads((out / f"run{seed}.json").read_text(encoding="utf-8"))
                graphs = {}
                for cp in run["checkpoints"]:
                    net = traj.graph_at(cp["node_count"])
                    graphs[cp["node_count"]] = g = nx.Graph()
                    g.add_nodes_from(net.nodes)
                    g.add_edges_from(net.edges)
                fails += [f"seed {seed}: {msg}" for msg in checks.check_hole(run, graphs)]
            return fails

        ref = checks.recount(pubgen.generate(self.gen_seed, pubgen.RECORDS), THRESHOLD)
        fields = list(ref.fields)
        if self.name == "country_series":
            corpus = checks.load_corpus(out / "corpus")
            fails = checks.check_ingest(corpus, ref, self.lines, pubgen.MALFORMED_LINES)
            series = checks.load_series(out / "results" / "series", corpus["manifest"]["field_slugs"])
            years = range(SERIES_YEARS[0], SERIES_YEARS[1] + 1)
            # networkx on one dense all-fields window and two field windows
            hop = [(rng.choice(years), "all")] + [(rng.choice(years), f) for f in rng.sample(fields[1:], 2)]
            # exact weighted BC costs ~4 s on a dense window: one all-fields
            # window, plus every field window (small)
            weighted = [(rng.choice(years), "all")] + [(y, f) for f in fields[1:] for y in years]
            fails += checks.check_series(series, ref, list(years), 3, COUNTRIES, BRIDGES, hop, weighted)
            return fails
        corpus = checks.load_corpus(self.work / "corpus")
        fails = checks.check_ingest(corpus, ref, self.lines, pubgen.MALFORMED_LINES)
        rows = checks.load_granger(out / "granger.csv")
        # betweenness series on 24 dense annual graphs cost seconds, so the
        # all-fields cell uses the cheaper metrics; field cells use any
        cheap = ("kcore_max", "kcore_nodes", "kcore_ratio", "clustering", "efficiency")
        costly = cheap + ("betw_centralization", "avg_bc")
        cells = [("all", rng.choice(cheap))] + [(f, rng.choice(costly)) for f in rng.sample(fields[1:], 2)]
        return fails + checks.check_granger(rows, ref, IV, cells, MAX_LAG)


def _call(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "collabnet" / "cli.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, Workload(args.workload, args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, wl: Workload) -> int:
    wl.make_inputs()  # not timed
    clock = refclock.RefClock()
    tracer = None
    clock.start()

    # set-up: the cold import of the program is setup_s. The granger corpus
    # ingest follows, timed on its own: ingest's reference time moves with
    # the host's speed far more than the import's does (README)
    t_setup = clock.mark()
    sys.path.insert(0, str(ROOT / "src"))
    from collabnet import cli

    t_import = clock.mark()

    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    calls: list[Call] = []
    for argv in wl.setup_calls():
        t0 = clock.mark()
        rc = _call(cli, argv)
        calls.append(Call("setup", -1, argv[0], t0, clock.mark(), rc))
    t_loop = clock.mark()
    setup_counts = dict(tracer.counts) if tracer else {}

    # timed loop: a fixed number of whole rounds
    rounds = max(1, int(args.seconds // ROUND_SECONDS[wl.name]))
    digests = []
    for k in range(rounds):
        argvs, out = wl.round_calls(k)
        if out.exists():
            if wl.same_each_round:
                digests.append(_tree_digest(out))
            shutil.rmtree(out)
        out.mkdir(parents=True)
        for argv in argvs:
            t0 = clock.mark()
            rc = _call(cli, argv)
            calls.append(Call("loop", k, argv[0], t0, clock.mark(), rc))
    t_end = clock.mark()
    clock.stop()
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, not timed; a failed call is counted, and its outputs go unchecked
    loop = [c for c in calls if c.phase == "loop"]
    failed = sum(1 for c in calls if c.rc != 0)
    for c in calls:
        if c.rc != 0:
            print(f"{c.name} ({c.phase}, round {c.round}) exited {c.rc}", file=sys.stderr)
    last_out = wl.round_calls(rounds - 1)[1]
    last = _tree_digest(last_out)
    fails = [f"round {i} outputs differ from round {rounds - 1}" for i, d in enumerate(digests) if d != last]
    if failed:
        fails.append(f"outputs unchecked: {failed} CLI call(s) failed")
    else:
        fails += wl.check(last_out, rounds - 1)
    for msg in fails[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    setup_ref = clock.ref_seconds(t_setup, t_import)
    per_round = [sum(clock.ref_seconds(c.start, c.end) for c in loop if c.round == r) for r in range(rounds)]
    if wl.same_each_round:
        stage_s = statistics.median(per_round)
    else:  # one standard run, as the median over the run's seeds
        stage_s = statistics.median(clock.ref_seconds(c.start, c.end) for c in loop)
    _report(wl, clock, calls, per_round, setup_ref, t_setup, t_import, t_end, peak_rss_mb)

    if tracer:
        metrics = _layer_metrics(tracer, clock, setup_counts, t_setup, t_loop, t_end, rounds)
    else:
        metrics = {
            "setup_s": {"value": setup_ref, "unit": "s"},
            "stage_s": {"value": stage_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not fails, "attempted": len(calls), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, clock, setup_counts, t_setup, t_loop, t_end, rounds) -> dict:
    """Per-layer values for one set-up plus one round (loop totals / rounds).

    Also prints each layer's set-up and per-round self time, in reference
    and in raw wall seconds, and their sums."""
    import tracer as tracer_mod

    setup = tracer.self_times(clock.to_ref, t_setup, t_loop)
    loop = tracer.self_times(clock.to_ref, t_loop, t_end)
    setup_raw = tracer.self_times(lambda t: t, t_setup, t_loop)
    loop_raw = tracer.self_times(lambda t: t, t_loop, t_end)
    print(f"  {'layer self time':28s} {'setup ref':>10s} {'raw':>8s} {'round ref':>10s} {'raw':>8s}")
    for name in tracer_mod.TIMED:
        print(f"  {name:28s} {setup[name]:10.3f} {setup_raw[name]:8.3f} {loop[name] / rounds:10.3f} {loop_raw[name] / rounds:8.3f}")
    print(f"  {'sum':28s} {sum(setup.values()):10.3f} {sum(setup_raw.values()):8.3f} "
          f"{sum(loop.values()) / rounds:10.3f} {sum(loop_raw.values()) / rounds:8.3f}")
    out = {name: {"value": setup[name] + loop[name] / rounds, "unit": "s"} for name in tracer_mod.TIMED}
    for name in tracer_mod.COUNTS:
        before = setup_counts.get(name, 0)
        out[name] = {"value": before + (tracer.counts.get(name, 0) - before) / rounds, "unit": "count"}
    return out


def _report(wl, clock, calls, per_round, setup_ref, t_setup, t_import, t_end, rss) -> None:
    """Human-readable lines: reference seconds beside raw wall seconds."""
    loop = [c for c in calls if c.phase == "loop"]
    raw_round = [sum(c.end - c.start for c in loop if c.round == r) for r in range(len(per_round))]
    print(f"workload {wl.name} seed {wl.seed}: {len(per_round)} round(s), {len(calls)} CLI calls")
    print(f"  setup        ref {setup_ref:8.3f} s   raw {t_import - t_setup:8.3f} s   (import)")
    for c in calls:
        if c.phase == "setup":
            print(f"  {c.name:12s} ref {clock.ref_seconds(c.start, c.end):8.3f} s   raw {c.end - c.start:8.3f} s   (set-up)")
    for name in dict.fromkeys(c.name for c in loop):
        ref = [clock.ref_seconds(c.start, c.end) for c in loop if c.name == name]
        raw = [c.end - c.start for c in loop if c.name == name]
        print(f"  {name:12s} ref {statistics.median(ref):8.3f} s   raw {statistics.median(raw):8.3f} s   (median of {len(ref)})")
    print(f"  round        ref {statistics.median(per_round):8.3f} s   raw {statistics.median(raw_round):8.3f} s")
    print("  rounds ref " + " ".join(f"{v:.3f}" for v in per_round) + " | raw " + " ".join(f"{v:.3f}" for v in raw_round))
    kernel = clock.kernel_times()
    probe = clock.probe_seconds(t_setup, t_end)
    print(f"  probes {len(kernel)}, kernel median {statistics.median(kernel) * 1e3:.2f} ms "
          f"(min {min(kernel) * 1e3:.2f}, max {max(kernel) * 1e3:.2f}), "
          f"{100 * probe / (t_end - t_setup):.1f}% of wall time; peak RSS {rss:.1f} MB")


if __name__ == "__main__":
    sys.exit(main())
