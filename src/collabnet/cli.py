"""collabnet command-line interface.

Subcommands: ingest, build, metrics, series, bridge, granger, forecast,
synth, chart. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure. COLLABNET_CORPUS supplies the default corpus directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import chart as chart_mod
from . import pipeline as pl
from . import structure, synth
from .centrality import centralization
from .errors import DataError, NumericError
from .graph import NORM_SCHEMES, CollabNetwork
from .ingest import ALL_FIELDS, MAX_YEAR, fresh_output, ingest_publications, read_json, write_json, write_table
from .timeseries import forecast as fit_forecast


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _corpus_default() -> str | None:
    return os.environ.get("COLLABNET_CORPUS")


def _years_range(text: str) -> tuple[int, int]:
    try:
        a, _, b = text.partition(":")
        lo, hi = int(a), int(b) if b else int(a)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad year range {text!r}, expected A:B")
    return lo, hi


def _build_parser() -> _Parser:
    parser = _Parser(prog="collabnet", description=__doc__)
    parser.add_argument("--config", help="JSON file with defaults for pipeline options")
    parser.add_argument("--seed", type=int, default=0)
    # the same globals are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("ingest", help="parse publications and persist the corpus store")
    p.add_argument("--pubs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=int, default=10)

    p = add_parser("build", help="build one windowed network as JSON")
    p.add_argument("--corpus", default=_corpus_default())
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--field", default=ALL_FIELDS)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--normalize", choices=NORM_SCHEMES, default="raw")
    p.add_argument("--threshold", type=int, default=10)
    p.add_argument("--out", required=True)

    p = add_parser("metrics", help="compute metrics for one network file")
    p.add_argument("--net", required=True)
    p.add_argument("--metric", required=True, help="comma list: bc,bcw,ev,deg,centralization,kcore,kcore_bc,clustering,efficiency,communities,ego:CC")
    p.add_argument("--out", required=True)

    p = add_parser("series", help="run the full metric-series pipeline")
    p.add_argument("--corpus", default=_corpus_default())
    p.add_argument("--out", required=True)
    p.add_argument("--years", type=_years_range)
    p.add_argument("--fields", default=ALL_FIELDS, help="comma list or 'all'")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--normalize", choices=NORM_SCHEMES, default="raw")
    p.add_argument("--threshold", type=int, default=10)
    p.add_argument("--metrics", default=",".join(pl.GLOBAL_METRICS))
    p.add_argument("--countries", default="", help="comma list of focus countries")
    p.add_argument("--bridge", action="append", default=[], metavar="SRC:VIA")

    p = add_parser("bridge", help="bridging-fraction series for one (source, via) pair")
    p.add_argument("--corpus", default=_corpus_default())
    p.add_argument("--source", required=True)
    p.add_argument("--via", required=True)
    p.add_argument("--years", type=_years_range)
    p.add_argument("--field", default=ALL_FIELDS)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--threshold", type=int, default=10)
    p.add_argument("--mode", choices=["any", "sigma"], default="any")
    p.add_argument("--out", required=True)

    p = add_parser("granger", help="Granger panel: IV participation vs global metrics")
    p.add_argument("--corpus", default=_corpus_default())
    p.add_argument("--iv", required=True, help="IV country code (participation series)")
    p.add_argument("--metrics", default="clustering,kcore_nodes,modularity,betw_centralization,avg_bc,efficiency")
    p.add_argument("--fields", default=ALL_FIELDS)
    p.add_argument("--years", type=_years_range)
    p.add_argument("--max-lag", type=int, default=6)
    p.add_argument("--threshold", type=int, default=10)
    p.add_argument("--out", required=True)

    p = add_parser("forecast", help="AR-with-drift forecast of a series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", required=True)

    p = add_parser("synth", help="synthetic growth models and the hole-closure experiment")
    p.add_argument("--model", choices=["pa", "fitness"], default="pa")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--arrival", type=int)
    p.add_argument("--checkpoints", type=int, default=50)
    p.add_argument("--densify-closure", type=float, default=0.0)
    p.add_argument("--densify-random", type=float, default=0.0)
    p.add_argument("--experiment", action="store_true", help="run the hole-closure experiment")
    p.add_argument("--standard", action="store_true", help="use the standard hole-closure setup")
    p.add_argument("--export-corpus", metavar="DIR", help="also export the trajectory as a corpus")
    p.add_argument("--out", required=True)

    p = add_parser("chart", help="render series CSVs as an SVG line chart")
    p.add_argument("--series", nargs="+", required=True)
    p.add_argument("--forecast", help="forecast CSV rendered as a band")
    p.add_argument("--title", default="")
    p.add_argument("--out", required=True)

    return parser


def _apply_config_file(parser: _Parser, args: argparse.Namespace, argv: list[str] | None) -> argparse.Namespace:
    """Re-parse with the file's values as defaults; command-line flags still win.

    A value reads as its flag typed on the command line: a string or number
    is the flag's text, a list a comma list (one flag per item for a flag
    that repeats or takes several values), and true/false only set a switch."""
    if not args.config:
        return args
    defaults = read_json(args.config, f"config file {args.config}")
    if not isinstance(defaults, dict):
        raise DataError(f"config file {args.config} must hold a JSON object")
    command = parser.commands[args.command]
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and attr != "command":
            # globals such as --seed are SUPPRESSed on the subparser, so that a
            # value parsed before the subcommand is not clobbered
            target = parser if command.get_default(attr) is argparse.SUPPRESS else command
            action = next(a for a in target._actions if a.dest == attr)
            target.set_defaults(**{attr: _config_value(target, action, key, value)})
    return parser.parse_args(argv)


def _config_value(parser: _Parser, action: argparse.Action, key: str, value):
    """The default that stands for `value` of config key `key`; argparse runs
    a string default through the flag's `type`, as it does a typed value."""
    if action.nargs == 0:  # a switch
        if not isinstance(value, bool):
            parser.error(f"config key {key!r} is a switch: expected true or false, got {value!r}")
        return value
    items = value if isinstance(value, list) else [value]
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
        parser.error(f"config key {key!r}: expected a string, a number or a list of them, got {value!r}")
    texts = [str(v) for v in items]
    if not all(map(_argv_text, texts)):
        parser.error(f"config key {key!r}: {value!r} holds text no command line can carry (a NUL or a lone surrogate)")
    if isinstance(action, argparse._AppendAction) or action.nargs in ("+", "*"):
        return texts
    text = ",".join(texts)
    if action.choices is not None and text not in action.choices:
        parser.error(f"argument {action.option_strings[0]}: invalid choice: {text!r}")
    return text


def _argv_text(text: str) -> bool:
    """Whether a command line can carry `text`: no NUL byte, and no character the file system cannot encode."""
    try:
        return b"\0" not in os.fsencode(text)
    except UnicodeEncodeError:
        return False


def _require_corpus(args) -> str:
    corpus = getattr(args, "corpus", None)
    if not corpus:
        raise DataError("no corpus directory: pass --corpus or set COLLABNET_CORPUS")
    return corpus


def _parse_fields(text: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in text.split(",") if f.strip()) or (ALL_FIELDS,)


def _cmd_ingest(args) -> int:
    manifest = ingest_publications(args.pubs, args.out, args.threshold)
    print(f"ingested {manifest.get('records')} records "
          f"({manifest.get('skipped')} skipped) into {args.out}")
    return 0


def _cmd_build(args) -> int:
    config = pl.PipelineConfig(
        corpus=_require_corpus(args), out=".", years=(args.year, args.year),
        fields=(args.field,), window=args.window, normalize=args.normalize,
        threshold=args.threshold,
    )
    [(_, net, _, _)] = pl.read_windows(config, args.field)
    if net is None:
        raise DataError(f"no edge lists for window ending {args.year}/{args.field}")
    net.save(args.out)
    print(f"wrote {args.out}: {net.n} nodes, {net.m} edges")
    return 0


def _cmd_metrics(args) -> int:
    net = CollabNetwork.load(args.net)
    analysis = pl.SliceAnalysis(net)
    wanted = [m.strip() for m in args.metric.split(",") if m.strip()]
    rows: list[tuple[str, str, float]] = []
    communities_out = None
    for metric in wanted:
        if metric in ("bc", "bcw", "ev", "deg"):
            rows += [(metric, node, v) for node, v in sorted(getattr(analysis, metric).items())]
        elif metric == "centralization":
            rows.append((metric, "", centralization(analysis.bc)))
        elif metric == "kcore":
            part = analysis.cores
            rows += [("kcore", node, float(v)) for node, v in sorted(part.core_number.items())]
            rows.append(("kcore_max", "", float(part.max_k)))
            rows.append(("kcore_nodes", "", float(part.kcore_nodes)))
            rows.append(("kcore_ratio", "", part.kcore_ratio))
        elif metric == "kcore_bc":
            # betweenness recomputed inside the maximum k-core subnetwork
            sub = net.subgraph(analysis.cores.max_core)
            if sub.n >= 3:
                rows += [("kcore_bc", node, v) for node, v in sorted(pl.SliceAnalysis(sub).bc.items())]
        elif metric == "clustering":
            res = structure.clustering(net)
            rows += [("clustering", node, v) for node, v in sorted(res.per_node.items())]
            rows.append(("clustering_avg", "", res.average))
        elif metric == "efficiency":
            rows.append((metric, "", structure.global_efficiency(net)))
        elif metric == "communities":
            part = analysis.partition
            communities_out = {"blocks": [list(b) for b in part.blocks], "Q": part.q}
            rows.append(("modularity", "", part.q))
            rows.append(("num_communities", "", float(len(part))))
        elif metric.startswith("ego:"):
            country = metric.split(":", 1)[1]
            rows.append((metric, country, analysis.ego_q(country)))
        else:
            raise DataError(f"unknown metric {metric!r}")
    with write_table(args.out, ["metric", "node", "value"]) as writer:
        writer.writerows((metric, node, repr(value)) for metric, node, value in rows)
    if communities_out is not None:
        cpath = Path(args.out).with_suffix(".communities.json")
        write_json(cpath, communities_out)
        print(f"wrote {cpath}")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _pipeline_config(args) -> pl.PipelineConfig:
    bridges = []
    for spec_pair in getattr(args, "bridge", []) or []:
        src, _, via = spec_pair.partition(":")
        if not src or not via:
            raise DataError(f"bad --bridge {spec_pair!r}, expected SRC:VIA")
        bridges.append((src.strip().upper(), via.strip().upper()))
    countries = tuple(c.strip().upper() for c in getattr(args, "countries", "").split(",") if c.strip())
    return pl.PipelineConfig(
        corpus=_require_corpus(args),
        out=args.out,
        years=getattr(args, "years", None),
        fields=_parse_fields(getattr(args, "fields", ALL_FIELDS)),
        window=getattr(args, "window", 1),  # granger has no --window: its panel is annual
        normalize=getattr(args, "normalize", "raw"),
        threshold=args.threshold,
        metrics=tuple(m.strip() for m in getattr(args, "metrics", ",".join(pl.GLOBAL_METRICS)).split(",") if m.strip()),
        countries=countries,
        bridges=tuple(bridges),
    )


def _cmd_series(args) -> int:
    summary = pl.run_pipeline(_pipeline_config(args))
    print(f"wrote {len(summary['series_files'])} series under {args.out} "
          f"(config {summary['config_hash']}, missing slices: {len(summary['missing'])})")
    return 0


def _cmd_bridge(args) -> int:
    config = pl.PipelineConfig(
        corpus=_require_corpus(args), out=".", years=args.years, fields=(args.field,),
        window=args.window, threshold=args.threshold,
    )
    source, via = args.source.upper(), args.via.upper()
    rows, found = [], False
    for year, net, _, _ in pl.read_windows(config, args.field):
        # a missing window keeps its row, with an empty fraction and no targets
        value = None if net is None else pl.bridge_value(net, source, via, args.mode)
        targets = 0 if net is None else max(net.n - 2, 0)
        rows.append((year, source, via, "" if value is None else repr(value), targets))
        found = found or net is not None
    if not found:
        raise DataError(f"no networks buildable for {args.field}")
    with write_table(args.out, ["year", "source", "via", "fraction", "targets"]) as writer:
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} years)")
    return 0


def _cmd_granger(args) -> int:
    config = _pipeline_config(args)
    iv = args.iv.upper()
    results, diagnostics = pl.granger_panel(config, iv, args.max_lag)
    pl.write_granger_csv(results, args.out, config.hash(iv=iv, max_lag=args.max_lag))
    share = diagnostics.get("nonstationary_share")
    extra = f", residual trend flagged in {share:.1%} of series" if share is not None else ""
    skipped = diagnostics["skipped_cells"]
    if skipped:
        extra += f"; {len(skipped)} skipped: {', '.join(f'{cell} ({why})' for cell, why in skipped.items())}"
    print(f"wrote {args.out} ({len(results)} cells{extra})")
    return 0


def _cmd_forecast(args) -> int:
    series = pl.read_series_csv(args.series)
    fc = fit_forecast(series, args.horizon, args.level)
    if fc.years[-1] > MAX_YEAR:  # chart reads the years back, bounded as in a corpus
        raise DataError(f"forecast year {fc.years[-1]} lies past {MAX_YEAR}")
    pl.write_forecast_csv(fc, args.out)
    print(f"wrote {args.out} (model {fc.model}, horizon {fc.horizon})")
    return 0


def _cmd_synth(args) -> int:
    if args.standard:
        config = synth.standard_run_config(args.seed)
    else:
        config = synth.SynthConfig(
            seed=args.seed,
            n_final=args.n,
            m=args.m,
            fitness_law="entrant" if args.arrival is not None and args.eta != 1.0 else ("constant" if args.model == "pa" else "uniform"),
            eta=args.eta,
            entrant_arrival=args.arrival,
            checkpoint_stride=args.checkpoints,
            densify_closure=args.densify_closure,
            densify_random=args.densify_random,
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.experiment or args.standard:
        run = synth.hole_closure_experiment(config)
        fresh_output(out).write_text(run.to_json() + "\n", encoding="utf-8")
        print(f"wrote {out} ({len(run.checkpoints)} checkpoints, hub {run.hub}, {run.densify_dropped} densify edges dropped)")
        traj = None
    else:
        traj = synth.generate_fitness(config)
        graph = traj.final_graph()
        graph.save(out)
        print(f"wrote {out} ({graph.n} nodes, {graph.m} edges, {traj.densify_dropped} densify edges dropped)")
    if args.export_corpus:
        traj = traj or synth.generate_fitness(config)
        synth.export_corpus(traj, args.export_corpus)
        print(f"exported corpus to {args.export_corpus}")
    return 0


def _cmd_chart(args) -> int:
    import hashlib

    series_list = [pl.read_series_csv(p) for p in args.series]
    band = pl.read_forecast_csv(args.forecast) if args.forecast else None
    digest = hashlib.sha256()
    for p in list(args.series) + ([args.forecast] if args.forecast else []):
        digest.update(Path(p).read_bytes())
    digest.update(args.title.encode("utf-8"))
    chart_mod.write_chart(series_list, args.out, args.title, band, digest.hexdigest()[:16])
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "build": _cmd_build,
    "metrics": _cmd_metrics,
    "series": _cmd_series,
    "bridge": _cmd_bridge,
    "granger": _cmd_granger,
    "forecast": _cmd_forecast,
    "synth": _cmd_synth,
    "chart": _cmd_chart,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = _apply_config_file(parser, parser.parse_args(argv), argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except DataError as exc:
        print(f"collabnet: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"collabnet: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
