"""Run one workload over several seeds and report how steady its metrics are.

    python3 perfbench/spread.py --workload hole_closure --seeds 1-10

Each seed is one process of BENCHMARK.json's command with its
run_seconds, run one after another from the root of the checkout. Prints, per end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the quartile spread as a share
of the median, then the raw wall seconds of a round for comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    raw = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        round_line = next(line for line in lines if line.strip().startswith("round "))
        raw.append(float(round_line.split("raw")[1].split()[0]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()) + f", raw round {raw[-1]:.3f} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {(q3 - q1) / med:.3f}")
    q1, _, q3 = statistics.quantiles(raw, n=4)
    print(f"{'raw round':12s} median {statistics.median(raw):10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
          f"spread {(q3 - q1) / statistics.median(raw):.3f}  range {min(raw):.3f}-{max(raw):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
