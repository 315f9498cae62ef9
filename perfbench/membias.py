"""Does the program's working set move the scale of reference seconds?

    python3 perfbench/membias.py --mib 64

The probe's kernel shares the caches with the program, so a program that
touches more memory could slow the kernel and shrink its own reference
seconds. This script runs one RefClock over alternating blocks of the same
Python work: random reads of a 256 KiB list, then of a --mib MiB list.
Each large block's raw time, reference time and kernel median are divided
by the mean of its two small neighbours, so a change of the host's speed
largely cancels. Without bias the reference ratio equals the raw ratio and
the kernel ratio is 1.
"""

from __future__ import annotations

import argparse
import statistics

import refclock

OPS = 2_500_000
BLOCKS = 30  # large blocks, about 1 s each


def _work(lst: list[int]) -> None:
    mask = len(lst) - 1
    x = 12345
    for _ in range(OPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        lst[x & mask]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--mib", type=int, default=64, help="size of the large list; a power of two")
    args = p.parse_args()
    small = [i & 255 for i in range(1 << 15)]
    large = [i & 255 for i in range(args.mib << 17)]
    clock = refclock.RefClock()
    clock.start()
    marks = []
    for b in range(2 * BLOCKS + 1):
        t0 = clock.mark()
        _work(large if b % 2 else small)
        marks.append((t0, clock.mark()))
    clock.stop()
    rows = [(t1 - t0, clock.ref_seconds(t0, t1), statistics.median(clock.kernel_times(t0, t1))) for t0, t1 in marks]
    print(f"large list {args.mib} MiB, {BLOCKS} large blocks; large / mean of its small neighbours:")
    for j, name in enumerate(("raw", "reference", "kernel")):
        ratios = [rows[i][j] / statistics.mean((rows[i - 1][j], rows[i + 1][j])) for i in range(1, len(rows), 2)]
        q1, med, q3 = statistics.quantiles(ratios, n=4)
        print(f"  {name:10s} median {med:.3f} (q1 {q1:.3f}, q3 {q3:.3f})")


if __name__ == "__main__":
    main()
