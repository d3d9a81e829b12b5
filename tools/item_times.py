"""Print each benchmark item's minimum time over K in-process runs, and their sum.

Usage:
    python tools/item_times.py WORKLOAD [--runs K] [--src SRC]

WORKLOAD is one of the workloads of ``bench/workloads.py`` (suite,
brute_exact, ascent_large, bound_growth). The script sets the workload up
at seed 0, the benchmark's default, in a temporary directory, runs every
item once untimed, then runs K rounds (default 15) of every item in order
and keeps each item's fastest run. A minimum over many runs drops most of the noise
that other processes add, so the sum of the minima sizes a change in a few
seconds, before a benchmark pair of ``bench/run.py``. Every run's output
must encode to the bytes of the untimed run; if one does not, the script
says which item and exits 1.

The package is imported from SRC (default: the ``src`` beside this
script), so two trees can be timed with the same workloads. Nothing under
``bench/`` is written. Set OMP_NUM_THREADS=1 for numbers comparable with
the benchmark's.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--runs", type=int, default=15, help="timed runs of each item")
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        items = workloads.WORKLOADS[args.workload](0, "full", Path(tmp))
        golden = [item.encode(item.run()) for item in items]
        best = [float("inf")] * len(items)
        for _ in range(args.runs):
            for k, item in enumerate(items):
                start = time.perf_counter()
                out = item.run()
                best[k] = min(best[k], time.perf_counter() - start)
                if item.encode(out) != golden[k]:
                    print(f"{item.name}: output differs from its first run", file=sys.stderr)
                    return 1

    print(f"{args.workload}: minimum of {args.runs} runs per item, src {args.src}")
    for item, t in zip(items, best):
        print(f"{t * 1e3:9.3f} ms  {item.name}")
    print(f"{sum(best) * 1e3:9.3f} ms  sum of the minima")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
