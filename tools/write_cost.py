"""Time the bundled suite through ``cli.main`` with its outputs reused or new.

Usage:
    python tools/write_cost.py [--src SRC] [--dir DIR] [--passes N]

Each pass runs the ten experiments of ``growth.bundled_suite()`` through
``cli.main`` at their own seeds, as the ``suite`` benchmark workload does.
Two kinds of pass alternate:

  rerun  every pass writes into the same CSV and report paths, so each
         experiment finds its outputs already there, as in the benchmark's
         ``suite`` workload, which reruns one ``--out`` per item
  fresh  every pass writes into a new directory, so no output exists
         before the run writes it

The outputs go under DIR (in a temporary directory removed at the end), so
file systems can be compared, and the package is imported from SRC
(default: the ``src`` beside this script), so trees can be compared. It
prints, for each kind, the share of experiment runs whose CSV existed
before the run and the median and quartiles of ms per pass.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--dir", default=None, help="where the outputs go (default: the temp dir)")
    parser.add_argument("--passes", type=int, default=100, help="timed passes of each kind")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from mixedsums import cli, growth

    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        tmp = Path(tmp)
        suite = []
        for idx, (cfg, mode) in enumerate(growth.bundled_suite()):
            config = tmp / f"config{idx}.json"
            config.write_text(json.dumps(growth.config_to_obj(cfg)))
            suite.append((idx, str(config), mode))

        def run_pass(out: Path) -> tuple[int, float]:
            out.mkdir(exist_ok=True)
            argvs = [
                ["experiment", "--config", config, "--mode", mode,
                 "--out", str(out / f"suite{idx}.csv")]
                for idx, config, mode in suite
            ]
            existed = sum(os.path.exists(argv[-1]) for argv in argvs)
            with redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                codes = [cli.main(argv) for argv in argvs]
                elapsed = time.perf_counter() - start
            if any(codes):
                raise SystemExit(f"an experiment exited with {codes}")
            return existed, elapsed

        run_pass(tmp / "rerun")  # untimed: imports, caches and the rerun outputs
        existed = {"rerun": 0, "fresh": 0}
        times = {"rerun": [], "fresh": []}
        for n in range(args.passes):
            for kind in ("rerun", "fresh") if n % 2 == 0 else ("fresh", "rerun"):
                found, elapsed = run_pass(tmp / ("rerun" if kind == "rerun" else f"fresh{n}"))
                existed[kind] += found
                times[kind].append(elapsed * 1e3)

    where = args.dir or "the temp dir"
    print(f"{args.passes} passes of each kind, src {args.src}, outputs under {where}")
    for kind, ms in times.items():
        q1, median, q3 = statistics.quantiles(ms, n=4)
        share = existed[kind] / (len(suite) * args.passes)
        print(f"{kind:6} outputs existed {share:6.1%}  "
              f"ms/pass median {median:.2f} (q1 {q1:.2f}, q3 {q3:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
