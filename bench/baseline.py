"""Record a baseline: every workload, listed or not, untraced and traced on two seeds.

    python3 bench/baseline.py [--out bench/BENCH_baseline.json]

Each run is a separate ``bench/run.py`` process and lasts ``run_seconds``
from ``BENCHMARK.json``. The baseline also keeps, per workload, each layer's
share of a traced pass and the heaviest spans by self time, and one recorded
observation of the CLI's default ``--threads`` against ``--threads 1``
(alternating repetitions in one process).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
SEEDS = (0, 1)
THREAD_REPEATS = 5


def one_run(workload: str, seed: int, trace: int) -> dict:
    out = BENCH / "out" / f"baseline-{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace), "--out", str(out)]
    subprocess.run(cmd, check=True, cwd=BENCH.parent, stdout=subprocess.DEVNULL, timeout=600)
    return json.loads(out.read_text())


def shares(traced: dict) -> dict:
    """Each layer's and each span name's self time as a share of a traced pass."""
    lat = traced["traced_item_latencies_s"]
    pass_s = sum(lat) / traced["passes"]
    names = traced["summary"]["names"]
    top = sorted(names.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    return {
        "pass_s": pass_s,
        "layers": {k: v / traced["passes"] / pass_s for k, v in traced["summary"]["layers"].items()},
        "top_self": {k: v["self_s"] / traced["passes"] / pass_s for k, v in top},
    }


def import_workloads():
    sys.path.insert(0, str(BENCH))
    import run

    run.limit_threads()
    run.add_src_path()
    import workloads

    return workloads


def threads_observation(workloads) -> dict:
    """Default --threads against --threads 1 on the suite and on one large ascent."""
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        tmp = Path(tmp)
        suite = workloads.setup_suite(workloads.DEFAULT_SEED, "full", tmp)
        ascent = [
            item for item in workloads.setup_ascent_large(workloads.DEFAULT_SEED, "full", tmp)
            if item.name == "ascent:m2:n256:p4.0"
        ]
        cases = {"suite": [item.argv for item in suite], "ascent:m2:n256:p4.0": [ascent[0].argv]}
        result = {}
        for label, argvs in cases.items():
            times = {"default": [], "threads_1": []}
            for _ in range(THREAD_REPEATS):
                for key, extra in (("default", []), ("threads_1", ["--threads", "1"])):
                    t0 = time.perf_counter()
                    for argv in argvs:
                        workloads.run_cli(argv + extra)
                    times[key].append(time.perf_counter() - t0)
            result[label] = {
                key: {"median_s": statistics.median(v), "runs_s": v} for key, v in times.items()
            }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(BENCH / "BENCH_baseline.json"))
    args = parser.parse_args(argv)
    workloads = import_workloads()
    runs = []
    summary = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            plain = one_run(name, seed, 0)
            traced = one_run(name, seed, 1)
            for res in (plain, traced):
                runs.append({
                    "workload": name,
                    "seed": seed,
                    "trace": res["provenance"]["trace"],
                    "attempted": res["attempted"],
                    "failed": res["failed"],
                    "passes": res["passes"],
                    "metrics": {
                        k: m["value"] for k, m in {**res["metrics"], **res.get("reported", {})}.items()
                    },
                    "per_item_p50_ms": res.get("per_item_p50_ms"),
                })
            if seed == SEEDS[0]:
                summary[name] = shares(traced)
                summary[name]["provenance"] = plain["provenance"]
    baseline = {
        "runs": runs,
        "shares_of_traced_pass": summary,
        "threads_observation": threads_observation(workloads),
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
