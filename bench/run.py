"""Benchmark of the mixedsums package: one workload per run.

    python3 bench/run.py --workload suite --seed 0 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``. Each
workload is a closed loop with one client: the next item starts only when
the previous one has finished, and the loop runs whole passes over the
workload's items until ``--seconds`` have passed. Everything runs in this
one process; the only threads are those the CLI's default ``--threads``
starts.

``--trace 0`` reports the end-to-end metrics: items per probe (the items
of a pass over the pass time measured in runs of a fixed probe, which
runs between items; see ``probe.py``), set-up time (import plus the median
of three set-ups, each generating the inputs and running every item once)
and peak RSS. Items per second, the probe's time, the median and tail
item latencies and the failure fraction are printed too but are not in the
final JSON line.
``--trace 1`` runs the loop untraced for half the time and traced for the
other half, reports per-layer metrics per pass over the items and the
tracing overhead, and writes the spans to ``bench/out/``.

Every item's output is checked (see ``workloads.py``); a failed check or an
exception counts as a failed item. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
preceding lines give the same figures by name, the failure fraction, the
computed counts and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_TAIL_BEYOND = 10
FULL_SETUPS = 3
PROBE_EVERY_S = 0.25  # item time between two runs of the speed probe
# per-layer counts repeated on the summary line; all but the last are
# derived from input shapes, not measured
COUNTS = (
    "norms.brute.patterns",
    "forms.entries_generated",
    "tensors.mixed_norm.bytes_computed",
    "norms.ascent.restarts",
    "norms.ascent.converged_frac",
)
LARGEST_ARRAY_MIB = 32  # bound_growth's 2048 x 2048 float64 coefficients


def limit_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP thread counts at nproc; call before importing NumPy."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            value = nproc + 1
        if not 1 <= value <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def add_src_path() -> None:
    """Import the package from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "mixedsums" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))


# ------------------------------------------------------------- measurement


def run_item(item):
    """Run one item; returns (latency_s, output, error text or None)."""
    t0 = time.perf_counter()
    try:
        out = item.run()
        err = None
    except (Exception, SystemExit) as e:  # a failing item is counted, not fatal
        out, err = None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, out, err


def judge(item, out, err, ref, golden: bytes | None) -> list[str]:
    """Check one output; golden is the warm-up output it must repeat."""
    if err is not None:
        return [err]
    try:
        problems = item.check(out, ref)
        if golden is not None and item.encode(out) != golden:
            problems.append("output differs from the warm-up run of the same item")
    except Exception as e:  # a malformed output is a failed item
        problems = [f"check raised {type(e).__name__}: {e}"]
    return problems


def set_up(setup, seed: int, size: str, tmp: Path, repeats: int):
    """Set up `repeats` times; returns (durations, items, warm-up outputs)."""
    durations = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        items = setup(seed, size, tmp)
        warm = [run_item(item) for item in items]
        durations.append(time.perf_counter() - t0)
    return durations, items, warm


def measure(items, refs, golden, seconds: float, tracer=None, speed=None):
    """Closed loop over whole passes; returns latencies, failures, passes.

    With a ``speed`` probe, the probe runs before the first item and then
    before each item that follows PROBE_EVERY_S of item time since its last
    run; its time is not an item's.
    """
    latencies: list[float] = []
    failures: list[tuple[str, list[str]]] = []
    passes = 0
    since_probe = PROBE_EVERY_S
    deadline = time.perf_counter() + seconds
    while True:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = len(latencies)
            if speed is not None and since_probe >= PROBE_EVERY_S:
                speed.run()
                since_probe = 0.0
            latency, out, err = run_item(item)
            since_probe += latency
            latencies.append(latency)
            problems = judge(item, out, err, refs[i], golden[i])
            if problems:
                failures.append((item.name, problems))
        passes += 1
        if time.perf_counter() >= deadline:
            return latencies, failures, passes


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least MIN_TAIL_BEYOND samples beyond it.

    Returns (percentile, value): the order statistic with exactly
    MIN_TAIL_BEYOND larger samples, or the smallest sample when there are
    too few samples for that.
    """
    xs = sorted(latencies)
    k = max(0, len(xs) - 1 - MIN_TAIL_BEYOND)
    return 100.0 * k / max(1, len(xs) - 1), xs[k]


# ------------------------------------------------------------- provenance


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_info() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            info["caches"][label] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def provenance(args, env: dict, cli_threads: int) -> dict:
    import numpy as np

    cpu = cpu_info()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "cli_threads_default": cli_threads,
        "thread_env": env,
        "notes": [
            "items_per_probe = items per pass / (mean pass time / mean probe time); per-layer values are per pass over the items",
            "computed counts are derived from input shapes, not measured",
            f"largest array {LARGEST_ARRAY_MIB} MiB against last-level cache "
            f"{cpu['caches'].get('L3', 'unknown')}: no bandwidth claim",
        ],
    }


# ------------------------------------------------------------- reporting


def end_to_end(latencies: list[float], n_items: int, setup_s: float,
               probe_s: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from whole passes over `n_items` items.

    Returns (metrics, reported): the metrics go into the final JSON line;
    the item latencies are only reported. Which order statistic the tail is
    depends on the number of passes, so a run with a few passes fewer can
    land it on another item, and the shared machine's slow stretches
    dominate it. The median item latency is the median of the per-item
    medians: with whole passes every item has the same number of samples,
    and the pooled median of a mix with gaps between its items' latencies
    would fall on a gap. On ``suite`` it falls on the analytic items of
    about 6 ms, which the slow stretches of a shared 2-vCPU VM moved by up
    to 1.7x between runs, more than the largest bound allows.

    The throughput is ``items_per_probe``: the items of one pass over the
    mean pass time measured in runs of the fixed probe (``probe.py``), so
    the items done in the time one probe run takes. The shared machine's
    speed drifted by up to 1.8x between runs, and the wall-clock
    ``items_per_s`` (items of one pass over the median pass time) moved
    with it; it is reported but not in the final JSON line.
    """
    per_item = [statistics.median(latencies[i::n_items]) for i in range(n_items)]
    pass_s = [sum(latencies[i : i + n_items]) for i in range(0, len(latencies), n_items)]
    pass_probes = (sum(pass_s) / len(pass_s)) / (sum(probe_s) / len(probe_s))
    pct, tail_s = tail(latencies)
    metrics = {
        "items_per_probe": {"value": n_items / pass_probes, "unit": "1/probe"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    reported = {
        "items_per_s": {"value": n_items / statistics.median(pass_s), "unit": "1/s"},
        "probe_ms": {"value": 1e3 * statistics.median(probe_s), "unit": "ms"},
        "item_p50_ms": {"value": 1e3 * statistics.median(per_item), "unit": "ms"},
        "item_tail_ms": {"value": 1e3 * tail_s, "unit": "ms", "percentile": pct,
                         "samples": len(latencies),
                         "beyond": min(MIN_TAIL_BEYOND, len(latencies) - 1)},
    }
    return metrics, reported


def per_layer(summary: dict, passes: int, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics per pass over the items.

    Returns (metrics, reported) as ``end_to_end`` does. The JSON decoding of
    forms is only reported: only ``ascent_large``, which BENCHMARK.json does
    not list, decodes forms on the item path.
    """
    names = summary["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    per_pass = {
        "norms.brute.self_s": ("s", get("norms.brute", "self_s")),
        "norms.brute.calls": ("count", get("norms.brute", "calls")),
        "norms.brute.patterns": ("count", get("norms.brute", "patterns")),
        "norms.ascent.self_s": ("s", get("norms.ascent", "self_s")),
        "norms.ascent.calls": ("count", get("norms.ascent", "calls")),
        "norms.ascent.restarts": ("count", get("norms.ascent", "restarts")),
        "norms.dual_maximizer.calls": ("count", get("norms.dual_maximizer", "calls")),
        "norms.dual_maximizer.s": ("s", get("norms.dual_maximizer", "s")),
        "forms.partial_contract.calls": ("count", get("forms.partial_contract", "calls")),
        "forms.partial_contract.s": ("s", get("forms.partial_contract", "s")),
        "forms.ksz_random_form.calls": ("count", get("forms.ksz_random_form", "calls")),
        "forms.ksz_random_form.s": ("s", get("forms.ksz_random_form", "s")),
        "forms.entries_generated": ("count", get("forms.rng.sign_array", "entries")),
        "tensors.mixed_norm.calls": ("count", get("tensors.mixed_norm", "calls")),
        "tensors.mixed_norm.s": ("s", get("tensors.mixed_norm", "s")),
        "tensors.mixed_norm.bytes_computed": ("B", get("tensors.mixed_norm", "bytes")),
        "growth.run_growth.self_s": ("s", get("growth.run_growth", "self_s")),
        "growth.rows": ("count", get("growth.run_growth", "rows")),
        "growth.loglog_fit.s": ("s", get("growth.loglog_fit", "s")),
        "growth.serialize.s": ("s", get("growth.series_to_csv", "s") + get("growth.report_obj", "s")),
        "exponents.predict.calls": ("count", get("exponents.predict", "calls")),
        "exponents.predict.s": ("s", get("exponents.predict", "s")),
        "cli.main.self_s": ("s", get("cli.main", "self_s")),
        "norms.analytic.calls": ("count", get("norms.analytic", "calls")),
        "norms.analytic.s": ("s", get("norms.analytic", "s")),
    }
    metrics = {
        name: {"value": value / passes, "unit": f"{unit}/pass"}
        for name, (unit, value) in per_pass.items()
    }
    metrics["norms.brute.patterns_per_s"] = {
        "value": ratio(get("norms.brute", "patterns"), get("norms.brute", "s")),
        "unit": "1/s",
    }
    metrics["norms.ascent.converged_frac"] = {
        "value": ratio(get("norms.ascent", "converged"), get("norms.ascent", "calls")),
        "unit": "fraction",
    }
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    reported = {
        "forms.form_from_obj.s": {
            "value": get("forms.form_from_obj", "s") / passes, "unit": "s/pass",
        },
    }
    return metrics, reported


def print_report(result: dict) -> None:
    w = result["provenance"]
    print(f"workload={w['workload']} seed={w['seed']} seconds={w['seconds']} "
          f"trace={w['trace']} size={w['size']} passes={result['passes']}")
    for name, m in {**result["metrics"], **result.get("reported", {})}.items():
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']:.2f} of {m['samples']} samples, {m['beyond']} beyond)"
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}{extra}")
    print(f"  {'failed_frac':<36} {result['failed_frac']:>16.6g} fraction "
          f"({result['failed']} of {result['attempted']})")
    for name, problems in result["failures"][:20]:
        print(f"  FAILED {name}: {'; '.join(problems)}")
    if result.get("computed_counts"):
        print("computed counts: " + json.dumps(result["computed_counts"], sort_keys=True))
    print("provenance: " + json.dumps(w, sort_keys=True))


# ------------------------------------------------------------- entry point


def run(args, env: dict, import_s: float) -> dict:
    from mixedsums import cli

    import probe
    import tracing
    import workloads

    setup = workloads.WORKLOADS[args.workload]
    cli_threads = cli.build_parser().parse_args(["norm", "--input", "-"]).threads
    tmp = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        repeats = FULL_SETUPS if args.size == "full" else 1
        durations, items, warm = set_up(setup, args.seed, args.size, tmp, repeats)
        setup_s = import_s + statistics.median(durations)
        refs = [item.reference() if item.reference else None for item in items]
        golden = []
        failures = []
        for item, (_, out, err), ref in zip(items, warm, refs):
            problems = judge(item, out, err, ref, None)
            golden.append(item.encode(out) if not problems else None)
            if problems:
                failures.append((f"{item.name} (warm-up)", problems))
        attempted = len(items)
        result = {"provenance": provenance(args, env, cli_threads)}
        if args.trace:
            half = args.seconds / 2.0
            lat0, fail0, passes0 = measure(items, refs, golden, half)
            with tracing.Tracer() as tracer:
                lat1, fail1, passes1 = measure(items, refs, golden, half, tracer)
            overhead = (sum(lat1) / len(lat1)) / (sum(lat0) / len(lat0)) - 1.0
            summary = tracing.summarize(tracer.spans)
            metrics, result["reported"] = per_layer(summary, passes1, overhead)
            attempted += len(lat0) + len(lat1)
            failures += fail0 + fail1
            passes = passes1
            result["traced_item_latencies_s"] = lat1
            result["missing_spans"] = tracer.missing
            tracing.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", tracer.spans)
            result["computed_counts"] = {k: metrics[k]["value"] for k in COUNTS}
            result["summary"] = summary
        else:
            speed = probe.Probe()
            latencies, fails, passes = measure(items, refs, golden, args.seconds, speed=speed)
            attempted += len(latencies)
            failures += fails
            metrics, result["reported"] = end_to_end(latencies, len(items), setup_s, speed.times)
            result["probe_times_s"] = speed.times
            result["per_item_p50_ms"] = {
                item.name: 1e3 * statistics.median(latencies[i :: len(items)])
                for i, item in enumerate(items)
            }
            result["setup_durations_s"] = durations
            result["latencies_s"] = latencies
            result["import_s"] = import_s
        failed = len(failures)
        result.update(
            metrics=metrics,
            passes=passes,
            attempted=attempted,
            failed=failed,
            failed_frac=failed / attempted,
            failures=failures,
        )
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "brute_exact", "ascent_large", "bound_growth"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs and one set-up, for the benchmark's tests")
    parser.add_argument("--out", help="also write the full result as JSON to this path")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env = limit_threads()
    add_src_path()
    t0 = time.perf_counter()
    import mixedsums  # noqa: F401  (timed: part of set-up)
    import mixedsums.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if not Path(mixedsums.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: mixedsums imported from {mixedsums.__file__}, not {ROOT / 'src'}")
    result = run(args, env, import_s)
    print_report(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
