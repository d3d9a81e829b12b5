"""Compare the deterministic experiment payloads of two source trees.

Usage:
    python tools/compare_outputs.py OLD_SRC [NEW_SRC]

Each SRC is a directory that contains the ``mixedsums`` package (a tree's
``src``); NEW_SRC defaults to this checkout's ``src``. For every tree the
script runs, in a fresh interpreter, the ten ``bundled_suite()``
experiments and the ``bound_growth`` benchmark experiments at seeds 0 and
5, and hashes ``series_to_csv`` plus ``report_obj`` of each. It prints one
line per experiment and exits 1 if any payload differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUND_SEEDS = (0, 5)


def digests() -> dict[str, str]:
    """sha256 of CSV + JSON report for every experiment, in this interpreter."""
    sys.path.insert(0, str(ROOT / "bench"))
    from mixedsums import growth
    import workloads

    def payload(series, fit) -> str:
        report = json.dumps(growth.report_obj(series, fit), indent=2)
        return growth.series_to_csv(series) + report

    out = {}
    for idx, (cfg, mode) in enumerate(growth.bundled_suite()):
        series = growth.run_growth(cfg)
        fit = growth.loglog_fit(series, mode=mode)
        out[f"suite{idx}:{cfg.family}:{cfg.norm_method}"] = payload(series, fit)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in BOUND_SEEDS:
            for item in workloads.setup_bound_growth(seed, "full", Path(tmp)):
                out[f"seed{seed}:{item.name}"] = payload(*item.run())
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in out.items()}


def run_tree(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--digest"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--digest"]:
        print(json.dumps(digests()))
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_src = Path(argv[0]).resolve()
    new_src = Path(argv[1]).resolve() if len(argv) == 2 else ROOT / "src"
    old, new = run_tree(old_src), run_tree(new_src)
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        same = old.get(name) == new.get(name)
        differ += not same
        print(f"{'same  ' if same else 'DIFFER'} {name} {new.get(name, '-')[:16]}")
    print(f"{len(old)} experiments, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
