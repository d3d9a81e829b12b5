"""Tests of the scripts under tools/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]],
        env=dict(os.environ, OMP_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=300, cwd=cwd,
    )


def test_compare_outputs_shows_why_a_digest_run_failed(tmp_path):
    package = tmp_path / "mixedsums"
    package.mkdir()
    (package / "__init__.py").write_text('raise RuntimeError("this tree cannot be imported")\n')
    proc = _tool("compare_outputs.py", str(tmp_path))
    assert proc.returncode == 1
    assert "Traceback (most recent call last)" in proc.stderr
    assert "RuntimeError: this tree cannot be imported" in proc.stderr
    assert f"the digest run of {tmp_path} exited with status 1" in proc.stderr


def test_item_times_prints_each_item_and_the_sum(tmp_path):
    proc = _tool("item_times.py", "suite", "--runs", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("suite: minimum of 2 runs per item")
    times = [float(line.split()[0]) for line in lines[1:]]
    assert len(times) == 11 and all(t > 0.0 for t in times)
    assert [line.split()[-1] for line in lines[1:3]] == [
        "suite0:row:m2:analytic:upper_bound", "suite1:row:m2:ascent:upper_bound",
    ]
    assert lines[-1].endswith("sum of the minima")
    assert abs(times[-1] - sum(times[:-1])) < 0.01
    assert list(tmp_path.iterdir()) == []


def test_write_cost_times_both_pass_kinds_and_cleans_up(tmp_path):
    proc = _tool("write_cost.py", "--passes", "2", "--dir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"2 passes of each kind, src {ROOT / 'src'}, outputs under {tmp_path}"
    kinds = {line.split()[0]: line.split()[3] for line in lines[1:]}
    assert kinds == {"rerun": "100.0%", "fresh": "0.0%"}
    assert list(tmp_path.iterdir()) == []
