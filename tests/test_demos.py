"""Smoke test: every script in demos/ runs with its defaults and says what it should."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedsums

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo, line",
    [
        ("exponent_tour.py", "1/(1.0, 1.0) = 1/(2.0, 2.0) + 1/(2.0, 2.0)"),
        ("growth_experiment.py", "verdict         consistent (mode=match, tolerance=0.15)"),
        ("norm_race.py", "sanity: diagonal form closed-form norm 8 vs enumerated 8"),
    ],
    ids=["exponent_tour", "growth_experiment", "norm_race"],
)
def test_demo_runs_with_its_defaults(demo, line):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mixedsums.__file__)))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
