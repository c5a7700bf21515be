"""The experiment scripts run end to end on a small seeded sample."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,rows",
    [("guidance_sweep.py", ["1.0", "3.0", "7.5"])],
    ids=["guidance_sweep"],
)
def test_script_runs_on_two_pairs(script, rows):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--pairs", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("2 pairs, seed 7")
    assert [line.split()[0] for line in lines[2:5]] == rows
