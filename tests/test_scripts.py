"""The experiment scripts run end to end on a small seeded sample, and the
mutation survey's mutants still match the source."""

import importlib.util
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


def test_every_mutant_matches_its_source_exactly_once():
    # a mutant whose text moved on would be reported stale only when the survey runs
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    counts = {
        name: (ROOT / file).read_text().count(old)
        for name, (file, old, _) in mutants.MUTANTS.items()
    }
    assert counts and all(count == 1 for count in counts.values()), counts
