"""The measuring scripts under scripts/ still run against the package.

They read private names of the package (`phylo_model._compile_blocks`,
`geodesic._min_cover`, `_ENUM_MAX`, ...), so a rename there breaks them;
each runs here on the smallest input it takes.
"""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

from bhvphylo.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_likelihood_scaling_reports_a_miss_and_a_hit():
    done = run_script(
        "likelihood_scaling.py", "--taxa", "8", "--columns", "10", "--repeats", "1", "--steps", "2"
    )
    assert done.returncode == 0, done.stderr
    (row,) = json.loads(done.stdout)["rows"]
    assert row["taxa"] == 8
    assert row["miss_ms"] > 0.0 and row["hit_ms"] > 0.0


def test_treespace_scaling_measures_a_small_tree_set():
    path = SCRIPTS / "treespace_scaling.py"
    spec = importlib.util.spec_from_file_location("treespace_scaling", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    row = script.measure(5, 4, 4, 1, random.Random(1))
    assert row["geodesic_ms"] > 0.0 and row["step_ms"] > 0.0
    assert 0.0 <= row["layout_hit_rate"] <= 1.0


def test_command_cost_prints_a_row_for_every_command():
    done = run_script("command_cost.py")
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0] for line in done.stdout.splitlines() if line.strip()}
    assert len(COMMANDS) == 9 and set(COMMANDS) <= rows
