"""Smoke tests of the in-process A/B and bitwise harness ``tools/ab.py``,
run on the registry pool of one seed with a directory as the other side."""

import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, "tools", "ab.py")


def _ab(other, rounds):
    return subprocess.run(
        [sys.executable, AB, str(other), "--seeds", "1", "--workloads", "registry",
         "--rounds", str(rounds), "--passes", "1"],
        capture_output=True, text=True, timeout=600,
    )


def test_the_tree_against_itself_reads_bitwise_equal():
    out = _ab(ROOT, rounds=1)
    assert out.returncode == 0, out.stderr
    # the seed-1 registry pool takes 59 iterations on either side
    assert "iterations 59 / 59" in out.stdout and "bitwise equal" in out.stdout
    assert "faster" in out.stdout and "DIFFER" not in out.stdout


def test_a_changed_solver_constant_is_reported_as_differing(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "src" / "ipal" / "solver.py"
    text = solver.read_text()
    assert text.count("TAU_MIN = 0.99") == 1
    solver.write_text(text.replace("TAU_MIN = 0.99", "TAU_MIN = 0.9"))
    out = _ab(tmp_path, rounds=0)
    assert out.returncode == 1, out.stderr
    assert "DIFFER: seed 1 " in out.stdout
    # each differing task says how far it moved: status and iterations
    # matched or not, and the relative difference of each field that moved
    moved = [line for line in out.stdout.splitlines() if line.startswith("  seed 1 ")]
    assert moved and all("status " in line and "iterations " in line for line in moved)
    x_moves = [float(m.group(1)) for m in map(re.compile(r"max rel diff .*\bx ([0-9.e+-]+)").search, moved) if m]
    assert x_moves and max(x_moves) > 0.0
