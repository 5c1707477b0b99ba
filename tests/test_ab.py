"""Smoke tests of the in-process A/B and bitwise harness ``tools/ab.py``,
run on the registry pool of one seed with a directory as the other side."""

import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, "tools", "ab.py")


def _ab(other, rounds, ab=AB):
    return subprocess.run(
        [sys.executable, str(ab), str(other), "--seeds", "1", "--workloads", "registry",
         "--rounds", str(rounds), "--passes", "1"],
        capture_output=True, text=True, timeout=600,
    )


def test_the_tree_against_itself_reads_bitwise_equal():
    out = _ab(ROOT, rounds=1)
    assert out.returncode == 0, out.stderr
    # the seed-1 registry pool takes 59 iterations on either side
    assert "iterations 59 / 59" in out.stdout and "bitwise equal" in out.stdout
    assert "faster" in out.stdout and "DIFFER" not in out.stdout
    assert re.search(r"^src/ipal nonblank lines (\d+) / \1 \(\S+ / this\): \+0$", out.stdout, re.M)


def test_one_added_line_reads_plus_one(tmp_path):
    # a copy of the tree with one more nonblank line, and one blank line,
    # compared from the copy against this tree: +1, and bitwise equal
    ignore = shutil.ignore_patterns("__pycache__")
    for folder in ("src", "tools", "perfbench"):
        shutil.copytree(os.path.join(ROOT, folder), tmp_path / folder, ignore=ignore)
    with open(tmp_path / "src" / "ipal" / "cone.py", "a") as fh:
        fh.write("\n# one more line\n")
    out = _ab(ROOT, rounds=0, ab=tmp_path / "tools" / "ab.py")
    assert out.returncode == 0, out.stderr
    lines = re.search(r"^src/ipal nonblank lines (\d+) / (\d+) \(\S+ / this\): \+1$", out.stdout, re.M)
    assert lines and int(lines[2]) == int(lines[1]) + 1


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
