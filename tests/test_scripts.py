"""Smoke tests for the command-line scripts under scripts/: each runs with its
default arguments against this checkout's sources and exits 0."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name", ["bounds_sweep.py", "defect_survey.py", "smt_demo.py"])
def test_script_runs(name):
    run = _run_script(name)
    assert run.returncode == 0, run.stderr
    if name == "smt_demo.py":
        assert "inequality verified on both runs" in run.stdout
        assert ("== one moving coefficient, slowly moving since the curve is nondegenerate "
                "over C(z) ==") in run.stdout
        assert "truncation levels: ['19', '19', '19']" in run.stdout
        assert "truncation levels: ['~10^12366', '~10^12366', '~10^12366']" in run.stdout


COSTS = {  # table: (label columns, count columns)
    "certify": (["seed", "class", "command"], ["eliminations", "inverses", "ranks"]),
    "tower": (["seed", "index"], ["gcds", "ratfuncs"]),
    "zeros": (["case", "r"], ["walks", "levels", "scaled", "points", "certified"]),
}


@pytest.mark.parametrize("table", sorted(COSTS))
def test_costs_prints_the_same_counts_twice(table):
    # the counts of each case are deterministic; only the process time below them varies
    runs = [_run_script("costs.py", table, "--rounds", "0") for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert "process time" not in runs[0].stdout
    labels, counts = COSTS[table]
    lines = runs[0].stdout.splitlines()
    assert lines[0].split() == labels + counts
    rows = [line.split() for line in lines[1:]]
    # a library change that stops calling a wrapped function would read 0 in its column
    for k, column in enumerate(counts):
        assert any(row[len(row) - len(counts) + k] not in ("0", "-") for row in rows), column
    if table == "certify":
        commands = ["admissible", "resultant", "certificate",
                    "filtration:3", "filtration:6", "filtration:9"]
        assert [row[:3] for row in rows] == [[str(s), cls, command] for s in range(1, 6)
                                             for cls in ("fixed", "moving")
                                             for command in commands]
        # a filtration decides one rank for a fixed n = 2 pair and none for n = 1
        ranks = {tuple(row[1:3]): row[-1] for row in rows}
        assert ranks["fixed", "filtration:9"] == "1" and ranks["moving", "filtration:9"] == "0"
    elif table == "tower":
        assert [row[:2] for row in rows] == [[str(s), str(i)] for s in range(1, 6)
                                             for i in range(3)]
    else:
        assert [row[:-len(counts)] for row in rows] == [
            ["e^z+1", "50"], ["e^z-z", "30"], ["1+e^z+e^iz", "50"], ["(z+10)+z", "e^z", "50"]]
        timed = _run_script("costs.py", table, "--rounds", "1")
        assert timed.returncode == 0, timed.stderr
        assert timed.stdout.startswith(
            runs[0].stdout + "\nprocess time, best of 1 interleaved rounds\n")
        assert len(timed.stdout.splitlines()) == len(lines) + 2 + len(rows)
