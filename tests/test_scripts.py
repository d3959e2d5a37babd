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


def test_zero_costs_prints_the_same_counts_twice():
    # the counts of one case are deterministic; only the process time below them varies
    runs = [_run_script("zero_costs.py", "--case", "(z+10)+z e^z", "--rounds", "1") for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    counts = [run.stdout.split("\n\n")[0].splitlines() for run in runs]
    assert counts[0] == counts[1] and len(counts[0]) == 2
    assert counts[0][0].split() == ["case", "r", "walks", "levels", "scaled", "points", "certified"]
    assert counts[0][1].split()[:3] == ["(z+10)+z", "e^z", "50"]
    assert "process time, best of 1 interleaved rounds" in runs[0].stdout


def test_tower_costs_prints_the_same_counts_twice():
    # gcd calls and RatFunc values per certificate are deterministic
    runs = [_run_script("tower_costs.py", "--rounds", "0") for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert lines[0].split() == ["seed", "index", "gcds", "ratfuncs"]
    assert [line.split()[:2] for line in lines[1:]] == [[str(s), str(i)] for s in range(1, 6)
                                                       for i in range(3)]
    assert "process time" not in runs[0].stdout


def test_certify_costs_prints_the_same_counts_twice():
    # eliminations, pivot inverses and rank decisions per command are deterministic
    runs = [_run_script("certify_costs.py", "--rounds", "0") for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert lines[0].split() == ["seed", "class", "command", "eliminations", "inverses", "ranks"]
    labels = ["admissible", "resultant", "certificate",
              "filtration:3", "filtration:6", "filtration:9"]
    assert [line.split()[:3] for line in lines[1:]] == [[str(s), cls, label] for s in range(1, 6)
                                                       for cls in ("fixed", "moving")
                                                       for label in labels]
    # a filtration decides one rank for a fixed n = 2 pair and none for n = 1
    ranks = {tuple(line.split()[1:3]): line.split()[-1] for line in lines[1:]}
    assert ranks["fixed", "filtration:9"] == "1" and ranks["moving", "filtration:9"] == "0"
    assert "process time" not in runs[0].stdout
