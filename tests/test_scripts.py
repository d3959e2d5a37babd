"""Tests for scripts/tables.py: each table runs against this checkout's sources,
exits 0 and prints the same rows twice."""

import os
import subprocess
import sys

import pytest

from nevlab.quadrature import GROUP_POINTS

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _run_tables(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "tables.py"), *args],
                          capture_output=True, text=True, env=env, timeout=300)


TABLES = {  # table: (label columns, value columns)
    "certify": (["seed", "class", "command"], ["eliminations", "inverses", "ranks"]),
    "tower": (["seed", "index"], ["gcds", "ratfuncs"]),
    "zeros": (["case", "r"], ["walks", "levels", "scaled", "points", "certified"]),
    "bounds": (["n", "d", "q", "eps"], ["N", "M", "margin", "fixed_level", "moving_digits"]),
    "defects": (["curve", "target"], ["defect", "budget"]),
    "smt": (["system", "at"], ["lhs", "rhs", "margin", "level", "defect", "budget"]),
    "cold": (["command"], ["numpy", "mpmath"]),
}
COUNTING = {"certify", "tower", "zeros"}   # the tables whose value columns count work


@pytest.mark.parametrize("table", TABLES)
def test_costs_prints_the_same_counts_twice(table):
    # the rows are deterministic; only the process time below them varies
    runs = [_run_tables(table, "--rounds", "0") for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert "process time" not in runs[0].stdout
    labels, values = TABLES[table]
    lines = runs[0].stdout.splitlines()
    assert lines[0].split() == labels + values
    rows = [line.split() for line in lines[1:]]
    # a library change that stops calling a wrapped function would read 0 in its column;
    # a defect or a margin may read 0
    for k, column in enumerate(values if table in COUNTING else []):
        assert any(row[len(row) - len(values) + k] not in ("0", "-") for row in rows), column
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
    elif table == "zeros":
        assert [row[:-len(values)] for row in rows] == [
            ["e^z+1", "50"], ["e^z-z", "30"], ["1+e^z+e^iz", "50"], ["(z+10)+z", "e^z", "50"]]
        timed = _run_tables(table, "--rounds", "1")
        assert timed.returncode == 0, timed.stderr
        assert timed.stdout.startswith(
            runs[0].stdout + "\nprocess time, best of 1 interleaved rounds\n")
        assert len(timed.stdout.splitlines()) == len(lines) + 2 + len(rows)
    elif table == "bounds":
        assert len(rows) == 27
        assert ["1", "1", "3", "1/2", "18", "19", "1/68", "19", "12367"] in rows
    elif table == "cold":
        # in a fresh interpreter only the curve commands load numpy, and none loads mpmath
        assert rows == [["bounds", "no", "no"], ["resultant", "no", "no"],
                        ["characteristic", "yes", "no"], ["smt", "yes", "no"],
                        ["schema", "no", "no"]]
        timed = _run_tables(table, "--rounds", "1")
        assert timed.returncode == 0, timed.stderr
        assert timed.stdout.startswith(runs[0].stdout + "\nwall time, best of 1 interleaved rounds\n")
    elif table == "defects":
        # the exponential line omits the values 0 and infinity
        assert ["(1:e^z)", "x0", "1.0000", "-"] in rows and ["(1:e^z)", "x1", "1.0000", "-"] in rows
    else:
        # a level of 10^9 or more prints as its order of magnitude
        for system, level in (("fixed", "19"), ("moving", "~10^12366")):
            assert [row[-3] for row in rows if row[0] == system and row[-3] != "-"] == [level] * 3


SMALL_QUAD = """
import runpy, sys
tables = runpy.run_path(sys.argv[1])
full = tables["TABLES"]["quad"]

def small(tmp):
    table = full(tmp)
    return table._replace(cases={label: case for label, case in table.cases.items()
                                 if label[1] != "2000"})

tables["TABLES"]["quad"] = small
sys.exit(tables["main"](["quad", "--rounds", "0"]))
"""


def test_quad_counts_its_integrand_on_the_small_grids():
    # the 2000-radius rows take seconds; the small grids show the columns
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", "tables.py")
    run = subprocess.run([sys.executable, "-c", SMALL_QUAD, script],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split() == ["curve", "radii", "calls", "points", "samples", "peak_mb"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [[curve, count] for curve in ("smooth", "kinked")
                                         for count in ("20", "200")]
    for curve, count, calls, points, samples, peak in rows:
        # each circle's first grid is 64 points, and no call of fn holds more than a group
        assert 64 * (int(count) + 1) <= int(points) <= GROUP_POINTS * int(calls), (curve, count)
        # every point the integrand receives is one sample of one circle
        assert points == samples, (curve, count)
        assert 0 < float(peak) < 20
