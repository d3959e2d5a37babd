"""Smoke tests for the command-line scripts under scripts/: each runs with its
default arguments against this checkout's sources and exits 0."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _run_script(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name)],
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
