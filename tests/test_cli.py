"""Surface tests for the command line: exit codes, deterministic bytes,
atomic output, and the documented input formats."""

import json
import math
import os
import re
import stat
import subprocess
import sys
import threading

import pytest

from nevlab.cli import main

SYSTEM = {
    "n": 1,
    "polynomials": [
        {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"}]},
        {"degree": 1, "terms": [{"exp": [0, 1], "coef": "1"}]},
        {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"},
                                {"exp": [0, 1], "coef": "1"}]},
    ],
}

PAIR = {
    "n": 1,
    "polynomials": [
        {"degree": 2, "terms": [{"exp": [2, 0], "coef": "1"},
                                {"exp": [0, 2], "coef": "1"}]},
        {"degree": 2, "terms": [{"exp": [1, 1], "coef": "1"}]},
    ],
}

# a form of degree 0, a constant: malformed input to every command that reads a system
CONSTANT = {"n": 1, "polynomials": [SYSTEM["polynomials"][0],
                                    {"degree": 0, "terms": [{"exp": [0, 0], "coef": "1"}]}]}

# schema-valid families the exact layer cannot take as they stand: one form
# where n = 1 needs two, and n + 1 forms of different degrees
SINGLE = {"n": 1, "polynomials": SYSTEM["polynomials"][:1]}
MIXED = {"n": 1, "polynomials": [SYSTEM["polynomials"][0],
                                 {"degree": 2, "terms": [{"exp": [0, 2], "coef": "1"}]}]}

CURVE = {
    "components": [
        {"terms": [{"poly": "1"}]},
        {"terms": [{"poly": "1", "exp_coef": "1"}]},
    ],
}


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, doc in (("system", SYSTEM), ("pair", PAIR), ("curve", CURVE), ("constant", CONSTANT),
                      ("single", SINGLE), ("mixed", MIXED)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        out[name] = str(p)
    out["tmp"] = tmp_path
    return out


def test_resultant_roundtrip(paths, capsys):
    assert main(["resultant", paths["pair"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["resultant"] == "1"
    assert doc["is_zero"] is False


def test_admissible_verdict_is_data(paths, capsys):
    assert main(["admissible", paths["system"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["admissible"] is True and doc["moving"] is False


def test_deterministic_bytes(paths, capsys):
    argv = ["bounds", "--n", "1", "--eps", "1/2", "--degrees", "1,1,1",
            "--fixed"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["truncations"] == [19, 19, 19]
    assert doc["margin"] == "1/68"


def test_output_file_is_written_atomically(paths, capsys):
    target = paths["tmp"] / "report.json"
    assert main(["certificate", paths["pair"], "--index", "0",
                 "-o", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["verified"] is True
    assert doc["power"] <= 3
    leftovers = [p for p in paths["tmp"].iterdir() if p.suffix == ".part"]
    assert not leftovers


def test_output_writes_through_symlink(paths, capsys):
    real = paths["tmp"] / "real.json"
    real.write_text("old")
    link = paths["tmp"] / "link.json"
    link.symlink_to(real)
    assert main(["certificate", paths["pair"], "--index", "0",
                 "-o", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(real.read_text())["verified"] is True


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_writes_into_fifo(paths, capsys):
    fifo = paths["tmp"] / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    assert main(["certificate", paths["pair"], "--index", "0",
                 "-o", str(fifo)]) == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert json.loads(got[0])["verified"] is True


def test_output_keeps_file_mode(paths, capsys):
    kept = paths["tmp"] / "kept.json"
    kept.write_text("old")
    kept.chmod(0o644)
    fresh = paths["tmp"] / "fresh.json"
    for target in (kept, fresh):
        assert main(["resultant", paths["pair"], "-o", str(target)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o644
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("option", ["-o", "--plot"])
@pytest.mark.parametrize("where", ["", "missing/x.out"])
def test_a_path_that_cannot_be_written_is_malformed_input(paths, capsys, option, where):
    # a directory, and a file in a directory that does not exist
    target = paths["tmp"] / where if where else paths["tmp"]
    if option == "-o":
        argv = ["schema", "curve", "-o", str(target)]
    else:
        argv = ["smt", paths["curve"], paths["system"], "--rmin", "10", "--rmax", "30",
                "--steps", "3", "--plot", str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nevlab: input error: {target}: cannot write file: ")
    assert err.count("\n") == 1
    assert not [p for p in paths["tmp"].iterdir() if p.suffix == ".part"]


def _run_cli(args, stdout=subprocess.PIPE, cwd=None, flags=()):
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "nevlab.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, cwd=cwd, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_into_dev_stdout():
    run = _run_cli(["schema", "system", "-o", "/dev/stdout"])
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["required"] == ["n", "polynomials"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_into_dev_stdout_appends_to_redirected_file(tmp_path):
    # nevlab schema system -o /dev/stdout >> log.txt keeps what log.txt held
    log = tmp_path / "log.txt"
    log.write_text("line1\n")
    with open(log, "a") as fh:
        run = _run_cli(["schema", "system", "-o", "/dev/stdout"], stdout=fh)
    assert run.returncode == 0, run.stderr
    head, _, rest = log.read_text().partition("\n")
    assert head == "line1"
    assert json.loads(rest)["required"] == ["n", "polynomials"]


def test_scalar_schema_honours_output(tmp_path):
    run = _run_cli(["schema", "scalar", "-o", "out.txt"], cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout == b""
    assert (tmp_path / "out.txt").read_text().strip()


def test_filtration_command(paths, capsys):
    assert main(["filtration", paths["system"], "--subset", "0",
                 "--level", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m_total"] == 4
    assert doc["multiplicities"] == [1, 1, 1, 1]
    assert doc["a_constant"] == 6
    # one nonzero form is a regular sequence: an n = 1 table decides no rank
    assert doc["rank_paths"] == {"modular": 0, "exact": 0}


def test_reports_say_which_path_decided_each_rank(paths, capsys):
    assert main(["admissible", paths["system"]]) == 0
    assert json.loads(capsys.readouterr().out)["rank_paths"] == {"modular": 3, "exact": 0}
    assert main(["certificate", paths["pair"], "--index", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["rank_paths"] == {"modular": doc["power"] - 2, "exact": 1}
    # Q_0 and Q_1 share the factor x0 + x1: above level 2 the certificate
    # fails, exact elimination gives larger quotient dimensions than a
    # complete intersection has, and the filtration is refused at its one
    # regularity level, min(N, 2d - 1) = 3
    shared = paths["tmp"] / "shared.json"
    shared.write_text(json.dumps({"n": 2, "polynomials": [
        {"degree": 2, "terms": [{"exp": [1, 0, 1], "coef": "-1"}, {"exp": [2, 0, 0], "coef": "1"},
                                {"exp": [1, 1, 0], "coef": "1"}, {"exp": [0, 1, 1], "coef": "-1"}]},
        {"degree": 2, "terms": [{"exp": [1, 1, 0], "coef": "1"}, {"exp": [1, 0, 1], "coef": "1"},
                                {"exp": [0, 2, 0], "coef": "1"}, {"exp": [0, 1, 1], "coef": "1"}]},
        {"degree": 2, "terms": [{"exp": [0, 0, 2], "coef": "1"}]}]}))
    assert main(["filtration", str(shared), "--subset", "0,1", "--level", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "(is the family admissible?)" in line] == \
        ["nevlab: quotient dimension 5 at level 3 is not the complete-intersection 4 "
         "(is the family admissible?)"]


def test_jensen_command(paths, capsys):
    assert main(["jensen", "--phi", "(z-2)/(z+3)", "--radii", "2.5,5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_residual"] < 1e-6


def test_an_unconverged_jensen_mean_is_a_numerical_failure(capsys):
    assert main(["jensen", "--phi", "(z-1)^2/(z+1)", "--radii", "1,2"]) == 3
    out, err = capsys.readouterr()
    assert not out and err == \
        "nevlab: numerical failure: the mean of log|phi| on |z| = 1 did not converge\n"


def test_wronskian_command(paths, capsys):
    assert main(["wronskian", paths["curve"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["wronskian"] == "exp(z)"
    assert doc["is_zero"] is False


def test_smt_command_with_plot(paths, capsys):
    svg = paths["tmp"] / "margins.svg"
    assert main(["smt", paths["curve"], paths["system"], "--rmin", "10",
                 "--rmax", "30", "--steps", "5", "--plot", str(svg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds_everywhere"] is True
    assert svg.read_text().startswith("<svg")


def test_exit_code_input_error(paths, capsys):
    assert main(["jensen", "--phi", "1 + (z^2"]) == 2
    err = capsys.readouterr().err
    assert "^" in err                       # caret rendering
    assert main(["resultant", paths["system"]]) == 2     # wrong arity
    assert main(["filtration", paths["pair"], "--subset", "0",
                 "--level", "3"]) == 2                   # 3 not a multiple of d=2


@pytest.mark.parametrize("cmd, extra", [
    ("defects", ["curve", "system", "--rmax", "0"]),
    ("defects", ["curve", "system", "--rmax", "-5"]),
    ("defects", ["curve", "system", "--rmax", "1.5"]),
    ("defects", ["curve", "system", "--rmax", "nan"]),
    ("defects", ["curve", "system", "--grid", "0"]),
    ("defects", ["curve", "system", "--level", "0"]),
    ("defects", ["curve", "system", "--level", "-1"]),
    ("smt", ["curve", "system", "--eps", "0"]),
    ("smt", ["curve", "system", "--eps=-1/2"]),
    ("smt", ["curve", "system", "--rmax", "nan"]),
    ("wronskian", ["curve", "--orders", "0,0"]),
    ("wronskian", ["curve", "--orders", "0"]),
    ("wronskian", ["curve", "--orders", "0,-1"]),
    ("bounds", ["--n", "0", "--eps", "1/2", "--degrees", "1,1,1"]),
    ("bounds", ["--n", "1", "--eps", "0", "--degrees", "1,1,1"]),
    ("bounds", ["--n", "1", "--eps", "-1", "--degrees", "1,1,1"]),
    ("bounds", ["--n", "1", "--eps", "1/2", "--degrees", "0,1,1"]),
    ("bounds", ["--n", "2", "--eps", "1/2", "--degrees", "1,1"]),
    ("jensen", ["--phi", "0"]),
    ("jensen", ["--phi", "z-z"]),
    ("jensen", ["--phi", "z-3", "--radii", "2,nan"]),
    ("jensen", ["--phi", "z-3", "--radii", "inf"]),
    ("characteristic", ["curve", "--radii", "2,nan"]),
    ("smt", ["curve", "constant"]),
    ("defects", ["curve", "constant"]),
    ("admissible", ["constant"]),
    ("resultant", ["constant"]),
    ("certificate", ["constant", "--index", "0"]),
    ("filtration", ["constant", "--subset", "0", "--level", "2"]),
])
def test_malformed_numbers_are_input_errors(paths, capsys, cmd, extra):
    # extra is the rest of the command line, an input file named by its key in paths
    assert main([cmd, *(paths.get(arg, arg) for arg in extra)]) == 2
    assert "nevlab: input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, case, message", [
    (["admissible", "single"], "admissible needs at least n+1 forms",
     "admissibility needs q >= n+1, got q=1, n=1"),
    (["smt", "curve", "single", "--rmin", "10", "--rmax", "20"],
     "smt needs at least n+1 forms", "admissibility needs q >= n+1, got q=1, n=1"),
    (["resultant", "mixed"], "resultant needs forms of one degree",
     "forms must share one degree and one variable count, got degrees (1, 2) "
     "and variable counts (2, 2)"),
    (["certificate", "mixed", "--index", "0"], "certificate needs forms of one degree",
     "need n+1 = 2 forms of one degree, got degrees (1, 2)"),
    (["filtration", "system", "--subset", "0", "--level", "-3"],
     "--level must be nonnegative", "level N=-3 is not a nonnegative multiple of d=1"),
])
def test_families_the_exact_layer_cannot_take_are_input_errors(paths, capsys, argv, case,
                                                               message):
    # each is rejected by the library entry point its command calls, before any
    # computation: exit 2 and one stderr line, with no traceback
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"nevlab: input error: {message}\n"


def test_filtration_rejects_bad_subset(paths, capsys):
    # n = 1 and q = 3: a repeat, too many indices, an index past q, a negative one
    for subset in ("0,0", "0,1", "5", "-1"):
        assert main(["filtration", paths["system"], "--subset", subset,
                     "--level", "1"]) == 2
        assert "subset must pick 1 distinct form indices in 0..2" in capsys.readouterr().err


def test_a_curve_whose_components_all_vanish_is_malformed_input(paths, capsys):
    # EntireCurve once refused it with a bare ValueError, which left a traceback
    zero = paths["tmp"] / "zero.json"
    zero.write_text(json.dumps(_curve([("0", "0")], [("0", "1")])))
    assert main(["characteristic", str(zero)]) == 2
    assert capsys.readouterr().err == "nevlab: input error: all components vanish identically\n"


def test_jensen_takes_the_unit_circle(capsys):
    # jensen_check normalizes at r = 1, so the residual there is 0
    assert main(["jensen", "--phi", "z-3", "--radii", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["residuals"] == [0.0]


def test_exit_code_math_failure(paths, capsys):
    degen = paths["tmp"] / "degen.json"
    degen.write_text(json.dumps({
        "n": 1,
        "polynomials": [
            {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"}]},
            {"degree": 1, "terms": [{"exp": [1, 0], "coef": "2"}]},
        ],
    }))
    assert main(["certificate", str(degen), "--index", "0"]) == 1
    assert "resultant" in capsys.readouterr().err


def _hyperplanes(n, moving=False):
    """x_0, .., x_n and x_0 + .. + x_n, the last x_n coefficient z/(z+10) when moving."""
    unit = [[int(i == k) for i in range(n + 1)] for k in range(n + 1)]
    last = [{"exp": e, "coef": "1"} for e in unit]
    if moving:
        last[-1]["coef"] = "z/(z+10)"
    return {"n": n, "polynomials": [{"degree": 1, "terms": [{"exp": e, "coef": "1"}]}
                                    for e in unit] + [{"degree": 1, "terms": last}]}


def _curve(*components):
    return {"components": [{"terms": [{"poly": p, "exp_coef": c} for p, c in comp]}
                           for comp in components]}


def test_smt_decides_nondegeneracy_in_every_degree(paths, capsys):
    moving = paths["tmp"] / "moving.json"
    moving.write_text(json.dumps(_hyperplanes(1, moving=True)))
    for system in (paths["system"], str(moving)):
        assert main(["smt", paths["curve"], system, "--rmin", "10", "--rmax", "20",
                     "--steps", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["nondegenerate_to"] == "all"
    planes = paths["tmp"] / "planes.json"
    planes.write_text(json.dumps(_hyperplanes(2)))
    curve = paths["tmp"] / "degenerate.json"
    for a, b in (("2", "5"), ("60", "61")):     # x1^5 = x0^3 x2^2, x0 x2^60 = x1^61
        curve.write_text(json.dumps(_curve([("1", "0")], [("1", a)], [("1", b)])))
        assert main(["smt", str(curve), str(planes)]) == 1
        assert "transcendence degree at most 1 < n = 2 over C" in capsys.readouterr().err


@pytest.mark.parametrize("curve", [_curve([("1", "1"), ("-1", "0")], [("z", "0")]),
                                   _curve([("1", "1"), ("-1", "0")], [("1", "i"), ("-1", "0")])],
                         ids=["(e^z-1:z)", "(e^z-1:e^iz-1)"])
def test_curves_whose_components_all_vanish_at_0_are_obstructions(paths, capsys, curve):
    path = paths["tmp"] / "zero.json"
    path.write_text(json.dumps(curve))
    for argv in (["characteristic", str(path), "--radii", "10"],
                 ["smt", str(path), paths["system"], "--rmin", "10", "--rmax", "20"]):
        assert main(argv) == 1
        assert "z = 0" in capsys.readouterr().err


def test_smt_cancels_a_triple_pole_of_a_moving_target(paths, capsys):
    # (1 : (z-1)^3 e^z) against x0 + x1/(z-1)^3: the quotient is 1 + e^z
    curve = paths["tmp"] / "pole.json"
    curve.write_text(json.dumps(_curve([("1", "0")], [("(z-1)^3", "1")])))
    system = paths["tmp"] / "pole_system.json"
    doc = _hyperplanes(1)
    doc["polynomials"][-1]["terms"][-1]["coef"] = "1/(z-1)^3"
    system.write_text(json.dumps(doc))
    assert main(["smt", str(curve), str(system), "--rmin", "10", "--rmax", "20",
                 "--steps", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixed"] is False and doc["nondegenerate_to"] == "all"


def test_every_declared_option_is_read_by_its_handler():
    # an option no handler reads is a knob that does nothing; the options are
    # read off each subcommand's parser, so shared ones such as -o count too
    import argparse
    import ast
    import inspect

    from nevlab import cli

    for name, (handler, _, _) in cli.COMMANDS.items():
        tree = ast.parse(inspect.getsource(handler))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        parser = cli._declare(argparse.ArgumentParser(), name)
        for action in parser._actions:
            if action.dest != "help":
                assert action.dest in read, \
                    f"{name} declares {action.option_strings or action.dest} but never reads it"


def test_selftest_writes_no_report_and_takes_no_output_option(capsys):
    with pytest.raises(SystemExit):
        main(["selftest", "--only", "resultant-oracle", "-o", "report.json"])
    assert "unrecognized arguments: -o" in capsys.readouterr().err


def test_exit_code_numerical_failure(paths, capsys, monkeypatch):
    from nevlab import nevanlinna
    from nevlab.zeros import ContourThroughZero

    for err in (ContourThroughZero("contour hit a zero"),
                OverflowError("math range error")):
        def fail(*args, **kwargs):
            raise err
        monkeypatch.setattr(nevanlinna, "exppoly_zeros", fail)
        assert main(["smt", paths["curve"], paths["system"], "--rmin", "10",
                     "--rmax", "20", "--steps", "2"]) == 3
        assert "numerical failure" in capsys.readouterr().err


def test_an_uncertified_floor_is_a_numerical_failure(capsys, monkeypatch):
    # p_0's floor that interval arithmetic cannot decide below its precision cap is a
    # failed float computation, not an obstruction
    from nevlab import bounds

    monkeypatch.setattr(bounds, "_FLOOR_MAX_PREC", 64)
    assert main(["bounds", "--n", "1", "--eps", "1/2", "--degrees", "1,1,1"]) == 3
    assert capsys.readouterr().err == \
        "nevlab: numerical failure: floor not certified below precision 64\n"


def test_a_falling_characteristic_is_a_numerical_failure(paths, capsys, monkeypatch):
    # T is nondecreasing, so smt refuses a profile whose samples fall, in one line
    from nevlab import nevanlinna
    from nevlab.quadrature import QuadResult

    monkeypatch.setattr(nevanlinna, "characteristic",
                        lambda f, radii: tuple(QuadResult(100.0 - r, 0.0, 1, True) for r in radii))
    assert main(["smt", paths["curve"], paths["system"], "--rmin", "10", "--rmax", "20",
                 "--steps", "2"]) == 3
    assert capsys.readouterr().err == \
        "nevlab: numerical failure: characteristic must be nondecreasing\n"


def test_zero_count_mismatch_is_numerical_failure(paths, capsys, monkeypatch):
    # the quadtree's count check: one located point is pushed out of the disk, and a
    # moving target, which its seeds answer, is sent to subdivision without them
    from nevlab import zeros
    from nevlab.expfunc import ExpPoly

    subdivide = zeros._subdivide

    def push_one_out(*args):
        (z, mult, bound), *rest = subdivide(*args)
        return [(z + 1e6, mult, bound)] + rest       # outside every disk in play

    monkeypatch.setattr(zeros, "_subdivide", push_one_out)
    with pytest.raises(zeros.ContourThroughZero, match="located"):
        zeros._quadtree_zeros(ExpPoly.exp(1) - 1, 7.0)
    monkeypatch.setattr(zeros, "_seeds", lambda f, r: [])
    moving = paths["tmp"] / "moving.json"
    moving.write_text(json.dumps(_hyperplanes(1, moving=True)))
    assert main(["smt", paths["curve"], str(moving), "--rmin", "10",
                 "--rmax", "20", "--steps", "2"]) == 3
    assert "numerical failure: located" in capsys.readouterr().err


def test_fixed_targets_take_the_closed_form_and_moving_ones_the_seeded_path(
        paths, capsys, monkeypatch):
    from nevlab import zeros

    # a moving target's search is answered by its seeds, without subdivision
    calls, subdivided = [], []
    seeds, subdivide = zeros._seeds, zeros._subdivide

    def counted(f, r):
        built = seeds(f, r)
        calls.append(len(built))
        return built

    monkeypatch.setattr(zeros, "_seeds", counted)
    monkeypatch.setattr(zeros, "_subdivide", lambda *args: subdivided.append(1) or subdivide(*args))
    assert main(["smt", paths["curve"], paths["system"], "--rmin", "10",
                 "--rmax", "20", "--steps", "2"]) == 0
    assert calls == []
    moving = paths["tmp"] / "moving.json"
    moving.write_text(json.dumps(_hyperplanes(1, moving=True)))
    assert main(["smt", paths["curve"], str(moving), "--rmin", "10",
                 "--rmax", "20", "--steps", "2"]) == 0
    assert len(calls) >= 1 and all(calls) and subdivided == []
    capsys.readouterr()


def test_defects_of_a_target_with_a_triple_zero(paths, capsys):
    # x1 - (1 + z + z^2/2) x0 on (1 : e^z) is e^z - 1 - z - z^2/2, with a triple zero at 0
    doc = _hyperplanes(1)
    doc["polynomials"][-1]["terms"][0]["coef"] = "-(1+z+z^2/2)"
    system = paths["tmp"] / "triple.json"
    system.write_text(json.dumps(doc))
    assert main(["defects", paths["curve"], str(system), "--rmax", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["tool"] == "defects"


def test_defects_count_the_normalized_target_as_smt_does(paths, capsys):
    # z x0 + z x1 and x0 + x1 are one target: the factor z that every term shares is
    # normalized away, not counted as a zero (it read -0.652 against 0.059)
    doc = json.loads(json.dumps(SYSTEM))
    both = doc["polynomials"][-1]
    doc["polynomials"].append({"degree": 1, "terms": [dict(t, coef="z") for t in both["terms"]]})
    system = paths["tmp"] / "shared.json"
    system.write_text(json.dumps(doc))
    assert main(["defects", paths["curve"], str(system), "--rmax", "20"]) == 0
    plain, shared = (t["defect"] for t in json.loads(capsys.readouterr().out)["targets"][2:])
    assert plain == shared and 0.05 < plain < 0.07


def test_smt_report_loads_under_the_default_int_digit_limit(paths):
    # the moving levels run to 12,367 digits; a reader that keeps Python's
    # default limit of 4,300 digits must still load the report
    moving = paths["tmp"] / "moving.json"
    moving.write_text(json.dumps(_hyperplanes(1, moving=True)))
    reader = ("import json, sys; doc = json.loads(sys.stdin.read()); "
              "print(json.dumps([t['truncation'] for t in doc['targets']]))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    levels = {}
    for name, system in (("fixed", paths["system"]), ("moving", str(moving))):
        run = _run_cli(["smt", paths["curve"], system, "--rmin", "10", "--rmax", "50",
                        "--steps", "20"])
        assert run.returncode == 0, run.stderr
        load = subprocess.run([sys.executable, "-c", reader], input=run.stdout,
                              capture_output=True, env=env, timeout=60)
        assert load.returncode == 0, load.stderr
        levels[name] = json.loads(load.stdout)
    assert levels == {"fixed": [19, 19, 19], "moving": [None, None, None]}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
def test_main_lifts_the_int_digit_limit_for_its_command_only(paths, capsys):
    # under Python's default limit of 4,300 digits bounds still prints its 12,367-digit
    # level, and main leaves the limit as it found it, whether it exits 0 or 2
    limit, default = sys.get_int_max_str_digits(), sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(default)
    try:
        assert main(["bounds", "--n", "1", "--eps", "1/2", "--degrees", "1,1,1"]) == 0
        assert sys.get_int_max_str_digits() == default
        assert re.search(r'"level": \d{12367}\D', capsys.readouterr().out)
        assert main(["resultant", str(paths["tmp"] / "missing.json")]) == 2
        assert sys.get_int_max_str_digits() == default
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("a", [6, 10, 14])
def test_benchmark_moving_targets_make_no_quadtree_call(paths, capsys, monkeypatch, a):
    # (1 : e^z) with x0 + z/(z+a) x1, the moving targets of the smt benchmark: their
    # seeds answer, and no box is subdivided
    from nevlab import zeros

    calls = []
    monkeypatch.setattr(zeros, "_subdivide", lambda *args: calls.append(args[0]))
    doc = _hyperplanes(1)
    doc["polynomials"][-1]["terms"][-1]["coef"] = f"z/(z+{a})"
    moving = paths["tmp"] / "moving.json"
    moving.write_text(json.dumps(doc))
    assert main(["smt", paths["curve"], str(moving), "--rmin", "10",
                 "--rmax", "50", "--steps", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["holds_everywhere"] is True
    assert calls == []


def test_smt_where_a_component_vanishes_on_the_unit_circle(paths, capsys):
    # (1 : (z-1)^3 e^z): the r = 1 sample of T(r) hits z = 1, where log|f_1| = -inf
    curve = paths["tmp"] / "pole.json"
    curve.write_text(json.dumps(_curve([("1", "0")], [("(z-1)^3", "1")])))
    system = paths["tmp"] / "pole_system.json"
    doc = _hyperplanes(1)
    doc["polynomials"][-1]["terms"][-1]["coef"] = "1/(z-1)^3"
    system.write_text(json.dumps(doc))
    run = _run_cli(["smt", str(curve), str(system), "--rmin", "10", "--rmax", "20",
                    "--steps", "3"], flags=("-W", "error"))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["holds_everywhere"] is True


def test_characteristic_past_the_overflow_radius(paths, capsys):
    assert main(["characteristic", paths["curve"], "--radii", "700,800"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(isinstance(v, float) and math.isfinite(v) for v in doc["values"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_circle_mean_past_the_polynomial_overflow_is_a_numerical_failure(paths, capsys):
    # |z|^192 leaves the float range beyond r of about 40: the mean at r = 50 is not
    # finite, which is exit 3 naming the radius, not a "nan" in the report
    curve = paths["tmp"] / "power.json"
    curve.write_text(json.dumps({"components": [{"terms": [{"poly": "1"}]},
                                                {"terms": [{"poly": "1 - z^192"}]}]}))
    assert main(["characteristic", str(curve), "--radii", "50"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("nevlab: numerical failure:") and "r = 50 " in err
    assert main(["characteristic", str(curve), "--radii", "39"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [703.0807701096727]


def test_a_curve_that_overflows_writes_one_stderr_line(tmp_path):
    # numpy's overflow warnings from the polynomial evaluation stay silent: the
    # failure is the one line, as for every other failure
    curve = tmp_path / "power.json"
    curve.write_text(json.dumps({"components": [{"terms": [{"poly": "1"}]},
                                                {"terms": [{"poly": "1 - z^192"}]}]}))
    run = _run_cli(["characteristic", str(curve), "--radii", "50"])
    assert run.returncode == 3
    assert run.stderr.decode() == ("nevlab: numerical failure: the circle mean of "
                                   "log max |f_i| at r = 50 is not finite\n")


def test_smt_and_defects_past_the_exp_overflow_radius(paths, capsys):
    assert main(["smt", paths["curve"], paths["system"], "--rmin", "700",
                 "--rmax", "720", "--steps", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["holds_everywhere"] is True
    assert main(["defects", paths["curve"], paths["system"], "--rmax", "720"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(t["defect"]) for t in doc["targets"])


@pytest.mark.parametrize("argv", [["smt", "--rmin", "2", "--rmax", "8", "--steps", "4"],
                                  ["defects", "--rmax", "8"]])
def test_flat_top_half_of_the_grid_is_an_rmax_error(paths, capsys, argv):
    # (1 : 10^-4 e^{(3+4i)z/5}) is nondegenerate, but |f_1| < 1 on |z| <= 9.2, so T = 0 there
    curve = paths["tmp"] / "flat.json"
    curve.write_text(json.dumps(_curve([("1", "0")], [("1/10000", "(3+4i)/5")])))
    assert main([argv[0], str(curve), paths["system"], *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--rmax" in err


@pytest.mark.parametrize("argv", [["smt"], ["smt", "--rmin", "2", "--rmax", "10", "--steps", "3"],
                                  ["defects"]])
def test_growth_within_the_error_bar_of_t_is_flat(paths, capsys, argv):
    # on (1 : 10^300 e^z), log max |f_i| = 300 log 10 + Re z on |z| <= 690, so T(r) = 0
    # there, exactly in closed form and within rounding by quadrature: the defects are
    # not read off a T within its error bar.  The zeros of x0 + x1, 1 + 10^300 e^z,
    # are found after the coefficients are scaled into the float range
    curve = paths["tmp"] / "flat.json"
    curve.write_text(json.dumps(_curve([("1", "0")], [(str(10 ** 300), "1")])))
    assert main([argv[0], str(curve), paths["system"], *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--rmax" in err and "error bar" in err


def test_schema_commands(paths, capsys):
    for kind in ("scalar", "polynomial", "system", "curve"):
        assert main(["schema", kind]) == 0
        assert capsys.readouterr().out.strip()


def test_selftest_subset(paths, capsys):
    assert main(["selftest", "--only", "resultant-oracle"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1" in out
    assert main(["selftest", "--only", "nope"]) == 2


def _cubic(*terms):
    return {"degree": 3, "terms": [{"exp": list(e), "coef": str(c)} for e, c in terms]}


def test_families_with_a_singular_macaulay_minor_are_decided(paths, capsys):
    # forms sharing a factor vanish together and det M'' = 0 in the given frame;
    # the resultant is data, and a certificate is a mathematical obstruction
    families = [
        [_cubic(((2, 1, 0), 1), ((3, 0, 0), 2)), _cubic(((3, 0, 0), 1)),
         _cubic(((1, 1, 1), 1))],
        [_cubic(((2, 1, 0), 2)), _cubic(((1, 1, 1), 2)), _cubic(((2, 0, 1), 2))],
    ]
    for k, polys in enumerate(families):
        path = paths["tmp"] / f"shared{k}.json"
        path.write_text(json.dumps({"n": 2, "polynomials": polys}))
        assert main(["resultant", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["resultant"], doc["is_zero"]) == ("0", True)
        assert main(["admissible", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["admissible"], doc["failing_subset"]) == (False, [0, 1, 2])
        assert main(["certificate", str(path), "--index", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nevlab: family resultant vanishes") and err.count("\n") == 1


def test_bad_json_positioned(paths, capsys):
    broken = paths["tmp"] / "broken.json"
    broken.write_text('{"n": 1,]')
    assert main(["admissible", str(broken)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["characteristic", "c.json", "--radii", "2,3"], ["characteristic", "--rad", "2", "c.json"],
    ["characteristic", "--", "c.json"], ["characteristic", "c.json", "--bogus"],
    ["characteristic", "c.json", "--version"], ["characteristic"], ["characteristic", "-h"],
    ["smt", "c.json", "s.json", "--steps=3", "--plot", "p.svg", "-o", "-"],
    ["bounds", "--n", "x", "--eps", "1", "--degrees", "1"], ["schema", "foo"], ["selftest"],
    [], ["bogus"], ["-h"], ["--version", "characteristic"]])
def test_one_subcommand_parser_parses_like_the_full_parser(argv, capsys):
    from nevlab.cli import _parse_args, build_parser

    def parse(fn):
        try:
            ns, code = vars(fn(argv)), None
        except SystemExit as e:
            ns, code = None, e.code
        return ns, code, capsys.readouterr()

    assert parse(_parse_args) == parse(build_parser().parse_args)
