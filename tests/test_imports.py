"""Every module-level import of the package, its tests and its scripts is
used by its module, every public name of the package and every public
module-level function and class is used by the package or its scripts, and
so is every method of a public class other than a dunder, read as an
attribute, and the package has no assert statement, no private `fractions` API, no
`polyval` and no use of the scaling `ExpPoly._scaled_exps` outside `expfunc`,
one call of `np.roots` and of `yun_squarefree`, both in the certified root
routine, one float Newton loop, one segment test for the contour walk and one
point certificate for Newton limits, each an inequality from `ExpPoly.taylor_majorant`,
with no rate bound, no first sampling, no halving check and no walked square beside
them, one boundary rule for the divisor paths, one
trapezoid stop rule, which only `circle_averages`, the one quadrature entry
point, runs, one way to a curve's circle means, `characteristic`, which takes
them through `circle_averages` or the closed form `_max_sinusoid_mean`, which
nothing else calls, an `EntireCurve` that holds its components and nothing
else, no private name of `nevanlinna` imported by another module, one modular
elimination, which the certified rank and the multimodular paths share, one
determinant entry, `det_sparse`, which alone reaches the multimodular path and
`RowReducer.det`, no function with a `paths` parameter (a certified decision
returns its flag), `fields.py` imports only the standard library, no module
but the acceptance battery imports `random`, importing the command line
loads neither numpy nor mpmath, and its exact commands
(admissible, resultant, certificate, filtration, bounds, schema) load no
numpy.  Every exception class of the package derives from one of the three
failure bases of `fields` (but for `linalg.Inconsistent` and
`fields.PoleError`), and the command line's `_run` catches those bases, the
parse error and `OverflowError`, and no class of a module loaded on first
use; the command line raises `InputError` only where it parses a string, writes
a file, or reads `smt --steps` or `selftest --only`, since the library entry
points check every other range.  Every module of the package is imported, directly or through others,
by the package or the command line, except `nevlab.mrat`, which holds only a
docstring and which nothing imports.  Every functools cache sits in a module that `import nevlab` loads,
so clearing the loaded modules' caches clears them all, while each command
computes a curve's circle means once with no cache, counted in radii over
`circle_averages` and `_max_sinusoid_mean` (4 for `characteristic` on 3 radii,
4 for `defects` with 3 targets and `--grid 6`, steps + 1 for each `smt`).  Every name of
`nevlab.__all__` resolves, on first use for the numeric ones, to its
module's current object.

Names listed in a module's __all__ count as used (re-exports); __future__
imports and the package __init__, which exists to re-export, are exempt.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import nevlab

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nevlab"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    modules += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    unused = {str(p.relative_to(ROOT)): _unused_imports(ast.parse(p.read_text(), str(p))) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_public_name_has_a_caller_outside_the_tests():
    # a method of a public class other than a dunder counts as used only where
    # it is read as an attribute, as obj.name
    modules = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    referenced, attributes, public, methods = set(), set(), set(), set()
    for p in modules + sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
        if p in modules:
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                    continue
                public.add(f"{p.stem}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    methods |= {f"{p.stem}.{node.name}.{item.name}" for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not (item.name.startswith("__") and item.name.endswith("__"))}
    referenced |= attributes
    assert len(public) > 50 and len(methods) > 50
    assert sorted(set(nevlab.__all__) - referenced) == []
    assert sorted(name for name in public if name.split(".")[1] not in referenced) == []
    assert sorted(name for name in methods if name.split(".")[2] not in attributes) == []


def _package_imports(path: pathlib.Path) -> set[str]:
    """The package modules a module imports, at module level or in a function body."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("nevlab" if node.level else None, node.module)))
            names |= {module} | {f"{module}.{a.name}" for a in node.names}
    stems = {name.split(".")[1] for name in names if name.startswith("nevlab.")}
    return {stem for stem in stems if (SRC / f"{stem}.py").exists()}


def test_every_module_is_reachable_from_the_package_or_the_command_line():
    # every module is imported, directly or through others, from nevlab/__init__.py or
    # nevlab/cli.py, so a module that loses its last caller shows here.  The one
    # exemption is the empty mrat.py, kept only because the benchmark's tracer
    # imports it by name
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_package_imports(SRC / f"{name}.py"))
    modules = {p.stem for p in SRC.glob("*.py")}
    assert len(modules) > 10 and reached <= modules
    assert sorted(modules - reached) == ["mrat"]


def test_mrat_is_empty():
    # nevlab.mrat holds only its docstring: it defines no name, imports nothing,
    # and no module of the package, its tests or its scripts imports it
    tree = ast.parse((SRC / "mrat.py").read_text())
    assert len(tree.body) == 1 and isinstance(tree.body[0].value, ast.Constant)
    assert [name for name in vars(importlib.import_module("nevlab.mrat"))
            if not name.startswith("__")] == []
    importers = [p.name for p in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                                  *(ROOT / "tests").glob("*.py")]
                 if p.name != "test_imports.py" and "mrat" in _package_imports(p)]
    assert importers == []


def test_no_assert_in_the_package():
    # python -O strips assert, so no check of the package may rest on one
    found = [f"{p.name}:{node.lineno}" for p in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_private_fractions_api_in_the_package():
    # requires-python >= 3.10: the `_normalize=` keyword is gone in 3.12 and
    # `_from_coprime_ints` is new there, so neither may be relied on
    found = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            private = []
            if isinstance(node, ast.Call):
                private = [k.arg for k in node.keywords if k.arg == "_normalize"]
            elif isinstance(node, ast.Attribute):
                if (node.attr in ("_from_coprime_ints", "_numerator", "_denominator")
                        or (node.attr.startswith("_") and isinstance(node.value, ast.Name)
                            and node.value.id == "Fraction")):
                    private = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
                private = [a.name for a in node.names if a.name.startswith("_")]
            found += [f"{p.name}:{node.lineno} {name}" for name in private]
    assert found == []


def test_one_float_evaluator_for_exponential_polynomials():
    # ExpPoly.scaled is the one float evaluator: no polyval anywhere in the
    # package, and only expfunc reads the scaling behind the evaluator
    found = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            name = getattr(node, field) if field else None
            if name == "polyval" or (name == "_scaled_exps" and p.name != "expfunc.py"):
                found.append(f"{p.name}:{node.lineno} {name}")
    assert found == []


def test_one_root_finder_and_one_root_certificate():
    # float roots come from np.roots where a certificate stands behind each:
    # the certified path's inclusion disks, and the seeds, whose Newton limits
    # count only when the point certificate (_one_zero_disks) and the disk winding agree;
    # Yun's exact multiplicities are read only where each root is certified
    calls = {"roots": [], "yun_squarefree": []}
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in calls:
                        calls[name].append(f"{p.name}:{getattr(top, 'name', top.lineno)}")
    certified = ["zeros.py:_certified_zeros"]
    assert calls == {"roots": certified + ["zeros.py:_seeds"], "yun_squarefree": certified}


def test_one_newton_iteration():
    # f' is read from the evaluator only by the one float Newton loop, the array walk
    # and the point certificate: every Newton caller goes through _newton
    calls = []
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "scaled"
                        and any(k.arg == "derivative" for k in node.keywords)):
                    calls.append(f"{p.name}:{getattr(top, 'name', top.lineno)}")
    assert calls == ["zeros.py:_newton", "zeros.py:_walk", "zeros.py:_one_zero_disks"]


def test_one_square_certificate():
    # a Newton point is certified by one helper, one inequality at the point, which the
    # quadtree calls for its seeds' limits and for its Newton exits: no square about a
    # point is walked, and _walked_sides walks only the quadtree's root box
    calls = {"_walked_sides": [], "_one_zero_disks": []}
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in calls:
                        calls[name].append(f"{p.name}:{getattr(top, 'name', top.lineno)}")
    assert {k: sorted(v) for k, v in calls.items()} == {
        "_walked_sides": ["zeros.py:_quadtree_zeros"],
        "_one_zero_disks": ["zeros.py:_quadtree_zeros", "zeros.py:_subdivide"]}
    assert "_winds_once" not in (SRC / "zeros.py").read_text()


def test_one_segment_test():
    # the contour walk accepts a segment, and sizes the cut of a rejected one, only by
    # the inequality of ExpPoly.taylor_majorant, which only _walk and the point
    # certificate call; no rate bound is threaded through the zero finder, and the
    # sampled rule's helpers (the rate bound, the first sampling of the edges, the check
    # that a side's samples halve it) are gone from the package
    callers, names = [], []
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "taylor_majorant":
                    callers.append(f"{p.name}:{getattr(top, 'name', top.lineno)}")
                name = getattr(node, "name", getattr(node, "attr", getattr(node, "id", None)))
                if name in ("phase_rate_bound", "_edge_points", "_halves"):
                    names.append(f"{p.name}:{node.lineno} {name}")
    rates = [node.lineno for node in ast.walk(ast.parse((SRC / "zeros.py").read_text()))
             if isinstance(node, ast.arg) and node.arg == "rate"]
    assert callers == ["zeros.py:_walk", "zeros.py:_one_zero_disks"] and names == [] and rates == []


def test_one_boundary_rule():
    # which located zeros count in |z| <= r is decided by one helper, which each divisor
    # path calls, the quadtree once for its seeds' limits and once for its subdivision:
    # no other comparison of |z| with r, and no module-level band constant
    tree = ast.parse((SRC / "zeros.py").read_text())
    calls, compares = [], []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_counted":
                calls.append(top.name)
            elif isinstance(node, ast.Compare):
                names = {n.id for part in (node.left, *node.comparators)
                         for n in ast.walk(part) if isinstance(n, ast.Name)}
                if {"abs", "r"} <= names:
                    compares.append(top.name)
    constants = [top.lineno for top in tree.body if isinstance(top, (ast.Assign, ast.AnnAssign))
                 and isinstance(top.value, ast.Constant) and isinstance(top.value.value, (int, float))]
    assert sorted(calls) == ["_certified_zeros", "_quadtree_zeros", "_quadtree_zeros"]
    assert set(compares) == {"_counted"} and constants == []


def test_one_trapezoid_stop_rule():
    # every circle of a pass stops by the one rule, which circle_averages runs per
    # radius; it is the one public function of the module, with no one-radius wrapper
    tree = ast.parse((SRC / "quadrature.py").read_text())
    stops = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Compare) and ast.unparse(node) == "d2 == 0.0"]
    callers = {name: [getattr(top, "name", top.lineno) for top in tree.body for node in ast.walk(top)
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]
               for name in ("_stop", "circle_averages")}
    public = [top.name for top in tree.body
              if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")]
    assert len(stops) == 1
    assert callers == {"_stop": ["circle_averages"], "circle_averages": []}
    assert public == ["circle_averages"]


def test_one_way_to_a_curves_circle_means():
    # T reads a curve's circle means in characteristic alone, in one circle_averages
    # pass or through the closed form, which no other function asks for; the other
    # passes are Jensen's means and the acceptance battery's check of the closed form.
    # The curve keeps no means, and no module reaches into nevanlinna's private names
    calls = {"circle_averages": [], "_max_sinusoid_mean": []}
    private = []
    for p in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in calls:
                        calls[name].append(f"{p.name}:{getattr(top, 'name', top.lineno)}")
                elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("nevanlinna"):
                    private += [f"{p.name}:{a.name}" for a in node.names if a.name.startswith("_")]
    assert sorted(calls["circle_averages"]) == ["acceptance.py:_quadrature_t",
                                                "nevanlinna.py:characteristic",
                                                "nevanlinna.py:log_modulus_average"]
    assert calls["_max_sinusoid_mean"] == ["nevanlinna.py:characteristic"]
    assert private == []
    from nevlab.nevanlinna import EntireCurve
    assert EntireCurve.__slots__ == ("components",)


def test_one_modular_elimination():
    # the certified rank and the multimodular determinant and Cramer solve share
    # one modular kernel: linalg defines one _eliminate* function, which both
    # call, so no word-size rank kernel is forked beside the big-modulus one
    tree = ast.parse((SRC / "linalg.py").read_text())
    kernels = [top.name for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name.startswith("_eliminate")]
    callers = sorted({top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) in kernels})
    assert kernels == ["_eliminate_mod"]
    assert callers == ["_multimodular", "modular_rank_reaches"]


def test_one_determinant_entry_and_no_paths_parameter():
    # a certified decision returns which path decided with its value, so no function
    # takes an output list `paths`; det_sparse is the one determinant entry, the only
    # caller of the multimodular path and of the exact determinant, and the two
    # entries it replaced are gone
    params, gone = [], []
    callers = {"_multimodular": [], "det": []}
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                where = f"{p.name}:{getattr(top, 'name', top.lineno)}"
                if isinstance(node, ast.arg) and node.arg == "paths":
                    params.append(where)
                name = getattr(node, "name", getattr(node, "attr", getattr(node, "id", None)))
                if name in ("solve_transposed", "_det_exact"):
                    gone.append(f"{where} {name}")
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if called in callers:
                        callers[called].append(where)
    assert params == [] and gone == []
    assert callers == {"_multimodular": ["linalg.py:det_sparse"], "det": ["linalg.py:det_sparse"]}


def test_one_failure_class_per_exception():
    # every exception class of the package derives from exactly one of the three
    # failure bases of fields, but for the two that never reach a caller of a command:
    # linalg's Inconsistent, caught inside the exact solve, and fields' PoleError
    from nevlab.fields import InputError, NumericalFailure, Obstruction

    classes = {}
    for p in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"nevlab.{p.stem}" if p.stem != "__init__" else "nevlab")
        classes.update({f"{p.stem}.{name}": obj for name, obj in vars(module).items()
                        if isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__})
    bases = (InputError, Obstruction, NumericalFailure)
    wrong = sorted(name for name, cls in classes.items()
                   if sum(issubclass(cls, base) for base in bases) != 1)
    assert len(classes) >= 12
    assert wrong == ["fields.PoleError", "linalg.Inconsistent"]


def test_one_exit_code_per_failure_class():
    # the command line maps classes, not modules, to exit codes: _run catches the
    # parse error (for its caret), the three bases and OverflowError by name, and
    # looks none up in a module loaded on first use
    tree = ast.parse((SRC / "cli.py").read_text())
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_run")
    caught = [[elt.id for elt in getattr(h.type, "elts", [h.type])]
              for node in ast.walk(run) if isinstance(node, ast.Try) for h in node.handlers]
    assert caught == [["ParseError"], ["InputError"], ["NumericalFailure", "OverflowError"],
                      ["ArithmeticError"]]
    assert not any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_loaded"
                   for node in ast.walk(run))


def test_the_command_line_checks_only_what_no_library_function_sees():
    # each range is checked by the library entry point a command calls; the command
    # line raises InputError only where it parses a string (_parse_*), writes a file
    # (_write), or reads a flag no library function takes (smt --steps, selftest --only)
    tree = ast.parse((SRC / "cli.py").read_text())
    raising = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                if getattr(getattr(exc, "func", exc), "id", None) == "InputError":
                    raising[fn.name] = raising.get(fn.name, 0) + 1
    assert raising == {"_write": 1, "_parse_fraction": 1, "_parse_ints": 1,
                       "_parse_floats": 1, "cmd_smt": 1, "cmd_selftest": 1}


def test_fields_imports_only_the_standard_library():
    tree = ast.parse((SRC / "fields.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "fields.py imports nothing from the package"
            modules.add(node.module.split(".")[0])
    assert modules and modules <= set(sys.stdlib_module_names)


def test_only_the_acceptance_battery_imports_random():
    # an exact result is a function of its input alone: nothing the package
    # computes with is drawn at random, and the battery's inputs come from
    # seeded generators
    found = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [p.name for name in names if name.split(".")[0] == "random"]
    assert found == ["acceptance.py"]


def _python(code: str, *args: str, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, cwd=cwd, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


# a moving family of n + 1 = 2 lines: x0 and x1 + z x0
MOVING_PAIR = {"n": 1, "polynomials": [
    {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"}]},
    {"degree": 1, "terms": [{"exp": [0, 1], "coef": "1"}, {"exp": [1, 0], "coef": "z"}]}]}

LOADED = """
import json, sys
import nevlab.cli
print(json.dumps(["import", sorted({"numpy", "mpmath"} & set(sys.modules))]))
for argv in json.loads(sys.argv[1]):
    try:
        code = nevlab.cli.main(argv)
    except SystemExit as e:             # --version
        code = e.code
    print(json.dumps([argv[0], code, "numpy" in sys.modules, "numpy.ma" in sys.modules]))
"""


def test_what_the_cli_and_its_exact_commands_load(tmp_path):
    # importing the command line loads neither numpy nor mpmath (only the p_0
    # floor and huge t-bounds need mpmath; bounds.py imports it there), and the
    # exact commands run one after another in that process never load numpy
    family = tmp_path / "family.json"
    family.write_text(json.dumps(MOVING_PAIR))
    commands = [["admissible", str(family)], ["resultant", str(family)],
                ["certificate", str(family), "--index", "0"],
                ["filtration", str(family), "--subset", "0", "--level", "2"],
                ["bounds", "--n", "1", "--eps", "1/2", "--degrees", "1,1,1"],
                ["schema", "system"]]
    argvs = [["--version"]] + [argv + ["-o", f"{argv[0]}.json"] for argv in commands]
    out = _python(LOADED, json.dumps(argvs), cwd=tmp_path)
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("[")]
    assert lines == [["import", []]] + [[argv[0], 0, False, False] for argv in argvs]
    assert json.loads((tmp_path / "resultant.json").read_text())["is_zero"] is False


def test_the_analytic_commands_load_no_masked_arrays(tmp_path):
    # the zero finder uses numpy core only: no numpy set routine, whose np.unique loads
    # numpy.ma (13-18 ms and 1.2 MB per process), after smt and defects with the moving
    # target x0 + z/(z+41/4) x1 on (1 : e^z), seeded, and defects of x0 + x1 + x2 on
    # (1 : e^z : e^{iz}), a quadtree search of 1 + e^z + e^{iz}
    line = {"components": [{"terms": [{"poly": "1"}]}, {"terms": [{"poly": "1", "exp_coef": "1"}]}]}
    plane = {"components": line["components"] + [{"terms": [{"poly": "1", "exp_coef": "i"}]}]}
    x0 = MOVING_PAIR["polynomials"][0]
    x1 = {"degree": 1, "terms": [{"exp": [0, 1], "coef": "1"}]}
    moving = {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"},
                                     {"exp": [0, 1], "coef": "z/(z+41/4)"}]}
    planes = [{"degree": 1, "terms": [{"exp": e, "coef": "1"} for e in exps]}
              for exps in ([[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])]
    docs = {"line": line, "plane": plane, "moving": {"n": 1, "polynomials": [x0, x1, moving]},
            "planes": {"n": 2, "polynomials": planes}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argvs = [["smt", "line.json", "moving.json", "--rmin", "10", "--rmax", "30", "--steps", "4"],
             ["defects", "line.json", "moving.json", "--rmax", "30"],
             ["defects", "plane.json", "planes.json", "--rmax", "10", "--grid", "4"]]
    out = _python(LOADED, json.dumps([argv + ["-o", f"{k}.json"] for k, argv in enumerate(argvs)]),
                  cwd=tmp_path)
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("[")]
    assert lines[1:] == [[argv[0], 0, True, False] for argv in argvs]


def test_every_functools_cache_loads_with_the_package(tmp_path, monkeypatch):
    # a caller that clears the caches of the loaded modules before each command, as
    # the benchmark does, clears them all: none sits in a module loaded on first use
    mods = [importlib.import_module(f"nevlab.{p.stem}") for p in SRC.glob("*.py")
            if p.stem != "__init__"]
    homes = {v.__module__ for mod in mods for v in vars(mod).values()
             if callable(getattr(v, "cache_clear", None))}
    loaded = _python("import sys, nevlab; print(' '.join(sys.modules))").split()
    assert homes and sorted(homes - set(loaded)) == []

    # with no cache at all, each command computes the r = 1 mean once, and T once
    # per radius across all targets, since it asks characteristic for its whole grid
    # once; a moving coefficient adds no mean, since slow movement follows from
    # nondegeneracy over C(z)
    from nevlab import nevanlinna
    from nevlab.cli import main

    radii = []
    batch, closed = nevanlinna.circle_averages, nevanlinna._max_sinusoid_mean
    monkeypatch.setattr(nevanlinna, "circle_averages",
                        lambda fn, rs, *args: radii.extend(rs) or batch(fn, rs, *args))
    monkeypatch.setattr(nevanlinna, "_max_sinusoid_mean",
                        lambda rows, r: radii.append(r) or closed(rows, r))
    curve, system, fixed, moving = (tmp_path / f"{name}.json"
                                    for name in ("curve", "system", "fixed", "moving"))
    curve.write_text(json.dumps({"components": [
        {"terms": [{"poly": "1"}]}, {"terms": [{"poly": "1", "exp_coef": "1"}]}]}))
    x0, x1 = MOVING_PAIR["polynomials"][0], {"degree": 1, "terms": [{"exp": [0, 1], "coef": "1"}]}
    x0_plus = lambda c: {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"},
                                                {"exp": [0, 1], "coef": c}]}
    system.write_text(json.dumps({"n": 1, "polynomials": MOVING_PAIR["polynomials"] + [x0_plus("1")]}))
    fixed.write_text(json.dumps({"n": 1, "polynomials": [x0, x1, x0_plus("1")]}))
    moving.write_text(json.dumps({"n": 1, "polynomials": [x0, x1, x0_plus("z/(z+10)")]}))
    out = str(tmp_path / "out.json")
    steps = 5
    for argv, count in ((["characteristic", str(curve), "--radii", "2,3,5"], 4),
                        (["defects", str(curve), str(system), "--grid", "6"], 4),
                        (["smt", str(curve), str(fixed), "--rmin", "2", "--rmax", "6",
                          "--steps", str(steps)], steps + 1),
                        (["smt", str(curve), str(moving), "--rmin", "2", "--rmax", "6",
                          "--steps", str(steps)], steps + 1)):
        radii.clear()
        assert main(argv + ["-o", out]) == 0
        assert len(radii) == len(set(radii)) == count, (argv[0], radii)


def test_numeric_names_load_on_first_use_and_stay_current(monkeypatch):
    # every exported name is its module's own object, looked up there on each access,
    # so a patch of the module, and its undoing, shows through the package
    for name in nevlab.__all__:
        obj = getattr(nevlab, name)
        if name != "__version__":
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(nevlab.__all__) <= set(dir(nevlab))
    with pytest.raises(AttributeError):
        nevlab.no_such_name
    from nevlab import nevanlinna

    monkeypatch.setattr(nevanlinna, "characteristic", len)
    assert nevlab.characteristic is len
    monkeypatch.undo()
    assert nevlab.characteristic is nevanlinna.characteristic
    assert "characteristic" not in vars(nevlab)
    # in a fresh interpreter: a module by name first, then the README's import
    _python("from nevlab import nevanlinna\n"
            "from nevlab import EntireCurve, ExpPoly, HPoly, smt_verify\n"
            "assert EntireCurve is nevanlinna.EntireCurve")
