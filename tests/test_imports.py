"""Every module-level import of the package, its tests and its scripts is
used by its module, every public name of the package and every public
module-level function and class is used by the package or its scripts, and
so is every method of a public class other than a dunder, read as an
attribute, and the package has no assert statement, no private `fractions` API, no
`polyval` and no use of the scaling `ExpPoly._scaled_exps` outside `expfunc`,
one call of `np.roots` and of `yun_squarefree`, both in the certified root
routine, one float Newton loop, one boundary rule for the divisor paths, one
trapezoid stop rule, which `circle_average` reaches only through
`circle_averages`, `fields.py` imports only the standard library, importing
the command line loads neither numpy nor mpmath, and its exact commands
(admissible, resultant, certificate, filtration, bounds, schema) load no
numpy.  Every module of the package is imported, directly or through others,
by the package or the command line, except `nevlab.mrat`, which holds only a
docstring and which nothing imports.  Every functools cache sits in a module that `import nevlab` loads,
so clearing the loaded modules' caches clears them all, while each command
computes a curve's circle means once, counted in radii over `circle_average`
and `circle_averages` (4 for `characteristic` on 3 radii, 4 for `defects`
with 3 targets and `--grid 6`, steps + 1 for a fixed `smt`).  Every name of
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
    # float roots come from one np.roots call, and Yun's exact multiplicities
    # are read only where each root is certified: no uncertified root path
    calls = {"roots": [], "yun_squarefree": []}
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in calls:
                        calls[name].append(f"{p.name}:{getattr(top, 'name', top.lineno)}")
    certified = ["zeros.py:_certified_zeros"]
    assert calls == {"roots": certified, "yun_squarefree": certified}


def test_one_newton_iteration():
    # f' is read from the evaluator only by the one float Newton loop and the
    # array walk: every Newton caller goes through _newton
    calls = []
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "scaled"
                        and any(k.arg == "derivative" for k in node.keywords)):
                    calls.append(f"{p.name}:{getattr(top, 'name', top.lineno)}")
    assert calls == ["zeros.py:_newton", "zeros.py:_walk"]


def test_one_square_certificate():
    # the square of side tol about a Newton point is built and wound by one helper,
    # which the quadtree calls for its seeds' limits and for its Newton exits: no second
    # square test
    calls = {"_box": [], "_windings": [], "_winds_once": []}
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text(), str(p)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in calls:
                        calls[name].append(f"{p.name}:{getattr(top, 'name', top.lineno)}")
    assert {k: sorted(v) for k, v in calls.items()} == {
        "_box": ["zeros.py:_quadtree_zeros", "zeros.py:_winds_once"],
        "_windings": ["zeros.py:_winds_once", "zeros.py:disk_winding"],
        "_winds_once": ["zeros.py:_quadtree_zeros", "zeros.py:_subdivide"]}


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
    # radius, and circle_average only hands its one radius to circle_averages
    tree = ast.parse((SRC / "quadrature.py").read_text())
    stops = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Compare) and ast.unparse(node) == "d2 == 0.0"]
    callers = {name: [getattr(top, "name", top.lineno) for top in tree.body for node in ast.walk(top)
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]
               for name in ("_stop", "circle_averages")}
    single = next(top for top in tree.body if getattr(top, "name", None) == "circle_average")
    body = single.body[1:] if isinstance(single.body[0].value, ast.Constant) else single.body
    assert len(stops) == 1
    assert callers == {"_stop": ["circle_averages"], "circle_averages": ["circle_average"]}
    assert len(body) == 1 and isinstance(body[0], ast.Return)


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
    print(json.dumps([argv[0], code, "numpy" in sys.modules]))
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
    assert lines == [["import", []]] + [[argv[0], 0, False] for argv in argvs]
    assert json.loads((tmp_path / "resultant.json").read_text())["is_zero"] is False


def test_every_functools_cache_loads_with_the_package(tmp_path, monkeypatch):
    # a caller that clears the caches of the loaded modules before each command, as
    # the benchmark does, clears them all: none sits in a module loaded on first use
    mods = [importlib.import_module(f"nevlab.{p.stem}") for p in SRC.glob("*.py")
            if p.stem != "__init__"]
    homes = {v.__module__ for mod in mods for v in vars(mod).values()
             if callable(getattr(v, "cache_clear", None))}
    loaded = _python("import sys, nevlab; print(' '.join(sys.modules))").split()
    assert homes and sorted(homes - set(loaded)) == []

    # with no cache left, a curve keeps its circle means: each command computes
    # the r = 1 mean once, and T once per radius across all targets, whether
    # one radius at a time or a grid in one pass
    from nevlab import nevanlinna
    from nevlab.cli import main

    radii = []
    single, batch = nevanlinna.circle_average, nevanlinna.circle_averages
    monkeypatch.setattr(nevanlinna, "circle_average",
                        lambda fn, r, *args: radii.append(r) or single(fn, r, *args))
    monkeypatch.setattr(nevanlinna, "circle_averages",
                        lambda fn, rs, *args: radii.extend(rs) or batch(fn, rs, *args))
    curve, system, fixed = (tmp_path / f"{name}.json" for name in ("curve", "system", "fixed"))
    curve.write_text(json.dumps({"components": [
        {"terms": [{"poly": "1"}]}, {"terms": [{"poly": "1", "exp_coef": "1"}]}]}))
    x0_plus_x1 = {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1"}]}
    system.write_text(json.dumps({"n": 1, "polynomials": MOVING_PAIR["polynomials"] + [x0_plus_x1]}))
    fixed.write_text(json.dumps({"n": 1, "polynomials": [
        MOVING_PAIR["polynomials"][0], {"degree": 1, "terms": [{"exp": [0, 1], "coef": "1"}]},
        x0_plus_x1]}))
    out = str(tmp_path / "out.json")
    steps = 5
    for argv, count in ((["characteristic", str(curve), "--radii", "2,3,5"], 4),
                        (["defects", str(curve), str(system), "--grid", "6"], 4),
                        (["smt", str(curve), str(fixed), "--rmin", "2", "--rmax", "6",
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
