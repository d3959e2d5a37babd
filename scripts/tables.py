#!/usr/bin/env python3
"""Tabulate nevlab's bounds, defects and main inequality, and count and time its work.

Each table runs its cases once and prints one row per case: the columns its run
returns ("-": none) and the counts of its counting wrappers; then, unless
--rounds is 0, the best process time of each case over that many rounds, the
cases interleaved.

certify  The certify benchmark's families (perfbench's `Certify.admissible_family`,
         seeds 1-5): fixed n = 2 cubics over Q(i) and moving n = 1 cubics over
         Q(i)(z), each running admissible, resultant, certificate --index 0 and
         filtration of 0..n-1 at N = 3, 6, 9 through `nevlab.cli.main`, cold (the
         functools caches of `nevlab.hpoly`, nevlab's only ones, cleared first).
         Counts: `_eliminate_mod` calls, the pivot inverses (`pow(x, -1, m)`)
         made inside them, and the report's `rank_paths` decisions ("-": none).
tower    Every `power_certificate` of the certify benchmark's moving n = 2
         cubics, seeds 1-5.  Counts: `zpoly_gcd` calls and `RatFunc` values
         made (by the reducing constructor or by `fields._rf`).
zeros    The quadtree zero search on fixed cases, each on a freshly built
         target.  Counts: contour walks (`zeros._walk` calls), walk levels (their
         `ExpPoly.taylor_majorant` calls), `ExpPoly.scaled` calls, the array
         points they evaluate, and the points certified by `_one_zero_disks`.
bounds   The truncation-level chain for q = n + 2 forms of degree d, n, d in 1..3,
         eps in 1/4, 1/2, 3/4: the constant-coefficient chain's graded level N,
         block count M, margin and level, and the digits of the moving chain's
         level, which is seldom worth building.
defects  Defect estimates (r up to 60) of a small curve zoo against the
         coordinate hyperplanes and their sum, and each curve's defect sum
         against the budget n + 1.  The exponential line omits two values (both
         defects 1, saturating the budget); rational curves show partial defects
         where a target meets the image with multiplicity below the degree.
smt      The main inequality at eps = 1/2 on the exponential line (1 : e^z) over
         20 radii in [10, 50], against x0, x1 and x0 + x1 (fixed) or
         x0 + x1/(z + 10) (moving): per radius both sides and their margin, per
         target its truncation level and defect.  Exits nonzero if a margin is
         negative.

    python3 scripts/tables.py certify --rounds 5
    python3 scripts/tables.py tower --rounds 0
    python3 scripts/tables.py zeros --rounds 21
    python3 scripts/tables.py bounds --rounds 0
    python3 scripts/tables.py defects --rounds 0
    python3 scripts/tables.py smt --rounds 3
"""

import argparse
import builtins
import collections
import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import Certify  # noqa: E402  (the benchmark's family generator)

from nevlab import cli, fields, hpoly, linalg, zeros as zeros_module  # noqa: E402
from nevlab.bounds import compute_truncation_levels  # noqa: E402
from nevlab.expfunc import ExpPoly  # noqa: E402
from nevlab.hpoly import HPoly  # noqa: E402
from nevlab.nevanlinna import EntireCurve, defect_estimate, smt_verify  # noqa: E402
from nevlab.parsing import family_from_json  # noqa: E402
from nevlab.resultant import power_certificate  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)


def once(*args, **kwargs) -> int:
    return 1


class Table(NamedTuple):
    head: tuple        # the label columns, then the value columns
    cases: dict        # row labels (strings) -> the case
    counters: tuple    # (owner, name, column, weight of one call, name it counts only inside)
    run: Callable      # runs one case; returns the value columns it reports itself


@contextlib.contextmanager
def counting(counters, tally: dict):
    """Wrap each counted function of `owner.name` (a builtin when the owner
    has no such name, so that the owner's own calls see the wrapper) to add
    its counters' weights to `tally`, and restore every original on exit."""
    specs, running, saved = collections.defaultdict(list), collections.Counter(), []
    for owner, name, column, weight, inside in counters:
        specs[owner, name].append((column, weight, inside))

    def counted(name, original, own):
        def wrapper(*args, **kwargs):
            for column, weight, inside in own:
                if inside is None or running[inside]:
                    tally[column] += weight(*args, **kwargs)
            running[name] += 1
            try:
                return original(*args, **kwargs)
            finally:
                running[name] -= 1
        return wrapper

    try:
        for (owner, name), own in specs.items():
            original = vars(owner).get(name)
            saved.append((owner, name, original))
            setattr(owner, name, counted(name, original or getattr(builtins, name), own))
        yield tally
    finally:
        for owner, name, original in saved:
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def certify(tmp: str) -> Table:
    def run(argv: list) -> dict:
        for cache in vars(hpoly).values():
            if callable(getattr(cache, "cache_clear", None)):
                cache.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(argv + ["-o", "-"]):
                raise SystemExit(f"command failed: {' '.join(argv)}")
        paths = json.loads(out.getvalue()).get("rank_paths")
        return {"ranks": "-" if paths is None else paths["modular"] + paths["exact"]}

    cases = {}
    for seed in SEEDS:
        for cls, n, moving in (("fixed", 2, False), ("moving", 1, True)):
            path = os.path.join(tmp, f"{cls}{seed}.json")
            with open(path, "w") as fh:
                json.dump(Certify().admissible_family(random.Random(seed), n, moving), fh)
            subset = ",".join(map(str, range(n)))
            commands = {"admissible": ["admissible", path], "resultant": ["resultant", path],
                        "certificate": ["certificate", path, "--index", "0"]}
            commands.update((f"filtration:{level}", ["filtration", path, "--subset", subset,
                                                     "--level", str(level)]) for level in (3, 6, 9))
            cases.update(((str(seed), cls, label), argv) for label, argv in commands.items())
    counters = ((linalg, "_eliminate_mod", "eliminations", once, None),
                (linalg, "pow", "inverses", lambda base, exp, mod=None: exp == -1,
                 "_eliminate_mod"))
    return Table(("seed", "class", "command", "eliminations", "inverses", "ranks"),
                 cases, counters, run)


def tower(tmp: str) -> Table:
    def run(case) -> dict:
        power_certificate(*case)
        return {}

    cases = {}
    for seed in SEEDS:
        polys = family_from_json(Certify().admissible_family(random.Random(seed), 2, True)).polys
        cases.update(((str(seed), str(index)), (polys, index)) for index in range(len(polys)))
    counters = ((fields, "zpoly_gcd", "gcds", once, None), (fields, "_rf", "ratfuncs", once, None),
                (fields.RatFunc, "__init__", "ratfuncs", once, None))
    return Table(("seed", "index", "gcds", "ratfuncs"), cases, counters, run)


def zeros(tmp: str) -> Table:
    def run(case) -> dict:
        build, r, entry = case
        getattr(zeros_module, entry)(build(), r)
        return {}

    # _quadtree_zeros searches without seeds; exppoly_zeros seeds a two-term target first
    cases = {
        ("e^z+1", "50"): (lambda: ExpPoly.exp(1) + 1, 50.0, "_quadtree_zeros"),
        ("e^z-z", "30"): (lambda: ExpPoly.exp(1) - ExpPoly.var(), 30.0, "_quadtree_zeros"),
        ("1+e^z+e^iz", "50"):
            (lambda: 1 + ExpPoly.exp(1) + ExpPoly.exp(fields.GaussRat(0, 1)), 50.0, "exppoly_zeros"),
        # the smt benchmark's moving target x0 + z/(z + 10) x1 on (1 : e^z), cleared
        ("(z+10)+z e^z", "50"):
            (lambda: ExpPoly.var() + 10 + ExpPoly.var() * ExpPoly.exp(1), 50.0, "exppoly_zeros"),
    }
    counters = ((zeros_module, "_walk", "walks", once, None),
                (ExpPoly, "taylor_majorant", "levels", once, "_walk"),
                (ExpPoly, "scaled", "scaled", once, None),
                (ExpPoly, "scaled", "points",
                 lambda self, z, *args, **kwargs: z.size if isinstance(z, np.ndarray) else 0, None),
                (zeros_module, "_one_zero_disks", "certified",
                 lambda f, points, tol: len(points), None))
    return Table(("case", "r", "walks", "levels", "scaled", "points", "certified"),
                 cases, counters, run)


def bounds(tmp: str) -> Table:
    def run(case) -> dict:
        n, q, eps, degrees = case
        fixed = compute_truncation_levels(n, q, eps, degrees, fixed=True)
        moving = compute_truncation_levels(n, q, eps, degrees)
        return {"N": fixed.big_n, "M": fixed.m_count, "margin": fixed.margin,
                "fixed_level": fixed.truncations[0],
                "moving_digits": int(moving.level_log10) + 1}

    cases = {}
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                cases[str(n), str(d), str(n + 2), str(eps)] = (n, n + 2, eps, (d,) * (n + 2))
    return Table(("n", "d", "q", "eps", "N", "M", "margin", "fixed_level", "moving_digits"),
                 cases, (), run)


def defects(tmp: str) -> Table:
    def run(case) -> dict:
        curve, targets, budget = case
        return {"defect": f"{sum(defect_estimate(curve, targets, 60.0)):.4f}", "budget": budget}

    one, z, ez = ExpPoly.const(1), ExpPoly.var(), ExpPoly.exp(1)
    zoo = {"(1:z)": (one, z), "(1:z:z^2)": (one, z, z * z), "(1:e^z)": (one, ez),
           "(1:e^z-z)": (one, ez - z)}
    cases = {}
    for name, components in zoo.items():
        curve, k = EntireCurve(components), len(components)
        targets = [HPoly.coordinate(k, j) for j in range(k)]
        targets.append(sum(targets[1:], targets[0]))
        # a target's row sums its defect alone, the very float it gets among the others
        cases.update(((name, str(t)), (curve, [t], "-")) for t in targets)
        cases[name, "sum"] = (curve, targets, k)
    return Table(("curve", "target", "defect", "budget"), cases, (), run)


def smt(tmp: str) -> Table:
    curve = EntireCurve((ExpPoly.const(1), ExpPoly.exp(1)))
    radii = [float(r) for r in np.linspace(10.0, 50.0, 20)]

    def level(target) -> str:
        # a huge level is only worth its order of magnitude, which is all the
        # report gives of a level it did not build
        if target.truncation is not None and target.truncation < 10 ** 9:
            return str(target.truncation)
        return f"~10^{math.floor(target.truncation_log10)}"

    def run(case) -> dict:
        targets, kind, k = case
        rep = smt_verify(curve, targets, Fraction(1, 2), radii)
        if not rep.holds_everywhere:
            raise SystemExit(f"inequality violated: least margin {min(rep.margins):.4f}")
        if kind == "radius":
            return {"lhs": f"{rep.lhs[k]:.4f}", "rhs": f"{rep.rhs[k]:.4f}",
                    "margin": f"{rep.margins[k]:.4f}"}
        if kind == "target":
            return {"level": level(rep.targets[k]), "defect": f"{rep.targets[k].defect:.4f}"}
        return {"defect": f"{rep.defect_sum:.4f}", "budget": rep.n + 1}

    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    # smt_verify returns only once the curve is nondegenerate over C(z), which makes
    # T_f(r)/log r unbounded while T(r, 1/(z+10)) = O(log r): the target moves slowly
    mover = HPoly.monomial(2, (0, 1), fields.RatFunc(fields.ZPoly((1,)), fields.ZPoly((10, 1))))
    cases = {}
    for system, targets in (("fixed", (x0, x1, x0 + x1)), ("moving", (x0, x1, x0 + mover))):
        cases.update(((system, str(t)), (targets, "target", k)) for k, t in enumerate(targets))
        cases[system, "sum"] = (targets, "sum", None)
        cases.update(((system, f"{r:.2f}"), (targets, "radius", k)) for k, r in enumerate(radii))
    return Table(("system", "at", "lhs", "rhs", "margin", "level", "defect", "budget"),
                 cases, (), run)


TABLES = {"certify": certify, "tower": tower, "zeros": zeros,
          "bounds": bounds, "defects": defects, "smt": smt}


def best_times(table: Table, rounds: int) -> dict:
    """Per case, the least process time of one run over the rounds, in seconds."""
    best = dict.fromkeys(table.cases, float("inf"))
    for _ in range(rounds):
        for label, case in table.cases.items():
            start = time.process_time()
            table.run(case)
            best[label] = min(best[label], time.process_time() - start)
    return best


def show(rows: list, labels: int) -> None:
    """Print rows of fields in columns, the first `labels` left-aligned."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(field.ljust(w) if k < labels else field.rjust(w)
                        for k, (field, w) in enumerate(zip(row, widths))).rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("table", choices=TABLES)
    ap.add_argument("--rounds", type=int, default=5,
                    help="interleaved timing rounds; 0 prints the rows only")
    args = ap.parse_args(argv)
    if args.rounds < 0:
        ap.error("--rounds must be >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        table = TABLES[args.table](tmp)
        labels = len(next(iter(table.cases)))
        rows = [list(table.head)]
        for label, case in table.cases.items():
            tally = dict.fromkeys(table.head[labels:], "-")
            tally.update((counter[2], 0) for counter in table.counters)
            with counting(table.counters, tally):
                tally.update(table.run(case))
            rows.append([*label, *map(str, tally.values())])
        show(rows, labels)
        if args.rounds:
            print(f"\nprocess time, best of {args.rounds} interleaved rounds")
            show([[*label, f"{1e3 * t:.2f} ms"]
                  for label, t in best_times(table, args.rounds).items()], labels)
    return 0


if __name__ == "__main__":
    sys.exit(main())
