#!/usr/bin/env python3
"""Count and time the work of nevlab's exact layer and zero search, table by table.

Each table runs its cases once under counting wrappers and prints the
deterministic counts, one row per case; then, unless --rounds is 0, the best
process time of each case over that many rounds, the cases interleaved.

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

    python3 scripts/costs.py certify --rounds 5
    python3 scripts/costs.py tower --rounds 0
    python3 scripts/costs.py zeros --rounds 21
"""

import argparse
import builtins
import collections
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import Certify  # noqa: E402  (the benchmark's family generator)

from nevlab import cli, fields, hpoly, linalg, zeros as zeros_module  # noqa: E402
from nevlab.expfunc import ExpPoly  # noqa: E402
from nevlab.parsing import family_from_json  # noqa: E402
from nevlab.resultant import power_certificate  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)


def once(*args, **kwargs) -> int:
    return 1


class Table(NamedTuple):
    head: tuple        # the label columns, then the count columns
    cases: dict        # row labels (strings) -> the case
    counters: tuple    # (owner, name, column, weight of one call, name it counts only inside)
    run: Callable      # runs one case; returns the count columns it reports itself


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


TABLES = {"certify": certify, "tower": tower, "zeros": zeros}


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
                    help="interleaved timing rounds; 0 prints the counts only")
    args = ap.parse_args(argv)
    if args.rounds < 0:
        ap.error("--rounds must be >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        table = TABLES[args.table](tmp)
        labels = len(next(iter(table.cases)))
        rows = [list(table.head)]
        for label, case in table.cases.items():
            with counting(table.counters, dict.fromkeys(table.head[labels:], 0)) as tally:
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
