#!/usr/bin/env python3
"""Count and time the work of the quadtree zero search on fixed cases.

For each case, prints the deterministic counts of one search: contour walks
(`zeros._walk` calls), walk levels (their `ExpPoly.taylor_majorant` calls, one
per level), `ExpPoly.scaled` calls, the array points they evaluate, and the
points put to the zero certificate (`zeros._one_zero_disks`).  Then, unless
--rounds is 0, the best process time of each case over that many rounds, the
cases interleaved within each round and each search on a freshly built target.

    python3 scripts/zero_costs.py --rounds 21
    python3 scripts/zero_costs.py --case "e^z+1" --rounds 0
"""

import argparse
import sys
import time

import numpy as np

from nevlab import zeros
from nevlab.expfunc import ExpPoly
from nevlab.fields import GaussRat

# name: (a function making the target, radius, search); _quadtree_zeros searches without seeds,
# exppoly_zeros as the library does (seeds first for a two-term target)
CASES = {
    "e^z+1": (lambda: ExpPoly.exp(1) + 1, 50.0, "_quadtree_zeros"),
    "e^z-z": (lambda: ExpPoly.exp(1) - ExpPoly.var(), 30.0, "_quadtree_zeros"),
    "1+e^z+e^iz": (lambda: 1 + ExpPoly.exp(1) + ExpPoly.exp(GaussRat(0, 1)), 50.0, "exppoly_zeros"),
    # the smt benchmark's moving target x0 + z/(z + 10) x1 on (1 : e^z), cleared
    "(z+10)+z e^z": (lambda: ExpPoly.var() + 10 + ExpPoly.var() * ExpPoly.exp(1), 50.0, "exppoly_zeros"),
}
COUNTS = ("walks", "levels", "scaled", "points", "certified")


def search(name: str):
    build, r, entry = CASES[name]
    return getattr(zeros, entry)(build(), r)


def counts(name: str) -> dict:
    """The counts of one search of the case, from wrappers undone on return."""
    tally = dict.fromkeys(COUNTS, 0)
    inside = []
    saved = [(zeros, "_walk"), (zeros, "_one_zero_disks"),
             (ExpPoly, "scaled"), (ExpPoly, "taylor_majorant")]
    walk, certify, scaled, majorant = (getattr(owner, attr) for owner, attr in saved)

    def counted_walk(*args):
        tally["walks"] += 1
        inside.append(1)
        try:
            return walk(*args)
        finally:
            inside.pop()

    def counted_certify(f, points, tol):
        tally["certified"] += len(points)
        return certify(f, points, tol)

    def counted_scaled(self, z, *args, **kwargs):
        tally["scaled"] += 1
        tally["points"] += z.size if isinstance(z, np.ndarray) else 0
        return scaled(self, z, *args, **kwargs)

    def counted_majorant(self, *args):
        tally["levels"] += bool(inside)
        return majorant(self, *args)

    wrappers = (counted_walk, counted_certify, counted_scaled, counted_majorant)
    try:
        for (owner, attr), wrapper in zip(saved, wrappers):
            setattr(owner, attr, wrapper)
        search(name)
    finally:
        for (owner, attr), original in zip(saved, (walk, certify, scaled, majorant)):
            setattr(owner, attr, original)
    return tally


def best_times(names, rounds: int) -> dict:
    """Per case, the least process time of one search over the rounds, in seconds."""
    best = dict.fromkeys(names, float("inf"))
    for _ in range(rounds):
        for name in names:
            start = time.process_time()
            search(name)
            best[name] = min(best[name], time.process_time() - start)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", choices=sorted(CASES),
                    help="a case to run (repeatable; default: every case)")
    ap.add_argument("--rounds", type=int, default=5,
                    help="interleaved timing rounds; 0 prints the counts only")
    args = ap.parse_args(argv)
    if args.rounds < 0:
        ap.error("--rounds must be >= 0")
    names = args.case or list(CASES)
    width = max(map(len, names))
    print(f"{'case':<{width}}  r     " + "  ".join(f"{c:>9}" for c in COUNTS))
    for name in names:
        row = counts(name)
        print(f"{name:<{width}}  {CASES[name][1]:<5g} " + "  ".join(f"{row[c]:>9}" for c in COUNTS))
    if args.rounds:
        print(f"\nprocess time, best of {args.rounds} interleaved rounds")
        for name, t in best_times(names, args.rounds).items():
            print(f"{name:<{width}}  {1e3 * t:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
