#!/usr/bin/env python3
"""Count and time the exact commands on the certify benchmark's families.

The families are the certify benchmark's cubics, from perfbench's
`Certify.admissible_family(random.Random(seed), n, moving)`: fixed n = 2 over
Q(i), and moving n = 1 over Q(i)(z), whose coefficient of x_0^3 in
polynomial 0 is c/(z + b).  Each family runs the benchmark's commands through
`nevlab.cli.main`: admissible, resultant, certificate --index 0, and
filtration of the subset 0..n-1 at N = 3, 6 and 9.  For each seed, class and
command the script prints deterministic counts: `_eliminate_mod` calls, the
pivot inverses (`pow` calls) they make, and the rank decisions of the
report's `rank_paths` ("-" for a report without one).  Then, unless --rounds
is 0, the best process time of each command over that many rounds, the
commands interleaved within each round.  Every command starts cold, as in
the benchmark: the functools caches of `nevlab.hpoly`, nevlab's only ones,
are cleared first.

    python3 scripts/certify_costs.py --rounds 5
    python3 scripts/certify_costs.py --rounds 0
"""

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import Certify  # noqa: E402  (the benchmark's family generator)

from nevlab import cli, hpoly, linalg  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
CLASSES = (("fixed", 2, False), ("moving", 1, True))
COUNTS = ("eliminations", "inverses", "ranks")


def commands(path: str, n: int) -> dict:
    """The benchmark's command lines on one family, by label."""
    subset = ",".join(map(str, range(n)))
    out = {"admissible": ["admissible", path], "resultant": ["resultant", path],
           "certificate": ["certificate", path, "--index", "0"]}
    out.update((f"filtration:{level}", ["filtration", path, "--subset", subset,
                                        "--level", str(level)]) for level in (3, 6, 9))
    return out


def run(argv: list) -> dict:
    """The report of one command, run cold."""
    for cache in vars(hpoly).values():
        if callable(getattr(cache, "cache_clear", None)):
            cache.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(argv + ["-o", "-"]):
            raise SystemExit(f"command failed: {' '.join(argv)}")
    return json.loads(out.getvalue())


def counts(argv: list) -> dict:
    """The counts of one command, from wrappers undone on return.  The
    elimination's `pow` is looked up in the module, so a `pow` defined there
    sees each inverse; one outside an elimination is not counted."""
    tally = dict.fromkeys(COUNTS, 0)
    eliminate, depth = linalg._eliminate_mod, []

    def counted_eliminate(*args):
        tally["eliminations"] += 1
        depth.append(1)
        try:
            return eliminate(*args)
        finally:
            depth.pop()

    def counted_pow(base, exp, mod=None):
        if depth and exp == -1:
            tally["inverses"] += 1
        return pow(base, exp, mod)

    try:
        linalg._eliminate_mod, linalg.pow = counted_eliminate, counted_pow
        paths = run(argv).get("rank_paths")
    finally:
        linalg._eliminate_mod = eliminate
        del linalg.pow
    tally["ranks"] = "-" if paths is None else paths["modular"] + paths["exact"]
    return tally


def best_times(cases: dict, rounds: int) -> dict:
    """Per case, the least process time of its command over the rounds, in seconds."""
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(rounds):
        for key, argv in cases.items():
            start = time.process_time()
            run(argv)
            best[key] = min(best[key], time.process_time() - start)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5,
                    help="interleaved timing rounds; 0 prints the counts only")
    args = ap.parse_args(argv)
    if args.rounds < 0:
        ap.error("--rounds must be >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        cases = {}
        for seed in SEEDS:
            for cls, n, moving in CLASSES:
                path = os.path.join(tmp, f"{cls}{seed}.json")
                with open(path, "w") as fh:
                    json.dump(Certify().admissible_family(random.Random(seed), n, moving), fh)
                cases.update(((seed, cls, label), cmd) for label, cmd in commands(path, n).items())
        print("seed  class   command        " + "  ".join(f"{c:>12}" for c in COUNTS))
        for (seed, cls, label), cmd in cases.items():
            row = counts(cmd)
            print(f"{seed:<4}  {cls:<6}  {label:<13}  " + "  ".join(f"{row[c]:>12}" for c in COUNTS))
        if args.rounds:
            print(f"\nprocess time, best of {args.rounds} interleaved rounds")
            for (seed, cls, label), t in best_times(cases, args.rounds).items():
                print(f"{seed:<4}  {cls:<6}  {label:<13}  {1e3 * t:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
