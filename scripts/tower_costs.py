#!/usr/bin/env python3
"""Count and time the exact work of moving n = 2 power certificates.

The families are the certify benchmark's moving cubics at n = 2,
`Certify.admissible_family(random.Random(seed), 2, True)` from perfbench, whose
coefficient of x_0^3 in polynomial 0 is c/(z + b).  For each seed and every
certificate index, prints the deterministic counts of one `power_certificate`:
`zpoly_gcd` calls and `RatFunc` values made (by the reducing constructor or by
construction).  Then, unless --rounds is 0, the best process time of each
certificate over that many rounds, the certificates interleaved within each round.

    python3 scripts/tower_costs.py --rounds 5
    python3 scripts/tower_costs.py --seed 1 --rounds 0
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import Certify  # noqa: E402  (the benchmark's family generator)

from nevlab import fields  # noqa: E402
from nevlab.parsing import family_from_json  # noqa: E402
from nevlab.resultant import power_certificate  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
COUNTS = ("gcds", "ratfuncs")


def family(seed: int):
    return family_from_json(Certify().admissible_family(random.Random(seed), 2, True))


def counts(polys, index: int) -> dict:
    """The counts of one certificate, from wrappers undone on return."""
    tally = dict.fromkeys(COUNTS, 0)
    gcd, make, init = fields.zpoly_gcd, fields._rf, fields.RatFunc.__init__

    def counted_gcd(a, b):
        tally["gcds"] += 1
        return gcd(a, b)

    def counted_make(num, den):
        tally["ratfuncs"] += 1
        return make(num, den)

    def counted_init(self, *args, **kwargs):
        tally["ratfuncs"] += 1
        init(self, *args, **kwargs)

    try:
        fields.zpoly_gcd, fields._rf, fields.RatFunc.__init__ = counted_gcd, counted_make, counted_init
        power_certificate(polys, index)
    finally:
        fields.zpoly_gcd, fields._rf, fields.RatFunc.__init__ = gcd, make, init
    return tally


def best_times(cases: dict, rounds: int) -> dict:
    """Per (seed, index), the least process time of one certificate over the rounds, in seconds."""
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(rounds):
        for (seed, index), polys in cases.items():
            start = time.process_time()
            power_certificate(polys, index)
            best[seed, index] = min(best[seed, index], time.process_time() - start)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, action="append", choices=SEEDS,
                    help="a family seed to run (repeatable; default: every seed)")
    ap.add_argument("--rounds", type=int, default=5,
                    help="interleaved timing rounds; 0 prints the counts only")
    args = ap.parse_args(argv)
    if args.rounds < 0:
        ap.error("--rounds must be >= 0")
    cases = {}
    for seed in args.seed or SEEDS:
        polys = family(seed).polys
        cases.update(((seed, index), polys) for index in range(len(polys)))
    print("seed  index  " + "  ".join(f"{c:>9}" for c in COUNTS))
    for (seed, index), polys in cases.items():
        row = counts(polys, index)
        print(f"{seed:<4}  {index:<5}  " + "  ".join(f"{row[c]:>9}" for c in COUNTS))
    if args.rounds:
        print(f"\nprocess time, best of {args.rounds} interleaved rounds")
        for (seed, index), t in best_times(cases, args.rounds).items():
            print(f"{seed:<4}  {index:<5}  {1e3 * t:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
