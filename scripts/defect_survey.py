#!/usr/bin/env python3
"""Deficiency survey: how close curves come to the n+1 defect budget.

Estimates defects for a small zoo of curves against coordinate-style
hyperplanes and prints the sums.  The exponential line omits two values
entirely (both defects 1, saturating the budget of 2); rational curves
show partial defects exactly where a target meets the image with
multiplicity below the degree (the conic against x1, for instance).
"""

import argparse
import sys

from nevlab.expfunc import ExpPoly
from nevlab.hpoly import HPoly
from nevlab.nevanlinna import EntireCurve, defect_estimate


def zoo():
    one = ExpPoly.const(1)
    z = ExpPoly.var()
    yield "line (1 : z)", EntireCurve((one, z)), 1
    yield "conic (1 : z : z^2)", EntireCurve((one, z, z * z)), 2
    yield "exp line (1 : e^z)", EntireCurve((one, ExpPoly.exp(1))), 1
    yield ("exp plus pole dodger (1 : e^z - z)",
           EntireCurve((one, ExpPoly.exp(1) - z)), 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rmax", type=float, default=60.0)
    args = ap.parse_args(argv)

    for name, curve, n in zoo():
        k = n + 1
        targets = [HPoly.coordinate(k, j) for j in range(k)]
        targets.append(HPoly(k, 1, {tuple(1 if i == j else 0 for i in range(k)): 1
                                    for j in range(k)}))   # sum of coordinates
        defects = defect_estimate(curve, targets, args.rmax)
        total = sum(defects)
        bar = "#" * int(20 * total / (n + 1) + 0.5)
        print(f"{name:36s} sum {total:6.3f} / {n + 1}  |{bar:<20s}|")
        for t, d in zip(targets, defects):
            print(f"    {str(t):24s} {d:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
