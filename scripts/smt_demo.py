#!/usr/bin/env python3
"""Verify the main inequality for the exponential line against three
hyperplane targets, once with constant coefficients and once with one
slowly moving coefficient.

Run with no arguments for the default grid; --rmax and --steps widen it.
"""

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nevlab.expfunc import ExpPoly
from nevlab.fields import RatFunc, ZPoly
from nevlab.hpoly import HPoly
from nevlab.nevanlinna import EntireCurve, smt_verify


@dataclass(frozen=True)
class DemoConfig:
    eps: Fraction
    rmin: float
    rmax: float
    steps: int


def parse_config(argv=None) -> DemoConfig:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", default="1/2")
    ap.add_argument("--rmin", type=float, default=10.0)
    ap.add_argument("--rmax", type=float, default=50.0)
    ap.add_argument("--steps", type=int, default=20)
    a = ap.parse_args(argv)
    return DemoConfig(Fraction(a.eps), a.rmin, a.rmax, a.steps)


def fmt_level(target) -> str:
    if target.truncation is not None and target.truncation < 10 ** 9:
        return str(target.truncation)
    # a huge level is only worth its order of magnitude, which is all the
    # report gives of a level it did not build
    return f"~10^{math.floor(target.truncation_log10)}"


def report(tag: str, rep) -> None:
    print(f"== {tag} ==")
    print(f"   targets: {[str(t.form) for t in rep.targets]}")
    print(f"   truncation levels: {[fmt_level(t) for t in rep.targets]}")
    print(f"   holds on every grid radius: {rep.holds_everywhere}")
    print(f"   first radius with a stable margin: {rep.r0}")
    print(f"   min margin: {min(rep.margins):.4f}")
    print(f"   defects: {[round(t.defect, 4) for t in rep.targets]}"
          f"  (sum {rep.defect_sum:.4f}, budget {rep.n + 1})")
    print("   r, lhs, rhs, margin:")
    for r, l, h, m in zip(rep.profile.radii, rep.lhs, rep.rhs, rep.margins):
        print(f"     {r:7.2f}  {l:9.4f}  {h:9.4f}  {m:8.4f}")
    print()


def main(argv=None) -> int:
    cfg = parse_config(argv)
    curve = EntireCurve((ExpPoly.const(1), ExpPoly.exp(1)))
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    radii = [float(r) for r in np.linspace(cfg.rmin, cfg.rmax, cfg.steps)]

    fixed = smt_verify(curve, (x0, x1, x0 + x1), cfg.eps, radii)
    report("constant coefficients", fixed)

    mover = HPoly.monomial(2, (0, 1), RatFunc(ZPoly((1,)), ZPoly((10, 1))))
    moving = smt_verify(curve, (x0, x1, x0 + mover), cfg.eps, radii)
    # smt_verify returns only once the curve is nondegenerate over C(z), which makes
    # T_f(r)/log r unbounded while T(r, z/(z+10)) = O(log r)
    report("one moving coefficient, slowly moving since the curve is nondegenerate "
           "over C(z)", moving)

    ok = fixed.holds_everywhere and moving.holds_everywhere
    print("inequality verified on both runs" if ok else "VIOLATION FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
