"""The benchmark's three workloads: seeded inputs, output checks, exact fields.

Every op is a list of nevlab command lines run through ``nevlab.cli.main``
with ``-o`` pointing at a report file; an op's class (the first or second
name in ``Workload.classes``) selects which per-class median it feeds.

- ``smt``: ``nevlab smt`` on the exponential line (1 : e^z), 20 radii in
  [10, 50], eps = 1/2.  Class ``fixed``: targets (x0, x1, x0 + x1).  Class
  ``moving``: (x0, x1, x0 + z/(z+a) x1) with ``a`` stratified over [6, 14],
  one draw per stratum, because op time grows with ``a`` and an unstratified
  draw would move the class median from seed to seed.
- ``growth``: ``nevlab characteristic`` on 12 geometric radii from 2 to at
  most 300.  Class ``kinked``: three curve types whose components trade
  dominance on the circle; class ``smooth``: one dominant component.
  Frequencies have modulus at most 2, so Re(cz) stays below the overflow
  limit near 700.
- ``certify``: the exact commands (admissible, resultant, certificate at
  one index per family, filtration at N = 3, 6, 9) on dense random cubic
  families that pass the admissibility filter.  Class ``fixed``: n = 2 over
  Q(i).  Class ``moving``: n = 1 over Q(i)(z), the coefficient of x_0^3 in
  polynomial 0 being c/(z+b); the four shapes (certificate index and
  filtration subset each 0 or 1) take turns in blocks of five.

Each check returns None for a correct report set or a one-line reason.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

SMT_GRID = ("--eps", "1/2", "--rmin", "10", "--rmax", "50", "--steps", "20")


@dataclass(frozen=True)
class Op:
    cls: str
    argvs: tuple[tuple[str, ...], ...]   # nevlab command lines, run in order
    outputs: tuple[str, ...]             # report file of each command line
    params: dict                         # what the check needs to know


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _op(cls: str, outdir: str, index: int, cmds, params: dict) -> Op:
    outputs, argvs = [], []
    for k, cmd in enumerate(cmds):
        out = os.path.join(outdir, f"op{index:04d}_{k}.json")
        outputs.append(out)
        argvs.append(tuple(cmd) + ("-o", out))
    return Op(cls, tuple(argvs), tuple(outputs), params)


# ---------------------------------------------------------------------------
# smt


def _curve_doc(*components) -> dict:
    """Curve JSON from components given as lists of (poly, exp_coef) terms."""
    return {"components": [{"terms": [{"poly": p, "exp_coef": c} for p, c in comp]}
                           for comp in components]}


def _hyperplane(coefs) -> dict:
    terms = [{"exp": [1 - k, k], "coef": c} for k, c in enumerate(coefs) if c is not None]
    return {"degree": 1, "terms": terms}


def _fixed_target_counts(r: float) -> float:
    """N(r) of 1 + e^z, whose zeros (2k+1) pi i are simple, all with |a| > 1."""
    total, k = 0.0, 0
    while (2 * k + 1) * math.pi <= r:
        total += 2 * math.log(r / ((2 * k + 1) * math.pi))   # +-(2k+1) pi i
        k += 1
    return total


class Smt:
    name = "smt"
    classes = ("fixed", "moving")
    pair_seconds = 8.4          # one fixed plus one moving op on a 2-core Xeon

    def _fixed_inputs(self, indir: str):
        curve = _write_json(os.path.join(indir, "curve.json"),
                            _curve_doc([("1", "0")], [("1", "1")]))
        fixed = _write_json(os.path.join(indir, "fixed.json"), {"n": 1, "polynomials": [
            _hyperplane([1, None]), _hyperplane([None, 1]), _hyperplane([1, 1])]})
        return curve, fixed

    def make_ops(self, rng: random.Random, seconds: float, indir: str, outdir: str):
        pairs = max(1, int(seconds / self.pair_seconds))
        curve, fixed = self._fixed_inputs(indir)
        # a in quarter steps, one per stratum of [6, 14], in shuffled order
        quarters = [24 + int(32 * (k + rng.random()) / pairs) for k in range(pairs)]
        rng.shuffle(quarters)
        ops = []
        for k, q in enumerate(quarters):
            a = Fraction(q, 4)
            system = _write_json(os.path.join(indir, f"moving{k}.json"), {"n": 1, "polynomials": [
                _hyperplane([1, None]), _hyperplane([None, 1]),
                _hyperplane([1, f"z/(z+{a})"])]})
            ops.append(_op("fixed", outdir, len(ops), [("smt", curve, fixed) + SMT_GRID], {}))
            ops.append(_op("moving", outdir, len(ops), [("smt", curve, system) + SMT_GRID],
                           {"a": str(a)}))
        return ops

    def warmup(self, indir: str):
        curve, fixed = self._fixed_inputs(indir)
        return ("smt", curve, fixed, "--rmin", "2", "--rmax", "4", "--steps", "2",
                "-o", os.path.join(indir, "warm_out.json"))

    def check(self, op: Op, docs) -> Optional[str]:
        doc = docs[0]
        if doc.get("holds_everywhere") is not True:
            return "inequality fails on the grid"
        if not doc["defect_sum"] <= doc["n"] + 1.1:
            return f"defect sum {doc['defect_sum']} exceeds n + 1.1"
        if op.cls == "fixed":
            levels = [t["truncation"] for t in doc["targets"]]
            if levels != [19, 19, 19]:
                return f"fixed truncation levels {levels} != [19, 19, 19]"
            radii = doc["profile"]["radii"]
            for k, target in enumerate(doc["targets"]):
                for r, got in zip(radii, target["counts"]):
                    want = _fixed_target_counts(r) if k == 2 else 0.0
                    if not (isinstance(got, float) and abs(got - want) <= 1e-8):
                        return f"target {k} count at r={r}: {got} != {want}"
        return None

    def exact(self, op: Op, docs) -> dict:
        doc = docs[0]
        return {"targets": [[t["form"], t["degree"], t["truncation"]] for t in doc["targets"]],
                "nondegenerate_to": doc["nondegenerate_to"], "fixed": doc["fixed"],
                "level_note": doc["level_note"]}


# ---------------------------------------------------------------------------
# growth

UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))              # 1, -1, i, -i


def _gauss_str(c) -> str:
    re_, im = c
    if im == 0:
        return str(re_)
    sign = "+" if im > 0 else "-"
    return f"{re_}{sign}{abs(im)}i"


def _hull_perimeter(points) -> float:
    """Perimeter of the convex hull of complex points (monotone chain)."""
    pts = sorted(set((p.real, p.imag) for p in points))
    if len(pts) < 2:
        return 0.0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        hull.extend(part[:-1])
    return sum(math.dist(hull[k], hull[(k + 1) % len(hull)]) for k in range(len(hull)))


def exp_line_characteristic(freqs, r: float) -> float:
    """T(r) of (1 : e^{c_1 z} : ...): the mean over |z| = r of max(0, Re c_k z)
    is r times the hull perimeter of {0, c_k} over 2 pi (Cauchy's formula)."""
    return (r - 1) * _hull_perimeter([0j] + list(freqs)) / (2 * math.pi)


@functools.lru_cache(maxsize=None)
def _zero_moduli(c: complex, b: int) -> tuple[float, ...]:
    """|z| at the zeros of e^{cz} - b z: |W_k(-c/b)|, |k| <= 50, covers |z| < 315."""
    import mpmath
    return tuple(abs(complex(mpmath.lambertw(-c / b, k))) for k in range(-50, 51))


def _clear_of_zeros(radii, c: complex, b: int, gap: float = 0.05) -> list[float]:
    """Move radii off the zeros of e^{cz} - b z.

    A zero within about 1e-3 of a circle makes log|f| singular there, the
    kinked case: the quadrature then stops at its sample cap and warns.
    """
    moduli = _zero_moduli(c, b)
    out = []
    for r in radii:
        while min(abs(r - m) for m in moduli) < gap:
            r += gap
        out.append(r)
    return out


class Growth:
    name = "growth"
    classes = ("kinked", "smooth")
    round_seconds = 6.8         # the 12 kinked and 36 smooth ops of one round
    radii_count = 12

    def make_ops(self, rng: random.Random, seconds: float, indir: str, outdir: str):
        # every round holds each kinked curve type once per unit frequency, so
        # the class median sits inside the cluster of the eight faster kinked
        # ops in every run, and each smooth (c, b) three times: smooth op time
        # varies about 1.6x with (c, b) and the grid, and with a random b and
        # one op per (c, b) the class median moved by a tenth from seed to
        # seed; the seed draws the order and the grids
        _zero_moduli.cache_clear()     # so every set-up does the same work
        rounds = max(1, int(seconds / self.round_seconds))
        ops = []
        for _ in range(rounds):
            batch = [(kind, c, None) for kind in ("single", "pair", "poly") for c in UNITS]
            batch += [("smooth", c, b) for c in UNITS for b in (1, 2, 3) for _ in range(3)]
            rng.shuffle(batch)
            for kind, c, b in batch:
                ops.append(self._curve_op(rng, kind, c, b, indir, outdir, len(ops)))
        return ops

    def _curve_op(self, rng, kind, c, b, indir, outdir, index) -> Op:
        params = {"kind": kind}
        if kind == "single":        # (1 : e^{cz})
            freqs = [complex(*c)]
            doc = _curve_doc([("1", "0")], [("1", _gauss_str(c))])
        elif kind == "pair":        # (1 : e^{cz} : e^{icz})
            ic = (-c[1], c[0])
            freqs = [complex(*c), complex(*ic)]
            doc = _curve_doc([("1", "0")], [("1", _gauss_str(c))], [("1", _gauss_str(ic))])
        elif kind == "poly":        # (1 : e^{2cz} : z e^{-cz})
            freqs = [2 * complex(*c), -complex(*c)]
            doc = _curve_doc([("1", "0")], [("1", _gauss_str((2 * c[0], 2 * c[1])))],
                             [("z", _gauss_str((-c[0], -c[1])))])
        else:
            # (1 : e^{cz} - b z): on circles r >= 2, |e^{cz} - b z| >= 1, so one
            # component dominates everywhere on the grid
            params["b"] = b
            freqs = [complex(*c)]
            doc = _curve_doc([("1", "0")], [("1", _gauss_str(c)), (f"-{params['b']}z", "0")])
        params["freqs"] = [[f.real, f.imag] for f in freqs]
        top = rng.uniform(270.0, 300.0)
        n = self.radii_count
        radii = [2.0 * (top / 2.0) ** (k / (n - 1)) for k in range(n)]
        if kind == "smooth":
            radii = _clear_of_zeros(radii, complex(*c), params["b"])
        params["radii"] = radii
        path = _write_json(os.path.join(indir, f"curve{index:04d}.json"), doc)
        cmd = ("characteristic", path, "--radii", ",".join(repr(r) for r in radii))
        return _op("smooth" if kind == "smooth" else "kinked", outdir, index, [cmd], params)

    def warmup(self, indir: str):
        curve = _write_json(os.path.join(indir, "warm_curve.json"),
                            _curve_doc([("1", "0")], [("1", "1")]))
        return ("characteristic", curve, "--radii", "2,3",
                "-o", os.path.join(indir, "warm_out.json"))

    def check(self, op: Op, docs) -> Optional[str]:
        values = docs[0]["values"]
        radii = op.params["radii"]
        if len(values) != len(radii) or not all(
                isinstance(v, float) and math.isfinite(v) for v in values):
            return f"values not finite: {values}"
        if any(b < a - 1e-9 * (1 + abs(a)) for a, b in zip(values, values[1:])):
            return "T(r) decreases along the grid"
        freqs = [complex(*f) for f in op.params["freqs"]]
        kind = op.params["kind"]
        for r, v in zip(radii, values):
            pure = exp_line_characteristic(freqs, r)
            if kind in ("single", "pair"):
                lo, hi = pure - 1e-8, pure + 1e-8
            elif kind == "poly":
                # |z| = r >= 1 scales one component by r, so 0 <= T - T_pure <= log r
                lo, hi = pure - 1e-8, pure + math.log(r) + 1e-8
            else:
                # |e^{cz} - bz| is within a factor 1 + b r of max(1, |e^{cz}|)
                slack = math.log1p(op.params["b"] * r) + math.log1p(op.params["b"])
                lo, hi = pure - slack, pure + slack
            if not lo <= v <= hi:
                return f"{kind} T({r}) = {v} outside [{lo}, {hi}]"
        return None

    def exact(self, op: Op, docs) -> dict:
        return {"components": docs[0]["components"]}


# ---------------------------------------------------------------------------
# certify


def _monomials(nvars: int, d: int):
    return [e for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) == d]


def _nonzero_gauss(rng: random.Random, h: int = 2) -> str:
    while True:
        c = (rng.randint(-h, h), rng.randint(-h, h))
        if c != (0, 0):
            return _gauss_str(c)


def complete_intersection_dim(level: int, d: int, n: int) -> int:
    """#{(i_1..i_n) : 0 <= i_s <= d-1, sum <= level}, counted directly."""
    if level < 0:
        return 0
    return sum(1 for i in itertools.product(range(d), repeat=n) if sum(i) <= level)


class Certify:
    name = "certify"
    classes = ("fixed", "moving")
    pair_seconds = 1.5          # one fixed plus one moving family
    degree = 3
    levels = (1, 2, 3)          # filtration at N = d t

    def family(self, rng: random.Random, n: int, moving: bool) -> dict:
        """A dense degree-d family; if moving, the coefficient of x_0^d in
        polynomial 0 is c/(z+b)."""
        d = self.degree
        polys = [{"degree": d, "terms": [{"exp": list(e), "coef": _nonzero_gauss(rng)}
                                         for e in _monomials(n + 1, d)]}
                 for _ in range(n + 1)]
        if moving:
            term = next(t for t in polys[0]["terms"] if t["exp"][0] == d)
            term["coef"] = f"({_nonzero_gauss(rng)})/(z+{rng.randint(1, 9)})"
        return {"n": n, "polynomials": polys}

    def admissible_family(self, rng: random.Random, n: int, moving: bool) -> dict:
        from nevlab.parsing import family_from_json
        from nevlab.resultant import is_admissible
        while True:
            doc = self.family(rng, n, moving)
            if is_admissible(family_from_json(doc)).admissible:
                return doc

    def make_ops(self, rng: random.Random, seconds: float, indir: str, outdir: str):
        # The moving coefficient sits in polynomial 0.  A moving op's cost is
        # then set mostly by its shape: whether its certificate index and its
        # filtration subset are 0.  Ops of one shape agree within about 5%,
        # and the shapes cost about 0.56, 0.68, 0.73 and 0.83 (reference
        # seconds) for (False, False), (True, False), (False, True) and
        # (True, True).  Every block of five moving ops holds each shape once
        # and (True, False) twice, in seeded order, so the class median falls
        # inside one cluster instead of in the gap between two, where it
        # would move with the seed.
        pairs = max(1, int(seconds / self.pair_seconds))
        shapes = []
        while len(shapes) < pairs:
            block = [*itertools.product((True, False), repeat=2), (True, False)]
            rng.shuffle(block)
            shapes += block
        ops = []
        for k, (cert_on_0, subset_on_0) in zip(range(pairs), shapes):
            for cls, n in (("fixed", 2), ("moving", 1)):
                index = len(ops)
                if cls == "fixed":
                    doc = self.admissible_family(rng, n, False)
                    cert = k % (n + 1)
                    subset = sorted(rng.sample(range(n + 1), n))
                else:
                    doc = self.admissible_family(rng, n, True)
                    cert = 0 if cert_on_0 else 1
                    subset = [0 if subset_on_0 else 1]
                path = _write_json(os.path.join(indir, f"family{index:04d}.json"), doc)
                cmds = [("admissible", path), ("resultant", path),
                        ("certificate", path, "--index", str(cert))]
                cmds += [("filtration", path, "--subset", ",".join(map(str, subset)),
                          "--level", str(self.degree * t)) for t in self.levels]
                ops.append(_op(cls, outdir, index, cmds, {"n": n}))
        return ops

    def warmup(self, indir: str):
        path = _write_json(os.path.join(indir, "warm_family.json"), {"n": 1, "polynomials": [
            {"degree": 2, "terms": [{"exp": [2, 0], "coef": 1}, {"exp": [0, 2], "coef": 1}]},
            {"degree": 2, "terms": [{"exp": [1, 1], "coef": "1/(z+1)"}]}]})
        return ("admissible", path, "-o", os.path.join(indir, "warm_out.json"))

    def check(self, op: Op, docs) -> Optional[str]:
        adm, res, cert = docs[:3]
        if adm.get("admissible") is not True:
            return "family reported not admissible"
        if res.get("is_zero") is not False:
            return "resultant vanishes"
        if cert.get("verified") is not True:
            return "power certificate does not verify"
        for table in docs[3:]:
            n, d, big_n = table["n"], table["d"], table["level"]
            for idx, m in zip(table["tuples"], table["multiplicities"]):
                want = complete_intersection_dim(big_n - d * sum(idx), d, n)
                if m != want:
                    return f"N={big_n} tuple {idx}: multiplicity {m} != {want}"
            if table["m_total"] != math.comb(big_n + n, n):
                return f"N={big_n}: m_total {table['m_total']} != C(N+n, n)"
        return None

    def exact(self, op: Op, docs) -> dict:
        adm, res, cert = docs[:3]
        return {"admissible": [adm[k] for k in ("admissible", "witness", "failing_subset",
                                                "subsets_checked", "points_tried")],
                "resultant": res["resultant"],
                "certificate": [cert[k] for k in ("index", "power", "resultant",
                                                  "cofactor_terms")],
                "filtration": [[t[k] for k in ("subset", "level", "tuples", "multiplicities",
                                               "a_constant", "a_lower_bound")]
                               for t in docs[3:]]}


WORKLOADS = {w.name: w for w in (Smt(), Growth(), Certify())}
