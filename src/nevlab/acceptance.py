"""End-to-end verification battery: one named check per advertised guarantee.

Each check_* function exercises a whole subsystem against an independent
oracle or an exact identity and returns (passed, detail).  The pytest
wrappers in tests/test_acceptance.py run them one per test with a visible
PASS/FAIL line; the CLI selftest prints the same matrix.  Checks use their
own seeded generators so reruns are bit-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import a_lower_bound, compute_truncation_levels
from .expfunc import ExpPoly
from .fields import GaussRat, RatFunc, ZPoly
from .filtration import (build_filtration, construct_psi_basis,
                         basis_is_independent, quotient_dim, tuple_count)
from .hpoly import HPoly, monomials
from .nevanlinna import (EntireCurve, characteristic, divisor_bound_check,
                         jensen_check, smt_verify, wronskian)
from .quadrature import circle_averages
from .resultant import (HypersurfaceFamily, is_admissible, macaulay_resultant,
                        power_certificate, sylvester_resultant)

from math import comb


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag}  {self.name:<28} {self.detail}  [{self.seconds:.1f}s]"


# ---------------------------------------------------------------------------
# random generators (seeded per check; small heights keep exact algebra fast)


def _rand_scalar(rng: random.Random) -> GaussRat:
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 3)) \
        if rng.random() < 0.3 else Fraction(0)
    return GaussRat(re, im)


def _rand_form(rng: random.Random, nvars: int, d: int,
               density: float = 0.8) -> HPoly:
    while True:
        coeffs = {}
        for exp in monomials(nvars - 1, d):
            if rng.random() < density:
                c = _rand_scalar(rng)
                if c:
                    coeffs[exp] = c
        if coeffs:
            return HPoly(nvars, d, coeffs)


def _power_family(n: int, d: int) -> HypersurfaceFamily:
    polys = [HPoly.monomial(n + 1, tuple(d if j == i else 0
                                         for j in range(n + 1)))
             for i in range(n + 1)]
    return HypersurfaceFamily(n, polys)


def _rand_admissible(rng: random.Random, n: int, d: int,
                     q: Optional[int] = None) -> HypersurfaceFamily:
    q = n + 1 if q is None else q
    while True:
        fam = HypersurfaceFamily(
            n, [_rand_form(rng, n + 1, d) for _ in range(q)])
        if is_admissible(fam).admissible:
            return fam


def _rand_exppoly(rng: random.Random) -> ExpPoly:
    freqs = (GaussRat(0), GaussRat(0), GaussRat(1), GaussRat(-1),
             GaussRat(0, 1), GaussRat(2))
    out = ExpPoly.zero()
    for _ in range(rng.randint(1, 2)):
        deg = rng.randint(0, 2)
        p = ZPoly([rng.randint(-4, 4) for _ in range(deg + 1)])
        out = out + ExpPoly({rng.choice(freqs): p})
    if out.is_zero():
        return ExpPoly.const(rng.randint(1, 4))
    return out


# ---------------------------------------------------------------------------
# 1. resultant oracle equivalence


def check_resultant_oracle() -> tuple[bool, str]:
    rng = random.Random(101)
    bad = 0
    for _ in range(50):
        d = rng.randint(1, 4)
        p, q = _rand_form(rng, 2, d), _rand_form(rng, 2, d)
        rs = sylvester_resultant(p, q)
        rm = macaulay_resultant((p, q))
        if rm != rs and rm != -rs:
            bad += 1
    diag_bad = 0
    for n in range(1, 4):
        for d in range(1, 4):
            if macaulay_resultant(_power_family(n, d).polys) != 1:
                diag_bad += 1
    ok = bad == 0 and diag_bad == 0
    return ok, (f"50 binary pairs vs sylvester ({bad} mismatches), "
                f"9 power families res=1 ({diag_bad} wrong)")


# ---------------------------------------------------------------------------
# 2. power certificate exactness


def check_certificate_exactness() -> tuple[bool, str]:
    rng = random.Random(202)
    done = bad = 0
    max_s_seen = 0
    while done < 20:
        n = rng.randint(1, 2)
        d = rng.randint(1, 3)
        polys = [_rand_form(rng, n + 1, d, density=0.7) for _ in range(n + 1)]
        r = macaulay_resultant(polys)
        if not r:
            continue
        cert = power_certificate(polys, rng.randrange(n + 1))
        if cert.resultant != r or not cert.verify() or cert.s > (n + 1) * (d - 1) + 1:
            bad += 1
        max_s_seen = max(max_s_seen, cert.s)
        done += 1
    return bad == 0, (f"20 certificates expand exactly ({bad} failures), "
                      f"max s = {max_s_seen}")


# ---------------------------------------------------------------------------
# 3. quotient dimension = tuple count


def check_quotient_dimension() -> tuple[bool, str]:
    rng = random.Random(303)
    families: list[tuple[HypersurfaceFamily, int]] = []
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            families.append((_power_family(n, d), 9))
    for n in (1, 2):
        for d in (1, 2, 3):
            families.append((_rand_admissible(rng, n, d), 9 if n == 1 else 7))
    moving = 0
    for n, d in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        while True:
            polys = [_rand_form(rng, n + 1, d) for _ in range(n + 1)]
            k = rng.randrange(n)    # mover lands in the generating subset
            mover = RatFunc(ZPoly((rng.randint(1, 3),)),
                            ZPoly((rng.randint(1, 5), 1)))
            polys[k] = polys[k] * mover + _rand_form(rng, n + 1, d)
            if polys[k].is_zero():
                continue
            fam = HypersurfaceFamily(n, polys)
            if fam.is_moving() and is_admissible(fam).admissible:
                families.append((fam, 6 if n == 2 else 9))
                moving += 1
                break
    bad = checked = 0
    for fam, n_cap in families:
        n, d = fam.n, fam.common_degree()
        gens = [fam.lifted()[j] for j in range(n)]
        for big_n in range(0, n_cap + 1):
            got = quotient_dim(gens, big_n)[0]
            want = tuple_count(big_n, d, n)
            checked += 1
            if got != want:
                bad += 1
            if big_n >= n * (d - 1) and got != d ** n:
                bad += 1
    return bad == 0, (f"{len(families)} admissible families ({moving} moving), "
                      f"{checked} graded levels, {bad} mismatches")


# ---------------------------------------------------------------------------
# 4. filtration identities


def check_filtration_identities() -> tuple[bool, str]:
    rng = random.Random(404)
    bad = 0
    tables = 0
    for n in (1, 2):
        for d in (1, 2):
            fam = _rand_admissible(rng, n, d, q=n + 2)
            a_seen = {}
            for subset in (tuple(range(n)), tuple(range(1, n + 1))):
                for t in range(1, 5):
                    big_n = d * t
                    table = build_filtration(fam, subset, big_n)
                    tables += 1
                    if table.m_total != comb(big_n + n, n):
                        bad += 1
                    for idx, m in zip(table.tuples, table.multiplicities):
                        if big_n - d * sum(idx) >= n * (d - 1) and m != d ** n:
                            bad += 1
                    if table.a_constant < a_lower_bound(table.n, table.d, table.big_n):
                        bad += 1
                    prev = a_seen.setdefault(big_n, table.a_constant)
                    if prev != table.a_constant:
                        bad += 1
                    basis = construct_psi_basis(fam, table)
                    if len(basis.polys) != table.m_total:
                        bad += 1
                    if not basis_is_independent(basis):
                        bad += 1
                    if any(basis.exponent_sum(s) != table.a_constant
                           for s in range(n)):
                        bad += 1
    return bad == 0, (f"{tables} filtration tables: block sums, stable "
                      f"m_k = d^n, A subset-independent and >= lower bound, "
                      f"psi bases independent ({bad} violations)")


# ---------------------------------------------------------------------------
# 5. bounds chain


def check_bounds_chain() -> tuple[bool, str]:
    import warnings
    bad = reports = 0
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            q = n + 2
            for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                for fixed in (True, False):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        rep = compute_truncation_levels(n, q, eps, (d,) * q,
                                                        fixed=fixed)
                    reports += 1
                    if rep.margin < 0:
                        bad += 1
                    if eps >= 1 and not (rep.eps < 1 and rep.eps_requested == 1):
                        bad += 1    # boundary value must clamp inward
                    if fixed:
                        m = comb(n + rep.big_n, n)
                        want = tuple(d * (m - 1) // d + 1 for _ in range(q))
                        if rep.truncations != want:
                            bad += 1
            mixed = compute_truncation_levels(n, q, Fraction(1, 2),
                                              (1,) + (d,) * (q - 1),
                                              fixed=True)
            reports += 1
            m = comb(n + mixed.big_n, n)
            want = tuple(dj * (m - 1) // mixed.d + 1 for dj in mixed.degrees)
            if mixed.truncations != want or mixed.margin < 0:
                bad += 1
    return bad == 0, (f"{reports} parameter tuples: margin >= 0 exactly, "
                      f"fixed-case levels match the closed form ({bad} bad)")


# ---------------------------------------------------------------------------
# 6. Jensen residuals


def _jensen_corpus() -> list:
    z = ZPoly((0, 1))
    half = GaussRat(Fraction(1, 2))
    phi = GaussRat(Fraction(3, 5), Fraction(4, 5))   # unit modulus
    corpus = [
        z,
        ZPoly((-2, 1)),                  # zero on the r=2 circle
        ZPoly((1, 0, 1)),                # zeros at +-i
        ZPoly((GaussRat(2, -1), 1)),
        ZPoly((-6, 1, 1)),
        ZPoly((Fraction(1, 4), -1, 1)) * ZPoly((3, 1)),
        ZPoly((half, 1)) * ZPoly((half, 1)),    # double zero inside r=1
        ZPoly((1, 0, 0, 1)) * phi,
        RatFunc(ZPoly((-2, 1)), ZPoly((3, 1))),
        RatFunc(ZPoly((1,)), ZPoly((2, 0, 1))),
        RatFunc(ZPoly((-4, 0, 1)), ZPoly((9, 0, 1))),
        RatFunc(ZPoly((0, 0, 1)), ZPoly((-5, 1))),
        RatFunc(ZPoly((GaussRat(0, 1), 1)), ZPoly((GaussRat(0, -3), 1))),
        RatFunc(ZPoly((1, 1, 1)), ZPoly((7, -2, 1))),
        ExpPoly.exp(1),
        ExpPoly.exp(1) + 1,
        ExpPoly.exp(1) - 1,
        ExpPoly.exp(1) - ExpPoly.var(),
        ExpPoly.exp(GaussRat(0, 1)) - 1,
        ExpPoly.poly(ZPoly((-2, 1))) * ExpPoly.exp(-1),
    ]
    return corpus


def check_jensen_residual() -> tuple[bool, str]:
    worst = 0.0
    bad = 0
    corpus = _jensen_corpus()
    for phi in corpus:
        for res in jensen_check(phi, (2.0, 5.0, 10.0)):
            worst = max(worst, res)
            if res > 1e-6:
                bad += 1
    return bad == 0, f"{len(corpus)} functions x 3 radii, worst residual {worst:.2e}"


# ---------------------------------------------------------------------------
# 7. wronskian scaling


def check_wronskian_scaling() -> tuple[bool, str]:
    rng = random.Random(707)
    bad = 0
    for k in range(20):
        n = k % 3 + 1
        fns = [_rand_exppoly(rng) for _ in range(n + 1)]
        h = _rand_exppoly(rng)
        lhs = wronskian([h * f for f in fns])
        rhs = h ** (n + 1) * wronskian(fns)
        if not (lhs - rhs).is_zero():
            bad += 1
    return bad == 0, f"20 tuples (n <= 3): W(hF) = h^(n+1) W(F) exactly ({bad} bad)"


# ---------------------------------------------------------------------------
# 8. divisor bound


def _rand_poly_curve(rng: random.Random, n: int) -> EntireCurve:
    roots = [GaussRat(a, b) for a in range(-2, 3) for b in range(-1, 2)]
    comps = []
    for i in range(n + 1):
        p = ZPoly((1,))
        for _ in range(rng.randint(0, 2)):
            a = rng.choice(roots)
            for _ in range(rng.randint(1, 3)):
                p = p * ZPoly((-a, 1))
        comps.append(p)
    comps[rng.randrange(n + 1)] = ZPoly((rng.randint(1, 3),))  # keeps it reduced
    return EntireCurve(comps)


def check_divisor_bound() -> tuple[bool, str]:
    rng = random.Random(808)
    done = bad = sites = 0
    while done < 20:
        n = rng.randint(1, 2)
        try:
            curve = _rand_poly_curve(rng, n)
            rep = divisor_bound_check(curve, 5.0)
        except ValueError:     # dependent or unreduced draw; try again
            continue
        sites += len(rep.sites)
        if not rep.holds:
            bad += 1
        done += 1
    return bad == 0, (f"20 polynomial curves, {sites} zero sites, "
                      f"{bad} bound violations")


# ---------------------------------------------------------------------------
# 9. main inequality harness

# the exponential line (1 : e^z), which checks 9 and 10 both read
_EXP_LINE = EntireCurve((ExpPoly.const(1), ExpPoly.exp(1)))


def check_smt_harness() -> tuple[bool, str]:
    fe = _EXP_LINE
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    grid = [float(r) for r in np.linspace(10.0, 50.0, 20)]
    fixed = smt_verify(fe, (x0, x1, x0 + x1), Fraction(1, 2), grid)
    mover = HPoly.monomial(2, (0, 1), RatFunc(ZPoly((1,)), ZPoly((10, 1))))
    moving = smt_verify(fe, (x0, x1, x0 + mover), Fraction(1, 2), grid)
    problems = []
    if not fixed.holds_everywhere:
        problems.append(f"fixed margin dips to {min(fixed.margins):.3f}")
    if fixed.defect_sum > 2.1:
        problems.append(f"fixed defect sum {fixed.defect_sum:.3f}")
    if any(t.truncation != 19 for t in fixed.targets):
        problems.append("fixed truncation level != 19")
    if any(t.truncation_binds is not False for t in fixed.targets + moving.targets):
        problems.append("a truncation level binds or is undecided")
    if not all(math.isfinite(t.truncation_log10) for t in moving.targets):
        problems.append("moving truncation size not finite")
    if not moving.holds_everywhere:
        problems.append(f"moving margin dips to {min(moving.margins):.3f}")
    if moving.defect_sum > 2.1:
        problems.append(f"moving defect sum {moving.defect_sum:.3f}")
    detail = (f"fixed: min margin {min(fixed.margins):.3f}, defects "
              f"{fixed.defect_sum:.3f}; moving: min margin "
              f"{min(moving.margins):.3f}, defects {moving.defect_sum:.3f}")
    return not problems, detail if not problems else "; ".join(problems)


# ---------------------------------------------------------------------------
# 10. characteristic closed forms


def _quadrature_t(curve: EntireCurve, radii: Sequence[float]) -> list[float]:
    """T at each radius from the rows log|f_i| through circle_averages directly: every
    curve below is one-term, so characteristic reads it in closed form, and this keeps
    the quadrature checked against the same closed forms."""
    rows = lambda zs: np.stack([comp.log_abs(zs) for comp in curve.components])
    lo, *means = circle_averages(rows, (1.0, *radii))
    return [res.value - lo.value for res in means]


def check_characteristic_closed_forms() -> tuple[bool, str]:
    phi = GaussRat(Fraction(3, 5), Fraction(4, 5))
    z = ZPoly((0, 1))
    cases = [
        (EntireCurve((ZPoly((1,)), z)), 1),
        (EntireCurve((ZPoly((1,)), z, z * z)), 2),
        (EntireCurve((ZPoly((Fraction(1, 2),)), z)), 1),
        (EntireCurve((z * z * z * phi, ZPoly((1,)), z)), 3),
        (EntireCurve((z * z * GaussRat(0, 1), ZPoly((GaussRat(0, -1),)))), 2),
    ]
    # (worst error of characteristic, of the quadrature) per family, and the misses
    worst, bad = [[0.0, 0.0], [0.0, 0.0]], 0
    radii = (2.0, 5.0, 10.0, 30.0)
    for curve, k in cases:
        for r, closed, quad in zip(radii, characteristic(curve, radii),
                                   _quadrature_t(curve, radii)):
            for path, t in enumerate((closed.value, quad)):
                err = abs(t - k * math.log(r))
                worst[0][path] = max(worst[0][path], err)
                bad += err > 1e-6
    radii = (10.0, 20.0, 30.0, 40.0, 50.0)
    for r, closed, quad in zip(radii, characteristic(_EXP_LINE, radii),
                               _quadrature_t(_EXP_LINE, radii)):
        for path, t in enumerate((closed.value, quad)):
            err = abs(t - (r - 1) / math.pi)
            worst[1][path] = max(worst[1][path], err)
            bad += err > 1e-9 * r
    (mono, mono_q), (line, line_q) = worst
    return bad == 0, (f"monomial curves worst |T - k log r| = {mono:.2e} "
                      f"(quadrature {mono_q:.2e}); exp curve worst |T - (r-1)/pi| = "
                      f"{line:.1e} (quadrature {line_q:.1e})")


# ---------------------------------------------------------------------------
# runner


CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("resultant-oracle", check_resultant_oracle),
    ("certificate-exactness", check_certificate_exactness),
    ("quotient-dimension", check_quotient_dimension),
    ("filtration-identities", check_filtration_identities),
    ("bounds-chain", check_bounds_chain),
    ("jensen-residual", check_jensen_residual),
    ("wronskian-scaling", check_wronskian_scaling),
    ("divisor-bound", check_divisor_bound),
    ("smt-harness", check_smt_harness),
    ("characteristic-closed-forms", check_characteristic_closed_forms),
)


def run_check(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    t0 = perf_counter()
    try:
        passed, detail = fn()
    except Exception as e:              # a crash is a failure, not an abort
        passed, detail = False, f"{type(e).__name__}: {e}"
    return CheckResult(name, passed, detail, perf_counter() - t0)


def run_all(names: Optional[Sequence[str]] = None,
            echo: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    wanted = set(names) if names else None
    results = []
    for name, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        res = run_check(name, fn)
        if echo is not None:
            echo(res.line())
        results.append(res)
    return results
