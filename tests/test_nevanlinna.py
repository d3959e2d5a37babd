"""Value-distribution functionals: closed forms, exact identities, and the
main-inequality harness on small grids.  Tolerances follow the quadrature
target (1e-9) except where a genuine transcendental estimate is involved.
"""

import dataclasses
import itertools
import json
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nevlab import bounds, linalg, nevanlinna
from nevlab.acceptance import _quadrature_t
from nevlab.cli import main
from nevlab.bounds import REPORT_DIGIT_BUDGET, compute_truncation_levels
from nevlab.expfunc import ExpPoly
from nevlab.fields import GaussRat, InputError, NumericalFailure, Obstruction, RatFunc, ZPoly
from nevlab.filtration import build_filtration
from nevlab.hpoly import HPoly, monomials
from nevlab.nevanlinna import (AdmissibilityError, DegeneracyError,
                               EntireCurve, NevanlinnaProfile, characteristic,
                               compose_target, counting_function,
                               defect_estimate, divisor_bound_check,
                               jensen_check, nondegeneracy_check,
                               normalize_target, quotient_zeros, smt_verify,
                               wronskian)
from nevlab.quadrature import circle_averages
from nevlab.resultant import (HypersurfaceFamily, is_admissible, macaulay_resultant,
                              power_certificate)
from nevlab.zeros import ContourThroughZero, Divisor

ONE = ZPoly((1,))
Z = ZPoly((0, 1))


def _exp_curve():
    return EntireCurve((ExpPoly.const(1), ExpPoly.exp(1)))


# ---------------------------------------------------------------------------
# curve construction


def test_curve_needs_substance():
    with pytest.raises(InputError):
        EntireCurve((ONE,))                      # one component
    with pytest.raises(InputError):
        EntireCurve((ExpPoly.zero(), ExpPoly.zero()))
    with pytest.raises(DegeneracyError):
        EntireCurve((Z, Z * Z))                  # shared factor z
    EntireCurve((ONE, Z, Z * Z))                 # fine: gcd is constant


def test_curve_rejects_shared_factor_of_mixed_components():
    ez = ExpPoly.exp(1)
    zm1 = ExpPoly.poly(ZPoly((-1, 1)))
    with pytest.raises(DegeneracyError):
        EntireCurve((ExpPoly.var() * ez, ExpPoly.var()))         # (z e^z : z)
    with pytest.raises(DegeneracyError):
        EntireCurve((zm1 * ez, zm1 * (ez + ExpPoly.var())))      # factor z - 1
    EntireCurve((ExpPoly.var() * ez, ExpPoly.var() + 1))          # gcd is constant


def test_curve_rejects_common_zeros_of_commensurable_exponentials():
    one, ez, e2z = ExpPoly.const(1), ExpPoly.exp(1), ExpPoly.exp(2)
    half_i = ExpPoly.exp(GaussRat(0, Fraction(1, 2)))
    with pytest.raises(DegeneracyError, match="polynomials in e"):
        EntireCurve((ez + one, e2z - one))                  # zeros (2k + 1) pi i shared
    with pytest.raises(DegeneracyError):
        EntireCurve((ExpPoly.exp(-1) - one, ez - one))      # w^-1 - 1 and w - 1
    with pytest.raises(DegeneracyError):
        EntireCurve((half_i - one, half_i * half_i - one, one * 0))
    EntireCurve((one, ez))
    EntireCurve((ez - one, e2z + one))                      # gcd(w - 1, w^2 + 1) = 1
    EntireCurve((ez, e2z))                                  # gcd w never vanishes
    # not commensurable or not constant coefficients: every component vanishes at
    # z = 0, which the exact values sum_c p_c(0) show and no gcd would
    for comps in ((ez - one, ExpPoly.var()), (ez - one, ExpPoly.exp(GaussRat(0, 1)) - one)):
        with pytest.raises(DegeneracyError, match="z = 0"):
            EntireCurve(comps)
    EntireCurve((ez - one, ExpPoly.var() + 1))


def test_workload_curves_are_reduced():
    one, z = ExpPoly.const(1), ExpPoly.var()
    curves = [(one, ExpPoly.exp(1))]                        # smt
    for c in (GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)):   # growth
        ec = ExpPoly.exp(c)
        curves += [(one, ec), (one, ec, ExpPoly.exp(c * GaussRat(0, 1))),
                   (one, ExpPoly.exp(c * 2), z * ExpPoly.exp(-c))]
        curves += [(one, ec - z * b) for b in (1, 2, 3)]
    for comps in curves:
        EntireCurve(comps)


def test_curve_rejects_unreadable_component():
    with pytest.raises(TypeError):
        EntireCurve((ExpPoly.const(1), RatFunc(ZPoly((1,)), ZPoly((1, 1)))))


def test_curve_value_equality():
    a = EntireCurve((ONE, Z))
    b = EntireCurve((ZPoly((1,)), ZPoly((0, 1))))
    assert a == b and hash(a) == hash(b)
    assert a != EntireCurve((ONE, Z * Z))


# ---------------------------------------------------------------------------
# characteristic


def test_characteristic_rational_closed_forms():
    line = EntireCurve((ONE, Z))
    radii = (2.0, 5.0, 10.0)
    for r, t in zip(radii, characteristic(line, radii)):
        assert t.value == pytest.approx(math.log(r), abs=1e-8)
    conic = EntireCurve((ONE, Z, Z * Z))
    radii = (2.0, 7.0)
    for r, t in zip(radii, characteristic(conic, radii)):
        assert t.value == pytest.approx(2 * math.log(r), abs=1e-8)


def test_characteristic_exponential_growth():
    # T(r) = (r - 1)/pi for (1 : e^z)
    radii = (10.0, 25.0, 50.0)
    for r, t in zip(radii, characteristic(_exp_curve(), radii)):
        assert t.value == pytest.approx((r - 1) / math.pi, abs=1e-9 * r)


def test_characteristic_beyond_the_overflow_radius():
    radii = (800.0, 2e3, 1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = characteristic(_exp_curve(), radii)
    for r, t in zip(radii, ts):
        assert t.value == pytest.approx((r - 1) / math.pi, abs=1e-9 * r)
    assert ts[0].value == pytest.approx(799 / math.pi, abs=1e-9)


def _hull_perimeter(points) -> float:
    """Perimeter of the convex hull of complex points (monotone chain)."""
    pts = sorted(set((p.real, p.imag) for p in points))

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


def test_characteristic_of_exponential_curves_matches_hull_perimeter():
    # T(r) of (1 : e^{c_1 z} : ...) is (r - 1)/(2 pi) times the perimeter of
    # the convex hull of {0, c_k} (Cauchy's formula for the mean width); the
    # kinks of log max_k |e^{c_k z}| sit at arbitrary angles, off any grid, and
    # both the closed form and the quadrature must find them
    rng = np.random.default_rng(20140101)
    radii = (2.5, 37.3, 250.1, 1000.7, 5000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(40):
            freqs, count = set(), rng.integers(1, 4)
            while len(freqs) < count:
                c = GaussRat(Fraction(int(rng.integers(-24, 25)), int(rng.integers(1, 5))),
                             Fraction(int(rng.integers(-24, 25)), int(rng.integers(1, 5))))
                if c and abs(c.re) <= 6 and abs(c.im) <= 6:
                    freqs.add(c)
            curve = EntireCurve([ExpPoly.const(1)] + [ExpPoly.exp(c) for c in freqs])
            perimeter = _hull_perimeter([0j] + [complex(c) for c in freqs])
            for r, t, quad in zip(radii, characteristic(curve, radii),
                                  _quadrature_t(curve, radii)):
                exact = (r - 1) * perimeter / (2 * math.pi)
                assert t.value == pytest.approx(exact, abs=1e-9 * r)
                assert quad == pytest.approx(exact, abs=1e-9 * r)


def test_characteristic_finds_a_dominance_arc_between_grid_points():
    # 10^-4 e^{cz} with |c| = 1 leads only where Re(cz) > log 10^4, an arc of
    # half-width alpha, cos alpha = log 10^4 / r, around the angle -arg c
    c = GaussRat(Fraction(3, 5), Fraction(4, 5))
    curve = EntireCurve((ExpPoly.const(1), ExpPoly.exp(c) * GaussRat(Fraction(1, 10**4))))
    r, level = 9.214, math.log(1e4)
    alpha = math.acos(level / r)
    centre = -math.atan2(4, 3)
    step = 2 * math.pi / 64
    assert 2 * alpha < step
    assert math.floor((centre - alpha) / step) == math.floor((centre + alpha) / step)
    exact = (r * math.sin(alpha) - alpha * level) / math.pi
    t, = characteristic(curve, (r,))
    assert t.value == pytest.approx(exact, abs=1e-13)
    assert _quadrature_t(curve, (r,)) == pytest.approx([exact], abs=1e-13)


def test_characteristic_finds_changes_of_leader_between_two_levels():
    # on |z| = 1, 1 - z^64 vanishes on the 64-point grid, where the row of 1 leads, and is 2
    # at each midpoint of it: every change of leader lies between the two levels' points.
    # The r = 1 mean is Cl_2(pi/3)/pi and, by Jensen, the r = 2 mean is 64 log 2
    curve = EntireCurve((ONE, ZPoly((1,) + (0,) * 63 + (-1,))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, = characteristic(curve, (2.0,))
    exact = 64 * math.log(2) - float(mpmath.clsin(2, mpmath.pi / 3) / mpmath.pi)
    assert t.value == pytest.approx(exact, abs=1e-12) and t.error <= 1e-9


def test_characteristic_finds_every_dominance_arc_on_a_sweep():
    # the same curve from r = 9.2104, where the arc is 0.0072 rad wide and the
    # trapezoid grids of the quadrature all miss it, to 9.3: T is read in closed form
    c = GaussRat(Fraction(3, 5), Fraction(4, 5))
    curve = EntireCurve((ExpPoly.const(1), ExpPoly.exp(c) * GaussRat(Fraction(1, 10**4))))
    level = math.log(1e4)
    radii = [float(r) for r in np.linspace(9.2104, 9.3, 91)]
    for r, t in zip(radii, characteristic(curve, radii)):
        alpha = math.acos(level / r)
        exact = (r * math.sin(alpha) - alpha * level) / math.pi
        assert abs(t.value - exact) <= 1e-9 * r, r


def test_closed_form_means_agree_with_the_quadrature():
    # 2-4 components a z^m e^{cz}, m <= 3, Gaussian-rational a and c: the closed form
    # and circle_averages agree within the sum of their stated errors, circle by circle
    rng = random.Random(38)
    gauss = lambda h, d: GaussRat(Fraction(rng.randint(-h, h), rng.randint(1, d)),
                                  Fraction(rng.randint(-h, h), rng.randint(1, d)))
    circles = 0
    while circles < 240:
        comps = [ExpPoly({gauss(12, 4): ZPoly((0,) * rng.randint(0, 3) + (gauss(9, 9) or 1,))})
                 for _ in range(rng.randint(2, 4))]
        try:
            curve = EntireCurve(comps)
        except DegeneracyError:             # z^m in every component
            continue
        radii = (1.0, rng.uniform(1.5, 4.0), rng.uniform(5.0, 30.0), rng.uniform(30.0, 200.0))
        rows = lambda zs: np.stack([comp.log_abs(zs) for comp in curve.components])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quad = circle_averages(rows, radii)
        sinusoids = nevanlinna._sinusoid_rows(curve.components)
        for r, res in zip(radii, quad):
            closed = nevanlinna._max_sinusoid_mean(sinusoids, r)
            assert closed.samples == 0 and closed.converged
            assert abs(closed.value - res.value) <= closed.error + res.error, (curve, r)
        circles += len(radii)


def test_one_term_curves_with_huge_coefficients(tmp_path, capsys):
    # log|10^400| is read from the exact integer, not from a float; |f_1| < |f_0|
    # nowhere below r = 400 log 10, so T = 0 exactly there, and past it T is the
    # arc integral of r cos(theta) - 400 log 10
    path = tmp_path / "curve.json"
    path.write_text('{"components": [{"terms": [{"poly": "1"}]}, '
                    '{"terms": [{"poly": "10^400", "exp_coef": "1"}]}]}')
    assert main(["characteristic", str(path), "--radii", "2,10,1000"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    level = 400 * math.log(10)
    alpha = math.acos(level / 1000)
    assert values[:2] == [0.0, 0.0]
    assert values[2] == pytest.approx((1000 * math.sin(alpha) - alpha * level) / math.pi,
                                      rel=1e-12)


def test_a_radius_grid_is_one_pass_and_bit_identical_to_one_radius_at_a_time(tmp_path, capsys):
    # smooth curves (1 : e^{cz} - b z) take the quadrature; the grid is one circle_averages
    # pass, each circle of which gives the float it gives alone
    radii = [2.0, 3.7, 11.25, 40.5, 97.0, 283.5]
    for c, b in (("1", 1), ("i", 2), ("-1", 3)):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"components": [
            {"terms": [{"poly": "1"}]},
            {"terms": [{"poly": "1", "exp_coef": c}, {"poly": f"-{b}z"}]}]}))
        grid = ["characteristic", str(path), "--radii", ",".join(map(repr, radii))]
        assert main(grid) == 0
        together = json.loads(capsys.readouterr().out)["values"]
        alone = []
        for r in radii:
            assert main(["characteristic", str(path), "--radii", repr(r)]) == 0
            alone += json.loads(capsys.readouterr().out)["values"]
        assert together == alone, (c, b)


def test_characteristic_normalization_and_domain():
    one, ten = characteristic(_exp_curve(), (1.0, 10.0))
    assert (one.value, one.error) == (0.0, 0.0) and one.converged
    assert 0.0 < ten.error < 1e-12 and ten.converged
    assert characteristic(_exp_curve(), ()) == ()
    for radii in ((0.5,), (2.0, 0.5), (math.nan,)):
        with pytest.raises(ValueError):
            characteristic(_exp_curve(), radii)
    const = EntireCurve((ONE, ZPoly((GaussRat(2, 1),))))
    assert abs(characteristic(const, (9.0,))[0].value) < 1e-12
    # a zero component adds nothing to the norm, wherever it stands
    padded = EntireCurve((ExpPoly.zero(), ExpPoly.const(1), ExpPoly.exp(1)))
    assert characteristic(padded, (10.0,))[0].value == pytest.approx(9 / math.pi, abs=1e-9)


X0, X1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
LINES = (X0, X1, X0 + X1)


@pytest.mark.parametrize("call, argument", [
    (lambda: characteristic(_exp_curve(), [math.inf]), "radii"),
    (lambda: smt_verify(_exp_curve(), LINES, Fraction(1, 2), [10.0, math.inf]), "radii"),
    (lambda: jensen_check(ExpPoly.exp(1) - 1, [math.inf]), "radii"),
    (lambda: defect_estimate(_exp_curve(), [X0], 60.0, grid_points=0), "grid_points"),
    (lambda: defect_estimate(_exp_curve(), [X0], math.inf), "r_max"),
    # one case per range the command line used to check as well
    (lambda: macaulay_resultant(LINES), "2 forms in 2 variables, got 3"),
    (lambda: macaulay_resultant((X0, X1 * X1)), r"degrees \(1, 2\)"),
    (lambda: power_certificate(LINES, 0), r"2 forms of one degree, got degrees \(1, 1, 1\)"),
    (lambda: power_certificate((X0, X1 * X1), 0), r"degrees \(1, 2\)"),
    (lambda: power_certificate((X0, X1), 2), "index must lie in 0..1, got 2"),
    (lambda: macaulay_resultant(()), r"forms in n\+1 variables, got none"),
    (lambda: power_certificate([], 0), "forms of one degree, got none"),
    (lambda: is_admissible(HypersurfaceFamily(1, [X0])), r"q >= n\+1, got q=1"),
    (lambda: build_filtration(HypersurfaceFamily(1, LINES), (0, 1), 1), r"subset.*\(0, 1\)"),
    (lambda: build_filtration(HypersurfaceFamily(1, LINES), (0,), -3), "level N=-3"),
    (lambda: compute_truncation_levels(0, 3, Fraction(1, 2), (1, 1, 1)), "n=0"),
    (lambda: compute_truncation_levels(1, 3, Fraction(0), (1, 1, 1)), "eps .*got 0"),
    (lambda: compute_truncation_levels(1, 3, Fraction(1, 2), (0, 1, 1)), r"degrees .*\(0, 1, 1\)"),
    (lambda: compute_truncation_levels(2, 2, Fraction(1, 2), (1, 1)), r"q >= n \+ 1, got q=2"),
    (lambda: wronskian(_exp_curve().components, (0,)), r"orders, .*got \(0,\)"),
    (lambda: wronskian(_exp_curve().components, (0, 0)), r"orders .*got \(0, 0\)"),
    (lambda: jensen_check(ZPoly(()), [2.0]), "zero function"),
    (lambda: jensen_check(ExpPoly.zero(), [2.0]), "zero function"),
    (lambda: jensen_check(Z - 3, [0.5]), "radii"),
    (lambda: characteristic(_exp_curve(), [0.5]), "radii"),
    (lambda: defect_estimate(_exp_curve(), [HPoly.coordinate(3, 0)], 60.0), "3 variables"),
    (lambda: defect_estimate(_exp_curve(), [X0], 60.0, level=0), "level .*got 0"),
    (lambda: smt_verify(_exp_curve(), LINES, Fraction(0), [10.0, 20.0]), "eps .*got 0"),
    (lambda: smt_verify(_exp_curve(), HypersurfaceFamily(2, [HPoly.coordinate(3, 0)]),
                        Fraction(1, 2), [10.0, 20.0]), "dimension 2"),
    (lambda: smt_verify(_exp_curve(), LINES, Fraction(1, 2), [1.0, 2.0]), "radii"),
    (lambda: EntireCurve((ExpPoly.zero(), ExpPoly.zero())), "components"),
    (lambda: divisor_bound_check(_exp_curve(), 5.0), "needs polynomial components"),
], ids=["characteristic", "smt_verify", "jensen_check", "defect_grid", "defect_rmax",
        "resultant_arity", "resultant_degrees", "certificate_arity", "certificate_degrees",
        "certificate_index", "resultant_empty", "certificate_empty", "admissible_q",
        "filtration_subset", "filtration_level", "bounds_n", "bounds_eps", "bounds_degrees",
        "bounds_q", "wronskian_count", "wronskian_distinct", "jensen_zero_ratfunc",
        "jensen_zero_exppoly", "jensen_radius", "characteristic_radius", "defect_dimension",
        "defect_level", "smt_eps", "smt_dimension", "smt_radius", "curve_all_zero",
        "divisor_bound_exponential"])
def test_entry_points_name_a_non_finite_or_empty_argument(call, argument):
    # an infinite radius once gave T = nan marked converged, an OverflowError or a
    # contour error, and an empty defect grid an IndexError; each other range is
    # checked here alone, and the command line passes the refusal on (exit 2)
    with pytest.raises(InputError, match=argument):
        call()


def test_characteristic_scaling_invariance():
    plain = EntireCurve((ONE, Z, Z * Z))
    scaled = EntireCurve((ONE * 7, Z * 7, Z * Z * 7))
    for a, b in zip(characteristic(scaled, (3.0, 12.0)), characteristic(plain, (3.0, 12.0))):
        assert a.value == pytest.approx(b.value, abs=1e-8)


# ---------------------------------------------------------------------------
# counting and Jensen


def test_counting_function_conventions():
    div = Divisor(points=((0.5 + 0j, 2), (3.0 + 0j, 1)), r=10.0)
    r = 6.0
    # |a| <= 1 contributes m log r; 1 < |a| <= r contributes m log(r/|a|)
    expect = 2 * math.log(r) + math.log(r / 3.0)
    assert counting_function(div, r) == pytest.approx(expect)
    assert counting_function(div, r, level=1) == pytest.approx(
        math.log(r) + math.log(r / 3.0))
    with pytest.raises(ValueError):
        counting_function(div, 0.5)
    with pytest.raises(ValueError):
        counting_function(div, 20.0)             # beyond the catalogued radius


def test_jensen_polynomial_and_rational():
    for phi in (Z, RatFunc(ZPoly((-2, 1)), ZPoly((3, 1)))):
        assert max(jensen_check(phi, (2.5, 5.0, 10.0))) < 1e-6
    assert jensen_check(ZPoly((-2, 1)), (2.0,))[0] < 1e-6     # zero on the circle
    assert jensen_check(ExpPoly.exp(1), (10.0,))[0] < 1e-6


@pytest.mark.parametrize("phi, r", [(ZPoly((-2, 1)), 2.0), (ZPoly((-1, 1)), 3.0),
                                    (RatFunc(ZPoly((-3, 1)), ZPoly((2, 1))), 2.0)],
                         ids=["zero-on-r", "zero-on-1", "pole-on-r"])
def test_jensen_counts_on_the_circles_it_integrates(phi, r):
    # a zero or pole on |z| = r or on |z| = 1 moves the circle of its mean; the count
    # is taken on the moved circles too, which leaves the quadrature error alone
    assert jensen_check(phi, (r,))[0] < 1e-12


def test_jensen_refuses_a_mean_that_does_not_converge():
    # the double zero and the pole of (z-1)^2/(z+1) lie on |z| = 1, and the moved circle
    # passes 4e-9 off them, where log|z^2 - 2z + 1| is -inf: no residual reads that mean
    phi = RatFunc(ZPoly((1, -2, 1)), ZPoly((1, 1)))
    for radii in ((2.0,), (1.0, 2.0)):
        with pytest.raises(NumericalFailure, match=r"on \|z\| = 1 did not converge"):
            jensen_check(phi, radii)


# ---------------------------------------------------------------------------
# wronskian and the divisor inequality


def test_wronskian_wrapper_and_scaling():
    assert wronskian((ONE, Z)) == ExpPoly.const(1)
    h = ExpPoly.exp(1) + ExpPoly.var()
    base = (ExpPoly.const(1), ExpPoly.var(), ExpPoly.var() ** 2)
    lhs = wronskian(tuple(h * f for f in base))
    assert lhs == h ** 3 * wronskian(base)
    assert wronskian((Z, Z)).is_zero()


def test_wronskian_custom_orders():
    w = wronskian((ONE, Z * Z), orders=(0, 2))
    assert w == ExpPoly.const(2)
    with pytest.raises(ValueError):
        wronskian((ONE, Z), orders=(1, 1))


def test_divisor_bound_on_conic():
    curve = EntireCurve((ONE, Z, Z * Z))
    rep = divisor_bound_check(curve, 2.0)
    assert rep.holds
    assert rep.p0 == 2
    assert len(rep.sites) == 1
    site, quot, cap = rep.sites[0]
    assert site == pytest.approx(0.0)
    assert quot == 3 and cap == 3


def test_divisor_bound_rejects_degenerate():
    with pytest.raises(DegeneracyError):
        divisor_bound_check(EntireCurve((ONE, Z, Z + ONE)), 2.0)   # W = 0


def test_divisor_bound_orders_are_exact_at_near_coincident_zeros():
    # zeros 1e-9 apart, closer than the zero finder separates: every order comes from
    # the exact gcd chain, not from matching float positions, so the bound, a theorem,
    # holds on every curve
    a = 1 + Fraction(1, 10 ** 9)
    l1, la = ZPoly((-1, 1)), ZPoly((-a, 1))
    checked = 0
    for i, j, k, l in itertools.product(range(4), repeat=4):
        for extra in ((), (ONE,), (Z,)):
            try:
                curve = EntireCurve((l1 ** i * la ** j, l1 ** k * la ** l) + extra)
                rep = divisor_bound_check(curve, 2.0)
            except ValueError:      # unreduced or dependent
                continue
            checked += 1
            assert rep.holds, curve
    assert checked == 490
    rep = divisor_bound_check(EntireCurve((ONE, l1 ** 3, la ** 3)), 2.0)
    assert rep.holds and len(rep.sites) == 2
    assert sorted(s.real for s, _, _ in rep.sites) == pytest.approx([1.0, float(a)], abs=1e-12)
    assert [(quot, cap) for _, quot, cap in rep.sites] == [(2, 2), (2, 2)]


# ---------------------------------------------------------------------------
# targets


def test_normalize_target_prefers_constant_lead():
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    qf = x0 * 2 + x1 * 3
    unit = normalize_target(qf)
    assert unit.coeffs[(1, 0)] == GaussRat(1)
    assert unit.coeffs[(0, 1)] == GaussRat(Fraction(3, 2))


def test_compose_target_splits_numerator_denominator():
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    e, d = compose_target(x0 + x1, _exp_curve())
    assert e == ExpPoly.const(1) + ExpPoly.exp(1)
    assert d == ONE
    mover = HPoly.monomial(2, (0, 1), RatFunc(ONE, ZPoly((10, 1))))
    e2, d2 = compose_target(x0 + mover, _exp_curve())
    assert d2 == ZPoly((10, 1))
    assert e2 == ExpPoly.poly(ZPoly((10, 1))) + ExpPoly.exp(1)


def test_quotient_zeros_cancel_exactly():
    # (1 : (z-1)^k e^z) against x0 + x1/(z-1)^k: the quotient is 1 + e^z,
    # while E has a zero of order k at 1 that D cancels
    x0 = HPoly.coordinate(2, 0)
    for k in range(1, 6):
        zk = ZPoly((-1, 1)) ** k
        curve = EntireCurve((ExpPoly.const(1), ExpPoly.poly(zk) * ExpPoly.exp(1)))
        target = x0 + HPoly.monomial(2, (0, 1), RatFunc(ONE, zk))
        div = quotient_zeros(*compose_target(target, curve), 10.0)
        assert [m for _, m in div.points] == [1, 1, 1, 1]
        got = sorted(a.imag for a, _ in div.points)
        assert got == pytest.approx([-3 * math.pi, -math.pi, math.pi, 3 * math.pi], abs=1e-9)
        assert all(abs(a.real) < 1e-9 for a, _ in div.points)
    # (e^z - 1)/z: the zero of E at the origin cancels against D's
    div = quotient_zeros(ExpPoly.exp(1) - 1, Z, 10.0)
    assert [m for _, m in div.points] == [1, 1]
    assert sorted(a.imag for a, _ in div.points) == pytest.approx([-2 * math.pi, 2 * math.pi])
    # a double zero at the origin over a simple pole leaves a simple zero there
    div = quotient_zeros((ExpPoly.exp(1) - 1) * (ExpPoly.exp(1) - 1), Z, 5.0)
    assert [(round(abs(a), 9), m) for a, m in div.points] == [(0.0, 1)]


def test_quotient_zeros_cancels_denominator():
    e = ExpPoly.poly(ZPoly((-2, 1)) * ZPoly((3, 1)))
    div = quotient_zeros(e, ZPoly((-2, 1)), 5.0)
    assert sum(m for _, m in div.points) == 1
    assert div.points[0][0] == pytest.approx(-3.0)
    with pytest.raises(DegeneracyError):
        quotient_zeros(ExpPoly.zero(), ONE, 5.0)


def _degree_loop(curve, top_degree, moving):
    """Reference: the first degree <= top_degree at which the monomials in
    the components are linearly dependent over C(z) when moving, else over
    C; None when there is none.  Monomials are expanded as sparse sums of
    a z^k e^{cz}, keyed by (c times the common denominator, k) in ints; a
    relation holds frequency by frequency, so the rows are one per frequency
    (entries in Q(i)[z]) over C(z), one per frequency and power of z over C."""
    scale = math.lcm(*(c.d for comp in curve.components for c in comp.terms))
    comps = [{(c.a * scale // c.d, c.b * scale // c.d, k): a
              for c, p in comp.terms.items() for k, a in enumerate(p.coeffs)}
             for comp in curve.components]
    prev = {(0,) * (curve.n + 1): {(0, 0, 0): 1}}
    for e in range(1, top_degree + 1):
        exps = monomials(curve.n, e)
        mons = []               # each is one of degree e - 1 times a component
        for exp in exps:
            i = next(k for k, m in enumerate(exp) if m)
            prod: dict = {}
            for (x, y, k), a in prev[exp[:i] + (exp[i] - 1,) + exp[i + 1:]].items():
                for (u, v, l), b in comps[i].items():
                    prod[x + u, y + v, k + l] = prod.get((x + u, y + v, k + l), 0) + a * b
            mons.append(prod)
        rows: dict = {}
        for col, mono in enumerate(mons):
            for (x, y, k), a in mono.items():
                if a and moving:
                    rows.setdefault((x, y), {}).setdefault(col, {})[k] = a
                elif a:
                    rows.setdefault((x, y, k), {})[col] = a
        if moving:
            rows = {c: {col: RatFunc(ZPoly([p.get(k, 0) for k in range(max(p) + 1)]))
                        for col, p in row.items()} for c, row in rows.items()}
        if linalg.certified_rank(list(rows.values()), len(mons))[0] < len(mons):
            return e
        prev = dict(zip(exps, mons))
    return None


def _seeded_curves(count, seed):
    """Reduced curves in P^2 with one to three terms per component, small
    Gaussian-integer frequencies, and some coefficients linear in z; one in
    five is (f : g : f + g) and one in five (1 : f : f^2), with relations the
    column count cannot see."""
    rng = np.random.default_rng(seed)
    freqs = [GaussRat(a, b) for a in (-1, 0, 1, 2) for b in (-1, 0, 1)]

    def component():
        terms = {}
        for _ in range(rng.integers(1, 4)):
            if rng.random() < 0.3:              # a z + b, zero at z = 0 when b = 0
                p = ZPoly((int(rng.choice((0, 1, -1, 2))), 1))
            else:
                p = ZPoly((int(rng.choice((1, -1, 2))),))
            terms[freqs[rng.integers(len(freqs))]] = p
        return ExpPoly(terms)

    curves = []
    while len(curves) < count:
        f, g, h = component(), component(), component()
        shape = rng.random()
        comps = (f, g, f + g) if shape < 0.2 else (1, f, f * f) if shape < 0.4 else (f, g, h)
        try:
            curves.append(EntireCurve(comps))
        except (DegeneracyError, ValueError):
            continue
    return curves


def test_nondegeneracy_agrees_with_the_degree_loop():
    # 100 curves, each over C and over C(z): "all" exactly where no relation
    # of degree <= 4 exists, degenerate exactly where one does
    verdicts = []
    for curve in _seeded_curves(100, 20261018):
        for moving in (False, True):
            try:
                got = nondegeneracy_check(curve, moving=moving)
            except DegeneracyError:
                got = None
            want = _degree_loop(curve, 4, moving)
            assert (got == "all") == (want is None), (curve, moving, want)
            verdicts.append(got)
    assert verdicts.count(None) >= 50 and verdicts.count("all") >= 100


def test_nondegeneracy_screen():
    assert nondegeneracy_check(_exp_curve()) == "all"
    with pytest.raises(DegeneracyError) as exc:
        nondegeneracy_check(
            EntireCurve((ExpPoly.const(1), ExpPoly.exp(1), ExpPoly.exp(2))))
    assert "transcendence degree at most 1 < n = 2 over C" in str(exc.value)


def test_nondegeneracy_is_exact_where_sampling_lost_precision():
    # a float rank of sampled monomials saw relations, and there are: x0 x2^60
    # = x1^61, and e^{z/100}, e^{(1/50 + 1/10^6) z} have commensurable rates
    for c1, c2 in ((60, 61), (Fraction(1, 100), Fraction(1, 50) + Fraction(1, 10 ** 6))):
        curve = EntireCurve((ExpPoly.const(1), ExpPoly.exp(c1), ExpPoly.exp(c2)))
        for moving in (False, True):
            with pytest.raises(DegeneracyError, match="transcendence degree at most 1"):
                nondegeneracy_check(curve, moving=moving)


def test_degenerate_curves_fail_smt():
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    for c1, c2 in ((2, 5), (60, 61)):   # x1^5 = x0^3 x2^2, x0 x2^60 = x1^61
        curve = EntireCurve((ExpPoly.const(1), ExpPoly.exp(c1), ExpPoly.exp(c2)))
        with pytest.raises(DegeneracyError):
            smt_verify(curve, (x0, x1, x2, x0 + x1 + x2), Fraction(1, 2), [10.0, 20.0])


def test_grid_decides_a_relation_the_column_count_allows():
    # three columns (f, theta_1 f, theta_2 f) for three rows, but x2 = x1^2 / x0
    s = ExpPoly.exp(1) + ExpPoly.exp(GaussRat(0, 1))
    for curve in (EntireCurve((ExpPoly.const(1), s, s * s)),
                  EntireCurve((ExpPoly.const(1), s, s + 1))):
        for moving in (False, True):
            with pytest.raises(DegeneracyError, match="Nullstellensatz grid over C"):
                nondegeneracy_check(curve, moving=moving)


def test_nondegeneracy_over_c_and_over_cz():
    ez, z = ExpPoly.exp(1), ExpPoly.var()
    curves = (EntireCurve((ExpPoly.const(1), ez, z * ez)),         # z x1 - x2 = 0
              EntireCurve((ez - 1, ExpPoly.exp(2) + z, ExpPoly.const(1))))
    for curve in curves:
        assert nondegeneracy_check(curve) == "all"
        with pytest.raises(DegeneracyError):
            nondegeneracy_check(curve, moving=True)
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    mover = HPoly.monomial(3, (0, 0, 1), RatFunc(Z, ZPoly((10, 1))))
    with pytest.raises(DegeneracyError) as exc:
        smt_verify(curves[0], (x0, x1, x2, x0 + x1 + mover), Fraction(1, 2),
                   [10.0, 20.0])
    assert "C(z)" in str(exc.value)
    eiz = ExpPoly.exp(GaussRat(0, 1))
    # the second has rank 2 at z = 0 and at z = 1, so the grid must vary z over C(z) too
    for curve in (EntireCurve((ExpPoly.const(1), ez, eiz)),
                  EntireCurve((ExpPoly.const(1), z * ez, (z - 1) * eiz))):
        assert nondegeneracy_check(curve) == nondegeneracy_check(curve, moving=True) == "all"


# ---------------------------------------------------------------------------
# defects and the inequality harness


def test_defect_extremes():
    fe = _exp_curve()
    x0 = HPoly.coordinate(2, 0)
    x1 = HPoly.coordinate(2, 1)
    omitted, mixed = defect_estimate(fe, (x0, x0 + x1), 40.0)
    assert omitted == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= mixed < 0.1
    line = EntireCurve((ONE, Z))
    assert abs(defect_estimate(line, (x1,), 40.0)[0]) < 1e-9
    assert defect_estimate(line, (), 40.0) == []


def test_defects_of_many_forms_are_each_forms_alone():
    # T is computed once for all the forms of a call, and each form's defect is the very
    # float it gets alone: on the survey's curves against the coordinates and their sum,
    # and on (1 : e^z) against the command line's fixed and moving lines
    one, z, ez = ExpPoly.const(1), ExpPoly.var(), ExpPoly.exp(1)
    plane = lambda coefs: HPoly(len(coefs), 1, {tuple(int(i == j) for i in range(len(coefs))): c
                                                for j, c in enumerate(coefs) if c})
    cases = [(EntireCurve((one, z)), [(1, 0), (0, 1), (1, 1)]),
             (EntireCurve((one, z, z * z)), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
             (EntireCurve((one, ez)), [(1, 0), (0, 1), (1, 1), (1, -2), (1, GaussRat(3, 1)),
                                       (1, RatFunc(ZPoly((0, 1)), ZPoly((10, 1))))]),
             (EntireCurve((one, ez - z)), [(1, 0), (0, 1), (1, 1)])]
    for curve, coefs in cases:
        forms = [plane(c) for c in coefs]
        for r_max, level, grid in ((60.0, None, 12), (30.0, 1, 5)):
            together = defect_estimate(curve, forms, r_max, level, grid)
            alone = [defect_estimate(curve, (qf,), r_max, level, grid)[0] for qf in forms]
            assert together == alone, (curve, r_max)


def test_input_obstruction_and_numerical_failure_are_told_apart():
    # each failure class has a base of its own in the exact layer, so a library caller
    # tells them apart by `except InputError`, `except Obstruction` and
    # `except NumericalFailure`, as the command line's exit codes do
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    with pytest.raises(InputError) as exc:
        defect_estimate(_exp_curve(), (x0, x1, x0 + x1), r_max=1.5)
    assert not isinstance(exc.value, Obstruction)
    with pytest.raises(Obstruction, match="z = 0") as exc:
        EntireCurve((ExpPoly.exp(1) - 1, ExpPoly.var()))
    assert isinstance(exc.value, ValueError) and not isinstance(exc.value, InputError)
    y0, y1, y2 = (HPoly.coordinate(3, k) for k in range(3))
    shared = HypersurfaceFamily(2, (y0 * y1, y0 * y2, y1 * y2))     # the first two share y0
    with pytest.raises(Obstruction, match=r"\(is the family admissible\?\)"):
        build_filtration(shared, (0, 1), 4)
    assert issubclass(ContourThroughZero, NumericalFailure)
    assert not issubclass(ContourThroughZero, (InputError, Obstruction))


def test_profile_must_grow():
    # a falling T is a numerical failure, for T is nondecreasing; a grid that does not
    # increase is a bad argument
    NevanlinnaProfile((2.0, 4.0), (1.0, 2.0))
    with pytest.raises(NumericalFailure):
        NevanlinnaProfile((2.0, 4.0), (2.0, 1.0))
    with pytest.raises(ValueError):
        NevanlinnaProfile((4.0, 2.0), (1.0, 2.0))


def test_smt_fixed_targets():
    fe = _exp_curve()
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    radii = [float(r) for r in np.linspace(10.0, 40.0, 8)]
    rep = smt_verify(fe, (x0, x1, x0 + x1), Fraction(1, 2), radii)
    assert rep.holds_everywhere and rep.holds_eventually
    assert rep.r0 == 10.0
    assert rep.violating_measure == 0.0
    assert all(t.truncation == 19 for t in rep.targets)
    assert rep.defect_sum <= 2.1                 # deficiency budget is n+1 = 2
    assert min(rep.margins) > 0.9


def test_smt_moving_target():
    fe = _exp_curve()
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    mover = HPoly.monomial(2, (0, 1), RatFunc(ONE, ZPoly((10, 1))))
    radii = [float(r) for r in np.linspace(10.0, 40.0, 6)]
    rep = smt_verify(fe, (x0, x1, x0 + mover), Fraction(1, 2), radii)
    assert not rep.fixed
    assert rep.holds_everywhere
    assert rep.level_note is None                # counts are the truncated counts
    # slow movement is a proved fact, not a sampled ratio: a moving report exists only
    # for a curve nondegenerate over C(z), so T_f(r)/log r -> infinity while each
    # rational coefficient has T = O(log r); every curve whose T grows like log r is
    # refused
    assert "coeff_growth" not in {f.name for f in dataclasses.fields(rep.targets[2])}
    rng = random.Random(7)
    log_growth = [EntireCurve((ExpPoly.exp(1), ExpPoly.poly(ZPoly((3, 1))) * ExpPoly.exp(1))),
                  EntireCurve((ONE, ZPoly((1, 1)) ** 2))]
    while len(log_growth) < 8:
        c = GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))
        p0, p1 = (ZPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) for _ in "01")
        try:
            log_growth.append(EntireCurve(tuple(ExpPoly({c: p}) for p in (p0, p1))))
        except ValueError:          # a zero, unreduced or vanishing draw
            continue
    for curve in log_growth:
        with pytest.raises(DegeneracyError, match=re.escape("C(z)")):
            smt_verify(curve, (x0, x1, x0 + mover), Fraction(1, 2), radii)


BENCH_GRID = [float(r) for r in np.linspace(10.0, 50.0, 20)]


def _benchmark_moving_report():
    # (1 : e^z) with x0, x1 and x0 + z/(z+10) x1, a moving op of the smt benchmark
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    mover = HPoly.monomial(2, (0, 1), RatFunc(Z, ZPoly((10, 1))))
    return smt_verify(_exp_curve(), (x0, x1, x0 + mover), Fraction(1, 2), BENCH_GRID)


def _default_limit_repr(rep):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        return repr(rep)
    finally:
        sys.set_int_max_str_digits(limit)


def test_moving_levels_are_reported_by_their_size():
    # the moving chain's levels run to 12,367 digits; every multiplicity lies
    # under the levels' floors, so they are never built
    rep = _benchmark_moving_report()
    chain = compute_truncation_levels(1, 3, Fraction(1, 2), (1, 1, 1))
    assert chain.materialized and chain.level.bit_length() == 41080
    assert rep.level_note is None
    for target, log10, level in zip(rep.targets, chain.truncation_log10, chain.truncations):
        assert target.truncation is None and target.truncation_binds is False
        assert abs(target.truncation_log10 - log10) <= 1e-9
        div = quotient_zeros(*compose_target(target.form, _exp_curve()), 50.0 * (1 + 1e-9))
        assert target.counts == tuple(counting_function(div, r, level) for r in BENCH_GRID)
    assert _default_limit_repr(rep).count("truncation=None") == 3


def test_moving_smt_builds_no_level(monkeypatch):
    budgets, ks = [], []
    bound_t, comb = bounds.bound_t, bounds.comb

    def spy_bound_t(*args):
        out = bound_t(*args)
        budgets.append((args[-1], out[:2]))
        return out

    monkeypatch.setattr(bounds, "bound_t", spy_bound_t)
    monkeypatch.setattr(bounds, "comb", lambda n, k: ks.append(k) or comb(n, k))
    _benchmark_moving_report()
    assert budgets == [(REPORT_DIGIT_BUDGET, (None, None))]
    assert ks and max(ks) == 1          # C(N+n, n) and C(q, n); never C(B+p_0, B-1)


def test_a_multiplicity_past_its_floor_builds_the_level(monkeypatch):
    plain = _benchmark_moving_report()
    monkeypatch.setattr(bounds.BoundReport, "truncation_floors",
                        property(lambda self: self.truncations or (0,) * self.q))
    rep = _benchmark_moving_report()
    assert [t.truncation.bit_length() for t in rep.targets] == [41080] * 3
    assert [t.truncation_binds for t in rep.targets] == [False] * 3
    assert [t.counts for t in rep.targets] == [t.counts for t in plain.targets]
    assert rep.margins == plain.margins and rep.level_note is None
    assert _default_limit_repr(rep).count("truncation=<int of 12367 digits>") == 3
    # a level too long even for the default budget: counted whole, and said so
    monkeypatch.setattr(bounds, "DEFAULT_DIGIT_BUDGET", 100)
    rep = _benchmark_moving_report()
    assert [t.truncation for t in rep.targets] == [None] * 3
    assert [t.truncation_binds for t in rep.targets] == [False, False, None]
    assert [t.counts for t in rep.targets] == [t.counts for t in plain.targets]
    assert "counting untruncated" in rep.level_note


def test_smt_rejects_bad_input():
    fe = _exp_curve()
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    with pytest.raises(AdmissibilityError):
        smt_verify(fe, (x0, x0 + x1, x0 + x1), Fraction(1, 2), [10.0, 20.0])
    with pytest.raises(ValueError):
        smt_verify(fe, (x0, x1, x0 + x1), Fraction(-1, 2), [10.0, 20.0])
    with pytest.raises(ValueError):
        smt_verify(fe, (x0, x1, x0 + x1), Fraction(1, 2), [10.0])


def test_smt_detects_algebraic_degeneracy():
    squares = EntireCurve((ExpPoly.const(1), ExpPoly.exp(1), ExpPoly.exp(2)))
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    coords = (x0, x1, x2, x0 + x1 + x2)
    with pytest.raises(DegeneracyError):
        smt_verify(squares, coords, Fraction(1, 2), [10.0, 20.0])
