import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nevlab import quadrature
from nevlab.expfunc import ExpPoly
from nevlab.fields import GaussRat
from nevlab.quadrature import QuadResult, circle_averages


def test_mean_value_property_of_log_modulus():
    # average of log|z - a| over |z| = r is log r when |a| < r
    for a, r in ((0.5 + 0.2j, 2.0), (1.5j, 3.0), (0.0, 1.5)):
        res = circle_averages(lambda zs: np.log(np.abs(zs - a)), (r,))[0]
        assert res.converged
        assert res.value == pytest.approx(math.log(r), abs=1e-9)


def test_outside_point_average_is_log_modulus():
    a = 4.0 + 3.0j       # |a| = 5
    res = circle_averages(lambda zs: np.log(np.abs(zs - a)), (2.0,))[0]
    assert res.value == pytest.approx(math.log(5.0), abs=1e-9)


def test_constant_integrand_converges_immediately():
    res = circle_averages(lambda zs: np.full(zs.shape, 7.25), (10.0,))[0]
    assert res.value == 7.25
    assert res.samples == 128          # one doubling to confirm


@pytest.mark.parametrize("values, want", [
    # the last two sums agree, the correction before within the target: a quarter of it
    ((1 + 2.0 ** -31, 1 - 2.0 ** -31, 1.0), QuadResult(1.0, 2.0 ** -33, 256, True)),
    # the last three sums agree, after a correction beyond the target: the rounding floor
    ((1 + 2.0 ** -20, 1 - 2.0 ** -20, 1.0), QuadResult(1.0, 1e-15, 512, True)),
    # two equal corrections within the target, no order to extrapolate: the last one
    ((1.0, 1 + 2.0 ** -30, 1 + 3 * 2.0 ** -31, 1.0),
     QuadResult(1 + 2.0 ** -30, 2.0 ** -31, 256, True)),
], ids=["d2=0", "d1=d2=0", "d1=d2"])
def test_every_trapezoid_stop(values, want):
    # an integrand constant on the points each trapezoid level adds, values[k] on
    # level k and the last value from there on, reaches each exit of _stop at target 1e-9
    levels = []

    def fn(zs):
        levels.append(1)
        return np.full(zs.shape, values[min(len(levels), len(values)) - 1])

    assert circle_averages(fn, (1.0,))[0] == want


def test_vectorized_path_matches_scalar():
    # the quarter-turn grid against a plain fsum over the same n points
    def scalar(z):
        return math.cos(z.real) * math.exp(-abs(z))

    def batch(zs):
        return np.cos(zs.real) * np.exp(-np.abs(zs))

    b = circle_averages(batch, (3.0,))[0]
    n = b.samples
    a = math.fsum(scalar(3.0 * cmath.exp(2j * math.pi * k / n)) for k in range(n)) / n
    assert a == pytest.approx(b.value, abs=1e-10)
    assert b.converged


def test_target_controls_refinement():
    fn = lambda zs: np.abs(zs.real) ** 1.5
    coarse = circle_averages(fn, (1.0,), target=1e-3)[0]
    fine = circle_averages(fn, (1.0,), target=1e-10)[0]
    assert fine.samples >= coarse.samples
    assert fine.error <= 1e-10 or not fine.converged


def test_cap_stops_runaway(monkeypatch):
    # a discontinuous integrand will not converge; the cap must end it
    fn = lambda zs: np.where(zs.real > 0.99, 1.0, 0.0)
    res = circle_averages(fn, (1.0,), target=1e-14, cap=1 << 10)[0]
    assert isinstance(res, QuadResult)
    assert not res.converged
    assert res.samples <= 1 << 10


def _trapezoid(fn, r, target=1e-9, start=64, cap=1 << 20):
    """Doubling trapezoid sums with Richardson stops, written out plainly:
    circle_averages must give the same floats wherever one row leads."""
    def batch(n, offset):
        q = n // 4
        w = r * np.exp(1j * (2 * math.pi * (np.arange(q) + offset) / n))
        return float(np.sum(fn(np.concatenate((w, 1j * w, -w, -1j * w)))))

    n = start
    sums = [batch(n, 0.0) / n]
    while n < cap:
        mid = batch(n, 0.5)
        n *= 2
        sums.append((sums[-1] + mid / (n // 2)) / 2)
        if len(sums) >= 3:
            d1, d2 = sums[-2] - sums[-3], sums[-1] - sums[-2]
            if d2 == 0.0:
                if d1 == 0.0:
                    return sums[-1], n
                if abs(d1) <= target:
                    return sums[-1], n
            else:
                ratio = abs(d1 / d2)
                if ratio > 1.5:
                    correction = d2 / (2 ** math.log2(ratio) - 1)
                    if abs(correction) <= target:
                        return sums[-1] + correction, n
                if abs(d2) <= target and abs(d1) <= 4 * target:
                    return sums[-1], n
        elif abs(sums[-1] - sums[-2]) <= target * 0.25:
            return sums[-1], n
    return sums[-1], n


_SMOOTH = (
    (lambda zs: np.log(np.abs(zs - (0.5 + 0.2j))), 2.0, 1e-9),
    (lambda zs: np.log(np.abs(zs - 1.5j)), 3.0, 1e-9),
    (lambda zs: np.log(np.abs(zs - (4.0 + 3.0j))), 2.0, 1e-9),
    (lambda zs: np.log(np.abs(zs - 1.95)), 2.0, 1e-9),       # zero near the circle
    (lambda zs: np.log(np.abs(zs - 1.999)), 2.0, 1e-9),      # levels wider than a group
    (lambda zs: np.cos(zs.real) * np.exp(-np.abs(zs)), 3.0, 1e-9),
    (lambda zs: np.abs(zs.real) ** 1.5, 1.0, 1e-3),
    (lambda zs: np.abs(zs.real) ** 1.5, 1.0, 1e-10),
)


def test_one_row_is_the_plain_trapezoid_bit_for_bit():
    for fn, r, target in _SMOOTH:
        value, samples = _trapezoid(fn, r, target)
        res = circle_averages(fn, (r,), target)[0]
        assert (res.value, res.samples) == (value, samples)


def test_a_row_that_leads_everywhere_is_the_plain_trapezoid():
    # the other rows stay below the first on every grid: nothing is split
    for fn, r, target in _SMOOTH:
        value, samples = _trapezoid(fn, r, target)

        def stacked(zs):
            row = fn(zs)
            return np.stack((row - 1.0, row, row - 3.0))

        res = circle_averages(stacked, (r,), target)[0]
        assert (res.value, res.samples) == (value, samples)


def test_kinked_maximum_is_split_at_its_breakpoints():
    # max(x, 0) on |z| = r has kinks at +-i r, on every grid, where doubling
    # trapezoid sums converge only algebraically; the mean is r/pi
    for r in (1.0, 3.7, 250.1):
        res = circle_averages(lambda zs: np.stack((zs.real, np.zeros(zs.shape))), (r,))[0]
        assert res.converged
        assert res.value == pytest.approx(r / math.pi, abs=1e-12 * r)
        assert res.error <= 1e-9
        assert res.samples < 1000
    # max(x cos t + y sin t, 0.3 r): an arc led by a tilted row, kinks off the grid
    t, r = 0.123, 5.0
    res = circle_averages(lambda zs: np.stack((
        zs.real * math.cos(t) + zs.imag * math.sin(t), np.full(zs.shape, 0.3 * r))), (r,))[0]
    alpha = math.acos(0.3)
    exact = 0.3 * r + r * (math.sin(alpha) - alpha * 0.3) / math.pi
    assert res.value == pytest.approx(exact, abs=1e-12 * r)


def test_a_row_that_leads_every_new_midpoint_is_split():
    # on |z| = 1, z^(64 m) is 1 on the 64-point grid, where the first row leads, and -1 at
    # each of its midpoints, where the second does: the midpoints alone show no change of
    # leader, and the points between them, read again, give two changes per midpoint
    clausen = float(mpmath.clsin(2, mpmath.pi / 3) / mpmath.pi)
    for m in (1, 3):
        fn = lambda zs: np.stack((np.zeros(zs.shape), -(zs ** (64 * m)).real))
        res = _counted_once(fn, (1.0,))[0]
        assert res.converged and res.value == pytest.approx(1 / math.pi, abs=1e-12)
        # log|1 - e^{i phi}| > 0 for pi/3 < phi < 5pi/3: the mean is Cl_2(pi/3) / pi
        fn = lambda zs: np.stack((np.zeros(zs.shape), np.log(np.abs(1 - zs ** (64 * m)))))
        with np.errstate(divide="ignore"):                 # 1 - z^(64 m) = 0 on the grid
            res = _counted_once(fn, (1.0, 2.0))[0]
        assert res.converged and res.error <= 1e-9
        assert res.value == pytest.approx(clausen, abs=1e-12)
    # z^n for n = 128 and 1024 splits on the level of width n, whose earlier points are
    # read again as one level: the max of -Re z^n and a small row near 0 has mean near 1/pi
    for n in (128, 1024):
        fn = lambda zs: np.stack((0.01 * np.log(np.abs(zs - 0.99)), -(zs ** n).real))
        res = _counted_once(fn, (1.0,))[0]
        assert res.converged and res.error <= 1e-9
        assert res.value == pytest.approx(1 / math.pi, abs=1e-4)


def test_kinked_integrand_at_the_cap_is_not_converged():
    # -sqrt|x| leads around x = 0 and is not smooth there: halving the arcs
    # cannot reach 1e-12 within 4096 evaluations
    fn = lambda zs: np.stack((-np.sqrt(np.abs(zs.real)), np.full(zs.shape, -0.9)))
    res = circle_averages(fn, (1.0,), target=1e-12, cap=1 << 12)[0]
    assert not res.converged
    assert res.samples <= 1 << 12
    assert 1e-12 < res.error < 1e-3


@pytest.mark.parametrize("case", ["cap", "nan"])
def test_a_split_circle_that_cannot_be_bracketed_is_refused(case):
    # a circle whose first level shows a second leading row is refused, with an infinite
    # error, when bracketing its changes of leader would pass the cap, and when its rows
    # are NaN, so that no pair of neighbours shows two leaders
    seen = []
    if case == "cap":
        fn = lambda zs: seen.append(zs) or np.stack((zs.real, np.zeros(zs.shape)))
        res = circle_averages(fn, (1.0,), cap=100)[0]
        assert res.samples == 64 and len(seen) == 1
        assert res.value == np.mean(np.maximum(seen[0].real, 0.0))
    else:
        fn = lambda zs: np.where(zs.imag > 0, np.nan, np.stack((np.zeros(zs.shape),
                                                                np.full(zs.shape, -1.0))))
        res = circle_averages(fn, (1.0,))[0]
    assert res.converged is False and res.error == math.inf


def _arc(zs):
    """Two rows: a tilted plane leads on an arc of half-width about 0.6/|z|, centred
    3e-4 off a point of the 512-point grid and off every coarser grid by 0.012 or
    more, and the other row's trapezoid sums need over 1000 points; so the arc
    shows first on the 64-point grid for |z| < 16, on the 128-point one for
    16 < |z| < 50, and on the 512-point one beyond, whose 256 new points bracket it."""
    u = np.exp(1j * (11 * 2 * math.pi / 512 + 3e-4))
    rho = np.abs(zs)
    return np.stack(((zs / u).real, rho * np.cos(0.6 / rho) + 0.05 * (
        np.log(np.abs(1 + zs / (1.01 * rho * u))) - math.log(1 + 1 / 1.01))))


def _same_as_alone(fn, radii, batch, target=1e-9, cap=1 << 20):
    # a circle of a pass gives the very result it gives alone: each arc is summed
    # row by row, whatever the other circles of the pass
    for r, got in zip(radii, batch, strict=True):
        assert got == circle_averages(fn, (r,), target, cap)[0], r


def _counted_once(fn, radii, *args):
    # the points fn receives add up to the samples of the pass: each is counted on
    # its circle, the earlier points that a split circle reads again too
    sizes = []
    batch = circle_averages(lambda zs: sizes.append(zs.size) or fn(zs), radii, *args)
    assert sum(sizes) == sum(res.samples for res in batch)
    return batch


def test_a_radius_grid_in_one_pass_is_each_radius_alone(monkeypatch):
    levels, batches = [], []
    split, arcs = quadrature._split, quadrature._arcs

    def split_spy(evaluate, r, rows, before, offset, spent, *args):
        levels.append(int(math.log2(spent // quadrature.FIRST_GRID)) + 1)
        return split(evaluate, r, rows, before, offset, spent, *args)

    def arcs_spy(evaluate, parts, *args):
        batches.append(len(parts))
        return arcs(evaluate, parts, *args)

    monkeypatch.setattr(quadrature, "_split", split_spy)
    monkeypatch.setattr(quadrature, "_arcs", arcs_spy)
    radii = (2.0, 30.0, 100.0, 2.0, 45.0, 10.0, 150.0)
    batch = _counted_once(_arc, radii)
    # every circle splits after 1, 2 or 4 trapezoid levels, and the circles that split
    # on one level go to _arcs in one batch
    assert levels == [1, 1, 1, 2, 2, 4, 4] and batches == [3, 2, 2]
    assert batch[0] == batch[3]                     # a repeated radius
    _same_as_alone(_arc, radii, batch)

    rng = random.Random(7)
    kinked = lambda zs: np.stack((zs.real, np.zeros(zs.shape)))
    for _ in range(6):
        radii = [rng.choice((1.0, 3.7, 250.1)) * rng.uniform(0.5, 2.0)
                 for _ in range(rng.randint(1, 6))]
        radii += rng.sample(radii, 1)
        for fn in (_arc, kinked):
            _same_as_alone(fn, radii, circle_averages(fn, radii))


def test_one_row_and_leading_row_circles_in_one_pass_are_bit_for_bit():
    # the trapezoid path sums each circle's own row: nothing rounds differently
    for fn, r, target in _SMOOTH:
        radii = (r, 0.7 * r, 1.3 * r, r)
        for f in (fn, lambda zs: np.stack((fn(zs) - 1.0, fn(zs)))):
            batch = circle_averages(f, radii, target)
            assert batch == tuple(circle_averages(f, (rr,), target)[0] for rr in radii)
            assert (batch[0].value, batch[0].samples) == _trapezoid(fn, r, target)


def test_no_point_is_evaluated_twice():
    one, z = ExpPoly.const(1), ExpPoly.var()
    grid = (1.0, *np.linspace(2.0, 300.0, 60).tolist())
    for comps in ((one, ExpPoly.exp(1) - z, ExpPoly.exp(GaussRat(0, 1))),   # kinked
                  (one, ExpPoly.exp(-1) - 3 * z)):                           # smooth
        _counted_once(lambda zs: np.stack([comp.log_abs(zs) for comp in comps]), grid)


def test_a_capped_kinked_pass_and_bad_radii():
    fn = lambda zs: np.stack((-np.sqrt(np.abs(zs.real)), np.full(zs.shape, -0.9)))
    radii = (1.0, 0.5, 1.7, 1.0)
    batch = _counted_once(fn, radii, 1e-12, 1 << 12)
    assert not any(res.converged for res in batch)
    assert all(res.samples <= 1 << 12 for res in batch)
    _same_as_alone(fn, radii, batch, target=1e-12, cap=1 << 12)
    assert circle_averages(fn, ()) == ()
    for radii in ((0.0,), (1.0, 0.0), (-2.0,), (3.0, 1.0, -1e-300)):
        with pytest.raises(ValueError):
            circle_averages(fn, radii)


def test_a_split_circle_states_at_least_its_rounding():
    # T of (1 : e^{cz}) and (1 : e^{cz} : e^{icz}) is per(H) (r - 1)/2pi exactly, H the
    # convex hull of 0 and the frequencies; every circle splits at its kinks, where the two
    # Gauss-Legendre rules agree but for the rounding they share, so their gap alone can
    # state less than the distance to the exact value
    rng = random.Random(40)
    for k in range(150):
        c = GaussRat(Fraction(rng.randint(-64, 64), 32), Fraction(rng.randint(-64, 64), 32))
        c = c or GaussRat(1, 0)
        comps = [ExpPoly.const(1), ExpPoly.exp(c)] + [ExpPoly.exp(c * GaussRat(0, 1))] * (k % 2)
        radii = [float(r) for r in np.geomspace(2, rng.uniform(20, 300), 12)]
        rows = lambda zs: np.stack([comp.log_abs(zs) for comp in comps])
        lo, *means = circle_averages(rows, (1.0, *radii))
        with mpmath.workdps(40):
            modulus = mpmath.hypot(float(c.re), float(c.im))     # multiples of 1/32: exact
            per = (2 + mpmath.sqrt(2) if k % 2 else 2) * modulus
            for r, res in zip(radii, means):
                exact = per * (mpmath.mpf(r) - 1) / (2 * mpmath.pi)
                assert abs(res.value - lo.value - exact) <= res.error + lo.error, (c, k % 2, r)


def test_every_call_of_fn_is_at_most_a_group_of_points():
    # circles go to fn in groups, a level wider than GROUP_POINTS in pieces, and split
    # circles' brackets and arcs in groups too; no piece is a lone point
    sizes = []

    def counted(fn):
        def each(zs):
            sizes.append(zs.size)
            return fn(zs)
        return each

    wide = lambda zs: np.stack((np.log(np.abs(zs - 1.999)), np.log(np.abs(zs - 1.999)) - 1.0))
    radii = [float(r) for r in np.linspace(1.0, 160.0, 400)]
    for fn, rs in ((_arc, radii), (wide, (2.0, 3.0, 2.0))):
        sizes.clear()
        batch = circle_averages(counted(fn), rs)
        assert 64 <= min(sizes) and max(sizes) == quadrature.GROUP_POINTS, sizes
        _same_as_alone(fn, rs[::37], batch[::37])
    assert batch[0].samples == 1 << 15 and batch[0] == batch[2]


def test_a_pass_holds_a_bounded_working_set():
    # no trapezoid level is kept and every call of fn is bounded, so ten times the radii
    # add only their results to the peak; a pass that held every level of every circle
    # grew about tenfold here
    kinked = lambda zs: np.stack((zs.real, np.zeros(zs.shape)))
    peaks = []
    for count in (100, 1000):
        radii = [float(r) for r in np.linspace(1.0, 3.0, count)]
        circle_averages(kinked, radii[:2])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            circle_averages(kinked, radii)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3e6 and peaks[1] < 2 * peaks[0], peaks


def test_gauss_legendre_rules_are_numpys_bit_for_bit():
    nodes, w16, w32 = quadrature._gauss_legendre()
    (x16, v16), (x32, v32) = (np.polynomial.legendre.leggauss(m) for m in (16, 32))
    for got, want in ((nodes, np.concatenate((x16, x32))), (w16, v16), (w32, v32)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
