import cmath
import math
import random
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


def test_kinked_integrand_at_the_cap_is_not_converged():
    # -sqrt|x| leads around x = 0 and is not smooth there: halving the arcs
    # cannot reach 1e-12 within 4096 evaluations
    fn = lambda zs: np.stack((-np.sqrt(np.abs(zs.real)), np.full(zs.shape, -0.9)))
    res = circle_averages(fn, (1.0,), target=1e-12, cap=1 << 12)[0]
    assert not res.converged
    assert res.samples <= 1 << 12
    assert 1e-12 < res.error < 1e-3


def _arc(zs):
    """Two rows: a tilted plane leads on an arc of half-width about 0.6/|z|, centred
    3e-4 off a point of the 512-point grid and off every coarser grid by 0.012 or
    more, and the other row's trapezoid sums need over 1000 points; so the arc
    shows first on the 64-point grid for |z| < 16, on the 128-point one for
    16 < |z| < 50, and on the 512-point one beyond, whose brackets take one step
    fewer."""
    u = np.exp(1j * (11 * 2 * math.pi / 512 + 3e-4))
    rho = np.abs(zs)
    return np.stack(((zs / u).real, rho * np.cos(0.6 / rho) + 0.05 * (
        np.log(np.abs(1 + zs / (1.01 * rho * u))) - math.log(1 + 1 / 1.01))))


def _same_as_alone(fn, radii, batch, target=1e-9, cap=1 << 20):
    # a circle of a pass gives the very result it gives alone: each arc is summed
    # row by row, whatever the other circles of the pass
    for r, got in zip(radii, batch, strict=True):
        assert got == circle_averages(fn, (r,), target, cap)[0], r


def test_a_radius_grid_in_one_pass_is_each_radius_alone(monkeypatch):
    calls, levels = [], []
    split = quadrature._split

    def spy(evaluate, circles, *args):
        calls.append(len(circles))
        levels.extend(len(grids) for _, grids in circles)
        return split(evaluate, circles, *args)

    monkeypatch.setattr(quadrature, "_split", spy)
    radii = (2.0, 30.0, 100.0, 2.0, 45.0, 10.0, 150.0)
    batch = circle_averages(_arc, radii)
    # every circle splits, in one _split call, after 1, 2 or 4 trapezoid levels
    assert calls == [len(radii)] and sorted(set(levels)) == [1, 2, 4]
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


def test_a_capped_kinked_pass_and_bad_radii():
    fn = lambda zs: np.stack((-np.sqrt(np.abs(zs.real)), np.full(zs.shape, -0.9)))
    radii = (1.0, 0.5, 1.7, 1.0)
    batch = circle_averages(fn, radii, target=1e-12, cap=1 << 12)
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
