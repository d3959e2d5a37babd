import cmath
import math

import numpy as np
import pytest

from nevlab.quadrature import QuadResult, circle_average


def test_mean_value_property_of_log_modulus():
    # average of log|z - a| over |z| = r is log r when |a| < r
    for a, r in ((0.5 + 0.2j, 2.0), (1.5j, 3.0), (0.0, 1.5)):
        res = circle_average(lambda zs: np.log(np.abs(zs - a)), r)
        assert res.converged
        assert res.value == pytest.approx(math.log(r), abs=1e-9)


def test_outside_point_average_is_log_modulus():
    a = 4.0 + 3.0j       # |a| = 5
    res = circle_average(lambda zs: np.log(np.abs(zs - a)), 2.0)
    assert res.value == pytest.approx(math.log(5.0), abs=1e-9)


def test_constant_integrand_converges_immediately():
    res = circle_average(lambda zs: np.full(zs.shape, 7.25), 10.0, start=64)
    assert res.value == 7.25
    assert res.samples == 128          # one doubling to confirm


def test_vectorized_path_matches_scalar():
    # the quarter-turn grid against a plain fsum over the same n points
    def scalar(z):
        return math.cos(z.real) * math.exp(-abs(z))

    def batch(zs):
        return np.cos(zs.real) * np.exp(-np.abs(zs))

    b = circle_average(batch, 3.0)
    n = b.samples
    a = math.fsum(scalar(3.0 * cmath.exp(2j * math.pi * k / n)) for k in range(n)) / n
    assert a == pytest.approx(b.value, abs=1e-10)
    assert b.converged


def test_start_must_be_a_multiple_of_four():
    for start in (66, 0, -4):
        with pytest.raises(ValueError):
            circle_average(lambda zs: np.zeros(zs.shape), 1.0, start=start)


def test_target_controls_refinement():
    fn = lambda zs: np.abs(zs.real) ** 1.5
    coarse = circle_average(fn, 1.0, target=1e-3)
    fine = circle_average(fn, 1.0, target=1e-10)
    assert fine.samples >= coarse.samples
    assert fine.error <= 1e-10 or not fine.converged


def test_cap_stops_runaway(monkeypatch):
    # a discontinuous integrand will not converge; the cap must end it
    fn = lambda zs: np.where(zs.real > 0.99, 1.0, 0.0)
    res = circle_average(fn, 1.0, target=1e-14, cap=1 << 10)
    assert isinstance(res, QuadResult)
    assert not res.converged
    assert res.samples <= 1 << 10
