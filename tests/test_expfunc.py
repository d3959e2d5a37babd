import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nevlab.expfunc import ExpPoly, wronskian
from nevlab.fields import GaussRat, RatFunc, ZPoly


def _rand(rng):
    freqs = (GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(0, 1))
    out = ExpPoly.zero()
    for _ in range(rng.randint(1, 3)):
        p = ZPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        out = out + ExpPoly({rng.choice(freqs): p})
    return out


def test_exp_product_collapses_frequencies():
    assert ExpPoly.exp(1) * ExpPoly.exp(-1) == ExpPoly.const(1)
    assert ExpPoly.exp(1) * ExpPoly.exp(1) == ExpPoly.exp(2)
    e = ExpPoly.exp(1) + ExpPoly.const(-1)
    assert (e * e).terms.keys() == {GaussRat(0), GaussRat(1), GaussRat(2)}


def test_derivative_rules():
    rng = random.Random(43)
    for _ in range(40):
        f, g = _rand(rng), _rand(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        assert (f + g).derivative() == f.derivative() + g.derivative()
    assert ExpPoly.exp(2).derivative() == ExpPoly.exp(2) * 2
    assert ExpPoly.var().derivative() == ExpPoly.const(1)


def test_evaluation_matches_cmath():
    f = ExpPoly.exp(1) - ExpPoly.var()          # e^z - z
    for z0 in (0.3 + 0.1j, -1.2j, 2.0):
        assert f(z0) == pytest.approx(cmath.exp(z0) - z0)
    g = ExpPoly.exp(GaussRat(0, 1))             # e^{iz}
    assert g(cmath.pi) == pytest.approx(-1.0)


def _mixed():
    # frequency-0 term, a zero middle coefficient, complex frequencies
    return (ExpPoly.poly(ZPoly((2, 0, GaussRat(-1, 3))))
            + ExpPoly({GaussRat(1, 1): ZPoly((1, 0, 0, 3))})
            + ExpPoly.exp(GaussRat(-1, 2)))


def _grid():
    zs = [r * cmath.exp(2j * cmath.pi * k / 37)
          for r in (0.3, 1.0, 2.5, 7.0, 20.0) for k in range(37)]
    return np.array(zs + [0, 1, -1, 1j, -2.5, 3.75j])


def test_float_image_is_built_once(monkeypatch):
    f = _mixed()
    f(0.5)
    calls = []
    original = GaussRat.__complex__
    monkeypatch.setattr(GaussRat, "__complex__",
                        lambda self: calls.append(1) or original(self))
    for z0 in (0.3 + 0.1j, -1.2j, 2.0):
        f(z0)
    f(_grid())
    assert not calls


def _horner(p: ZPoly, x: complex) -> complex:
    """p(x) in complex floats by Horner's rule: ZPoly evaluates at exact points only."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * x + complex(c)
    return acc


def test_scalar_and_array_evaluation_agree():
    f = _mixed()
    zs = _grid()
    arr = f(zs)
    # both run the same Horner steps and exp calls on the same image; the
    # only gap is numpy's complex array product, which may fuse
    # multiply-add where CPython's complex product rounds twice
    eps = np.finfo(float).eps
    for z0, va in zip(zs, arr):
        vs = f(complex(z0))
        scale = sum(abs(_horner(p, complex(z0))) * abs(cmath.exp(complex(c) * z0))
                    for c, p in f.terms.items())
        assert abs(vs - va) <= 16 * eps * scale


def test_derivative_is_cached():
    f = _mixed()
    assert f.derivative() is f.derivative()
    assert f.derivative() == ExpPoly(
        {c: p.derivative() + p * c for c, p in f.terms.items()})


def test_polynomial_part_and_predicates():
    f = ExpPoly.poly(ZPoly((1, 2))) + ExpPoly.exp(1)
    assert not f.is_polynomial()
    assert f.polynomial_part() == ZPoly((1, 2))
    assert ExpPoly.var().is_polynomial()
    assert ExpPoly.zero().is_zero()
    assert (f - f).is_zero()


def test_pow_and_hash():
    f = ExpPoly.exp(1) + ExpPoly.const(1)
    assert f ** 0 == ExpPoly.const(1)
    assert f ** 3 == f * f * f
    assert hash(f) == hash(ExpPoly.const(1) + ExpPoly.exp(1))


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_scalar_coercion_distributes(a, b, c):
    f = ExpPoly.exp(1) * a + ExpPoly.var() * b + c
    g = ExpPoly.exp(1) * a + (ExpPoly.var() * b + c)
    assert f == g


def test_wronskian_classical_values():
    one = ExpPoly.const(1)
    z = ExpPoly.var()
    assert wronskian([one, z]) == one
    assert wronskian([one, z, z * z]) == ExpPoly.const(2)
    # W(e^{az}, e^{bz}) = (b - a) e^{(a+b)z}
    w = wronskian([ExpPoly.exp(1), ExpPoly.exp(2)])
    assert w == ExpPoly.exp(3)
    assert wronskian([z, z]).is_zero()


def test_wronskian_generic_ring():
    # works over any ring with derivative(): rational functions here
    z = RatFunc(ZPoly((0, 1)))
    one = RatFunc(ZPoly((1,)))
    w = wronskian([one / z, z])
    assert w == 2 / z                  # det [[1/z, z], [-1/z^2, 1]]


def test_log_abs_matches_direct_log_modulus():
    z = ExpPoly.var()
    cases = (ExpPoly.const(1), z * z + 1, ExpPoly.exp(GaussRat(1, 2)),
             z * ExpPoly.exp(-1), ExpPoly.exp(1) - 2 * z)
    # radii off the zeros of z^2 + 1 and z e^{-z}
    zs = np.concatenate([r * np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
                         for r in (0.5, 3.0, 17.0, 50.0)])
    for f in cases:
        # term by term in cmath, apart from the evaluator under test
        direct = np.array([math.log(abs(sum(_horner(p, x) * cmath.exp(complex(c) * x)
                                            for c, p in f.terms.items()))) for x in zs])
        got = f.log_abs(zs)
        assert got.shape == zs.shape
        assert np.all(np.abs(got - direct) <= 1e-12 * (1 + np.abs(direct))), f


def test_log_abs_past_the_overflow_radius():
    mpmath = pytest.importorskip("mpmath")
    f = ExpPoly.exp(1) - 2 * ExpPoly.var()         # e^z - 2z
    zs = 800.0 * np.exp(2j * np.pi * (np.arange(32) + 0.25) / 32)
    got = f.log_abs(zs)
    assert np.all(np.isfinite(got))
    for z0, v in zip(zs, got):
        z0 = mpmath.mpc(z0)
        assert float(mpmath.log(abs(mpmath.exp(z0) - 2 * z0))) == pytest.approx(v, rel=1e-12)
    assert np.all(ExpPoly.zero().log_abs(zs) == -np.inf)


def test_log_abs_forms_one_exponential_factor_at_a_time():
    # |Re(iz)| reaches 300 > 256, so every factor carries the shift M; holding the
    # factors of all terms at once peaked at 4.2 arrays, one at a time at 3.2
    f = ExpPoly.exp(GaussRat(0, 1)) - 2 * ExpPoly.var()      # e^{iz} - 2z
    zs = 300.0 * np.exp(2j * np.pi * np.arange(50_000) / 50_000)
    f.log_abs(zs[:8])                  # the float image is built once, outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = f.log_abs(zs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(got))
    assert peak <= 3.2 * zs.nbytes, peak / zs.nbytes


@pytest.mark.parametrize("c, text", [
    (GaussRat(2, -1), "exp((2-i)z)"), (GaussRat(-1, 1), "exp((-1+i)z)"),
    (GaussRat(0, -1), "exp((-i)z)"), (GaussRat(-1), "exp((-1)z)"),
    (GaussRat(Fraction(1, 2), 1), "exp((1/2+i)z)"), (GaussRat(1), "exp(z)")])
def test_str_brackets_every_frequency_with_a_sign_or_a_fraction(c, text):
    assert str(ExpPoly.exp(c)) == text
