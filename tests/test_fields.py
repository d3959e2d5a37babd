"""Field and ring axioms for the exact scalar tower.

The axiom loops draw 1000 random triples per structure from a seeded
generator; hypothesis covers the coercion and evaluation corners.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nevlab.fields import GaussRat, PoleError, RatFunc, ZPoly, zpoly_gcd

_small = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def _rand_gauss(rng):
    return GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def _rand_zpoly(rng, max_deg=2):
    return ZPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, max_deg + 1))])


def _rand_ratfunc(rng):
    num = _rand_zpoly(rng)
    while True:
        den = _rand_zpoly(rng)
        if not den.is_zero():
            return RatFunc(num, den)


def _field_axioms(a, b, c, one):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (b - b) == a
    assert a * one == a
    assert a - b == a + (-b)
    if b:
        assert (a / b) * b == a
        assert b * b.inverse() == one


def test_gauss_rational_axioms_1000():
    rng = random.Random(11)
    one = GaussRat(1)
    for _ in range(1000):
        _field_axioms(_rand_gauss(rng), _rand_gauss(rng), _rand_gauss(rng), one)


def test_ratfunc_axioms_1000():
    rng = random.Random(13)
    one = RatFunc(ZPoly((1,)))
    for _ in range(1000):
        _field_axioms(_rand_ratfunc(rng), _rand_ratfunc(rng),
                      _rand_ratfunc(rng), one)


def test_zpoly_ring_axioms_1000():
    # polynomials form a ring, not a field: no division axiom here
    rng = random.Random(17)
    for _ in range(1000):
        a, b, c = (_rand_zpoly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@given(_small, _small, _small, _small)
def test_gauss_complex_embedding(ar, ai, br, bi):
    a, b = GaussRat(ar, ai), GaussRat(br, bi)
    assert complex(a + b) == pytest.approx(complex(a) + complex(b))
    assert complex(a * b) == pytest.approx(complex(a) * complex(b))


def test_gauss_inverse_and_conjugate():
    a = GaussRat(Fraction(3, 5), Fraction(-4, 5))
    assert a * a.inverse() == GaussRat(1)
    norm = a * GaussRat(a.re, -a.im)
    assert norm == GaussRat(1)          # 3/5 - 4i/5 has unit modulus
    assert a ** -2 == (a * a).inverse()
    with pytest.raises(ZeroDivisionError):
        GaussRat(0).inverse()


def test_gauss_hash_and_coerce():
    assert GaussRat(Fraction(1, 2)) == GaussRat.coerce(Fraction(1, 2))
    assert hash(GaussRat(3)) == hash(GaussRat.coerce(3))
    assert GaussRat(2) == 2 and GaussRat(2) != GaussRat(2, 1)


def test_zpoly_divmod_law():
    rng = random.Random(19)
    for _ in range(200):
        p = _rand_zpoly(rng, max_deg=4)
        d = _rand_zpoly(rng, max_deg=2)
        if d.is_zero():
            continue
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.is_zero() or r.degree < d.degree


def test_zpoly_gcd_divides_both():
    a = ZPoly((-1, 1)) ** 2 * ZPoly((2, 1))
    b = ZPoly((-1, 1)) * ZPoly((5, 1))
    g = zpoly_gcd(a, b)
    assert g == ZPoly((-1, 1))          # gcd is monic
    assert (a % g).is_zero() and (b % g).is_zero()


def test_zpoly_evaluation_matches_horner():
    p = ZPoly((1, -2, 0, GaussRat(0, 1)))
    z0 = 1.5 - 0.25j
    direct = 1 - 2 * z0 + 1j * z0 ** 3
    assert complex(p(z0)) == pytest.approx(direct)


def test_ratfunc_reduces_and_keeps_monic_denominator():
    f = RatFunc(ZPoly((0, 2)), ZPoly((0, 0, 4)))   # 2z / 4z^2
    assert f == RatFunc(ZPoly((1,)), ZPoly((0, 2)))
    assert f.den.leading() == GaussRat(1)
    assert str(f) == "1/2/(z)"


def test_ratfunc_pole_evaluation():
    f = RatFunc(ZPoly((1,)), ZPoly((-2, 1)))
    with pytest.raises(PoleError):
        f(2)
    assert complex(f(3)) == pytest.approx(1.0)


def test_ratfunc_derivative_quotient_rule():
    rng = random.Random(23)
    for _ in range(50):
        f, g = _rand_ratfunc(rng), _rand_ratfunc(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

