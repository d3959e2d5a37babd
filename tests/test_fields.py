"""Field and ring axioms for the exact scalar tower.

The axiom loops draw 1000 random triples per structure from a seeded
generator; hypothesis covers the coercion and evaluation corners.
"""

import copy
import pickle
import random
from math import gcd
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
    # evaluation is exact; float values come from ExpPoly.scaled alone
    p = ZPoly((1, -2, 0, GaussRat(0, 1)))
    z0 = GaussRat(Fraction(3, 2), Fraction(-1, 4))
    assert p(z0) == 1 - 2 * z0 + GaussRat(0, 1) * z0 ** 3
    with pytest.raises(TypeError):
        p(1.5 - 0.25j)
    with pytest.raises(TypeError):
        RatFunc(p, ZPoly((1, 1)))(1.5 - 0.25j)


def test_ratfunc_reduces_and_keeps_monic_denominator():
    f = RatFunc(ZPoly((0, 2)), ZPoly((0, 0, 4)))   # 2z / 4z^2
    assert f == RatFunc(ZPoly((1,)), ZPoly((0, 2)))
    assert f.den.leading() == GaussRat(1)
    assert str(f) == "1/2/(z)"


_PLANTED = (ZPoly((-2, 1)), ZPoly((GaussRat(0, 1), 1)),            # z - 2, z + i
            ZPoly((1, 0, 1)), ZPoly((GaussRat(1, -2), 3, 1)))    # z^2 + 1, z^2 + 3z + 1 - 2i


def _planted_ratfunc(rng):
    """A reduced RatFunc whose numerator and denominator carry planted linear and
    quadratic factors, repeated ones too, over non-monic cofactors; the
    denominator is constant a quarter of the time, the value 0 a tenth."""
    def part():
        while True:
            p = ZPoly([_rand_gauss(rng) for _ in range(rng.randint(1, 3))])
            if p:
                break
        for _ in range(rng.randint(0, 3)):
            p = p * rng.choice(_PLANTED)
        return p

    num = ZPoly() if rng.random() < 0.1 else part()
    den = ZPoly((_rand_gauss(rng) or 1,)) if rng.random() < 0.25 else part()
    return RatFunc(num, den)


def test_ratfunc_arithmetic_equals_the_full_gcd_construction():
    # +, -, *, / and ** cancel against the operands' own factors (Henrici), and
    # must give what one gcd of the whole unreduced result gives
    rng = random.Random(29)
    for _ in range(300):
        a, b = _planted_ratfunc(rng), _planted_ratfunc(rng)
        (n1, d1), (n2, d2) = (a.num, a.den), (b.num, b.den)
        assert a + b == RatFunc(n1 * d2 + n2 * d1, d1 * d2)
        assert a - b == RatFunc(n1 * d2 - n2 * d1, d1 * d2)
        assert a * b == RatFunc(n1 * n2, d1 * d2)
        assert -a == RatFunc(-n1, d1)
        c = _rand_gauss(rng)
        assert a * c == c * a == RatFunc(n1 * c, d1)
        assert a + c == c + a == RatFunc(n1 + d1 * c, d1)
        assert c - a == RatFunc(d1 * c - n1, d1)
        if b:
            assert a / b == RatFunc(n1 * d2, d1 * n2)
        k = rng.randint(-3, 3)
        if k >= 0:
            assert a ** k == RatFunc(n1 ** k, d1 ** k)
        elif a:
            assert a ** k == RatFunc(d1 ** -k, n1 ** -k)
        for x in (a + b, a * b, -a):
            assert x.den.leading() == 1 and (not x.num or zpoly_gcd(x.num, x.den) == ZPoly((1,)))


def test_zpoly_gcd_of_a_nonzero_constant_is_one():
    p = ZPoly((1, 2, 3))
    for c in (ZPoly((5,)), ZPoly((GaussRat(0, 1),))):
        assert zpoly_gcd(p, c) == zpoly_gcd(c, p) == zpoly_gcd(c, ZPoly()) == ZPoly((1,))
    assert zpoly_gcd(p, ZPoly()) == p.monic()


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



# -- GaussRat against a Fraction-pair reference --------------------------------
#
# GaussRat stores (a + b*i)/d as three ints.  The reference below is the
# plain (re, im) pair of Fractions it replaced; every operation must agree
# with it, and the triple must be the canonical one.


def _ref_mul(x, y):
    (a, b), (c, e) = x, y
    return a * c - b * e, a * e + b * c


def _ref_inverse(x):
    a, b = x
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError
    return a / n, -b / n


def _ref_pow(x, k):
    if k < 0:
        x, k = _ref_inverse(x), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _ref_mul(out, x)
    return out


def _rand_part(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:           # denominators from a few small primes, so they share factors
        return Fraction(rng.randint(-60, 60), rng.choice((2, 3, 4, 6, 9, 12, 36)))
    if kind == 3:           # parts beyond 2^53
        return Fraction(rng.randint(-2 ** 120, 2 ** 120), rng.randint(1, 2 ** 70))
    return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.choice((1, 5, 2 ** 30, 3 ** 19)))


def _assert_canonical(g, ref):
    a, b, d = g.a, g.b, g.d
    assert (type(a), type(b), type(d)) == (int, int, int)
    assert d > 0 and gcd(a, b, d) == 1
    assert (g.re, g.im) == tuple(ref)
    want = GaussRat(*ref)
    assert (a, b, d) == (want.a, want.b, want.d)


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_gauss_triple_matches_fraction_pair_reference():
    rng = random.Random(29)
    for _ in range(1500):
        x, y = (_rand_part(rng), _rand_part(rng)), (_rand_part(rng), _rand_part(rng))
        gx, gy = GaussRat(*x), GaussRat(*y)
        _assert_canonical(gx, x)
        k = rng.randint(-7, 7)
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        cases = [
            (gx + gy, (x[0] + y[0], x[1] + y[1])),
            (gx - gy, (x[0] - y[0], x[1] - y[1])),
            (gx * gy, _ref_mul(x, y)),
            (gx + k, (x[0] + k, x[1])), (k + gx, (x[0] + k, x[1])),
            (gx - q, (x[0] - q, x[1])), (q - gx, (q - x[0], -x[1])),
            (gx * k, (x[0] * k, x[1] * k)), (q * gx, (x[0] * q, x[1] * q)),
            (-gx, (-x[0], -x[1])),
        ]
        for other, ref_other in ((gy, y), (k, (Fraction(k), Fraction(0))), (q, (q, Fraction(0)))):
            if ref_other != (0, 0):
                cases.append((gx / other, _ref_mul(x, _ref_inverse(ref_other))))
            else:
                with pytest.raises(ZeroDivisionError):
                    gx / other
            if x != (0, 0):
                cases.append((other / gx, _ref_mul(ref_other, _ref_inverse(x))))
        e = rng.randint(-3, 3)
        if x != (0, 0):
            cases += [(gx.inverse(), _ref_inverse(x)), (gx ** e, _ref_pow(x, e))]
        else:
            with pytest.raises(ZeroDivisionError):
                gx.inverse()
            if e < 0:
                with pytest.raises(ZeroDivisionError):
                    gx ** e
        for got, ref in cases:
            _assert_canonical(got, ref)
        if y != (0, 0):     # equal values reached two ways have equal triples
            back = gx * gy / gy
            assert (back.a, back.b, back.d) == (gx.a, gx.b, gx.d)
        assert complex(gx) == complex(float(x[0]), float(x[1]))
        assert _bits(complex(gx)) == _bits(complex(float(x[0]), float(x[1])))


def test_gauss_equality_and_hash_follow_the_tower():
    rng = random.Random(31)
    for _ in range(1000):
        re, im = _rand_part(rng), _rand_part(rng)
        g, const = GaussRat(re, im), RatFunc(ZPoly((GaussRat(re, im),)))
        assert g == const and const == g and hash(g) == hash(const)
        assert g == GaussRat(re, im) and hash(g) == hash(GaussRat(re, im))
        if im:
            assert g != re and re != g and g != GaussRat(re)
            assert hash(g) == hash((re, im))
        else:
            assert g == re and re == g and hash(g) == hash(re)
            if re.denominator == 1:
                assert g == int(re) and int(re) == g and hash(g) == hash(int(re))
    assert GaussRat(1, 0) == True and GaussRat(0, 1) != 1      # noqa: E712
    assert GaussRat(Fraction(1, 2)) != 0.5 and GaussRat(0) != "0"


def test_gauss_complex_is_float_of_each_part():
    big = 2 ** 53 + 1
    for re, im in ((Fraction(big), Fraction(-big, 3)), (Fraction(2 ** 60 + 1, 3), Fraction(1, 2 ** 80)),
                   (Fraction(-1, 10 ** 400), Fraction(10 ** 400 + 1, 10 ** 399)),
                   (Fraction(2 ** 1023, 3), Fraction(0))):
        want = complex(float(re), float(im))
        assert _bits(complex(GaussRat(re, im))) == _bits(want)
    for parts in ((Fraction(2 ** 2000, 3), 0), (0, Fraction(2 ** 2000, 3))):
        with pytest.raises(OverflowError):
            float(Fraction(2 ** 2000, 3))
        with pytest.raises(OverflowError):
            complex(GaussRat(*parts))


def test_gauss_is_immutable():
    g = GaussRat(Fraction(1, 2), 3)
    for name in ("re", "im", "a", "b", "d", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
    assert (g.a, g.b, g.d) == (1, 6, 2) and g == GaussRat(Fraction(1, 2), 3)
    with pytest.raises(TypeError):
        GaussRat(0.5)


@pytest.mark.parametrize("value", [
    GaussRat(Fraction(1, 2), -3), GaussRat(7), GaussRat(0, Fraction(-2, 9)),
    ZPoly((GaussRat(1, 2), 0, Fraction(-3, 4))), ZPoly(),
    RatFunc(ZPoly((1, GaussRat(0, 1))), ZPoly((Fraction(2, 3), 5, 1))), RatFunc(ZPoly((4,)))])
def test_scalars_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
    if isinstance(value, GaussRat):
        twin = pickle.loads(pickle.dumps(value))
        assert (twin.a, twin.b, twin.d) == (value.a, value.b, value.d)


def test_gauss_fast_path_constructs_no_fraction(monkeypatch):
    from nevlab import linalg

    rng = random.Random(37)
    values = [GaussRat(_rand_part(rng), _rand_part(rng)) for _ in range(200)]
    for g in values:     # the pivot-size proxy is the bit length of the reduced parts
        want = sum(x.bit_length() for part in (g.re, g.im) for x in (part.numerator, part.denominator))
        assert linalg._complexity(g) == want
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    Fraction(1, 2)
    assert made          # the patch counts
    made.clear()
    results = []
    for x, y in zip(values, values[1:]):
        for other in (y, 3, -2):
            results += [x + other, other + x, x - other, other - x, x * other, other * x]
        results.append(-x)
        if x:
            results.append(x.inverse())
    results += [linalg._split(values), linalg._split((values[0], 5))]
    monkeypatch.undo()
    assert made == [] and len(results) > 3000
