"""Exact scalar tower: rationals, Gaussian rationals, univariate rational functions.

Three interoperable scalar classes:

  fractions.Fraction          rationals p/q, canonical by construction
  GaussRat                    (a + b*i)/d as three ints, gcd(a, b, d) = 1 and d > 0
  RatFunc                     p(z)/q(z), p and q ZPoly over GaussRat, reduced, q monic

Mixed arithmetic works through Python's reflected-operator protocol: ints and
Fractions coerce up to GaussRat, GaussRat coerces up to RatFunc.  Every class
canonicalizes on construction, so == is plain structural comparison and a value
equal to one lower in the tower compares (and hashes) equal to it.

ZPoly is the internal polynomial workhorse: immutable tuple of GaussRat
coefficients in ascending degree order with no trailing zeros (the zero
polynomial is the empty tuple, degree -1).

A RatFunc is canonical when num and den are coprime, den is monic, and den is 1
when num is 0; the form is unique, so how a value was reached never shows.
The constructor `RatFunc(num, den)` reduces by one gcd of num and den
(`zpoly_gcd`, Euclid, the only gcd).  Arithmetic keeps its gcds on the operands'
own factors instead (P. Henrici, J. ACM 3 (1956); Knuth, TAOCP vol. 2, 4.5.1),
for operands a/b and c/d in canonical form:

  product     (a/g1)(c/g2) / ((b/g2)(d/g1)), g1 = gcd(a, d), g2 = gcd(c, b):
              a/g1 is prime to b (as a is) and to d/g1, and c/g2 to d and b/g2,
              and a quotient of monic polynomials is monic.  A quotient is the
              product with c/d read as d/c, then divided by lc(c).
  sum         g = gcd(b, d), b = g b', d = g d', t = a d' + c b', h = gcd(t, g):
              (t/h) / ((g/h) b' d').  b' and d' are coprime, and t is prime to
              both (modulo a prime p of b', t = a d', and p divides neither a
              nor d'), so a common factor of t and g b' d' divides g.
  negation    (-a)/b, with the same factors.
  power       a^k / b^k, or b^k / a^k divided by lc(a)^k for k < 0: powers of
              coprime polynomials are coprime.
  constant    a constant den c gives num/c with no gcd, and a product or sum
              asks none of an operand or den that is constant.
  known       `over_known_factors(num, c, {f: e})` reduces num / (c prod f^e)
  factors     against each monic f in turn, by a root test when f is linear, so
              a value whose denominator's factors are known needs no gcd with
              their product (see its docstring for why the result is reduced).

`zpoly_gcd` returns 1 at once when an operand is a nonzero constant.  The
package's three failure classes live here, where every module reaches them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Optional, Union


class InputError(ValueError):
    """Malformed input: an argument, expression or file that no computation takes."""


class Obstruction(ArithmeticError):
    """Well-formed input that the mathematics refuses (a degenerate curve, say)."""


class NumericalFailure(ArithmeticError):
    """A float or interval computation that reached no certified answer."""


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


def _num_den(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, constructing nothing."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _pow_by_squaring(base, k: int, one):
    """base ** k for an int k >= 0 by repeated squaring; `one` when k == 0.

    The one square-and-multiply loop of every ring in the package.
    """
    out = None
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return one if out is None else out


class GaussRat:
    """Gaussian rational (a + b*i)/d, stored as three ints with
    gcd(a, b, d) = 1 and d > 0, so equal values have equal triples.

    `re` and `im` are read-only Fraction views.  Arithmetic works on the
    triple: a product is four int products and one gcd, and a sum over a
    shared d needs no lcm.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        (a, p), (b, q) = _num_den(re), _num_den(im)
        d = p * (q // gcd(p, q))    # reduced parts over their lcm have gcd 1
        a, b = a * (d // p), b * (d // q)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the triple, not through __setattr__
        return _make, (self.a, self.b, self.d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussRat":
        g = _lift(x)
        if g is None:
            raise TypeError(f"cannot coerce {x!r} to GaussRat")
        return g

    # -- ring/field ops ----------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussRat else _lift(other)
        if o is None:
            return NotImplemented
        return _sum(self.a, self.b, self.d, o.a, o.b, o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussRat else _lift(other)
        if o is None:
            return NotImplemented
        return _sum(self.a, self.b, self.d, -o.a, -o.b, o.d)

    def __rsub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return _sum(o.a, o.b, o.d, -self.a, -self.b, self.d)

    def __mul__(self, other):
        o = other if type(other) is GaussRat else _lift(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, o.a, o.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def inverse(self) -> "GaussRat":
        return _quotient(1, 0, 1, self.a, self.b, self.d)

    def __truediv__(self, other):
        o = other if type(other) is GaussRat else _lift(other)
        if o is None:
            return NotImplemented
        return _quotient(self.a, self.b, self.d, o.a, o.b, o.d)

    def __rtruediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return _quotient(o.a, o.b, o.d, self.a, self.b, self.d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _pow_by_squaring(self, k, _GR_ONE)

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes like its int or Fraction
        if self.b == 0:
            return hash(self.a) if self.d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        # int true division is correctly rounded, so this is float(re), float(im)
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_rational_like(self)


_set_a, _set_b, _set_d = GaussRat.a.__set__, GaussRat.b.__set__, GaussRat.d.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d from a triple already in lowest terms."""
    x = _new(GaussRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d for ints with d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(d, a, b)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def _lift(x) -> Optional[GaussRat]:
    """x as a GaussRat when it is one, an int or a Fraction; else None."""
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(x.numerator, 0, x.denominator)
    return None


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussRat:
    """(a + b*i)/d + (c + e*i)/f for two triples in lowest terms."""
    if d == f:
        return _reduced(a + c, b + e, d)
    g = gcd(d, f)
    if g == 1:      # a prime of d or f alone cannot divide both parts
        return _make(a * f + c * d, b * f + e * d, d * f)
    s, t = d // g, f // g
    a, b = a * t + c * s, b * t + e * s
    h = gcd(g, a, b)    # every common factor with the lcm s*f lies in g
    return _make(a // h, b // h, s * (f // h))


def _quotient(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussRat:
    """(a + b*i)/d divided by (c + e*i)/f: f (a + b*i)(c - e*i) / (d (c^2 + e^2))."""
    n = c * c + e * e
    if not n:
        raise ZeroDivisionError("inverse of zero GaussRat")
    return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * n)


def squared_modulus(a: GaussRat) -> tuple[int, int, int]:
    """(N, D, e) with |a|^2 = N / D exactly, D = d^2, and e = bit length of N less that of
    D, so that N / (D 2^e) lies in (1/2, 2): the exact reading of |a|^2 behind a binade
    or a logarithm."""
    num, den = a.a * a.a + a.b * a.b, a.d * a.d
    return num, den, num.bit_length() - den.bit_length()


_GR_ZERO = GaussRat(0)
_GR_ONE = GaussRat(1)
_GR_I = GaussRat(0, 1)


def format_rational_like(x) -> str:
    """Canonical string for a Fraction or GaussRat: "p/q", "a+bi", "-i", ..."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    re, im = x.re, x.im
    if im == 0:
        return str(re)
    if im == 1:
        imtxt = "i"
    elif im == -1:
        imtxt = "-i"
    else:
        imtxt = f"{im}i"
    if re == 0:
        return imtxt
    sign = "+" if im > 0 else ""
    return f"{re}{sign}{imtxt}"


class ZPoly:
    """Univariate polynomial in z over GaussRat; ascending coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [GaussRat.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ZPoly is immutable")

    def __reduce__(self):
        return ZPoly, (self.coeffs,)

    @staticmethod
    def const(c) -> "ZPoly":
        return ZPoly((GaussRat.coerce(c),))

    @staticmethod
    def var() -> "ZPoly":
        return ZPoly((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussRat:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ZPoly):
            return other
        if isinstance(other, (int, Fraction, GaussRat)):
            return ZPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return ZPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return ZPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return ZPoly()
        out = [_GR_ZERO] * (len(a) + len(b) - 1)
        for j, aj in enumerate(a):
            if not aj:
                continue
            for k, bk in enumerate(b):
                if bk:
                    out[j + k] = out[j + k] + aj * bk
        return ZPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return _pow_by_squaring(self, k, ZPoly((1,)))

    def __divmod__(self, other: "ZPoly"):
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = o.coeffs
        dd = len(dv) - 1
        lead_inv = dv[-1].inverse()
        quot = [_GR_ZERO] * max(0, len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c * lead_inv
            quot[k - dd] = q
            for j in range(dd + 1):
                rem[k - dd + j] = rem[k - dd + j] - q * dv[j]
        return ZPoly(quot), ZPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "ZPoly":
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return ZPoly(tuple(c * inv for c in self.coeffs))

    def derivative(self) -> "ZPoly":
        return ZPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def __call__(self, z0):
        """Exact evaluation by Horner at an int, Fraction or GaussRat z0; float values
        come from expfunc's one evaluator, ExpPoly.scaled."""
        if not isinstance(z0, (int, Fraction, GaussRat)):
            raise TypeError(f"ZPoly evaluates at exact points only, got {type(z0).__name__}")
        acc = _GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z0 + c
        return acc

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"ZPoly({list(self.coeffs)!r})"

    def __str__(self):
        return format_zpoly(self)


_ZP_ONE = ZPoly((1,))


def zpoly_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Monic gcd by the Euclidean algorithm (remainders kept monic); 1 at once
    when an operand is a nonzero constant."""
    if a.degree == 0 or b.degree == 0:
        return _ZP_ONE
    while not b.is_zero():
        a, b = b, (a % b).monic()
    return a.monic()


def denominator_lcm(dens: Iterable[ZPoly]) -> Optional[ZPoly]:
    """Monic lcm of the nonconstant ones among monic (RatFunc) denominators,
    None when there is none; one that divides the lcm so far costs no gcd."""
    q = None
    for den in dens:
        if den.degree > 0 and (q is None or q % den):
            q = den if q is None else q * (den // zpoly_gcd(q, den))
    return q


def format_zpoly(p: ZPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        if k == 0:
            body = format_rational_like(c)
        else:
            zk = "z" if k == 1 else f"z^{k}"
            if c == 1:
                body = zk
            elif c == -1:
                body = f"-{zk}"
            else:
                ctxt = format_rational_like(c)
                if ("+" in ctxt[1:]) or ("-" in ctxt[1:]):
                    ctxt = f"({ctxt})"
                body = f"{ctxt}*{zk}"
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)


class RatFunc:
    """Rational function num(z)/den(z), reduced, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, ZPoly):
            num = ZPoly((num,)) if isinstance(num, (int, Fraction, GaussRat)) else ZPoly(num)
        if den is None:
            den = _ZP_ONE
        elif not isinstance(den, ZPoly):
            den = ZPoly((den,)) if isinstance(den, (int, Fraction, GaussRat)) else ZPoly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFunc")
        if num.is_zero():
            den = _ZP_ONE
        else:
            num, den = _monic(*_cancel(num, den))
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        return RatFunc, (self.num, self.den)

    @staticmethod
    def coerce(x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, GaussRat)):
            return _rf(ZPoly((x,)), _ZP_ONE)
        if isinstance(x, ZPoly):
            return _rf(x, _ZP_ONE)
        raise TypeError(f"cannot coerce {x!r} to RatFunc")

    @staticmethod
    def var() -> "RatFunc":
        return _rf(ZPoly.var(), _ZP_ONE)

    def _binary(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, GaussRat, ZPoly)):
            return RatFunc.coerce(other)
        return None

    # -- field ops -----------------------------------------------------------

    def __add__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return _rf_sum(self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return _rf_sum(self.num, self.den, -o.num, o.den)

    def __rsub__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return _rf_sum(o.num, o.den, -self.num, self.den)

    def __mul__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return _rf_product(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero RatFunc")
        return _rf_product(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero RatFunc")
            return _rf(*_monic(self.den ** (-k), self.num ** (-k)))
        return _rf(self.num ** k, self.den ** k)

    def inverse(self) -> "RatFunc":
        return 1 / self

    def derivative(self) -> "RatFunc":
        """Exact d/dz by the quotient rule."""
        return RatFunc(self.num.derivative() * self.den - self.num * self.den.derivative(),
                       self.den * self.den)

    def __call__(self, z0):
        """Exact evaluation at an int, Fraction or GaussRat z0 (ZPoly.__call__)."""
        dv = self.den(z0)
        if not dv:
            raise PoleError(f"evaluation at pole z={z0} of {self}")
        return self.num(z0) * dv.inverse()

    # -- structure -----------------------------------------------------------

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num.coeffs[0] if self.num.coeffs else _GR_ZERO

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        ntxt = format_zpoly(self.num)
        if self.den.degree == 0:
            return ntxt
        dtxt = format_zpoly(self.den)
        if self.num.degree > 0 or ("+" in ntxt[1:]) or ("-" in ntxt[1:]):
            ntxt = f"({ntxt})"
        return f"{ntxt}/({dtxt})"


_set_num, _set_den = RatFunc.num.__set__, RatFunc.den.__set__


def _rf(num: ZPoly, den: ZPoly) -> RatFunc:
    """num/den from a pair already canonical: coprime, den monic, den 1 when num is 0."""
    x = _new(RatFunc)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _monic(num: ZPoly, den: ZPoly) -> tuple[ZPoly, ZPoly]:
    """num and den divided by den's leading coefficient."""
    lc = den.coeffs[-1]
    if lc != 1:
        inv = lc.inverse()
        num, den = num * inv, den * inv
    return num, den


def _cancel(a: ZPoly, b: ZPoly) -> tuple[ZPoly, ZPoly]:
    """a and b divided by their monic gcd; none is sought when either is constant."""
    if a.degree > 0 and b.degree > 0:
        g = zpoly_gcd(a, b)
        if g.degree > 0:
            return a // g, b // g
    return a, b


def _rf_product(a: ZPoly, b: ZPoly, c: ZPoly, d: ZPoly) -> RatFunc:
    """(a/b)(c/d) for coprime pairs (a, b) and (c, d), b monic, d nonzero (a quotient
    passes a divisor's den and num as c and d): gcd(ac, bd) = gcd(a, d) gcd(c, b)."""
    if not a or not c:
        return _rf(ZPoly(), _ZP_ONE)
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _rf(*_monic(a * c, b * d))


def _rf_sum(a: ZPoly, b: ZPoly, c: ZPoly, d: ZPoly) -> RatFunc:
    """a/b + c/d for reduced operands (Henrici): with g = gcd(b, d), b = g b' and
    d = g d', the sum is t / (g b' d') for t = a d' + c b', and gcd(t, g b' d') =
    gcd(t, g), since t is prime to b' and to d'."""
    if b == d:
        t, g, rest = a + c, b, None
    else:
        g = zpoly_gcd(b, d) if b.degree > 0 and d.degree > 0 else _ZP_ONE
        if g.degree > 0:
            b, d = b // g, d // g
        t, rest = a * d + c * b, b * d
    if not t:
        return _rf(t, _ZP_ONE)
    t, g = _cancel(t, g)
    return _rf(t, g if rest is None else g * rest)


def over_known_factors(num: ZPoly, c, factors: dict) -> RatFunc:
    """num / (c prod f^e) in lowest terms, for a nonzero constant c and monic
    factors f of positive degree with multiplicities e (`factors`).

    The copies of each f are cancelled against num one at a time: a linear f by
    one exact root test (f divides num when num vanishes at its root), any other
    by one gcd.  A copy that cancels nothing ends its factor, since the next would
    meet the same num.  For each prime p the copies cancel min(v_p num, the sum of
    their v_p), which is v_p of gcd(num, prod f^e), so what is left is reduced, and
    a product of monic polynomials, monic.
    """
    if not num:
        return _rf(num, _ZP_ONE)
    parts = []
    for f, e in factors.items():
        for left in range(e, 0, -1):
            if f.degree == 1:
                g = f if not num(-f.coeffs[0]) else _ZP_ONE
            else:
                g = zpoly_gcd(num, f)
            if g.degree <= 0:
                parts.append(f ** left)
                break
            num = num // g
            if g != f:
                parts.append(f // g)
    if c != 1:
        inv = _GR_ONE / c
        num = ZPoly(x * inv for x in num.coeffs)
    return _rf(num, prod(parts[1:], start=parts[0]) if parts else _ZP_ONE)


Scalar = Union[Fraction, GaussRat, RatFunc]


def simplify_scalar(x) -> Scalar:
    """Downcast to the lowest tower level representing the same value."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, RatFunc):
        if x.is_constant():
            x = x.constant_value()
        else:
            return x
    if isinstance(x, GaussRat):
        return x.re if x.im == 0 else x
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"not a scalar: {x!r}")


def scalar_str(x) -> str:
    """Canonical string form; round-trips through parsing.parse_scalar."""
    x = simplify_scalar(x)
    if isinstance(x, RatFunc):
        return str(x)
    return format_rational_like(x)
