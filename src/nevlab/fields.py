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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Union


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


_GR_ZERO = GaussRat(0)
_GR_ONE = GaussRat(1)
_GR_I = GaussRat(0, 1)


def _fmt_frac(q: Fraction) -> str:
    return str(q)


def format_rational_like(x) -> str:
    """Canonical string for a Fraction or GaussRat: "p/q", "a+bi", "-i", ..."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    re, im = x.re, x.im
    if im == 0:
        return _fmt_frac(re)
    if im == 1:
        imtxt = "i"
    elif im == -1:
        imtxt = "-i"
    else:
        imtxt = f"{_fmt_frac(im)}i"
    if re == 0:
        return imtxt
    sign = "+" if im > 0 else ""
    return f"{_fmt_frac(re)}{sign}{imtxt}"


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
        """Evaluate by Horner; exact for GaussRat-like z0, float for complex."""
        if isinstance(z0, (int, Fraction, GaussRat)):
            acc = _GR_ZERO
            for c in reversed(self.coeffs):
                acc = acc * z0 + c
            return acc
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z0 + complex(c)
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


def zpoly_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Monic gcd by the Euclidean algorithm (remainders kept monic)."""
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
            den = ZPoly((1,))
        elif not isinstance(den, ZPoly):
            den = ZPoly((den,)) if isinstance(den, (int, Fraction, GaussRat)) else ZPoly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFunc")
        if num.is_zero():
            den = ZPoly((1,))
        else:
            g = zpoly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lc = den.leading()
            if lc != 1:
                inv = lc.inverse()
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        return RatFunc, (self.num, self.den)

    @staticmethod
    def coerce(x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, GaussRat)):
            return RatFunc(ZPoly((x,)))
        if isinstance(x, ZPoly):
            return RatFunc(x)
        raise TypeError(f"cannot coerce {x!r} to RatFunc")

    @staticmethod
    def var() -> "RatFunc":
        return RatFunc(ZPoly.var())

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
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero RatFunc")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero RatFunc")
            return RatFunc(self.den ** (-k), self.num ** (-k))
        return RatFunc(self.num ** k, self.den ** k)

    def inverse(self) -> "RatFunc":
        return 1 / self

    def derivative(self) -> "RatFunc":
        """Exact d/dz by the quotient rule."""
        return RatFunc(self.num.derivative() * self.den - self.num * self.den.derivative(),
                       self.den * self.den)

    def __call__(self, z0):
        """Exact evaluation at GaussRat-like z0; complex path for numerics."""
        if isinstance(z0, (int, Fraction, GaussRat)):
            dv = self.den(z0)
            if not dv:
                raise PoleError(f"evaluation at pole z={z0} of {self}")
            return self.num(z0) * dv.inverse()
        dv = self.den(z0)
        return self.num(z0) / dv

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
