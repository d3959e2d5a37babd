"""Exponential polynomials: finite sums of p(z)*exp(c*z) with exact data.

p ranges over polynomials with Gaussian-rational coefficients and c over
Gaussian rationals.  The class is closed under ring operations and d/dz, the
zero test is exact (terms are keyed by frequency, so the canonical form of 0
is the empty sum), and evaluation at a complex point is the only approximate
operation.  Every float view of the exact data (values, phase noise floors,
rate bounds) reads one cached image built here, and every evaluation that
must not overflow takes its exponentials from one scaling, _scaled_exps.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .fields import GaussRat, ZPoly, _pow_by_squaring, format_zpoly, scalar_str
from .linalg import det_cofactor

ScalarLike = Union[int, "GaussRat"]

# below this exponent exp cannot overflow a double (log of its max is 709.78)
_EXP_SAFE = 700.0


def _log_term_bound(c: complex, coeffs, radius: float) -> float:
    """log of a bound on |p(z) e^{cz}| over |z| <= radius."""
    acc = 0.0
    for a in coeffs:
        acc = acc * radius + abs(a)
    return abs(c) * radius + math.log(acc)


def _log_modulus(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):      # log 0 is -inf, with no warning
        return np.log(np.abs(values))


class ExpPoly:
    """sum over c of p_c(z) * exp(c*z), stored as {c: p_c} with p_c != 0."""

    __slots__ = ("terms", "_image", "_derivative")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for c, p in terms.items():
                c = GaussRat.coerce(c)
                if not isinstance(p, ZPoly):
                    p = ZPoly.const(p)
                if not p.is_zero():
                    acc = clean.get(c)
                    clean[c] = p if acc is None else acc + p
                    if clean[c].is_zero():
                        del clean[c]
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_image", None)
        object.__setattr__(self, "_derivative", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly()

    @staticmethod
    def const(c) -> "ExpPoly":
        return ExpPoly({GaussRat.coerce(0): ZPoly.const(c)})

    @staticmethod
    def var() -> "ExpPoly":
        return ExpPoly({GaussRat.coerce(0): ZPoly.var()})

    @staticmethod
    def poly(p: ZPoly) -> "ExpPoly":
        return ExpPoly({GaussRat.coerce(0): p})

    @staticmethod
    def exp(c) -> "ExpPoly":
        """e^{c z}"""
        return ExpPoly({GaussRat.coerce(c): ZPoly.const(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_polynomial(self) -> bool:
        return all(not c for c in self.terms)

    def polynomial_part(self) -> ZPoly:
        """The frequency-0 term; the whole function when is_polynomial()."""
        for c, p in self.terms.items():
            if not c:
                return p
        return ZPoly()

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExpPoly):
            return other
        if isinstance(other, ZPoly):
            return ExpPoly.poly(other)
        if isinstance(other, (int, GaussRat)) or type(other).__name__ == "Fraction":
            return ExpPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for c, p in other.terms.items():
            merged[c] = merged[c] + p if c in merged else p
        return ExpPoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly({c: -p for c, p in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for c1, p1 in self.terms.items():
            for c2, p2 in other.terms.items():
                c = c1 + c2
                prod = p1 * p2
                out[c] = out[c] + prod if c in out else prod
        return ExpPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers leave the ring")
        return _pow_by_squaring(self, k, ExpPoly.const(1))

    def derivative(self) -> "ExpPoly":
        """(p e^{cz})' = (p' + c p) e^{cz}, termwise; built once per object."""
        if self._derivative is None:
            out = {}
            for c, p in self.terms.items():
                q = p.derivative() + p * c
                if not q.is_zero():
                    out[c] = q
            object.__setattr__(self, "_derivative", ExpPoly(out))
        return self._derivative

    @property
    def float_image(self) -> tuple:
        """((c, (a_k, ..., a_0)), ...): each frequency as a complex with its
        coefficients from the top degree down; built once, the only float
        view of the exact terms."""
        if self._image is None:
            image = tuple((complex(c), tuple(complex(a) for a in reversed(p.coeffs)))
                          for c, p in self.terms.items())
            object.__setattr__(self, "_image", image)
        return self._image

    def __call__(self, z):
        """Value at a complex point, or elementwise over a numpy array."""
        if isinstance(z, np.ndarray):
            exp = np.exp
        else:
            z, exp = complex(z), cmath.exp
        # Horner from 0 through the top coefficient, as np.polyval does.  A
        # frequency-0 term skips the factor exp(0) = 1 + 0j, which could only
        # flip the sign of a zero part, and a sum started at +0 erases that.
        total = 0j
        for c, coeffs in self.float_image:
            acc = 0j
            for a in coeffs:
                acc = acc * z + a
            total += acc * exp(c * z) if c else acc
        return total

    def log_abs(self, zs: np.ndarray) -> np.ndarray:
        """log|f| elementwise over a numpy array of points, -inf where f vanishes
        and finite elsewhere: e^{cz} is never formed where it could overflow."""
        image = self.float_image
        if not image:
            return np.full(zs.shape, -np.inf)
        if len(image) == 1:
            # log|p e^{cz}| = log|p| + Re(cz), exactly
            (c, coeffs), = image
            if len(coeffs) == 1:
                out = np.full(zs.shape, math.log(abs(coeffs[0])))
            else:
                out = _log_modulus(np.polyval(coeffs, zs))
            if c:
                out += c.real * zs.real - c.imag * zs.imag
            return out
        radius = float(np.max(np.abs(zs)))
        if max(_log_term_bound(c, coeffs, radius) for c, coeffs in image) <= _EXP_SAFE:
            return _log_modulus(self(zs))
        shift, exps = self._scaled_exps(zs)
        total = sum(np.polyval(coeffs, zs) * e for (_, coeffs), e in zip(image, exps))
        return shift + _log_modulus(total)

    def _scaled_exps(self, z):
        """(M, [e^{c_k z - M} per term of float_image]) at a complex point or
        elementwise over a numpy array, M = max_k Re(c_k z) rounded toward 0
        to a multiple of 256: the factors are below e^256, so f(z) e^{-M} =
        sum_k p_k(z) e^{c_k z - M} cannot overflow, and M = 0 (no value
        changes) where the maximum lies in (-256, 256)."""
        if isinstance(z, np.ndarray):
            exp, top, fmod = np.exp, np.maximum.reduce, np.fmod
        else:
            z, exp, top, fmod = complex(z), cmath.exp, max, math.fmod
        czs = [c * z for c, _ in self.float_image]
        growth = top([w.real for w in czs])
        shift = growth - fmod(growth, 256.0)
        return shift, [exp(w - shift) for w in czs]

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"ExpPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for c in sorted(self.terms, key=lambda c: (c.re, c.im)):
            p = self.terms[c]
            ps = format_zpoly(p)
            if not c:
                parts.append(ps)
                continue
            if p.degree == 0 and p.leading() == 1:
                head = ""
            else:
                head = f"({ps})*" if (p.degree > 0 or "/" in ps or "-" in ps) else f"{ps}*"
            cs = scalar_str(c)
            arg = f"{cs}z" if cs not in ("1",) else "z"
            if any(ch in cs for ch in "+-/") and cs.lstrip("-") != cs or "+" in cs or "/" in cs:
                arg = f"({cs})z"
            parts.append(f"{head}exp({arg})")
        return " + ".join(parts)


def lattice_rows(components) -> tuple[tuple, list[list[tuple[tuple, tuple, ZPoly]]]]:
    """(basis, rows): f_j = sum_m p_m(z) w^m as rows[j] = [(m, e, p_m)], w_l =
    e^{gamma_l z}, the basis gamma_1..gamma_r (r <= 2) being the Hermite basis
    (g, y0), (0, h), left by Euclid, of the lattice the frequencies span in Z^2
    times their common denominator; e = m less the row's least m, so w^e is f_j
    over a unit."""
    freqs = {c for comp in components for c in comp.terms}
    scale = math.lcm(*(c.d for c in freqs))
    pts = {c: (c.a * scale // c.d, c.b * scale // c.d) for c in freqs}
    g = y0 = h = 0
    for x, y in pts.values():
        while x:
            g, y0, x, y = x, y, g % x, y0 - g // x * y
        h = math.gcd(h, y)
    coords = {c: (x // (g or 1),) * (g != 0)
              + ((y - x // (g or 1) * y0) // (h or 1),) * (h != 0) for c, (x, y) in pts.items()}
    basis = (GaussRat(g, y0) / scale,) * (g != 0) + (GaussRat(0, h) / scale,) * (h != 0)
    lows = [[min(ms) for ms in zip(*map(coords.get, comp.terms))] for comp in components]
    return basis, [[(coords[c], tuple(map(operator.sub, coords[c], low)), p)
                    for c, p in comp.terms.items()] for comp, low in zip(components, lows)]


def exponent_polys(components) -> Optional[tuple[tuple, list[ZPoly]]]:
    """(basis, [P_j]) with f_j = e^{c_j z} P_j(e^{gamma z}) and P_j(0) != 0, when
    every coefficient is constant and the frequencies span a lattice of rank
    <= 1, with basis (gamma,) or (); None otherwise."""
    basis, rows = lattice_rows(components)
    if len(basis) > 1 or any(p.degree > 0 for row in rows for _, _, p in row):
        return None
    polys = [{sum(e): p.coeffs[0] for _, e, p in row} for row in rows]
    return basis, [ZPoly([cs.get(k, 0) for k in range(1 + max(cs, default=0))]) for cs in polys]


def wronskian(fns: Iterable, orders: Optional[Sequence[int]] = None) -> object:
    """Determinant of the derivative matrix with one row per requested order.

    orders defaults to (0, 1, ..., len(fns)-1), the classical W(F_0,...,F_n).
    Elements need +, -, *, derivative(), and a zero test; exponential
    polynomials and rational functions both qualify, and scalars and ZPoly
    inputs are read as exponential polynomials.  An identically zero result
    is the dependence flag: it is returned, not raised, so callers decide
    severity.
    """
    fns = [f if e is None else e for f, e in ((f, ExpPoly._coerce(f)) for f in fns)]
    if not fns:
        raise ValueError("need at least one function")
    if orders is None:
        orders = range(len(fns))
    orders = tuple(orders)
    if len(orders) != len(fns):
        raise ValueError("need as many derivative orders as functions")
    if len(set(orders)) != len(orders) or any(k < 0 for k in orders):
        raise ValueError("orders must be distinct and nonnegative")
    rows = [fns]
    for _ in range(max(orders)):
        rows.append([g.derivative() for g in rows[-1]])
    return det_cofactor([rows[k] for k in orders])
