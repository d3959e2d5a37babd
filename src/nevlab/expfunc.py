"""Exponential polynomials: finite sums of p(z)*exp(c*z) with exact data.

p ranges over polynomials with Gaussian-rational coefficients and c over
Gaussian rationals.  The class is closed under ring operations and d/dz, the
zero test is exact (terms are keyed by frequency, so the canonical form of 0
is the empty sum), and evaluation at a complex point is the only approximate
operation.  Every float value (f(z), log|f|, the zero finder's f, f' and
noise floor) comes from one evaluator, ExpPoly.scaled: one Horner routine over
one cached image, with its exponentials from one scaling, _scaled_exps.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .fields import GaussRat, InputError, ZPoly, _pow_by_squaring, format_zpoly, scalar_str
from .linalg import det_cofactor

ScalarLike = Union[int, "GaussRat"]


def _horner(coeffs, z):
    """sum a_j z^j from (a_k, ..., a_0) at a point or over an array; a_0 alone stays a scalar."""
    acc = coeffs[0]
    for a in coeffs[1:]:
        acc *= z            # in place on an array after the first step
        acc += a
    return acc


def _log_modulus(values):
    """log|values|, by math.log for a scalar; -inf without a warning where they vanish."""
    if not isinstance(values, np.ndarray):
        return math.log(abs(values))
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


class ExpPoly:
    """sum over c of p_c(z) * exp(c*z), stored as {c: p_c} with p_c != 0."""

    __slots__ = ("terms", "_image", "_derivative", "_table", "_majorant")

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
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_majorant", None)

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
        """f e^{-M} e^M at a point, or over a numpy array (a constant f: one scalar)."""
        shift, fz = self.scaled(z)
        return fz * (np.exp(shift) if isinstance(shift, np.ndarray) else math.exp(shift))

    def log_abs(self, zs: np.ndarray) -> np.ndarray:
        """log|f| elementwise over a numpy array of points, -inf where f vanishes
        and finite elsewhere: e^{cz} is never formed where it could overflow."""
        image = self.float_image
        if not image:
            return np.full(zs.shape, -np.inf)
        if len(image) == 1:
            # log|p e^{cz}| = log|p| + Re(cz), exactly
            (c, coeffs), = image
            out = np.full(zs.shape, _log_modulus(_horner(coeffs, zs)))
            if c:
                out += c.real * zs.real - c.imag * zs.imag
            return out
        shift, fz = self.scaled(zs)
        return shift + _log_modulus(fz)

    def scaled(self, z, derivative: bool = False, floor: bool = True):
        """(M, f e^{-M}) at a complex point or elementwise over a numpy array: each
        p_k by _horner times its e^{c_k z - M} from _scaled_exps.  With derivative,
        (M, f e^{-M}, f' e^{-M}, floor e^{-M}), f' from the exact derivative's image
        and floor = 1024 eps sum_k A_k(|z|) |e^{c_k z}|, A_k(t) = sum |a| t^j over
        the terms a z^j of p_k, bounds the rounding error of f: a winding accepted
        with |f| above it along a contour counts zeros of f (Rouche), not noise.
        Without floor, (M, f e^{-M}, f' e^{-M}), for Newton's iteration."""
        shift, exps = self._scaled_exps(z)
        if derivative:
            exps = list(exps)       # read again for f' and the floor
        fz = 0j
        for (_, coeffs), e in zip(self.float_image, exps):
            term = _horner(coeffs, z)   # a fresh array over an array: products in place
            term *= e
            term += fz
            fz = term
        if not derivative:
            return shift, fz
        if self._table is None:     # per term: p_k' + c_k p_k (0 where it vanishes), |p_k|
            dimage = dict(zip(self.derivative().terms, self.derivative().float_image))
            object.__setattr__(self, "_table", tuple(
                (dimage[c][1] if c in dimage else (0j,), tuple(map(abs, coeffs)))
                for c, (_, coeffs) in zip(self.terms, self.float_image)))
        dfz = 0j
        for (dcoeffs, _), e in zip(self._table, exps):
            dfz += _horner(dcoeffs, z) * e
        if not floor:
            return shift, fz, dfz
        az, bound = abs(z), 0.0
        for (_, mags), e in zip(self._table, exps):
            bound += _horner(mags, az) * abs(e)
        return shift, fz, dfz, 1024 * math.ulp(1.0) * bound

    def taylor_majorant(self, z, h, shift):
        """(S2, E) at z, elementwise over numpy arrays, for the disk |w - z| <= h in the
        frame of the shift M that scaled returned at z.  S2 = sum_k Q_k(|z| + h)
        e^{Re(c_k z) - M + |c_k| h} bounds |f''| e^{-M} on the disk, Q_k(t) = sum |a| t^j
        over the terms a z^j of p_k'' + 2 c_k p_k' + c_k^2 p_k; E = 1024 eps sum_k D_k(|z|)
        e^{Re(c_k z) - M}, D_k likewise from p_k' + c_k p_k, bounds the rounding of
        f' e^{-M} as scaled's floor bounds that of f e^{-M}.  With (M, F, F', floor) =
        scaled(z, derivative=True), Taylor's theorem makes

            (2 h (|F'| + E) + S2 h^2 + floor) (1 + 2^-30) < |F|

        prove |f(w)/f(z) - 1| < 1/2 on the disk: f has no zero there, and between two of
        its points arg f turns by the principal angle of their value ratio.  The factor
        covers the rounding of the left side: sums and products of nonnegative floats,
        each within (deg + 8) eps, and exponentials, moved by 4 eps times the moduli their
        arguments are formed from, below 2^-31 in all while those and the degrees stay
        below 2^18.  A bound past the float range is inf or nan: it fails, with no warning."""
        if self._majorant is None:     # per term of f': c_k, |c_k|, D_k, and Q_k or None
            first = self.derivative()
            second = first.derivative()
            twos = dict(zip(second.terms, second.float_image))
            object.__setattr__(self, "_majorant", tuple(
                (c, abs(c), tuple(map(abs, coeffs)),
                 tuple(map(abs, twos[key][1])) if key in twos else None)
                for key, (c, coeffs) in zip(first.terms, first.float_image)))
        t = np.abs(z)
        e1 = s2 = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for c, size, ones, twos in self._majorant:
                e = np.exp((c * z).real - shift)
                e1 = e1 + _horner(ones, t) * e
                if twos is not None:
                    s2 = s2 + _horner(twos, t + h) * e * np.exp(size * h)
        return s2, 1024 * math.ulp(1.0) * e1

    def _scaled_exps(self, z):
        """(M, e^{c_k z - M} per term of float_image) at a complex point or
        elementwise over a numpy array, M = max_k Re(c_k z) rounded toward 0 to a
        multiple of 256, so f(z) e^{-M} = sum_k p_k(z) e^{c_k z - M} cannot overflow.
        The factors come from an iterator that forms each one when it is drawn,
        over an array in place of its c_k z, so a caller that sums as it draws
        holds one factor at a time.  M = 0 changes no value, so where the maximum
        lies in (-256, 256) at every point it is taken without fmod or
        subtraction; e^{0z - M} is the real e^{-M}."""
        array = isinstance(z, np.ndarray)
        exp, top, fmod = ((_exp_in_place, np.maximum, np.fmod) if array
                          else (cmath.exp, max, math.fmod))
        czs = [c * z if c else None for c, _ in self.float_image]
        reals = [w.real for w in czs if w is not None]
        if len(reals) < len(czs) or not reals:      # Re(0 z) = 0 joins the max
            reals.append(0.0)
        m = functools.reduce(top, reals)
        peak = np.abs(m).max(initial=0.0) if isinstance(m, np.ndarray) else abs(m)
        if peak < 256.0:
            return 0.0, _factors(czs, None, exp)
        m = m - fmod(m, 256.0)
        return m, _factors(czs, m, exp)

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
            arg = f"({cs})z" if any(ch in cs for ch in "+-/") else "z" if cs == "1" else f"{cs}z"
            parts.append(f"{head}exp({arg})")
        return " + ".join(parts)


def _exp_in_place(w: np.ndarray) -> np.ndarray:
    return np.exp(w, out=w)


def _factors(czs: list, m, exp):
    """e^{w - m} for each w of czs, e^{-m} for None (a zero frequency), with no
    shift when m is None; each formed when drawn, in place of w, and dropped
    from czs, so it lives only as long as the caller holds it."""
    for k, w in enumerate(czs):
        czs[k] = None
        if w is None:
            yield 1.0 if m is None else exp(-m)
        else:
            if m is not None:
                w -= m
            yield exp(w)


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
        raise InputError("need at least one function")
    if orders is None:
        orders = range(len(fns))
    orders = tuple(orders)
    if len(orders) != len(fns):
        raise InputError(f"need {len(fns)} derivative orders, one per function, got {orders}")
    if len(set(orders)) != len(orders) or any(k < 0 for k in orders):
        raise InputError(f"orders must be distinct and nonnegative, got {orders}")
    rows = [fns]
    for _ in range(max(orders)):
        rows.append([g.derivative() for g in rows[-1]])
    return det_cofactor([rows[k] for k in orders])
