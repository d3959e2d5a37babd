"""Rational functions of several variables, unreduced, over Gaussian rationals.

There is no multivariate gcd here: fractions stay unreduced and equality is
by cross-multiplication.  That is enough for the admissible-derivative-set
search, which only needs exact field arithmetic and rank decisions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .fields import GaussRat, scalar_str
from .linalg import RowReducer, det_cofactor


class MPoly:
    """Polynomial in m variables, {exponent tuple: nonzero GaussRat}."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if len(e) != m or any(k < 0 for k in e):
                    raise ValueError(f"bad exponent {e} for {m} variables")
                c = GaussRat.coerce(c)
                if c:
                    clean[tuple(e)] = c
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @staticmethod
    def const(m: int, c) -> "MPoly":
        return MPoly(m, {(0,) * m: c})

    @staticmethod
    def var(m: int, k: int) -> "MPoly":
        e = [0] * m
        e[k] = 1
        return MPoly(m, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other):
        if isinstance(other, MPoly):
            if other.m != self.m:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, GaussRat)) or type(other).__name__ == "Fraction":
            return MPoly.const(self.m, other)
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return MPoly(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.m, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return MPoly(self.m, out)

    __rmul__ = __mul__

    def partial(self, k: int) -> "MPoly":
        out = {}
        for e, c in self.coeffs.items():
            if e[k]:
                le = list(e)
                le[k] -= 1
                out[tuple(le)] = c * e[k]
        return MPoly(self.m, out)

    def __call__(self, point: Sequence):
        total = GaussRat.coerce(0) if all(isinstance(p, (int, GaussRat)) for p in point) else 0j
        for e, c in self.coeffs.items():
            term = c if isinstance(total, GaussRat) else complex(c)
            for p, k in zip(point, e):
                for _ in range(k):
                    term = term * p
            total = total + term
        return total

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            factors = [f"z{k+1}" + (f"^{p}" if p > 1 else "") for k, p in enumerate(e) if p]
            cs = scalar_str(c)
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors:
                head = f"({cs})" if any(ch in cs for ch in "+-/") and cs != "-1" else cs
                parts.append("*".join([head] + factors) if cs != "-1" else "-" + "*".join(factors))
            else:
                parts.append(cs)
        return " + ".join(parts)

    __repr__ = __str__


class MRat:
    """Unreduced fraction of MPoly; a field via cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly = None):
        if den is None:
            den = MPoly.const(num.m, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("MRat is immutable")

    @property
    def m(self) -> int:
        return self.num.m

    @staticmethod
    def const(m: int, c) -> "MRat":
        return MRat(MPoly.const(m, c))

    @staticmethod
    def var(m: int, k: int) -> "MRat":
        return MRat(MPoly.var(m, k))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, MRat):
            return other
        if isinstance(other, MPoly):
            return MRat(other)
        if isinstance(other, (int, GaussRat)) or type(other).__name__ == "Fraction":
            return MRat.const(self.m, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return MRat(-self.num, self.den)

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
        return MRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "MRat":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return MRat(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def partial(self, k: int) -> "MRat":
        return MRat(self.num.partial(k) * self.den - self.num * self.den.partial(k),
                    self.den * self.den)

    def derive(self, alpha: Sequence[int]) -> "MRat":
        """D^alpha, iterated partials (they commute)."""
        out = self
        for k, reps in enumerate(alpha):
            for _ in range(reps):
                out = out.partial(k)
        return out

    def __call__(self, point: Sequence):
        den = self.den(point)
        if not den:
            raise ZeroDivisionError(f"pole at {point}")
        num = self.num(point)
        if isinstance(num, GaussRat) and isinstance(den, GaussRat):
            return num / den
        return complex(num) / complex(den)

    def complexity(self) -> int:
        # pivot-selection proxy for exact elimination
        return len(self.num.coeffs) + len(self.den.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("unreduced fractions have no canonical hash")

    def __str__(self):
        if self.den == MPoly.const(self.m, 1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _indices_at_level(m: int, level: int):
    """Multi-indices in N^m with |alpha| = level, ascending lexicographic."""
    if m == 1:
        yield (level,)
        return
    out = [i for i in itertools.product(range(level + 1), repeat=m) if sum(i) == level]
    out.sort()
    yield from out


@dataclass(frozen=True)
class AdmissibleSet:
    """Derivative multi-indices whose rows span the jet filtration levels."""

    alphas: tuple[tuple[int, ...], ...]
    p0: int
    wronskian: MRat

    @property
    def weight(self) -> int:
        return sum(sum(a) for a in self.alphas)


def admissible_derivative_set(fns: Sequence[MRat]) -> AdmissibleSet:
    """Greedy admissible set for linearly independent rational functions.

    Scans multi-indices by total order then lexicographic order, keeping those
    whose derivative row (D^a F_0, ..., D^a F_n) extends the rank over the
    rational-function field.  For independent inputs the rank fills by level
    p_0 <= n and the total weight is at most n(n+1)/2.
    """
    fns = list(fns)
    n1 = len(fns)
    n = n1 - 1
    m = fns[0].m
    if any(f.m != m for f in fns):
        raise ValueError("variable count mismatch")
    cache: dict[tuple, list] = {(0,) * m: fns}
    red = RowReducer()
    chosen: list[tuple[int, ...]] = []
    rows = []
    p0 = 0
    for level in range(0, n + 1):
        for alpha in _indices_at_level(m, level):
            if len(chosen) == n1:
                break
            if alpha not in cache:
                k = next(i for i, a in enumerate(alpha) if a)
                parent = list(alpha)
                parent[k] -= 1
                base = cache[tuple(parent)]
                cache[alpha] = [g.partial(k) for g in base]
            row = {j: g for j, g in enumerate(cache[alpha]) if g}
            if red.add(dict(row)):
                chosen.append(alpha)
                rows.append([cache[alpha][j] for j in range(n1)])
                p0 = level
        if len(chosen) == n1:
            break
    if len(chosen) != n1:
        raise ValueError("functions are linearly dependent over the constants")
    w = det_cofactor(rows)
    if w.is_zero():
        raise AssertionError("admissible set produced a vanishing determinant")
    result = AdmissibleSet(alphas=tuple(chosen), p0=p0, wronskian=w)
    if result.weight > n * (n + 1) // 2 or p0 > n:
        raise ArithmeticError(f"admissible set of weight {result.weight} and "
                              f"order {p0} exceeds the bounds n(n+1)/2 and n")
    return result
