"""Sparse homogeneous multivariate polynomials over the exact scalar tower.

A polynomial of degree d in variables x_0..x_n is a map from exponent tuples
(i_0,...,i_n) with i_0+...+i_n = d to nonzero scalars (Fraction, GaussRat or
RatFunc).  Exponent tuples are plain Python tuples, so the lexicographic order
on them is native tuple comparison; monomial enumerations are produced in
lexicographically descending order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .fields import (GaussRat, RatFunc, _pow_by_squaring, scalar_str,
                     simplify_scalar)

ExponentTuple = tuple


@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple[ExponentTuple, ...]:
    """All exponent tuples of n+1 variables with total degree d, lex descending.

    Length is C(n+d, n).
    """
    if n < 0 or d < 0:
        raise ValueError("monomials requires n >= 0 and d >= 0")
    if n == 0:
        return ((d,),)
    out = []
    for i0 in range(d, -1, -1):
        for rest in monomials(n - 1, d - i0):
            out.append((i0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict:
    """Position of each exponent tuple in monomials(n, d); callers must not
    mutate the shared dict."""
    return {m: k for k, m in enumerate(monomials(n, d))}


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, GaussRat, RatFunc))


class HPoly:
    """Immutable sparse homogeneous polynomial."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs: Mapping[ExponentTuple, object] = ()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 for e in exp) or sum(exp) != degree:
                raise ValueError(f"exponent {exp} is not degree-{degree} in {nvars} variables")
            if not _is_scalar(c):
                raise TypeError(f"coefficient {c!r} is not an exact scalar")
            if isinstance(c, int):
                c = Fraction(c)
            if c:
                prev = clean.get(exp)
                c = c if prev is None else prev + c
                if c:
                    clean[exp] = c
                elif exp in clean:
                    del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int, degree: int) -> "HPoly":
        return HPoly(nvars, degree, {})

    @staticmethod
    def monomial(nvars: int, exp: Sequence[int], coef=1) -> "HPoly":
        exp = tuple(exp)
        return HPoly(nvars, sum(exp), {exp: coef})

    @staticmethod
    def coordinate(nvars: int, k: int) -> "HPoly":
        exp = tuple(1 if j == k else 0 for j in range(nvars))
        return HPoly(nvars, 1, {exp: 1})

    # -- ring ops -------------------------------------------------------------

    def _check_compat(self, other: "HPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        self._check_compat(other)
        if self.degree != other.degree:
            if not self.coeffs:
                return other
            if not other.coeffs:
                return self
            raise ValueError(f"degree mismatch in add: {self.degree} vs {other.degree}")
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return HPoly(self.nvars, self.degree, out)

    def __neg__(self):
        return HPoly(self.nvars, self.degree, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HPoly):
            self._check_compat(other)
            out: dict = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    p = c1 * c2
                    s = out.get(e)
                    s = p if s is None else s + p
                    if s:
                        out[e] = s
                    elif e in out:
                        del out[e]
            return HPoly(self.nvars, self.degree + other.degree, out)
        if _is_scalar(other):
            if not other:
                return HPoly.zero(self.nvars, self.degree)
            return HPoly(self.nvars, self.degree,
                         {e: c * other for e, c in self.coeffs.items()})
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return _pow_by_squaring(self, k, HPoly(self.nvars, 0, {(0,) * self.nvars: 1}))

    # -- evaluation and calculus ----------------------------------------------

    def __call__(self, xs: Sequence) -> object:
        """Exact evaluation at a vector of scalars (length nvars)."""
        if len(xs) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(xs)}")
        total = None
        for exp, c in self.coeffs.items():
            term = c
            for x, e in zip(xs, exp):
                if e:
                    term = term * x ** e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    # -- inspection -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_moving(self) -> bool:
        """True when some coefficient is a nonconstant rational function."""
        return any(isinstance(c, RatFunc) and not c.is_constant()
                   for c in self.coeffs.values())

    def terms_desc(self):
        """(exponent, coefficient) pairs in lexicographically descending order."""
        return sorted(self.coeffs.items(), key=lambda t: t[0], reverse=True)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and {e: simplify_scalar(c) for e, c in self.coeffs.items()}
                == {e: simplify_scalar(c) for e, c in other.coeffs.items()})

    def __hash__(self):
        return hash((self.nvars, self.degree,
                     tuple(sorted((e, scalar_str(c)) for e, c in self.coeffs.items()))))

    def __repr__(self):
        return f"HPoly({self.nvars}, {self.degree}, {self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exp, c in self.terms_desc():
            mono = "*".join(f"x{k}^{e}" if e > 1 else f"x{k}"
                            for k, e in enumerate(exp) if e)
            ctxt = scalar_str(c)
            if mono:
                if ctxt == "1":
                    body = mono
                elif ctxt == "-1":
                    body = f"-{mono}"
                else:
                    if ("+" in ctxt[1:]) or ("-" in ctxt[1:]) or "/" in ctxt:
                        ctxt = f"({ctxt})"
                    body = f"{ctxt}*{mono}"
            else:
                body = ctxt
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)
