"""Input layer: scalar/polynomial expression strings and JSON descriptors.

Scalars and coefficient functions arrive as strings like "1/2", "3+2i", or
"(z^2+1)/(z-3)" and are parsed into exact values by a small recursive-descent
parser; no floats anywhere.  JSON descriptors for hypersurface systems and
curves are validated field by field, and every error carries a position (for
expressions) or a path (for JSON structure) so a bad input can be pointed at
rather than hunted for.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Optional, Union

from .fields import GaussRat, InputError, RatFunc, ZPoly
from .hpoly import HPoly
from .resultant import HypersurfaceFamily

if TYPE_CHECKING:
    from .nevanlinna import EntireCurve


class ParseError(InputError):
    """Expression syntax error, pointing into the source string."""

    def __init__(self, message: str, source: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.message = message
        self.source = source
        self.position = position

    def caret(self) -> str:
        """Two-line rendering: the source with a caret under the error."""
        return f"{self.source}\n{' ' * self.position}^ {self.message}"


class SchemaError(InputError):
    """Structural error in a JSON descriptor, pointing at a path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '$'}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/')? factor)*      absent operator = multiplication
#   factor := ('+'|'-') factor | atom ['^' uint]
#   atom   := uint | 'i' | 'z' | '(' expr ')'
#
# evaluated over rational functions in z with Gaussian-rational coefficients;
# constants stay Gaussian rationals, promoted to RatFunc only where z appears

_ATOM_START = ("int", "i", "z", "(")


def _tokenize(src: str):
    toks = []
    k, n = 0, len(src)
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            j = k + 1
            while j < n and src[j].isdigit():
                j += 1
            toks.append(("int", src[k:j], k))
            k = j
        elif ch in "iz":
            toks.append((ch, ch, k))
            k += 1
        elif ch in "+-*/^()":
            toks.append((ch, ch, k))
            k += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", src, k)
    toks.append(("end", "", n))
    return toks


_I = GaussRat(0, 1)


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def fail(self, message: str, pos: Optional[int] = None):
        raise ParseError(message, self.src,
                         self.toks[self.k][2] if pos is None else pos)

    def expr(self) -> Union[GaussRat, RatFunc]:
        v = self.term()
        while self.peek()[0] in "+-":
            op = self.take()
            rhs = self.term()
            v = v + rhs if op[0] == "+" else v - rhs
        return v

    def term(self) -> Union[GaussRat, RatFunc]:
        v = self.factor()
        while True:
            kind, _, pos = self.peek()
            if kind in "*/":
                self.take()
                rhs = self.factor()
                if kind == "/":
                    if not rhs:
                        self.fail("division by zero", pos)
                    v = v / rhs
                else:
                    v = v * rhs
            elif kind in _ATOM_START:
                v = v * self.factor()
            else:
                return v

    def factor(self) -> Union[GaussRat, RatFunc]:
        kind, _, _ = self.peek()
        if kind in "+-":
            self.take()
            v = self.factor()
            return -v if kind == "-" else v
        v = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, text, pos = self.peek()
            if kind != "int":
                self.fail("expected a nonnegative integer exponent")
            self.take()
            v = v ** int(text)
        return v

    def atom(self) -> Union[GaussRat, RatFunc]:
        kind, text, pos = self.take()
        if kind == "int":
            return GaussRat(int(text))
        if kind == "i":
            return _I
        if kind == "z":
            return RatFunc.var()
        if kind == "(":
            v = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'")
            self.take()
            return v
        self.fail("expected a number, i, z, or '('", pos)


def _parse(src: str) -> Union[GaussRat, RatFunc]:
    """The value of an expression string: a GaussRat unless z occurs."""
    p = _Parser(src)
    v = p.expr()
    if p.peek()[0] != "end":
        p.fail("trailing input")
    return v


def parse_ratfunc(src: str) -> RatFunc:
    """Rational function in z from an expression string."""
    return RatFunc.coerce(_parse(src))


def parse_zpoly(src: str) -> ZPoly:
    """Polynomial in z; rejects expressions with a genuine denominator."""
    v = _parse(src)
    if isinstance(v, GaussRat):
        return ZPoly((v,))
    if v.den.degree > 0:
        raise ParseError("expected a polynomial, found a denominator", src, 0)
    return v.num  # reduced form keeps the denominator monic, so it is 1 here


def parse_scalar(src: str) -> GaussRat:
    """Constant like "1/2" or "3+2i"; rejects anything involving z."""
    v = _parse(src)
    if isinstance(v, GaussRat):
        return v
    if not v.is_constant():
        raise ParseError("expected a constant, found z", src, 0)
    return v.constant_value()


# ---------------------------------------------------------------------------
# JSON descriptors


def _want(obj, key, kinds, path, kindname):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(path, f"missing required key {key!r}")
    v = obj[key]
    if not isinstance(v, kinds) or isinstance(v, bool):
        raise SchemaError(f"{path}.{key}" if path else key,
                          f"expected {kindname}, got {type(v).__name__}")
    return v


# a Gaussian-integer literal: "-2", "1-2i", "i", "0+1i"; a real part must end
# the string or meet the sign of an imaginary one, so "12i" is 12i
_GAUSS_LITERAL = re.compile(r"([+-]?[0-9]+(?=[+-]|\Z))?(?:([+-]?)([0-9]*)i)?")


def _coef_from_json(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(path, "coefficient must be an integer or a string")
    if isinstance(v, int):
        return v
    # a literal is read as the grammar would read it; anything else is parsed
    literal = _GAUSS_LITERAL.fullmatch(v)
    if v and literal:
        re_part, sign, im_digits = literal.groups()
        im = 0 if sign is None else (-1 if sign == "-" else 1) * int(im_digits or 1)
        return GaussRat(int(re_part or 0), im)
    try:
        r = _parse(v)
    except ParseError as e:
        raise SchemaError(path, str(e)) from e
    if isinstance(r, GaussRat):
        return r
    return r.constant_value() if r.is_constant() else r


def hpoly_from_json(obj, path: str = "") -> HPoly:
    """{"degree": d, "terms": [{"exp": [i0,...,in], "coef": "..."}]}"""
    degree = _want(obj, "degree", int, path, "an integer")
    if degree < 1:
        raise SchemaError(f"{path}.degree" if path else "degree",
                          "a form needs degree >= 1")
    terms = _want(obj, "terms", list, path, "a list")
    if not terms:
        raise SchemaError(f"{path}.terms" if path else "terms",
                          "a form needs at least one term")
    coeffs = {}
    nvars = None
    for k, t in enumerate(terms):
        tpath = f"{path}.terms[{k}]" if path else f"terms[{k}]"
        exp = _want(t, "exp", list, tpath, "a list of integers")
        if not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0
                   for e in exp):
            raise SchemaError(f"{tpath}.exp", "exponents must be integers >= 0")
        exp = tuple(exp)
        if nvars is None:
            nvars = len(exp)
        elif len(exp) != nvars:
            raise SchemaError(f"{tpath}.exp",
                              f"expected {nvars} exponents, got {len(exp)}")
        if sum(exp) != degree:
            raise SchemaError(f"{tpath}.exp",
                              f"total degree {sum(exp)} != {degree}")
        if exp in coeffs:
            raise SchemaError(f"{tpath}.exp", f"duplicate exponent {list(exp)}")
        c = _coef_from_json(_want(t, "coef", (int, str), tpath,
                                  "an integer or string"), f"{tpath}.coef")
        if c:
            coeffs[exp] = c
    if not coeffs:
        raise SchemaError(path or "$", "all coefficients are zero")
    return HPoly(nvars, degree, coeffs)


def family_from_json(obj) -> HypersurfaceFamily:
    """{"n": n, "polynomials": [<form>, ...]}"""
    n = _want(obj, "n", int, "", "an integer")
    if n < 1:
        raise SchemaError("n", "need n >= 1")
    polys = _want(obj, "polynomials", list, "", "a list")
    if not polys:
        raise SchemaError("polynomials", "need at least one form")
    out = []
    for k, p in enumerate(polys):
        hp = hpoly_from_json(p, f"polynomials[{k}]")
        if hp.nvars != n + 1:
            raise SchemaError(f"polynomials[{k}]",
                              f"form has {hp.nvars} variables, expected {n + 1}")
        out.append(hp)
    return HypersurfaceFamily(n, out)


def curve_from_json(obj) -> EntireCurve:
    """{"components": [{"terms": [{"poly": "...", "exp_coef": "a+bi"}]}]}"""
    # curves live in the numeric layer, which loads numpy: imported here, so
    # that reading a system does not
    from .expfunc import ExpPoly
    from .nevanlinna import EntireCurve

    comps = _want(obj, "components", list, "", "a list")
    if len(comps) < 2:
        raise SchemaError("components", "a curve needs at least two components")
    built = []
    for k, comp in enumerate(comps):
        cpath = f"components[{k}]"
        terms = _want(comp, "terms", list, cpath, "a list")
        total = ExpPoly.zero()
        for j, t in enumerate(terms):
            tpath = f"{cpath}.terms[{j}]"
            poly_src = _want(t, "poly", str, tpath, "a string")
            try:
                p = parse_zpoly(poly_src)
            except ParseError as e:
                raise SchemaError(f"{tpath}.poly", str(e)) from e
            freq = GaussRat(0)
            if "exp_coef" in t:
                if not isinstance(t["exp_coef"], str):
                    raise SchemaError(f"{tpath}.exp_coef", "expected a string")
                try:
                    freq = parse_scalar(t["exp_coef"])
                except ParseError as e:
                    raise SchemaError(f"{tpath}.exp_coef", str(e)) from e
            total = total + ExpPoly({freq: p})
        built.append(total)
    return EntireCurve(built)


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(path, f"invalid JSON at line {e.lineno} "
                                f"column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise SchemaError(path, f"cannot read file: {e.strerror}") from e


# hand-maintained schemas for --schema output; descriptive, not enforced by a
# validator (the loaders above are the validator)

SCALAR_GRAMMAR = ("expression over + - * / ^ ( ) with atoms: unsigned "
                  "integers, i, z; implicit multiplication allowed "
                  "(examples: \"1/2\", \"3+2i\", \"(z^2+1)/(z-3)\")")

POLY_SCHEMA = {
    "type": "object",
    "required": ["degree", "terms"],
    "properties": {
        "degree": {"type": "integer", "minimum": 1},
        "terms": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["exp", "coef"],
                "properties": {
                    "exp": {"type": "array",
                            "items": {"type": "integer", "minimum": 0},
                            "description": "one exponent per variable; "
                                           "total must equal degree"},
                    "coef": {"type": ["integer", "string"],
                             "description": SCALAR_GRAMMAR},
                },
            },
        },
    },
}

SYSTEM_SCHEMA = {
    "type": "object",
    "required": ["n", "polynomials"],
    "properties": {
        "n": {"type": "integer", "minimum": 1,
              "description": "target dimension; forms use n+1 variables"},
        "polynomials": {"type": "array", "minItems": 1, "items": POLY_SCHEMA},
    },
}

CURVE_SCHEMA = {
    "type": "object",
    "required": ["components"],
    "properties": {
        "components": {
            "type": "array",
            "minItems": 2,
            "items": {
                "type": "object",
                "required": ["terms"],
                "properties": {
                    "terms": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["poly"],
                            "properties": {
                                "poly": {"type": "string",
                                         "description": "polynomial in z"},
                                "exp_coef": {"type": "string",
                                             "description": "frequency c in "
                                                            "p(z)*exp(c*z); "
                                                            "default 0"},
                            },
                        },
                    },
                },
            },
        },
    },
}
