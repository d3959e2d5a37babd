"""Exact sparse linear algebra over the scalar tower, and certified modular ranks.

Vectors are dicts {column index: nonzero scalar}; matrices are lists of such
rows.  Everything is exact: elimination divides by pivots, and division in
Fraction/GaussRat/RatFunc is exact with canonical results.  Rows carrying
rational-function entries are scaled by a common denominator first, so the
bulk of the elimination runs on polynomial numerators.

`certified_rank` answers a rank question whose answer is bounded above by a
known value without exact arithmetic when it can: reduced modulo a prime,
with i and z sent to fixed residues, a matrix can only lose rank, so a
modular rank that reaches the upper bound is the exact rank.  When it falls
short on both primes of `MODULI`, exact elimination decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .fields import GaussRat, RatFunc, zpoly_gcd


def _inv(s):
    inverse = getattr(s, "inverse", None)
    if inverse is not None:
        return inverse()
    return Fraction(1) / s


def _complexity(s) -> int:
    """Cheap growth proxy used for pivot selection."""
    if isinstance(s, int):
        return s.bit_length()
    if isinstance(s, Fraction):
        return s.numerator.bit_length() + s.denominator.bit_length()
    if isinstance(s, GaussRat):
        return (s.re.numerator.bit_length() + s.re.denominator.bit_length()
                + s.im.numerator.bit_length() + s.im.denominator.bit_length())
    if isinstance(s, RatFunc):
        return 1000 * (s.num.degree + s.den.degree + 1)
    proxy = getattr(s, "complexity", None)
    if proxy is not None:
        return proxy()
    return 1 << 30


def clear_denominators(vec: dict, rhs=None):
    """Scale a row (and optional rhs) by the lcm of RatFunc denominators."""
    mult = None
    for v in vec.values():
        if isinstance(v, RatFunc) and v.den.degree > 0:
            mult = v.den if mult is None else mult * (v.den // zpoly_gcd(mult, v.den))
    if rhs is not None and isinstance(rhs, RatFunc) and rhs.den.degree > 0:
        mult = rhs.den if mult is None else mult * (rhs.den // zpoly_gcd(mult, rhs.den))
    if mult is None:
        return vec, rhs
    m = RatFunc(mult)
    vec = {c: v * m if isinstance(v, RatFunc) else m * v for c, v in vec.items()}
    if rhs is not None:
        rhs = rhs * m if isinstance(rhs, RatFunc) else m * rhs
    return vec, rhs


class Inconsistent(Exception):
    """A linear system has no solution."""


class RowReducer:
    """Incremental exact Gauss-Jordan elimination.

    Stored pivot rows are normalized (pivot entry 1) and fully reduced against
    each other, so `rank` is just the pivot count and a solution of the fed
    equations reads off directly (free variables set to zero).
    """

    def __init__(self, track_rhs: bool = False):
        self.pivots: dict[int, dict] = {}
        self.rhs: dict[int, object] = {}
        self.track_rhs = track_rhs

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict, rhs=None):
        """Residual of vec (and rhs) after eliminating all known pivots."""
        res = dict(vec)
        for col in [c for c in res if c in self.pivots]:
            coef = res.get(col)
            if not coef:
                res.pop(col, None)
                continue
            del res[col]
            for c2, v2 in self.pivots[col].items():
                if c2 == col:
                    continue
                cur = res.get(c2)
                nv = -coef * v2 if cur is None else cur - coef * v2
                if nv:
                    res[c2] = nv
                elif c2 in res:
                    del res[c2]
            if rhs is not None:
                rhs = rhs - coef * self.rhs[col]
        return res, rhs

    def add(self, vec: dict, rhs=None) -> bool:
        """Feed one row (equation).  True if the rank grew.

        With track_rhs, an inconsistent equation (0 = nonzero) raises
        Inconsistent.
        """
        if self.track_rhs and rhs is None:
            rhs = Fraction(0)
        vec = {c: v for c, v in vec.items() if v}
        vec, rhs = clear_denominators(vec, rhs)
        res, rhs = self.reduce(vec, rhs)
        if not res:
            if self.track_rhs and rhs:
                raise Inconsistent("zero row with nonzero right-hand side")
            return False
        col = min(res, key=lambda c: (_complexity(res[c]), c))
        inv = _inv(res[col])
        row = {c: v * inv for c, v in res.items()}
        row[col] = Fraction(1)
        if self.track_rhs:
            rhs = rhs * inv if rhs else Fraction(0)
        for pcol, prow in self.pivots.items():
            coef = prow.get(col)
            if coef:
                del prow[col]
                for c2, v2 in row.items():
                    if c2 == col:
                        continue
                    cur = prow.get(c2)
                    nv = -coef * v2 if cur is None else cur - coef * v2
                    if nv:
                        prow[c2] = nv
                    elif c2 in prow:
                        del prow[c2]
                if self.track_rhs:
                    self.rhs[pcol] = self.rhs[pcol] - coef * rhs
        self.pivots[col] = row
        if self.track_rhs:
            self.rhs[col] = rhs
        return True

    def solution(self) -> dict:
        """Pivot-variable values solving the fed equations (free vars = 0)."""
        if not self.track_rhs:
            raise ValueError("reducer was built without rhs tracking")
        return dict(self.rhs)


def solve_system(rows: Iterable[tuple[dict, object]]) -> Optional[dict]:
    """One exact solution {col: value} of the equations, or None if none exists.

    Each item is (row, rhs) representing sum(row[c] * x_c) = rhs.  Unmentioned
    variables are free and set to zero.
    """
    red = RowReducer(track_rhs=True)
    try:
        for row, rhs in rows:
            red.add(row, rhs)
    except Inconsistent:
        return None
    return red.solution()


def det_sparse(rows: list[dict], size: int):
    """Exact determinant of a size x size matrix given as sparse rows."""
    if len(rows) != size:
        raise ValueError("row count does not match size")
    work = [dict(r) for r in rows]
    remaining = set(range(size))
    det = Fraction(1)
    order = []
    for col in range(size):
        cand = [i for i in remaining if work[i].get(col)]
        if not cand:
            return Fraction(0)
        i = min(cand, key=lambda i: (len(work[i]), _complexity(work[i][col]), i))
        remaining.remove(i)
        order.append(i)
        piv = work[i][col]
        det = piv * det
        inv = _inv(piv)
        prow = {c: v * inv for c, v in work[i].items() if c != col}
        for j in remaining:
            rj = work[j]
            f = rj.get(col)
            if not f:
                rj.pop(col, None)
                continue
            del rj[col]
            for c, v in prow.items():
                cur = rj.get(c)
                nv = -f * v if cur is None else cur - f * v
                if nv:
                    rj[c] = nv
                elif c in rj:
                    del rj[c]
    inv_count = sum(1 for a in range(size) for b in range(a + 1, size)
                    if order[a] > order[b])
    if inv_count % 2:
        det = -det
    return det


def _entry_is_zero(e) -> bool:
    probe = getattr(e, "is_zero", None)
    if probe is not None:
        return probe()
    return not e


def det_cofactor(mat):
    """Determinant by first-row cofactor expansion.

    Works over any commutative ring (entries need +, -, *, and a zero test);
    used for small dense matrices of polynomials or rational functions where
    elimination's divisions would be costly or unavailable.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    if n == 1:
        return mat[0][0]
    total = None
    for j, e in enumerate(mat[0]):
        if _entry_is_zero(e):
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = e * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        z = mat[0][0]
        return z - z
    return total


# Two primes p = 1 (mod 4), each with a square root of -1 mod p (the image of
# i) and a fixed residue (the image of z), tried in this order.
MODULI = ((2305843009213693921, 583529827753931384, 1234567891011),
          (2305843009213693693, 966685122347009555, 1098765432101))


def _mod_p(s, p: int, i: int, z0: int) -> Optional[int]:
    """Image of an exact scalar under Q(i)(z) -> GF(p), i -> i, z -> z0.

    None when a denominator vanishes there: the scalar lies outside the local
    ring on which that map is a ring homomorphism.
    """
    if isinstance(s, RatFunc):
        num, den = (_horner_mod_p(f.coeffs, p, i, z0) for f in (s.num, s.den))
        if num is None or not den:
            return None
        return num * pow(den, -1, p) % p
    if isinstance(s, GaussRat):
        re, im = _mod_p(s.re, p, i, z0), _mod_p(s.im, p, i, z0)
        if re is None or im is None:
            return None
        return (re + i * im) % p
    s = Fraction(s)
    den = s.denominator % p
    return s.numerator * pow(den, -1, p) % p if den else None


def _horner_mod_p(coeffs, p: int, i: int, z0: int) -> Optional[int]:
    acc = 0
    for c in reversed(coeffs):
        v = _mod_p(c, p, i, z0)
        if v is None:
            return None
        acc = (acc * z0 + v) % p
    return acc


def _rows_mod_p(rows: Sequence[dict], p: int, i: int, z0: int) -> Optional[list]:
    """The rows' images mod p, or None when some entry has no image.

    Rows built by shifting exponents share their scalar objects, so each
    distinct object is reduced once.
    """
    seen: dict = {}
    out = []
    for row in rows:
        image = {}
        for c, v in row.items():
            m = seen.get(id(v), -1)
            if m == -1:
                m = seen[id(v)] = _mod_p(v, p, i, z0)
                if m is None:
                    return None
            if m:
                image[c] = m
        out.append(image)
    return out


def _rank_mod_p(rows: list, p: int, bound: int) -> int:
    """Rank over GF(p) of integer rows (consumed), stopping once it reaches bound.

    Each stored pivot row starts at its pivot column, so an incoming row is
    reduced by clearing its smallest column until that column is new.
    """
    pivots: dict = {}
    for row in rows:
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                if len(pivots) >= bound:
                    return len(pivots)
                break
            f = row.pop(col)
            for c, v in prow.items():
                if c != col:
                    nv = (row.get(c, 0) - f * v) % p
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
    return len(pivots)


def modular_rank_reaches(rows: Sequence[dict], bound: int) -> bool:
    """True when the rows' rank modulo some prime of MODULI reaches `bound`.

    Send i and z to the prime's residues.  On the ring of elements of Q(i)(z)
    whose denominators do not vanish there, that is a ring homomorphism onto
    GF(p), and it maps every vanishing minor to zero, so when every entry lies
    in that ring the rank mod p is at most the exact rank.  A caller that
    knows the exact rank is at most `bound` thus knows it equals `bound` when
    this returns True.  A prime at which some entry has no image is skipped;
    False proves nothing.
    """
    for p, i, z0 in MODULI:
        image = _rows_mod_p(rows, p, i, z0)
        if image is not None and _rank_mod_p(image, p, bound) >= bound:
            return True
    return False


def certified_rank(rows: Sequence[dict], bound: int) -> tuple[int, bool]:
    """Exact rank of `rows`, given an upper bound on it.

    Certified modular rank, exact fallback: (bound, True) when a modular rank
    reaches the bound, else the rank from exact elimination and False.  The
    caller is responsible for `bound` being an upper bound.
    """
    if modular_rank_reaches(rows, bound):
        return bound, True
    red = RowReducer()
    for row in rows:
        red.add(row)
    return red.rank, False


@dataclass(frozen=True)
class RankPaths:
    """How many ranks a certified modular rank decided, and how many exact
    elimination (or, for resultants, exact evaluation) decided."""

    modular: int
    exact: int

    @staticmethod
    def count(modular_flags: Sequence[bool]) -> "RankPaths":
        decided = sum(modular_flags)
        return RankPaths(decided, len(modular_flags) - decided)
