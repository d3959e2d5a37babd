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

Values over Q(i) are multimodular in the same spirit (`_multimodular`):
`det_sparse` and the transposed solve `solve_transposed` scale the rows to
Gaussian integers, eliminate modulo a product of primes of `PRIMES` that
exceeds twice the Hadamard bound, and lift the residues; when the table is
too short, or an entry is a rational function, exact elimination decides.
See von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
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


def _odd(order: Sequence[int]) -> bool:
    """Whether the permutation listed by `order` is odd."""
    n = len(order)
    return sum(1 for a in range(n) for b in range(a + 1, n) if order[a] > order[b]) % 2 == 1


def det_sparse(rows: list[dict], size: int, paths: Optional[list] = None):
    """Exact determinant of a size x size matrix given as sparse rows.

    A matrix over Q(i) is tried multimodular first (`_multimodular`); exact
    elimination decides when that finds no certificate.  `paths`, when
    given, gets True appended when the multimodular path decided and False
    otherwise.
    """
    if len(rows) != size:
        raise ValueError("row count does not match size")
    found = _multimodular(rows, size)
    if paths is not None:
        paths.append(found is not None)
    if found is not None:
        return found[0]
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
    return -det if _odd(order) else det


def solve_transposed(rows: list[dict], col: int) -> tuple[Optional[list], bool]:
    """The x with sum_r x[r] * rows[r] == e_col for a square matrix M (row
    `col` of M^-1), and whether the multimodular path decided.

    x is None when M is singular.  Multimodular Cramer (`_multimodular`)
    first, else exact elimination of the transposed system; the solution is
    unique, so both give the same x.
    """
    size = len(rows)
    found = _multimodular(rows, size, col)
    if found is not None:
        return found[1], True
    eqs: list[dict] = [{} for _ in range(size)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            eqs[c][r] = v
    red = RowReducer(track_rhs=True)
    try:
        for c, eq in enumerate(eqs):
            red.add(eq, Fraction(int(c == col)))
    except Inconsistent:
        return None, False
    if red.rank < size:
        return None, False
    sol = red.solution()
    return [sol[r] for r in range(size)], False


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


# Primes p = 1 (mod 4) below 2^61, each with a square root of -1 mod p (the
# image of i), in the order the multimodular path draws them.
PRIMES = (
    (2305843009213693921, 583529827753931384),
    (2305843009213693693, 966685122347009555),
    (2305843009213693669, 1015389886790033265),
    (2305843009213693613, 330140092769082148),
    (2305843009213693561, 122194233146733190),
    (2305843009213693549, 650433518546416748),
    (2305843009213693421, 647753841339350312),
    (2305843009213693373, 183642662115504988),
    (2305843009213693277, 126767930630052624),
    (2305843009213693193, 397602110296354281),
    (2305843009213693153, 848124098761501724),
    (2305843009213693133, 127339106555888032),
    (2305843009213693109, 743754617659584376),
    (2305843009213693093, 694560745875551753),
    (2305843009213693013, 1089368059800028542),
    (2305843009213692937, 395191341510334577),
)

# The certified rank's moduli: the first two primes, each with a fixed
# residue as the image of z, tried in this order.
MODULI = tuple((p, i, z0) for (p, i), z0 in zip(PRIMES, (1234567891011, 1098765432101)))


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


def _eliminate_mod(rows: list, ncols: int, m: int, bound: int) -> Optional[list]:
    """Gaussian elimination over Z/m of integer rows (consumed), in columns
    0..ncols-1.

    Column by column, the sparsest remaining row holding the column is the
    pivot row: it is divided by its pivot entry and cleared from the other
    remaining rows.  Returns the pivots in column order as (column, row,
    entry, divided row), stopping once there are `bound`; None when an entry
    is no unit mod m, which for m a product of primes means an unlucky one.
    """
    remaining = set(range(len(rows)))
    pivots: list = []
    for col in range(ncols):
        cand = [k for k in remaining if col in rows[k]]
        if not cand:
            continue
        k = min(cand, key=lambda k: (len(rows[k]), k))
        remaining.remove(k)
        piv = rows[k].pop(col)
        try:
            inv = pow(piv, -1, m)
        except ValueError:
            return None
        prow = {c: v * inv % m for c, v in rows[k].items()}
        pivots.append((col, k, piv, prow))
        if len(pivots) >= bound:
            break
        for j in remaining:
            row = rows[j]
            f = row.pop(col, None)
            if f:
                for c, v in prow.items():
                    nv = (row.get(c, 0) - f * v) % m
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
    return pivots


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
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    for p, i, z0 in MODULI:
        image = _rows_mod_p(rows, p, i, z0)
        if image is not None and len(_eliminate_mod(image, ncols, p, bound)) >= bound:
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


def _gaussian_integer_rows(rows: Sequence[dict]):
    """Each row times the lcm of its entries' denominators, with entries as
    (re, im) integer pairs, and those multipliers; None when some entry is
    not an int, Fraction or GaussRat."""
    scaled, scales = [], []
    for row in rows:
        parts = {}
        for c, v in row.items():
            if isinstance(v, GaussRat):
                parts[c] = (v.re, v.im)
            elif isinstance(v, (int, Fraction)):
                parts[c] = (v, 0)
            else:
                return None
        scale = lcm(*(x.denominator for pair in parts.values() for x in pair))
        scaled.append({c: (re.numerator * (scale // re.denominator),
                           im.numerator * (scale // im.denominator))
                       for c, (re, im) in parts.items()})
        scales.append(scale)
    return scaled, scales


def _modulus(bound: int) -> Optional[tuple[int, int]]:
    """(m, s): m the product of the fewest leading primes of PRIMES with
    m > bound, s a square root of -1 mod m (the primes' roots joined by CRT);
    None when the whole table falls short."""
    m, s = 1, 0
    for p, i in PRIMES:
        s += m * ((i - s) * pow(m, -1, p) % p)
        m *= p
        if m > bound:
            return m, s
    return None


def _multimodular(rows: Sequence[dict], size: int, col: Optional[int] = None):
    """Certified determinant of a square matrix over Q(i) and, given `col`,
    the x with sum_r x[r] * rows[r] == e_col.

    Scale row r by L_r to Gaussian integers: det M = D / prod L_r, D the
    scaled determinant.  Re D, Im D, and every (size-1)-minor when D != 0
    (the rows are then nonzero, of norm >= 1), are at most the Hadamard
    bound H = prod ||row||_2.  Modulo m > 2H + 1, a product of primes
    p = 1 (mod 4), i has the two images s and -s; each is a ring map from
    Z[i], so eliminating the transposed scaled matrix under both gives
    a + bs and a - bs for D = a + bi, hence a and b mod m, and by the bound
    exactly.  The same elimination solves M_s^T u = e_col, so w = D u is row
    `col` of adj(M_s), a Gaussian-integer vector lifted the same way, and
    x[r] = L_r w[r] / D.  Returns (det M, x), with x None when no `col` is
    given or D = 0, and None when there is no certificate: an entry outside
    Q(i), a table too short for H, or a pivot that is no unit mod m.
    """
    found = _gaussian_integer_rows(rows)
    if found is None:
        return None
    scaled, scales = found
    hadamard = isqrt(prod(sum(a * a + b * b for a, b in row.values()) for row in scaled)) + 1
    found = _modulus(2 * hadamard + 1)
    if found is None:
        return None
    m, s = found
    residues = []
    for root in (s, m - s):
        image: list[dict] = [{} for _ in range(size)]
        for r, row in enumerate(scaled):
            for c, (a, b) in row.items():
                v = (a + b * root) % m
                if v:
                    image[c][r] = v
        if col is not None:
            image[col][size] = 1       # the right-hand side e_col, as column `size`
        pivots = _eliminate_mod(image, size, m, size)
        if pivots is None:
            return None
        if len(pivots) < size:         # a column ran empty: D = 0 in this image
            residues.append((0, None))
            continue
        d = prod(piv for _, _, piv, _ in pivots) % m
        if _odd([k for _, k, _, _ in pivots]):
            d = -d % m
        u = None
        if col is not None:
            u = [0] * size
            for c0, _, _, prow in reversed(pivots):
                u[c0] = (prow.get(size, 0)
                         - sum(v * u[c] for c, v in prow.items() if c != size)) % m
        residues.append((d, u))
    (d_plus, u_plus), (d_minus, u_minus) = residues
    half, over_2s = (m + 1) // 2, pow(2 * s, -1, m)

    def lift(plus: int, minus: int) -> GaussRat:
        # a + bi from a + bs and a - bs mod m, both parts in (-m/2, m/2)
        a, b = (plus + minus) * half % m, (plus - minus) * over_2s % m
        return GaussRat(a - m if 2 * a > m else a, b - m if 2 * b > m else b)

    big_d = lift(d_plus, d_minus)
    det = big_d / prod(scales)
    det = det.re if not det.im else det
    if col is None or not big_d:
        return det, None
    if u_plus is None or u_minus is None:
        return None
    inv_d = big_d.inverse()
    return det, [lift(d_plus * up % m, d_minus * um % m) * (scale * inv_d)
                 for up, um, scale in zip(u_plus, u_minus, scales)]


@dataclass(frozen=True)
class RankPaths:
    """How many decisions a certified modular path made, and how many fell to
    exact computation: ranks (exact elimination, or for resultants exact
    evaluation), or values (determinants and certificate cofactors)."""

    modular: int
    exact: int

    @staticmethod
    def count(modular_flags: Sequence[bool]) -> "RankPaths":
        decided = sum(modular_flags)
        return RankPaths(decided, len(modular_flags) - decided)
