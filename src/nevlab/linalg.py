"""Exact sparse linear algebra over the scalar tower, certified modular ranks
and multimodular values.

Vectors are dicts {column index: nonzero scalar}; matrices are lists of such
rows.  The one exact elimination, `RowReducer`, divides by pivots (exact, with
canonical results, in Fraction/GaussRat/RatFunc) after scaling a row with
rational-function entries by a common denominator; one pass gives the rank, a
solution and the determinant.

The one modular image: `_gaussian_integer_rows` scales each row by a nonzero
L_r to polynomials in z over Z[i], and `_image` sends them to Z/m with i and z
sent to residues, a ring map under which every entry has an image.  The one
modular elimination, `_eliminate_mod`, reduces an entry mod m only where it
is read, and takes a point's two images of i together, with one inverse per
pair of pivots.  `certified_rank` reduces modulo the word-size primes of
`MODULI`, where a matrix can only lose rank, so a modular rank that reaches
a known upper bound is the exact rank; else exact elimination decides.  Any
prime certifies a rank, so primes of one CPython digit serve.
`det_sparse`, the one determinant entry, gives det M and, on request, a row
of the adjugate, with the flag of the path that decided: `_multimodular`
eliminates modulo a product of the 61-bit primes of `PRIMES` that exceeds
twice a Hadamard-type bound at enough points z to interpolate the result,
and lifts the residues; over Q(i) one point suffices.  When the table is too
short, or too few points are usable, one exact elimination of the transposed
matrix decides.  See von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 5.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Optional, Sequence

from .fields import GaussRat, RatFunc, ZPoly, denominator_lcm, over_known_factors


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
        # the bit lengths of the reduced re = a/d and im = b/d
        g, h = gcd(s.a, s.d), gcd(s.b, s.d)
        return ((s.a // g).bit_length() + (s.d // g).bit_length()
                + (s.b // h).bit_length() + (s.d // h).bit_length())
    if isinstance(s, RatFunc):
        return 1000 * (s.num.degree + s.den.degree + 1)
    return 1 << 30


def clear_denominators(vec: dict, rhs=None):
    """Scale a row (and optional rhs) by the lcm of RatFunc denominators:
    (row, rhs, multiplier), the multiplier a RatFunc, or None when there is
    nothing to clear."""
    mult = denominator_lcm(v.den for v in (*vec.values(), rhs) if isinstance(v, RatFunc))
    if mult is None:
        return vec, rhs, None
    m = RatFunc(mult)
    return {c: m * v for c, v in vec.items()}, None if rhs is None else m * rhs, m


class Inconsistent(Exception):
    """A linear system has no solution."""


class RowReducer:
    """Incremental exact Gaussian elimination.

    A stored pivot row is normalized (pivot entry 1) and reduced against the
    pivot rows stored before it, so a fed row is reduced against them in that
    order, `rank` is just the pivot count, and a solution of the fed
    equations (free variables set to zero) is read off by back-substitution.
    `steps` logs (column, entry before normalizing, row multiplier or None)
    per pivot.
    """

    def __init__(self, track_rhs: bool = False):
        self.pivots: dict[int, dict] = {}
        self.rhs: dict[int, object] = {}
        self.track_rhs = track_rhs
        self.steps: list[tuple] = []
        self.singular = False          # some fed row did not raise the rank

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict, rhs=None):
        """Residual of vec (and rhs) after eliminating all known pivots."""
        res = dict(vec)
        for col, prow in self.pivots.items():
            coef = res.pop(col, None)
            if not coef:
                continue
            for c2, v2 in prow.items():
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
        vec, rhs, mult = clear_denominators(vec, rhs)
        res, rhs = self.reduce(vec, rhs)
        if not res:
            self.singular = True
            if self.track_rhs and rhs:
                raise Inconsistent("zero row with nonzero right-hand side")
            return False
        col = min(res, key=lambda c: (_complexity(res[c]), c))
        self.steps.append((col, res[col], mult))
        inv = _inv(res[col])
        row = {c: v * inv for c, v in res.items()}
        row[col] = Fraction(1)
        self.pivots[col] = row
        if self.track_rhs:
            self.rhs[col] = rhs * inv if rhs else Fraction(0)
        return True

    def solution(self) -> dict:
        """Pivot-variable values solving the fed equations (free vars = 0),
        by back-substitution from the last pivot row."""
        if not self.track_rhs:
            raise ValueError("reducer was built without rhs tracking")
        sol: dict = {}
        for col, prow in reversed(self.pivots.items()):
            x = self.rhs[col]
            for c, v in prow.items():
                if c in sol:
                    x = x - v * sol[c]
            sol[col] = x
        return sol

    def det(self):
        """Determinant of the square matrix of the rows fed, in order: 0 when
        one did not raise the rank, else the product of the pivot entries
        over that of the row multipliers, negated for an odd order of pivot
        columns.  Each row is reduced by earlier rows only, so in pivot-column
        order the residuals form a triangular matrix."""
        if self.singular:
            return Fraction(0)
        det = Fraction(1)
        for _, piv, mult in self.steps:
            det = piv * det if mult is None else piv * det / mult
        return -det if _odd([col for col, _, _ in self.steps]) else det


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


def det_sparse(rows: list[dict], col: Optional[int] = None) -> tuple[object, Optional[list], bool]:
    """(det M, y, modular) for a square matrix M given as its sparse rows:
    y is row `col` of the adjugate of M (sum_r y[r] * rows[r] == det M * e_col,
    so y / det M is row `col` of M^-1), None when M is singular or no `col`
    is given, and modular is whether the multimodular path decided.

    Multimodular first (`_multimodular`), else one exact elimination of the
    transposed system M^T u = e_col (of M^T alone without `col`), which gives
    det M^T = det M (`RowReducer.det`) and, when it is nonzero, u = y / det M;
    both paths give the same values.
    """
    found = _multimodular(rows, col)
    if found is not None:
        return found[0], found[1], True
    eqs: list[dict] = [{} for _ in rows]
    for r, row in enumerate(rows):
        for c, v in row.items():
            eqs[c][r] = v
    red = RowReducer(track_rhs=col is not None)
    try:
        for c, eq in enumerate(eqs):
            if not red.add(eq, None if col is None else Fraction(int(c == col))):
                break
    except Inconsistent:              # a dependent equation: M is singular
        pass
    det = red.det()
    if not det or col is None:
        return det, None, False
    sol = red.solution()
    return det, [det * sol[r] for r in range(len(rows))], False


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
# image of i), in the order the multimodular path draws them.  Their product
# must exceed twice the Hadamard bound, and larger primes reach it in fewer
# eliminations: a 36 x 36 Macaulay image over Q(i) needs the 122-bit product
# of two, one elimination, where 30-bit primes taken apart would need four.
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

# The certified rank's moduli: the two largest primes p = 1 (mod 4) below
# 2^30, each with a square root of -1 mod p and a fixed residue below p as
# the image of z, tried in this order.
MODULI = ((1073741789, 933053945, 123456789),
          (1073741741, 784215820, 987654321))


def _eliminate_mod(images: Sequence[list], ncols: int, m: int, bound: int):
    """Gaussian elimination over Z/m of each image in `images`: rows
    (consumed) of nonnegative integers below m, in columns 0..ncols-1.

    Column by column, one scan of an image's remaining rows reduces each
    entry of the column mod m, drops those that vanish and picks the pivot
    row: the sparsest row holding the column, the lowest index on a tie.
    The pivot row is divided by its pivot entry, which reduces it, and
    (m - f) times it is added to each other row with f in the column,
    without reducing the sums.  An entry is thus reduced only where it is
    read, in its column's scan or in a pivot row, and every entry stays
    below m + (#pivots) m^2, since each row update adds less than m^2:
    about 2^250 at the multimodular product of two 61-bit primes, and a few
    digits at a word-size prime of `MODULI`, whose products fit in two.
    The images share the column loop but not their pivots, so each gets the
    pivots it would get alone, and one `pow` inverts the column's pivots of
    every image: the inverse of their product, multiplied back through the
    prefix products (Montgomery, Math. Comp. 48 (1987)); the multimodular
    path passes a point's two images of i.
    Returns per image the pivots in column order as (column, row, entry,
    divided row), the divided rows reduced and without zeros, stopping once
    there are `bound`; None when a pivot entry is no unit mod m, which for
    m a product of primes means an unlucky one.
    """
    remaining = [list(range(len(image))) for image in images]
    pivots: list = [[] for _ in images]
    for col in range(ncols):
        picked = []                   # (image, hits, pivot row, pivot entry)
        for t, image in enumerate(images):
            if len(pivots[t]) >= bound:
                continue
            hits, k, fewest, piv = [], -1, 0, 0
            for j in remaining[t]:
                row = image[j]
                f = row.get(col)
                if f is None:
                    continue
                f %= m
                if not f:
                    del row[col]
                    continue
                hits.append((j, f))
                if k < 0 or len(row) < fewest:
                    k, fewest, piv = j, len(row), f
            if k >= 0:
                picked.append((t, hits, k, piv))
        if not picked:
            continue
        prefix = [1]
        for *_, piv in picked:
            prefix.append(prefix[-1] * piv % m)
        try:
            inv = pow(prefix[-1], -1, m)
        except ValueError:
            return None
        for (t, hits, k, piv), before in zip(reversed(picked), reversed(prefix[:-1])):
            image = images[t]
            inv, piv_inv = inv * piv % m, inv * before % m
            remaining[t].remove(k)
            del image[k][col]
            prow = {}
            for c, v in image[k].items():
                v = v * piv_inv % m
                if v:
                    prow[c] = v
            pivots[t].append((col, k, piv, prow))
            if len(pivots[t]) >= bound:
                continue
            for j, f in hits:
                if j != k:
                    row = image[j]
                    del row[col]
                    f = m - f
                    for c, v in prow.items():
                        row[c] = row.get(c, 0) + f * v
        if all(len(found) >= bound for found in pivots):
            break
    return pivots


def modular_rank_reaches(rows: Sequence[dict], bound: int) -> bool:
    """True when the rows' rank modulo some prime of MODULI reaches `bound`.

    The primes are below 2^30: a certified rank needs only some prime, and a
    residue of one CPython digit keeps every product in two digits and every
    reduction a division by one digit.  `PRIMES` stays 61-bit because the
    multimodular modulus must pass a size bound, which a rank has not.

    Row r is scaled by L_r (`_gaussian_integer_rows`), which is nonzero, so
    the rank does not change.  Sending i and z to the prime's residues is a
    ring map from Z[i][z] onto GF(p) (`_image`): every scaled entry has an
    image, and every vanishing minor maps to zero, so the rank mod p is at
    most the exact rank.  A caller that knows the exact rank is at most
    `bound` thus knows it equals `bound` when this returns True.  False,
    also the answer when an entry lies outside Q(i)(z) and, without any
    elimination, when `bound` exceeds the row or the column count, proves
    nothing.
    """
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    if bound > min(len(rows), ncols):
        return False
    found = _gaussian_integer_rows(rows)
    if found is None:
        return False
    scaled = found[0]
    return any(len(_eliminate_mod([_image(scaled, ncols, z0, i, p)], len(rows), p, bound)[0]) >= bound
               for p, i, z0 in MODULI)


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
    """Each row scaled to polynomials in z with Gaussian-integer coefficients.

    Row r is multiplied by L_r = c_r l_r: l_r the monic lcm of its entries'
    `RatFunc` denominators (None when there are none), c_r the lcm of the
    resulting coefficients' denominators.  Entries become tuples of (re, im)
    integer pairs in ascending degree.  Returns (rows, [(c_r, l_r)]), or None
    when some entry is not an int, Fraction, GaussRat or RatFunc.  Ideal and
    Macaulay rows are shifts of one generator and share its scalar objects,
    so each row shape (the ids of its entries, in order) is scaled once, and
    each distinct object is split (`_split`) once.
    """
    scaled, scales = [], []
    seen: dict = {}
    shapes: dict = {}
    for row in rows:
        key = tuple(map(id, row.values()))
        shape = shapes.get(key)
        if shape is None:
            found = []
            for v in row.values():
                # f: a RatFunc's denominator in z, or the split of any other scalar
                f = seen.get(id(v))
                if f is None:
                    if isinstance(v, RatFunc):
                        f = v.den if v.den.degree > 0 else _split(v.num.coeffs)
                    elif isinstance(v, (int, Fraction, GaussRat)):
                        f = _split((v,))
                    else:
                        return None
                    seen[id(v)] = f
                found.append(f)
            mult = denominator_lcm(f for f in found if isinstance(f, ZPoly))
            if mult is not None:
                # l_r v: a RatFunc's numerator times l_r / den, and a
                # constant's integer parts times those of l_r, in integers
                m_poly, m_den = _split(mult.coeffs)
                for k, v in enumerate(row.values()):
                    if isinstance(v, RatFunc):
                        found[k] = _split((v.num if v.den == mult else v.num * (mult // v.den)).coeffs)
                    else:
                        ((a, b),), d = found[k]
                        found[k] = tuple((a * x - b * y, a * y + b * x) for x, y in m_poly), d * m_den
            scale = lcm(*(d for _, d in found))
            values = tuple(poly if d == scale else
                           tuple((a * (scale // d), b * (scale // d)) for a, b in poly)
                           for poly, d in found)
            if mult is not None:    # c_r over the least denominators, as without l_r
                g = gcd(scale, *(x for poly in values for pair in poly for x in pair))
                if g > 1:
                    scale //= g
                    values = tuple(tuple((a // g, b // g) for a, b in poly) for poly in values)
            shape = shapes[key] = (values, (scale, mult))
        scaled.append(dict(zip(row, shape[0])))
        scales.append(shape[1])
    return scaled, scales


def _split(coeffs) -> tuple:
    """(poly, d): d the least common denominator of Gaussian rationals, poly
    their (re, im) parts times d, as integer pairs.  A GaussRat's own d is
    the lcm of its two parts' denominators."""
    parts = [(x.a, x.b, x.d) if isinstance(x, GaussRat) else (x.numerator, 0, x.denominator)
             for x in coeffs]
    d = lcm(*(e for _, _, e in parts))
    return tuple((a * (d // e), b * (d // e)) for a, b, e in parts), d


def _image(scaled: Sequence[dict], size: int, z: int, root: int, m: int) -> list:
    """The transpose of the scaled rows' image in Z/m under i -> root and
    z -> z: `size` rows, one per column, holding the nonzero values
    {r: scaled[r][c] at (root, z) mod m}."""
    image: list[dict] = [{} for _ in range(size)]
    for r, row in enumerate(scaled):
        for c, poly in row.items():
            if len(poly) == 1:
                a, b = poly[0]
                v = (a + b * root) % m
            else:
                v = 0
                for a, b in reversed(poly):
                    v = (v * z + a + b * root) % m
            if v:
                image[c][r] = v
    return image


def _modulus(bound: int) -> Optional[tuple[int, int, int]]:
    """(m, s, p): m the product of the fewest leading primes of PRIMES with
    m > bound, s a square root of -1 mod m (the primes' roots joined by CRT),
    p the least of those primes; None when the whole table falls short."""
    m, s = 1, 0
    for k, (p, i) in enumerate(PRIMES):
        s += m * ((i - s) * pow(m, -1, p) % p)
        m *= p
        if m > bound:
            return m, s, min(q for q, _ in PRIMES[:k + 1])
    return None


def _norm_squared(poly: tuple) -> int:
    """An integer at least the square of the sum of the coefficient moduli:
    |a + bi|^2 exactly for a constant, (sum |a| + |b|)^2 otherwise."""
    if len(poly) == 1:
        a, b = poly[0]
        return a * a + b * b
    return sum(abs(a) + abs(b) for a, b in poly) ** 2


def _interpolate(xs: Sequence[int], columns: Sequence[Sequence[int]], m: int) -> list:
    """For each column of values at the points xs, the ascending coefficients
    mod m of the polynomial of degree < len(xs) through them: Newton's divided
    differences, whose denominators (differences of the xs) must be units."""
    n = len(xs)
    inv = {(j, k): pow(xs[k] - xs[k - j], -1, m) for j in range(1, n) for k in range(j, n)}
    out = []
    for ys in columns:
        c = list(ys)
        for j in range(1, n):
            for k in range(n - 1, j - 1, -1):
                c[k] = (c[k] - c[k - 1]) * inv[j, k] % m
        acc = [c[-1]]                  # Horner on the Newton form
        for k in range(n - 2, -1, -1):
            x = xs[k]
            acc = ([(c[k] - x * acc[0]) % m]
                   + [(acc[j - 1] - x * acc[j]) % m for j in range(1, len(acc))] + [acc[-1]])
        out.append(acc)
    return out


def _multimodular(rows: Sequence[dict], col: Optional[int] = None):
    """Certified determinant of a square matrix M over Q(i)(z), of size
    len(rows), and, given `col`, row `col` of its adjugate: the y with
    sum_r y[r] * rows[r] == det M * e_col.

    Scale row r by L_r to polynomials in z over Z[i] (`_gaussian_integer_rows`):
    det M = D / prod L_r, D the scaled determinant.  deg D, and the degree of
    every (size-1)-minor, is at most deg = the sum over rows of the largest
    entry degree.  On |z| = 1 an entry is at most the sum |e|_1 of its
    coefficients' moduli, so by Hadamard's inequality and Parseval's identity
    every coefficient of D, and of every (size-1)-minor when D != 0 (the rows
    are then nonzero, of norm >= 1), has modulus at most
    H = prod_r (sum_c |e_rc|_1^2)^(1/2): the Hadamard bound when the entries
    are constants.  Modulo m > 2H + 1, a product of primes p = 1 (mod 4),
    i has the two images s and -s, and with z sent to a point z_k each is a
    ring map from Z[i][z] (`_image`); eliminating the transposed images under
    both together (`_eliminate_mod`) gives a + bs and a - bs for
    D(z_k) = a + bi.  The points z_k = 0, 1, 2, ... differ by less than the
    least prime, so deg + 1 of them interpolate D mod m under each image
    (`_interpolate`), and the bound
    lifts its coefficients exactly (`_lift_polys`).  The same elimination
    solves M_s(z_k)^T u = e_col, so w = D u is row `col` of adj(M_s), a
    polynomial vector interpolated and lifted the same way, and
    y[r] = L_r w[r] / prod L_r.

    A point with a pivot that is no unit mod m is skipped, and so is one with
    D(z_k) = 0 mod m for the adjugate (it still counts for D).  Returns
    (det M, y), with y None when no `col` is given or D = 0, and None when
    there is no certificate: an entry outside Q(i)(z), a table too short for
    H, or 2 (deg + 1) points tried without deg + 1 usable ones.  Values are
    GaussRat when no entry depends on z, as over Q(i), and RatFunc otherwise.
    """
    found = _gaussian_integer_rows(rows)
    if found is None:
        return None
    scaled, scales = found
    size = len(rows)
    deg = sum(max([0, *(len(poly) - 1 for poly in row.values())]) for row in scaled)
    norms = prod(sum(map(_norm_squared, row.values())) for row in scaled)
    found = _modulus(2 * (isqrt(norms) + 1) + 1)
    if found is None:
        return None
    m, s, least = found
    constant = deg == 0 and all(l is None for _, l in scales)
    d_points: list = []                # (z_k, [D+(z_k)], [D-(z_k)])
    w_points: list = []                # (z_k, w+(z_k), w-(z_k))
    big_d = None
    for z in range(min(2 * (deg + 1), least)):
        images = [_image(scaled, size, z, root, m) for root in (s, m - s)]
        if col is not None:
            for image in images:
                image[col][size] = 1   # the right-hand side e_col, as column `size`
        found = _eliminate_mod(images, size, m, size)
        if found is None:
            continue
        (d_plus, w_plus), (d_minus, w_minus) = (_det_and_adjugate_row(pivots, size, m, col)
                                                for pivots in found)
        if big_d is None:
            d_points.append((z, [d_plus], [d_minus]))
        if w_plus is not None and w_minus is not None:
            w_points.append((z, w_plus, w_minus))
        if big_d is None and len(d_points) == deg + 1:
            big_d = _lift_polys(d_points, m, s)[0]
            if col is None or not big_d:
                return _exact_values(big_d, None, scales, constant)
        if big_d is not None and len(w_points) == deg + 1:
            return _exact_values(big_d, _lift_polys(w_points, m, s), scales, constant)
    return None


def _lift_polys(points: list, m: int, s: int) -> list:
    """Gaussian-integer polynomials from their values under i -> s and
    i -> -s: `points` holds (z_k, plus values, minus values), one value per
    polynomial; each is interpolated mod m under both images, and a + bi is
    lifted from a + bs and a - bs with both parts in (-m/2, m/2).  A
    polynomial is a list of (a, b) pairs, ascending, without trailing zeros."""
    xs = [z for z, _, _ in points]
    plus = _interpolate(xs, list(zip(*(v for _, v, _ in points))), m)
    minus = _interpolate(xs, list(zip(*(v for _, _, v in points))), m)
    half, over_2s = (m + 1) // 2, pow(2 * s, -1, m)
    out = []
    for pc, mc in zip(plus, minus):
        poly = []
        for p_k, m_k in zip(pc, mc):
            a, b = (p_k + m_k) * half % m, (p_k - m_k) * over_2s % m
            poly.append((a - m if 2 * a > m else a, b - m if 2 * b > m else b))
        while poly and poly[-1] == (0, 0):
            poly.pop()
        out.append(poly)
    return out


def _exact_values(big_d: list, ws: Optional[list], scales: list, constant: bool):
    """(det M, y) from the lifted D and w: det M = D / prod L_r and
    y[r] = L_r w[r] / prod L_r = w[r] / ((c_all / c_r) prod_{s != r} l_s)
    (y None without w), as GaussRat values when no entry depends on z and as
    canonical RatFunc values otherwise.  The distinct l_r are the known factors
    of every denominator, so each value is reduced against them
    (`over_known_factors`), not by a gcd with the whole product."""
    c_all = prod(c for c, _ in scales)
    if constant:
        det = GaussRat(*(big_d[0] if big_d else (0, 0))) / c_all
        det = det.re if not det.im else det
        if ws is None:
            return det, None
        return det, [GaussRat(*(w[0] if w else (0, 0))) * Fraction(c, c_all)
                     for w, (c, _) in zip(ws, scales)]
    poles = Counter(l for _, l in scales if l is not None)
    det = over_known_factors(ZPoly(GaussRat(a, b) for a, b in big_d), c_all, poles)
    if ws is None:
        return det, None
    # a Counter difference keeps positive counts only: without l_r, or unchanged when l_r is None
    return det, [over_known_factors(ZPoly(GaussRat(a, b) for a, b in w), c_all // c,
                                    poles - Counter((l,)))
                 for w, (c, l) in zip(ws, scales)]


def _det_and_adjugate_row(pivots: list, size: int, m: int, col: Optional[int]):
    """det mod m from the pivots of `_eliminate_mod` (0 when a column ran
    empty) and, given `col`, w = det * u for the solution u of the eliminated
    system (None when det is 0 or no `col` is given)."""
    if len(pivots) < size:
        return 0, None
    d = prod(piv for _, _, piv, _ in pivots) % m
    if _odd([k for _, k, _, _ in pivots]):
        d = -d % m
    if col is None:
        return d, None
    u = [0] * size
    for c0, _, _, prow in reversed(pivots):
        u[c0] = (prow.get(size, 0) - sum(v * u[c] for c, v in prow.items() if c != size)) % m
    return d, [d * v % m for v in u]


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
