"""Resultants of homogeneous forms, general-position checks, power certificates.

Three layers:

  sylvester_resultant   classical 2d x 2d determinant for binary forms (oracle)
  macaulay_resultant    n+1 forms of common degree d via the Macaulay quotient
                        det(M)/det(M''), built at critical degree
                        t = (n+1)(d-1)+1, or Canny's C(0) where det M'' = 0;
                        normalized so res(x_0^d,...,x_n^d)=1
  is_admissible         every (n+1)-subset of a family has resultant not
                        identically zero over the coefficient field, each
                        decided once by certified modular rank with exact
                        fallback; returns the first failing subset

plus the rows of a graded piece of an ideal (ideal_rows) and the
complete-intersection bound on their rank, graded ideal membership with exact
cofactors (ideal_membership), and power_certificate on top of it: the minimal
s with x_i^s * R in the degree-s graded piece of the ideal generated by the
family.

Determinants of matrices over Q(i)(z) are multimodular with an exact
fallback, and so are a family's cofactors at the critical degree, fixed or
moving: Cramer's rule on the square Macaulay rows; both come from the one
determinant entry `linalg.det_sparse`.  Every certified decision returns
whether its modular or multimodular path decided, next to its value, and
the reports count those flags in `RankPaths`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from typing import Optional, Sequence

from .fields import (GaussRat, InputError, Obstruction, RatFunc, ZPoly, denominator_lcm,
                     simplify_scalar)
from .hpoly import HPoly, monomial_index, monomials
from .linalg import (RankPaths, RowReducer, _split, certified_rank, det_sparse,
                     modular_rank_reaches)


class NotAdmissibleError(Obstruction, ValueError):
    """The family is not in general position where a computation needs it to be."""


def sylvester_resultant(p: HPoly, q: HPoly):
    """Resultant of two binary forms of equal degree d >= 1.

    Zero exactly when the forms share a nontrivial common zero over the
    algebraic closure.
    """
    if p.nvars != 2 or q.nvars != 2:
        raise ValueError("sylvester_resultant needs binary forms")
    d = p.degree
    if q.degree != d:
        raise ValueError(f"unequal degrees {p.degree} vs {q.degree}")
    if d < 1:
        raise ValueError("degree must be >= 1")
    # dehomogenize: coefficient of t^k is the coefficient of x0^k x1^(d-k)
    pc = [p.coeffs.get((k, d - k), Fraction(0)) for k in range(d + 1)]
    qc = [q.coeffs.get((k, d - k), Fraction(0)) for k in range(d + 1)]
    rows = []
    for i in range(d):  # rows of p coefficients, descending powers
        rows.append({i + j: pc[d - j] for j in range(d + 1) if pc[d - j]})
    for i in range(d):
        rows.append({i + j: qc[d - j] for j in range(d + 1) if qc[d - j]})
    return simplify_scalar(det_sparse(rows)[0])


def _macaulay_row(gamma: tuple, d: int) -> tuple[int, tuple]:
    """(i, gamma - d e_i) for the first i with gamma_i >= d: the Macaulay
    row of the monomial x^gamma is x^(gamma - d e_i) * Q_i."""
    i = next(k for k, e in enumerate(gamma) if e >= d)
    return i, gamma[:i] + (gamma[i] - d,) + gamma[i + 1:]


def _exponent_key(e: tuple, base: int) -> int:
    """The exponents e as the digits of one integer in `base`: keys add as
    exponents do while no exponent reaches the base."""
    key = 0
    for x in e:
        key = key * base + x
    return key


def _column_keys(n: int, big_n: int) -> dict:
    """{key: column} over monomials(n, N), each keyed in base N + 1."""
    return {_exponent_key(m, big_n + 1): k for k, m in enumerate(monomials(n, big_n))}


def _macaulay_matrix(polys: Sequence[HPoly], d: int):
    """Rows of the Macaulay matrix M at critical degree, and the indices of
    its non-reduced monomials, which index the rows and columns of M''."""
    n = polys[0].nvars - 1
    t = (n + 1) * (d - 1) + 1
    col_of = _column_keys(n, t)
    terms = [[(_exponent_key(e, t + 1), c) for e, c in p.coeffs.items()] for p in polys]
    rows = []
    nr = []
    for pos, gamma in enumerate(monomials(n, t)):
        if sum(1 for e in gamma if e >= d) > 1:
            nr.append(pos)
        i, shift = _macaulay_row(gamma, d)
        key = _exponent_key(shift, t + 1)
        rows.append({col_of[k + key]: c for k, c in terms[i]})
    return rows, nr


def _macaulay_dets(polys: Sequence[HPoly], d: int, col: Optional[int] = None):
    """(solved, det M'', flags) of the Macaulay construction at critical
    degree: solved = (det M, row `col` of adj M, flag) as `det_sparse`
    returns it, and the flags of det M and det M''.  An empty M'' (every
    n = 1 family) has det 1 and no flag."""
    rows, nr = _macaulay_matrix(polys, d)
    solved = det_sparse(rows, col)
    if not nr:
        return solved, Fraction(1), [solved[2]]
    nr_index = {k: j for j, k in enumerate(nr)}
    minor = [{nr_index[c]: v for c, v in rows[k].items() if c in nr_index} for k in nr]
    det_minor, _, modular = det_sparse(minor)
    return solved, det_minor, [solved[2], modular]


def macaulay_resultant(polys: Sequence[HPoly]):
    """Resultant of n+1 forms of common degree d in n+1 variables.

    Vanishes exactly when the system has a nontrivial common zero; equals 1 on
    (x_0^d, ..., x_n^d).  Computed in the given coordinate frame
    (`_resultant`).
    """
    polys = list(polys)
    if not polys:
        raise InputError("need n+1 forms in n+1 variables, got none")
    nvars = polys[0].nvars
    if len(polys) != nvars:
        raise InputError(f"need {nvars} forms in {nvars} variables, got {len(polys)}")
    d = polys[0].degree
    if d < 1:
        raise InputError("common degree must be >= 1")
    if any(p.degree != d or p.nvars != nvars for p in polys):
        raise InputError("forms must share one degree and one variable count, got degrees "
                         f"{tuple(p.degree for p in polys)} and variable counts "
                         f"{tuple(p.nvars for p in polys)}")
    return _resultant(polys, d)[0]


def _resultant(polys: Sequence[HPoly], d: int, col: Optional[int] = None):
    """(Res, solved, flags): the Macaulay resultant det M / det M'', the
    solve for `col` as `_macaulay_dets` returns it, and the flag of every
    determinant and rank behind Res.  When det M'' = 0, det M = 0 as well and
    that solve has no adjugate row; then the ideal's critical piece decides
    whether Res = 0 (`_fills_critical_piece`), and Canny's C(0) gives a
    nonzero Res (`_canny_at_zero`)."""
    solved, det_minor, flags = _macaulay_dets(polys, d, col)
    if det_minor:
        det_m = solved[0]
        return simplify_scalar(det_m if det_minor == 1 else det_m / det_minor), solved, flags
    full, modular = _fills_critical_piece(polys, d)
    flags.append(modular)
    if not full:
        return Fraction(0), solved, flags
    value, nodes = _canny_at_zero(polys, d)
    return value, solved, flags + nodes


def _fills_critical_piece(polys: Sequence[HPoly], d: int) -> tuple[bool, bool]:
    """Whether Res(polys) != 0, that is whether the ideal's piece of critical
    degree t is all of V_t (Macaulay 1916; Cox, Little & O'Shea, Using
    Algebraic Geometry, ch. 3 §4), by `certified_rank`, and whether the
    modular rank decided."""
    t = len(polys) * (d - 1) + 1
    size = len(monomials(len(polys) - 1, t))
    rank, modular = certified_rank(ideal_rows(polys, t)[1], size)
    return rank == size, modular


def _canny_at_zero(polys: Sequence[HPoly], d: int):
    """C(0) = Res(polys) for C(s) = Res(Q_i - s x_i^d), by interpolation, and
    the flags of det M and det M'' at each s.

    Row gamma of M is x^(gamma - d e_i) Q_i (`_macaulay_row`), so Q_i -
    s x_i^d puts -s on the diagonal of M and of M'': C(s) = det(M - sI) /
    det(M'' - sI) where the denominator is nonzero (Canny, J. Symb. Comput.
    9, 1990), of degree dim M - dim M'' = (n+1) d^n, the count of reduced
    monomials.  The quotient is taken at s = 1, 2, ..., skipping the at most
    dim M'' eigenvalues of M'', until there is one value more than that
    degree, and Lagrange interpolation over the coefficient field gives C(0).
    """
    nvars = len(polys)
    nodes, values, flags = [], [], []
    s = 0
    while len(nodes) <= nvars * d ** (nvars - 1):
        s += 1
        moved = [p - HPoly.monomial(nvars, [d * (k == i) for k in range(nvars)], s)
                 for i, p in enumerate(polys)]
        (det_m, _, _), det_minor, more = _macaulay_dets(moved, d)
        flags += more
        if det_minor:
            nodes.append(s)
            values.append(det_m / det_minor)
    return simplify_scalar(sum((v * prod(Fraction(sj, sj - sk) for sj in nodes if sj != sk)
                                for sk, v in zip(nodes, values)), Fraction(0))), flags


@dataclass(frozen=True)
class HypersurfaceFamily:
    """q homogeneous forms in n+1 variables, degrees d_1..d_q."""

    n: int
    polys: tuple[HPoly, ...]

    def __init__(self, n: int, polys: Sequence[HPoly]):
        polys = tuple(polys)
        if not polys:
            raise InputError("empty family")
        for k, p in enumerate(polys):
            if p.nvars != n + 1:
                raise InputError(f"form {k} has {p.nvars} variables, expected {n + 1}")
            if p.is_zero():
                raise InputError(f"form {k} is zero")
            if p.degree < 1:
                raise InputError(f"form {k} has degree 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "polys", polys)

    @property
    def q(self) -> int:
        return len(self.polys)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for p in self.polys)

    def common_degree(self) -> int:
        return lcm(*self.degrees) if len(self.degrees) > 1 else self.degrees[0]

    def lifted(self) -> tuple[HPoly, ...]:
        """Family raised to the common degree by Q_j -> Q_j^(d/d_j)."""
        d = self.common_degree()
        return tuple(p ** (d // p.degree) for p in self.polys)

    def is_moving(self) -> bool:
        return any(p.is_moving() for p in self.polys)


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    witness: Optional[GaussRat]  # always None: no parameter point is tried
    failing_subset: Optional[tuple[int, ...]]
    subsets_checked: int
    points_tried: int            # always 0
    rank_paths: RankPaths        # one resultant nonvanishing test per subset tried


def _resultant_nonzero(polys: Sequence[HPoly]) -> tuple[bool, bool]:
    """Whether Res(polys) != 0, by certified modular rank, and whether a
    modular rank decided: det(M) = Res * det(M'') for the Macaulay matrix M,
    so M of full rank mod p proves Res != 0; else the ideal's critical piece
    decides (`_fills_critical_piece`), and no resultant value is computed."""
    rows, _ = _macaulay_matrix(polys, polys[0].degree)
    if modular_rank_reaches(rows, len(rows)):
        return True, True
    return _fills_critical_piece(polys, polys[0].degree)


def is_admissible(fam: HypersurfaceFamily) -> AdmissibilityReport:
    """Exact general-position verdict for the family.

    Every (n+1)-subset must have resultant, an element of the coefficient
    field Q(i) or Q(i)(z), not identically zero.  Each subset of the lifted
    forms is decided once, in `itertools.combinations` order, by a certified
    modular rank with exact fallback over that field (`_resultant_nonzero`);
    the first subset whose resultant vanishes is reported, and the report
    counts which path decided each subset.  `witness` is always None and
    `points_tried` always 0: no parameter point is tried.
    """
    n = fam.n
    if fam.q < n + 1:
        raise InputError(f"admissibility needs q >= n+1, got q={fam.q}, n={n}")
    lifted = fam.lifted()
    subsets = list(itertools.combinations(range(fam.q), n + 1))
    flags: list = []
    for s in subsets:
        nonzero, modular = _resultant_nonzero([lifted[j] for j in s])
        flags.append(modular)
        if not nonzero:
            return AdmissibilityReport(False, None, s, len(subsets), 0, RankPaths.count(flags))
    return AdmissibilityReport(True, None, None, len(subsets), 0, RankPaths.count(flags))


def _over_one_denominator(polys: Sequence[HPoly]) -> list:
    """One side of an identity over one denominator in Gaussian integers:
    D = d q, q the monic lcm of the RatFunc denominators among the polys'
    coefficients (1 when there are none) and d the least integer that puts
    the coefficients of q and of every q c in Z[i] (`linalg._split`).
    Returns the terms of D, then per poly the terms of D times it, each term
    ((exponents, power of z), (re, im)); D's exponents are ()."""
    dens = dict.fromkeys(c.den for p in polys for c in p.coeffs.values()
                         if isinstance(c, RatFunc))
    q = denominator_lcm(dens)
    quotients = {den: q // den for den in dens} if q is not None else {}
    keys, flat = [], []
    for k, p in enumerate(polys, 1):
        for e, c in p.coeffs.items():
            if isinstance(c, RatFunc):
                c = c.num * quotients[c.den] if q is not None else c.num
            elif q is not None:
                c = q * c
            cs = c.coeffs if isinstance(c, ZPoly) else (c,)
            keys += [(k, e, j) for j in range(len(cs))]
            flat += cs
    own = q.coeffs if q is not None else (1,)
    keys += [(0, (), j) for j in range(len(own))]
    terms: list = [[] for _ in range(len(polys) + 1)]
    for (k, e, j), v in zip(keys, _split(flat + list(own))[0]):
        if v != (0, 0):
            terms[k].append(((e, j), v))
    return terms


def _keyed(terms: list, base: int, zbase: int) -> dict:
    """Terms as {key: (re, im)}, exponents e and power j of z keyed as
    j + zbase * `_exponent_key`(e, base)."""
    return {_exponent_key(e, base) * zbase + j: v for (e, j), v in terms}


def _times(p: dict, q: dict, acc: Optional[dict] = None) -> dict:
    """p * q added into acc, over keyed Gaussian-integer terms (`_keyed`):
    a product adds keys, which adds exponents while no digit reaches its base."""
    acc = {} if acc is None else acc
    qs = list(q.items())
    for k1, (a, b) in p.items():
        for k2, (c, d) in qs:
            k, re, im = k1 + k2, a * c - b * d, a * d + b * c
            prev = acc.get(k)
            acc[k] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return acc


def _reexpands(cofactors: Sequence[HPoly], gens: Sequence[HPoly], target: HPoly) -> bool:
    """Whether sum_j b_j * g_j == target, exactly.

    The cofactors, the generators and the target are each brought over one
    denominator D_b, D_g, D_t in Gaussian integers (`_over_one_denominator`),
    so the identity holds iff D_t * sum_j (D_b b_j)(D_g g_j) == D_b D_g (D_t
    target), an identity of polynomials in x and z over Z[i].  Each term is
    one integer pair keyed by one integer (`_keyed`), in bases above every
    exponent and every power of z a product can reach, so the products run on
    integers, without the gcd a GaussRat or a RatFunc operation costs.
    """
    sides = [_over_one_denominator(side) for side in (cofactors, gens, [target])]
    base = 1 + max([target.degree] + [b.degree + g.degree for b, g in zip(cofactors, gens)])
    zbase = 1 + sum(max(j for ts in side for (_, j), _ in ts) for side in sides)
    (d_b, *bs), (d_g, *gs), (d_t, t) = ([_keyed(ts, base, zbase) for ts in side]
                                        for side in sides)
    acc: dict = {}
    for b, g in zip(bs, gs):
        _times(b, g, acc)
    lhs, rhs = _times(d_t, acc), _times(_times(d_b, d_g), t)
    return ({k: v for k, v in lhs.items() if v != (0, 0)}
            == {k: v for k, v in rhs.items() if v != (0, 0)})


def ideal_rows(gens: Sequence[HPoly], big_n: int) -> tuple[list, list]:
    """The degree-N piece of the ideal (gens) as sparse rows.

    One row per generator g_j of degree at most N and monomial m of degree
    N - deg g_j, in that order: the coefficients of m * g_j by column index in
    monomials(nvars - 1, N).  A row is g_j with exponents shifted by m, so no
    polynomial is multiplied, and a shift adds exponent keys (`_exponent_key`).
    Returns (labels, rows) with labels[k] = (j, m).
    """
    nvars = gens[0].nvars
    col_of = _column_keys(nvars - 1, big_n)
    labels, rows = [], []
    for j, g in enumerate(gens):
        if g.degree > big_n:
            continue
        terms = [(_exponent_key(e, big_n + 1), c) for e, c in g.coeffs.items()]
        for m in monomials(nvars - 1, big_n - g.degree):
            key = _exponent_key(m, big_n + 1)
            labels.append((j, m))
            rows.append({col_of[k + key]: c for k, c in terms})
    return labels, rows


def complete_intersection_rank(degrees: Sequence[int], nvars: int, big_n: int) -> int:
    """dim V_N minus the coefficient of t^N in prod_j (1 - t^d_j) / (1 - t)^nvars.

    The rank of the degree-N piece of an ideal generated by a regular
    sequence of forms of degrees d_j.  For at most nvars forms it bounds that
    rank from above for any forms of these degrees over a field of
    characteristic 0: the rank of the coefficient matrix is lower
    semicontinuous in the forms' coefficients, and generic forms are a
    regular sequence (Cox, Little & O'Shea, Using Algebraic Geometry, ch. 3).
    """
    series = [comb(m + nvars - 1, nvars - 1) for m in range(big_n + 1)]
    for d in degrees:
        for m in range(big_n, d - 1, -1):
            series[m] -= series[m - d]
    return comb(big_n + nvars - 1, nvars - 1) - series[big_n]


def ideal_membership(p: HPoly, gens: Sequence[HPoly]) -> Optional[tuple[HPoly, ...]]:
    """Cofactors b_j with sum_j b_j * g_j == p, in the graded piece of the
    ideal (gens) of degree deg p; None when p is not in that piece.

    Each unknown is a coefficient of some b_j, and the equations are the
    columns of `ideal_rows`, fed to one `RowReducer` with p's coefficients as
    right-hand sides; the first equation that reduces to 0 = nonzero (the
    reducer no longer `consistent`) gives None.  A generator of degree above
    deg p gets the zero cofactor.  The identity is re-expanded exactly before
    it is returned.
    """
    nvars, big_n = p.nvars, p.degree
    labels, rows = ideal_rows(gens, big_n)
    cols = monomials(nvars - 1, big_n)
    eqs: list[dict] = [{} for _ in cols]
    for v, row in enumerate(rows):
        for col, c in row.items():
            eqs[col][v] = c
    red = RowReducer()
    for eq, mono in zip(eqs, cols):
        red.add(eq, p.coeffs.get(mono, Fraction(0)))
        if not red.consistent:
            return None
    sol = red.solution()
    cofactors = tuple(HPoly(nvars, max(big_n - g.degree, 0),
                            {m: sol[v] for v, (i, m) in enumerate(labels)
                             if i == j and sol.get(v)})
                      for j, g in enumerate(gens))
    if not _reexpands(cofactors, gens, p):
        raise ArithmeticError("membership cofactors failed re-expansion")
    return cofactors


@dataclass(frozen=True)
class PowerCertificate:
    """Exact identity x_i^s * R = sum_j b_j * Q_j for the family."""

    index: int
    s: int
    resultant: object
    cofactors: tuple[HPoly, ...]
    polys: tuple[HPoly, ...]
    rank_paths: RankPaths        # a proved probe at t - 1, then one membership
                                 # decision per level tried
    value_paths: RankPaths       # the determinants behind the resultant (where
                                 # det M'' = 0 the critical piece's rank, then
                                 # two per interpolation node), then one for
                                 # the cofactors
    verified: bool               # the identity re-expanded exactly when built

    def verify(self) -> bool:
        nvars = self.polys[0].nvars
        lhs = HPoly.monomial(nvars, tuple(self.s if k == self.index else 0
                                          for k in range(nvars)), self.resultant)
        return _reexpands(self.cofactors, self.polys, lhs)


def _macaulay_cofactors(polys: Sequence[HPoly], adj: Sequence, scale) -> tuple[HPoly, ...]:
    """Cofactors of scale * det M * x^power, deg x^power = t, from row
    `power` of the adjugate of the square Macaulay matrix M.

    Row gamma of M is x^shift * Q_i (`_macaulay_row`), so y with
    sum_gamma y_gamma * row_gamma = det M * e_power puts scale * y_gamma on
    the monomial x^shift of b_i.
    """
    nvars, d = polys[0].nvars, polys[0].degree
    t = nvars * (d - 1) + 1
    coeffs: list[dict] = [{} for _ in polys]
    for gamma, y in zip(monomials(nvars - 1, t), adj):
        i, shift = _macaulay_row(gamma, d)
        coeffs[i][shift] = y if scale == 1 else scale * y
    return tuple(HPoly(nvars, t - d, c) for c in coeffs)


def _power_outside(polys: Sequence[HPoly], index: int, s: int) -> bool:
    """Whether x_index^s is proved outside the degree-s piece of (polys), by
    certified modular rank: the piece's rows and x_index^s reach the
    complete-intersection rank plus one mod p, so the piece has that rank
    exactly and x_index^s adds one to it.  False proves nothing."""
    nvars = polys[0].nvars
    power = tuple(s if k == index else 0 for k in range(nvars))
    rows = ideal_rows(polys, s)[1] + [{monomial_index(nvars - 1, s)[power]: 1}]
    bound = complete_intersection_rank((polys[0].degree,) * nvars, nvars, s) + 1
    return modular_rank_reaches(rows, bound)


def power_certificate(polys: Sequence[HPoly], index: int) -> PowerCertificate:
    """Minimal s with x_index^s * R in the degree-s piece of (Q_0,...,Q_n).

    The bound s <= t = (n+1)(d-1)+1 always suffices for families with nonzero
    resultant (top socle degree of the complete-intersection quotient), so
    failure up to the bound signals non-admissibility.  The level search is
    one probe at t - 1: an ideal is closed under multiplication by x_index, so
    x_index^(t-1) proved outside the piece (`_power_outside`) puts every lower
    power outside, and s = t.  When the probe proves nothing, the ascending
    scan of s = d, ..., t is the fallback: a level below t - 1 is ruled out by
    `_power_outside` or decided by the exact `ideal_membership`.  At t the
    quotient is zero, so no rank test runs: the cofactors come from the
    square Macaulay rows by Cramer's rule (`det_sparse`, multimodular with
    exact fallback), and `ideal_membership` only when det M = 0 there or the
    check fails.  That solve also gives det M in the given frame for the
    resultant, so the Macaulay matrix is built and eliminated once.  Either
    way the identity is re-expanded exactly once, and `verified` records the
    outcome.
    """
    polys = tuple(polys)
    if not polys:
        raise InputError("need n+1 forms of one degree, got none")
    nvars = polys[0].nvars
    n = nvars - 1
    d = polys[0].degree
    if any(p.degree != d for p in polys) or len(polys) != nvars:
        raise InputError(f"need n+1 = {nvars} forms of one degree, got degrees "
                         f"{tuple(p.degree for p in polys)}")
    if not (0 <= index < nvars):
        raise InputError(f"coordinate index must lie in 0..{n}, got {index}")
    s_max = (n + 1) * (d - 1) + 1
    top = monomial_index(n, s_max)[tuple(s_max if k == index else 0 for k in range(nvars))]
    r, solved, value_flags = _resultant(polys, d, top)
    if not r:
        raise NotAdmissibleError("family resultant vanishes; no certificate exists")
    probe = s_max - 1 >= d and _power_outside(polys, index, s_max - 1)
    rank_flags = [True] if probe else []
    for s in range(s_max if probe else d, s_max + 1):
        # a failed probe already tested t - 1, and at t the quotient is zero
        if s < s_max - 1 and _power_outside(polys, index, s):
            rank_flags.append(True)
            continue
        rank_flags.append(False)
        target = HPoly.monomial(nvars, tuple(s if k == index else 0 for k in range(nvars)), r)
        verified = False
        if s == s_max:
            det_m, adj, modular = solved
            if adj is not None:
                scale = 1 if r == det_m else simplify_scalar(r / det_m)
                cofactors = _macaulay_cofactors(polys, adj, scale)
                verified = _reexpands(cofactors, polys, target)
        if not verified:
            # None when target lies outside the piece; raises unless the
            # cofactors it finds re-expand to target
            cofactors, modular = ideal_membership(target, polys), False
            verified = cofactors is not None
        if verified:
            value_flags.append(modular)
            return PowerCertificate(index, s, r, cofactors, polys, RankPaths.count(rank_flags),
                                    RankPaths.count(value_flags), verified)
    raise NotAdmissibleError(
        f"no power certificate up to the Macaulay bound s={s_max}; "
        "family is not in general position")
