"""Resultants of homogeneous forms, general-position checks, power certificates.

Three layers:

  sylvester_resultant   classical 2d x 2d determinant for binary forms (oracle)
  macaulay_resultant    n+1 forms of common degree d via the Macaulay quotient
                        det(M)/det(M''), built at critical degree
                        t = (n+1)(d-1)+1; normalized so res(x_0^d,...,x_n^d)=1
  is_admissible         every (n+1)-subset of a family has resultant not
                        identically zero, decided by certified modular rank
                        with exact fallback; returns a witness parameter point
                        where all subset resultants are simultaneously
                        nonzero, or the failing subset

plus the rows of a graded piece of an ideal (ideal_rows) and the
complete-intersection bound on their rank, graded ideal membership with exact
cofactors (ideal_membership), and power_certificate on top of it: the minimal
s with x_i^s * R in the degree-s graded piece of the ideal generated by the
family.

Determinants of matrices over Q(i)(z) are multimodular with an exact
fallback (`linalg.det_sparse`), and so are a family's cofactors at the
critical degree, fixed or moving: Cramer's rule on the square Macaulay rows
(`linalg.solve_transposed`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

from .fields import GaussRat, PoleError, RatFunc, denominator_lcm, simplify_scalar
from .hpoly import HPoly, monomial_index, monomials
from .linalg import (RankPaths, det_sparse, modular_rank_reaches, solve_system,
                     solve_transposed)


# random coordinate frames macaulay_resultant tries after a 0/0 quotient
FRAME_RETRIES = 5


class DegenerateResultantError(RuntimeError):
    """Macaulay numerator and minor both vanish after all retries."""


class AdmissibilityUndecided(RuntimeError):
    """A capped admissibility search ended before any verdict was proved."""


class NotAdmissibleError(ValueError):
    """A certificate was requested for a family whose resultant vanishes."""


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
    return simplify_scalar(det_sparse(rows))


def _macaulay_row(gamma: tuple, d: int) -> tuple[int, tuple]:
    """(i, gamma - d e_i) for the first i with gamma_i >= d: the Macaulay
    row of the monomial x^gamma is x^(gamma - d e_i) * Q_i."""
    i = next(k for k, e in enumerate(gamma) if e >= d)
    return i, gamma[:i] + (gamma[i] - d,) + gamma[i + 1:]


def _macaulay_matrix(polys: Sequence[HPoly], d: int):
    """Rows of the Macaulay matrix M at critical degree, and the indices of
    its non-reduced monomials, which index the rows and columns of M''."""
    n = polys[0].nvars - 1
    t = (n + 1) * (d - 1) + 1
    cols = monomials(n, t)
    col_index = monomial_index(n, t)
    rows = []
    nr = []
    for pos, gamma in enumerate(cols):
        if sum(1 for e in gamma if e >= d) > 1:
            nr.append(pos)
        i, shift = _macaulay_row(gamma, d)
        row = {}
        for exp, c in polys[i].coeffs.items():
            target = tuple(a + b for a, b in zip(exp, shift))
            row[col_index[target]] = c
        rows.append(row)
    return rows, nr


def _macaulay_dets(polys: Sequence[HPoly], d: int, paths: Optional[list],
                   col: Optional[int] = None):
    """det(M) and det(M'') of the Macaulay construction at critical degree,
    and the Cramer solve for column `col` as `solve_transposed` returns it:
    given `col`, det M is taken from that solve; without it, the third value
    is None."""
    rows, nr = _macaulay_matrix(polys, d)
    solved = None
    if col is None:
        det_m = det_sparse(rows, paths)
    else:
        solved = solve_transposed(rows, col)
        det_m = solved[0]
        paths.append(solved[2])
    nr_index = {k: j for j, k in enumerate(nr)}
    sub_rows = []
    for k in nr:
        row = rows[k]
        sub_rows.append({nr_index[c]: v for c, v in row.items() if c in nr_index})
    det_minor = det_sparse(sub_rows, paths) if nr else Fraction(1)
    return det_m, det_minor, solved


def random_unimodular(nvars: int, rng: random.Random) -> list[list[int]]:
    """Product of shear matrices: integer entries, determinant exactly 1."""
    a = [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)]
    for _ in range(3):
        i, j = rng.sample(range(nvars), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(nvars):
            a[i][k] += c * a[j][k]
    return a


def macaulay_resultant(polys: Sequence[HPoly], seed: int = 1):
    """Resultant of n+1 forms of common degree d in n+1 variables.

    Vanishes exactly when the system has a nontrivial common zero; equals 1 on
    (x_0^d, ..., x_n^d).  A degenerate 0/0 quotient is retried under up to
    FRAME_RETRIES random unimodular coordinate changes (resultant invariant
    since det = 1).
    """
    polys = list(polys)
    nvars = polys[0].nvars
    if len(polys) != nvars:
        raise ValueError(f"need {nvars} forms in {nvars} variables, got {len(polys)}")
    d = polys[0].degree
    if d < 1:
        raise ValueError("common degree must be >= 1")
    if any(p.degree != d or p.nvars != nvars for p in polys):
        raise ValueError("forms must share one degree and one variable count")
    return _resultant(polys, d, seed, None)[0]


def _resultant(polys: Sequence[HPoly], d: int, seed: int, paths: Optional[list],
               col: Optional[int] = None):
    """The Macaulay resultant, and the given frame's Cramer solve for `col`
    as `_macaulay_dets` returns it.  A frame with det M'' = 0 has det M = 0
    as well, so when the frame is retried that solve has no adjugate row."""
    det_m, det_minor, solved = _macaulay_dets(polys, d, paths, col)
    if det_minor:
        return simplify_scalar(det_m if det_minor == 1 else det_m / det_minor), solved
    rng = random.Random(seed)
    nvars = polys[0].nvars
    for _ in range(FRAME_RETRIES):
        a = random_unimodular(nvars, rng)
        moved = [p.compose_linear(a) for p in polys]
        det_m, det_minor, _ = _macaulay_dets(moved, d, paths)
        if det_minor:
            return simplify_scalar(det_m / det_minor), solved
    raise DegenerateResultantError(
        f"Macaulay minor vanished in {FRAME_RETRIES} random coordinate frames")


@dataclass(frozen=True)
class HypersurfaceFamily:
    """q homogeneous forms in n+1 variables, degrees d_1..d_q."""

    n: int
    polys: tuple[HPoly, ...]

    def __init__(self, n: int, polys: Sequence[HPoly]):
        polys = tuple(polys)
        if not polys:
            raise ValueError("empty family")
        for p in polys:
            if p.nvars != n + 1:
                raise ValueError(f"form has {p.nvars} variables, expected {n + 1}")
            if p.is_zero():
                raise ValueError("zero form in family")
            if p.degree < 1:
                raise ValueError("form of degree 0 in family")
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
    witness: Optional[GaussRat]
    failing_subset: Optional[tuple[int, ...]]
    subsets_checked: int
    points_tried: int
    rank_paths: RankPaths        # one resultant nonvanishing test per subset and point


def gaussian_point_stream():
    """Deterministic distinct Gaussian rationals: small favorites then integers."""
    favorites = [GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(2), GaussRat(-2),
                 GaussRat(Fraction(1, 2)), GaussRat(Fraction(-1, 2)),
                 GaussRat(0, 1), GaussRat(0, -1), GaussRat(1, 1),
                 GaussRat(Fraction(1, 3)), GaussRat(Fraction(-1, 3))]
    yield from favorites
    k = 3
    while True:
        yield GaussRat(k)
        yield GaussRat(-k)
        yield GaussRat(Fraction(1, k + 1))
        k += 1


def _subset_zero_budget(lifted: Sequence[HPoly], subset: tuple[int, ...], d: int, n: int) -> int:
    """Upper bound on distinct parameter zeros of the subset's resultant.

    The resultant has degree d^n in each form's coefficients, so substituting
    rational-function coefficients of height h_i yields a rational function of
    the parameter with numerator degree at most d^n * sum(h_i).
    """
    total_h = sum(lifted[j].coeff_height() for j in subset)
    return d ** n * total_h + 1


def _resultant_nonzero(polys: Sequence[HPoly], paths: list) -> bool:
    """Res(polys) != 0, by certified modular rank with exact fallback.

    det(M) = Res * det(M'') for the Macaulay matrix M, so M of full rank mod p
    proves Res != 0; otherwise the exact resultant decides.  Appends to
    `paths` whether the modular rank decided.
    """
    rows, _ = _macaulay_matrix(polys, polys[0].degree)
    modular = modular_rank_reaches(rows, len(rows))
    paths.append(modular)
    return modular or bool(macaulay_resultant(polys))


def is_admissible(fam: HypersurfaceFamily, max_points: Optional[int] = None) -> AdmissibilityReport:
    """Exact general-position verdict for the family.

    Every (n+1)-subset must have resultant (an element of the coefficient
    field) not identically zero.  Moving coefficients are decided by
    specialization at a deterministic stream of parameter points: one nonzero
    value proves nonvanishing, while more distinct vanishing points than the
    subset's zero budget proves identical vanishing.  Each nonvanishing test
    is a certified modular rank with exact fallback (`_resultant_nonzero`);
    the report counts which decided.  A `max_points` cap below what a verdict
    needs raises AdmissibilityUndecided.
    """
    n = fam.n
    if fam.q < n + 1:
        raise ValueError(f"admissibility needs q >= n+1, got q={fam.q}, n={n}")
    d = fam.common_degree()
    lifted = fam.lifted()
    subsets = list(itertools.combinations(range(fam.q), n + 1))

    fixed_subsets = [s for s in subsets if not any(lifted[j].is_moving() for j in s)]
    moving_subsets = [s for s in subsets if any(lifted[j].is_moving() for j in s)]

    paths: list = []
    for s in fixed_subsets:
        if not _resultant_nonzero([lifted[j].specialize(0) for j in s], paths):
            return AdmissibilityReport(False, None, s, len(subsets), 0,
                                       RankPaths.count(paths))

    if not moving_subsets:
        return AdmissibilityReport(True, GaussRat(0), None, len(subsets), 1,
                                   RankPaths.count(paths))

    budgets = {s: _subset_zero_budget(lifted, s, d, n) for s in moving_subsets}
    if max_points is None:
        max_points = sum(budgets.values()) + 1
    zero_counts = {s: 0 for s in moving_subsets}
    nonzero_seen = {s: False for s in moving_subsets}
    tried = 0
    for z0 in gaussian_point_stream():
        if tried >= max_points:
            break
        try:
            specialized = {j: lifted[j].specialize(z0)
                           for j in set(j for s in moving_subsets for j in s)}
        except PoleError:
            continue
        tried += 1
        all_good = True
        for s in moving_subsets:
            if _resultant_nonzero([specialized[j] for j in s], paths):
                nonzero_seen[s] = True
            else:
                all_good = False
                zero_counts[s] += 1
                if zero_counts[s] > budgets[s] and not nonzero_seen[s]:
                    return AdmissibilityReport(False, None, s, len(subsets), tried,
                                               RankPaths.count(paths))
        if all_good:
            return AdmissibilityReport(True, z0, None, len(subsets), tried,
                                       RankPaths.count(paths))
    # only reachable when the caller capped max_points below the zero budget
    raise AdmissibilityUndecided(
        f"admissibility undecided within {tried} parameter points")


def _over_one_denominator(polys: Sequence[HPoly]):
    """(q, numerators): q the monic lcm of the RatFunc denominators among the
    polys' coefficients (None when there are none), and per poly its
    coefficients times q, as ZPoly numerators (plain scalars when q is None)."""
    dens = dict.fromkeys(c.den for p in polys for c in p.coeffs.values()
                         if isinstance(c, RatFunc))
    q = denominator_lcm(dens)
    if q is None:
        return None, [{e: c.num if isinstance(c, RatFunc) else c for e, c in p.coeffs.items()}
                      for p in polys]
    quotients = {den: q // den for den in dens}
    return q, [{e: c.num * quotients[c.den] if isinstance(c, RatFunc) else q * c
                for e, c in p.coeffs.items()} for p in polys]


def _reexpands(cofactors: Sequence[HPoly], gens: Sequence[HPoly], target: HPoly) -> bool:
    """Whether sum_j b_j * g_j == target, exactly.

    The cofactors, the generators and the target are each brought over one
    denominator polynomial (q_b, q_g, q_t), so the products and sums run on
    polynomial numerators, without the gcd a RatFunc operation costs; the
    identity holds iff q_t * sum_j (q_b b_j)(q_g g_j) == q_b q_g (q_t target).
    """
    q_b, bs = _over_one_denominator(cofactors)
    q_g, gs = _over_one_denominator(gens)
    q_t, (t,) = _over_one_denominator([target])
    acc: dict = {}
    for b, g in zip(bs, gs):
        for e1, c1 in b.items():
            for e2, c2 in g.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                prev = acc.get(e)
                acc[e] = c1 * c2 if prev is None else prev + c1 * c2
    for q in (q_b, q_g):
        if q is not None:
            t = {e: c * q for e, c in t.items()}
    if q_t is not None:
        acc = {e: c * q_t for e, c in acc.items()}
    return {e: c for e, c in acc.items() if c} == t


def ideal_rows(gens: Sequence[HPoly], big_n: int) -> tuple[list, list]:
    """The degree-N piece of the ideal (gens) as sparse rows.

    One row per generator g_j of degree at most N and monomial m of degree
    N - deg g_j, in that order: the coefficients of m * g_j by column index in
    monomials(nvars - 1, N).  A row is g_j with exponents shifted by m, so no
    polynomial is multiplied.  Returns (labels, rows) with labels[k] = (j, m).
    """
    nvars = gens[0].nvars
    col_index = monomial_index(nvars - 1, big_n)
    labels, rows = [], []
    for j, g in enumerate(gens):
        if g.degree > big_n:
            continue
        for m in monomials(nvars - 1, big_n - g.degree):
            labels.append((j, m))
            rows.append({col_index[tuple(a + b for a, b in zip(exp, m))]: c
                         for exp, c in g.coeffs.items()})
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
    columns of `ideal_rows`.  A generator of degree above deg p gets the zero
    cofactor.  The identity is re-expanded exactly before it is returned.
    """
    nvars, big_n = p.nvars, p.degree
    labels, rows = ideal_rows(gens, big_n)
    cols = monomials(nvars - 1, big_n)
    eqs: list[dict] = [{} for _ in cols]
    for v, row in enumerate(rows):
        for col, c in row.items():
            eqs[col][v] = c
    sol = solve_system((eq, p.coeffs.get(mono, Fraction(0))) for eq, mono in zip(eqs, cols))
    if sol is None:
        return None
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
    rank_paths: RankPaths        # one membership decision per level tried
    value_paths: RankPaths       # the determinants behind a resultant computed
                                 # here, then one for the cofactors
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


def power_certificate(polys: Sequence[HPoly], index: int,
                      resultant=None) -> PowerCertificate:
    """Minimal s with x_index^s * R in the degree-s piece of (Q_0,...,Q_n).

    The bound s <= (n+1)(d-1)+1 always suffices for families with nonzero
    resultant (top socle degree of the complete-intersection quotient), so
    failure up to the bound signals non-admissibility.  A level is ruled out
    by certified modular rank when the piece's rows and x_index^s reach the
    complete-intersection rank plus one mod p: the piece then has that rank
    exactly and x_index^s lies outside it.  Any other level runs the exact
    `ideal_membership`, except the critical degree t: its cofactors come from
    the square Macaulay rows by Cramer's rule (`solve_transposed`,
    multimodular with exact fallback), and `ideal_membership` only when
    det M = 0 there or the check fails.  When the resultant is computed here,
    that solve also gives det M in the given frame, so the Macaulay matrix is
    built and eliminated once.  Either way the identity is re-expanded
    exactly once, and `verified` records the outcome.
    """
    polys = tuple(polys)
    nvars = polys[0].nvars
    n = nvars - 1
    d = polys[0].degree
    if any(p.degree != d for p in polys) or len(polys) != nvars:
        raise ValueError("need n+1 forms of one degree in n+1 variables")
    if not (0 <= index < nvars):
        raise ValueError(f"coordinate index {index} out of range")
    s_max = (n + 1) * (d - 1) + 1
    top = monomial_index(n, s_max)[tuple(s_max if k == index else 0 for k in range(nvars))]
    value_paths: list = []
    if resultant is None:
        r, solved = _resultant(polys, d, 1, value_paths, top)
    else:
        r, solved = resultant, None
    if not r:
        raise NotAdmissibleError("family resultant vanishes; no certificate exists")
    paths: list = []
    for s in range(d, s_max + 1):
        power = tuple(s if k == index else 0 for k in range(nvars))
        rows = ideal_rows(polys, s)[1] + [{monomial_index(n, s)[power]: 1}]
        bound = complete_intersection_rank((d,) * nvars, nvars, s) + 1
        if modular_rank_reaches(rows, bound):
            paths.append(True)
            continue
        paths.append(False)
        target = HPoly.monomial(nvars, power, r)
        verified = False
        if s == s_max:
            if solved is None:
                solved = solve_transposed(_macaulay_matrix(polys, d)[0], top)
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
            value_paths.append(modular)
            return PowerCertificate(index, s, r, cofactors, polys, RankPaths.count(paths),
                                    RankPaths.count(value_paths), verified)
    raise NotAdmissibleError(
        f"no power certificate up to the Macaulay bound s={s_max}; "
        "family is not in general position")
