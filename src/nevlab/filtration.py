"""Graded ideal dimensions, the lexicographic filtration of V_N, and psi bases.

V_N is the space of homogeneous degree-N forms in x_0..x_n.  For an n-subset
J of an admissible family (common degree d, d | N) the filtration is indexed
by the n-tuples I with |I| <= N/d in ascending lexicographic order; the block
multiplicities m_k are complete-intersection quotient dimensions, their
weighted sum A = sum_k m_k i_sk is independent of the coordinate s, and the
psi basis realizes the blocks as Q_J^{I_k}-multiples of greedy monomial
representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .hpoly import HPoly, monomials
from .linalg import RowReducer, solve_system
from .resultant import HypersurfaceFamily


def tuple_count(big_n: int, d: int, n: int) -> int:
    """#{(i_1,...,i_n) : 0 <= i_s <= d-1, sum i_s <= N}.

    Closed form by inclusion-exclusion over the i_s >= d violations; equals
    d^n once N >= n(d-1).
    """
    if big_n < 0 or d < 1 or n < 1:
        raise ValueError("need N >= 0, d >= 1, n >= 1")
    total = 0
    for j in range(n + 1):
        rest = big_n - j * d
        if rest < 0:
            break
        total += (-1) ** j * comb(n, j) * comb(rest + n, n)
    return total


def _poly_vector(p: HPoly, col_index: dict) -> dict:
    return {col_index[e]: c for e, c in p.coeffs.items()}


def _ideal_rows(gens: Sequence[HPoly], big_n: int, col_index: dict):
    """Vectors spanning the degree-N piece of the ideal (g_1,...,g_k)."""
    nvars = gens[0].nvars
    for g in gens:
        shift = big_n - g.degree
        if shift < 0:
            continue
        for m in monomials(nvars - 1, shift):
            yield _poly_vector(HPoly.monomial(nvars, m) * g, col_index)


def graded_ideal_dim(gens: Sequence[HPoly], big_n: int) -> int:
    """dim of the degree-N graded piece of the ideal generated by gens."""
    if big_n < 0:
        raise ValueError("degree must be nonnegative")
    nvars = gens[0].nvars
    col_index = {m: k for k, m in enumerate(monomials(nvars - 1, big_n))}
    red = RowReducer()
    for row in _ideal_rows(gens, big_n, col_index):
        red.add(row)
    return red.rank


def quotient_dim(gens: Sequence[HPoly], big_n: int) -> int:
    """dim V_N / (gens) cap V_N; equals tuple_count for admissible families."""
    nvars = gens[0].nvars
    return comb(big_n + nvars - 1, nvars - 1) - graded_ideal_dim(gens, big_n)


def ideal_membership(p: HPoly, gens: Sequence[HPoly]):
    """Exact membership of p in the ideal piece of its own degree.

    Returns (True, cofactors) with sum(cofactor_i * g_i) == p verified, or
    (False, None).
    """
    nvars = p.nvars
    big_n = p.degree
    var_of = {}
    for j, g in enumerate(gens):
        shift = big_n - g.degree
        if shift < 0:
            continue
        for m in monomials(nvars - 1, shift):
            var_of[(j, m)] = len(var_of)
    rows: dict[tuple, dict] = {}
    for (j, m), v in var_of.items():
        for exp, c in (HPoly.monomial(nvars, m) * gens[j]).coeffs.items():
            row = rows.setdefault(exp, {})
            row[v] = row.get(v, Fraction(0)) + c
    eqs = []
    for mono in monomials(nvars - 1, big_n):
        eqs.append((rows.get(mono, {}), p.coeffs.get(mono, Fraction(0))))
    sol = solve_system(eqs)
    if sol is None:
        return False, None
    cofs = []
    for j, g in enumerate(gens):
        shift = big_n - g.degree
        coeffs = {}
        if shift >= 0:
            for m in monomials(nvars - 1, shift):
                v = var_of[(j, m)]
                if v in sol and sol[v]:
                    coeffs[m] = sol[v]
        cofs.append(HPoly(nvars, max(shift, 0), coeffs))
    acc = HPoly.zero(nvars, big_n)
    for cf, g in zip(cofs, gens):
        if not cf.is_zero():
            acc = acc + cf * g
    if acc != p:
        raise AssertionError("membership cofactors failed re-expansion")
    return True, tuple(cofs)


def filtration_tuples(t: int, n: int) -> tuple[tuple, ...]:
    """All n-tuples with sum <= t, ascending lexicographic order."""
    out = [i for i in itertools.product(range(t + 1), repeat=n) if sum(i) <= t]
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class FiltrationTable:
    """Index tuples, multiplicities, and the constant A for one (N, d, n, J)."""

    n: int
    d: int
    big_n: int
    subset: tuple[int, ...]
    tuples: tuple[tuple, ...]
    multiplicities: tuple[int, ...]
    a_constant: int

    @property
    def k_count(self) -> int:
        return len(self.tuples)

    @property
    def m_total(self) -> int:
        return sum(self.multiplicities)


def _subset_polys(fam: HypersurfaceFamily, subset: Sequence[int]) -> tuple[HPoly, ...]:
    lifted = fam.lifted()
    return tuple(lifted[j] for j in subset)


def build_filtration(fam: HypersurfaceFamily, subset: Sequence[int], big_n: int) -> FiltrationTable:
    """Filtration table for the n-subset `subset` (0-based indices) at level N.

    Requires d | N where d is the family's common degree.  The family is
    assumed admissible (multiplicities are quotient dimensions of a regular
    sequence; inadmissible input surfaces as a failed A-consistency check).
    """
    n = fam.n
    subset = tuple(subset)
    if len(subset) != n or len(set(subset)) != n:
        raise ValueError(f"subset must pick {n} distinct forms")
    d = fam.common_degree()
    if big_n < 0 or big_n % d:
        raise ValueError(f"level N={big_n} is not a nonnegative multiple of d={d}")
    gens = _subset_polys(fam, subset)
    t = big_n // d
    tuples = filtration_tuples(t, n)
    if len(tuples) != comb(t + n, n):
        raise AssertionError("tuple enumeration does not match C(N/d+n, n)")
    dims_by_level: dict[int, int] = {}
    mults = []
    for idx in tuples:
        level = big_n - d * sum(idx)
        if level not in dims_by_level:
            dims_by_level[level] = quotient_dim(gens, level)
        mults.append(dims_by_level[level])
    a_by_coord = [sum(m * idx[s] for m, idx in zip(mults, tuples)) for s in range(n)]
    if len(set(a_by_coord)) != 1:
        raise AssertionError(f"A is coordinate-dependent: {a_by_coord}")
    return FiltrationTable(n=n, d=d, big_n=big_n, subset=subset, tuples=tuples,
                           multiplicities=tuple(mults), a_constant=a_by_coord[0])


@dataclass(frozen=True)
class PsiBasis:
    """Basis of V_N respecting the filtration blocks.

    psi_l = Q_{j_1}^{i_1k} ... Q_{j_n}^{i_nk} * gamma_l with gamma_l a monomial;
    factorizations stores (block index k, gamma exponent tuple) per element.
    """

    table: FiltrationTable
    polys: tuple[HPoly, ...]
    factorizations: tuple[tuple[int, tuple], ...]

    def exponent_sum(self, s: int) -> int:
        """Total exponent of Q_{j_s} across the basis; equals A for every s."""
        return sum(self.table.tuples[k][s] for k, _ in self.factorizations)


def construct_psi_basis(fam: HypersurfaceFamily, subset: Sequence[int], big_n: int,
                        table: Optional[FiltrationTable] = None) -> PsiBasis:
    """Greedy psi basis: per block, lex-descending monomial representatives
    of the complete-intersection quotient, multiplied by Q_J^{I_k}."""
    if table is None:
        table = build_filtration(fam, subset, big_n)
    gens = _subset_polys(fam, table.subset)
    nvars = fam.n + 1
    d = table.d
    psis = []
    facts = []
    for k, (idx, mk) in enumerate(zip(table.tuples, table.multiplicities)):
        level = table.big_n - d * sum(idx)
        col_index = {m: c for c, m in enumerate(monomials(nvars - 1, level))}
        red = RowReducer()
        for row in _ideal_rows(gens, level, col_index):
            red.add(row)
        qpower = HPoly(nvars, 0, {(0,) * nvars: 1})
        for g, e in zip(gens, idx):
            if e:
                qpower = qpower * g ** e
        taken = 0
        for m in monomials(nvars - 1, level):
            if taken == mk:
                break
            if red.add({col_index[m]: Fraction(1)}):
                psis.append(qpower * HPoly.monomial(nvars, m))
                facts.append((k, m))
                taken += 1
        if taken != mk:
            raise AssertionError(f"block {k} found {taken} representatives, expected {mk}")
    basis = PsiBasis(table=table, polys=tuple(psis), factorizations=tuple(facts))
    for s in range(table.n):
        if basis.exponent_sum(s) != table.a_constant:
            raise AssertionError("psi exponent sum disagrees with A")
    return basis


def basis_is_independent(basis: PsiBasis) -> bool:
    """Exact rank check: the M psi polynomials are linearly independent."""
    nvars = basis.polys[0].nvars
    col_index = {m: k for k, m in enumerate(monomials(nvars - 1, basis.table.big_n))}
    red = RowReducer()
    for p in basis.polys:
        if not red.add(_poly_vector(p, col_index)):
            return False
    return True


def stage_span_rows(fam: HypersurfaceFamily, table: FiltrationTable, k: int):
    """Spanning vectors of V_N^{I_k} = sum over I >= I_k of Q_J^I * V_{N-d|I|}."""
    gens = _subset_polys(fam, table.subset)
    nvars = fam.n + 1
    col_index = {m: c for c, m in enumerate(monomials(nvars - 1, table.big_n))}
    rows = []
    for idx in table.tuples[k:]:
        level = table.big_n - table.d * sum(idx)
        qpower = HPoly(nvars, 0, {(0,) * nvars: 1})
        for g, e in zip(gens, idx):
            if e:
                qpower = qpower * g ** e
        for m in monomials(nvars - 1, level):
            rows.append(_poly_vector(qpower * HPoly.monomial(nvars, m), col_index))
    return rows, col_index
