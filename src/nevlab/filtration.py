"""Graded ideal dimensions, the lexicographic filtration of V_N, and psi bases.

V_N is the space of homogeneous degree-N forms in x_0..x_n.  For an n-subset
J of an admissible family (common degree d, d | N) the filtration is indexed
by the n-tuples I with |I| <= N/d in ascending lexicographic order; the block
multiplicities m_k are complete-intersection quotient dimensions, their
weighted sum A = sum_k m_k i_sk is independent of the coordinate s, and the
psi basis realizes the blocks as Q_J^{I_k}-multiples of greedy monomial
representatives.  Quotient dimensions and the independence check of a psi
basis take certified modular ranks with exact fallback (linalg); the greedy
basis itself is found by exact elimination.

For n <= 2 regularity decides every level of a table at once.  One nonzero
form is a regular sequence, so an n = 1 table takes no rank.  Two forms f, g
of degree d with a greatest common factor h of degree e >= 1 have the Koszul
homology H_1 = (R/(h))(-(2d - e)), so dim (R/(f, g))_L exceeds the
complete-intersection value exactly for L >= 2d - e (Eisenbud, Commutative
Algebra, section 17): one certified quotient dimension at level
L0 = min(N, 2d - 1) decides every level <= N.  Equal to tuple_count, it
proves them all; otherwise the pair has a common factor, so level N >= L0
fails too, and the table is refused at L0 alone.  For n >= 3 each distinct
level is decided in turn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .fields import InputError, Obstruction
from .hpoly import HPoly, monomial_index, monomials
from .linalg import RankPaths, RowReducer, certified_rank
from .resultant import HypersurfaceFamily, complete_intersection_rank, ideal_rows


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


def quotient_dim(gens: Sequence[HPoly], big_n: int) -> tuple[int, bool]:
    """dim V_N / (gens) cap V_N, by certified modular rank with exact
    fallback, and whether the modular rank decided.

    With at most nvars generators the complete-intersection rank bounds the
    rank of the ideal's degree-N piece, and a modular rank reaching it is
    exact; that is the case for admissible families, where the dimension is
    tuple_count.  Otherwise (an inadmissible subset, more generators, or a
    short modular rank) exact elimination decides.
    """
    nvars = gens[0].nvars
    rows = ideal_rows(gens, big_n)[1]
    bound = len(rows)
    if len(gens) <= nvars:
        bound = complete_intersection_rank([g.degree for g in gens], nvars, big_n)
    rank, modular = certified_rank(rows, bound)
    return len(monomials(nvars - 1, big_n)) - rank, modular


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
    rank_paths: RankPaths        # quotient dimensions decided: none for n = 1, one for
                                 # n = 2, else one per distinct level

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

    Requires d | N where d is the family's common degree, and an admissible
    family: its n-subsets are then regular sequences, so every multiplicity
    is the complete-intersection quotient dimension tuple_count at its level,
    and A is coordinate-independent because m_k depends on |I_k| alone.  For
    n <= 2 regularity is decided at one level at most (module docstring);
    for n >= 3 each distinct level's quotient dimension is decided once, in
    tuple order.  A decided dimension that is not tuple_count (an inadmissible
    subset) raises Obstruction naming its level.
    """
    n = fam.n
    subset = tuple(subset)
    if len(subset) != n or len(set(subset)) != n or not all(0 <= j < fam.q for j in subset):
        raise InputError(f"subset must pick {n} distinct form indices in 0..{fam.q - 1}, "
                         f"got {subset}")
    d = fam.common_degree()
    if big_n < 0 or big_n % d:
        raise InputError(f"level N={big_n} is not a nonnegative multiple of d={d}")
    gens = _subset_polys(fam, subset)
    tuples = filtration_tuples(big_n // d, n)
    mults = [tuple_count(big_n - d * sum(idx), d, n) for idx in tuples]
    if n == 1:
        levels = ()
    elif n == 2:
        levels = (min(big_n, 2 * d - 1),)
    else:
        levels = dict.fromkeys(big_n - d * sum(idx) for idx in tuples)   # distinct, in order
    flags = []
    for level in levels:
        dim, modular = quotient_dim(gens, level)
        flags.append(modular)
        want = tuple_count(level, d, n)
        if dim != want:
            raise Obstruction(
                f"quotient dimension {dim} at level {level} is not the "
                f"complete-intersection {want} (is the family admissible?)")
    return FiltrationTable(n=n, d=d, big_n=big_n, subset=subset, tuples=tuples,
                           multiplicities=tuple(mults),
                           a_constant=sum(m * idx[0] for m, idx in zip(mults, tuples)),
                           rank_paths=RankPaths.count(flags))


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


def construct_psi_basis(fam: HypersurfaceFamily, table: FiltrationTable) -> PsiBasis:
    """Greedy psi basis for the filtration table of an n-subset of the
    family: per block, lex-descending monomial representatives of the
    complete-intersection quotient, multiplied by Q_J^{I_k}."""
    gens = _subset_polys(fam, table.subset)
    nvars = fam.n + 1
    d = table.d
    psis = []
    facts = []
    for k, (idx, mk) in enumerate(zip(table.tuples, table.multiplicities)):
        level = table.big_n - d * sum(idx)
        red = RowReducer()
        for row in ideal_rows(gens, level)[1]:
            red.add(row)
        col_index = monomial_index(nvars - 1, level)
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
            raise Obstruction(f"block {k} found {taken} representatives, expected {mk} "
                              "(is the family admissible?)")
    basis = PsiBasis(table=table, polys=tuple(psis), factorizations=tuple(facts))
    for s in range(table.n):
        if basis.exponent_sum(s) != table.a_constant:
            raise Obstruction("psi exponent sum disagrees with A "
                              "(is the family admissible?)")
    return basis


def basis_is_independent(basis: PsiBasis) -> bool:
    """The M psi polynomials are linearly independent: certified modular rank
    M (M rows have rank at most M), exact fallback."""
    col_index = monomial_index(basis.polys[0].nvars - 1, basis.table.big_n)
    rows = [{col_index[e]: c for e, c in p.coeffs.items()} for p in basis.polys]
    return certified_rank(rows, len(rows))[0] == len(rows)
