import itertools
from fractions import Fraction
from math import comb

import pytest

from nevlab.bounds import a_lower_bound
from nevlab.fields import GaussRat
from nevlab.filtration import (FiltrationTable, basis_is_independent,
                               build_filtration, construct_psi_basis,
                               filtration_tuples, quotient_dim, tuple_count)
from nevlab.hpoly import HPoly, monomials
from nevlab.linalg import RowReducer
from nevlab.resultant import HypersurfaceFamily


def _coords(n):
    return [HPoly.coordinate(n + 1, k) for k in range(n + 1)]


def stage_span_rows(fam, table, k):
    """Spanning vectors of V_N^{I_k} = sum over I >= I_k of Q_J^I * V_{N-d|I|}.

    Built from the definition, independently of the quotient dimensions that
    build_filtration uses, so their rank drops are an oracle for the blocks.
    """
    lifted = fam.lifted()
    gens = [lifted[j] for j in table.subset]
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
            p = qpower * HPoly.monomial(nvars, m)
            rows.append({col_index[e]: c for e, c in p.coeffs.items()})
    return rows


def _fermat(n, d, q=None):
    polys = [HPoly.monomial(n + 1, tuple(d if j == i else 0
                                         for j in range(n + 1)))
             for i in range(n + 1)]
    if q is not None:
        extra = HPoly(n + 1, d, {e: 1 for e in monomials(n, d)})
        polys += [extra] * (q - n - 1)
    return HypersurfaceFamily(n, polys)


def test_tuple_count_closed_form_and_saturation():
    # inclusion-exclusion count of lattice points; saturates at d^n
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            for big_n in range(0, 10):
                got = tuple_count(big_n, d, n)
                brute = sum(1 for i in itertools.product(range(big_n + 1),
                                                         repeat=n)
                            if all(v < d for v in i) and
                            sum(v for v in i) <= big_n)
                # brute: 0 <= i_s <= d-1 with sum i_s <= big_n
                assert got == brute
                if big_n >= n * (d - 1):
                    assert got == d ** n


def test_filtration_tuples_shape():
    ts = filtration_tuples(2, 2)
    assert len(ts) == comb(4, 2)
    assert ts[0] == (0, 0)
    assert list(ts) == sorted(ts)
    assert all(sum(t) <= 2 for t in ts)


def test_quotient_dim_complete_intersection():
    # x0^d, x1^d in P^2 coordinates: quotient dims follow tuple_count
    x0, x1, x2 = _coords(2)
    gens = [x0 * x0, x1 * x1]
    for big_n in range(0, 7):
        assert quotient_dim(gens, big_n) == tuple_count(big_n, 2, 2)
    assert quotient_dim(gens, 6) == 4


def test_build_filtration_level_must_be_multiple():
    fam = _fermat(1, 2, q=3)
    with pytest.raises(ValueError):
        build_filtration(fam, (0,), 3)


def test_filtration_table_identities():
    fam = _fermat(2, 2, q=4)
    table = build_filtration(fam, (0, 1), 4)
    assert table.m_total == comb(4 + 2, 2)
    assert len(table.tuples) == table.k_count == len(table.multiplicities)
    for idx, m in zip(table.tuples, table.multiplicities):
        assert m == quotient_dim([fam.lifted()[0], fam.lifted()[1]],
                                 4 - 2 * sum(idx))
    assert table.a_constant >= a_lower_bound(table.n, table.d, table.big_n)


def test_block_dims_equal_span_rank_drops():
    # dim of each graded block from explicit spanning rows
    fam = _fermat(1, 2, q=3)
    table = build_filtration(fam, (0,), 4)
    ranks = []
    for k in range(table.k_count):
        red = RowReducer()
        for row in stage_span_rows(fam, table, k):
            red.add(row)
        ranks.append(red.rank)
    ranks.append(0)
    drops = [a - b for a, b in zip(ranks, ranks[1:])]
    assert drops == list(table.multiplicities)
    assert ranks[0] == table.m_total


def test_psi_basis_counts_and_exponent_sums():
    fam = _fermat(1, 1, q=3)
    table = build_filtration(fam, (1,), 3)
    basis = construct_psi_basis(fam, (1,), 3, table)
    assert len(basis.polys) == table.m_total
    assert basis_is_independent(basis)
    assert basis.exponent_sum(0) == table.a_constant
    assert all(p.degree == 3 for p in basis.polys)


def test_a_constant_subset_independent():
    fam = _fermat(2, 1, q=4)
    a_values = {build_filtration(fam, s, 3).a_constant
                for s in ((0, 1), (1, 2), (0, 2))}
    assert len(a_values) == 1
