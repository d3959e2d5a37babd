import random
from fractions import Fraction

import numpy as np
import pytest

from nevlab import linalg
from nevlab.fields import GaussRat, RatFunc, ZPoly
from nevlab.linalg import (Inconsistent, RankPaths, RowReducer, certified_rank,
                           clear_denominators, det_cofactor, det_sparse,
                           modular_rank_reaches, solve_system)


def _rand_matrix(rng, k):
    return [[Fraction(rng.randint(-4, 4)) for _ in range(k)] for _ in range(k)]


def test_rank_counts_independent_rows():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)},      # dependent
            {1: Fraction(1)}]
    red = RowReducer()
    for row in rows:
        red.add(row)
    assert red.rank == 2


def test_rowreducer_incremental_rank():
    red = RowReducer()
    assert red.add({0: Fraction(1), 2: Fraction(3)})
    assert not red.add({0: Fraction(2), 2: Fraction(6)})
    assert red.add({1: Fraction(1)})
    assert red.rank == 2


def test_solve_system_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        k = rng.randint(1, 4)
        mat = _rand_matrix(rng, k)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        rows = []
        for i in range(k):
            vec = {j: mat[i][j] for j in range(k) if mat[i][j]}
            rhs = sum((mat[i][j] * x[j] for j in range(k)), Fraction(0))
            rows.append((vec, rhs))
        sol = solve_system(rows)
        assert sol is not None
        # the found solution must satisfy every equation (it may differ from
        # x when the matrix is singular)
        for vec, rhs in rows:
            assert sum((v * sol.get(c, Fraction(0)) for c, v in vec.items()),
                       Fraction(0)) == rhs


def test_solve_system_detects_inconsistency():
    rows = [({0: Fraction(1)}, Fraction(1)),
            ({0: Fraction(1)}, Fraction(2))]
    assert solve_system(rows) is None
    red = RowReducer(track_rhs=True)
    red.add({0: Fraction(1)}, Fraction(1))
    with pytest.raises(Inconsistent):
        red.add({0: Fraction(1)}, Fraction(2))


def test_det_sparse_matches_float_determinant():
    rng = random.Random(37)
    for _ in range(20):
        k = rng.randint(1, 5)
        mat = _rand_matrix(rng, k)
        rows = [{j: mat[i][j] for j in range(k) if mat[i][j]} for i in range(k)]
        exact = det_sparse(rows, k)
        approx = np.linalg.det(np.array(mat, dtype=float)) if k else 1.0
        assert float(exact) == pytest.approx(approx, abs=1e-6)


def test_det_cofactor_agrees_with_det_sparse():
    rng = random.Random(41)
    for _ in range(15):
        k = rng.randint(1, 4)
        mat = _rand_matrix(rng, k)
        rows = [{j: mat[i][j] for j in range(k) if mat[i][j]} for i in range(k)]
        assert det_cofactor(mat) == det_sparse(rows, k)


def test_det_cofactor_over_polynomials():
    z = ZPoly((0, 1))
    one = ZPoly((1,))
    # Vandermonde-flavored: det [[1, z], [1, z+1]] = 1
    assert det_cofactor([[one, z], [one, z + ZPoly((1,))]]) == one
    assert det_cofactor([[z]]) == z


def test_clear_denominators_scales_away_ratfuncs():
    f = RatFunc(ZPoly((1,)), ZPoly((0, 1)))       # 1/z
    g = RatFunc(ZPoly((1,)), ZPoly((1, 1)))       # 1/(z+1)
    vec, rhs = clear_denominators({0: f, 1: g}, RatFunc(ZPoly((1,))))
    for v in vec.values():
        assert v.den.degree == 0
    assert rhs.den.degree == 0


def test_reducer_over_function_field():
    red = RowReducer()
    z = RatFunc(ZPoly((0, 1)))
    assert red.add({0: z, 1: z * z})
    assert not red.add({0: RatFunc(ZPoly((1,))), 1: z})   # same row over the field
    assert red.rank == 1


def test_reducer_over_gaussian_scalars():
    red = RowReducer()
    i = GaussRat(0, 1)
    red.add({0: i, 1: GaussRat(1)})
    assert not red.add({0: GaussRat(-1), 1: i})           # i * first row
    assert red.rank == 1


def _exact_rank(rows):
    red = RowReducer()
    for row in rows:
        red.add(row)
    return red.rank


def _rand_tower_rows(rng, k, cols):
    """Rows over Q(i)(z) mixing Fractions, GaussRats and rational functions,
    with rank deficits from repeated combinations of earlier rows."""
    rows = []
    for _ in range(k):
        if rows and rng.random() < 0.3:
            a, b = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
            f = GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
            row = dict(rows[a])
            for c, v in rows[b].items():
                row[c] = row.get(c, Fraction(0)) + f * v
            rows.append({c: v for c, v in row.items() if v})
            continue
        row = {}
        for c in range(cols):
            kind = rng.randrange(4)
            if kind == 0:
                continue
            if kind == 1:
                row[c] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            elif kind == 2:
                row[c] = GaussRat(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                  rng.randint(-2, 2))
            else:
                row[c] = RatFunc(ZPoly((rng.randint(-3, 3), 1)),
                                 ZPoly((rng.randint(1, 5), 1)))
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_certified_rank_equals_exact_rank():
    # the true rank as the bound is certified mod p; a bound one above it
    # is never reached mod p, so exact elimination decides
    rng = random.Random(61)
    for _ in range(20):
        rows = _rand_tower_rows(rng, rng.randint(1, 6), rng.randint(1, 6))
        rank = _exact_rank(rows)
        assert certified_rank(rows, rank) == (rank, True)
        assert certified_rank(rows, rank + 1) == (rank, False)


def test_modular_rank_is_a_lower_bound_at_an_unlucky_prime(monkeypatch):
    # mod 5 the rows (1, 1) and (1, 6) coincide: the modular rank falls short
    # of the exact rank 2, which a bad prime can only make undecided
    rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(6)}]
    monkeypatch.setattr(linalg, "MODULI", ((5, 2, 1),))
    assert not modular_rank_reaches(rows, 2)
    assert certified_rank(rows, 2) == (2, False)
    monkeypatch.setattr(linalg, "MODULI", ((5, 2, 1), (13, 5, 1)))
    assert certified_rank(rows, 2) == (2, True)


def test_modular_images_of_tower_scalars():
    p, i, z0 = linalg.MODULI[0]
    assert i * i % p == p - 1
    half = GaussRat(Fraction(1, 2), 3)
    assert linalg._mod_p(half, p, i, z0) == (pow(2, -1, p) + 3 * i) % p
    f = RatFunc(ZPoly((1, 1)), ZPoly((2, 1)))          # (z + 1)/(z + 2)
    assert linalg._mod_p(f, p, i, z0) == (z0 + 1) * pow(z0 + 2, -1, p) % p
    pole = RatFunc(ZPoly((1,)), ZPoly((-z0, 1)))        # 1/(z - z0)
    assert linalg._mod_p(pole, p, i, z0) is None
    assert linalg._mod_p(Fraction(1, p), p, i, z0) is None


def test_rank_paths_count():
    assert RankPaths.count([True, False, True]) == RankPaths(modular=2, exact=1)
    assert RankPaths.count([]) == RankPaths(0, 0)
