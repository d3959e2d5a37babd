import random
from fractions import Fraction

import numpy as np
import pytest

from nevlab.fields import GaussRat, RatFunc, ZPoly
from nevlab.linalg import (Inconsistent, RowReducer, clear_denominators,
                           det_cofactor, det_sparse, solve_system)


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
