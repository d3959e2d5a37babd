import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest

from nevlab import fields, linalg
from nevlab.fields import GaussRat, RatFunc, ZPoly
from nevlab.filtration import build_filtration
from nevlab.hpoly import HPoly, monomials
from nevlab.linalg import (RankPaths, RowReducer, certified_rank, clear_denominators,
                           det_cofactor, det_sparse, modular_rank_reaches)
from nevlab.resultant import (HypersurfaceFamily, _macaulay_matrix, complete_intersection_rank,
                              ideal_rows, is_admissible, power_certificate)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_rowreducer_solution_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        k = rng.randint(1, 4)
        mat = _rand_matrix(rng, k)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        rows = []
        red = RowReducer()
        for i in range(k):
            vec = {j: mat[i][j] for j in range(k) if mat[i][j]}
            rhs = sum((mat[i][j] * x[j] for j in range(k)), Fraction(0))
            rows.append((vec, rhs))
            red.add(vec, rhs)
        assert red.consistent
        sol = red.solution()
        # the found solution must satisfy every equation (it may differ from
        # x when the matrix is singular)
        for vec, rhs in rows:
            assert sum((v * sol.get(c, Fraction(0)) for c, v in vec.items()),
                       Fraction(0)) == rhs


def test_rowreducer_clears_consistent_on_an_inconsistent_row():
    red = RowReducer()
    assert red.add({0: Fraction(1), 1: Fraction(1)}, Fraction(1))
    # a row fed without a right-hand side is reduced against one that has one
    assert red.add({0: Fraction(1)})
    assert red.consistent and red.solution() == {0: 0, 1: 1}
    assert not red.add({1: Fraction(2)}, Fraction(2))
    assert red.consistent and red.singular
    assert not red.add({0: Fraction(1), 1: Fraction(1)}, Fraction(2))
    assert not red.consistent
    assert not red.add({0: Fraction(3)})             # 0 = 0 does not restore it
    assert not red.consistent and red.rank == 2


def test_det_sparse_matches_float_determinant():
    rng = random.Random(37)
    for _ in range(20):
        k = rng.randint(1, 5)
        mat = _rand_matrix(rng, k)
        rows = [{j: mat[i][j] for j in range(k) if mat[i][j]} for i in range(k)]
        exact = det_sparse(rows)[0]
        approx = np.linalg.det(np.array(mat, dtype=float)) if k else 1.0
        assert float(exact) == pytest.approx(approx, abs=1e-6)


def test_det_cofactor_agrees_with_det_sparse():
    rng = random.Random(41)
    for _ in range(15):
        k = rng.randint(1, 4)
        mat = _rand_matrix(rng, k)
        rows = [{j: mat[i][j] for j in range(k) if mat[i][j]} for i in range(k)]
        assert det_cofactor(mat) == det_sparse(rows)[0]


def test_det_cofactor_over_polynomials():
    z = ZPoly((0, 1))
    one = ZPoly((1,))
    # Vandermonde-flavored: det [[1, z], [1, z+1]] = 1
    assert det_cofactor([[one, z], [one, z + ZPoly((1,))]]) == one
    assert det_cofactor([[z]]) == z


def test_clear_denominators_scales_away_ratfuncs():
    f = RatFunc(ZPoly((1,)), ZPoly((0, 1)))       # 1/z
    g = RatFunc(ZPoly((1,)), ZPoly((1, 1)))       # 1/(z+1)
    vec, rhs, mult = clear_denominators({0: f, 1: g}, RatFunc(ZPoly((1,))))
    for v in vec.values():
        assert v.den.degree == 0
    assert rhs.den.degree == 0
    assert mult == RatFunc(ZPoly((0, 1, 1)))             # z (z + 1)
    assert rhs == mult and vec == {0: RatFunc(ZPoly((1, 1))), 1: RatFunc(ZPoly((0, 1)))}
    plain = {0: GaussRat(1, 2)}
    assert clear_denominators(plain, Fraction(3)) == (plain, Fraction(3), None)


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
    # each scalar alone in a row is scaled by L_r = c_r l_r to a Gaussian-
    # integer polynomial in z, whose image mod p always exists: a pole of the
    # scalar at z0, or a denominator divisible by p, is scaled away
    p, i, z0 = linalg.MODULI[0]
    assert i * i % p == p - 1
    half = GaussRat(Fraction(1, 2), 3)
    f = RatFunc(ZPoly((1, 1)), ZPoly((2, 1)))          # (z + 1)/(z + 2)
    pole = RatFunc(ZPoly((1,)), ZPoly((-z0, 1)))        # 1/(z - z0)
    scalars = [half, f, pole, Fraction(1, p)]
    scaled, scales = linalg._gaussian_integer_rows([{0: v} for v in scalars])
    assert scaled == [{0: ((1, 6),)}, {0: ((1, 0), (1, 0))}, {0: ((1, 0),)}, {0: ((1, 0),)}]
    assert scales == [(2, None), (1, ZPoly((2, 1))), (1, ZPoly((-z0, 1))), (p, None)]
    image = linalg._image(scaled, 1, z0, i, p)
    assert image == [{0: (1 + 6 * i) % p, 1: (z0 + 1) % p, 2: 1, 3: 1}]
    # where the scalar has an image, the scaled one is L_r(z0) times it
    assert image[0][0] == 2 * (pow(2, -1, p) + 3 * i) % p
    assert image[0][1] == (z0 + 2) * ((z0 + 1) * pow(z0 + 2, -1, p)) % p
    # the transpose: one image row per column, keyed by the scaled row
    assert linalg._image([{1: ((2, 0),)}, {0: ((0, 1), (1, 0))}], 2, 3, i, p) == [
        {1: (i + 3) % p}, {0: 2}]
    assert linalg._image([{0: ((p, 0),)}], 1, z0, i, p) == [{}]


def test_rank_paths_count():
    assert RankPaths.count([True, False, True]) == RankPaths(modular=2, exact=1)
    assert RankPaths.count([]) == RankPaths(0, 0)


def _is_prime(n):
    # deterministic Miller-Rabin: these bases decide every n < 3.3e24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_table():
    assert len({p for p, _ in linalg.PRIMES}) == len(linalg.PRIMES)
    for p, i in linalg.PRIMES:
        assert _is_prime(p) and p % 4 == 1
        assert i * i % p == p - 1
    # the rank moduli: two distinct word-size primes p = 1 (mod 4), each with a
    # root of -1 and a residue for z, below p
    assert len(linalg.MODULI) == 2 and len({p for p, _, _ in linalg.MODULI}) == 2
    for p, i, z0 in linalg.MODULI:
        assert _is_prime(p) and p % 4 == 1 and p < 2 ** 30
        assert i * i % p == p - 1
        assert 0 <= z0 < p


class _Row(dict):
    """A row of integers that records each entry deleted while a nonzero
    multiple of m: one an update left unreduced, dropped when read."""

    def __init__(self, entries, m, dropped):
        super().__init__(entries)
        self.m, self.dropped = m, dropped

    def __delitem__(self, c):
        if self[c] and self[c] % self.m == 0:
            self.dropped.append(c)
        super().__delitem__(c)


def _gauss_jordan_mod(dense, m):
    """(rank, det, inverse) of a dense integer matrix mod m by plain
    Gauss-Jordan on [A | I]: each column's pivot is the first row left with a
    unit there; det is 0 and the inverse None unless A is square of full rank.
    The moduli and matrices of the tests never leave a column whose nonzero
    entries are all non-units."""
    k = len(dense)
    a = [[v % m for v in row] + [int(r == c) for c in range(k)] for r, row in enumerate(dense)]
    rank, det = 0, 1
    for col in range(len(dense[0]) if dense else 0):
        piv = next((r for r in range(rank, k) if gcd(a[r][col], m) == 1), None)
        if piv is None:
            if any(a[r][col] for r in range(rank, k)):
                raise ValueError("no unit pivot")
            continue
        if piv != rank:
            a[piv], a[rank], det = a[rank], a[piv], -det
        det = det * a[rank][col] % m
        inv = pow(a[rank][col], -1, m)
        a[rank] = [v * inv % m for v in a[rank]]
        for r in range(k):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % m for v, w in zip(a[r], a[rank])]
        rank += 1
    full = rank == k == len(dense[0])
    return rank, det % m if full else 0, [row[-k:] for row in a] if full else None


def _dense_ints(rows, cols):
    return [[row.get(c, 0) for c in range(cols)] for row in rows]


def _rand_mod_matrix(rng, k, cols, m):
    """Sparse rows of residues mod m.  Some rows are c times an earlier row
    plus a few entries, or a combination of two earlier rows, mod m, so
    eliminating with the earlier row leaves their shared entries as nonzero
    multiples of m, and the second kind lowers the rank."""
    rows = []
    for _ in range(k):
        kind = rng.randrange(4) if rows else 0
        row = {c: rng.randrange(1, m) for c in range(cols) if rng.random() < 0.5}
        if kind == 1:
            c = rng.randrange(1, m)
            base = rng.choice(rows)
            row.update({j: (c * v + row.get(j, 0)) % m for j, v in base.items()})
        elif kind == 2 and len(rows) > 1:
            (a, ra), (b, rb) = [(rng.randrange(1, m), r) for r in rng.sample(rows, 2)]
            row = {j: (a * ra.get(j, 0) + b * rb.get(j, 0)) % m for j in {*ra, *rb}}
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_lazy_elimination_matches_dense_gauss_jordan():
    # _eliminate_mod reduces an entry only where it is read, so updates leave
    # unreduced multiples of m behind; rank, det and the adjugate column agree
    # with plain Gauss-Jordan mod a word-size prime and mod the two-prime product
    rng = random.Random(71)
    p = linalg.MODULI[0][0]
    product = linalg.PRIMES[0][0] * linalg.PRIMES[1][0]
    dropped, deficient = [], 0
    for m in (p, product):
        for _ in range(60):
            k, cols = rng.randint(1, 7), rng.randint(1, 7)
            rows = _rand_mod_matrix(rng, k, cols, m)
            rank, _, _ = _gauss_jordan_mod(_dense_ints(rows, cols), m)
            pivots = linalg._eliminate_mod([[_Row(r, m, dropped) for r in rows]], cols, m, k + 1)[0]
            assert len(pivots) == rank
            assert all(0 < v < m for _, _, _, prow in pivots for v in prow.values())
            if rank > 1:
                assert len(linalg._eliminate_mod([[dict(r) for r in rows]], cols, m, rank - 1)[0]) == rank - 1
            # square, with the right-hand side e_col as column k
            rows = _rand_mod_matrix(rng, k, k, m)
            rank, det, inv = _gauss_jordan_mod(_dense_ints(rows, k), m)
            col = rng.randrange(k)
            image = [_Row(r, m, dropped) for r in rows]
            image[col][k] = 1
            pivots = linalg._eliminate_mod([image], k, m, k)[0]
            want = None if inv is None else [det * row[col] % m for row in inv]
            assert linalg._det_and_adjugate_row(pivots, k, m, col) == (det, want)
            deficient += rank < k
    assert len(dropped) > 20 and deficient > 10       # what the inputs are built to reach
    # a pivot that is no unit mod the product, read as given or after an update
    q = linalg.PRIMES[0][0]
    assert linalg._eliminate_mod([[{0: q, 1: 1}, {1: 1}]], 2, product, 2) is None
    assert linalg._eliminate_mod([[{0: 1, 1: 1}, {0: 1, 1: 1 + q}]], 2, product, 2) is None
    assert len(linalg._eliminate_mod([[{0: 1, 1: 1}, {0: 1, 1: 2}]], 2, product, 2)[0]) == 2
    # each column's pivot row is the sparsest holding it, the lowest index on a tie
    rows = [{0: 1, 1: 1, 2: 1}, {0: 2, 2: 1}, {0: 3, 1: 1}, {1: 5}]
    assert [k for _, k, _, _ in linalg._eliminate_mod([rows], 3, p, 3)[0]] == [1, 3, 0]


def test_paired_elimination_matches_two_single_image_runs(monkeypatch):
    # the images i -> s and i -> -s of one point, eliminated together, get
    # the pivots each gets alone, hence the same det and adjugate residues,
    # and where both have a pivot one inverse serves the column
    rng = random.Random(4242)
    m, s, _ = linalg._modulus(linalg.PRIMES[0][0])            # two 61-bit primes
    cases = [[{j: v for j in range(k) if (v := _gauss(rng, 5, den=1))} for _ in range(k)]
             for k in range(1, 9) for _ in range(4)]
    for rows in cases[::5]:                                    # singular: a repeated row
        rows[-1] = dict(rows[0])
    cases += [_macaulay_matrix(family.polys, 3)[0]           # the certify 36 x 36 images
              for family in _dense_cubic_families(3701, 2, 2, False)]
    inverses = []
    monkeypatch.setattr(linalg, "pow", lambda *args: inverses.append(1) or pow(*args),
                        raising=False)
    for rows in cases:
        scaled, size = linalg._gaussian_integer_rows(rows)[0], len(rows)
        for col, bound in ((None, size), (rng.randrange(size), size), (None, size - 1)):
            def images():
                out = [linalg._image(scaled, size, 0, root, m) for root in (s, m - s)]
                if col is not None:
                    for image in out:
                        image[col][size] = 1
                return out

            singles = [linalg._eliminate_mod([image], size, m, bound)[0] for image in images()]
            inverses.clear()
            paired = linalg._eliminate_mod(images(), size, m, bound)
            assert paired == singles
            assert ([linalg._det_and_adjugate_row(p, size, m, col) for p in paired]
                    == [linalg._det_and_adjugate_row(p, size, m, col) for p in singles])
            columns = {c for pivots in singles for c, _, _, _ in pivots}
            assert len(inverses) == len(columns)
    assert len(cases[-1]) == 36
    # a pivot divisible by one of the two primes, in either image, read as given
    # or after an update, leaves the point unusable
    q = linalg.PRIMES[0][0]
    good = [{0: 1, 1: 1}, {0: 1, 1: 2}]
    for bad in ([{0: 3 * q, 1: 1}, {1: 1}], [{0: 1, 1: 1}, {0: 1, 1: 1 + q}]):
        for a, b in ((good, bad), (bad, good)):
            assert linalg._eliminate_mod([[dict(r) for r in a], [dict(r) for r in b]],
                                         2, m, 2) is None


# the rank moduli before they were word-size: two 61-bit primes of PRIMES
OLD_MODULI = ((2305843009213693921, 583529827753931384, 1234567891011),
              (2305843009213693693, 966685122347009555, 1098765432101))


def _dense_cubic_families(seed, count, n, moving):
    """Admissible dense cubic families of n + 1 forms with nonzero Gaussian-
    integer coefficients in [-2, 2] + [-2, 2] i; if moving, the coefficient of
    x0^3 in form 0 is c/(z + b), b in 1..9."""
    rng = random.Random(seed)

    def coef():
        while not (c := GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))):
            pass
        return c

    families = []
    while len(families) < count:
        polys = [HPoly(n + 1, 3, {e: coef() for e in monomials(n, 3)}) for _ in range(n + 1)]
        if moving:
            coeffs = dict(polys[0].coeffs)
            coeffs[(3,) + (0,) * n] = RatFunc(ZPoly((coef(),)), ZPoly((rng.randint(1, 9), 1)))
            polys[0] = HPoly(n + 1, 3, coeffs)
        family = HypersurfaceFamily(n, polys)
        if is_admissible(family).admissible:
            families.append(family)
    return families


def _certify_facts(family):
    n = family.n
    subsets = list(itertools.combinations(range(n + 1), n))
    return (is_admissible(family),
            [build_filtration(family, subset, big_n) for subset in subsets for big_n in (3, 6, 9)],
            [power_certificate(family.polys, index) for index in range(n + 1)])


def test_word_size_moduli_decide_every_certify_rank(monkeypatch):
    # on families like the benchmark's, every rank the word-size primes are
    # asked for is certified (a certificate's top level needs no rank, so its
    # rank paths are the proved probe and that level), and the facts equal
    # those under the former 61-bit moduli
    families = (_dense_cubic_families(3701, 10, 2, False)
                + _dense_cubic_families(3702, 10, 1, True))
    for family in families:
        report, tables, certs = _certify_facts(family)
        assert report.rank_paths.exact == 0
        assert all(table.rank_paths.exact == 0 for table in tables)
        assert all(cert.rank_paths == RankPaths(modular=1, exact=1)
                   and cert.value_paths.exact == 0 for cert in certs)
        with monkeypatch.context() as m:
            m.setattr(linalg, "MODULI", OLD_MODULI)
            old_report, old_tables, old_certs = _certify_facts(family)
        assert report == old_report and tables == old_tables
        assert ([(c.s, c.resultant, [b.coeffs for b in c.cofactors]) for c in certs]
                == [(c.s, c.resultant, [b.coeffs for b in c.cofactors]) for c in old_certs])


def _gauss(rng, h, den=3):
    return GaussRat(Fraction(rng.randint(-h, h), rng.randint(1, den)),
                    Fraction(rng.randint(-h, h), rng.randint(1, den)))


def _gauss_matrix(rng, k, h=5):
    rows = [{j: v for j in range(k) if (v := _gauss(rng, h))} for _ in range(k)]
    if k > 2 and rng.random() < 0.3:        # singular: row 2 = row 0 + c row 1
        c = _gauss(rng, 3)
        rows[2] = {j: v for j in range(k)
                   if (v := rows[0].get(j, 0) + c * rows[1].get(j, 0))}
    return rows


def _exact_det(monkeypatch, rows):
    with monkeypatch.context() as m:
        m.setattr(linalg, "PRIMES", ())       # no prime: exact elimination
        value, _, modular = det_sparse(rows)
    assert not modular
    return value


def test_multimodular_det_matches_exact_elimination(monkeypatch):
    rng = random.Random(43)
    singular = 0
    for trial in range(40):
        k = 1 if trial < 3 else rng.randint(2, 8)
        rows = _gauss_matrix(rng, k)
        got, adj, modular = det_sparse(rows)
        assert modular and adj is None
        assert got == _exact_det(monkeypatch, rows)
        singular += not got
    assert singular >= 3
    assert det_sparse([{0: GaussRat(Fraction(2, 3), -1)}])[0] == GaussRat(Fraction(2, 3), -1)
    assert det_sparse([{}, {0: Fraction(1)}]) == (0, None, True)    # a zero row


def test_multimodular_det_of_large_entries_uses_more_primes(monkeypatch):
    # 8 x 8 with parts near 2^40: the Hadamard bound is about 2^340, which
    # two 61-bit primes cannot reach
    rng = random.Random(44)
    big = 1 << 40
    rows = _gauss_matrix(rng, 8, big)
    got, _, modular = det_sparse(rows)
    assert modular
    assert got == _exact_det(monkeypatch, rows)
    monkeypatch.setattr(linalg, "PRIMES", linalg.PRIMES[:2])
    assert det_sparse(rows) == (got, None, False)


def test_det_beyond_the_prime_table_is_exact():
    big = Fraction(1 << 1000)                 # Hadamard bound near 2^2000
    rows = [{0: big, 1: GaussRat(1, 1)}, {0: GaussRat(0, 3), 1: big}]
    assert det_sparse(rows) == (big * big - GaussRat(1, 1) * GaussRat(0, 3), None, False)


def test_det_at_an_unlucky_modulus_falls_back(monkeypatch):
    # the first pivot 5 is no unit mod 5 * 13
    monkeypatch.setattr(linalg, "PRIMES", ((5, 2), (13, 5)))
    assert det_sparse([{0: Fraction(5), 1: Fraction(1)},
                       {0: Fraction(1), 1: Fraction(1)}]) == (4, None, False)


def test_adjugate_row_matches_exact_solve(monkeypatch):
    rng = random.Random(45)
    seen = set()
    for _ in range(25):
        k = rng.randint(1, 6)
        rows = _gauss_matrix(rng, k)
        col = rng.randrange(k)
        det, adj, modular = det_sparse(rows, col)
        assert modular
        assert det == det_sparse(rows)[0]
        assert (adj is None) == (not det)
        with monkeypatch.context() as m:
            m.setattr(linalg, "PRIMES", ())
            assert det_sparse(rows, col) == (det, adj, False)
        seen.add(adj is None)
        if adj is not None:
            for c in range(k):
                total = sum((adj[r] * rows[r].get(c, 0) for r in range(k)), GaussRat(0))
                assert total == (det if c == col else 0)
    assert seen == {True, False}


Z = RatFunc(ZPoly((0, 1)))


def _rand_ratfunc(rng):
    """A rational function with numerator degree up to 3; its denominator is
    1, z (vanishing at the first evaluation point z = 0), z (z - 1), z + a
    or z^2 + a."""
    num = ZPoly(_gauss(rng, 3) for _ in range(rng.randint(1, 4)))
    a = rng.randint(1, 5)
    den = rng.choice([ZPoly((1,)), ZPoly((0, 1)), ZPoly((0, -1, 1)), ZPoly((a, 1)),
                      ZPoly((a, 0, 1))])
    return RatFunc(num, den)


def _ratfunc_matrix(rng, k):
    rows = []
    for _ in range(k):
        row = {}
        for j in range(k):
            kind = rng.randrange(5)
            if kind == 1:
                row[j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            elif kind == 2:
                row[j] = _gauss(rng, 4)
            elif kind >= 3:
                row[j] = _rand_ratfunc(rng)
        rows.append({j: v for j, v in row.items() if v})
    if k > 2 and rng.random() < 0.3:        # singular: row 2 = row 0 + c(z) row 1
        c = _rand_ratfunc(rng)
        rows[2] = {j: v for j in range(k)
                   if (v := rows[0].get(j, 0) + c * rows[1].get(j, 0))}
    return rows


def test_multimodular_det_over_function_field_matches_exact_elimination(monkeypatch):
    rng = random.Random(47)
    singular = 0
    for trial in range(30):
        k = 1 if trial < 3 else rng.randint(2, 4)
        rows = _ratfunc_matrix(rng, k)
        got, adj, modular = det_sparse(rows)
        assert modular and adj is None
        assert got == _exact_det(monkeypatch, rows)
        singular += not got
    assert singular >= 3
    # a zero row; z-degrees above 1 and a denominator vanishing at z = 0
    for rows in ([{0: Z, 1: Fraction(1)}, {}],
                 [{0: Z ** 3 - 1, 1: 1 / Z}, {0: Z ** 2 + GaussRat(0, 1), 1: Z ** 4}]):
        assert det_sparse(rows) == (_exact_det(monkeypatch, rows), None, True)
    assert det_sparse([{0: (Z + 1) / (Z - 2)}]) == ((Z + 1) / (Z - 2), None, True)


def _exact_solve(monkeypatch, rows, col):
    with monkeypatch.context() as m:
        m.setattr(linalg, "PRIMES", ())
        det, adj, modular = det_sparse(rows, col)
    assert not modular
    return det, adj


def test_adjugate_row_over_function_field_matches_exact_solve(monkeypatch):
    rng = random.Random(48)
    seen = set()
    for _ in range(20):
        k = rng.randint(1, 4)
        rows = _ratfunc_matrix(rng, k)
        col = rng.randrange(k)
        det, adj, modular = det_sparse(rows, col)
        assert modular
        assert (det, adj) == _exact_solve(monkeypatch, rows, col)
        seen.add(adj is None)
    assert seen == {True, False}
    # D = z (z - 1) (z + 2) / (z + 2) vanishes at the points 0 and 1, which
    # the adjugate must skip
    rows = [{0: Z, 1: 1 / (Z + 2)}, {1: Z - 1}]
    det, adj, modular = det_sparse(rows, 1)
    assert modular and det == Z * (Z - 1)
    assert adj == [0, Z] == _exact_solve(monkeypatch, rows, 1)[1]


def test_function_field_fallbacks_are_exact(monkeypatch):
    rows = [{0: Z ** 5 + 3, 1: GaussRat(1, 2) / (Z + 1)}, {0: Z - 4, 1: Z ** 2}]
    want = _exact_det(monkeypatch, rows)
    want_solve = _exact_solve(monkeypatch, rows, 0)
    # primes 5 and 13 exceed the coefficient bound, but the points must
    # differ by less than 5, too few for the degree bound 8
    monkeypatch.setattr(linalg, "PRIMES", ((5, 2), (13, 5), (17, 4), (29, 12), (37, 6),
                                           (41, 9), (53, 23), (61, 11)))
    assert det_sparse(rows) == (want, None, False)
    assert det_sparse(rows, 0) == (*want_solve, False)
    monkeypatch.undo()
    # a 2^200 coefficient puts the bound beyond one prime
    big = [{0: Z * (1 << 200), 1: Fraction(1)}, {0: Fraction(1), 1: Z}]
    want = _exact_det(monkeypatch, big)
    monkeypatch.setattr(linalg, "PRIMES", linalg.PRIMES[:1])
    assert det_sparse(big) == (want, None, False)
    assert want == (Z * Z) * (1 << 200) - 1


def test_unusable_points_are_skipped_then_exhaust_the_budget(monkeypatch):
    rows = [{0: Z ** 2 + 1, 1: 1 / (Z + 3)}, {0: GaussRat(2, -1), 1: Z}]
    want = _exact_det(monkeypatch, rows)
    want_solve = _exact_solve(monkeypatch, rows, 1)
    eliminate = linalg._eliminate_mod
    calls = []

    def unlucky_every_third(images, ncols, m, bound):
        # one call eliminates both images of a point, so every third point is unusable
        calls.append(1)
        return None if len(calls) % 3 == 0 else eliminate(images, ncols, m, bound)

    monkeypatch.setattr(linalg, "_eliminate_mod", unlucky_every_third)
    assert det_sparse(rows) == (want, None, True)
    assert det_sparse(rows, 1) == (*want_solve, True)
    monkeypatch.setattr(linalg, "_eliminate_mod", lambda *args: None)
    assert det_sparse(rows) == (want, None, False)
    assert det_sparse(rows, 1) == (*want_solve, False)


def _certify_shaped_moving_polys(second_pole=False):
    """Two dense binary cubics over Q(i), the x0^3 coefficient of the first
    one c / (z + b), as the certify benchmark draws them; with second_pole,
    its x1^3 coefficient too is c' / (z + b')."""
    rng = random.Random(4242)
    polys = []
    for j in range(2):
        coeffs = {e: GaussRat(rng.randint(-2, 2), rng.randint(-2, 2)) or GaussRat(1)
                  for e in monomials(1, 3)}
        if j == 0:
            coeffs[(3, 0)] = RatFunc(ZPoly((GaussRat(2, -1),)), ZPoly((7, 1)))
            if second_pole:
                coeffs[(0, 3)] = RatFunc(ZPoly((GaussRat(1, 3),)), ZPoly((-2, 1)))
        polys.append(HPoly(2, 3, coeffs))
    return polys


def _certify_shaped_moving_rows():
    """The 6 x 6 Macaulay matrix of `_certify_shaped_moving_polys`."""
    return _macaulay_matrix(_certify_shaped_moving_polys(), 3)[0]


def test_function_field_values_need_no_gcd_per_elimination_step(monkeypatch):
    # gcds of polynomials in z are what made exact elimination over Q(i)(z)
    # slow; the multimodular path runs them only to put its results in
    # lowest terms: one for det M, one per adjugate entry
    rows = _certify_shaped_moving_rows()
    size = len(rows)
    calls = []
    gcd = fields.zpoly_gcd

    def counted(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(fields, "zpoly_gcd", counted)
    det, _, modular = det_sparse(rows)
    assert modular and det and len(calls) <= 1
    calls.clear()
    det_again, adj, modular = det_sparse(rows, 0)
    assert modular and det_again == det and len(calls) <= size + 1
    calls.clear()
    monkeypatch.setattr(linalg, "PRIMES", ())
    assert det_sparse(rows) == (det, None, False)
    assert len(calls) > 4 * size               # what the guard tells apart


def test_exact_values_equal_the_full_product_construction(monkeypatch):
    # det M and y are reduced against the distinct row denominators l_r, by a
    # root test for a linear one and a gcd otherwise; each must equal the one
    # gcd over the whole product prod L_r.  Numerators carry planted factors of
    # the l_r, repeated and overlapping ones too.
    calls = []
    gcd = fields.zpoly_gcd

    def counted(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(fields, "zpoly_gcd", counted)
    rows = _certify_shaped_moving_rows()        # one linear pole, z + 7
    assert det_sparse(rows, 0)[2] and not calls
    rng = random.Random(31)
    poles = (ZPoly((1, 1)), ZPoly((GaussRat(-2, 1), 1)), ZPoly((2, 3, 1)), ZPoly((1, 0, 1)),
             ZPoly((1, 1)) ** 2, ZPoly((1, 1)) * ZPoly((2, 3, 1)))

    def lifted(factors):
        p = ZPoly([GaussRat(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))])
        for _ in range(rng.randint(0, 3)):
            p = p * rng.choice(factors)
        return [(c.a, c.b) for c in p.coeffs]

    for _ in range(80):
        scales = [(rng.randint(1, 6), rng.choice((*poles, None, None))) for _ in range(rng.randint(1, 4))]
        used = [l for _, l in scales if l is not None] or [ZPoly((3, 1))]
        big_d = lifted(used) if rng.random() < 0.9 else []
        ws = [lifted(used) if rng.random() < 0.9 else [] for _ in scales]
        det, ys = linalg._exact_values(big_d, ws, scales, False)
        den = ZPoly((prod(c for c, _ in scales),))
        for _, l in scales:
            den = den if l is None else den * l
        assert det == RatFunc(ZPoly(GaussRat(a, b) for a, b in big_d), den)
        assert all(isinstance(y, RatFunc) for y in (det, *ys))
        for y, w, (c, l) in zip(ys, ws, scales):
            assert y == RatFunc(ZPoly(GaussRat(a, b) for a, b in w) * (c if l is None else l * c), den)


def test_modular_rank_scales_each_row_shape_once(monkeypatch):
    # ideal rows are shifts of their generator and share its scalars, so the
    # polynomial divisions and gcds that scale rows to Gaussian-integer
    # polynomials run once per generator, not once per row: the degree-9
    # piece costs what the degree-3 piece, one row per generator, costs.
    # One denominator per row needs none of them; two need some.
    calls = []
    divmod_, gcd = ZPoly.__divmod__, fields.zpoly_gcd

    def counted_divmod(a, b):
        calls.append("divmod")
        return divmod_(a, b)

    def counted_gcd(a, b):
        calls.append("gcd")
        return gcd(a, b)

    monkeypatch.setattr(ZPoly, "__divmod__", counted_divmod)
    monkeypatch.setattr(fields, "zpoly_gcd", counted_gcd)
    for second_pole in (False, True):
        gens = _certify_shaped_moving_polys(second_pole)
        counts = []
        for big_n in (3, 9):
            rows = ideal_rows(gens, big_n)[1]
            calls.clear()
            assert modular_rank_reaches(rows, complete_intersection_rank((3, 3), 2, big_n))
            counts.append(len(calls))
        assert len(ideal_rows(gens, 3)[1]) == len(gens) < len(ideal_rows(gens, 9)[1]) / 3
        assert counts[0] == counts[1] == (len(calls) if second_pole else 0)
    assert len(calls) > len(gens)               # what the guard tells apart


def _dense(rows, k):
    return [[row.get(c, Fraction(0)) for c in range(k)] for row in rows]


def test_rowreducer_det_matches_cofactor_expansion():
    # det_cofactor divides by nothing, so it is an independent reference
    z = Z
    fixed = [
        [{1: Fraction(1)}, {0: Fraction(1)}],                          # odd pivot order
        [{1: Fraction(2)}, {2: GaussRat(0, 1)}, {0: Fraction(3)}],     # even, a 3-cycle
        [{0: z, 1: Fraction(1)}, {0: z * z, 1: z}],                    # singular
        [{0: Fraction(1), 1: Fraction(2)}, {}],                        # a zero row
        [{0: 1 / (z + 1), 1: z / (z - 2)}, {0: GaussRat(1, 1), 1: 1 / z}],   # denominators
    ]
    rng = random.Random(49)
    mats = fixed + [_ratfunc_matrix(rng, rng.randint(1, 4)) for _ in range(30)]
    parities, multipliers, zero = set(), False, 0
    for rows in mats:
        k = len(rows)
        red = RowReducer()
        for row in rows:
            red.add(row)
        det = red.det()
        assert det == det_cofactor(_dense(rows, k))
        zero += not det
        if det:
            parities.add(linalg._odd([c for c, _, _ in red.steps]))
            multipliers |= any(m is not None for _, _, m in red.steps)
    assert parities == {True, False} and multipliers and zero >= 4


def test_exact_fallbacks_are_one_elimination_pass(monkeypatch):
    # with no primes det_sparse runs its one exact path on RowReducer: it
    # feeds it each transposed equation once, reading det M and, when asked,
    # the adjugate row from that one reducer
    monkeypatch.setattr(linalg, "PRIMES", ())
    calls = []
    add = RowReducer.add

    def counted(self, vec, rhs=None):
        calls.append(1)
        return add(self, vec, rhs)

    monkeypatch.setattr(RowReducer, "add", counted)
    rng = random.Random(50)
    seen = set()
    for _ in range(20):
        k = rng.randint(1, 4)
        rows = _ratfunc_matrix(rng, k)
        col = rng.randrange(k)
        want = det_cofactor(_dense(rows, k))
        calls.clear()
        assert det_sparse(rows) == (want, None, False)
        assert 0 < len(calls) <= k
        calls.clear()
        det, adj, modular = det_sparse(rows, col)
        assert len(calls) <= k and not modular and det == want
        assert (adj is None) == (not det)
        if adj is not None:
            assert len(calls) == k
            for c in range(k):
                total = sum((adj[r] * rows[r].get(c, 0) for r in range(k)), Fraction(0))
                assert total == (det if c == col else 0)
        seen.add(adj is None)
    assert seen == {True, False}


def test_multimodular_paths_need_no_assert():
    # both determinant paths, over Q(i) and over Q(i)(z), and both Cramer
    # paths hold with assert statements stripped
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from nevlab.fields import GaussRat, RatFunc, ZPoly\n"
        "from nevlab.linalg import det_cofactor, det_sparse\n"
        "flags = []\n"
        "same = []\n"
        "def det(rows):\n"
        "    value, _, modular = det_sparse(rows)\n"
        "    flags.append(modular)\n"
        "    return value\n"
        "for big in (Fraction(7, 2), Fraction(1 << 1000)):\n"
        "    mat = [[big, GaussRat(1, 1)], [GaussRat(0, 3), big]]\n"
        "    rows = [dict(enumerate(row)) for row in mat]\n"
        "    same.append(det(rows) == det_cofactor(mat))\n"
        "z = RatFunc(ZPoly((0, 1)))\n"
        "for big in (3, 1 << 1000):\n"
        "    mat = [[z * big + 1, 1 / (z + 2)], [GaussRat(0, 3), z * z]]\n"
        "    rows = [dict(enumerate(row)) for row in mat]\n"
        "    same.append(det(rows) == det_cofactor(mat))\n"
        "    value, adj, modular = det_sparse(rows, 1)\n"
        "    same.append(value == det_cofactor(mat) and adj == [-mat[1][0], mat[0][0]])\n"
        "    flags.append(modular)\n"
        "print(sys.flags.optimize, flags, same)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[0] == ("1 [True, False, True, True, False, False] "
                                          "[True, True, True, True, True, True]")
