import itertools
import os
import random
import subprocess
import sys
from math import comb

import pytest

from nevlab import filtration, linalg
from nevlab.bounds import a_lower_bound
from nevlab.fields import GaussRat, InputError, RatFunc, ZPoly
from nevlab.filtration import (basis_is_independent, build_filtration,
                               construct_psi_basis, filtration_tuples,
                               quotient_dim, tuple_count)
from nevlab.hpoly import HPoly, monomials
from nevlab.linalg import RowReducer
from nevlab.resultant import HypersurfaceFamily

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
        assert quotient_dim(gens, big_n) == (tuple_count(big_n, 2, 2), True)
    assert quotient_dim(gens, 6)[0] == 4


def test_build_filtration_level_must_be_multiple():
    fam = _fermat(1, 2, q=3)
    for big_n in (3, -2):
        with pytest.raises(InputError, match=f"level N={big_n}"):
            build_filtration(fam, (0,), big_n)


@pytest.mark.parametrize("subset", [(-1,), (3,), (5,), (0, 1)])
def test_build_filtration_subset_must_index_the_forms(subset):
    # at q = 3, (-1,) once built the table of the last form and (5,) raised IndexError
    with pytest.raises(InputError, match=r"in 0\.\.2"):
        build_filtration(_fermat(1, 2, q=3), subset, 2)


def test_filtration_table_identities():
    fam = _fermat(2, 2, q=4)
    table = build_filtration(fam, (0, 1), 4)
    assert table.m_total == comb(4 + 2, 2)
    assert len(table.tuples) == table.k_count == len(table.multiplicities)
    for idx, m in zip(table.tuples, table.multiplicities):
        assert m == quotient_dim([fam.lifted()[0], fam.lifted()[1]],
                                 4 - 2 * sum(idx))[0]
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
    basis = construct_psi_basis(fam, table)
    assert len(basis.polys) == table.m_total
    assert basis_is_independent(basis)
    assert basis.exponent_sum(0) == table.a_constant
    assert all(p.degree == 3 for p in basis.polys)


def test_a_constant_subset_independent():
    fam = _fermat(2, 1, q=4)
    a_values = {build_filtration(fam, s, 3).a_constant
                for s in ((0, 1), (1, 2), (0, 2))}
    assert len(a_values) == 1


def _rand_form(rng, nvars, d, mover=None):
    coeffs = {}
    for e in monomials(nvars - 1, d):
        c = GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
        if c:
            coeffs[e] = c
    if mover is not None:
        coeffs[rng.choice(monomials(nvars - 1, d))] = mover
    return HPoly(nvars, d, coeffs)


def _seeded_gens(seed):
    """n random forms of degree d in n + 1 variables, fixed and moving."""
    rng = random.Random(seed)
    out = []
    for n, d, moving in ((1, 3, False), (2, 2, False), (1, 2, True), (1, 3, True)):
        gens = []
        for j in range(n):
            mover = None
            if moving and j == 0:
                mover = RatFunc(ZPoly((rng.randint(1, 3),)), ZPoly((rng.randint(1, 5), 1)))
            gens.append(_rand_form(rng, n + 1, d, mover))
        out.append((n, d, gens))
    return out


def test_modular_quotient_dim_matches_exact(monkeypatch):
    for n, d, gens in _seeded_gens(71):
        modular = [quotient_dim(gens, big_n) for big_n in range(10)]
        assert modular == [(tuple_count(big_n, d, n), True) for big_n in range(10)]
        with monkeypatch.context() as m:
            m.setattr(linalg, "MODULI", ())      # no prime: exact elimination
            exact = [quotient_dim(gens, big_n) for big_n in range(10)]
        assert exact == [(dim, False) for dim, _ in modular]


def _nonzero_form(rng, d, mover=None):
    while True:
        form = _rand_form(rng, 3, d, mover)
        if not form.is_zero():
            return form


def _pairs(rng, d, moving):
    """(e, f, g): n = 2 forms of degree d in 3 variables whose greatest common
    factor has degree e: a coprime pair (e = 0), h f' and h g' for a planted h
    of each degree e = 1..d, and a proportional pair (e = d).  Over Q(i)(z)
    the planted factor, or the first form of a coprime pair, moves."""
    mover = (lambda: RatFunc(ZPoly((rng.randint(1, 3),)), ZPoly((rng.randint(1, 5), 1)))
             if moving else None)
    out = [(0, _nonzero_form(rng, d, mover()), _nonzero_form(rng, d))]
    for e in range(1, d + 1):
        h = _nonzero_form(rng, e, mover())
        out.append((e, h * _nonzero_form(rng, d - e), h * _nonzero_form(rng, d - e)))
    f = _nonzero_form(rng, d, mover())
    out.append((d, f, f * GaussRat(rng.randint(1, 3), rng.randint(-2, 2))))
    return out


def _per_level(dims, d, big_n):
    """The multiplicities of an n = 2 table from the quotient dimension at
    each level, or None when one of its levels is not the
    complete-intersection dimension."""
    levels = [big_n - d * sum(idx) for idx in filtration_tuples(big_n // d, 2)]
    if any(dims[level] != tuple_count(level, d, 2) for level in levels):
        return None
    return tuple(dims[level] for level in levels)


@pytest.mark.parametrize("moving", [False, True])
def test_regularity_decides_what_the_per_level_ranks_decide(moving, monkeypatch):
    decided = []
    monkeypatch.setattr(filtration, "quotient_dim",
                        lambda gens, level: decided.append(level) or quotient_dim(gens, level))
    rng = random.Random(4242 + moving)
    for d in (1, 2, 3):
        # over Q(i)(z) a failing level falls to exact elimination, about 2 s at level 12
        # for d = 3, so there the levels stop at 2d + 1, past every first failure 2d - e
        top = 2 * d + 1 if moving and d == 3 else 3 * d + 3
        for e, f, g in _pairs(rng, d, moving):
            # the pair misses the complete intersection exactly from level 2d - e on
            dims = [quotient_dim([f, g], level)[0] for level in range(top + 1)]
            first = 2 * d - e if e else top + 1
            assert [dim != tuple_count(level, d, 2) for level, dim in enumerate(dims)] == \
                [level >= first for level in range(top + 1)]
            fam = HypersurfaceFamily(2, [f, g])
            for big_n in range(0, top + 1, d):
                want = _per_level(dims, d, big_n)
                level = min(big_n, 2 * d - 1)
                decided.clear()
                if want is None:
                    # a failed test raises at its own level, with no rank at N
                    with pytest.raises(ArithmeticError) as exc:
                        build_filtration(fam, (0, 1), big_n)
                    assert str(exc.value) == (
                        f"quotient dimension {dims[level]} at level {level} is not the "
                        f"complete-intersection {tuple_count(level, d, 2)} "
                        "(is the family admissible?)")
                else:
                    table = build_filtration(fam, (0, 1), big_n)
                    assert table.multiplicities == want
                    assert table.rank_paths.modular + table.rank_paths.exact == 1
                assert decided == [level]


def test_an_n1_table_decides_no_rank(monkeypatch):
    def refuse(*args):
        raise AssertionError("an n = 1 table decided a rank")

    monkeypatch.setattr(linalg, "certified_rank", refuse)
    monkeypatch.setattr(linalg, "modular_rank_reaches", refuse)
    monkeypatch.setattr(filtration, "quotient_dim", refuse)
    monkeypatch.setattr(filtration, "certified_rank", refuse)
    rng = random.Random(71)
    mover = RatFunc(ZPoly((2,)), ZPoly((3, 1)))
    for d in (1, 2, 3):
        fam = HypersurfaceFamily(1, [_rand_form(rng, 2, d), _rand_form(rng, 2, d, mover)])
        for subset in ((0,), (1,)):
            for big_n in range(0, 4 * d, d):
                table = build_filtration(fam, subset, big_n)
                assert table.multiplicities == tuple(tuple_count(big_n - d * t[0], d, 1)
                                                     for t in table.tuples)
                assert table.rank_paths == linalg.RankPaths(0, 0)


def _shared_factor_family():
    # Q_0 and Q_1 share the factor x0 + x1, so (Q_0, Q_1) is no regular sequence
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    common = x0 + x1
    return HypersurfaceFamily(2, [common * (x0 - x2), common * (x1 + x2), x2 * x2])


def test_inadmissible_subset_falls_back_to_exact():
    fam = _shared_factor_family()
    gens = list(fam.lifted()[:2])
    for big_n, modular in ((2, True), (3, False), (6, False)):
        got, flag = quotient_dim(gens, big_n)
        assert flag == modular
        red = RowReducer()
        for m in monomials(2, big_n - 2):
            for g in gens:
                red.add({k: c for k, c in enumerate(
                    (HPoly.monomial(3, m) * g).coeffs.get(e, 0)
                    for e in monomials(2, big_n)) if c})
        assert got == comb(big_n + 2, 2) - red.rank
    assert quotient_dim(gens, 6)[0] > tuple_count(6, 2, 2)
    with pytest.raises(ArithmeticError, match=r"\(is the family admissible\?\)"):
        build_filtration(fam, (0, 1), 6)


def _pole_family():
    # over Q(i)(z) the pair spans x0^2 and x1^2; with the first form scaled
    # by z + 3, mod 5 at z = 3 both reduce to x0^2 + x1^2, and mod 13 at
    # z = 8 both to multiples of x0^2 + 6 x1^2
    x0, x1 = HPoly.coordinate(3, 0), HPoly.coordinate(3, 1)
    mover = RatFunc(ZPoly((1,)), ZPoly((3, 1)))          # 1/(z + 3)
    return [x0 * x0 + x1 * x1 * mover, x0 * x0 + x1 * x1 * 6]


def test_unusable_first_modulus_retries_then_falls_back(monkeypatch):
    gens = _pole_family()
    want = [tuple_count(big_n, 2, 2) for big_n in range(7)]
    (p1, i1, _), good = linalg.MODULI
    pole = (p1, i1, p1 - 3)               # z0 = -3 is the pole of 1/(z + 3)
    unlucky, unlucky_too = (5, 2, 3), (13, 5, 8)
    # the scaled rows have an image at the pole, and it decides; an unlucky
    # modulus alone does not, so the good one after it decides; two unlucky
    # ones leave exact elimination to decide, with the same dimensions
    for moduli, modular in (((pole,), True), ((unlucky,), False), ((unlucky, good), True),
                            ((unlucky, unlucky_too), False)):
        monkeypatch.setattr(linalg, "MODULI", moduli)
        dims, flags = zip(*(quotient_dim(gens, big_n) for big_n in range(7)))
        assert list(dims) == want
        assert flags[2:] == (modular,) * 5


def test_fallback_needs_no_assert():
    # the certificate and its fallback hold with assert statements stripped
    code = (
        "import sys\n"
        "from nevlab import linalg\n"
        "from nevlab.fields import RatFunc, ZPoly\n"
        "from nevlab.filtration import quotient_dim\n"
        "from nevlab.hpoly import HPoly\n"
        "x0, x1 = HPoly.coordinate(3, 0), HPoly.coordinate(3, 1)\n"
        "mover = RatFunc(ZPoly((1,)), ZPoly((3, 1)))\n"
        "gens = [x0 * x0 + x1 * x1 * mover, x0 * x0 + x1 * x1 * 6]\n"
        "linalg.MODULI = ((5, 2, 3), (13, 5, 8))\n"
        "dims, flags = zip(*(quotient_dim(gens, n) for n in range(7)))\n"
        "print(sys.flags.optimize, list(dims), list(flags))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    want = [tuple_count(big_n, 2, 2) for big_n in range(7)]
    assert run.stdout.split("\n")[0] == f"1 {want} {[True, True] + [False] * 5}"
