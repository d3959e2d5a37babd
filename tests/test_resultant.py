import itertools
import math
import random
from fractions import Fraction

import pytest

from nevlab import linalg, resultant
from nevlab.fields import GaussRat, InputError, RatFunc, ZPoly
from nevlab.filtration import tuple_count
from nevlab.hpoly import HPoly, monomials
from nevlab.linalg import RankPaths
from nevlab.resultant import (HypersurfaceFamily, NotAdmissibleError,
                              complete_intersection_rank, ideal_membership,
                              ideal_rows, is_admissible, macaulay_resultant,
                              power_certificate, sylvester_resultant)
from nevlab.zeros import zpoly_zeros


def _rand_binary(rng, d):
    while True:
        coeffs = {e: rng.randint(-5, 5) for e in monomials(1, d)}
        coeffs = {e: c for e, c in coeffs.items() if c}
        if coeffs:
            return HPoly(2, d, coeffs)


def _dehom(p):
    """p(z, 1) as a univariate polynomial."""
    out = [GaussRat(0)] * (p.degree + 1)
    for (a, _b), c in p.coeffs.items():
        out[a] = out[a] + GaussRat.coerce(c)
    return ZPoly(out)


def test_linear_binary_resultant_is_cross_determinant():
    # res(a x0 + b x1, c x0 + d x1) = ad - bc up to a global sign convention
    rng = random.Random(47)
    signs = set()
    for _ in range(30):
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if (a == 0 and b == 0) or (c == 0 and d == 0):
            continue
        p = HPoly(2, 1, {(1, 0): a, (0, 1): b})
        q = HPoly(2, 1, {(1, 0): c, (0, 1): d})
        r = sylvester_resultant(p, q)
        assert r == a * d - b * c or r == b * c - a * d
        if a * d - b * c:
            signs.add(r == a * d - b * c)
    assert len(signs) == 1              # the sign convention is consistent


def test_resultant_vanishes_iff_common_zero():
    shared = HPoly(2, 1, {(1, 0): 2, (0, 1): -3})
    p = shared * HPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    q = shared * HPoly(2, 1, {(1, 0): 1, (0, 1): -1})
    assert not sylvester_resultant(p, q)
    coprime = HPoly(2, 2, {(2, 0): 1, (0, 2): 1})
    other = HPoly(2, 2, {(1, 1): 1})
    assert sylvester_resultant(coprime, other)


def _horner(p: ZPoly, x: complex) -> complex:
    """p(x) in complex floats by Horner's rule: ZPoly evaluates at exact points only."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * x + complex(c)
    return acc


def test_sylvester_against_root_product():
    # |res(p, q)| = |lead(p)|^deg(q) * prod over roots a of p of |q(a)|
    rng = random.Random(53)
    for _ in range(15):
        d = rng.randint(1, 3)
        p, q = _rand_binary(rng, d), _rand_binary(rng, d)
        pu, qu = _dehom(p), _dehom(q)
        if pu.degree < d or qu.degree < d:
            continue                    # roots at infinity need extra bookkeeping
        r = sylvester_resultant(p, q)
        prod = abs(complex(pu.leading())) ** d
        bound = 1 + max(abs(complex(c)) for c in pu.coeffs) / abs(complex(pu.leading()))
        for root, mult in zpoly_zeros(pu, bound).points:       # Cauchy's root bound
            prod *= abs(_horner(qu, root)) ** mult
        assert abs(complex(r)) == pytest.approx(prod, rel=1e-6)


def test_macaulay_diagonal_and_scaling():
    n = 2
    polys = [HPoly.monomial(n + 1, tuple(2 if j == i else 0
                                         for j in range(n + 1)))
             for i in range(n + 1)]
    assert macaulay_resultant(polys) == 1
    scaled = [polys[0] * 3] + polys[1:]
    # multiplying one form by c scales the resultant by c^(prod other degrees)
    assert macaulay_resultant(scaled) == 3 ** 4


def test_macaulay_matches_sylvester_for_pairs():
    rng = random.Random(59)
    for _ in range(10):
        d = rng.randint(1, 3)
        p, q = _rand_binary(rng, d), _rand_binary(rng, d)
        rs = sylvester_resultant(p, q)
        rm = macaulay_resultant((p, q))
        assert rm == rs or rm == -rs


def test_family_validation():
    x0 = HPoly.coordinate(2, 0)
    with pytest.raises(InputError, match="form 0 has 2 variables, expected 3"):
        HypersurfaceFamily(2, [x0, x0, x0])
    with pytest.raises(InputError, match="form 1 has degree 0"):
        HypersurfaceFamily(1, [x0, HPoly(2, 0, {(0, 0): 1})])
    with pytest.raises(InputError, match="form 1 is zero"):
        HypersurfaceFamily(1, [x0, x0 - x0])
    with pytest.raises(InputError, match="empty"):
        HypersurfaceFamily(1, [])
    fam = HypersurfaceFamily(1, [x0, HPoly.coordinate(2, 1), x0 + x0])
    assert fam.q == 3 and fam.degrees == (1, 1, 1)
    assert not fam.is_moving()


def test_lifted_raises_to_common_degree():
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    fam = HypersurfaceFamily(2, [x0, x1 * x1, x2 * x2])
    assert fam.common_degree() == 2
    lifted = fam.lifted()
    assert [p.degree for p in lifted] == [2, 2, 2]
    assert lifted[0] == x0 * x0


def test_admissibility_verdicts():
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    good = is_admissible(HypersurfaceFamily(1, [x0, x1, x0 + x1]))
    assert good.admissible and good.failing_subset is None
    bad = is_admissible(HypersurfaceFamily(1, [x0, x0 + x1, x0 + x1]))
    assert not bad.admissible
    assert bad.failing_subset == (1, 2)


def test_admissibility_moving_family():
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    mover = HPoly.monomial(2, (0, 1), RatFunc(ZPoly((1,)), ZPoly((10, 1))))
    rep = is_admissible(HypersurfaceFamily(1, [x0, x1, x0 + mover]))
    assert rep.admissible


def test_power_certificate_verifies_and_detects_degeneracy():
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    p = HPoly(2, 2, {(2, 0): 1, (0, 2): 1})
    q = HPoly(2, 2, {(1, 1): 1})
    cert = power_certificate([p, q], 0)
    assert cert.verify()
    assert cert.s <= 2 * (2 - 1) + 1
    with pytest.raises(NotAdmissibleError):
        power_certificate([x0, x0 * 2], 0)


def test_ideal_membership_positive_and_negative():
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    gens = [x0, x1 * x1, x2 ** 3]       # mixed degrees; x2^3 lies above degree 2
    inside = x0 * x2 + x1 * x1
    cofs = ideal_membership(inside, gens)
    assert cofs is not None
    acc = HPoly.zero(3, 2)
    for cf, g in zip(cofs, gens):
        if not cf.is_zero():
            acc = acc + cf * g
    assert acc == inside
    assert cofs[2].is_zero() and cofs[2].degree == 0
    assert ideal_membership(x2 * x2, gens) is None


def test_ideal_membership_failed_reexpansion_raises(monkeypatch):
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    solve = resultant.solve_system
    monkeypatch.setattr(resultant, "solve_system",
                        lambda eqs: {v: 2 * c for v, c in solve(eqs).items()})
    with pytest.raises(ArithmeticError):
        ideal_membership(x0 * x2 + x1 * x1, [x0, x1 * x1])


def test_power_certificate_over_moving_family():
    # x0^2 + x1^2/(z+1) and x0*x1 + z*x1^2 over Q(i)(z)
    mover = RatFunc(ZPoly((1,)), ZPoly((1, 1)))
    p = HPoly(2, 2, {(2, 0): 1, (0, 2): mover})
    q = HPoly(2, 2, {(1, 1): 1, (0, 2): RatFunc(ZPoly((0, 1)))})
    n, d = 1, 2
    for index in range(n + 1):
        cert = power_certificate([p, q], index)
        assert isinstance(cert.resultant, RatFunc)
        assert not cert.resultant.is_constant()
        assert cert.verify()
        assert d <= cert.s <= (n + 1) * (d - 1) + 1


def _rand_form(rng, nvars, d, mover=None):
    coeffs = {e: GaussRat(rng.randint(-3, 3), rng.randint(-1, 1)) for e in monomials(nvars - 1, d)}
    coeffs = {e: c for e, c in coeffs.items() if c}
    if mover is not None:
        coeffs[rng.choice(monomials(nvars - 1, d))] = mover
    return HPoly(nvars, d, coeffs)


def _seeded_systems(count, seed):
    """n + 1 forms of degree d in n + 1 variables with nonzero resultant;
    every fourth system has one moving coefficient."""
    rng = random.Random(seed)
    shapes = ((1, 2), (1, 3), (2, 1), (2, 2))
    out = []
    while len(out) < count:
        n, d = shapes[len(out) % len(shapes)]
        mover = None
        if len(out) % 4 == 3:
            n, d = 1, 2
            mover = RatFunc(ZPoly((rng.randint(1, 3),)), ZPoly((rng.randint(1, 5), 1)))
        polys = [_rand_form(rng, n + 1, d, mover if j == 0 else None) for j in range(n + 1)]
        if macaulay_resultant(polys):
            out.append(polys)
    return out


def test_power_certificate_matches_all_exact_path(monkeypatch):
    for k, polys in enumerate(_seeded_systems(10, 67)):
        index = k % len(polys)
        cert = power_certificate(polys, index)
        with monkeypatch.context() as m:
            m.setattr(linalg, "MODULI", ())
            m.setattr(linalg, "PRIMES", ())
            exact = power_certificate(polys, index)
        assert (cert.s, cert.resultant) == (exact.s, exact.resultant)
        assert cert.cofactors == exact.cofactors
        assert [c.coeffs for c in cert.cofactors] == [c.coeffs for c in exact.cofactors]
        d = polys[0].degree
        # s = t for each: one proved probe at t - 1 when t - 1 >= d, then t
        assert cert.rank_paths == RankPaths(modular=int(cert.s > d), exact=1)
        assert exact.rank_paths == RankPaths(modular=0, exact=cert.s - d + 1)
        assert exact.value_paths.modular == 0
        assert cert.verify()


def _refuse(*args):
    raise AssertionError("this path must not run")


def test_power_certificate_below_the_critical_degree_uses_membership(monkeypatch):
    x = [HPoly.coordinate(3, k) for k in range(3)]
    monkeypatch.setattr(resultant, "_macaulay_cofactors", _refuse)
    cert = power_certificate([v ** 3 for v in x], 0)
    assert (cert.s, cert.resultant) == (3, 1)         # below t = 7
    assert cert.value_paths == RankPaths(modular=2, exact=1)
    assert cert.verify()


def _fixed_cubics(seed):
    rng = random.Random(seed)
    while True:
        polys = [_rand_form(rng, 3, 3) for _ in range(3)]
        if macaulay_resultant(polys):
            return polys


def test_power_certificate_at_the_critical_degree_is_multimodular_cramer(monkeypatch):
    polys = _fixed_cubics(4242)
    cert = power_certificate(polys, 1)
    assert cert.s == 7
    assert cert.rank_paths == RankPaths(modular=1, exact=1)   # the probe at 6, then 7
    assert cert.value_paths == RankPaths(modular=3, exact=0)   # det M, det M'', cofactors
    assert cert.verify()
    # with one prime the Hadamard bound is out of reach: the exact square solve
    # returns the same unique cofactors, and membership is never consulted
    monkeypatch.setattr(resultant, "ideal_membership", _refuse)
    monkeypatch.setattr(linalg, "PRIMES", linalg.PRIMES[:1])
    few = power_certificate(polys, 1)
    assert few.value_paths == RankPaths(modular=1, exact=2)   # det M'' still fits
    assert (few.s, few.resultant) == (cert.s, cert.resultant)
    assert [c.coeffs for c in few.cofactors] == [c.coeffs for c in cert.cofactors]


def test_rank_tests_that_cannot_succeed_eliminate_nothing(monkeypatch):
    # at s_max the bound would exceed the column count, so the certificate
    # runs no rank test there, and modular_rank_reaches refuses such a bound
    # without eliminating
    eliminate = linalg._eliminate_mod
    shapes = []

    def counted(images, ncols, m, bound):
        shapes.extend((len(rows), ncols, bound) for rows in images)
        return eliminate(images, ncols, m, bound)

    monkeypatch.setattr(linalg, "_eliminate_mod", counted)
    cert = power_certificate(_fixed_cubics(4242), 1)
    assert cert.rank_paths == RankPaths(modular=1, exact=1)
    assert shapes and all(bound <= min(nrows, ncols) for nrows, ncols, bound in shapes)
    shapes.clear()
    rows = [{0: 1, 1: 2}, {0: 3, 1: 4}, {0: 5, 1: 7}]
    assert not linalg.modular_rank_reaches(rows, 3)         # two columns
    assert not linalg.modular_rank_reaches(rows[:2], 3)     # two rows
    assert shapes == []
    assert linalg.modular_rank_reaches(rows, 2) and len(shapes) == 1


def _without_probe(monkeypatch, polys, index):
    """The certificate of the ascending scan alone: x_index^(t-1) is never
    proved outside, so level t - 1 falls to the exact membership test."""
    nvars, d = polys[0].nvars, polys[0].degree
    t = nvars * (d - 1) + 1
    outside = resultant._power_outside
    with monkeypatch.context() as m:
        m.setattr(resultant, "_power_outside",
                  lambda ps, i, s: s != t - 1 and outside(ps, i, s))
        return power_certificate(polys, index)


def _same_certificate(a, b):
    return ((a.index, a.s, a.resultant, a.verified, a.value_paths)
            == (b.index, b.s, b.resultant, b.verified, b.value_paths)
            and [c.coeffs for c in a.cofactors] == [c.coeffs for c in b.cofactors])


def test_power_probe_gives_the_ascending_scan_certificate(monkeypatch):
    families = [_fixed_cubics(seed) for seed in (4242, 4243, 4244)]
    families += [_moving_family(seed, 1, 3) for seed in (4244, 4245, 4246)]
    for polys in families:
        nvars, d = polys[0].nvars, polys[0].degree
        t = nvars * (d - 1) + 1
        for index in range(nvars):
            cert = power_certificate(polys, index)
            scan = _without_probe(monkeypatch, polys, index)
            assert _same_certificate(cert, scan)
            assert cert.verified and cert.s == t
            assert cert.rank_paths == RankPaths(modular=1, exact=1)
            # the scan proves d, ..., t - 2 outside and decides t - 1 exactly
            assert scan.rank_paths == RankPaths(modular=t - 1 - d, exact=2)


def test_power_probe_is_the_one_rank_elimination_below_the_critical_degree(monkeypatch):
    polys = _fixed_cubics(4242)
    eliminate, reaches = linalg._eliminate_mod, resultant.modular_rank_reaches
    shapes, ranking = [], []

    def counted(images, ncols, m, bound):
        if ranking:
            shapes.extend((ncols, len(rows), bound) for rows in images)   # transposed
        return eliminate(images, ncols, m, bound)

    def rank_test(rows, bound):
        ranking.append(1)
        try:
            return reaches(rows, bound)
        finally:
            ranking.pop()

    monkeypatch.setattr(linalg, "_eliminate_mod", counted)
    monkeypatch.setattr(resultant, "modular_rank_reaches", rank_test)
    cert = power_certificate(polys, 1)
    assert cert.s == 7 and cert.verified
    # 3 cubics times the 10 cubic monomials, plus x1^6, in the 28 sextic columns;
    # the piece has the complete-intersection rank 27, and x1^6 adds one
    assert shapes == [(31, 28, 28)]


def test_least_powers_below_the_critical_degree_fall_back_to_the_scan(monkeypatch):
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    cases = [([x2 ** 3 * 2 + x1 ** 3 + x0 * x1 * x1 * 2, x1 ** 3 * 2 + x0 * x0 * x2 * 2 + x0 ** 3,
               x2 ** 3 * 2], 2, 3),
             ([x0 ** 3 * 2, x1 * x2 * x2 * 2, x2 ** 3 + x1 ** 3 * 2], 1, 4)]
    family = [x2 ** 3 + x1 ** 3 * 2, x0 ** 3 * 2 + x1 * x1 * x2 + x1 ** 3 * 2, x0 * x0 * x2]
    cases += [(family, 0, 5), (family, 1, 6)]          # t = 7 for three cubics
    for polys, index, s in cases:
        cert = power_certificate(polys, index)
        with monkeypatch.context() as m:
            m.setattr(linalg, "MODULI", ())
            m.setattr(linalg, "PRIMES", ())
            exact = power_certificate(polys, index)
        assert cert.s == exact.s == s
        assert (cert.resultant, cert.cofactors) == (exact.resultant, exact.cofactors)
        assert cert.verified and cert.verify()
        # the ascending scan: d, ..., s - 1 proved outside, s decided exactly
        assert cert.rank_paths == RankPaths(modular=s - 3, exact=1)


def test_power_certificate_with_singular_macaulay_matrix_uses_membership(monkeypatch):
    # Q_0 has no x0^2 term, so det M'' = 0 and with it det M = 0 in this frame
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    polys = [x0 * x1 + x2 * x2, x0 * x0 + x1 * x1, x1 * x2 + x0 * x2 * 2 + x0 * x0]
    calls = []
    det = resultant.det_sparse
    monkeypatch.setattr(resultant, "det_sparse",
                        lambda rows, col=None: calls.append((col, det(rows, col))) or calls[-1][1])
    cert = power_certificate(polys, 0)
    solves = [solved for col, solved in calls if col is not None]
    assert solves == [(0, None, True)]                  # singular, decided mod m
    assert (cert.s, cert.resultant) == (4, 18)
    # the given frame's det M and det M'', the critical piece's rank, det M(s)
    # and det M''(s) at s = 1, ..., 14 (13 nodes for C(s) of degree 12, one s
    # an eigenvalue of M''), then membership
    assert cert.value_paths == RankPaths(modular=31, exact=1)
    assert cert.verify()


def _sparse_cubic_families(count, seed):
    """Families of three cubic forms in P^2, each form 1-3 monomials with
    coefficients 1 or 2."""
    rng = random.Random(seed)
    cubics = monomials(2, 3)
    return [[HPoly(3, 3, {m: rng.choice((1, 2)) for m in rng.sample(cubics, rng.randint(1, 3))})
             for _ in range(3)] for _ in range(count)]


def test_sparse_cubics_are_decided_in_the_given_frame():
    # det M'' = 0 in the given frame for most of these; the critical piece of
    # the ideal decides Res = 0 there, and C(s) gives the nonzero values
    singular = nonzero = 0
    for polys in _sparse_cubic_families(180, 0):
        res = macaulay_resultant(polys)
        full = linalg.certified_rank(ideal_rows(polys, 7)[1], 36)[0] == 36
        assert bool(res) == full
        assert is_admissible(HypersurfaceFamily(2, polys)).admissible == full
        (det_m, _, _), det_minor, _ = resultant._macaulay_dets(polys, 3)
        if det_minor:
            assert resultant._canny_at_zero(polys, 3)[0] == det_m / det_minor == res
        singular += not det_minor
        nonzero += full
    assert (singular, nonzero) == (172, 15)
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    # forms sharing a factor: C(s) vanishes at 0 as the rank says
    for polys in ([x0 * x0 * x1 + x0 ** 3 * 2, x0 ** 3, x0 * x1 * x2],
                  [x0 * x0 * x1 * 2, x0 * x1 * x2 * 2, x0 * x0 * x2 * 2]):
        assert resultant._canny_at_zero(polys, 3)[0] == 0 == macaulay_resultant(polys)
    # nonzero with a singular frame: Res(F, G, 2 x1^3) = +-2^9 Res(F, G, x1)^3
    # and Res(F, G, x1) = +-Res(F, G at x1 = 0)
    f, g = x0 * x0 * x2 * 2 + x0 * x1 * x1 * 2 + x2 ** 3 * 2, x0 ** 3 * 2 + x0 * x0 * x2 + x2 ** 3
    res = macaulay_resultant([f, g, x1 ** 3 * 2])
    syl = sylvester_resultant(*(HPoly(2, 3, {(a, c): v for (a, b, c), v in h.coeffs.items()
                                             if not b}) for h in (f, g)))
    assert (res, syl) == (2 ** 27, -64) and abs(res) == 2 ** 9 * abs(syl) ** 3
    polys = [x0 * x0 * x2 + x2 ** 3 * 2, x0 ** 3 * 2, x0 * x0 * x1 + x1 ** 3 + x1 * x1 * x2 * 2]
    assert macaulay_resultant(polys) == 2 ** 18


def test_moving_family_with_a_singular_frame_interpolates_c_of_s():
    z = RatFunc(ZPoly((0, 1)))
    x0, x1, x2 = (HPoly.coordinate(3, k) for k in range(3))
    polys = [x0 * x1 + x2 * x2 * (z / (z + 3)), x0 * x0 + x1 * x1,
             x1 * x2 + x0 * x2 * 2 + x0 * x0]
    assert resultant._macaulay_dets(polys, 2)[1] == 0
    res = macaulay_resultant(polys)
    assert res == (z ** 4 * 18 + z ** 3 * 126 + z ** 2 * 225) / (z + 3) ** 4
    for z0, want in ((1, Fraction(369, 256)), (2, Fraction(2196, 625)),
                     (GaussRat(0, 1), GaussRat(Fraction(-4473, 2500), Fraction(2043, 1250)))):
        at = GaussRat.coerce(z0)
        frozen = [HPoly(3, 2, {e: c(at) if isinstance(c, RatFunc) else c
                               for e, c in p.coeffs.items()}) for p in polys]
        assert macaulay_resultant(frozen) == want
        assert res(GaussRat.coerce(z0)) == want


def test_power_certificate_beyond_the_prime_table_is_exact():
    big = 1 << 1000
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    cert = power_certificate([x0 * big + x1, x0 - x1 * big], 0)
    assert cert.value_paths == RankPaths(modular=0, exact=2)
    assert cert.verify()


def _moving_family(seed, n, d):
    """n + 1 forms of degree d with nonzero resultant, the first with one
    coefficient c / (z + b)."""
    rng = random.Random(seed)
    while True:
        mover = RatFunc(ZPoly((GaussRat(rng.randint(1, 3), rng.randint(-2, 2)),)),
                        ZPoly((rng.randint(1, 9), 1)))
        polys = [_rand_form(rng, n + 1, d, mover if j == 0 else None) for j in range(n + 1)]
        if macaulay_resultant(polys):
            return polys


def test_moving_power_certificate_matches_all_exact_path(monkeypatch):
    # n = 2: the cofactors at s = t are not unique, so the certificate is
    # compared through s, the resultant and the exact identity
    polys = _moving_family(4243, 2, 2)
    cert = power_certificate(polys, 2)
    with monkeypatch.context() as m:
        m.setattr(linalg, "MODULI", ())
        m.setattr(linalg, "PRIMES", ())
        exact = power_certificate(polys, 2)
    assert isinstance(cert.resultant, RatFunc) and not cert.resultant.is_constant()
    assert (cert.s, cert.resultant) == (exact.s, exact.resultant) == (4, exact.resultant)
    assert cert.verify() and exact.verify()
    assert cert.verified and exact.verified
    # det M, det M'' and the cofactors, all over Q(i)(z), all multimodular
    assert cert.value_paths == RankPaths(modular=3, exact=0)
    assert exact.value_paths == RankPaths(modular=0, exact=3)


def test_moving_certificate_counts_its_modular_values(monkeypatch):
    # the certify benchmark's shape: n = 1 cubics, det M'' empty, so det M
    # and the cofactors are the two values, and membership is never needed
    polys = _moving_family(4244, 1, 3)
    monkeypatch.setattr(resultant, "ideal_membership", _refuse)
    for index in (0, 1):
        cert = power_certificate(polys, index)
        assert cert.s == 5
        assert cert.value_paths == RankPaths(modular=2, exact=0)
        assert cert.verified and cert.verify()


def test_macaulay_matrix_is_built_and_eliminated_once_per_certificate(monkeypatch):
    polys = _fixed_cubics(4242)
    built, dets = [], []
    build, det = resultant._macaulay_matrix, resultant.det_sparse
    monkeypatch.setattr(resultant, "_macaulay_matrix",
                        lambda *args: built.append(1) or build(*args))
    monkeypatch.setattr(resultant, "det_sparse",
                        lambda rows, col=None: dets.append((len(rows), col)) or det(rows, col))
    cert = power_certificate(polys, 0)
    assert cert.s == 7 and len(built) == 1
    # one solve gives det M and the cofactors' adjugate row (x0^7 is column 0),
    # then det M''
    assert dets == [(36, 0), (9, None)]


def test_verified_reports_the_certificate_own_reexpansion(monkeypatch):
    polys = _fixed_cubics(4242)
    checks = []
    reexpands = resultant._reexpands
    monkeypatch.setattr(resultant, "_reexpands",
                        lambda *args: checks.append(1) or reexpands(*args))
    cert = power_certificate(polys, 2)
    assert checks == [1] and cert.verified is True
    checks.clear()
    assert cert.verify() and checks == [1]            # still public, and exact


def test_reexpansion_matches_polynomial_arithmetic():
    # the integer-keyed check against HPoly sums of products, on certificates
    # over Q(i) and Q(i)(z) and on cofactors with one coefficient moved
    rng = random.Random(29)
    z = RatFunc(ZPoly((0, 1)))
    families = [_fixed_cubics(4242), _moving_family(4244, 1, 3), _moving_family(4243, 2, 2)]
    for polys in families:
        nvars = polys[0].nvars
        for index in range(nvars):
            cert = power_certificate(polys, index)
            target = HPoly.monomial(nvars, tuple(cert.s if k == index else 0
                                                 for k in range(nvars)), cert.resultant)
            for shift in (None, GaussRat(1), GaussRat(0, Fraction(1, 3)), z, 1 / (z + 2)):
                cofactors = list(cert.cofactors)
                if shift is not None:
                    j = rng.randrange(nvars)
                    e = rng.choice(sorted(cofactors[j].coeffs))
                    moved = dict(cofactors[j].coeffs)
                    moved[e] = moved[e] + shift
                    cofactors[j] = HPoly(nvars, cofactors[j].degree, moved)
                total = HPoly.zero(nvars, target.degree)
                for b, g in zip(cofactors, polys):
                    total = total + b * g
                assert resultant._reexpands(cofactors, polys, target) == (total == target)
                assert (total == target) == (shift is None)
    # a key base of deg target + 1 = 2 would read x1^2 as x0, and a base for
    # powers of z of one more than the largest on any side would read z^4 x1 as z x0
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    assert not resultant._reexpands([x1], [x1], x0)
    assert resultant._reexpands([x1], [x1], x1 * x1)
    z_squared = HPoly(2, 0, {(0, 0): z * z})
    assert not resultant._reexpands([z_squared], [HPoly(2, 1, {(0, 1): z * z})],
                                    HPoly(2, 1, {(1, 0): z}))
    assert resultant._reexpands([z_squared], [HPoly(2, 1, {(0, 1): z * z})],
                                HPoly(2, 1, {(0, 1): z ** 4}))


def test_admissibility_report_matches_all_exact_path(monkeypatch):
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    z = RatFunc(ZPoly((0, 1)))
    families = [
        HypersurfaceFamily(1, [x0, x1, x0 + x1]),
        HypersurfaceFamily(1, [x0, x0 + x1, x0 + x1]),                # not admissible
        HypersurfaceFamily(1, [x0, x1, x0 + x1 * z]),                 # Res vanishes at z = 0
        HypersurfaceFamily(1, [x0 * x0, x1 * x1, x0 * x1 * (z - 1) + x1 * x1]),
    ]
    for fam in families:
        rep = is_admissible(fam)
        with monkeypatch.context() as m:
            m.setattr(linalg, "MODULI", ())
            exact = is_admissible(fam)
        fields = ("admissible", "witness", "failing_subset", "subsets_checked", "points_tried")
        assert [getattr(rep, f) for f in fields] == [getattr(exact, f) for f in fields]
        total = rep.rank_paths.modular + rep.rank_paths.exact
        assert exact.rank_paths == RankPaths(0, total)
    # a nonvanishing test that reduces to a full-rank Macaulay matrix is modular
    assert is_admissible(families[0]).rank_paths == RankPaths(modular=3, exact=0)
    assert is_admissible(families[1]).rank_paths.exact == 1


def _seeded_moving_families(seed):
    """Moving families of n + 2 forms, n = 1 in degrees 1-3 and n = 2 in
    degrees 1-2, each form with a moving coefficient at even draws; every
    third family plants Q_2 = z/(z+1) Q_0, and every third after it two
    proportional forms."""
    rng = random.Random(seed)
    z = RatFunc(ZPoly((0, 1)))
    movers = (z, 1 / (z + 2), (z - 1) / (z + GaussRat(0, 1)), z * z / 3)
    for n, degrees in ((1, (1, 2, 3)), (2, (1, 2))):
        for k in range(24 if n == 1 else 12):
            polys = []
            while len(polys) < n + 2:
                mover = rng.choice(movers) if (len(polys) + k) % 2 == 0 else None
                p = _rand_form(rng, n + 1, rng.choice(degrees), mover)
                if not p.is_zero():
                    polys.append(p)
            if k % 3 == 1:
                polys[2] = polys[0] * (z / (z + 1))
            elif k % 3 == 2:
                i, j = rng.sample(range(n + 2), 2)
                polys[j] = polys[i] * rng.choice((GaussRat(2, -1), z + 1, 1 / (z - 3)))
            yield HypersurfaceFamily(n, polys)


def test_admissibility_matches_the_exact_resultant_of_every_subset():
    # the oracle is each subset's resultant over Q(i)(z), computed exactly;
    # where several subsets vanish, the first in combinations order is named
    verdicts, several = [], 0
    for fam in _seeded_moving_families(4401):
        lifted = fam.lifted()
        zero = [s for s in itertools.combinations(range(fam.q), fam.n + 1)
                if not macaulay_resultant([lifted[j] for j in s])]
        rep = is_admissible(fam)
        assert rep.admissible == (not zero)
        assert rep.failing_subset == (zero[0] if zero else None)
        assert (rep.witness, rep.points_tried) == (None, 0)
        verdicts.append(rep.admissible)
        several += len(zero) > 1
    assert (len(verdicts), verdicts.count(False), several) == (36, 25, 8)


def test_a_high_degree_moving_failure_is_decided_once_per_subset():
    # Res(x0, z^2000 x0) = 0 over Q(i)(z); no parameter point is tried, so
    # the degree of the coefficient costs nothing
    x0, x1 = HPoly.coordinate(2, 0), HPoly.coordinate(2, 1)
    z = RatFunc(ZPoly((0, 1)))
    rep = is_admissible(HypersurfaceFamily(1, [x0, x1, x0 + x1, x0 * z ** 2000]))
    assert (rep.admissible, rep.failing_subset, rep.points_tried) == (False, (0, 3), 0)
    assert rep.rank_paths.modular + rep.rank_paths.exact == 3


def test_complete_intersection_rank_matches_tuple_count():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            for big_n in range(10):
                dim = math.comb(big_n + n, n)
                assert (dim - complete_intersection_rank((d,) * n, n + 1, big_n)
                        == tuple_count(big_n, d, n))
    # x0 and x1^2 in three variables: the quotient is spanned by x1^a x2^b, a <= 1
    assert complete_intersection_rank((1, 2), 3, 4) == math.comb(6, 2) - 2


def test_ideal_rows_are_shifted_products():
    rng = random.Random(73)
    mover = RatFunc(ZPoly((1,)), ZPoly((2, 1)))
    gens = [_rand_form(rng, 3, 2, mover), _rand_form(rng, 3, 1), _rand_form(rng, 3, 4)]
    labels, rows = ideal_rows(gens, 3)
    cols = monomials(2, 3)
    assert len(rows) == len(labels) == 3 + 6        # degree 4 is above 3: no rows
    for (j, m), row in zip(labels, rows):
        product = HPoly.monomial(3, m) * gens[j]
        assert row == {cols.index(e): c for e, c in product.coeffs.items()}
        assert list(row) == [cols.index(e) for e in product.coeffs]
        assert [type(c) for c in row.values()] == [type(c) for c in product.coeffs.values()]
