"""Zero location: exact routes for polynomials and rational functions,
argument-principle walks for exponential sums."""

import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nevlab import zeros
from nevlab.expfunc import ExpPoly
from nevlab.fields import GaussRat, RatFunc, ZPoly
from nevlab.zeros import (disk_winding, exppoly_zeros, ratfunc_divisors, yun_squarefree,
                          zpoly_zeros)


def _total(div) -> int:
    """The number of zeros of a divisor, with multiplicity."""
    return sum(m for _, m in div.points)


def _seeded(f, r):
    """The quadtree search that first tries f's seeds, as exppoly_zeros runs it."""
    return zeros._quadtree_zeros(f, r, zeros._seeds)


def _subdivisions(monkeypatch) -> list:
    """Record the function of every _subdivide call from now on; returns the record."""
    calls, subdivide = [], zeros._subdivide
    monkeypatch.setattr(zeros, "_subdivide", lambda *args: calls.append(args[0]) or subdivide(*args))
    return calls


def test_yun_separates_multiplicities():
    p = ZPoly((-1, 1)) ** 3 * ZPoly((2, 1)) ** 2 * ZPoly((0, 1))
    parts = dict()
    for q, m in yun_squarefree(p):
        parts[m] = q.monic()
    assert parts[1] == ZPoly((0, 1))
    assert parts[2] == ZPoly((2, 1))
    assert parts[3] == ZPoly((-1, 1))


def test_zpoly_roots_with_multiplicity():
    p = ZPoly((GaussRat(0, -1), 1)) ** 2 * ZPoly((-3, 1))   # (z - i)^2 (z - 3)
    roots = sorted(zpoly_zeros(p, 10.0).points, key=lambda t: t[0].real)
    assert roots[0][1] == 2 and roots[0][0] == pytest.approx(1j, abs=1e-9)
    assert roots[1][1] == 1 and roots[1][0] == pytest.approx(3.0, abs=1e-9)
    # exact roots keep Yun's multiplicities on the certified path, 0 included
    z = ZPoly.var()
    for p, points in ((z ** 3 * (z - 1), {(1.0, 1), (0.0, 3)}), ((z - 1) ** 20, {(1.0, 20)})):
        div = zeros._certified_zeros(ExpPoly.poly(p), 10.0)
        assert div is not None and set(div.points) == points and not div.boundary_nudged
    # float Newton stalls on the roots of (z - 1)...(z - 12), which its exact last
    # step certifies, and the float root -10^12/7, 4e-6 off, is surely outside
    # |z| <= 30: the triple root 1/3 keeps its multiplicity without the quadtree
    p = math.prod((z - k for k in range(1, 13)),
                  start=(z - Fraction(1, 3)) ** 3 * (z + Fraction(10 ** 12, 7)))
    div = zeros._certified_zeros(ExpPoly.poly(p), 30.0)
    assert div is not None and sorted(m for _, m in div.points) == [1] * 12 + [3]
    assert all(abs(a - (round(a.real) if m == 1 else 1 / 3)) <= 3e-9 for a, m in div.points)


def _counting_scaled(monkeypatch) -> list:
    """Record every ExpPoly.scaled call from now on; returns the record."""
    calls, scaled = [], ExpPoly.scaled
    monkeypatch.setattr(ExpPoly, "scaled", lambda self, *a, **k: calls.append(1) or scaled(self, *a, **k))
    return calls


def test_dense_polynomial_roots_certify_in_few_newton_steps(monkeypatch):
    # float Newton reaches its noise floor, above 1e-16 |x|, on most roots of a dense
    # degree-24 polynomial with roots in (1/4) Z[i], one of them double; the stall
    # test ends it there, and one exact step certifies the root
    rng = random.Random(18)
    roots = [GaussRat(Fraction(rng.randint(-40, 40), 4), Fraction(rng.randint(-40, 40), 4))
             for _ in range(24)]
    z = ZPoly.var()
    p = math.prod((z - a for a in roots), start=ZPoly.const(1))
    calls = _counting_scaled(monkeypatch)
    div = zeros._certified_zeros(ExpPoly.poly(p), 10.0)
    assert div is not None and len(calls) <= 12 * len(set(roots)) and len(set(roots)) == 23
    inside = {complex(a): roots.count(a) for a in roots if abs(complex(a)) <= 10}
    snapped = {complex(round(4 * x.real), round(4 * x.imag)) / 4: m for x, m in div.points}
    assert snapped == inside and 2 in inside.values()
    assert all(abs(x - complex(round(4 * x.real), round(4 * x.imag)) / 4) <= 1e-9 for x, _ in div.points)


def test_zpoly_zeros_respects_radius():
    p = ZPoly((-8, 0, 0, 1))          # zeros: 2, 2w, 2w^2 with |.| = 2
    div = zpoly_zeros(p, 5.0)
    assert _total(div) == 3
    assert div.r == 5.0
    inside = zpoly_zeros(p, 1.0)
    assert _total(inside) == 0


def test_ratfunc_divisors_split_zeros_and_poles():
    f = RatFunc(ZPoly((-1, 1)) ** 2, ZPoly((2, 1)))
    zeros, poles = ratfunc_divisors(f, 10.0)
    assert _total(zeros) == 2 and _total(poles) == 1
    assert zeros.points[0][0] == pytest.approx(1.0)
    assert poles.points[0][0] == pytest.approx(-2.0)


@pytest.mark.parametrize("f, x, mult, inside, want, last, evals", [
    # mult = 2 on the double zero 2 pi i of (e^z - 1)^2
    ((ExpPoly.exp(1) - 1) ** 2, 2j * math.pi + 0.01 + 0.01j, 2, None, 2j * math.pi, None, None),
    # z^2 - 4 from 3: 13/6, then 2.0064 outside Re x > 2.1 ends it at the best seen
    (ExpPoly.var() ** 2 - 4, 3 + 0j, 1, lambda x: x.real > 2.1, 13 / 6, 13 / 6 - 313 / 156, 2),
    # an exact zero is returned at once
    (ExpPoly.var() - 1, 1 + 0j, 1, None, 1, 0.0, 1),
], ids=["double-zero", "leaves-inside", "exact-zero"])
def test_newton_iteration(f, x, mult, inside, want, last, evals, monkeypatch):
    calls = _counting_scaled(monkeypatch)
    got, step = zeros._newton(f, x, mult, inside)
    # within about sqrt(eps), as near as float Newton gets to a double zero
    assert abs(got - want) <= 3e-8 * (1 + abs(want))
    assert last is None or step == pytest.approx(last, rel=1e-12)
    assert evals is None or len(calls) == evals


def test_disk_winding_counts_zeros():
    z = ExpPoly.var()
    assert disk_winding(z ** 3, 1.5) == 3
    assert disk_winding(ExpPoly.exp(1), 4.0) == 0
    assert disk_winding(z - 2, 1.0) == 0
    assert disk_winding(z - 2, 3.0) == 1


@pytest.mark.parametrize("scale, inside", [(1 - Fraction(1, 10 ** 9), 1),
                                           (1 + Fraction(1, 10 ** 9), 0)])
def test_disk_winding_resolves_a_zero_next_to_the_circle(scale, inside):
    # a zero 1e-8 from the circle |z| = 10 turns the phase by about pi within
    # a few 1e-8 of arc: the walk must halve its segments down to that scale
    a = GaussRat(6, 8) * scale
    assert disk_winding(ExpPoly.var() - a, 10.0) == inside


def test_one_walk_over_four_boxes_matches_four_walks():
    f = ExpPoly.exp(1) - ExpPoly.var()        # zeros 0.318 +- 1.337i, 2.06 +- 7.59i, ...
    rate = zeros.phase_rate_bound(f)
    quads = [(-3.0, 1.0, -9.0, -2.0), (1.0, 4.0, -9.0, -2.0),
             (-3.0, 1.0, -2.0, 9.0), (1.0, 4.0, -2.0, 9.0)]
    one = zeros._windings(f, [zeros._box(*q) for q in quads], rate, zeros._chord_mid)
    assert one == [_fresh_box_winding(f, q) for q in quads] == [0, 1, 2, 1]


def _fresh_box_winding(f, box):
    """The winding number of f around a box from a walk of that box alone."""
    rate = zeros.phase_rate_bound(f)
    return zeros._windings(f, [zeros._box(*box)], rate, zeros._chord_mid)[0]


def _dense_box_winding(f, x0, x1, y0, y1, per_edge=4000):
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    pts = [a + (b - a) * k / per_edge
           for a, b in zip(corners, corners[1:] + corners[:1]) for k in range(per_edge)]
    vals = [f(z) for z in pts]
    turn = sum(cmath.phase(vals[(i + 1) % len(vals)] / vals[i]) for i in range(len(vals)))
    return round(turn / (2 * math.pi))


@pytest.mark.parametrize("box", [(-1.0, 1.0, -1.0, 1.0), (-0.3, 0.9, 0.5, 2.0),
                                 (-2.5, 2.5, -8.0, 8.0), (0.1, 3.0, -3.3, 4.1)])
def test_array_box_winding_matches_dense_scalar_walk(box):
    f = ExpPoly.exp(1) - ExpPoly.var()        # zeros 0.318 +- 1.337i, 2.06 +- 7.59i, ...
    assert _fresh_box_winding(f, box) == _dense_box_winding(f, *box)


# the public entry, which takes the closed form where it can, and the quadtree
ENTRIES = (exppoly_zeros, zeros._quadtree_zeros)


def test_exppoly_zeros_of_shifted_exponential():
    # e^z = 1 at 2 pi i k
    f = ExpPoly.exp(1) - 1
    for entry in ENTRIES:
        div = entry(f, 7.0)
        assert _total(div) == 3
        found = sorted(p.imag for p, _ in div.points)
        expect = [-2 * math.pi, 0.0, 2 * math.pi]
        assert all(a == pytest.approx(b, abs=1e-6) for a, b in zip(found, expect))


def test_exppoly_zeros_transcendental_mix():
    # fixed points of e^z: a conjugate pair near 0.318 +- 1.337i
    f = ExpPoly.exp(1) - ExpPoly.var()
    div = exppoly_zeros(f, 2.0)
    assert _total(div) == 2
    for point, m in div.points:
        assert m == 1
        assert abs(cmath.exp(point) - point) < 1e-6


def test_exppoly_zeros_polynomial_route():
    # purely polynomial input takes the exact path
    f = ExpPoly.poly(ZPoly((-1, 0, 1)))       # z^2 - 1
    div = exppoly_zeros(f, 3.0)
    assert _total(div) == 2
    assert {round(p.real) for p, _ in div.points} == {-1, 1}


def _same_divisor(a, b, tol=1e-9):
    assert _total(a) == _total(b) and len(a.points) == len(b.points)
    for point, m in a.points:
        near = min(b.points, key=lambda q: abs(q[0] - point))
        assert near[1] == m and abs(near[0] - point) <= tol


REFERENCE_CASES = [(ExpPoly.exp(1) + 1, 50.0),
                   (ExpPoly.exp(1) - ExpPoly.var(), 30.0),
                   (ExpPoly.var() + 10 + ExpPoly.var() * ExpPoly.exp(1), 50.0)]


@pytest.mark.parametrize("f, r", REFERENCE_CASES)
def test_newton_exit_matches_full_quadtree(f, r, monkeypatch):
    fast = zeros._quadtree_zeros(f, r)
    monkeypatch.setattr(zeros, "_newton_exit", lambda *args: None)
    _same_divisor(fast, zeros._quadtree_zeros(f, r))


def test_refused_newton_certificate_falls_back_to_subdivision(monkeypatch):
    f, r = ExpPoly.exp(1) + 1, 20.0
    tol = 1e-10 * r
    monkeypatch.setattr(zeros, "_newton_exit", lambda *args: None)
    reference = zeros._quadtree_zeros(f, r)
    monkeypatch.undo()
    walk = zeros._walk
    refused = []

    def no_certificate(f, lines, rate, midfn):
        # every edge of a certificate square (side tol) is flagged as failed
        inc, first, failed = walk(f, lines, rate, midfn)
        edge = 0
        for line in lines:
            sides = [abs(b - a) for a, b in zip(line, line[1:])]
            if all(math.isclose(side, tol, rel_tol=1e-6) for side in sides):
                refused.append(line[0])
                failed[edge:edge + len(sides)] = True
            edge += len(sides)
        return inc, first, failed

    monkeypatch.setattr(zeros, "_walk", no_certificate)
    _same_divisor(zeros._quadtree_zeros(f, r), reference)
    assert len(refused) >= _total(reference)


def test_edge_midpoint_is_the_sample_that_halves_reuse():
    # a side walked with 2^k >= 2 pieces is cut at its midpoint without a new
    # walk only if its sample at index 2^(k-1) is the float (lo + hi) / 2
    rng = random.Random(5)
    for _ in range(300):
        lo = rng.uniform(-100, 100)
        hi = lo + rng.uniform(1e-9, 50)
        y = rng.uniform(-100, 100)
        rate = rng.uniform(1.0, 200.0) / (hi - lo)
        for a, b in ((complex(lo, y), complex(hi, y)), (complex(y, lo), complex(y, hi))):
            pts, pieces = zeros._edge_points(np.array([a]), np.array([b]), rate, zeros._chord_mid)
            mid = pts[pieces[0] // 2]
            assert pieces[0] >= 2
            assert (mid.real if a.imag == b.imag else mid.imag) == (lo + hi) / 2
            assert (mid.imag if a.imag == b.imag else mid.real) == y


@pytest.mark.parametrize("f, r", REFERENCE_CASES)
def test_shared_edge_windings_match_fresh_box_walks(f, r, monkeypatch):
    # every box of the search gets its zero count from edges shared with its
    # parent and siblings; a walk of the box alone must give the same count
    boxes = []
    box_type = zeros._Box

    def record(*args):
        boxes.append(box_type(*args))
        return boxes[-1]

    monkeypatch.setattr(zeros, "_Box", record)
    zeros._quadtree_zeros(f, r)
    assert len(boxes) > 20 and any(b.count >= 2 for b in boxes)
    rate = zeros.phase_rate_bound(f)
    fresh = zeros._windings(f, [zeros._box(*b[:4]) for b in boxes], rate, zeros._chord_mid)
    assert fresh == [b.count for b in boxes]


def test_quadtree_walks_each_edge_once_and_batches_each_level(monkeypatch):
    # e^z + 1 at r = 50: 16 zeros; walking every box whole, and every Newton
    # certificate and every split on its own, took 52 walks over 60,618 points
    walks, points = [], []
    walk, scaled = zeros._walk, ExpPoly.scaled

    def counted_scaled(f, z, derivative=False):
        if isinstance(z, np.ndarray):
            points.append(z.size)
        return scaled(f, z, derivative)

    def counted_walk(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(ExpPoly, "scaled", counted_scaled)
    monkeypatch.setattr(zeros, "_walk", counted_walk)
    assert _total(zeros._quadtree_zeros(ExpPoly.exp(1) + 1, 50.0)) == 16
    assert len(walks) <= 52 // 3 and sum(points) <= 60618 // 2


def test_the_quadtree_polishes_only_its_clusters(monkeypatch):
    # a Newton exit is a point _newton has settled; only box centres are polished
    calls, polish = [], zeros._polish_cluster
    monkeypatch.setattr(zeros, "_polish_cluster", lambda f, z, m, tol: calls.append(m) or polish(f, z, m, tol))
    assert _total(zeros._quadtree_zeros(ExpPoly.exp(1) + 1, 50.0)) == 16 and calls == []
    assert _total(zeros._quadtree_zeros((ExpPoly.exp(1) - 1) ** 2, 10.0)) == 6 and calls == [2, 2, 2]


@pytest.mark.parametrize("r", [7.0, 50.0, 300.0, 720.0, 2000.0])
def test_exp_minus_one_closed_form_count(r):
    for entry in ENTRIES:
        div = entry(ExpPoly.exp(1) - 1, r)
        assert _total(div) == 2 * math.floor(r / (2 * math.pi)) + 1
        for point, m in div.points:
            k = round(point.imag / (2 * math.pi))
            assert m == 1 and abs(point - 2j * math.pi * k) < 1e-9 * r


def test_double_zeros_keep_multiplicity():
    for entry in ENTRIES:
        div = entry((ExpPoly.exp(1) - 1) ** 2, 20.0)
        assert len(div.points) == 7
        ks = sorted(round(point.imag / (2 * math.pi)) for point, _ in div.points)
        assert ks == list(range(-3, 4))
        for point, m in div.points:
            k = round(point.imag / (2 * math.pi))
            assert m == 2 and abs(point - 2j * math.pi * k) < 1e-6


def test_zeros_past_the_exp_overflow_radius_without_warnings():
    # e^z + 1 vanishes at (2k+1) pi i; e^720 overflows a double
    r = 720.0
    for entry in ENTRIES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            div = entry(ExpPoly.exp(1) + 1, r)
        assert _total(div) == 2 * math.floor((r / math.pi + 1) / 2)
        for point, m in div.points:
            k = round((point.imag / math.pi - 1) / 2)
            assert m == 1 and abs(point - (2 * k + 1) * math.pi * 1j) < 1e-9 * r


def test_simple_zero_where_the_exponential_term_overflows():
    # (z - 715) e^z + 1 has a zero within e^-715 of 715, where e^z overflows
    f = (ExpPoly.var() - 715) * ExpPoly.exp(1) + 1
    div = exppoly_zeros(f, 720.0)
    assert _total(div) == disk_winding(f, 720.0)
    near = [(point, m) for point, m in div.points if abs(point - 715) <= 1e-9 * 715]
    assert len(near) == 1 and near[0][1] == 1


def _cmath_value(f: ExpPoly, x: complex) -> complex:
    """sum_c p_c(x) e^{cx} term by term, with ZPoly's own Horner and cmath.exp."""
    return sum(p(x) * cmath.exp(complex(c) * x) for c, p in f.terms.items())


def test_scaled_pass_matches_f_and_its_derivative():
    z = ExpPoly.var()
    f = ExpPoly.exp(6) - z * ExpPoly.exp(-7) + 3 * z ** 2 + ExpPoly.exp(GaussRat(1, 5))
    df = f.derivative()
    rng = random.Random(3)
    pts = [cmath.rect(50 * rng.random() ** 0.5, 2 * math.pi * rng.random()) for _ in range(200)]
    shifts, fs, dfs, floors = f.scaled(np.array(pts), derivative=True)
    assert set(shifts.tolist()) == {0.0, 256.0}
    for k, x in enumerate(pts):
        shift, fx, dfx, floor = f.scaled(x, derivative=True)
        assert (shift, floor) == pytest.approx((shifts[k], floors[k]), rel=1e-12)
        assert (fx, dfx) == pytest.approx((fs[k], dfs[k]), rel=1e-12)
        scale = math.exp(shift)
        value, slope = _cmath_value(f, x), _cmath_value(df, x)
        assert abs(fx * scale - value) <= floor * scale
        assert dfx * scale == pytest.approx(slope, rel=1e-9)
        assert fx / dfx == pytest.approx(value / slope, rel=1e-9)


def _one_frequency(rng):
    """A random e^{c0 z} P(e^{gamma z}) with Q(i) constants: two to four terms,
    or the square of a two-term one, so that P has double roots."""
    # |gamma| and |c0| near 1/4 keep the quadtree, the slow side, to a few seconds
    gamma = rng.choice([GaussRat(Fraction(1, 4)), GaussRat(0, Fraction(1, 4)),
                        GaussRat(Fraction(1, 5), Fraction(-1, 5)), GaussRat(Fraction(1, 3)),
                        GaussRat(Fraction(1, 8), Fraction(1, 4)), GaussRat(0, Fraction(-1, 3))])
    c0 = rng.choice([GaussRat(0), GaussRat(0, Fraction(1, 4)), GaussRat(Fraction(-1, 4)),
                     GaussRat(Fraction(1, 8), Fraction(-1, 8))])

    def coef():
        return GaussRat(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2), rng.randint(1, 3)))

    if rng.random() < 0.25:
        powers = [0, rng.randint(1, 2)]
        square = 2
    else:
        powers = [0] + rng.sample([1, 2, 3], rng.randint(1, 3))
        square = 1
    p = sum((ExpPoly.exp(gamma * k) * coef() for k in powers), ExpPoly.zero())
    return ExpPoly.exp(c0) * p ** square


def test_closed_form_matches_the_quadtree_on_seeded_one_frequency_inputs():
    rng = random.Random(19)
    cases = [(ExpPoly.exp(1) + ExpPoly.exp(GaussRat(0, 1)), 20.0),
             ((ExpPoly.exp(1) + 1) ** 2, 30.0)]
    cases += [(_one_frequency(rng), 3.0 * 20.0 ** rng.random()) for _ in range(200)]
    for f, r in cases:
        closed = zeros._certified_zeros(f, r)
        assert closed is not None, (f, r)
        tree = zeros._quadtree_zeros(f, r)
        assert closed.boundary_nudged == tree.boundary_nudged
        assert sorted(m for _, m in closed.points) == sorted(m for _, m in tree.points)
        for point, m in closed.points:
            # the quadtree places a cluster of m >= 2 by polishing its box's centre, near
            # sqrt(eps), where double precision cannot tell it from a tight pair
            tol = 2e-10 * max(r, 1.0) if m == 1 else 3e-8 * (1 + abs(point))
            near = min(tree.points, key=lambda q: abs(q[0] - point))
            assert near[1] == m and abs(near[0] - point) <= tol, (f, r, point, near)


def _two_term(rng):
    """p + q e^{gamma z}: p, q of degree <= 3 over Q(i), gamma a small Gaussian integer."""
    def poly():
        coeffs = [GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                  for _ in range(rng.randint(1, 4))]
        return ZPoly(coeffs[:-1] + [coeffs[-1] or GaussRat(1)])

    gamma = rng.choice([GaussRat(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b])
    return ExpPoly.poly(poly()) + ExpPoly({gamma: poly()})


def test_seeded_zeros_match_the_quadtree_on_seeded_two_term_inputs(monkeypatch):
    # the seeds answer where the search makes no _subdivide call, the benchmark's
    # moving targets (z + a) + z e^z, a = 6, 7, ..., 14, among them
    rng = random.Random(23)
    z = ExpPoly.var()
    cases = [(z + Fraction(k, 4) + z * ExpPoly.exp(1), 50.0) for k in range(24, 57, 4)]
    cases += [(_two_term(rng), 3.0 * 20.0 ** rng.random()) for _ in range(200)]
    answered, subdivided, built, seeds = [], _subdivisions(monkeypatch), [], zeros._seeds
    monkeypatch.setattr(zeros, "_seeds", lambda f, r: built.append(f) or seeds(f, r))
    for f, r in cases:
        subdivided.clear()
        seeded = _seeded(f, r)
        answered.append(not subdivided)
        # every case's disk holds a zero, so its seeds are built, once
        assert len(built) == len(answered) and built[-1] is f, (f, r)
        if subdivided:
            continue
        tree = zeros._quadtree_zeros(f, r)
        assert seeded.boundary_nudged == tree.boundary_nudged
        assert sorted(m for _, m in seeded.points) == sorted(m for _, m in tree.points)
        for point, m in seeded.points:
            near = min(tree.points, key=lambda q: abs(q[0] - point))
            assert near[1] == m and abs(near[0] - point) <= 2e-10 * max(r, 1.0), (f, r, point, near)
    assert all(answered[:9]) and sum(answered) >= 0.9 * len(cases)


def test_an_empty_disk_builds_no_seeds(monkeypatch):
    # (z + 10) + z e^z has no zero in |z| <= 1: the circle walk answers before any seed
    # is built, and at r = 50 its 17 zeros are found from one build
    built, seeds = [], zeros._seeds
    monkeypatch.setattr(zeros, "_seeds", lambda f, r: built.append(r) or seeds(f, r))
    f = ExpPoly.var() + 10 + ExpPoly.var() * ExpPoly.exp(1)
    assert exppoly_zeros(f, 1.0).points == () and built == []
    assert _total(exppoly_zeros(f, 50.0)) == 17 and built == [50.0]


def test_a_double_zero_leaves_the_seeded_path(monkeypatch):
    # Newton does not settle on the double zero at 0, so the seeds fall short of the
    # count, and one subdivision answers as the search without seeds does
    f, r = 1 + ExpPoly.var() - ExpPoly.exp(1), 5.0
    tree = zeros._quadtree_zeros(f, r)
    subdivided = _subdivisions(monkeypatch)
    assert exppoly_zeros(f, r) == tree and subdivided == [f]


@pytest.mark.parametrize("move", [None, 0.5])
def test_a_withheld_or_displaced_limit_falls_back_to_the_quadtree(monkeypatch, move):
    # the Newton limits at one zero of (z + 10) + z e^z are withheld, which leaves the
    # count short of the disk winding, or moved off the zero, which keeps the count
    # and leaves the refusal to its winding square; subdivision then answers once
    f, r = ExpPoly.var() + 10 + ExpPoly.var() * ExpPoly.exp(1), 50.0
    subdivided = _subdivisions(monkeypatch)
    seeded = exppoly_zeros(f, r)
    assert subdivided == []
    target = seeded.points[0][0]
    newton = zeros._newton

    def tamper(g, x, *args, **kwargs):
        z, step = newton(g, x, *args, **kwargs)
        if g == f and not (args or kwargs) and abs(z - target) < 1e-6:
            return (z, math.inf) if move is None else (z + move, 0.0)
        return z, step

    monkeypatch.setattr(zeros, "_newton", tamper)
    _same_divisor(exppoly_zeros(f, r), seeded, tol=2e-10 * r)
    assert subdivided == [f]


def test_seeds_that_agree_after_the_array_steps_run_newton_once(monkeypatch):
    # the 72 starts of (z + 10) + z e^z at r = 50 lead to 17 zeros, and those that
    # agree after the three array steps are merged before Newton runs; a merge that
    # loses a zero leaves the count short of the disk winding, and subdivision answers
    f, r = ExpPoly.var() + 10 + ExpPoly.var() * ExpPoly.exp(1), 50.0
    newton, runs = zeros._newton, []
    subdivided = _subdivisions(monkeypatch)
    monkeypatch.setattr(zeros, "_newton",
                        lambda *args, **kwargs: runs.append(args[1]) or newton(*args, **kwargs))
    seeded = exppoly_zeros(f, r)
    assert len(seeded.points) == 17 and len(runs) <= 60 and subdivided == []
    monkeypatch.setattr(zeros, "_newton", newton)
    monkeypatch.setattr(zeros, "_merged", lambda z, cell: z[:1].tolist())
    _same_divisor(exppoly_zeros(f, r), seeded, tol=2e-10 * r)
    assert subdivided == [f]


@pytest.mark.parametrize("r", [1000.5, 10000.5])
def test_closed_form_count_matches_the_disk_winding_far_out(r):
    f = ExpPoly.exp(1) + 1
    div = exppoly_zeros(f, r)
    assert _total(div) == disk_winding(f, r) == 2 * math.floor((r / math.pi + 1) / 2)


def test_zeros_on_the_circle_count_inside_on_both_entries():
    # 1 + e^z vanishes at +-i pi, on the circle |z| = pi, z - 2 on |z| = 2, and z - 10^-5
    # on |z| = 10^-5, where the circle may move by 1e-6 max(r, 1), past tol = 1e-10
    for f, r, count in ((ExpPoly.exp(1) + 1, math.pi, 2), (ExpPoly.var() - 2, 2.0, 1),
                        (ExpPoly.var() - Fraction(1, 10 ** 5), 1e-5, 1)):
        divs = [entry(f, r) for entry in ENTRIES]
        assert all(div.boundary_nudged for div in divs)
        _same_divisor(*divs)
        assert _total(divs[0]) == count


def test_an_inclusion_radius_too_large_falls_back_to_the_quadtree(monkeypatch):
    # a one-frequency f whose radii are too large, and a polynomial whose
    # certificate fails, (z - 3)(z + 2i)(z - 1/2 - i/3)
    z = ExpPoly.var()
    poly = (z - 3) * (z + GaussRat(0, 2)) * (z - GaussRat(Fraction(1, 2), Fraction(1, 3)))
    for f, r, radii in (((ExpPoly.exp(1) + 1) ** 2 - 4, 25.0, lambda g, xs: [1e-3 * abs(x) for x in xs]),
                        (poly, 10.0, lambda g, xs: None)):
        certified = exppoly_zeros(f, r)
        calls = []
        quadtree = zeros._quadtree_zeros
        monkeypatch.setattr(zeros, "_inclusion_radii", radii)
        monkeypatch.setattr(zeros, "_quadtree_zeros",
                            lambda f, r, seeds=None: calls.append(f) or quadtree(f, r, seeds))
        assert zeros._certified_zeros(f, r) is None
        _same_divisor(exppoly_zeros(f, r), certified, tol=2e-10 * r)
        assert calls == [f]
        monkeypatch.undo()


@pytest.mark.parametrize("f", [ExpPoly.var() * ExpPoly.exp(1) + 1,
                               ExpPoly.exp(1) + ExpPoly.exp(GaussRat(0, 1)) + 1,
                               ExpPoly.exp(2) - ExpPoly.var() ** 2,
                               (ExpPoly.var() - 3) * ExpPoly.exp(GaussRat(0, 1)),
                               # P(w) = 1 + w^16 + w^17, w = e^{z/16}: past the degree cap
                               ExpPoly.exp(1) + ExpPoly.exp(1 + GaussRat(Fraction(1, 16))) + 1])
def test_polynomial_coefficients_rank_two_and_high_degree_take_the_quadtree(f):
    assert zeros._certified_zeros(f, 10.0) is None


def test_degree_sixteen_still_takes_the_closed_form():
    # P(w) = 1 + w^15 + w^16, w = e^{z/16}
    f = ExpPoly.exp(1) + ExpPoly.exp(1 - GaussRat(Fraction(1, 16))) + 1
    closed = zeros._certified_zeros(f, 50.0)
    assert closed is not None
    _same_divisor(closed, zeros._quadtree_zeros(f, 50.0), tol=1e-8)


TINY = GaussRat(Fraction(1, 10 ** 200))


@pytest.mark.parametrize("f", [ExpPoly.exp(1) + TINY, 1 + ExpPoly.exp(1) * TINY])
@pytest.mark.parametrize("r", [10.0, 470.0])
def test_a_root_of_p_near_1e200_takes_the_closed_form_without_overflow(f, r):
    # shifted by its first frequency, f is e^{c0 z} P(e^{gamma z}) with the root
    # of P at -10^200 or at -10^-200; near 10^200 the float root is about 1e184
    # off, and |g/g'|^2 passes the float range
    closed, tree = zeros._certified_zeros(f, r), zeros._quadtree_zeros(f, r)
    assert closed is not None and _total(closed) == _total(tree) == (30 if r > 400 else 0)
    _same_divisor(closed, tree, tol=2e-10 * r)
    _same_divisor(exppoly_zeros(f, r), tree, tol=2e-10 * r)


@pytest.mark.parametrize("k, first", [(300, True), (-300, True), (-300, False),
                                      (-320, True), (-320, False)])
def test_coefficients_at_the_edge_of_the_float_range_fall_back_to_the_quadtree(k, first):
    # roots of P near 10^-300 meet the radius floor 1e-300, and near 10^320 a
    # coefficient of P past the float range: both are left to the quadtree
    c = GaussRat(Fraction(10) ** k)
    f = ExpPoly.exp(1) + c if first else 1 + ExpPoly.exp(1) * c
    assert exppoly_zeros(f, 30.0) == zeros._quadtree_zeros(f, 30.0)


def test_closed_form_points_are_certified_roots():
    # each inclusion disk holds one root, so e^{gamma z} at every point is
    # within the disk of a root of P
    f = 2 * ExpPoly.exp(GaussRat(0, Fraction(3, 2))) - ExpPoly.exp(GaussRat(0, Fraction(1, 2))) + 5
    div = zeros._certified_zeros(f, 40.0)
    assert div is not None and _total(div) == disk_winding(f, 40.0)
    for point, m in div.points:
        assert m == 1 and abs(f(point)) <= 1e-8 * max(1.0, abs(point))


def test_inclusion_disks_reach_a_root_and_must_be_disjoint():
    g = ZPoly((3, -4, 1))                       # (w - 1)(w - 3)
    assert zeros._inclusion_radii(g, [1.0, 3.0]) == [0.0, 0.0]
    (rho, _) = zeros._inclusion_radii(g, [1 + 1e-9, 3.0])
    assert 1e-9 <= rho <= 3e-9
    # two values polished onto one root leave the other root uncovered
    assert zeros._inclusion_radii(g, [1.0, 1.0 + 1e-12]) is None
    assert zeros._inclusion_radii(g, [0.1, 3.0]) is None       # the disk reaches 0


Z, E = ExpPoly.var(), ExpPoly.exp(1)
PATHS = (exppoly_zeros, zeros._certified_zeros, _seeded, zeros._quadtree_zeros)


@pytest.mark.parametrize("rho", [-5e-11, -5e-13, 0.0, 5e-13, 1e-12, 5e-11, 2e-10])
@pytest.mark.parametrize("f, zeta", [
    (E + 1, 1j * math.pi), (Z * (E + 1), 1j * math.pi), (Z - 2, 2.0),
    # one of a conjugate pair of zeros of (z + 10) + z e^z, to double precision
    (Z + 10 + Z * E, 0.18689741062643303 - 15.12767111531301j)],
    ids=["1+e^z", "z(1+e^z)", "z-2", "(z+10)+ze^z"])
def test_every_path_takes_one_boundary_rule(f, zeta, rho):
    # zeta lies rho r outside |z| = r; within tol = 1e-10 max(r, 1) of the circle it
    # counts inside and flags the divisor on every path that answers
    r = abs(zeta) / (1 + rho)
    divs = [div for div in (path(f, r) for path in PATHS) if div is not None]
    tree = divs[-1]
    for div in divs:
        assert div.boundary_nudged == tree.boundary_nudged == (rho < 1e-10)
        assert sorted(m for _, m in div.points) == sorted(m for _, m in tree.points)
        for point, m in div.points:
            near = min(tree.points, key=lambda q: abs(q[0] - point))
            assert near[1] == m and abs(near[0] - point) <= 2e-10 * max(r, 1.0)
    assert any(abs(point - zeta) < 1e-6 for point, _ in tree.points) == (rho < 1e-10)


def test_an_empty_disk_costs_one_circle_walk(monkeypatch):
    walks, subdivided, walk = [], [], zeros._walk
    monkeypatch.setattr(zeros, "_walk", lambda *args: walks.append(1) or walk(*args))
    monkeypatch.setattr(zeros, "_subdivide", lambda *args: subdivided.append(1))
    div = zeros._quadtree_zeros(E + 1 + ExpPoly.exp(GaussRat(0, 1)), 2.0)
    assert div.points == () and not div.boundary_nudged
    assert len(walks) == 1 and subdivided == []


@pytest.mark.parametrize("r", [8.0, 20.0])
@pytest.mark.parametrize("f, k", [
    (E - 1 - Z - Fraction(1, 2) * Z ** 2, 3), (E - 1 - Z - Fraction(1, 2) * Z ** 2 - Fraction(1, 6) * Z ** 3, 4),
    ((E - 1 - Z) ** 2, 4),
    ((E - 1 - Z) * (ExpPoly.exp(GaussRat(0, 1)) - 1 - GaussRat(0, 1) * Z), 4)],
    ids=["e^z-1-z-z^2/2", "e^z-1-z-z^2/2-z^3/6", "(e^z-1-z)^2", "(e^z-1-z)(e^iz-1-iz)"])
def test_a_zero_of_multiplicity_three_or_four_is_one_cluster(f, k, r):
    # the walks near a k-fold zero at 0 fail within about (1024 eps)^(1/k) of it,
    # boxes of side 5e-4 for k = 3 at r = 20: the quadtree keeps such a box as a cluster
    div = exppoly_zeros(f, r)
    assert _total(div) == disk_winding(f, r)
    assert [m for point, m in div.points if abs(point) <= 1.4e-3] == [k]


@pytest.mark.parametrize("f, r", [(1 + Z - E, 5.0),
                                  ((E - 1 - Z) * (ExpPoly.exp(GaussRat(0, 1)) + 2), 5.0)])
def test_a_polished_cluster_lies_within_its_stated_bound(f, r, monkeypatch):
    # the double zero at 0 ends as a box whose centre _polish_cluster moves: the bound is
    # the box's half-diagonal plus that move
    found, subdivide = [], zeros._subdivide
    monkeypatch.setattr(zeros, "_subdivide", lambda *args: found.extend(subdivide(*args)) or found)
    zeros._quadtree_zeros(f, r)
    clusters = [(point, bound) for point, m, bound in found if m >= 2]
    assert len(clusters) == 1 and abs(clusters[0][0]) <= clusters[0][1] < 1e-4
