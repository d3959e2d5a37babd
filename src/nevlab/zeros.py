"""Zero location in disks: exact-multiplicity roots for polynomials, and
argument-principle subdivision for exponential polynomials.

Polynomial path: Yun square-free decomposition over the Gaussian rationals
gives exact multiplicities; numpy locates the (simple) roots of each factor
and Newton polishes them against exact coefficients.

Transcendental path: winding numbers over adaptively refined contours, a
quadtree of boxes until each surviving box isolates one zero cluster, then
multiplicity-aware Newton polish.  The disk winding number equals the sum of
located multiplicities or the computation refuses the radius.

Each contour is first walked as arrays: f, f' and the noise floor at every
sampling point and segment midpoint in one call each, and the segment test of
the scalar walk applied to all segments at once; only the segments that test
rejects are refined point by point.  A box of winding count 1 larger than the
tolerance tries a Newton exit: plain Newton from its centre, accepted only
when it converges inside the box and the square of side tol centred at the
limit lies in the box with winding count 1, which certifies one simple zero
within tol of the reported point, as a quadtree leaf would.  Otherwise the box
is subdivided as before; boxes holding two or more zeros always are.

Zeros within 1e-12 (relative) of the boundary circle: the radius is nudged
outward by that amount and the divisor is flagged, so boundary zeros count
as inside deterministically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .expfunc import ExpPoly
from .fields import RatFunc, ZPoly, zpoly_gcd

BOUNDARY_BAND = 1e-12


class ContourThroughZero(ArithmeticError):
    """The argument-principle computation broke down: a contour walk hit a
    (near-)zero of the function, or the located zeros do not add up to the
    winding count."""


@dataclass(frozen=True)
class Divisor:
    """Zeros with multiplicities inside |z| <= r (after any boundary nudge)."""

    points: tuple[tuple[complex, int], ...]
    r: float
    boundary_nudged: bool = False

    def total(self, level: Optional[int] = None) -> int:
        if level is None:
            return sum(m for _, m in self.points)
        return sum(min(m, level) for _, m in self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def yun_squarefree(p: ZPoly) -> list[tuple[ZPoly, int]]:
    """[(g_i, i)] with p = lc * prod g_i^i, the g_i squarefree and coprime."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = zpoly_gcd(p, dp)
    b = p // a
    c = dp // a
    out = []
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = zpoly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = d // g
        i += 1
    return out


def _newton_polish(p: ZPoly, dp: ZPoly, x: complex, steps: int = 60) -> complex:
    for _ in range(steps):
        fx = complex(p(x))
        if fx == 0:
            return x
        dfx = complex(dp(x))
        if dfx == 0:
            return x
        step = fx / dfx
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


def zpoly_roots(p: ZPoly) -> list[tuple[complex, int]]:
    """All complex roots with exact multiplicities."""
    roots: list[tuple[complex, int]] = []
    for g, mult in yun_squarefree(p):
        coeffs = [complex(c) for c in reversed(g.coeffs)]
        raw = np.roots(np.array(coeffs, dtype=complex))
        dg = g.derivative()
        for x in raw:
            roots.append((_newton_polish(g, dg, complex(x)), mult))
    return roots


def _restrict(roots: Iterable[tuple[complex, int]], r: float) -> Divisor:
    nudged = any(abs(abs(a) - r) <= BOUNDARY_BAND * r for a, _ in roots)
    eff = r * (1 + BOUNDARY_BAND) if nudged else r
    pts = tuple((a, m) for a, m in roots if abs(a) <= eff)
    return Divisor(points=pts, r=r, boundary_nudged=nudged)


def zpoly_zeros(p: ZPoly, r: float) -> Divisor:
    if p.is_zero():
        raise ValueError("zero polynomial has no divisor")
    return _restrict(zpoly_roots(p), r)


def ratfunc_divisors(f: RatFunc, r: float) -> tuple[Divisor, Divisor]:
    """(zeros, poles) of a reduced rational function in |z| <= r."""
    if f.num.is_zero():
        raise ValueError("zero function")
    return zpoly_zeros(f.num, r), zpoly_zeros(f.den, r)


def _chord_mid(a: complex, b: complex) -> complex:
    return (a + b) / 2


_EPS = 2.220446049250313e-16


def _no_floor(z: complex) -> float:
    return 1e-280


def phase_noise_floor(f):
    """Absolute |f| level below which an evaluated phase is cancellation noise.

    The sum of term magnitudes bounds the rounding perturbation of the computed
    value, so a winding accepted with |f| above this floor everywhere on the
    contour counts zeros of the true function (Rouche), not of the noise.  The
    returned evaluator takes a complex point or a numpy array of them.
    """
    if isinstance(f, ExpPoly):
        image = f.float_image

        def floor(z):
            s = 0.0
            az = np.abs(z)
            for c, coeffs in image:
                t, pw = 0.0, 1.0
                for a in reversed(coeffs):
                    t += abs(a) * pw
                    pw *= az
                s += np.exp(np.minimum((c * z).real, 700.0)) * t
            return 1024 * _EPS * s

        return floor
    return _no_floor


def _local_rate(f):
    """Pointwise |f'/f| evaluator (scalars or arrays), or None when f has no
    derivative method."""
    deriv = getattr(f, "derivative", None)
    if deriv is None:
        return None
    df = deriv()

    def rate_at(z, fz):
        return np.abs(df(z)) / np.abs(fz)

    return rate_at


def _arg_walk(f, a: complex, b: complex, fa: complex, fb: complex,
              midfn=_chord_mid, floor=_no_floor, ratefn=None,
              depth: int = 0) -> float:
    """Accumulated argument change of f along the path from a to b.

    midfn picks the refinement point between two path points, so the walk can
    follow a curved contour (a circular arc) instead of its chord; that matters
    when zeros sit closer to the circle than the chord's sagitta.  A principal
    value is accepted only when a midpoint check passes and, when |f'/f| is
    available, the step is short against the local phase rate; the latter keeps
    a segment from swallowing the near-2pi twist that a zero close to the
    contour produces, which a one-level midpoint check cannot see.
    """
    if abs(fa) <= floor(a) or abs(fb) <= floor(b):
        raise ContourThroughZero(f"|f| below noise on contour near {a}")
    if depth > 56:
        raise ContourThroughZero(f"phase refinement exhausted near {a}")
    delta = cmath.phase(fb / fa)
    mid = midfn(a, b)
    fm = f(mid)
    if abs(fm) <= floor(mid):
        raise ContourThroughZero(f"|f| below noise on contour near {mid}")
    if abs(delta) < 1.0:
        d1 = cmath.phase(fm / fa)
        d2 = cmath.phase(fb / fm)
        if abs(d1) < 1.0 and abs(d2) < 1.0 and abs(d1 + d2 - delta) < 1e-9:
            if ratefn is None:
                return delta
            step = abs(b - a)
            if step * max(ratefn(a, fa), ratefn(mid, fm), ratefn(b, fb)) <= 1.0:
                return delta
    return (_arg_walk(f, a, mid, fa, fm, midfn, floor, ratefn, depth + 1)
            + _arg_walk(f, mid, b, fm, fb, midfn, floor, ratefn, depth + 1))


def _contour_points(vertices, rate: float, midfn) -> np.ndarray:
    """The closed contour's sampling points, in order, as one array.

    Each edge is halved through midfn until it has at least
    |b - a| * rate / 0.5 pieces, so no piece can hide a full phase turn.
    """
    a = np.asarray(vertices, dtype=complex)
    b = np.roll(a, -1)
    steps = np.maximum(1.0, np.ceil(np.abs(b - a) * rate / 0.5))
    halvings = np.frexp(steps - 1.0)[1]       # least k with 2^k >= steps
    pieces = [None] * len(a)
    for k in np.unique(halvings):
        idx = np.flatnonzero(halvings == k)
        sub, end = a[idx, None], b[idx, None]
        for _ in range(k):
            right = np.concatenate((sub[:, 1:], end), axis=1)
            nxt = np.empty((len(idx), 2 * sub.shape[1]), dtype=complex)
            nxt[:, 0::2] = sub
            nxt[:, 1::2] = midfn(sub, right)
            sub = nxt
        for i, row in zip(idx, sub):
            pieces[i] = row
    return np.concatenate(pieces)


def _contour_winding(f, vertices, rate: float,
                     midfn=_chord_mid, floor=None) -> int:
    """Winding number of f over the closed contour through vertices.

    rate is an upper bound for |(log f)'| away from zeros, used to pick the
    initial sampling so no segment can hide a full phase turn.  Refinement
    between consecutive vertices goes through midfn, so a circular contour is
    walked along the true arc.  f, floor and midfn take numpy arrays: the
    first pass evaluates every sampling point and segment midpoint at once and
    applies _arg_walk's depth-0 test to all segments together; only segments
    it rejects are walked point by point, from their halves on.
    """
    if floor is None:
        floor = phase_noise_floor(f)
    ratefn = _local_rate(f)
    pts = _contour_points(vertices, rate, midfn)
    nxt = np.roll(pts, -1)
    mid = midfn(pts, nxt)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, fmid = f(pts), f(mid)
    for zs, fz in ((pts, vals), (mid, fmid)):
        bad = ~np.isfinite(fz)
        if bad.any():
            # as cmath.exp in the scalar walk would
            raise OverflowError(f"math range error on contour near {zs[bad.argmax()]}")
        bad = np.abs(fz) <= floor(zs)
        if bad.any():
            raise ContourThroughZero(
                f"|f| below noise on contour near {zs[bad.argmax()]}")
    fnxt = np.roll(vals, -1)
    delta = np.angle(fnxt / vals)
    d1 = np.angle(fmid / vals)
    d2 = np.angle(fnxt / fmid)
    ok = ((np.abs(delta) < 1.0) & (np.abs(d1) < 1.0) & (np.abs(d2) < 1.0)
          & (np.abs(d1 + d2 - delta) < 1e-9))
    if ratefn is not None:
        rates = ratefn(pts, vals)
        worst = np.maximum(np.maximum(rates, ratefn(mid, fmid)), np.roll(rates, -1))
        ok &= np.abs(nxt - pts) * worst <= 1.0
    total = float(delta[ok].sum())
    for i in np.flatnonzero(~ok):
        a, m, b = complex(pts[i]), complex(mid[i]), complex(nxt[i])
        fa, fm, fb = complex(vals[i]), complex(fmid[i]), complex(fnxt[i])
        total += (_arg_walk(f, a, m, fa, fm, midfn, floor, ratefn, 1)
                  + _arg_walk(f, m, b, fm, fb, midfn, floor, ratefn, 1))
    w = total / (2 * math.pi)
    wi = round(w)
    if abs(w - wi) > 0.25:
        raise ContourThroughZero(f"winding {w} not close to an integer")
    return wi


def phase_rate_bound(f) -> float:
    """Crude bound on |f'/f| on contours staying away from zeros."""
    if isinstance(f, ExpPoly):
        rate = 1.0
        for c, coeffs in f.float_image:
            rate += abs(c) + (len(coeffs) - 1)
        return rate
    return 4.0


def disk_winding(f, r: float, rate: float = None) -> int:
    """Zero count (with multiplicity) of f in |z| < r by the argument principle.

    f must evaluate elementwise over a numpy array of points (an ExpPoly,
    np.exp, a polynomial lambda) as well as at a single complex point.
    """
    if rate is None:
        rate = phase_rate_bound(f)
    samples = max(64, math.ceil(2 * math.pi * r * rate / 0.5))
    verts = r * np.exp(2j * np.pi * np.arange(samples) / samples)

    def arc_mid(a: complex, b: complex) -> complex:
        c = (a + b) / 2
        return r * c / abs(c)

    return _contour_winding(f, verts, rate, arc_mid)


def _box_winding(f, x0: float, x1: float, y0: float, y1: float, rate: float = 4.0) -> int:
    verts = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    return _contour_winding(f, verts, rate)


def _newton_exit(f, df, x0, x1, y0, y1, tol, rate) -> Optional[complex]:
    """The simple zero of a box of winding count 1, or None.

    Plain Newton from the box centre must converge inside the box, and the
    square of side tol centred at its limit must lie in the box and have
    winding count 1.  That square then holds the box's one zero, so the limit
    is within tol of it, as a quadtree leaf's centre would be.
    """
    x = complex((x0 + x1) / 2, (y0 + y1) / 2)
    for _ in range(40):
        dfx = df(x)
        if dfx == 0:
            return None
        step = f(x) / dfx
        x -= step
        if not (x0 <= x.real <= x1 and y0 <= x.imag <= y1):
            return None
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    else:
        return None
    h = tol / 2
    sx0, sx1, sy0, sy1 = x.real - h, x.real + h, x.imag - h, x.imag + h
    if not (x0 <= sx0 and sx1 <= x1 and y0 <= sy0 and sy1 <= y1):
        return None
    try:
        return x if _box_winding(f, sx0, sx1, sy0, sy1, rate) == 1 else None
    except ContourThroughZero:
        return None


def _subdivide(f, df, x0, x1, y0, y1, count, tol, found, rate, depth=0):
    if count == 0:
        return
    w, h = x1 - x0, y1 - y0
    center = complex((x0 + x1) / 2, (y0 + y1) / 2)
    if max(w, h) <= tol or depth > 64:
        found.append((center, count))
        return
    if count == 1:
        z = _newton_exit(f, df, x0, x1, y0, y1, tol, rate)
        if z is not None:
            found.append((z, 1))
            return
    if count >= 2 and max(w, h) <= 3e-8 * (1 + abs(center)):
        # below sqrt(eps) a multiple zero cannot be told from a tight pair in
        # double precision; a "successful" split here is sampling luck
        found.append((center, count))
        return
    # a zero on a cut line breaks the walk there; slide the cut until clean
    for attempt in range(10):
        frac = 0.5 + 0.0371 * attempt
        xm = x0 + w * frac
        ym = y0 + h * frac
        quads = [(x0, xm, y0, ym), (xm, x1, y0, ym),
                 (x0, xm, ym, y1), (xm, x1, ym, y1)]
        try:
            winds = [_box_winding(f, *qd, rate) for qd in quads]
        except ContourThroughZero:
            continue
        if sum(winds) != count:
            continue
        for qd, wq in zip(quads, winds):
            _subdivide(f, df, *qd, wq, tol, found, rate, depth + 1)
        return
    if max(w, h) <= 1e-5 * (1 + abs(center)):
        # double-precision cancellation floor: below this scale the phase of
        # f is noise near a multiple zero; keep the cluster with its count
        found.append((center, count))
        return
    raise ContourThroughZero(f"cannot separate {count} zeros in box {(x0, x1, y0, y1)}")


def _polish_cluster(f, df, z: complex, mult: int, box_tol: float) -> complex:
    x = z
    best, best_f = z, abs(f(z))
    escape = max(4 * box_tol, 1e-4 * (1 + abs(z)))
    for _ in range(80):
        fx = f(x)
        if abs(fx) < best_f:
            best, best_f = x, abs(fx)
        if fx == 0:
            return x
        dfx = df(x)
        if dfx == 0:
            break
        step = mult * fx / dfx
        if abs(step) > escape:
            # a noise-driven step this large means the iteration left the
            # trustworthy region; keep the best point seen instead
            break
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            fx = f(x)
            if abs(fx) < best_f:
                best, best_f = x, abs(fx)
            break
    return best if abs(best - z) <= escape else z


def exppoly_zeros(f: ExpPoly, r: float, tol: float = None) -> Divisor:
    """Divisor of an exponential polynomial in |z| <= r.

    Polynomial inputs take the exact path.  Otherwise: boundary winding gives
    the total count, quadtree subdivision isolates clusters, and the sum of
    located multiplicities must reproduce the boundary count.
    """
    if f.is_zero():
        raise ValueError("zero function has no divisor")
    if f.is_polynomial():
        return zpoly_zeros(f.polynomial_part(), r)
    if tol is None:
        tol = 1e-10 * max(r, 1.0)
    rate = phase_rate_bound(f)
    df = f.derivative()
    nudged = False
    eff = r
    for attempt in range(8):
        try:
            total = disk_winding(f, eff, rate)
            break
        except ContourThroughZero:
            nudged = True
            eff = eff * (1 + BOUNDARY_BAND * 10 ** attempt)
    else:
        raise ContourThroughZero(f"boundary circle r={r} cannot avoid zeros")
    if total == 0:
        return Divisor(points=(), r=r, boundary_nudged=nudged)
    found: list[tuple[complex, int]] = []
    # bounding square of the effective disk, stretched so edges miss zeros
    for attempt in range(6):
        pad = eff * (1 + 1e-6 * (1 + attempt) ** 2)
        try:
            count = _box_winding(f, -pad, pad, -pad, pad, rate)
            found = []
            _subdivide(f, df, -pad, pad, -pad, pad, count, tol, found, rate)
            break
        except ContourThroughZero:
            continue
    else:
        raise ContourThroughZero("quadtree subdivision failed")
    pts = []
    for z, mult in found:
        z = _polish_cluster(f, df, z, mult, tol)
        if abs(z) <= eff * (1 + BOUNDARY_BAND):
            pts.append((z, mult))
    got = sum(m for _, m in pts)
    if got != total:
        raise ContourThroughZero(
            f"located {got} zeros but the disk winding number is {total}")
    return Divisor(points=tuple(pts), r=r, boundary_nudged=nudged)
