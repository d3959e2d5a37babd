"""Zero location in disks: exact-multiplicity roots for polynomials, and
argument-principle subdivision for exponential polynomials.

Polynomial path: Yun square-free decomposition over the Gaussian rationals
gives exact multiplicities; numpy locates the (simple) roots of each factor
and Newton polishes them against exact coefficients.

Transcendental path: winding numbers over adaptively refined contours, a
quadtree of boxes until each surviving box isolates one zero cluster, then
multiplicity-aware Newton polish.  The disk winding number equals the sum of
located multiplicities or the computation refuses the radius.

Every value is read as f e^{-M}, with f' e^{-M} and the noise floor, from
one bounded exponential per term (ExpPoly._scaled_exps), so no radius
overflows; phases, f'/f and Newton steps do not see the factor.  Contours are
walked as arrays: every segment tested at once and only the rejected ones
halved, level by level; a quadtree step walks its four child boxes in one
pass.  A box of winding count 1 tries a Newton exit, accepted only when the
square of side tol centred at the limit lies in the box with winding count 1,
so one simple zero lies within tol of it; otherwise, and always for two or
more zeros, the box is subdivided.

Zeros within 1e-12 (relative) of the boundary circle: the radius is nudged
outward by that amount and the divisor is flagged, so boundary zeros count
as inside deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


def _newton_polish(p: ZPoly, dp: ZPoly, x: complex) -> complex:
    for _ in range(60):
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


def zpoly_zeros(p: ZPoly, r: float) -> Divisor:
    if p.is_zero():
        raise ValueError("zero polynomial has no divisor")
    roots = zpoly_roots(p)
    nudged = any(abs(abs(a) - r) <= BOUNDARY_BAND * r for a, _ in roots)
    eff = r * (1 + BOUNDARY_BAND) if nudged else r
    pts = tuple((a, m) for a, m in roots if abs(a) <= eff)
    return Divisor(points=pts, r=r, boundary_nudged=nudged)


def ratfunc_divisors(f: RatFunc, r: float) -> tuple[Divisor, Divisor]:
    """(zeros, poles) of a reduced rational function in |z| <= r."""
    if f.num.is_zero():
        raise ValueError("zero function")
    return zpoly_zeros(f.num, r), zpoly_zeros(f.den, r)


def _chord_mid(a, b):
    return (a + b) / 2


def _scaled(f: ExpPoly, df: ExpPoly):
    """values(z) = (M, f e^{-M}, f' e^{-M}, floor e^{-M}) at a complex point or
    elementwise over a numpy array, df being f', from the bounded factors of
    ExpPoly._scaled_exps.  floor = 1024 eps sum_k A_k(|z|) |e^{c_k z}|, A_k(t)
    the sum of |a| t^j over the terms a z^j of p_k, bounds the rounding error
    of the value: a winding accepted with |f| above it all along the contour
    counts zeros of the true function (Rouche), not of the noise."""
    dimage = dict(zip(df.terms, df.float_image))
    terms = [(coeffs, dimage[c][1] if c in dimage else (), [abs(a) for a in coeffs])
             for c, (_, coeffs) in zip(f.terms, f.float_image)]

    def values(z):
        shift, exps = f._scaled_exps(z)
        az = abs(z)
        fz, dfz, floor = 0j, 0j, 0.0
        for (coeffs, dcoeffs, mags), e in zip(terms, exps):
            fz += _horner(coeffs, z) * e
            if dcoeffs:
                dfz += _horner(dcoeffs, z) * e
            floor += _horner(mags, az) * abs(e)
        return shift, fz, dfz, 1024 * math.ulp(1.0) * floor

    return values


def _horner(coeffs, z):
    acc = coeffs[0]
    for a in coeffs[1:]:
        acc = acc * z + a
    return acc


def _successors(sizes: np.ndarray) -> np.ndarray:
    """For points listed contour after contour, sizes[i] of them on contour
    i, the index of each point's successor on its closed contour."""
    nxt = np.arange(1, sizes.sum() + 1)
    nxt[np.cumsum(sizes) - 1] -= sizes
    return nxt


def _contour_points(contours, rate: float, midfn) -> tuple[np.ndarray, np.ndarray]:
    """The sampling points of closed contours, each given by its vertices:
    one array holding every contour's points in order, and the point count
    of each contour.

    Each edge is halved through midfn until it has at least
    |b - a| * rate / 0.5 pieces, so no piece can hide a full phase turn.  The
    edges of all contours that need the same number of halvings are halved
    together.
    """
    sizes = np.array([len(v) for v in contours])
    a = np.concatenate([np.asarray(v, dtype=complex) for v in contours])
    b = a[_successors(sizes)]
    steps = np.maximum(1.0, np.ceil(np.abs(b - a) * rate / 0.5))
    halvings = np.frexp(steps - 1.0)[1]       # least k with 2^k >= steps
    pieces = np.left_shift(1, halvings)
    start = np.cumsum(pieces) - pieces         # where each edge's points go
    out = np.empty(pieces.sum(), dtype=complex)
    for k in np.unique(halvings):
        idx = np.flatnonzero(halvings == k)
        sub, end = a[idx, None], b[idx, None]
        for _ in range(k):
            right = np.concatenate((sub[:, 1:], end), axis=1)
            finer = np.empty((len(idx), 2 * sub.shape[1]), dtype=complex)
            finer[:, 0::2] = sub
            finer[:, 1::2] = midfn(sub, right)
            sub = finer
        out[start[idx, None] + np.arange(sub.shape[1])] = sub
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return out, np.bincount(owner, pieces, len(sizes)).astype(int)


def _windings(f: ExpPoly, contours, rate: float, midfn) -> list[int]:
    """Winding numbers of f over closed contours, each given by its vertices.

    rate is an upper bound for |(log f)'| away from zeros; it sets the first
    sampling (_contour_points), so no segment can hide a full phase turn.
    Segments are refined through midfn, so a circle is walked along its arcs,
    which matters when zeros sit closer to it than a chord's sagitta.

    Every segment of every contour is tested at once, as arrays: f must clear
    the noise floor at its ends and midpoint, and its principal phase change
    is accepted when both halves turn by less than 1, the halves add up to
    the whole, and the step is short against the local |f'/f|.  The last
    keeps a segment from swallowing the near-2pi twist of a zero close to the
    contour, which a one-level midpoint check cannot see.  Only the rejected
    segments are halved and tested again, level by level, 56 levels deep.
    """
    values = _scaled(f, f.derivative())

    def evaluate(zs):
        """f e^{-M} and |f'/f| at the points zs, which must clear the noise floor."""
        _, fz, dfz, floor = values(zs)
        bad = ~np.isfinite(fz)
        if bad.any():
            raise OverflowError(f"f e^-M is not finite on contour near {zs[bad.argmax()]}")
        bad = np.abs(fz) <= floor
        if bad.any():
            raise ContourThroughZero(f"|f| below noise on contour near {zs[bad.argmax()]}")
        return fz, np.abs(dfz) / np.abs(fz)

    a, sizes = _contour_points(contours, rate, midfn)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    nxt = _successors(sizes)
    fa, ra = evaluate(a)
    b, fb, rb = a[nxt], fa[nxt], ra[nxt]
    total = np.zeros(len(sizes))
    for _ in range(57):
        m = midfn(a, b)
        fm, rm = evaluate(m)
        delta = np.angle(fb / fa)
        d1, d2 = np.angle(fm / fa), np.angle(fb / fm)
        ok = ((np.abs(delta) < 1.0) & (np.abs(d1) < 1.0) & (np.abs(d2) < 1.0)
              & (np.abs(d1 + d2 - delta) < 1e-9)
              & (np.abs(b - a) * np.maximum(np.maximum(ra, rm), rb) <= 1.0))
        total += np.bincount(owner[ok], delta[ok], len(sizes))
        if ok.all():
            break
        a, fa, ra, m, fm, rm, b, fb, rb, owner = (
            v[~ok] for v in (a, fa, ra, m, fm, rm, b, fb, rb, owner))
        a, fa, ra, b, fb, rb = (np.concatenate(h) for h in (
            (a, m), (fa, fm), (ra, rm), (m, b), (fm, fb), (rm, rb)))
        owner = np.concatenate((owner, owner))
    else:
        raise ContourThroughZero(f"phase refinement exhausted near {a[0]}")
    out = []
    for w in (total / (2 * math.pi)).tolist():
        if abs(w - round(w)) > 0.25:
            raise ContourThroughZero(f"winding {w} not close to an integer")
        out.append(round(w))
    return out


def phase_rate_bound(f: ExpPoly) -> float:
    """Crude bound on |f'/f| on contours staying away from zeros."""
    return sum((abs(c) + (len(coeffs) - 1) for c, coeffs in f.float_image), 1.0)


def disk_winding(f: ExpPoly, r: float) -> int:
    """Zero count (with multiplicity) of f in |z| < r by the argument principle."""
    rate = phase_rate_bound(f)
    samples = max(64, math.ceil(2 * math.pi * r * rate / 0.5))
    verts = r * np.exp(2j * np.pi * np.arange(samples) / samples)

    def arc_mid(a, b):
        c = (a + b) / 2
        return r * c / abs(c)

    return _windings(f, [verts], rate, arc_mid)[0]


def _box(x0: float, x1: float, y0: float, y1: float) -> list[complex]:
    return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]


def _box_winding(f, x0: float, x1: float, y0: float, y1: float, rate: float) -> int:
    return _windings(f, [_box(x0, x1, y0, y1)], rate, _chord_mid)[0]


def _newton_exit(f, df, x0, x1, y0, y1, tol, rate) -> Optional[complex]:
    """The simple zero of a box of winding count 1, or None.

    Plain Newton from the box centre must converge inside the box, and the
    square of side tol centred at its limit must lie in the box and have
    winding count 1.  That square then holds the box's one zero, so the limit
    is within tol of it, as a quadtree leaf's centre would be.
    """
    values = _scaled(f, df)
    x = complex((x0 + x1) / 2, (y0 + y1) / 2)
    for _ in range(40):
        _, fx, dfx, _ = values(x)
        if dfx == 0:
            return None
        step = fx / dfx
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
            winds = _windings(f, [_box(*qd) for qd in quads], rate, _chord_mid)
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
    """Multiplicity-aware Newton from a cluster's centre, returning the
    iterate of least |f| within reach of the centre.  |f| is compared as
    M + log|f e^{-M}|, with |f e^{-M}| breaking the ties that the log's
    rounding makes."""
    values = _scaled(f, df)
    escape = max(4 * box_tol, 1e-4 * (1 + abs(z)))
    x, step, best, best_key = z, math.inf, z, (math.inf,)
    for _ in range(81):
        shift, fx, dfx, _ = values(x)
        if fx == 0:
            return x
        key = (shift + math.log(abs(fx)), abs(fx))
        if key < best_key:
            best, best_key = x, key
        if abs(step) <= 1e-15 * max(1.0, abs(x)) or dfx == 0:
            break
        step = mult * fx / dfx
        if abs(step) > escape:
            # a noise-driven step this large means the iteration left the
            # trustworthy region; keep the best point seen instead
            break
        x -= step
    return best if abs(best - z) <= escape else z


def exppoly_zeros(f: ExpPoly, r: float) -> Divisor:
    """Divisor of an exponential polynomial in |z| <= r.

    Polynomial inputs take the exact path.  Otherwise: boundary winding gives
    the total count, quadtree subdivision isolates clusters down to boxes of
    side 1e-10 max(r, 1), and the sum of located multiplicities must
    reproduce the boundary count.
    """
    if f.is_zero():
        raise ValueError("zero function has no divisor")
    if f.is_polynomial():
        return zpoly_zeros(f.polynomial_part(), r)
    tol = 1e-10 * max(r, 1.0)
    rate = phase_rate_bound(f)
    df = f.derivative()
    nudged = False
    eff = r
    for attempt in range(8):
        try:
            total = disk_winding(f, eff)
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
