"""Zero location in disks by two paths: certified roots for polynomials and
one-frequency exponential polynomials, and argument-principle subdivision for every
other exponential polynomial and wherever a certificate fails, which first tries the
Newton limits of seeds.  On both, one float Newton iteration (_newton) proposes points
and a certificate decides.

Certified path: Yun square-free decomposition over the Gaussian rationals gives exact
multiplicities; numpy locates the (simple) roots of each factor g, Newton polishes
them, with one exact step where it stalls short of the last ulp, and each is
certified by a disk of radius deg g |g/g'| from exact values.  A polynomial's zeros
are its roots; the zeros of f = e^{c0 z} P(e^{gamma z}) are (Log w + 2 pi i m)/gamma
over the roots w of P.  Each zero in reach is placed within 1e-10 max(r, 1), or f
goes on, as a one-frequency f with deg P > 16 does.

Quadtree path: the disk winding number of the reach circle is the total count.  When
it is nonzero, seeds (_seeds) come from f = p e^{alpha z} + q e^{beta z}, on the
branches of e^{(beta - alpha) z} = -p/q; their Newton limits are simple zeros within
1e-10 max(r, 1) when each one's square of that side winds once inside the reach
circle and they add up to the count.  Otherwise a quadtree of boxes, each counted by
the certified phase increments along its sides (_walk, _subdivide), isolates the
zeros, a box of count 1 ending in a Newton exit that a winding square certifies; the
multiplicities located in the reach disk must add up to the count, or the radius is
refused.  A simple zero is placed within 1e-10 max(r, 1), a cluster of multiplicity
>= 2 within its exit box's half-diagonal plus the distance its polish moved it.
Every value is read as f e^{-M} from ExpPoly.scaled, the one float evaluator, so no
radius overflows.

One boundary rule: both paths locate the zeros out to _reach(r), each within its
placement error, and _counted takes the circle r, or else the first of radius
r + 1e-12 10^k max(r, 1), k = 0, ..., 6, that passes farther than its error from every
one; the zeros inside it count, and boundary_nudged says that the circle moved.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .expfunc import ExpPoly, exponent_polys
from .fields import GaussRat, RatFunc, ZPoly, zpoly_gcd

class ContourThroughZero(ArithmeticError):
    """The argument-principle computation broke down: a contour walk hit a
    (near-)zero of the function, or the located zeros do not add up to the
    winding count."""


@dataclass(frozen=True)
class Divisor:
    """Zeros with multiplicities inside |z| <= r, each within 1e-10 max(r, 1) of a true
    one by a certified disk or a winding square, a quadtree cluster of multiplicity >= 2
    within its bound from _subdivide; boundary_nudged when a zero within that error of
    the circle moved it (_counted), by 1e-6 max(r, 1) at most."""

    points: tuple[tuple[complex, int], ...]
    r: float
    boundary_nudged: bool = False


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


def _newton(f: ExpPoly, x: complex, mult: int = 1, inside=None) -> tuple[complex, float]:
    """Newton's iteration x <- x - mult f/f' on values from f.scaled, ended by f = 0 or
    f' = 0, by an iterate outside `inside`, or by a stall: a step within an ulp of
    max(1, |x|), or one below 1e-8 max(1, |x|) no shorter than the last (the gate spares
    a global step that grows); 64 steps bound a cycle.  Returns the iterate of least |f|, as
    M + log|f e^{-M}| with |f e^{-M}| breaking ties, and the last step's length."""
    best, best_key, last = x, (math.inf,), math.inf
    for _ in range(64):
        if inside is not None and not inside(x):
            break
        shift, fx, dfx, _ = f.scaled(x, derivative=True)
        if fx == 0:
            return x, 0.0
        key = (shift + math.log(abs(fx)), abs(fx))
        if key < best_key:
            best, best_key = x, key
        if dfx == 0:
            break
        step = mult * fx / dfx
        if last <= abs(step) < 1e-8 * max(1.0, abs(x)):
            break
        last = abs(step)
        if last <= math.ulp(max(1.0, abs(x))):
            break
        x -= step
    return best, last


def _lift(x: complex) -> Optional[GaussRat]:
    """A finite float point as the exact GaussRat it is, or None."""
    return GaussRat(Fraction(x.real), Fraction(x.imag)) if cmath.isfinite(x) else None


def zpoly_zeros(p: ZPoly, r: float) -> Divisor:
    return exppoly_zeros(ExpPoly.poly(p), r)


def ratfunc_divisors(f: RatFunc, r: float) -> tuple[Divisor, Divisor]:
    """(zeros, poles) of a reduced rational function in |z| <= r."""
    if f.num.is_zero():
        raise ValueError("zero function")
    return zpoly_zeros(f.num, r), zpoly_zeros(f.den, r)


def _chord_mid(a, b):
    return (a + b) / 2


def _edge_points(a: np.ndarray, b: np.ndarray, rate: float, midfn):
    """The first sampling of the edges from a[i] to b[i]: one array holding,
    edge after edge, each edge's points without its end, and the piece count
    of each edge.

    Each edge is halved through midfn until it has at least
    |b - a| * rate / 0.5 pieces, so no piece can hide a full phase turn.  A
    count of two or more is a power of two, so midfn(a, b), the first
    halving, is the edge's middle point.  The edges that need the same
    number of halvings are halved together.
    """
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
    return out, pieces


def _walk(f: ExpPoly, lines, rate: float, midfn):
    """Certified increments of arg f along polylines, each given by its
    vertices, with values from f.scaled.

    Returns (inc, first, failed) over the edges (consecutive vertices), edge
    after edge and line after line: inc[first[e]:first[e + 1]] holds the
    increment over each first-sampling piece of edge e (_edge_points), and
    failed[e] is set where the walk of edge e broke down, with |f| at or
    below the noise floor at one of its points or its refinement exhausted;
    its increments are then meaningless.  One edge's failure leaves the
    others standing.

    rate is an upper bound for |(log f)'| away from zeros; it sets the first
    sampling.  Segments are refined through midfn, so a circle is walked
    along its arcs, which matters when zeros sit closer to it than a chord's
    sagitta.  Every segment of every edge is tested at once, as arrays: f
    must clear the noise floor at its ends and midpoint, and its principal
    phase change is accepted when both halves turn by less than 1, the halves
    add up to the whole, and the step is short against the local |f'/f|.
    The last keeps a segment from swallowing the near-2pi twist of a zero
    close to the edge, which a one-level midpoint check cannot see.  Only
    the rejected segments are halved and tested again, level by level, 56
    levels deep.
    """
    def evaluate(zs):
        """f e^{-M}, |f'/f| and the points where f does not clear the noise floor."""
        _, fz, dfz, floor = f.scaled(zs, derivative=True)
        bad = ~np.isfinite(fz)
        if bad.any():
            raise OverflowError(f"f e^-M is not finite on contour near {zs[bad.argmax()]}")
        mag = np.abs(fz)
        low = mag <= floor
        return fz, np.abs(dfz) / np.where(low, 1.0, mag), low

    verts = [np.asarray(v, dtype=complex) for v in lines]
    a = np.concatenate([v[:-1] for v in verts])
    b = np.concatenate([v[1:] for v in verts])
    samples, pieces = _edge_points(a, b, rate, midfn)
    first = np.concatenate(([0], np.cumsum(pieces)))
    # each line's last vertex follows the points of its last edge
    last = np.cumsum([len(v) - 1 for v in verts]) - 1
    pts = np.insert(samples, first[last + 1], b[last])
    fp, rp, low = evaluate(pts)
    is_start = np.ones(len(pts), dtype=bool)
    is_start[first[last + 1] + np.arange(len(verts))] = False
    start = np.flatnonzero(is_start)           # piece k runs from pts[start[k]] to the next point
    edge = np.repeat(np.arange(len(a)), pieces)
    failed = np.zeros(len(a), dtype=bool)
    failed[edge[low[start] | low[start + 1]]] = True
    keep = ~failed[edge]
    a, fa, ra, b, fb, rb, slot = (v[keep] for v in (
        pts[start], fp[start], rp[start], pts[start + 1], fp[start + 1], rp[start + 1],
        np.arange(len(samples))))
    inc = np.zeros(len(samples))
    for _ in range(57):
        m = midfn(a, b)
        fm, rm, low = evaluate(m)
        if low.any():
            failed[edge[slot[low]]] = True
            keep = ~failed[edge[slot]]
            a, fa, ra, m, fm, rm, b, fb, rb, slot = (
                v[keep] for v in (a, fa, ra, m, fm, rm, b, fb, rb, slot))
        delta = np.angle(fb / fa)
        d1, d2 = np.angle(fm / fa), np.angle(fb / fm)
        ok = ((np.abs(delta) < 1.0) & (np.abs(d1) < 1.0) & (np.abs(d2) < 1.0)
              & (np.abs(d1 + d2 - delta) < 1e-9)
              & (np.abs(b - a) * np.maximum(np.maximum(ra, rm), rb) <= 1.0))
        inc += np.bincount(slot[ok], delta[ok], len(inc))
        if ok.all():
            break
        a, fa, ra, m, fm, rm, b, fb, rb, slot = (
            v[~ok] for v in (a, fa, ra, m, fm, rm, b, fb, rb, slot))
        a, fa, ra, b, fb, rb = (np.concatenate(h) for h in (
            (a, m), (fa, fm), (ra, rm), (m, b), (fm, fb), (rm, rb)))
        slot = np.concatenate((slot, slot))
    else:
        failed[edge[slot]] = True
    return inc, first, failed


def _whole_turns(increment: float) -> Optional[int]:
    """The winding number that a closed contour's phase increment makes, or
    None when it is not close to a whole number of turns."""
    w = increment / (2 * math.pi)
    return round(w) if abs(w - round(w)) <= 0.25 else None


def _windings(f: ExpPoly, contours, rate: float, midfn) -> list[Optional[int]]:
    """Winding numbers of f over closed contours, each given by its vertices,
    from one _walk over all of them; None for a contour whose walk broke down."""
    lines = [np.append(np.asarray(c, dtype=complex), c[0]) for c in contours]
    inc, first, failed = _walk(f, lines, rate, midfn)
    owner = np.repeat(np.arange(len(lines)), [len(c) for c in contours])
    total = np.bincount(np.repeat(owner, np.diff(first)), inc, len(lines))
    broken = np.bincount(owner, failed, len(lines)) > 0
    return [None if x else _whole_turns(t) for t, x in zip(total.tolist(), broken.tolist())]


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

    w = _windings(f, [verts], rate, arc_mid)[0]
    if w is None:
        raise ContourThroughZero(f"the walk of the circle |z| = {r} broke down")
    return w


def _box(x0: float, x1: float, y0: float, y1: float) -> list[complex]:
    return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]


class _Box(NamedTuple):
    """A quadtree box with its zero count, its path from the root (child
    indices in the order SW, SE, NW, NE) and its sides (bottom, right, top,
    left, each directed toward increasing x or y) as the certified increments
    of arg f over their first-sampling pieces."""

    x0: float
    x1: float
    y0: float
    y1: float
    count: int
    path: tuple
    sides: tuple


def _edges(f: ExpPoly, lines, rate: float) -> list[Optional[np.ndarray]]:
    """Per edge of the polylines, the increments of one chord-refined _walk,
    or None where the walk of that edge failed."""
    inc, first, failed = _walk(f, lines, rate, _chord_mid)
    first = first.tolist()
    return [None if x else inc[i:j] for i, j, x in zip(first, first[1:], failed.tolist())]


def _turns(sides) -> Optional[int]:
    """A box's winding number from the increments along its sides."""
    if any(s is None for s in sides):
        return None
    bottom, right, top, left = (s.sum() for s in sides)
    return _whole_turns(bottom + right - top - left)


def _halves(side: np.ndarray, lo: float, hi: float, cut: float):
    """The walked side from lo to hi as its two halves at cut, when cut is the
    middle point of its walk: a power-of-two piece count and the very float
    that the first halving (lo + hi) / 2 made; otherwise None."""
    n = len(side)
    if n >= 2 and cut == (lo + hi) / 2:
        return side[:n // 2], side[n // 2:]
    return None


def _cut(box: _Box, attempt: int):
    """One attempt at cutting a box: its quadrants, each side's halves where
    the box's own walk provides them (None where not), and the polylines to
    walk, each of three vertices: the vertical and the horizontal cut line,
    then each side without halves, in the order bottom, right, top, left."""
    x0, x1, y0, y1 = box.x0, box.x1, box.y0, box.y1
    frac = 0.5 + 0.0371 * attempt
    xm = x0 + (x1 - x0) * frac
    ym = y0 + (y1 - y0) * frac
    quads = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
    lines = [[complex(xm, y0), complex(xm, ym), complex(xm, y1)],
             [complex(x0, ym), complex(xm, ym), complex(x1, ym)]]
    fresh = ([complex(x0, y0), complex(xm, y0), complex(x1, y0)],
             [complex(x1, y0), complex(x1, ym), complex(x1, y1)],
             [complex(x0, y1), complex(xm, y1), complex(x1, y1)],
             [complex(x0, y0), complex(x0, ym), complex(x0, y1)])
    halves = []
    for side, span, line in zip(box.sides, ((x0, x1, xm), (y0, y1, ym)) * 2, fresh):
        h = _halves(side, *span) if attempt == 0 else None
        halves.append(h)
        if h is None:
            lines.append(line)
    return quads, halves, lines


def _newton_exit(f: ExpPoly, x0, x1, y0, y1, tol) -> Optional[complex]:
    """The candidate simple zero of a box of winding count 1, or None: Newton
    (_newton) from the box centre, its iterates kept where the square of side
    tol about them lies in the box, and its last step within that square.  The
    square is to wind once: it then holds the box's one zero, so the point is
    within tol of it, as a quadtree leaf's centre would be."""
    h = tol / 2
    x, step = _newton(f, complex((x0 + x1) / 2, (y0 + y1) / 2),
                      inside=lambda z: x0 + h <= z.real <= x1 - h and y0 + h <= z.imag <= y1 - h)
    return x if step <= h else None


def _winds_once(f: ExpPoly, points, tol: float, rate: float) -> list[bool]:
    """Per point, whether the square of side tol about it winds exactly once, from one
    _windings call: it then holds one simple zero, within tol of the point."""
    h = tol / 2
    squares = [_box(z.real - h, z.real + h, z.imag - h, z.imag + h) for z in points]
    return [w == 1 for w in _windings(f, squares, rate, _chord_mid)] if squares else []


def _subdivide(f: ExpPoly, root: _Box, tol: float, rate: float) -> list[tuple[complex, int, float]]:
    """The clusters of the quadtree under root as (point, multiplicity, bound), in
    depth-first order, each within bound of its true zeros: a Newton exit within tol,
    the point _polish_cluster moves a box's centre to within the box's half-diagonal
    plus the distance moved.

    The tree grows level by level: one _walk of the cut lines of every box a level
    splits, one _winds_once of the squares of its Newton exits.  A box cut at its
    midpoints takes the halves of its sides from its own walk (_halves); a side whose
    middle point is not a sample of that walk, and every side of a sliding-cut retry,
    is walked afresh.  So every edge is walked once, and every winding number is a
    sum of certified increments.  A failed attempt is tried again at the next level.
    """
    found = []

    def cluster(box: _Box):
        x0, x1, y0, y1 = box[:4]
        c = complex((x0 + x1) / 2, (y0 + y1) / 2)
        z = _polish_cluster(f, c, box.count, tol)
        found.append((box.path, z, box.count, math.hypot(x1 - x0, y1 - y0) / 2 + abs(z - c)))

    boxes, retries = [root], []
    while boxes or retries:
        lines, jobs, splits, exits = [], [], retries, []
        for box in boxes:
            x0, x1, y0, y1, count, path, _ = box
            if count == 0:
                continue
            w, h = x1 - x0, y1 - y0
            center = complex((x0 + x1) / 2, (y0 + y1) / 2)
            if max(w, h) <= tol or len(path) > 64:
                cluster(box)
                continue
            if count == 1:
                z = _newton_exit(f, x0, x1, y0, y1, tol)
                if z is not None:
                    exits.append((box, z))
                    continue
            if count >= 2 and max(w, h) <= 3e-8 * (1 + abs(center)):
                # below sqrt(eps) a multiple zero cannot be told from a tight pair in
                # double precision; a "successful" split here is sampling luck
                cluster(box)
                continue
            splits.append((box, 0))
        for box, attempt in splits:
            quads, halves, new = _cut(box, attempt)
            lines += new
            jobs.append((box, attempt, quads, halves, len(new)))
        walked = iter(_edges(f, lines, rate) if lines else ())
        boxes, retries = [], []
        for (box, z), once in zip(exits, _winds_once(f, [z for _, z in exits], tol, rate)):
            if once:
                found.append((box.path, z, 1, tol))
            else:
                retries.append((box, 0))
        for box, attempt, quads, halves, n in jobs:     # a cut: n lines of two edges each
            cuts = [(next(walked), next(walked)) for _ in range(n)]
            vert, horiz = cuts[0], cuts[1]
            fresh = iter(cuts[2:])
            bottom, right, top, left = (h if h is not None else next(fresh) for h in halves)
            kids = [(bottom[0], vert[0], horiz[0], left[0]), (bottom[1], right[0], horiz[1], vert[0]),
                    (horiz[0], vert[1], top[0], left[1]), (horiz[1], right[1], top[1], vert[1])]
            winds = [_turns(sides) for sides in kids]
            if None not in winds and sum(winds) == box.count:
                boxes += [_Box(*qd, wq, box.path + (i,), sides)
                          for i, (qd, wq, sides) in enumerate(zip(quads, winds, kids))]
                continue
            if attempt < 9:
                # a zero on a cut line breaks the walk there; slide the cut until clean
                retries.append((box, attempt + 1))
                continue
            # double-precision cancellation floor: the phase of f is noise within
            # about (1024 eps)^(1/k) of a k-fold zero; keep the cluster with its count
            x0, x1, y0, y1 = box[:4]
            center = complex((x0 + x1) / 2, (y0 + y1) / 2)
            if max(x1 - x0, y1 - y0) > max(1e-5, 10 * 2.0 ** (-42 / box.count)) * (1 + abs(center)):
                raise ContourThroughZero(f"cannot separate {box.count} zeros in box {box[:4]}")
            cluster(box)
    found.sort(key=lambda leaf: leaf[0])
    return [leaf[1:] for leaf in found]


def _polish_cluster(f: ExpPoly, z: complex, mult: int, box_tol: float) -> complex:
    """Multiplicity-aware Newton (_newton) from a cluster's centre: the iterate of
    least |f| within reach of it, past which the iteration is noise-driven."""
    escape = max(4 * box_tol, 1e-4 * (1 + abs(z)))
    return _newton(f, z, mult, inside=lambda x: abs(x - z) <= escape)[0]


def _reach(r: float) -> float:
    """The radius out to which every path locates zeros: past every circle of _counted."""
    return r + 1.2e-6 * max(r, 1.0)


def _counted(located, r: float) -> Divisor:
    """The divisor in |z| <= r from every zero out to _reach(r) as (point, multiplicity,
    error), each point within its error of the zero: the zeros inside the circle r, or
    else inside the first of radius r + 1e-12 10^k max(r, 1), k = 0, ..., 6, that passes
    farther than its error from each point, which sets boundary_nudged."""
    for s in [0.0] + [1e-12 * 10 ** k * max(r, 1.0) for k in range(7)]:
        if all(abs(abs(z) - (r + s)) > err for z, _, err in located):
            return Divisor(points=tuple((z, m) for z, m, _ in located if abs(z) <= r + s),
                           r=r, boundary_nudged=s > 0)
    raise ContourThroughZero(f"no circle from |z| = {r} to {r + s} passes clear of the zeros")


def _inclusion_radii(g: ZPoly, xs: list[complex]) -> Optional[list[float]]:
    """Radii rho_k, rounded up, with one root of the squarefree g in each disk
    |w - x_k| <= rho_k, or None: rho = deg g |g(x)/g'(x)|, exact at x as a GaussRat,
    reaches a root, as |g'/g| <= deg g / (distance to the nearest root), disjoint
    disks hold one each, and an x that is a root, 0 included, has rho = 0; any other
    needs rho < |x|/2, checked exactly first, which keeps 0 out and rho finite."""
    dg, radii = g.derivative(), []
    for x in xs:
        w = _lift(x)
        if w is None or not (den := dg(w)):
            return None
        q = g(w) / den                  # 0 at an exact root, which skips both tests
        if q and (2 * g.degree * w.d) ** 2 * (q.a ** 2 + q.b ** 2) >= (w.a ** 2 + w.b ** 2) * q.d ** 2:
            return None
        rho = g.degree * math.hypot(Fraction(q.a, q.d), Fraction(q.b, q.d))
        rho = max(rho * (1 + 1e-14), 1e-300) if q else 0.0
        if q and not rho < abs(x) / 2:  # rounding up or the 1e-300 floor passed it
            return None
        radii.append(rho)
    pairs = itertools.combinations(zip(xs, radii), 2)
    return None if any(abs(a - b) * (1 - 1e-14) <= ra + rb for (a, ra), (b, rb) in pairs) else radii


def _certified_zeros(f: ExpPoly, r: float) -> Optional[Divisor]:
    """The divisor in |z| <= r of a polynomial f, or of f = e^{c0 z} P(e^{gamma z}),
    P(0) != 0, constant coefficients, frequency differences of lattice rank <= 1
    (`exponent_polys`), or None.  Yun's decomposition gives exact multiplicities,
    np.roots and Newton a root x of each squarefree factor g, and `_inclusion_radii`
    a disk of radius rho about x holding a root of g: a polynomial's zero x is within
    delta = rho of the true one, f's zeros (Log x + 2 pi i m)/gamma within delta =
    -log(1 - rho/|x|)/|gamma|, plus rounding, and a zero that may lie in _reach(r) must
    not pass the quadtree's tol = 1e-10 max(r, 1); _counted takes them within tol."""
    if f.is_polynomial():
        poly, gamma = f.polynomial_part(), None
    else:
        c0 = next(iter(f.terms))
        found = exponent_polys([ExpPoly({c - c0: p for c, p in f.terms.items()})])
        # exact certificates cost about 1.3 us deg^3: past 16, more than a sparse P's quadtree
        if found is None or found[1][0].degree > 16:
            return None
        basis, (poly,) = found
        gamma = complex(basis[0]) if basis else 1.0     # no basis: P is constant
    tol, reach, located = 1e-10 * max(r, 1.0), _reach(r), []
    for g, mult in yun_squarefree(poly):
        xs, dg, h = [], g.derivative(), ExpPoly.poly(g)
        try:
            for x in np.roots(h.float_image[0][1]).tolist():
                x, step = _newton(h, x)
                # float Newton stalled short of the last ulp: one exact step
                if step > math.ulp(max(1.0, abs(x))) and (w := _lift(x)) is not None and (den := dg(w)):
                    x = complex(w - g(w) / den)
                xs.append(x)
        except OverflowError:       # a coefficient of g, or the exact step, past the float range
            return None
        radii = _inclusion_radii(g, xs)
        if radii is None:
            return None
        for x, rho in zip(xs, radii):
            delta = rho if gamma is None else -math.log1p(-rho / abs(x)) / abs(gamma)
            delta = delta * (1 + 1e-14) + 16 * math.ulp(r + 1)
            if gamma is None:
                zs = [x]
            else:
                # |log + 2 pi i m| <= |gamma| (reach + delta), quadratic in m
                log, bound = cmath.log(x), abs(gamma) * (reach + delta)
                mid = -log.imag / (2 * math.pi)
                span = math.sqrt(max(bound * bound - log.real * log.real, 0.0)) / (2 * math.pi)
                zs = [(log + 2j * math.pi * m) / gamma
                      for m in range(math.floor(mid - span) - 1, math.floor(mid + span) + 2)]
            near = [(z, mult, tol) for z in zs if abs(z) - delta <= reach]
            if near and not delta <= tol:
                return None
            located += near
    return _counted(located, r)


def _merged(z: np.ndarray, cell: float) -> list:
    """The first point of z in each square of side cell: seeds that agree run Newton once."""
    seen: dict = {}
    return [seen.setdefault(k, x) for k, x in zip(np.round(z / cell).tolist(), z.tolist())
            if k not in seen]


def _seeds(f: ExpPoly, r: float) -> list:
    """Newton starts toward the zeros in |z| <= r of a two-term f = p e^{alpha z} +
    q e^{beta z}, or [] for any other f.  Its zeros solve e^{gamma z} = -p/q, gamma =
    beta - alpha, one on each branch (Log(-p/q) + 2 pi i m)/gamma far out.  The seeds
    are the roots of p and q, and the points that three steps z <- z + (Log(-p/q) -
    gamma z + 2 pi i k)/gamma, k the nearest branch, reach from 2 pi i (m +- 1/4)/gamma
    on each branch m that reaches the disk and from circles out to the root bound of p
    and q, merged (_merged)."""
    if len(f.terms) != 2:
        return []
    (alpha, p), (beta, q) = f.terms.items()
    gamma = complex(beta - alpha)
    polys = [ExpPoly.poly(g) for g in (p, q)]
    bound = max((1 + max(map(abs, cs[1:])) / abs(cs[0]) for cs in
                 (g.float_image[0][1] for g in polys) if len(cs) > 1 and cs[0]), default=1.0)
    if not math.isfinite(bound):
        return []
    seeds = [z for g in (p, q) for z, _ in zpoly_zeros(g, bound).points]
    top = math.ceil(r * abs(gamma) / (2 * math.pi)) + 1
    branch = 2j * np.pi * np.arange(-top, top + 1)
    rings = bound * np.outer(2.0 ** -np.arange(4), np.exp(2j * np.pi * np.arange(8) / 8)).ravel()
    z = np.concatenate(((branch + 0.5j * np.pi) / gamma, (branch - 0.5j * np.pi) / gamma, rings))
    with np.errstate(all="ignore"):
        for _ in range(3):
            d = np.log(-polys[0].scaled(z)[1] / polys[1].scaled(z)[1]) - gamma * z
            z = z + (d - 2j * np.pi * np.round(d.imag / (2 * np.pi))) / gamma
    return seeds + _merged(z[np.isfinite(z)], 2e-6 * max(r, 1.0))


def exppoly_zeros(f: ExpPoly, r: float) -> Divisor:
    """Divisor of an exponential polynomial in |z| <= r: certified roots for a
    polynomial or a one-frequency f (`_certified_zeros`), otherwise the quadtree
    (`_quadtree_zeros`), which first tries the Newton limits of a two-term f's seeds
    (`_seeds`) when the disk holds a zero."""
    if f.is_zero():
        raise ValueError("zero function has no divisor")
    div = _certified_zeros(f, r)
    return div if div is not None else _quadtree_zeros(f, r, _seeds)


def _quadtree_zeros(f: ExpPoly, r: float, seeds=None) -> Divisor:
    """The disk winding number of the reach circle (_reach) is the total count.  When
    it is nonzero and a seed function is given, seeds(f, r) are built, and their
    settled, distinct Newton limits (_newton) answer when each one's square
    of side tol = 1e-10 max(r, 1) lies inside the reach circle and winds once
    (_winds_once), and their number is the count; otherwise quadtree subdivision locates
    the zeros in a square about the disk (_subdivide), a simple zero within tol, a
    cluster within its bound, and the multiplicities located in the reach disk must add
    up to the count.  _counted takes the divisor."""
    tol, rate, reach = 1e-10 * max(r, 1.0), phase_rate_bound(f), _reach(r)
    total = disk_winding(f, reach)
    if total == 0:
        return Divisor(points=(), r=r)
    kept, h = [], tol / 2
    starts = seeds(f, r) if seeds else ()
    for x, step in sorted((_newton(f, x) for x in starts), key=lambda xs: (xs[0].real, xs[0].imag)):
        if step > h or abs(x) - h * math.sqrt(2) > reach or any(
                abs(x.real - y.real) <= tol and abs(x.imag - y.imag) <= tol for y in kept):
            continue            # not settled, out of reach, or a zero already kept
        kept.append(x)
    corners = [x + complex(sx, sy) * h for x in kept for sx in (-1, 1) for sy in (-1, 1)]
    if len(kept) == total and all(abs(c) < reach for c in corners) and all(
            _winds_once(f, kept, tol, rate)):
        return _counted([(x, 1, tol) for x in kept], r)
    # bounding square of the reach disk, stretched so edges miss zeros
    for attempt in range(6):
        pad = reach * (1 + 1e-6 * (1 + attempt) ** 2)
        sw, se, ne, nw = _box(-pad, pad, -pad, pad)
        sides = _edges(f, [[sw, se], [se, ne], [nw, ne], [sw, nw]], rate)
        count = _turns(sides)
        if count is None:
            continue
        try:
            found = _subdivide(f, _Box(-pad, pad, -pad, pad, count, (), tuple(sides)),
                               tol, rate)
            break
        except ContourThroughZero:
            continue
    else:
        raise ContourThroughZero("quadtree subdivision failed")
    located = [pt for pt in found if abs(pt[0]) <= reach]
    if (got := sum(m for _, m, _ in located)) != total:
        raise ContourThroughZero(f"located {got} zeros but the disk winding number is {total}")
    return _counted(located, r)
