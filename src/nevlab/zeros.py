"""Zero location in disks by two paths: certified roots for polynomials and
one-frequency exponential polynomials, and argument-principle subdivision for every
other exponential polynomial and wherever a certificate fails, which first tries the
Newton limits of seeds.  On both, one float Newton iteration (_newton) proposes points
and a certificate decides.  Newton runs over an array of starts, one evaluation per
step over the starts still running, and every caller passes its batch: the roots of a
squarefree factor, the seeds, the count-1 boxes of a quadtree level.

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
1e-10 max(r, 1) when each one is certified by one inequality at its point
(_one_zero_disks: by Rouche, against f'(x)(w - x), the disk of radius half that about
it holds exactly one simple zero), the disks lie inside the reach circle, and they
add up to the count.  Otherwise a quadtree of boxes, each counted by the certified
phase increments along its sides (_walk, _subdivide), isolates the zeros, a box of
count 1 ending in a Newton exit that the same inequality certifies; the
multiplicities located in the reach disk must add up to the count, or the radius is
refused.  A simple zero is placed within 1e-10 max(r, 1), a cluster of multiplicity
>= 2 within its exit box's half-diagonal plus the distance its polish moved it.
Every value is read as f e^{-M} from ExpPoly.scaled, the one float evaluator, so no
radius overflows, after f is divided by a power of two that brings its coefficients
into the float range (_in_float_range).

The contour walk (_walk) accepts a segment [a, b] by one inequality, that of
ExpPoly.taylor_majorant, which puts no zero in the disk |z - a| <= |b - a|, so a walked
side splits anywhere with no new test.  A rejected segment is cut into as many equal
pieces as the largest step that the same majorant accepts at a asks for, all in one
level.  It uses numpy core only: no set routine, whose np.unique loads numpy.ma.

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
from .fields import (GaussRat, InputError, NumericalFailure, RatFunc, ZPoly, squared_modulus,
                     zpoly_gcd)

class ContourThroughZero(NumericalFailure):
    """The argument-principle computation broke down: a contour walk hit a
    (near-)zero of the function, or the located zeros do not add up to the
    winding count."""


@dataclass(frozen=True)
class Divisor:
    """Zeros with multiplicities inside |z| <= r, each within 1e-10 max(r, 1) of a true
    one by a certified disk (an inclusion disk of a root, or a Rouche disk about a
    Newton limit, _one_zero_disks), a quadtree cluster of multiplicity >= 2 within its
    bound from _subdivide; boundary_nudged when a zero within that error of the circle
    moved it (_counted), by 1e-6 max(r, 1) at most."""

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


def _newton(f: ExpPoly, starts, mult: int = 1, inside=None) -> tuple[np.ndarray, np.ndarray]:
    """Newton's iteration x <- x - mult f/f' from an array of starts at once: each step
    reads f and f' at every start still running from one f.scaled call.  A start ends
    by f = 0 or f' = 0, by an iterate outside `inside` (which maps the array of every
    start's iterate to a mask), or by a stall: a step within an ulp of max(1, |x|), or
    one below 1e-8 max(1, |x|) no shorter than the last (the gate spares a global step
    that grows); 64 steps bound a cycle.  Returns per start the iterate of least |f|, as
    M + log|f e^{-M}| with |f e^{-M}| breaking ties, and the last step's length.  The
    evaluation is elementwise and the rules run per start, so a start ends where it
    ends alone."""
    x = np.array(starts, dtype=complex).tolist()
    best, last, keys = list(x), [math.inf] * len(x), [(math.inf,)] * len(x)
    run = range(len(x))
    for _ in range(64):
        if inside is not None:
            ok = inside(np.array(x, dtype=complex)).tolist()
            run = [k for k in run if ok[k]]
        if not run:
            break
        # numpy multiplies a one-element array in place without FMA, unlike any
        # longer one: a lone start is evaluated twice over, as in a batch
        pts = np.array([x[k] for k in run] * (1 + (len(run) == 1)))
        values = zip(run, *(v.tolist() if isinstance(v, np.ndarray) else [v] * len(pts)
                            for v in f.scaled(pts, derivative=True, floor=False)))
        run = []
        for k, m, fk, dk in values:
            xk, mag = x[k], abs(fk)
            if mag == 0:
                best[k], last[k] = xk, 0.0
                continue
            key = (m + math.log(mag), mag)
            if key < keys[k]:
                best[k], keys[k] = xk, key
            if dk == 0:
                continue
            step = mult * fk / dk
            size, scale = abs(step), max(1.0, abs(xk))
            if last[k] <= size < 1e-8 * scale:
                continue
            last[k] = size
            if size <= math.ulp(scale):
                continue
            x[k] = xk - step
            run.append(k)
    return np.array(best, dtype=complex), np.array(last)


def _lift(x: complex) -> Optional[GaussRat]:
    """A finite float point as the exact GaussRat it is, or None."""
    return GaussRat(Fraction(x.real), Fraction(x.imag)) if cmath.isfinite(x) else None


def zpoly_zeros(p: ZPoly, r: float) -> Divisor:
    return exppoly_zeros(ExpPoly.poly(p), r)


def ratfunc_divisors(f: RatFunc, r: float) -> tuple[Divisor, Divisor]:
    """(zeros, poles) of a reduced rational function in |z| <= r."""
    if f.num.is_zero():
        raise InputError("the zero function has no divisor")
    return zpoly_zeros(f.num, r), zpoly_zeros(f.den, r)


def _walk(f: ExpPoly, lines, at):
    """The certified walk of polylines, each given by its vertices, with values from
    f.scaled: (z, v, first, failed), where z[first[e]:first[e + 1]] are the points of
    edge e (consecutive vertices), edge after edge and line after line, from its first
    vertex to its last, v their values f e^{-M}, and failed[e] is set where the walk of
    edge e broke down, its run then empty.  One edge's failure leaves the others
    standing.

    Each pair of consecutive points of a run bounds a segment [a, b] accepted by one
    inequality, ExpPoly.taylor_majorant's on the disk |z - a| <= |b - a|: f has no zero
    on that disk, so arg f changes along the segment, or along any path in the disk,
    by the principal angle of v(b)/v(a).  An arc of less than a half turn from a to b
    lies in the disk too, so the points at(a, b, t) of a segment, t in (0, 1), may
    follow a circle.  An edge is first tested whole.  A rejected segment is cut, in the
    same level, by the inequality's own step: with S2 frozen at h = |b - a|, which
    bounds it for every shorter step, S2 s^2 + 2 (|F'| + E) s < room = |F| / (1 + 2^-30)
    - floor is a quadratic whose root is the largest step s accepted at a, and [a, b]
    is cut at t = j / k into k = floor(h / s) + 1 equal pieces, 2 <= k <= 16, each then
    accepted or cut in turn.  Each new point is evaluated once, one f.scaled call per
    level over every edge.  An edge fails at a point whose |f| is at or below the noise
    floor, at a rejected segment whose room leaves no step, where its points' positions
    stop increasing, and at a segment still rejected after 56 cuts.
    """
    def evaluate(zs):
        """(M, f e^{-M}, f' e^{-M}, floor e^{-M}) at the array zs, each as an array."""
        values = f.scaled(zs, derivative=True)
        bad = ~np.isfinite(values[1])
        if np.any(bad):
            raise OverflowError(f"f e^-M is not finite on contour near {zs[np.argmax(bad)]}")
        return [x if isinstance(x, np.ndarray) else np.full(zs.shape, x) for x in values]

    verts = [np.asarray(v, dtype=complex) for v in lines]
    pts = np.concatenate(verts)
    shift, fz, dfz, floor = evaluate(pts)
    low = np.abs(fz) <= floor
    ends = np.cumsum([len(v) for v in verts]) - 1
    start = np.delete(np.arange(len(pts)), ends)    # each edge's first vertex
    n = len(start)
    failed = low[start] | low[start + 1]
    # per segment: edge, a's position along the edge (0 to 1), a, M, F, F' and floor at
    # a, then b and its position
    seg = (np.arange(n), np.zeros(n), pts[start], shift[start], fz[start], dfz[start],
           floor[start], pts[start + 1], np.ones(n))
    # the accepted segments' starts as (edge, position, point, value); each edge's
    # last vertex closes its run
    kept = [(np.arange(n), np.ones(n), pts[start + 1], fz[start + 1])]
    for level in range(57):
        live = ~failed[seg[0]]
        if not live.all():
            seg = [x[live] for x in seg]
        edge, pos, a, sa, fa, da, na, b, pb = seg
        h = np.abs(b - a)
        s2, e1 = f.taylor_majorant(a, h, sa)
        slope, room = 2 * (np.abs(da) + e1), np.abs(fa) / (1 + 2 ** -30) - na
        with np.errstate(all="ignore"):     # a bound past the float range fails
            ok = (slope * h + s2 * h * h + na) * (1 + 2 ** -30) < np.abs(fa)
            # h / s for the step s that solves the quadratic, s = 0 for an infinite S2
            ratio = h * (slope + np.sqrt(slope * slope + 4 * s2 * room)) / (2 * room)
        kept.append((edge[ok], pos[ok], a[ok], fa[ok]))
        if ok.all():
            break
        rest = ~ok
        edge, pos, a, sa, fa, da, na, b, pb, room, ratio = (
            x[rest] for x in (*seg, room, ratio))
        failed[edge[~(room > 0)]] = True        # |F| is within the floor: no step
        if level == 56:
            failed[edge] = True
            break
        k = np.maximum(np.where(ratio < 16, np.floor(ratio) + 1, 16), 2).astype(np.int64)
        # the new points t = j / k, j = 1 .. k - 1, of each cut segment, in order
        m = k - 1
        off = np.cumsum(m) - m                  # each segment's first new point
        group = np.repeat(np.arange(len(k)), m)
        t = (np.arange(len(group)) - off[group] + 1) / k[group]
        z = at(a[group], b[group], t)
        p = pos[group] + (pb[group] - pos[group]) * t
        sm, fm, dm, nm = evaluate(z)
        failed[edge[group][np.abs(fm) <= nm]] = True
        # a piece from a to the first new point, and one from each new point to the
        # next, or to b after the last
        nxt = np.arange(1, len(group) + 1)
        nxt[off + m - 1] = len(group) + np.arange(len(k))
        seg = [np.concatenate(x) for x in (
            (edge, edge[group]), (pos, p), (a, z), (sa, sm), (fa, fm), (da, dm), (na, nm),
            (z[off], np.concatenate((z, b))[nxt]), (p[off], np.concatenate((p, pb))[nxt]))]
        failed[seg[0][~(seg[1] < seg[8])]] = True   # positions order each run
    edge, pos, z, v = (np.concatenate(x) for x in zip(*kept))
    order = np.lexsort((pos, edge))
    order = order[~failed[edge[order]]]
    return z[order], v[order], np.searchsorted(edge[order], np.arange(n + 1)), failed


def _whole_turns(increment: float) -> Optional[int]:
    """The winding number that a closed contour's phase increment makes, or
    None when it is not close to a whole number of turns."""
    w = increment / (2 * math.pi)
    return round(w) if abs(w - round(w)) <= 0.25 else None


def disk_winding(f: ExpPoly, r: float) -> int:
    """Zero count (with multiplicity) of f in |z| < r by the argument principle, from a
    walk of the circle that starts from its four quarter arcs."""
    def arc_at(a, b, t):
        return r * np.exp(1j * (np.angle(a) + t * np.angle(b / a)))

    _, v, _, failed = _walk(f, [r * np.array([1, 1j, -1, -1j, 1])], arc_at)
    w = None if failed.any() else _whole_turns(np.angle(v[1:] / v[:-1]).sum())
    if w is None:
        raise ContourThroughZero(f"the walk of the circle |z| = {r} broke down")
    return w


class _Box(NamedTuple):
    """A quadtree box with its zero count, its path from the root (child
    indices in the order SW, SE, NW, NE) and its sides (bottom, right, top,
    left, each directed toward increasing x or y), each walked side as the
    points of its run in _walk, their values and the change of arg f along it."""

    x0: float
    x1: float
    y0: float
    y1: float
    count: int
    path: tuple
    sides: tuple


def _edges(f: ExpPoly, lines) -> list[Optional[tuple]]:
    """Per edge of the polylines, its points, their values and the change of arg f
    along it from one chord-refined _walk, or None where the walk of that edge failed."""
    z, v, first, failed = _walk(f, lines, lambda a, b, t: a + (b - a) * t)
    edge = np.repeat(np.arange(len(failed)), np.diff(first))
    inner = edge[1:] == edge[:-1]
    turns = np.bincount(edge[1:][inner], np.angle(v[1:][inner] / v[:-1][inner]), len(failed))
    first = first.tolist()
    return [None if x else (z[i:j], v[i:j], t)
            for i, j, x, t in zip(first, first[1:], failed.tolist(), turns.tolist())]


def _walked_sides(f: ExpPoly, boxes) -> list[list]:
    """Per box (x0, x1, y0, y1), its sides bottom, right, top, left, each directed toward
    increasing x or y, as _edges gives them, from one walk over every box."""
    lines = []
    for x0, x1, y0, y1 in boxes:
        sw, se, ne, nw = complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)
        lines += [[sw, se], [se, ne], [nw, ne], [sw, nw]]
    sides = _edges(f, lines) if lines else []
    return [sides[k:k + 4] for k in range(0, len(sides), 4)]


def _turns(sides) -> Optional[int]:
    """A box's winding number from the changes of arg f along its walked sides."""
    if any(s is None for s in sides):
        return None
    bottom, right, top, left = (turn for _, _, turn in sides)
    return _whole_turns(bottom + right - top - left)


def _split(side, z: complex, v: complex, horizontal: bool):
    """A walked side's two parts at its point z of value v.  z lies on one of the
    side's accepted segments, and so within its certified disk: each part's
    segments are certified as they stand, with no new test, and the change of arg f
    along the second part is the side's less the first part's."""
    zs, vs, turn = side
    coord, t = (zs.real, z.real) if horizontal else (zs.imag, z.imag)
    i, j = np.searchsorted(coord, t, "left"), np.searchsorted(coord, t, "right")
    head = np.concatenate((vs[:i], [v]))
    head_turn = np.angle(head[1:] / head[:-1]).sum()
    return ((np.concatenate((zs[:i], [z])), head, head_turn),
            (np.concatenate(([z], zs[j:])), np.concatenate(([v], vs[j:])), turn - head_turn))


def _cut(box: _Box, attempt: int):
    """One attempt at cutting a box: its quadrants and the two cut lines to walk, each
    of three vertices, the vertical then the horizontal one."""
    x0, x1, y0, y1 = box.x0, box.x1, box.y0, box.y1
    frac = 0.5 + 0.0371 * attempt
    xm = x0 + (x1 - x0) * frac
    ym = y0 + (y1 - y0) * frac
    quads = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
    lines = [[complex(xm, y0), complex(xm, ym), complex(xm, y1)],
             [complex(x0, ym), complex(xm, ym), complex(x1, ym)]]
    return quads, lines


def _kids(sides, vert, horiz):
    """The sides of a box's quadrants SW, SE, NW, NE from its walked sides and the two
    halves of each walked cut line: each side is split where a cut line meets it, at
    the cut line's end point and value."""
    bottom, right, top, left = sides
    (down, up), (west, east) = vert, horiz
    bottom = _split(bottom, down[0][0], down[1][0], True)
    top = _split(top, up[0][-1], up[1][-1], True)
    left = _split(left, west[0][0], west[1][0], False)
    right = _split(right, east[0][-1], east[1][-1], False)
    return [(bottom[0], down, west, left[0]), (bottom[1], right[0], east, down),
            (west, up, top[0], left[1]), (east, right[1], top[1], up)]


def _newton_exits(f: ExpPoly, boxes: list, tol: float) -> list[Optional[complex]]:
    """Per box of winding count 1, its candidate simple zero or None, from one _newton
    over the boxes' centres: each start's iterates kept where the square of side tol
    about them lies in its own box, and its last step within that square.  The disk
    inscribed in the square is to pass _one_zero_disks: it then holds the box's one
    zero, so the point is within tol of it, as a quadtree leaf's centre would be."""
    if not boxes:
        return []
    h = tol / 2
    x0, x1, y0, y1 = (np.array(side) for side in zip(*(box[:4] for box in boxes)))
    lo_x, hi_x, lo_y, hi_y = x0 + h, x1 - h, y0 + h, y1 - h
    centres = [complex((box.x0 + box.x1) / 2, (box.y0 + box.y1) / 2) for box in boxes]
    x, step = _newton(f, centres, inside=lambda z: (lo_x <= z.real) & (z.real <= hi_x)
                      & (lo_y <= z.imag) & (z.imag <= hi_y))
    return [z if s <= h else None for z, s in zip(x.tolist(), step.tolist())]


def _one_zero_disks(f: ExpPoly, points, tol: float) -> list[bool]:
    """Per point x, whether the disk |w - x| <= rho = tol / 2, inscribed in the square of
    side tol about x, holds exactly one zero of f, a simple one, from one inequality at
    x, all points in one f.scaled and one ExpPoly.taylor_majorant call.  With (M, F, F',
    floor) = f.scaled(x, derivative=True) and (S2, E) = f.taylor_majorant(x, rho, M),

        (|F| + floor + S2 rho^2 / 2 + E rho) (1 + 2^-30) < |F'| rho

    proves it: on the circle |w - x| = rho, Taylor's theorem puts f(w) e^{-M} within
    |f(x)| e^{-M} + S2 rho^2 / 2 <= |F| + floor + S2 rho^2 / 2 of f'(x) e^{-M} (w - x),
    whose modulus is at least (|F'| - E) rho, so by Rouche f has as many zeros in the
    disk as f'(x)(w - x): one.  The factor covers the rounding of the left side, as in
    ExpPoly.taylor_majorant, and that of the right side, |F'| and its product with rho,
    an ulp or two.  A value past the float range is inf or nan: it fails, with no
    warning."""
    if not points:
        return []
    rho = tol / 2
    x = np.array(points, dtype=complex)
    with np.errstate(all="ignore"):
        shift, fx, dfx, floor = f.scaled(x, derivative=True)
        s2, e1 = f.taylor_majorant(x, rho, shift)
        ok = ((np.abs(fx) + floor + s2 * rho * rho / 2 + e1 * rho) * (1 + 2 ** -30)
              < np.abs(dfx) * rho)
    return np.broadcast_to(ok, x.shape).tolist()


def _subdivide(f: ExpPoly, root: _Box, tol: float) -> list[tuple[complex, int, float]]:
    """The clusters of the quadtree under root as (point, multiplicity, bound), in
    depth-first order, each within bound of its true zeros: a Newton exit within tol,
    the point _polish_cluster moves a box's centre to within the box's half-diagonal
    plus the distance moved.

    The tree grows level by level: one _walk of the cut lines of every box a level
    splits, one _one_zero_disks of its Newton exits.  A cut, at the
    midpoints or slid off them on a retry, walks only its two cut lines: each side of
    the box is split where a cut line meets it (_kids), at that line's end point and
    value, and its parts keep their certified segments.  So every edge is walked once,
    and every winding number is a sum of certified increments.  A failed attempt is
    tried again at the next level.
    """
    found = []

    def cluster(box: _Box):
        x0, x1, y0, y1 = box[:4]
        c = complex((x0 + x1) / 2, (y0 + y1) / 2)
        z = _polish_cluster(f, c, box.count, tol)
        found.append((box.path, z, box.count, math.hypot(x1 - x0, y1 - y0) / 2 + abs(z - c)))

    boxes, retries = [root], []
    while boxes or retries:
        lines, jobs, splits, exits, todo = [], [], retries, [], []
        for box in boxes:
            x0, x1, y0, y1, count, path, _ = box
            if count == 0:
                continue
            w, h = x1 - x0, y1 - y0
            center = complex((x0 + x1) / 2, (y0 + y1) / 2)
            if max(w, h) <= tol or len(path) > 64:
                cluster(box)
            elif count >= 2 and max(w, h) <= 3e-8 * (1 + abs(center)):
                # below sqrt(eps) a multiple zero cannot be told from a tight pair in
                # double precision; a "successful" split here is sampling luck
                cluster(box)
            else:
                todo.append(box)
        # the level's boxes of count 1 try their Newton exits as one batch
        exit_at = iter(_newton_exits(f, [box for box in todo if box.count == 1], tol))
        for box in todo:
            z = next(exit_at) if box.count == 1 else None
            if z is None:
                splits.append((box, 0))
            else:
                exits.append((box, z))
        for box, attempt in splits:
            quads, cut_lines = _cut(box, attempt)
            lines += cut_lines
            jobs.append((box, attempt, quads))
        walked = iter(_edges(f, lines) if lines else ())
        boxes, retries = [], []
        for (box, z), once in zip(exits, _one_zero_disks(f, [z for _, z in exits], tol)):
            if once:
                found.append((box.path, z, 1, tol))
            else:
                retries.append((box, 0))
        for box, attempt, quads in jobs:     # a cut: two lines of two edges each
            vert, horiz = (next(walked), next(walked)), (next(walked), next(walked))
            kids = None if None in vert + horiz else _kids(box.sides, vert, horiz)
            winds = [None] if kids is None else [_turns(sides) for sides in kids]
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
    return complex(_newton(f, [z], mult, inside=lambda x: np.abs(x - z) <= escape)[0][0])


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
    a root x of each squarefree factor g (a linear g's exact root -g_0/g_1, rounded
    once; np.roots and Newton for any other), and `_inclusion_radii`
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
        try:
            if g.degree == 1:       # the exact root, rounded once
                xs = [complex(-g.coeffs[0] / g.coeffs[1])]
            else:
                xs, dg, h = [], g.derivative(), ExpPoly.poly(g)
                for x, step in zip(*(v.tolist() for v in _newton(h, np.roots(h.float_image[0][1])))):
                    # float Newton stalled short of the last ulp: one exact step
                    if step > math.ulp(max(1.0, abs(x))) and (w := _lift(x)) is not None and (den := dg(w)):
                        x = complex(w - g(w) / den)
                    xs.append(x)
        except OverflowError:       # a coefficient of g, its root or the exact step past the float range
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
    are the float roots of p and q (np.roots), and the points that three steps
    z <- z + (Log(-p/q) - gamma z + 2 pi i k)/gamma, k the nearest branch, reach from
    2 pi i (m +- 1/4)/gamma on each branch m that reaches the disk and from circles
    out to the root bound of p and q, merged (_merged)."""
    if len(f.terms) != 2:
        return []
    (alpha, p), (beta, q) = f.terms.items()
    gamma = complex(beta - alpha)
    polys = [ExpPoly.poly(g) for g in (p, q)]
    bound = max((1 + max(map(abs, cs[1:])) / abs(cs[0]) for cs in
                 (g.float_image[0][1] for g in polys) if len(cs) > 1 and cs[0]), default=1.0)
    if not math.isfinite(bound):
        return []
    # a seed needs no certificate: the count and _one_zero_disks decide its limit
    seeds = [z for g in polys for z in np.roots(g.float_image[0][1]).tolist()]
    top = math.ceil(r * abs(gamma) / (2 * math.pi)) + 1
    branch = 2j * np.pi * np.arange(-top, top + 1)
    rings = bound * np.outer(2.0 ** -np.arange(4), np.exp(2j * np.pi * np.arange(8) / 8)).ravel()
    z = np.concatenate(((branch + 0.5j * np.pi) / gamma, (branch - 0.5j * np.pi) / gamma, rings))
    with np.errstate(all="ignore"):
        for _ in range(3):
            d = np.log(-polys[0].scaled(z)[1] / polys[1].scaled(z)[1]) - gamma * z
            z = z + (d - 2j * np.pi * np.round(d.imag / (2 * np.pi))) / gamma
    return seeds + _merged(z[np.isfinite(z)], 2e-6 * max(r, 1.0))


def _binade(a: GaussRat) -> int:
    """floor(log2 |a|^2) of a nonzero a, exactly."""
    num, den, e = squared_modulus(a)
    return e - ((num << max(-e, 0)) < (den << max(e, 0)))


def _in_float_range(f: ExpPoly) -> ExpPoly:
    """f, or f / 2^k when some coefficient modulus lies outside 2^-256 .. 2^256: k,
    from the exact bit lengths, makes the largest at most 2^600 and keeps every one a
    normal float, so no factor e^{Re(cz) - M} < e^256 of ExpPoly.scaled overflows a term
    and no coefficient underflows.  The division is exact and keeps the zeros.
    OverflowError when the moduli span more binades than that window holds."""
    binades = [_binade(a) for p in f.terms.values() for a in p.coeffs if a]
    if all(-512 <= e < 512 for e in binades):
        return f
    lo, hi = min(binades), max(binades)
    k = (hi + 2) // 2 - 600                 # |a| < 2^((e + 1) / 2) <= 2^((e + 2) // 2)
    if lo // 2 - k < -1022:                 # |a| >= 2^(e // 2)
        raise OverflowError(f"coefficient moduli span 2^{lo // 2} to 2^{(hi + 2) // 2}, more "
                            "binades than the float window 2^-1022 to 2^600 holds")
    return f * (GaussRat(Fraction(1, 2 ** k)) if k > 0 else 2 ** -k)


def exppoly_zeros(f: ExpPoly, r: float) -> Divisor:
    """Divisor of an exponential polynomial in |z| <= r: certified roots for a
    polynomial or a one-frequency f (`_certified_zeros`), otherwise the quadtree
    (`_quadtree_zeros`), which first tries the Newton limits of a two-term f's seeds
    (`_seeds`) when the disk holds a zero; f is first divided by a power of two that
    brings its coefficients into the float range (`_in_float_range`)."""
    if f.is_zero():
        raise InputError("the zero function has no divisor")
    f = _in_float_range(f)
    div = _certified_zeros(f, r)
    return div if div is not None else _quadtree_zeros(f, r, _seeds)


def _quadtree_zeros(f: ExpPoly, r: float, seeds=None) -> Divisor:
    """The disk winding number of the reach circle (_reach) is the total count.  When
    it is nonzero and a seed function is given, seeds(f, r) are built, and their
    settled, distinct Newton limits (_newton) answer when each one's disk of radius
    tol / 2, tol = 1e-10 max(r, 1), lies inside the reach circle and holds one simple
    zero by the point certificate (_one_zero_disks), and their number is the count;
    otherwise quadtree subdivision locates the zeros in a square about the disk
    (_subdivide), a simple zero within tol, a cluster within its bound, and the
    multiplicities located in the reach disk must add up to the count.  _counted takes
    the divisor."""
    tol, reach = 1e-10 * max(r, 1.0), _reach(r)
    total = disk_winding(f, reach)
    if total == 0:
        return Divisor(points=(), r=r)
    kept, h = [], tol / 2
    limits = zip(*(v.tolist() for v in _newton(f, seeds(f, r) if seeds else [])))
    for x, step in sorted(limits, key=lambda xs: (xs[0].real, xs[0].imag)):
        # kept limits differ by more than tol in a coordinate: their disks are disjoint;
        # kept ascends in real part, so only its tail within tol of x.real can be near x
        if step > h or abs(x) - h > reach or any(
                abs(x.imag - y.imag) <= tol
                for y in itertools.takewhile(lambda y: x.real - y.real <= tol, reversed(kept))):
            continue            # not settled, out of reach, or a zero already kept
        kept.append(x)
    if len(kept) == total and all(abs(x) + tol < reach for x in kept) and all(
            _one_zero_disks(f, kept, tol)):
        return _counted([(x, 1, tol) for x in kept], r)
    # bounding square of the reach disk, stretched so edges miss zeros
    for attempt in range(6):
        pad = reach * (1 + 1e-6 * (1 + attempt) ** 2)
        sides = _walked_sides(f, [(-pad, pad, -pad, pad)])[0]
        count = _turns(sides)
        if count is None:
            continue
        try:
            found = _subdivide(f, _Box(-pad, pad, -pad, pad, count, (), tuple(sides)), tol)
            break
        except ContourThroughZero:
            continue
    else:
        raise ContourThroughZero("quadtree subdivision failed")
    located = [pt for pt in found if abs(pt[0]) <= reach]
    if (got := sum(m for _, m, _ in located)) != total:
        raise ContourThroughZero(f"located {got} zeros but the disk winding number is {total}")
    return _counted(located, r)
