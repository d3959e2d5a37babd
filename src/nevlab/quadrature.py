"""Adaptive circle averages: (1/2pi) integral of fn(r e^{i theta}) d theta.

fn maps a numpy array of points to one row of values, shape (N,), or to a
stack of rows, shape (K, N); the integrand is the maximum over the rows.
Each row is meant to be smooth on the circle, so the integrand is smooth
except for kinks at the angles where the maximizing row changes.

Equally spaced trapezoid sums come first, doubled until two consecutive
refinements agree to the target, with Richardson extrapolation when the
observed convergence order is stable.  While one row is the maximum at
every point of every grid, as it always is for a single row, the integrand
is treated as smooth: periodic trapezoid sums converge spectrally on it,
and log|.| singularities from zeros near the circle drop them to low
algebraic order, which the extrapolation handles.

A kink is different: a trapezoid sum sees it only through the grid, and one
that falls between grid points leaves the sums converging to a wrong value.
So as soon as a trapezoid level shows two maximizing rows, the circle is split.
Every change of the maximizing row between neighbouring points of that level is
bracketed by bisection on the row index, four halvings per step (15 inner
points) and all breakpoints stepping at once as one array, then placed by one
secant step on the difference of the two rows.  Each arc between breakpoints
is then smooth and is integrated by 16- and 32-node Gauss-Legendre; an arc
whose two rules disagree by more than its share of the target is halved and
retried, which also resolves a dominance interval the grid missed.

The reported error is the last trapezoid correction, or the summed
disagreement of the two rules over the arcs, each arc's at least a rounding
bound of its values and its sums, which the two rules share and so cancel in
their disagreement.  Non-convergence at the sample cap is flagged rather than
raised so a caller can decide.

circle_averages is the one entry point, and a radius grid is one pass whose
working set does not grow with the grid: each trapezoid level goes to fn in groups
of open circles of at most GROUP_POINTS points, a wider level on one circle in
pieces, and each circle's level row is summed whole.  No level is kept: a split
circle's brackets lie between its split level's own points, at the angles
2pi (k + offset) / width, unless an earlier point lies between two that its row leads
neither of; then the circle reads its earlier points again and brackets both levels.
The circles that split on one level step their brackets, then their arcs, together, in
batches of at most GROUP_POINTS Gauss-Legendre nodes; the stop rules stay per circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2 * math.pi

SAMPLE_CAP = 1 << 20
# the most points in one call of fn: a group of circles' trapezoid levels, or of
# brackets, or of arcs; a wider level goes in pieces of a quarter turn or less
GROUP_POINTS = 1 << 13

# the first trapezoid grid, a multiple of 4 for the quarter-turn batches
FIRST_GRID = 64
# the first quarter turn of each level up to GROUP_POINTS points, built once for every
# circle: the first grid's, then each grid's midpoints
_TURNS = {(w, o): np.exp(1j * (TWO_PI * (np.arange(w // 4) + o) / w))
          for w, o in ((FIRST_GRID, 0.0), *((FIRST_GRID << k, 0.5) for k in range(8)))}

# breakpoint brackets are narrowed to this width in radians before the secant
# step, whose error is then about the square of it
BRACKET_WIDTH = 2.0 ** -14
_CUTS = np.arange(1, 16) / 16          # a bracket's inner points, in its length

# the 16- and 32-node Gauss-Legendre rules on [-1, 1], the nodes in (0, 1) and their
# weights, as numpy.polynomial.legendre.leggauss gives them (which is symmetric
# bit for bit); written out so that splitting a circle loads no numpy.polynomial
_HALF_16 = ((0.09501250983763744, 0.18945061045506864), (0.2816035507792589, 0.18260341504492364),
            (0.45801677765722737, 0.16915651939500265), (0.6178762444026438, 0.1495959888165767),
            (0.755404408355003, 0.12462897125553407), (0.8656312023878318, 0.0951585116824926),
            (0.9445750230732326, 0.062253523938647456), (0.9894009349916499, 0.027152459411754176))
_HALF_32 = ((0.048307665687738324, 0.09654008851472766), (0.1444719615827965, 0.09563872007927471),
            (0.23928736225213706, 0.09384439908080451), (0.33186860228212767, 0.09117387869576378),
            (0.42135127613063533, 0.08765209300440378), (0.5068999089322294, 0.08331192422694671),
            (0.5877157572407623, 0.07819389578707023), (0.6630442669302152, 0.07234579410884834),
            (0.7321821187402897, 0.06582222277636168), (0.7944837959679424, 0.058684093478535565),
            (0.84936761373257, 0.05099805926237609), (0.8963211557660521, 0.042835898022226836),
            (0.9349060759377397, 0.034273862913021765), (0.9647622555875064, 0.025392065309262024),
            (0.9856115115452684, 0.016274394730905743), (0.9972638618494816, 0.007018610009470506))


def _gauss_legendre():
    """The 16- and 32-node Gauss-Legendre rules on [-1, 1] as (nodes of both,
    weights of the 16, weights of the 32), each rule's nodes ascending."""
    rules = []
    for half in (_HALF_16, _HALF_32):
        x, w = np.array(half).T
        rules.append((np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))))
    (x16, w16), (x32, w32) = rules
    return np.concatenate((x16, x32)), w16, w32


_NODES, _W16, _W32 = _gauss_legendre()


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    samples: int
    converged: bool


def _top(rows: np.ndarray) -> np.ndarray:
    return rows[0] if len(rows) == 1 else rows.max(axis=0)


def _stop(sums: list, n: int, target: float):
    """One circle's QuadResult once the trapezoid stop rules hold, else None."""
    if len(sums) >= 3:
        d1, d2 = sums[-2] - sums[-3], sums[-1] - sums[-2]
        if d2 == 0.0:
            if d1 == 0.0:
                return QuadResult(sums[-1], 5e-16 * (1 + abs(sums[-1])), n, True)
            if abs(d1) <= target:
                return QuadResult(sums[-1], abs(d1) * 0.25, n, True)
        else:
            ratio = abs(d1 / d2)
            if ratio > 1.5:
                correction = d2 / (2 ** math.log2(ratio) - 1)
                if abs(correction) <= target:
                    return QuadResult(sums[-1] + correction, abs(correction), n, True)
            if abs(d2) <= target and abs(d1) <= 4 * target:
                return QuadResult(sums[-1], abs(d2), n, True)
    elif len(sums) == 2 and abs(sums[-1] - sums[-2]) <= target * 0.25:
        return QuadResult(sums[-1], abs(sums[-1] - sums[-2]), n, True)
    return None


def _level(radii: np.ndarray, width: int, offset: float):
    """The points of one trapezoid level of width points on each circle |z| = r, r in
    radii, in angular order, in pieces of at most GROUP_POINTS points: one quarter
    turn, then the other three by multiplying with i, -1 and -i, which is exact in
    floating point.  A level of GROUP_POINTS or fewer is one piece over all the circles;
    a wider one, on one circle, goes a quarter turn or GROUP_POINTS points at a time."""
    turn = _TURNS.get((width, offset))  # None for a wider level or a split level's earlier points
    w = radii[:, None] * (np.exp(1j * (TWO_PI * (np.arange(width // 4) + offset) / width))
                          if turn is None else turn)
    if width <= GROUP_POINTS:
        yield np.concatenate((w, 1j * w, -w, -1j * w), axis=1).ravel()
        return
    w = w[0]
    step = min(GROUP_POINTS, len(w))
    for rotate in (lambda w: w, lambda w: 1j * w, lambda w: -w, lambda w: -1j * w):
        yield from (rotate(w[start:start + step]) for start in range(0, len(w), step))


def _rows(evaluate, pieces, shape: tuple) -> np.ndarray:
    """fn's rows at the points of pieces, one call each, as one array (K, *shape)."""
    rows, start = None, 0
    for zs in pieces:
        values = evaluate(zs)
        if rows is None:
            if zs.size == math.prod(shape):
                return values.reshape(-1, *shape)
            rows = np.empty((len(values), math.prod(shape)), values.dtype)
        rows[:, start:start + zs.size] = values
        start += zs.size
    return rows.reshape(-1, *shape)


def _lines(zs: np.ndarray):
    """The points zs, shape (m, L), in pieces of whole lines, at most GROUP_POINTS
    points each."""
    step = max(1, GROUP_POINTS // zs.shape[1])
    return (zs[start:start + step].ravel() for start in range(0, len(zs), step))


def circle_averages(fn: Callable[[np.ndarray], np.ndarray], radii: Sequence[float],
                    target: float = 1e-9, cap: int = SAMPLE_CAP) -> tuple[QuadResult, ...]:
    """The mean over |z| = r of fn, or of the maximum of its rows, at every radius r,
    in one pass: each circle's first grid has FIRST_GRID points, and cap bounds each
    circle's evaluated points."""
    radii = tuple(radii)
    if not radii:
        return ()
    if min(radii) <= 0:
        raise ValueError("radius must be positive")
    evaluate = lambda zs: np.atleast_2d(fn(zs))
    rs = np.array(radii, dtype=float)                   # the open circles' radii
    out, sums, lead = [None] * len(radii), [[] for _ in radii], [0] * len(radii)
    open_, width, offset = list(range(len(radii))), FIRST_GRID, 0.0
    while True:
        n = 2 * width if offset else width              # each circle's points so far
        # the circles that split on this level, their brackets narrowed from 2pi/width
        # to BRACKET_WIDTH by steps of 16 pieces, go to _arcs together in batches
        steps = max(0, math.ceil(math.log2(TWO_PI / width / BRACKET_WIDTH) / 4))
        group, stay, parts, kinks = max(1, GROUP_POINTS // width), [], [], 0
        for start in range(0, len(open_), group):
            at = rs[start:start + group]
            level = _rows(evaluate, _level(at, width, offset), (len(at), width))
            for j in range(start, start + level.shape[1]):
                i, rows = open_[j], level[:, j - start]
                if not offset:
                    lead[i] = int(rows[:, 0].argmax())
                # only a stack of rows can split
                if len(rows) <= 1 or np.count_nonzero(rows <= rows[lead[i]]) == rows.size:
                    s = float(rows[lead[i]].sum()) / width
                    sums[i].append((sums[i][-1] + s) / 2 if sums[i] else s)
                    out[i] = _stop(sums[i], n, target)
                    if out[i] is None:
                        stay.append(j)
                    continue
                part = _split(evaluate, radii[i], rows, lead[i], offset, n, steps, cap)
                if part is None:
                    out[i] = QuadResult(float(np.mean(_top(rows))), math.inf, n, False)
                    continue
                if parts and (kinks + len(part[1])) * len(_NODES) > GROUP_POINTS:
                    _arcs(evaluate, parts, steps, target, cap, out)
                    parts, kinks = [], 0
                parts.append((i, radii[i], *part))
                kinks += len(part[1])
            del level, rows         # before the next group's values are made
        if parts:
            _arcs(evaluate, parts, steps, target, cap, out)
        open_ = [open_[j] for j in stay]
        if not open_ or n >= cap:
            break
        rs = rs[stay] if len(stay) < len(rs) else rs
        width, offset = n, 0.5      # the midpoints refine each grid to 2n points
    for i in open_:                 # stopped at the cap
        err = abs(sums[i][-1] - sums[i][-2]) if len(sums[i]) > 1 else math.inf
        out[i] = QuadResult(sums[i][-1], err, n, err <= target)
    return tuple(out)


def _split(evaluate, r: float, rows: np.ndarray, before: int, offset: float, spent: int,
           steps: int, cap: int):
    """The brackets of |z| = r on its trapezoid level rows (K, width) at the angles
    2pi (k + offset) / width, after spent points, row before having led every earlier
    point: (its points once bracketed, lower and upper angles, leading row at the lower,
    rows at the lower, rows at the upper), one column per pair of neighbours led by two
    rows; None when no pair is (NaN rows) or they and one round of arcs would pass cap."""
    width, lead, again = rows.shape[1], rows.argmax(axis=0), 0
    if offset and np.any((lead != before) & (np.concatenate((lead[1:], lead[:1])) != before)):
        # an earlier point between two midpoints that row before leads neither of hides two
        # changes of leader: the earlier points are read again and the levels interleaved
        lead = np.stack((np.full(width, before), lead), axis=1).ravel()
        again, width, offset = width, 2 * width, 0.0
    k = np.flatnonzero(lead != np.concatenate((lead[1:], lead[:1])))
    if not len(k) or spent + again + len(k) * (steps * len(_CUTS) + len(_NODES)) > cap:
        return None
    if again:
        earlier = _rows(evaluate, _level(np.array([r]), again, 0.0), (again,))
        rows = np.stack((earlier, rows), axis=2).reshape(len(rows), width)
    return (spent + again + len(k) * steps * len(_CUTS), TWO_PI * (k + offset) / width,
            TWO_PI * (k + 1 + offset) / width, lead[k], rows[:, k], rows[:, (k + 1) % width])


def _arcs(evaluate, parts: list, steps: int, target: float, cap: int, out: list) -> None:
    """Write into out[c] the mean of each circle c of parts [(c, r, samples so far,
    brackets' lower and upper angles, leading row at the lower, rows at the lower, rows
    at the upper)]: the brackets narrowed by steps, each breakpoint placed by a secant
    step, and the arcs between them integrated."""
    owners, radii, spent, *arrays = zip(*parts)
    counts = [len(lo) for lo in arrays[0]]
    lo, hi, row_lo, v_lo, v_hi = (np.concatenate(x, axis=-1) for x in arrays)
    rad, cols = np.repeat(radii, counts), np.arange(len(lo))
    # every bracket [lo, hi] is led by row_lo at lo and by another row at hi; each step
    # cuts it at 15 inner points (four bisections at once) and keeps the first piece that
    # still changes the leading row
    for _ in range(steps):
        t = lo[:, None] + (hi - lo)[:, None] * _CUTS
        zs = rad[:, None] * np.exp(1j * t)
        v = _rows(evaluate, _lines(zs), zs.shape)
        t = np.concatenate((lo[:, None], t, hi[:, None]), axis=1)
        v = np.concatenate((v_lo[:, :, None], v, v_hi[:, :, None]), axis=2)
        led = v.argmax(axis=0) == row_lo[:, None]
        led[:, 0], led[:, -1] = True, False
        j = led.argmin(axis=1)
        lo, hi, v_lo, v_hi = t[cols, j - 1], t[cols, j], v[:, cols, j - 1], v[:, cols, j]
    row_hi = v_hi.argmax(axis=0)
    # one secant step on the difference of the two rows, which is smooth
    # and changes sign in the bracket; it may be infinite or flat there
    with np.errstate(all="ignore"):
        d_lo = v_lo[row_lo, cols] - v_lo[row_hi, cols]
        d_hi = v_hi[row_lo, cols] - v_hi[row_hi, cols]
        cut = lo - d_lo * (hi - lo) / (d_hi - d_lo)
        cut = np.where(np.isfinite(cut) & (cut >= lo) & (cut <= hi), cut, (lo + hi) / 2)
    # each circle's arcs run from one of its cuts to the next, and stay
    # together in the order that the circle alone would hold them
    a, b, end = cut, np.concatenate((cut[1:], cut[:1])), 0
    for count in counts:
        end += count
        b[end - 1] = cut[end - count] + TWO_PI
    value, error = dict.fromkeys(owners, 0.0), dict.fromkeys(owners, 0.0)
    samples = dict(zip(owners, spent))
    while True:
        half = (b - a) / 2
        theta = ((a + b) / 2)[:, None] + half[:, None] * _NODES
        zs = rad[:, None] * np.exp(1j * theta)
        f = _top(_rows(evaluate, _lines(zs), zs.shape))
        # row by row, so that an arc's sum does not depend on how many arcs are batched
        coarse = half * (f[:, :16] * _W16).sum(axis=1) / TWO_PI
        fine = half * (f[:, 16:] * _W32).sum(axis=1) / TWO_PI
        gap = np.abs(fine - coarse)
        ok = gap <= target * half / math.pi
        # the two rules share the rounding of the values and of the sums, which their
        # gap cancels: an arc states at least 32 eps times its share of max |f| on it
        err = np.maximum(gap, 32 * math.ulp(1.0) * half / math.pi * np.abs(f).max(axis=1))
        more, kept, end = np.zeros(len(a), dtype=bool), [], 0
        for c, count in zip(owners, counts):
            arcs, end = slice(end, end + count), end + count
            good, bad = ok[arcs], count - int(np.count_nonzero(ok[arcs]))
            samples[c] += count * len(_NODES)
            value[c] += math.fsum(fine[arcs][good])
            error[c] += math.fsum(err[arcs][good])
            if not bad:
                out[c] = QuadResult(value[c], error[c], samples[c], True)
            elif samples[c] + 2 * bad * len(_NODES) > cap:
                out[c] = QuadResult(value[c] + math.fsum(fine[arcs][~good]),
                                    error[c] + math.fsum(err[arcs][~good]), samples[c], False)
            else:
                more[arcs] = ~good
                kept.append((c, bad))
        if not kept:
            return
        owners, bads = zip(*kept)
        a, b, rad = a[more], b[more], rad[more]
        halfway = (a + b) / 2
        a, b, rad = np.concatenate((a, halfway)), np.concatenate((halfway, b)), np.concatenate((rad, rad))
        if len(kept) > 1:           # each circle's halves together again
            order = np.argsort(np.tile(np.repeat(np.arange(len(kept)), bads), 2), kind="stable")
            a, b, rad = a[order], b[order], rad[order]
        counts = [2 * bad for bad in bads]
