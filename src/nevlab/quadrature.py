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
So as soon as a grid shows two maximizing rows, the circle is split.  Every
change of the maximizing row between neighbouring grid points is bracketed
by bisection on the row index, four halvings per step (15 inner points)
and all breakpoints stepping at once as one array, then placed by one
secant step on the difference of the two rows.  Each arc between breakpoints
is then smooth and is integrated by 16- and 32-node Gauss-Legendre; an arc
whose two rules disagree by more than its share of the target is halved and
retried, which also resolves a dominance interval the grid missed.

The reported error is the last trapezoid correction, or the summed
disagreement of the two rules over the arcs, each arc's at least a rounding
bound of its values and its sums, which the two rules share and so cancel in
their disagreement.  Non-convergence at the sample cap is flagged rather than
raised so a caller can decide.

circle_averages is the one entry point, and a radius grid is one pass: each
trapezoid level is one fn call over every open circle, and split circles step
their brackets, then their arcs, as one array; the stop rules stay per circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2 * math.pi

SAMPLE_CAP = 1 << 20

# the first trapezoid grid, a multiple of 4 for the quarter-turn batches
FIRST_GRID = 64
# the first quarter turn of each level up to 4096 points, built once for every circle
_TURNS = {(w, o): np.exp(1j * (TWO_PI * (np.arange(w // 4) + o) / w))
          for w in (FIRST_GRID << k for k in range(7)) for o in (0.0, 0.5)}

# breakpoint brackets are narrowed to this width in radians before the secant
# step, whose error is then about the square of it
BRACKET_WIDTH = 2.0 ** -14
_CUTS = np.arange(1, 16) / 16          # a bracket's inner points, in its length

# a constant built on first use, not a functools cache: perfbench clears
# those before every op, and building the rules takes about 1 ms
_GAUSS_LEGENDRE: list = []


def _gauss_legendre():
    """The 16- and 32-node Gauss-Legendre rules on [-1, 1], as (nodes of
    both, weights of the 16, weights of the 32), built on first use: a
    program that never splits a circle does not load numpy.polynomial."""
    if not _GAUSS_LEGENDRE:
        (x16, w16), (x32, w32) = (np.polynomial.legendre.leggauss(m) for m in (16, 32))
        _GAUSS_LEGENDRE.extend((np.concatenate((x16, x32)), w16, w32))
    return _GAUSS_LEGENDRE


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
    rs = np.array(radii, dtype=float)[:, None]          # the open circles' radii
    out, sums, levels, split = [None] * len(radii), [[] for _ in radii], [[] for _ in radii], []
    open_, width, offset = list(range(len(radii))), FIRST_GRID, 0.0
    while True:
        # a level of width points per open circle: one quarter turn, then the
        # other three by multiplying with i, -1 and -i, which is exact in
        # floating point; each circle's points keep their angular order
        n = 2 * width if offset else width              # each circle's points so far
        turn = _TURNS.get((width, offset))
        if turn is None:
            turn = np.exp(1j * (TWO_PI * (np.arange(width // 4) + offset) / width))
        w = rs * turn
        zs = np.concatenate((w, 1j * w, -w, -1j * w), axis=1)
        level = evaluate(zs.ravel()).reshape(-1, len(rs), width)
        if not offset:
            lead = level[:, :, 0].argmax(axis=0).tolist()
        stay = []
        for j, i in enumerate(open_):
            rows = level[:, j]
            if len(rows) > 1:       # only a stack of rows can reach _split
                levels[i].append(rows)
                if np.count_nonzero(rows <= rows[lead[j]]) < rows.size:   # or a NaN
                    split.append(i)
                    continue
            s = float(rows[lead[j]].sum()) / width
            sums[i].append((sums[i][-1] + s) / 2 if sums[i] else s)
            out[i] = _stop(sums[i], n, target)
            if out[i] is None:
                stay.append(j)
        open_, lead = [open_[j] for j in stay], [lead[j] for j in stay]
        if not open_ or n >= cap:
            break
        rs = rs[stay] if len(stay) < len(rs) else rs
        width, offset = n, 0.5      # the midpoints refine each grid to 2n points
    for i in open_:                 # stopped at the cap
        err = abs(sums[i][-1] - sums[i][-2]) if len(sums[i]) > 1 else math.inf
        out[i] = QuadResult(sums[i][-1], err, n, err <= target)
    circles = [(radii[i], levels[i]) for i in split]
    for i, res in zip(split, _split(evaluate, circles, target, cap) if split else ()):
        out[i] = res
    return tuple(out)


def _split(evaluate, circles: list, target: float, cap: int) -> list:
    """The means of the row maximum on the circles [(r, trapezoid levels)] that split."""
    nodes, w16, w32 = _gauss_legendre()
    out, samples, parts = [None] * len(circles), [0] * len(circles), []
    for c, (r, levels) in enumerate(circles):
        grid = levels[0]
        for mid in levels[1:]:
            both = np.empty((len(grid), 2 * grid.shape[1]))
            both[:, 0::2], both[:, 1::2] = grid, mid
            grid = both
        n = grid.shape[1]
        lead = grid.argmax(axis=0)
        k = np.flatnonzero(lead != np.concatenate((lead[1:], lead[:1])))
        steps = max(0, math.ceil(math.log2(TWO_PI / n / BRACKET_WIDTH) / 4))
        if not len(k) or n + len(k) * (steps * len(_CUTS) + len(nodes)) > cap:
            # the grid argmax never changes (NaN rows), or the cap is too small
            out[c] = QuadResult(float(np.mean(_top(grid))), math.inf, n, False)
            continue
        samples[c] = n + len(k) * steps * len(_CUTS)
        parts.append((steps, c, r, len(k), TWO_PI * k / n, TWO_PI * (k + 1) / n, lead[k],
                      grid[:, k], grid[:, (k + 1) % n]))
    if not parts:
        return out
    # every bracket [lo, hi] is led by row_lo at lo and by another row at hi; each step
    # cuts it at 15 inner points (four bisections at once) and keeps the first piece that
    # still changes the leading row; more steps first, brackets past their last are held
    steps, owners, radii, counts, *arrays = zip(*sorted(parts, key=lambda part: -part[0]))
    lo, hi, row_lo, v_lo, v_hi = (np.concatenate(x, axis=-1) if x[1:] else x[0] for x in arrays)
    rad = np.repeat(radii, counts)
    held, cols, r_at, led_by = [], np.arange(len(lo)), rad, row_lo
    for step in range(steps[0]):
        m = sum(count for k, count in zip(steps, counts) if k > step)
        if m < len(lo):
            held.insert(0, [x[..., m:] for x in (lo, hi, v_lo, v_hi)])
            lo, hi, v_lo, v_hi, cols, r_at, led_by = (
                x[..., :m] for x in (lo, hi, v_lo, v_hi, cols, r_at, led_by))
        t = lo[:, None] + (hi - lo)[:, None] * _CUTS
        v = evaluate((r_at[:, None] * np.exp(1j * t)).ravel()).reshape(len(v_lo), m, -1)
        t = np.concatenate((lo[:, None], t, hi[:, None]), axis=1)
        v = np.concatenate((v_lo[:, :, None], v, v_hi[:, :, None]), axis=2)
        led = v.argmax(axis=0) == led_by[:, None]
        led[:, 0], led[:, -1] = True, False
        j = led.argmin(axis=1)
        lo, hi, v_lo, v_hi = t[cols, j - 1], t[cols, j], v[:, cols, j - 1], v[:, cols, j]
    if held:
        lo, hi, v_lo, v_hi = (np.concatenate(x, axis=-1) for x in zip((lo, hi, v_lo, v_hi), *held))
    cols = np.arange(len(lo))
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
    value, error = [0.0] * len(circles), [0.0] * len(circles)
    while True:
        half = (b - a) / 2
        theta = ((a + b) / 2)[:, None] + half[:, None] * nodes
        f = _top(evaluate((rad[:, None] * np.exp(1j * theta)).ravel())).reshape(theta.shape)
        # row by row, so that an arc's sum does not depend on how many arcs are batched
        coarse = half * (f[:, :16] * w16).sum(axis=1) / TWO_PI
        fine = half * (f[:, 16:] * w32).sum(axis=1) / TWO_PI
        gap = np.abs(fine - coarse)
        ok = gap <= target * half / math.pi
        # the two rules share the rounding of the values and of the sums, which their
        # gap cancels: an arc states at least 32 eps times its share of max |f| on it
        err = np.maximum(gap, 32 * math.ulp(1.0) * half / math.pi * np.abs(f).max(axis=1))
        more, kept, end = np.zeros(len(a), dtype=bool), [], 0
        for c, count in zip(owners, counts):
            arcs, end = slice(end, end + count), end + count
            good, bad = ok[arcs], count - int(np.count_nonzero(ok[arcs]))
            samples[c] += count * len(nodes)
            value[c] += math.fsum(fine[arcs][good])
            error[c] += math.fsum(err[arcs][good])
            if not bad:
                out[c] = QuadResult(value[c], error[c], samples[c], True)
            elif samples[c] + 2 * bad * len(nodes) > cap:
                out[c] = QuadResult(value[c] + math.fsum(fine[arcs][~good]),
                                    error[c] + math.fsum(err[arcs][~good]), samples[c], False)
            else:
                more[arcs] = ~good
                kept.append((c, bad))
        if not kept:
            return out
        owners, bads = zip(*kept)
        a, b, rad = a[more], b[more], rad[more]
        halfway = (a + b) / 2
        a, b, rad = np.concatenate((a, halfway)), np.concatenate((halfway, b)), np.concatenate((rad, rad))
        if len(kept) > 1:           # each circle's halves together again
            order = np.argsort(np.tile(np.repeat(np.arange(len(kept)), bads), 2), kind="stable")
            a, b, rad = a[order], b[order], rad[order]
        counts = [2 * bad for bad in bads]
