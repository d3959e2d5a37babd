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
disagreement of the two rules over the arcs.  Non-convergence at the sample
cap is flagged rather than raised so a caller can decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2 * math.pi

SAMPLE_CAP = 1 << 20

# the first trapezoid grid, a multiple of 4 for the quarter-turn batches
FIRST_GRID = 64

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


def _leads(rows: np.ndarray, lead: int) -> bool:
    """Whether row lead attains the maximum over rows at every point."""
    return all((row <= rows[lead]).all() for k, row in enumerate(rows) if k != lead)


def circle_average(fn: Callable[[np.ndarray], np.ndarray], r: float,
                   target: float = 1e-9, cap: int = SAMPLE_CAP) -> QuadResult:
    """Mean over |z| = r of fn, or of its maximum over rows if fn returns a
    stack of rows.

    The first grid has FIRST_GRID points; cap bounds the number of points at
    which fn is evaluated.
    """
    if r <= 0:
        raise ValueError("radius must be positive")

    def evaluate(zs: np.ndarray) -> np.ndarray:
        return np.atleast_2d(fn(zs))

    def batch(n: int, offset: float) -> np.ndarray:
        # the angles of one quarter turn, then the other three quarters by
        # multiplying with i, -1 and -i, which is exact in floating point;
        # the points keep their angular order
        q = n // 4
        w = r * np.exp(1j * (TWO_PI * (np.arange(q) + offset) / n))
        return evaluate(np.concatenate((w, 1j * w, -w, -1j * w)))

    n = FIRST_GRID
    levels = [batch(n, 0.0)]
    lead = int(levels[0][:, 0].argmax())
    if not _leads(levels[0], lead):
        return _split(evaluate, r, levels, target, cap)
    sums = [float(np.sum(levels[0][lead])) / n]
    while n < cap:
        # midpoints of the current grid refine it to 2n points
        mid = batch(n, 0.5)
        if len(mid) > 1:            # only a stack of rows can reach _split
            levels.append(mid)
        if not _leads(mid, lead):
            return _split(evaluate, r, levels, target, cap)
        n *= 2
        sums.append((sums[-1] + float(np.sum(mid[lead])) / (n // 2)) / 2)
        if len(sums) >= 3:
            d1 = sums[-2] - sums[-3]
            d2 = sums[-1] - sums[-2]
            if d2 == 0.0:
                if d1 == 0.0:
                    return QuadResult(sums[-1], 5e-16 * (1 + abs(sums[-1])), n, True)
                if abs(d1) <= target:
                    return QuadResult(sums[-1], abs(d1) * 0.25, n, True)
            else:
                ratio = abs(d1 / d2)
                if ratio > 1.5:
                    p = math.log2(ratio)
                    correction = d2 / (2 ** p - 1)
                    value = sums[-1] + correction
                    if abs(correction) <= target:
                        return QuadResult(value, abs(correction), n, True)
                if abs(d2) <= target and abs(d1) <= 4 * target:
                    return QuadResult(sums[-1], abs(d2), n, True)
        elif abs(sums[-1] - sums[-2]) <= target * 0.25:
            return QuadResult(sums[-1], abs(sums[-1] - sums[-2]), n, True)
    err = abs(sums[-1] - sums[-2]) if len(sums) > 1 else math.inf
    return QuadResult(sums[-1], err, n, err <= target)


def _split(evaluate, r: float, levels: list, target: float,
           cap: int) -> QuadResult:
    """The circle mean of the row maximum from its values on the trapezoid
    levels so far, where more than one row leads."""
    grid = levels[0]
    for mid in levels[1:]:
        both = np.empty((len(grid), 2 * grid.shape[1]))
        both[:, 0::2], both[:, 1::2] = grid, mid
        grid = both
    n = grid.shape[1]
    lead = grid.argmax(axis=0)
    k = np.flatnonzero(lead != np.roll(lead, -1))
    steps = max(0, math.ceil(math.log2(TWO_PI / n / BRACKET_WIDTH) / 4))
    nodes, w16, w32 = _gauss_legendre()
    if not len(k) or n + len(k) * (steps * len(_CUTS) + len(nodes)) > cap:
        # the grid argmax never changes (NaN rows), or the cap is too small
        return QuadResult(float(np.mean(_top(grid))), math.inf, n, False)
    samples = n + len(k) * steps * len(_CUTS)
    cols = np.arange(len(k))

    # every bracket [lo, hi] is led by row_lo at lo and by another row at hi;
    # each step cuts it at 15 inner points (four bisections at once) and
    # keeps the first piece that still changes the leading row
    lo, hi = TWO_PI * k / n, TWO_PI * (k + 1) / n
    row_lo = lead[k]
    v_lo, v_hi = grid[:, k], grid[:, (k + 1) % n]
    for _ in range(steps):
        t = lo[:, None] + (hi - lo)[:, None] * _CUTS
        v = evaluate(r * np.exp(1j * t.ravel())).reshape(len(grid), len(k), len(_CUTS))
        t = np.column_stack((lo, t, hi))
        v = np.concatenate((v_lo[:, :, None], v, v_hi[:, :, None]), axis=2)
        led = v.argmax(axis=0) == row_lo[:, None]
        led[:, 0], led[:, -1] = True, False
        j = led.argmin(axis=1)
        lo, hi = t[cols, j - 1], t[cols, j]
        v_lo, v_hi = v[:, cols, j - 1], v[:, cols, j]
    row_hi = v_hi.argmax(axis=0)
    # one secant step on the difference of the two rows, which is smooth
    # and changes sign in the bracket; it may be infinite or flat there
    with np.errstate(all="ignore"):
        d_lo = v_lo[row_lo, cols] - v_lo[row_hi, cols]
        d_hi = v_hi[row_lo, cols] - v_hi[row_hi, cols]
        cut = lo - d_lo * (hi - lo) / (d_hi - d_lo)
        cut = np.where(np.isfinite(cut) & (cut >= lo) & (cut <= hi), cut, (lo + hi) / 2)

    a, b = cut, np.append(cut[1:], cut[0] + TWO_PI)
    value = error = 0.0
    while True:
        half = (b - a) / 2
        theta = ((a + b) / 2)[:, None] + half[:, None] * nodes
        f = _top(evaluate(r * np.exp(1j * theta.ravel()))).reshape(theta.shape)
        samples += f.size
        coarse = half * (f[:, :16] @ w16) / TWO_PI
        fine = half * (f[:, 16:] @ w32) / TWO_PI
        gap = np.abs(fine - coarse)
        ok = gap <= target * half / math.pi
        value += math.fsum(fine[ok])
        error += math.fsum(gap[ok])
        if ok.all():
            return QuadResult(value, error, samples, True)
        a, b = a[~ok], b[~ok]
        if samples + 2 * len(a) * len(nodes) > cap:
            return QuadResult(value + math.fsum(fine[~ok]),
                              error + math.fsum(gap[~ok]), samples, False)
        m = (a + b) / 2
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
