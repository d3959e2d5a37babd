"""Adaptive circle averages: (1/2pi) integral of fn(r e^{i theta}) d theta.

Equally spaced trapezoid sums on a periodic integrand, doubled until two
consecutive refinements agree to the target, with Richardson extrapolation
when the observed convergence order is stable.  Smooth integrands converge
spectrally; log|.| kinks from zeros near the contour drop to low algebraic
order, which the extrapolation mostly recovers.  The achieved error estimate
is always reported; non-convergence at the sample cap is flagged rather than
raised so a caller can decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2 * math.pi

SAMPLE_CAP = 1 << 20


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    samples: int
    converged: bool

    def __float__(self) -> float:
        return self.value


def circle_average(fn: Callable[[np.ndarray], np.ndarray], r: float,
                   target: float = 1e-9, start: int = 64,
                   cap: int = SAMPLE_CAP) -> QuadResult:
    """Mean of fn over |z| = r; fn maps a numpy array of points to values.

    start, the first grid size, must be a positive multiple of 4.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if start <= 0 or start % 4:
        raise ValueError("start must be a positive multiple of 4")

    def batch(n: int, offset: float) -> float:
        # the angles of one quarter turn, then the other three quarters by
        # multiplying with i, -1 and -i, which is exact in floating point;
        # the points keep their angular order
        q = n // 4
        w = r * np.exp(1j * (TWO_PI * (np.arange(q) + offset) / n))
        return float(np.sum(fn(np.concatenate((w, 1j * w, -w, -1j * w)))))

    n = start
    sums = [batch(n, 0.0) / n]
    while n < cap:
        # midpoints of the current grid refine it to 2n points
        mid = batch(n, 0.5)
        n *= 2
        sums.append((sums[-1] + mid / (n // 2)) / 2)
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
