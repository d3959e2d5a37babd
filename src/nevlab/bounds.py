"""Explicit constants for the truncated inequality: N, M, K, p_0, t, L_j.

Everything here is integer or rational arithmetic.  The only transcendental
step is the log ratio inside p_0, which is evaluated with interval arithmetic
at escalating precision until the floor is certified.  t-bounds can be
astronomically large for moving families; values whose decimal length exceeds
a digit budget are reported by their log10 size instead of materialized,
and each unbuilt truncation level keeps an exact, cheap floor.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence, Union

from .fields import InputError, NumericalFailure, Obstruction

RationalLike = Union[Fraction, int, str]

DEFAULT_DIGIT_BUDGET = 50_000

# Python's default int-to-str limit: a level no longer than this prints, and
# loads back through any JSON reader, without lifting the interpreter's limit
REPORT_DIGIT_BUDGET = 4_300

EPS_CAP = Fraction(1) - Fraction(1, 2 ** 20)


class MarginViolation(Obstruction):
    """The exact eps/2 inequality failed; the constants do not certify."""


def _field_repr(x) -> str:
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_field_repr, x)) + ("," if len(x) == 1 else "") + ")"
    try:
        return repr(x)
    except ValueError:          # an int past the interpreter's int-to-str limit
        digits = int((abs(x).bit_length() - 1) * math.log10(2)) + 1
        return f"<int of {digits + (abs(x) >= 10 ** digits)} digits>"


def report_repr(obj) -> str:
    """The dataclass repr, with each int too long to print shown by its digit count."""
    return f"{type(obj).__name__}(" + ", ".join(
        f"{f.name}={_field_repr(getattr(obj, f.name))}" for f in dataclasses.fields(obj)) + ")"


def _as_fraction(eps: RationalLike) -> Fraction:
    if isinstance(eps, float):
        raise TypeError("eps must be exact (int, Fraction, or string like '1/4')")
    return Fraction(eps)


def clamp_eps(eps: RationalLike) -> Fraction:
    """Return eps, capped just below 1.  The bound formulas assume eps < 1."""
    eps = _as_fraction(eps)
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    if eps >= 1:
        warnings.warn(f"eps={eps} clamped to 1 - 2^-20; formulas assume eps < 1",
                      RuntimeWarning, stacklevel=3)
        return EPS_CAP
    return eps


def compute_constants(n: int, d: int, eps: RationalLike) -> tuple[int, int, int]:
    """(N, M, K) with N = d*floor(2(n+1)(2^n - 1)(nd + 1)/eps + n + 1).

    M = C(N+n, n) and K = C(N/d+n, n).  N is divisible by d by construction.
    """
    if n < 1 or d < 1:
        raise InputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    eps = clamp_eps(eps)
    arg = Fraction(2 * (n + 1) * (2 ** n - 1) * (n * d + 1)) / eps + n + 1
    big_n = d * math.floor(arg)
    return big_n, comb(big_n + n, n), comb(big_n // d + n, n)


_FLOOR_MAX_PREC = 1 << 16


def certified_floor(build) -> int:
    """floor of build(iv) certified by interval arithmetic.

    build receives the mpmath.iv context and must return an interval value.
    Precision doubles from 128 bits until both endpoints floor to the same
    integer; the quantities fed through here are provably non-integers, so
    this terminates before the cap of 2^16 bits, else NumericalFailure.
    """
    import mpmath        # imported here: most commands never need it
    from mpmath import iv

    prec = 128
    saved = iv.prec
    try:
        while prec <= _FLOOR_MAX_PREC:
            iv.prec = prec
            val = build(iv)
            lo = mpmath.floor(val.a)
            hi = mpmath.floor(val.b)
            if lo == hi:
                return int(lo)
            prec *= 2
    finally:
        iv.prec = saved
    raise NumericalFailure(f"floor not certified below precision {_FLOOR_MAX_PREC}")


def _b_constant(n: int, big_n: int, q: int) -> int:
    return comb(n + big_n, n) ** 2 * comb(q, n)


def compute_p0(n: int, big_n: int, q: int, eps: RationalLike) -> int:
    """p_0 = floor((B-1) log B / log(1 + eps/(2MN)) + 1)^2, B = C(n+N,n)^2 C(q,n).

    The floor argument is irrational (B^(B-1) is an integer, powers of the
    non-integer rational 1 + eps/(2MN) never are), so the interval floor is
    always decidable.
    """
    if q < n + 1:
        raise InputError(f"need q >= n + 1, got q={q}, n={n}")
    eps = clamp_eps(eps)
    m_count = comb(n + big_n, n)
    b = _b_constant(n, big_n, q)
    ratio = eps / (2 * m_count * big_n)

    def build(ctx):
        num = (b - 1) * ctx.log(b)
        den = ctx.log(1 + ctx.mpf(ratio.numerator) / ratio.denominator)
        return num / den + 1

    return certified_floor(build) ** 2


def _log10_binomial(top: int, bottom: int) -> float:
    # math.lgamma cancels catastrophically when bottom << top (the huge-p_0
    # regime), so evaluate at precision scaled to the operand size.
    import mpmath

    with mpmath.workprec(max(128, 2 * top.bit_length() + 64)):
        ln = (mpmath.loggamma(top + 1) - mpmath.loggamma(bottom + 1)
              - mpmath.loggamma(top - bottom + 1))
        return float(ln / mpmath.log(10))


def bound_t(p: int, n: int, big_n: int, q: int,
            digit_budget: Optional[int] = None) -> tuple[Optional[int], Optional[int], float, float]:
    """Bound for t_{p+1}: (binomial C(B+p, B-1), power (B+p)^(B-1), log10 of each).

    Values longer than the digit budget come back as None with the log10
    estimate still filled in.  When both materialize, binomial <= power is
    checked exactly, else in log10; a failed check is a NumericalFailure.
    """
    if p < 1:
        raise InputError(f"need p >= 1, got {p}")
    budget = DEFAULT_DIGIT_BUDGET if digit_budget is None else digit_budget
    b = _b_constant(n, big_n, q)
    binom_log10 = _log10_binomial(b + p, b - 1)
    power_log10 = (b - 1) * math.log10(b + p)
    binom = comb(b + p, b - 1) if binom_log10 < budget else None
    power = (b + p) ** (b - 1) if power_log10 < budget else None
    if binom is not None and power is not None:
        holds = binom <= power
    else:
        holds = binom_log10 <= power_log10 + 1e-6
    if not holds:
        raise NumericalFailure(f"C({b + p}, {b - 1}) exceeds ({b + p})^{b - 1}")
    return binom, power, binom_log10, power_log10


def a_lower_bound(n: int, d: int, big_n: int) -> Fraction:
    """(d^n/(n+1)) * C(N/d, n) * (N/d - n), positive whenever N/d > n."""
    t = big_n // d
    return Fraction(d ** n, n + 1) * comb(t, n) * (t - n)


def verify_error_margin(n: int, d: int, eps: RationalLike,
                        a_lower: Optional[Fraction] = None) -> Fraction:
    """Exact slack eps/2 - d*(MN/(d*A) - n - 1); raises MarginViolation if < 0.

    A defaults to the filtration lower bound for the N that compute_constants
    picks; passing the true A from a filtration table only increases slack.
    """
    eps = clamp_eps(eps)
    big_n, m_count, _ = compute_constants(n, d, eps)
    if a_lower is None:
        a_lower = a_lower_bound(n, d, big_n)
    if a_lower <= 0:
        raise InputError("A lower bound must be positive (requires N/d > n)")
    slack = eps / 2 - d * (Fraction(m_count * big_n, d) / a_lower - n - 1)
    if slack < 0:
        raise MarginViolation(f"margin {slack} < 0 at n={n}, d={d}, eps={eps}")
    return slack


@dataclass(frozen=True, repr=False)
class BoundReport:
    """Every constant in the truncation chain for one input tuple.

    t, level, and truncations are None when their decimal size exceeds the
    digit budget; the *_log10 fields always carry the size estimate.
    """

    n: int
    q: int
    eps: Fraction
    eps_requested: Fraction
    degrees: tuple[int, ...]
    fixed: bool
    d: int
    big_n: int
    m_count: int
    k_count: int
    b_constant: int
    p0: int
    t: Optional[int]
    t_power: Optional[int]
    t_log10: float
    t_power_log10: float
    level: Optional[int]
    level_log10: float
    truncations: Optional[tuple[int, ...]]
    truncation_log10: tuple[float, ...]
    a_lower: Fraction
    margin: Fraction

    __repr__ = report_repr

    @property
    def materialized(self) -> bool:
        return self.t is not None

    @property
    def truncation_floors(self) -> tuple[int, ...]:
        """Exact lower bounds for the L_j, equal to them when they materialized.

        An unbuilt t = C(B+p_0, B-1) is at least B + p_0, since B >= 2 puts
        B - 1 between 1 and B + p_0 - 1, and each L_j grows with t.
        """
        if self.truncations is not None:
            return self.truncations
        return _levels(self.m_count * (self.b_constant + self.p0) - 1, self.degrees, self.d)


def _levels(level: int, degrees: tuple[int, ...], d: int) -> tuple[int, ...]:
    return tuple(dj * level // d + 1 for dj in degrees)


def compute_truncation_levels(n: int, q: int, eps: RationalLike,
                              degrees: Sequence[int], fixed: bool = False,
                              digit_budget: Optional[int] = None) -> BoundReport:
    """Full chain: (N, M, K) -> p_0 -> t_{p_0+1} -> L -> L_j.

    fixed=True sets t = 1 (constant-coefficient targets), giving
    L_j = (d_j*M - d_j)/d + 1.  The moving case uses the worst case p = p_0.
    """
    degrees = tuple(degrees)
    if len(degrees) != q:
        raise InputError(f"expected {q} degrees, got {len(degrees)}")
    if any(dj < 1 for dj in degrees):
        raise InputError(f"degrees must be positive, got {degrees}")
    eps_requested = _as_fraction(eps)
    eps_used = clamp_eps(eps_requested)
    d = lcm(*degrees)
    big_n, m_count, k_count = compute_constants(n, d, eps_used)
    b = _b_constant(n, big_n, q)
    p0 = compute_p0(n, big_n, q, eps_used)
    if fixed:
        # t_p = 1 for every p; the selection property t_{p+1}/t_p < 1 + eps/(2MN)
        # then holds already at p = 1, strictly.
        if not Fraction(1) < 1 + eps_used / (2 * m_count * big_n):
            raise Obstruction("the fixed-target selection property t_2/t_1 "
                              "< 1 + eps/(2MN) fails")
        t, t_power, t_log10, t_power_log10 = 1, 1, 0.0, 0.0
    else:
        t, t_power, t_log10, t_power_log10 = bound_t(p0, n, big_n, q, digit_budget)
    level = None if t is None else m_count * t - 1
    truncations = None if level is None else _levels(level, degrees, d)
    level_log10 = math.log10(m_count) + t_log10
    truncation_log10 = tuple(math.log10(dj) + level_log10 - math.log10(d)
                             for dj in degrees)
    a_low = a_lower_bound(n, d, big_n)
    margin = verify_error_margin(n, d, eps_used, a_low)
    return BoundReport(n=n, q=q, eps=eps_used, eps_requested=eps_requested,
                       degrees=degrees, fixed=fixed, d=d, big_n=big_n,
                       m_count=m_count, k_count=k_count, b_constant=b, p0=p0,
                       t=t, t_power=t_power, t_log10=t_log10,
                       t_power_log10=t_power_log10, level=level,
                       level_log10=level_log10, truncations=truncations,
                       truncation_log10=truncation_log10, a_lower=a_low,
                       margin=margin)
