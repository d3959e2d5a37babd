"""Explicit constants for the truncated inequality: N, M, K, p_0, t, L_j.

Everything here is integer or rational arithmetic but for two logarithms,
both from the standard library.  The log ratio inside p_0 is bounded outward
in decimal, with explicit contexts, at doubling precision until its floor is
certified.  The log10 size of a t-bound comes from Stirling's series in binary
fixed point.  t-bounds can be astronomically large for moving families; values
whose decimal length exceeds a digit budget are reported by their log10 size
instead of materialized, and each unbuilt truncation level keeps an exact,
cheap floor.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal,
                     DivisionByZero, InvalidOperation, Overflow)
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


def _context(bits: int, rounding: str) -> Context:
    # every field explicit, so neither the thread's context nor DefaultContext
    # can change a result
    return Context(prec=math.ceil(bits * math.log10(2)), rounding=rounding,
                   Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1, clamp=0, flags=[],
                   traps=[InvalidOperation, DivisionByZero, Overflow])


def certified_floor(build) -> int:
    """floor of a positive real x, certified by outward-rounded bounds.

    build(down, up) receives two decimal contexts at the same precision,
    rounding toward -inf and toward +inf, and returns Decimals lo <= x <= hi,
    or None when that precision bounds x too loosely to use.  The precision
    doubles from 128 bits until both bounds floor to the same integer; the
    quantities fed through here are provably non-integers, so this terminates
    before the cap of 2^16 bits, else NumericalFailure.
    """
    bits = 128
    while bits <= _FLOOR_MAX_PREC:
        down, up = _context(bits, ROUND_FLOOR), _context(bits, ROUND_CEILING)
        bounds = build(down, up)
        if bounds is not None:
            lo, hi = (v.to_integral_value(context=down) for v in bounds)
            if lo == hi:
                return int(lo)
        bits *= 2
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
    b_minus_1, num, den = Decimal(b - 1), Decimal(ratio.numerator), Decimal(ratio.denominator)
    # 1 + ratio is known to one unit in its last digit, which alone spreads x
    # by about x / (ratio 10^(digits - 1)): a level of no more digits than
    # log10(x / ratio) cannot certify, so it takes no logarithm
    hopeless = (math.log10(b) + math.log10(math.log(b))
                + 2 * (math.log10(ratio.denominator) - math.log10(ratio.numerator)))

    def build(down, up):
        step_lo = down.add(1, down.divide(num, den))    # 1 + ratio, rounded each way
        step_hi = up.add(1, up.divide(num, den))
        if step_lo == 1 or down.prec <= hopeless:
            return None
        # ln is correctly rounded whatever the rounding mode, so its two
        # neighbours enclose the true value
        ln_b = down.ln(b)
        ln_step = down.ln(step_lo)
        # ln(step_hi) <= ln(step_lo) + (step_hi - step_lo), as step_lo >= 1
        ln_step_hi = up.add(ln_step.next_plus(up), up.subtract(step_hi, step_lo))
        lo = down.add(down.divide(down.multiply(b_minus_1, ln_b.next_minus(down)),
                                  ln_step_hi), 1)
        hi = up.add(up.divide(up.multiply(b_minus_1, ln_b.next_plus(up)),
                              ln_step.next_minus(down)), 1)
        return lo, hi

    return certified_floor(build) ** 2


# log10 of a t-bound in binary fixed point: Python ints scaled by 2^_BITS
_BITS = 160
_GUARD = 24         # extra bits inside _ln, which loses up to 2^_ROOTS units to its roots
_ROOTS = 8          # square roots taken before the atanh series
_EXACT_FACTORIAL_BELOW = 128


def _atanh_sum(w2: int, prec: int) -> int:
    """sum_j w^(2j) / (2j + 1) at prec bits, for w^2 <= 1/9 at prec bits."""
    total, term, j = 0, 1 << prec, 1
    while term:
        total += term // j
        term = term * w2 >> prec
        j += 2
    return total


_LN2 = 2 * _atanh_sum((1 << _BITS + _GUARD) // 9, _BITS + _GUARD) // 3    # 2 atanh(1/3)


def _ln(num: int, den: int = 1) -> int:
    """ln(num/den) at _BITS bits, for num >= den >= 1, within a few units."""
    p = _BITS + _GUARD
    k = num.bit_length() - den.bit_length()
    if num < den << k:
        k -= 1
    m = (num << p) // (den << k)            # num/den / 2^k in [1, 2)
    for _ in range(_ROOTS):
        m = math.isqrt(m << p)
    one = 1 << p
    w = ((m - one) << p) // (m + one)       # ln m = 2^(_ROOTS + 1) atanh w
    return (k * _LN2 + (w * _atanh_sum(w * w >> p, p) >> p - _ROOTS - 1)) >> _GUARD


_LN10 = _ln(10)
_HALF_LN_2PI = int(Fraction(
    "0.918938533204672741780329736405617639861397473637783412817151540482765695927260")
    * 2 ** _BITS)
# B_2k / (2k (2k - 1)) for k = 1..15, the coefficients of Stirling's series
_STIRLING = tuple(int(Fraction(b) / (2 * k * (2 * k - 1)) * 2 ** _BITS) for k, b in enumerate((
    "1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510", "43867/798",
    "-174611/330", "854513/138", "-236364091/2730", "8553103/6", "-23749461029/870",
    "8615841276005/14322"), 1))


def _stirling_remainder(x: int) -> int:
    """ln x! - (x + 1/2) ln x + x at _BITS bits, for x >= 1.

    Below 128 it comes from the exact x!.  From 128 up Stirling's series
    stops at its first term below one unit, which bounds the tail; at 160 bits
    that happens by k = 13, inside the table.
    """
    if x < _EXACT_FACTORIAL_BELOW:
        return _ln(math.factorial(x)) - ((2 * x + 1) * _ln(x) >> 1) + (x << _BITS)
    total, power = _HALF_LN_2PI, x
    for c in _STIRLING:
        term = abs(c) // power
        if not term:
            break
        total += term if c > 0 else -term
        power *= x * x
    return total


def _log10_binomial(top: int, bottom: int) -> float:
    # log10 C(top, a), a = min(bottom, top - bottom) and b = top - a, from
    #   a ln(top/a) + (b + 1/2) ln(top/b) - (ln a)/2 + R(top) - R(a) - R(b)
    # with R the Stirling remainder.  math.lgamma cancels catastrophically when
    # a << b; here the first two terms are positive and the second is
    # (2b + 1) w atanh-sum(w^2) with w = a/(2b + a), so every error stays
    # relative, and the float is the nearest one but in a near-tie of relative
    # width about 2^-140
    a = min(bottom, top - bottom)
    if a == 0:
        return 0.0
    b = top - a
    wide = 2 * b + a
    b_term = (2 * b + 1) * a * _atanh_sum((a * a << _BITS) // (wide * wide), _BITS) // wide
    ln = (a * _ln(top, a) + b_term - (_ln(a) >> 1)
          + _stirling_remainder(top) - _stirling_remainder(a) - _stirling_remainder(b))
    return ln / _LN10


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
