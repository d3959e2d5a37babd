import math
import sys
import warnings
from fractions import Fraction
from math import comb

import mpmath
import pytest

from nevlab import bounds
from nevlab.bounds import (BoundReport, MarginViolation, a_lower_bound,
                           bound_t, clamp_eps, compute_constants, compute_p0,
                           compute_truncation_levels, verify_error_margin)


def test_clamp_eps_boundaries():
    assert clamp_eps(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        clamp_eps(0)
    with pytest.raises(ValueError):
        clamp_eps(Fraction(-1, 3))
    with pytest.warns(RuntimeWarning):
        capped = clamp_eps(Fraction(7, 2))
    assert capped == 1 - Fraction(1, 2 ** 20)


def test_compute_constants_formula():
    big_n, m, k = compute_constants(1, 1, Fraction(1, 2))
    assert big_n == 18                   # floor(2*2*1*2 / (1/2) + 2) = 18
    assert m == comb(19, 1) == 19
    assert k == comb(19, 1) == 19
    big_n2, m2, k2 = compute_constants(2, 2, Fraction(1, 2))
    assert big_n2 % 2 == 0
    assert m2 == comb(big_n2 + 2, 2) and k2 == comb(big_n2 // 2 + 2, 2)


def test_frozen_margin_value():
    # exact regression pin, eps at the clamped boundary
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        margin = verify_error_margin(1, 1, Fraction(1))
    assert margin == Fraction(1048567, 18874368)
    assert verify_error_margin(1, 1, Fraction(1, 2)) == Fraction(1, 68)


def test_margin_violation_when_a_too_small():
    with pytest.raises(MarginViolation):
        verify_error_margin(1, 1, Fraction(1, 2), a_lower=Fraction(1))
    with pytest.raises(ValueError):
        verify_error_margin(1, 1, Fraction(1, 2), a_lower=Fraction(0))


def test_a_lower_bound_positive_in_range():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            big_n = d * (n + 3)
            val = a_lower_bound(n, d, big_n)
            assert val > 0
    assert a_lower_bound(1, 1, 5) == Fraction(1, 2) * comb(5, 1) * 4


def test_bound_t_binomial_below_power():
    for p in (1, 2, 5):
        binom, power, bl, pl = bound_t(p, 1, 6, 3)
        assert binom is not None and power is not None
        assert binom <= power
        assert bl <= pl + 1e-9
        assert abs(math.log10(binom) - bl) < 1e-6


def test_bound_t_failed_check_raises(monkeypatch):
    # a binomial above the power must surface as an exception that
    # python -O cannot strip, not as an assert
    monkeypatch.setattr(bounds, "comb", lambda top, bottom: top ** bottom + 1)
    with pytest.raises(ArithmeticError):
        bound_t(1, 1, 6, 3)


def test_bound_t_respects_digit_budget():
    binom, power, bl, pl = bound_t(10, 2, 30, 4, digit_budget=5)
    assert binom is None and power is None
    assert bl > 5 and pl > 5


def test_p0_matches_direct_float_formula():
    n, big_n, q, eps = 1, 18, 3, Fraction(1, 2)
    p0 = compute_p0(n, big_n, q, eps)
    m = comb(big_n + n, n)
    b = m * m * comb(q, n)
    x = float(eps) / (2 * m * big_n)
    approx = ((b - 1) * math.log(b) / math.log1p(x) + 1) ** 2
    assert p0 == math.floor(approx) or abs(p0 - approx) < 1e-3 * approx


def test_fixed_chain_report():
    rep = compute_truncation_levels(1, 3, Fraction(1, 2), (1, 1, 1), fixed=True)
    assert isinstance(rep, BoundReport)
    assert rep.fixed and rep.t == 1
    assert rep.big_n == 18 and rep.m_count == 19
    assert rep.level == 18
    assert rep.truncations == (19, 19, 19)
    assert rep.margin >= 0
    assert rep.materialized


def test_fixed_chain_mixed_degrees():
    rep = compute_truncation_levels(1, 3, Fraction(1, 2), (1, 2, 2), fixed=True)
    assert rep.d == 2
    m = comb(rep.big_n + 1, 1)
    assert rep.level == m - 1
    assert rep.truncations == tuple(dj * (m - 1) // 2 + 1 for dj in (1, 2, 2))


def test_moving_chain_materializes_within_budget():
    rep = compute_truncation_levels(1, 3, Fraction(1, 2), (1, 1, 1))
    assert not rep.fixed
    assert rep.materialized
    assert rep.t is not None and rep.t > 1
    assert rep.level == rep.m_count * rep.t - 1
    assert all(l == rep.level + 1 for l in rep.truncations)   # d_j = d = 1
    assert 12000 < rep.level_log10 < 13000


def test_report_repr_past_the_int_digit_limit():
    # repr of a 12,367-digit level raises ValueError under the default limit
    rep = compute_truncation_levels(1, 3, Fraction(1, 2), (1, 1, 1))
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        text = repr(rep)
    finally:
        sys.set_int_max_str_digits(limit)
    assert "level=<int of 12367 digits>" in text
    assert "truncations=(<int of 12367 digits>, " in text and "m_count=19," in text
    assert bounds._field_repr((7,)) == "(7,)"


def test_moving_chain_symbolic_fallback():
    rep = compute_truncation_levels(1, 3, Fraction(1, 2), (1, 1, 1),
                                    digit_budget=100)
    assert not rep.materialized
    assert rep.t is None and rep.truncations is None
    assert rep.level_log10 > 100
    assert rep.truncation_log10 is not None


def test_floors_bound_the_unbuilt_levels():
    built = compute_truncation_levels(1, 3, Fraction(1, 2), (1, 1, 1))
    short = compute_truncation_levels(1, 3, Fraction(1, 2), (1, 1, 1),
                                      digit_budget=bounds.REPORT_DIGIT_BUDGET)
    assert built.truncation_floors == built.truncations
    assert not short.materialized and short.truncation_log10 == built.truncation_log10
    # t = C(B+p_0, B-1) >= B + p_0
    assert short.truncation_floors == (19 * (1083 + short.p0),) * 3
    assert all(10 ** 15 < f < l for f, l in zip(short.truncation_floors, built.truncations))


def test_levels_shrink_as_eps_grows():
    small = compute_truncation_levels(1, 3, Fraction(1, 4), (1, 1, 1), fixed=True)
    large = compute_truncation_levels(1, 3, Fraction(3, 4), (1, 1, 1), fixed=True)
    assert small.big_n > large.big_n
    assert small.truncations[0] > large.truncations[0]


def test_p0_certified_floor_is_deterministic():
    a = compute_p0(2, 12, 4, Fraction(1, 3))
    b = compute_p0(2, 12, 4, Fraction(1, 3))
    assert a == b
    with mpmath.workdps(80):
        pass    # context switching elsewhere must not change the result
    assert compute_p0(2, 12, 4, Fraction(1, 3)) == a
