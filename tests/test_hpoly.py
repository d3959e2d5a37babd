import random
from math import comb

import pytest

from nevlab.fields import GaussRat
from nevlab.hpoly import HPoly, monomials


def _rand_form(rng, nvars, d):
    coeffs = {e: rng.randint(-4, 4) for e in monomials(nvars - 1, d)
              if rng.random() < 0.7}
    coeffs = {e: c for e, c in coeffs.items() if c}
    return HPoly(nvars, d, coeffs) if coeffs else HPoly.coordinate(nvars, 0) ** d


def test_monomials_enumeration():
    ms = monomials(2, 2)        # degree-2 monomials in x0, x1, x2
    assert len(ms) == comb(4, 2)
    assert all(len(monomials(n, d)) == comb(n + d, n)
               for n in range(4) for d in range(5))
    assert all(sum(e) == 2 and len(e) == 3 for e in ms)
    assert ms[0] == (2, 0, 0)               # lex descending
    assert list(ms) == sorted(ms, reverse=True)
    assert monomials(3, 0) == ((0, 0, 0, 0),)


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        HPoly(2, 2, {(1, 0): 1})            # total degree 1 != 2
    with pytest.raises(ValueError):
        HPoly(2, 1, {(1, 0, 0): 1})         # three exponents for two vars


def test_mul_adds_degrees_and_matches_evaluation():
    rng = random.Random(7)
    for _ in range(30):
        p = _rand_form(rng, 2, rng.randint(1, 2))
        q = _rand_form(rng, 2, rng.randint(1, 2))
        prod = p * q
        assert prod.degree == p.degree + q.degree
        xs = [GaussRat(rng.randint(-3, 3)), GaussRat(rng.randint(-3, 3))]
        assert prod(xs) == p(xs) * q(xs)


def test_pow_matches_repeated_mul():
    p = HPoly.coordinate(3, 0) + HPoly.coordinate(3, 2)
    assert p ** 3 == p * p * p
    assert p ** 1 == p
    assert (p ** 2).degree == 2


def test_scalar_multiplication_both_sides():
    p = HPoly.coordinate(2, 1)
    assert 3 * p == p * 3 == p + p + p
    assert (p * GaussRat(0, 1)).coeffs[(0, 1)] == GaussRat(0, 1)


def test_terms_desc_is_lex_sorted():
    rng = random.Random(13)
    p = _rand_form(rng, 3, 2)
    exps = [e for e, _ in p.terms_desc()]
    assert exps == sorted(exps, reverse=True)
