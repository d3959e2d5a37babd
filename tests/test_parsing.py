import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nevlab import parsing
from nevlab.expfunc import ExpPoly
from nevlab.fields import GaussRat, RatFunc, ZPoly
from nevlab.parsing import (ParseError, SchemaError, _coef_from_json, _parse,
                            curve_from_json, family_from_json, hpoly_from_json,
                            load_json_file, parse_ratfunc, parse_scalar, parse_zpoly)


def test_scalar_forms():
    assert parse_scalar("1/2") == GaussRat(Fraction(1, 2))
    assert parse_scalar("3+2i") == GaussRat(3, 2)
    assert parse_scalar("-1/2") == GaussRat(Fraction(-1, 2))
    assert parse_scalar("3i") == GaussRat(0, 3)
    assert parse_scalar("i^2") == GaussRat(-1)
    assert parse_scalar("(1+i)(1-i)") == GaussRat(2)
    assert parse_scalar("2 * -3") == GaussRat(-6)


def test_scalar_rejects_variable():
    with pytest.raises(ParseError):
        parse_scalar("z+1")


def test_polynomial_conventions():
    z = ZPoly((0, 1))
    assert parse_zpoly("z^2 - 2z + 1") == z * z - 2 * z + 1
    assert parse_zpoly("1/2z") == z * GaussRat(Fraction(1, 2))   # (1/2) * z
    assert parse_zpoly("-z^2") == -(z * z)
    assert parse_zpoly("(z-1)(z+1)") == z * z - 1
    assert parse_zpoly("0") == ZPoly()


def test_zpoly_rejects_denominator():
    with pytest.raises(ParseError) as exc:
        parse_zpoly("1/(z+1)")
    assert "denominator" in str(exc.value)
    # dividing by a constant is fine
    assert parse_zpoly("z/2") == ZPoly((0, Fraction(1, 2)))


def test_ratfunc_round_trips():
    f = parse_ratfunc("(z^2+1)/(z-3)")
    assert f == RatFunc(ZPoly((1, 0, 1)), ZPoly((-3, 1)))
    assert parse_ratfunc(str(f)) == f
    assert parse_ratfunc("1/(z+10)") == RatFunc(ZPoly((1,)), ZPoly((10, 1)))


@pytest.mark.parametrize("src, num, den", [
    ("3/6", (Fraction(1, 2),), (1,)),
    ("2-i", (GaussRat(2, -1),), (1,)),
    ("(2+i)/(z+3)", (GaussRat(2, 1),), (3, 1)),
    ("z/z", (1,), (1,)),
    ("i(1/2 - z)", (GaussRat(0, Fraction(1, 2)), GaussRat(0, -1)), (1,)),
])
def test_values_are_reduced_rational_functions(src, num, den):
    # constants are parsed as Gaussian rationals and promoted only where z
    # appears; the result is always a reduced RatFunc
    v = parse_ratfunc(src)
    assert isinstance(v, RatFunc)
    assert (v.num, v.den) == (ZPoly(num), ZPoly(den))


def test_division_by_zero_is_positioned():
    with pytest.raises(ParseError) as exc:
        parse_ratfunc("1/(z-z)")
    err = exc.value
    assert err.position == 1
    caret = err.caret().splitlines()
    assert caret[0] == "1/(z-z)"
    assert caret[1][err.position] == "^"
    with pytest.raises(ParseError) as exc:
        parse_ratfunc("(2+i)/(i-i)")              # a zero Gaussian rational
    assert exc.value.position == 5


def test_unbalanced_paren_caret():
    with pytest.raises(ParseError) as exc:
        parse_ratfunc("1 + (z^2")
    assert exc.value.position == 8
    assert "expected ')'" in exc.value.message


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_zpoly("z^-2")


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_zpoly_str_round_trip(coeffs):
    p = ZPoly(coeffs)
    assert parse_zpoly(str(p)) == p


@given(st.fractions(min_value=-5, max_value=5, max_denominator=4),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_scalar_str_round_trip(re, im):
    s = GaussRat(re, im)
    assert parse_scalar(str(s)) == s


def _literal_spellings(rng):
    """Gaussian-integer literals as a JSON system spells them, "a" or "a+bi"
    with a sign on b, and random ones: signs on either part, leading zeros,
    a bare or signed "i", and integers of up to 60 digits."""
    out = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            out.append(str(a) if b == 0 else f"{a}{'+' if b > 0 else '-'}{abs(b)}i")

    def digits():
        width = rng.choice((1, 1, 2, 60))
        return "0" * rng.randint(0, 2) + str(rng.randrange(10 ** width))

    for _ in range(400):
        real = rng.choice(("", "-", "+")) + digits()
        imag = rng.choice(("", "-", "+")) + rng.choice(("", digits())) + "i"
        kind = rng.randrange(3)
        if kind == 0:
            out.append(real)
        elif kind == 1:
            out.append(imag)
        else:
            out.append(real + (imag if imag[0] in "+-" else "+" + imag))
    return out


def _counting_parser(monkeypatch):
    built = []

    class Counted(parsing._Parser):
        def __init__(self, src):
            built.append(src)
            super().__init__(src)

    monkeypatch.setattr(parsing, "_Parser", Counted)
    return built


def test_coefficient_literals_read_as_the_grammar_reads_them(monkeypatch):
    spellings = _literal_spellings(random.Random(4242))
    want = [_parse(s) for s in spellings]
    built = _counting_parser(monkeypatch)
    got = [_coef_from_json(s, "coef") for s in spellings]
    assert built == []                    # no literal reaches the grammar
    assert got == want
    assert [type(g) for g in got] == [type(w) for w in want] == [GaussRat] * len(want)
    assert _coef_from_json("12i", "coef") == GaussRat(0, 12)


def test_other_coefficients_still_reach_the_grammar(monkeypatch):
    valid = [" 1 + 2i", "i2", "+-1", "1/2", "(1+2i)", "1+2", "ii", "2i+1", "1-2i\n", "\u0663",
             "i^2", "z/(z+1)"]
    broken = ["", "1+", "2i)", "1 ++", "3x", "1/0", "1-2i)", "(1", "1+2j", "--"]
    want = [_parse(s) for s in valid]
    errors = []
    for s in broken:
        with pytest.raises(ParseError) as exc:
            _parse(s)
        errors.append(exc.value)
    built = _counting_parser(monkeypatch)
    assert [_coef_from_json(s, "p.coef") for s in valid] == [
        w if isinstance(w, GaussRat) or not w.is_constant() else w.constant_value() for w in want]
    for s, err in zip(broken, errors):
        with pytest.raises(SchemaError) as exc:
            _coef_from_json(s, "p.coef")
        assert exc.value.path == "p.coef"
        assert exc.value.message == str(err)
        assert isinstance(exc.value.__cause__, ParseError)
        assert exc.value.__cause__.caret() == err.caret()
    assert built == valid + broken


def _sys_doc():
    return {
        "n": 1,
        "polynomials": [
            {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"}]},
            {"degree": 1, "terms": [{"exp": [0, 1], "coef": "1"}]},
            {"degree": 1, "terms": [{"exp": [1, 0], "coef": "1"},
                                    {"exp": [0, 1], "coef": "1/(z+10)"}]},
        ],
    }


def test_family_from_json_moving():
    fam = family_from_json(_sys_doc())
    assert fam.n == 1 and fam.q == 3
    assert fam.is_moving()
    assert fam.polys[2].coeffs[(0, 1)] == RatFunc(ZPoly((1,)), ZPoly((10, 1)))


def test_schema_errors_carry_paths():
    doc = _sys_doc()
    doc["polynomials"][0]["terms"][0]["exp"] = [2, 0]
    with pytest.raises(SchemaError) as exc:
        family_from_json(doc)
    assert "polynomials[0].terms[0].exp" in str(exc.value)

    doc = _sys_doc()
    doc["polynomials"][1]["terms"] = []
    with pytest.raises(SchemaError):
        family_from_json(doc)

    with pytest.raises(SchemaError):
        family_from_json({"n": 1})                   # missing polynomials


def test_hpoly_from_json_validates():
    good = hpoly_from_json({"degree": 2,
                            "terms": [{"exp": [1, 1], "coef": "2i"}]})
    assert good.coeffs[(1, 1)] == GaussRat(0, 2)
    with pytest.raises(SchemaError):
        hpoly_from_json({"degree": 2, "terms": [{"exp": [1, 1], "coef": "0"}]})
    with pytest.raises(SchemaError):
        hpoly_from_json({"degree": 1,
                         "terms": [{"exp": [1, 0], "coef": "1"},
                                   {"exp": [1, 0], "coef": "2"}]})


def test_curve_from_json():
    doc = {"components": [
        {"terms": [{"poly": "1"}]},
        {"terms": [{"poly": "z", "exp_coef": "0"},
                   {"poly": "1", "exp_coef": "1"}]},
    ]}
    curve = curve_from_json(doc)
    assert curve.components[0] == ExpPoly.const(1)
    assert curve.components[1] == ExpPoly.var() + ExpPoly.exp(1)
    bad = {"components": [{"terms": [{"poly": "1/(z+1)"}]},
                          {"terms": [{"poly": "1"}]}]}
    with pytest.raises(SchemaError) as exc:
        curve_from_json(bad)
    assert "components[0].terms[0].poly" in str(exc.value)


def test_load_json_file_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"n": 1,\n  "polynomials": [}\n')
    with pytest.raises(SchemaError) as exc:
        load_json_file(str(p))
    assert "line 2" in str(exc.value)
    with pytest.raises(SchemaError):
        load_json_file(str(tmp_path / "missing.json"))
