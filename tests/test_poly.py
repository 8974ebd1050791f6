"""Polynomial arithmetic, composition, shifting, evaluation, text format."""

import random
from fractions import Fraction

import pytest

from polyterm.numeric import quadext
from polyterm.poly import (
    MINUS_INF,
    Poly,
    format_poly,
    monomial,
    parse_poly,
)

X = parse_poly("x")


def test_sub_basic():
    assert parse_poly("x + 1") - X == Poly.const(1)


def test_sub_quadratic_margin():
    # the constant gap between the two sides of an interpolation rule
    diff = parse_poly("2*x^2 + 7*x + 6") - parse_poly("2*x^2 + 7*x + 4")
    assert diff == Poly.const(2)


def test_mul_checked_by_evaluation():
    p, q = parse_poly("2*x + 1"), parse_poly("2*x - 1")
    prod = p * q
    assert prod == parse_poly("4*x^2 - 1")
    for v in (0, 1, 2):
        point = {"x": Fraction(v)}
        assert prod.eval(point) == p.eval(point) * q.eval(point)


def test_compose_linear_into_quadratic():
    p = parse_poly("2*x^2 - x")
    assert p.compose({"x": parse_poly("4*x + 4")}) == parse_poly(
        "32*x^2 + 60*x + 28"
    )


def test_compose_identity():
    p = parse_poly("3*x^2 - 2*x + 1")
    assert p.compose({"x": X}) == p


def test_compose_chain():
    # g(g(f(x))) with f = x^2, g = 3x + 5
    f = parse_poly("x^2")
    g = parse_poly("3*x + 5")
    out = g.compose({"x": g.compose({"x": f})})
    assert out == parse_poly("9*x^2 + 20")


def test_compose_missing_entry():
    with pytest.raises(ValueError):
        parse_poly("x + y").compose({"x": X})


def test_shift_expands():
    assert parse_poly("2*x^2 - x").shift("x", 1) == parse_poly("2*x^2 + 3*x + 1")


def test_shift_zero_identity():
    p = parse_poly("x^2 + x + 7")
    assert p.shift("x", 0) == p


def test_shift_by_delta_excess():
    delta = Fraction(1, 2)
    shifted = parse_poly("x^2").shift("x", delta)
    excess = shifted - parse_poly("x^2") - Poly.const(delta)
    assert excess.eval({"x": Fraction(0)}) == delta * delta - delta


def test_shift_additive():
    rng = random.Random(3)
    for _ in range(50):
        p = _random_poly(rng)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert p.shift("x", a).shift("x", b) == p.shift("x", a + b)


def test_eval():
    p = parse_poly("2*x^2 - x")
    assert p.eval({"x": Fraction(1, 4)}) == Fraction(-1, 8)
    assert p.eval({"x": Fraction(0)}) == 0
    q = parse_poly("x^2 + 3*y + 5/2")
    assert q.eval({"x": 0, "y": 0}) == Fraction(5, 2)
    with pytest.raises(ValueError):
        q.eval({"x": 1})


def test_degree_and_coeff():
    assert parse_poly("2*x^2 - x").degree() == 2
    assert Poly.zero().degree() == MINUS_INF
    assert Poly.const(5).degree() == 0
    assert parse_poly("32*x^2 + 60*x + 28").coeff({"x": 1}) == 60
    assert parse_poly("x^2").coeff({"x": 1}) == 0


def test_degree_multiplies_under_composition():
    # deg(g(s(x))) = deg(g) * deg(s) for interpretations with positive lead
    g = parse_poly("3*x^2 + x")
    s = parse_poly("2*x^2 + 1")
    assert g.compose({"x": s}).degree() == 4


def _random_poly(rng, vars=("x",), max_deg=2):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = monomial({v: rng.randint(0, max_deg) for v in vars})
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(terms)


def test_composition_homomorphism():
    rng = random.Random(11)
    for _ in range(150):
        p = _random_poly(rng, vars=("x", "y"))
        sub = {"x": _random_poly(rng), "y": _random_poly(rng)}
        point = {"x": Fraction(rng.randint(-3, 3)), "y": Fraction(rng.randint(-3, 3))}
        lhs = p.compose(sub).eval(point)
        rhs = p.eval({v: sub[v].eval(point) for v in ("x", "y")})
        assert lhs == rhs


def test_degree_additive_under_product():
    rng = random.Random(13)
    for _ in range(100):
        p, q = _random_poly(rng), _random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_format_canonical_order():
    assert format_poly(parse_poly("1/2 + 3*x + c*x^2*y".replace("c*", ""))) in (
        "x^2*y + 3*x + 1/2",
    )
    assert format_poly(parse_poly("x2 + x1")) == "x1 + x2"
    assert format_poly(parse_poly("y^2 + x*y + x^2")) == "x^2 + x*y + y^2"
    assert format_poly(Poly.zero()) == "0"


def test_quadext_coefficients_round_trip():
    p = parse_poly("sqrt(2)*x + 1")
    assert p.coeff({"x": 1}) == quadext(0, 1, 2)
    assert parse_poly(format_poly(p)) == p
    q = parse_poly("2*sqrt(2)*x^2 - 1/2*sqrt(2)*x + 3")
    assert parse_poly(format_poly(q)) == q
    mixed = Poly({monomial({"x": 1}): quadext(1, 2, 2)})
    assert parse_poly(format_poly(mixed)) == mixed


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse_poly("x + y", variables=["x"])


def test_round_trip_random():
    rng = random.Random(17)
    for _ in range(150):
        p = _random_poly(rng, vars=("x", "y", "z"))
        assert parse_poly(format_poly(p)) == p
