"""Exact scalar arithmetic: construction, sign, ordering, text format."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from polyterm.numeric import (
    MAX_RADICAND,
    DomainTag,
    QuadExt,
    domain_n,
    domain_q,
    domain_r,
    format_scalar,
    quadext,
    scalar_sign,
)
from polyterm.poly import parse_scalar


def test_rat_make_reduces():
    assert parse_scalar("5/10") == Fraction(1, 2)


def test_rat_make_plain():
    assert parse_scalar("5/2") == Fraction(5, 2)


def test_rat_make_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")


def test_sqrt2_squared_is_two():
    r2 = quadext(0, 1, 2)
    assert r2 * r2 == Fraction(2)
    assert isinstance(r2 * r2, Fraction)


def test_addition_cancels_radical():
    x = parse_scalar("1+sqrt(2)")
    y = parse_scalar("2-sqrt(2)")
    assert x + y == Fraction(3)


def test_sign_examples():
    assert scalar_sign(parse_scalar("3-2*sqrt(2)")) == 1
    assert scalar_sign(parse_scalar("1-sqrt(2)")) == -1
    assert scalar_sign(quadext(0, 0, 2)) == 0
    assert scalar_sign(Fraction(-7, 3)) == -1


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        quadext(0, 1, 2) + quadext(0, 1, 3)


def test_division():
    r2 = quadext(0, 1, 2)
    assert Fraction(2) / r2 == r2
    assert r2 / r2 == 1
    assert r2 / Fraction(2) == quadext(0, Fraction(1, 2), 2)
    assert r2 / 2 == quadext(0, Fraction(1, 2), 2)
    assert parse_scalar("1+sqrt(2)") / parse_scalar("1+sqrt(2)") == 1
    with pytest.raises(ZeroDivisionError):
        r2 / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        r2 / 0


def test_square_free_enforced():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 4)
    with pytest.raises(ValueError):
        QuadExt(0, 1, 12)


def test_radicand_bounded():
    assert MAX_RADICAND == 10**6
    assert QuadExt(0, 1, 999_997).d == 999_997  # square-free, below the bound
    for d in (MAX_RADICAND + 1, 10**18 + 3):  # above the bound
        with pytest.raises(ValueError):
            QuadExt(0, 1, d)
        with pytest.raises(ValueError):
            domain_r(1, d)


def test_quadext_equals_rational_when_b_zero():
    assert quadext(Fraction(3, 2), 0, 2) == Fraction(3, 2)
    assert QuadExt(Fraction(3, 2), 0, 2) == Fraction(3, 2)
    assert hash(QuadExt(Fraction(3, 2), 0, 2)) == hash(Fraction(3, 2))


def _interval_sign(x, bits=64):
    """Sign via interval arithmetic, widened until unambiguous.

    Lower/upper bounds of sqrt(d) at 2^-bits resolution; the interval of
    a + b*sqrt(d) either excludes zero (sign known) or gets refined.
    """
    if not isinstance(x, QuadExt):
        return scalar_sign(x)
    while True:
        scale = 1 << bits
        lo_root = Fraction(isqrt(x.d * scale * scale), scale)
        hi_root = lo_root + Fraction(1, scale)
        if x.b >= 0:
            lo, hi = x.a + x.b * lo_root, x.a + x.b * hi_root
        else:
            lo, hi = x.a + x.b * hi_root, x.a + x.b * lo_root
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == 0 and hi == 0:
            return 0
        bits *= 2
        if bits > 4096:  # only reachable for a + b*sqrt(d) exactly zero
            return 0


def test_sign_matches_interval_oracle():
    rng = random.Random(20140901)
    for _ in range(400):
        d = rng.choice([2, 3, 5, 7])
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        x = quadext(a, b, d)
        y = quadext(rng.randint(-3, 3), rng.randint(-3, 3), d)
        diff = x - y
        assert scalar_sign(diff) == _interval_sign(diff)


def test_field_axioms_random():
    rng = random.Random(7)

    def rand_scalar():
        if rng.random() < 0.4:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return quadext(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            2,
        )

    for _ in range(300):
        x, y, z = rand_scalar(), rand_scalar(), rand_scalar()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if scalar_sign(x) != 0:
            assert x / x == 1
            assert x * (Fraction(1) / x) == 1


def test_total_order():
    vals = [parse_scalar(s) for s in ["0", "1", "sqrt(2)", "3/2", "1+sqrt(2)", "-sqrt(2)"]]
    s = sorted(vals)
    assert [format_scalar(v) for v in s] == ["-sqrt(2)", "0", "1", "sqrt(2)", "3/2", "1+sqrt(2)"]


def test_text_round_trip():
    rng = random.Random(99)
    samples = ["-3", "5/2", "1+2*sqrt(2)", "-1/2*sqrt(3)", "0", "sqrt(5)"]
    for text in samples:
        v = parse_scalar(text)
        assert parse_scalar(format_scalar(v)) == v
    # a scalar is a constant polynomial: coefficient factors multiply
    assert parse_scalar("3*3") == 9
    assert parse_scalar("1/2*sqrt(2)*2") == quadext(0, 1, 2)
    for text in ["x1", "", "1/0"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(text)
    for _ in range(200):
        v = quadext(
            Fraction(rng.randint(-50, 50), rng.randint(1, 16)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 16)),
            rng.choice([2, 3, 5]),
        )
        assert parse_scalar(format_scalar(v)) == v


def test_whitespace_insignificant():
    assert parse_scalar(" 1 + 2 * sqrt ( 2 ) ") == parse_scalar("1+2*sqrt(2)")
    assert parse_scalar(" 3 * 3 ") == parse_scalar("3*3") == 9
    assert parse_scalar(" 1 / 2 * sqrt ( 2 ) * 2 ") == quadext(0, 1, 2)
    for text in [" x1 ", "   ", " 1 / 0 "]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(text)


def test_domain_tags():
    assert domain_n().base == "N"
    assert domain_n().strict_margin == 1
    q = domain_q(Fraction(1, 2))
    assert q.base == "Q0" and q.strict_margin == Fraction(1, 2)
    r = domain_r(1, 2)
    assert r.base == "R0" and r.d == 2
    with pytest.raises(ValueError):
        domain_q(0)
    with pytest.raises(ValueError):
        domain_q(-1)
    with pytest.raises(ValueError):
        DomainTag("N", Fraction(1))
    with pytest.raises(ValueError):
        domain_r(1, 4)
    with pytest.raises(ValueError, match=r"^mixed radicands sqrt\(2\) and sqrt\(3\)$"):
        domain_r(quadext(0, 1, 3), 2)
    assert domain_r(quadext(0, 1, 3)).strict_margin == quadext(0, 1, 3)
