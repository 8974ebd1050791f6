"""The non-negativity decision ladder and its soundness guarantees."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyterm import positivity
from polyterm.poly import Poly, parse_poly
from polyterm.positivity import (
    Verdict,
    excess_at_least,
    nonneg_on,
    quad_nonneg_halfline,
)

QUARTER_GRID = [Fraction(n, 4) for n in range(17)]  # 0, 1/4, ..., 4
NAT_GRID = [Fraction(n) for n in range(9)]


def _grid_sound(p, base):
    grid = NAT_GRID if base == "N" else QUARTER_GRID
    names = p.variables()
    for point in itertools.product(grid, repeat=len(names)):
        if p.eval(dict(zip(names, point))) < 0:
            return False
    return True


def test_parabola_disproved_on_rationals():
    v = nonneg_on(parse_poly("2*x^2 - x"), "Q0")
    assert v.is_disproved
    assert dict(v.witness) == {"x": Fraction(1, 4)}
    assert v.value == Fraction(-1, 8)


def test_parabola_proved_on_naturals():
    v = nonneg_on(parse_poly("2*x^2 - x"), "N")
    assert v.is_proved and "s=1" in v.method


def test_shifted_proof_example():
    assert nonneg_on(parse_poly("4*x^2 - 2*x"), "N").is_proved


def test_zero_polynomial():
    assert nonneg_on(Poly.zero(), "Q0").is_proved
    assert nonneg_on(Poly.zero(), "N").is_proved


def test_negative_constant():
    v = nonneg_on(Poly.const(Fraction(-1, 3)), "R0")
    assert v.is_disproved and v.witness == ()


def test_absolute_positiveness_any_domain():
    p = parse_poly("x^2*y + x + 1/2")
    for base in ("N", "Q0", "R0"):
        assert nonneg_on(p, base).method in ("absolute-positiveness", None)
        assert nonneg_on(p, base).is_proved


def test_excess_examples():
    assert excess_at_least(
        parse_poly("8*x^2 + 2*x + 1"), parse_poly("4*x^2 + 4*x"), 1, "N"
    ).is_proved
    assert excess_at_least(
        parse_poly("4*x^2 + 2*x + 1"), parse_poly("4*x^2 + 2*x"), 1, "R0"
    ).is_proved
    p = parse_poly("x^2 + 2")
    assert excess_at_least(p, p, 0, "Q0").is_proved
    assert not excess_at_least(p, p, 1, "Q0").is_proved


def test_excess_rejects_negative_margin():
    with pytest.raises(ValueError):
        excess_at_least(Poly.const(1), Poly.const(0), Fraction(-1), "Q0")


def test_unknown_is_a_value():
    # multivariate, not absolutely positive, nonnegative but off-grid tight:
    # (x - y)^2 is nonnegative yet the ladder has no exact multivariate step
    v = nonneg_on(parse_poly("x^2 - 2*x*y + y^2"), "Q0")
    assert v.is_unknown


def _brute_force_quad(a, b, c):
    """Sign of ax^2+bx+c at 0, at a large point, and at the vertex if it
    lies in the half-line: the real-root check the criterion must match."""
    p = parse_poly("0") + Poly.const(c)
    p = p + parse_poly("x").scale(b) + parse_poly("x^2").scale(a)
    if p.eval({"x": Fraction(0)}) < 0:
        return False
    if a != 0:
        big = (abs(b) + abs(c)) / abs(a) + 1
    elif b != 0:
        big = (abs(c) + 1) / abs(b) + 1
    else:
        big = Fraction(1)
    if p.eval({"x": big}) < 0:
        return False
    if a > 0:
        vertex = -b / (2 * a)
        if vertex > 0 and p.eval({"x": vertex}) < 0:
            return False
    return True


def test_quadratic_criterion_matches_brute_force():
    rng = random.Random(424242)
    for _ in range(1000):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert quad_nonneg_halfline(a, b, c, "Q0") == _brute_force_quad(a, b, c)


@settings(max_examples=200, deadline=None)
@given(an=st.integers(-6, 6).filter(bool), ad=st.integers(1, 6), vn=st.integers(33, 2000),
       vr=st.integers(0, 5), vd=st.integers(1, 6), k=st.integers(-60, 60), kd=st.integers(1, 10))
@example(an=1, ad=1, vn=40, vr=4, vd=5, k=-1, kd=10)  # >= 0 at 40, the vertex's floor, < 0 at 41
@example(an=1, ad=1, vn=40, vr=0, vd=1, k=-60, kd=1)  # < 0 on 33..47 around the vertex 40
def test_quadratic_over_n_matches_brute_force(an, ad, vn, vr, vd, k, kd):
    # p = a*x*(x - 2v) + c with the vertex v = vn + vr/vd past the grid's 32,
    # and c = a*v^2 + k/kd for a > 0 (p = a*(x - v)^2 + k/kd), else k/kd:
    # p < 0 nowhere on N past 2v + |c|/(2|a|v), or from a point below it on
    a, v = Fraction(an, ad), vn + Fraction(vr, vd)
    b, c = -2 * a * v, (a * v * v if a > 0 else 0) + Fraction(k, kd)
    scale = math.lcm(a.denominator, b.denominator, c.denominator)
    ai, bi, ci = int(a * scale), int(b * scale), int(c * scale)
    end = int(2 * v + abs(c) / (2 * abs(a) * v)) + 3
    least = next((x for x in range(end) if (ai * x + bi) * x + ci < 0), None)
    p = parse_poly("x^2").scale(a) + parse_poly("x").scale(b) + Poly.const(c)
    assert quad_nonneg_halfline(a, b, c, "N") is (least is None)
    verdict = nonneg_on(p, "N")
    if least is None:
        assert verdict.method == "quadratic-criterion"
    else:
        assert verdict.witness == (("x", least),) and verdict.value == p.eval({"x": least})


def test_quadratics_over_n_the_old_ladder_left_unknown():
    # the shifted rung needs s = 10, past DEFAULT_SHIFT_BOUND, for the first,
    # and the second is negative only past the grid's 0..32
    v = nonneg_on(parse_poly("x1^2 - 20*x1 + 100"), "N")
    assert (v.status, v.method) == ("proved", "quadratic-criterion")
    v = nonneg_on(parse_poly("-1*x1^2 + 100*x1"), "N")
    assert v.describe() == "disproved (at x1=101: -101)"
    # with an irrational coefficient the floor of the vertex is not taken
    v = nonneg_on(parse_poly("x1^2 - 40*sqrt(2)*x1 + 1"), "N")
    assert v.describe() == "disproved (at x1=1: 2-40*sqrt(2))"


def _random_poly(rng, nvars):
    names = ["x", "y"][:nvars]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = []
        deg = 0
        for v in names:
            e = rng.randint(0, 2 - min(deg, 2))
            deg += e
            if e:
                mono.append((v, e))
        terms[tuple(sorted(mono))] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    return Poly(terms)


def test_soundness_of_proved_and_disproved():
    rng = random.Random(5150)
    proved = disproved = 0
    for _ in range(400):
        p = _random_poly(rng, rng.randint(1, 2))
        for base in ("N", "Q0"):
            v = nonneg_on(p, base)
            if v.is_proved:
                proved += 1
                assert _grid_sound(p, base), (p, base, v)
            elif v.is_disproved:
                disproved += 1
                point = dict(v.witness)
                value = p.eval(point)
                assert value < 0 and value == v.value
                if base == "N":
                    assert all(x.denominator == 1 and x >= 0 for x in point.values())
                else:
                    assert all(x >= 0 for x in point.values())
    assert proved > 50 and disproved > 50  # the sample exercises both arms


def test_quadratic_witness_is_vertex():
    p = parse_poly("x^2 - 5*x + 6")  # negative exactly on (2, 3)
    v = nonneg_on(p, "Q0")
    assert v.is_disproved and dict(v.witness)["x"] == Fraction(5, 2)
    assert v.value == Fraction(-1, 4)


def test_grid_witness_is_least_in_canonical_order():
    # cubic: beyond the exact criterion, so the sampling grid must find it;
    # denominator-major order scans integers, then halves, quarters, eighths,
    # and x^3 - 5x^2 + 6x is negative on (2, 3) only: no integer hit, and the
    # first half-integer hit is 5/2
    p = parse_poly("x^3 - 5*x^2 + 6*x")
    v = nonneg_on(p, "Q0")
    assert v.is_disproved and dict(v.witness)["x"] == Fraction(5, 2)


def test_grid_search_stops_at_the_sample_cap(monkeypatch):
    # the cubic's first negative grid point, 5/2, is the 36th: a cap of 10
    # leaves it Unknown after 10 evaluations at most
    p = parse_poly("x^3 - 5*x^2 + 6*x")
    evaluations = []

    def counted(self, binding):
        evaluations.append(binding)
        return evaluate(self, binding)

    evaluate = Poly.eval
    monkeypatch.setattr(positivity, "SAMPLE_CAP", 10)
    monkeypatch.setattr(Poly, "eval", counted)
    assert nonneg_on(p, "Q0").is_unknown
    assert 0 < len(evaluations) <= 10
