"""Interpretation checking: term evaluation, the three conditions, lifts,
certificate files."""

import itertools
import random
from fractions import Fraction

import pytest

from polyterm import interp as interp_module
from polyterm.corpus import load_certificate, load_trs
from polyterm.interp import (
    Certificate,
    Interp,
    _mono_argument,
    _mono_shift_diff,
    arg_var,
    check_certificate,
    check_monotone,
    check_rule,
    check_well_defined,
    eval_term,
    format_certificate,
    lift_linear_n_to_q,
    lift_q_to_r,
    parse_certificate,
)
from polyterm.numeric import DomainTag, domain_n, domain_q, domain_r, quadext
from polyterm.poly import Poly, format_poly, monomial, parse_poly
from polyterm.positivity import nonneg_on
from polyterm.trs import FunSym, parse_term_text, parse_trs


def _interp(domain, **polys):
    assignment = {}
    for name, text in polys.items():
        poly = parse_poly(text)
        arity = len(poly.variables())
        assignment[FunSym(name, arity)] = poly
    return Interp(domain, assignment)


def r1_nat_interp():
    cert = load_certificate("r1_nat.cert")
    return cert.direct


def test_eval_term_interpolation_rule():
    interp = r1_nat_interp()
    t = parse_term_text("f(s(s(x)))", {"x"})
    assert eval_term(interp, t) == parse_poly("2*x^2 + 7*x + 6")


def test_eval_term_ground():
    interp = r1_nat_interp()
    assert eval_term(interp, parse_term_text("s(0)", set())) == Poly.const(1)


def test_eval_term_identity_interpretation():
    interp = Interp(domain_n(), {FunSym("f", 1): Poly.var("x1")})
    t = parse_term_text("f(f(x))", {"x"})
    assert eval_term(interp, t) == Poly.var("x")


def test_eval_term_uninterpreted_symbol():
    interp = Interp(domain_n(), {})
    with pytest.raises(ValueError):
        eval_term(interp, parse_term_text("f(x)", {"x"}))


def test_well_defined_parabola():
    over_n = Interp(domain_n(), {FunSym("f", 1): parse_poly("2*x1^2 - x1")})
    assert check_well_defined(over_n)[FunSym("f", 1)].is_proved
    over_q = Interp(domain_q(1), {FunSym("f", 1): parse_poly("2*x1^2 - x1")})
    v = check_well_defined(over_q)[FunSym("f", 1)]
    assert v.is_disproved
    x = dict(v.witness)["x1"]
    assert 0 < x < Fraction(1, 2)


def test_well_defined_constant_zero():
    interp = Interp(domain_q(1), {FunSym("c", 0): Poly.const(0)})
    assert check_well_defined(interp)[FunSym("c", 0)].is_proved


def test_well_defined_requires_integers_over_n():
    interp = Interp(domain_n(), {FunSym("f", 1): parse_poly("x1 + 1/2")})
    v = check_well_defined(interp)[FunSym("f", 1)]
    assert v.is_disproved and "integer" in v.reason


def test_monotone_closed_forms():
    f = FunSym("f", 1)
    # 2x^2 - x over N, strictly monotone
    m = check_monotone(Interp(domain_n(), {f: parse_poly("2*x1^2 - x1")}), "strict")
    assert m[f][0].is_proved
    # x^2 over Q with delta 1, strictly monotone
    m = check_monotone(Interp(domain_q(1), {f: parse_poly("x1^2")}), "strict")
    assert m[f][0].is_proved
    # x^2 + x over Q, weakly monotone
    m = check_monotone(Interp(domain_q(1), {f: parse_poly("x1^2 + x1")}), "weak")
    assert m[f][0].is_proved
    # x + y + 2 over Q, strictly monotone in both arguments
    h = FunSym("h", 2)
    m = check_monotone(Interp(domain_q(1), {h: parse_poly("x1 + x2 + 2")}), "strict")
    assert all(v.is_proved for v in m[h])


def _assert_refutes_strict_mono(poly, var, delta, verdict):
    """The witness makes poly(.., var + delta + h, ..) - poly - delta negative."""
    assert verdict.is_disproved
    point = verdict.point()
    h = point.pop("x0", Fraction(0))  # the fresh shift variable
    at = {v: point.get(v, Fraction(0)) for v in poly.variables()}
    shifted = dict(at, **{var: at[var] + delta + h})
    value = poly.eval(shifted) - poly.eval(at) - delta
    assert value < 0 and value == verdict.value


def test_monotone_failures_name_argument():
    h = FunSym("h", 2)
    poly = parse_poly("x1 + 1/2*x2")
    m = check_monotone(Interp(domain_q(1), {h: poly}), "strict")
    assert m[h][0].is_proved and m[h][1].is_disproved
    _assert_refutes_strict_mono(poly, "x2", Fraction(1), m[h][1])
    # x^2 over Q delta 2 needs a*delta + b >= 1: 2 >= 1 holds; delta 1/4 fails
    f = FunSym("f", 1)
    poly = parse_poly("x1^2")
    m = check_monotone(Interp(domain_q(Fraction(1, 4)), {f: poly}), "strict")
    assert m[f][0].is_disproved
    _assert_refutes_strict_mono(poly, "x1", Fraction(1, 4), m[f][0])


@pytest.mark.parametrize("domain, text, arg, point, value", [
    # b_2 = -1/64 < 0: the difference 1 - x2/64 is negative past x2 = 64
    (domain_q(1), "2*x1 + 2*x2 - 1/64*x1*x2 + 2", 1, {"x0": 0, "x2": 65}, Fraction(-1, 64)),
    (domain_q(1), "2*x1 + 2*x2 - 1/64*x1*x2 + 2", 2, {"x0": 0, "x1": 65}, Fraction(-1, 64)),
    # a = -1 < 0 over N: the difference 1 - 2*x1 is negative past x1 = 1/2
    (domain_n(), "-x1^2 + 3*x1 + 5", 1, {"x1": 1}, -1),
    # the slack a*delta + c - 1 = -3/4 < 0: the origin, with h = 0
    (domain_q(Fraction(1, 4)), "x1^2", 1, {"x0": 0, "x1": 0}, Fraction(-3, 16)),
], ids=["cross-1", "cross-2", "square-N", "slack"])
def test_mono_witness_from_the_failed_condition(domain, text, arg, point, value):
    h = FunSym("h", 2 if "x2" in text else 1)
    verdict = check_monotone(Interp(domain, {h: parse_poly(text)}), "strict")[h][arg - 1]
    assert (verdict.point(), verdict.value) == (point, value)
    if domain.kind == "Q":
        _assert_refutes_strict_mono(parse_poly(text), f"x{arg}", domain.delta, verdict)


def test_weak_mono_witness_steps_by_h(monkeypatch):
    # a weak step over Q0 is h alone, so the line from the origin gives a 0
    # difference; at h = 1 it is 2 - x2/64, negative past x2 = 128, and the
    # ladder is never asked
    monkeypatch.setattr(interp_module, "nonneg_on", None)
    h = FunSym("h", 2)
    poly = parse_poly("2*x1 + 2*x2 - 1/64*x1*x2 + 2")
    verdict = check_monotone(Interp(domain_q(1), {h: poly}), "weak")[h][0]
    assert (verdict.point(), verdict.value) == ({"x0": 1, "x2": 129}, Fraction(-1, 64))
    step = {"x1": 1, "x2": 129}
    assert poly.eval(step) - poly.eval(dict(step, x1=0)) == Fraction(-1, 64)


def test_monotone_fresh_variable_reduction():
    # degree 2 in two arguments: the closed-form lemma decides
    h = FunSym("h", 2)
    interp = Interp(domain_q(1), {h: parse_poly("x1*x2 + x1 + x2")})
    m = check_monotone(interp, "strict")
    assert [v.method for v in m[h]] == ["criterion-strict"] * 2
    # degree 3: the shifted difference in the fresh x0 goes to the ladder;
    # in x1 it is (2*x1*s + s^2)*x2 + s - 1 with s = 1 + x0 >= 1
    interp = Interp(domain_q(1), {h: parse_poly("x1^2*x2 + x1 + x2")})
    m = check_monotone(interp, "strict")
    assert [v.method for v in m[h]] == ["absolute-positiveness"] * 2
    # x^3 - x: 3*x^2*s + 3*x*s^2 + s^3 - s - 1 is -1 at x = 0, s = 1
    f = FunSym("f", 1)
    m = check_monotone(Interp(domain_q(1), {f: parse_poly("x1^3 - x1")}), "strict")
    assert m[f][0].point() == {"x0": 0, "x1": 0} and m[f][0].value == -1


def test_check_rule_strict_and_weak():
    interp = r1_nat_interp()
    trs = load_trs("r1.trs")
    rule8 = trs.rules[7]  # g(s(x)) -> s(s(g(x)))
    assert check_rule(interp, rule8, "strict").is_proved

    step1 = load_certificate("r1_inc_q.cert").steps[0][0]
    assert check_rule(step1, rule8, "weak").is_proved
    assert not check_rule(step1, rule8, "strict").is_proved


def test_check_rule_r3():
    interp = _interp(domain_q(1), a="1/2", f="4*x1", g="x1^2")
    r3 = load_trs("r3.trs")
    assert check_rule(interp, r3.rules[0], "strict").is_proved


def test_check_certificate_accepts_and_rejects():
    r1 = load_trs("r1.trs")
    assert check_certificate(r1_nat_interp(), r1).accepted
    r4 = load_trs("r4.trs")
    assert check_certificate(load_certificate("r4_real.cert").direct, r4).accepted
    retagged = load_certificate("r1_nat_as_q.cert").direct
    report = check_certificate(retagged, r1)
    assert not report.accepted
    sites = [(c.kind, c.symbol) for c in report.failures()]
    assert sites == [("well-defined", "f")]


def test_check_certificate_missing_symbol():
    r1 = load_trs("r1.trs")
    partial = Interp(domain_n(), {FunSym("f", 1): Poly.var("x1")})
    with pytest.raises(ValueError):
        check_certificate(partial, r1)


def test_strict_compat_implies_weak():
    interp = r1_nat_interp()
    r1 = load_trs("r1.trs")
    for rule in r1.rules:
        if check_rule(interp, rule, "strict").is_proved:
            assert check_rule(interp, rule, "weak").is_proved


def test_eval_term_is_compositional():
    interp = r1_nat_interp()
    outer = parse_term_text("g(h(y, y))", {"y"})
    inner = parse_term_text("f(s(x))", {"x"})
    plugged = parse_term_text("g(h(f(s(x)), f(s(x))))", {"x"})
    composed = eval_term(interp, outer).compose({"y": eval_term(interp, inner)})
    assert composed == eval_term(interp, plugged)


def test_lift_q_to_r_transfers_acceptance():
    r3 = load_trs("r3.trs")
    q_cert = load_certificate("r3_q.cert").direct
    q_report = check_certificate(q_cert, r3)
    lifted = lift_q_to_r(q_cert)
    assert lifted.domain.kind == "R"
    r_report = check_certificate(lifted, r3)
    assert q_report.accepted and r_report.accepted
    assert [c.verdict.status for c in q_report.conditions] == [
        c.verdict.status for c in r_report.conditions
    ]


def test_lift_q_to_r_of_rejected_is_allowed():
    r1 = load_trs("r1.trs")
    retagged = load_certificate("r1_nat_as_q.cert").direct
    lifted = lift_q_to_r(retagged)
    assert not check_certificate(lifted, r1).accepted


def test_lift_preserves_weak_verdicts():
    r1 = load_trs("r1.trs")
    step1 = load_certificate("r1_inc_q.cert").steps[0][0]
    lifted = lift_q_to_r(step1)
    for rule in r1.rules:
        assert (
            check_rule(step1, rule, "weak").status
            == check_rule(lifted, rule, "weak").status
        )


def test_lift_q_to_r_requires_q():
    with pytest.raises(ValueError):
        lift_q_to_r(r1_nat_interp())


def test_lift_linear_n_to_q():
    n_interp = Interp(
        domain_n(),
        {
            FunSym("0", 0): Poly.const(0),
            FunSym("s", 1): parse_poly("x1 + 1"),
            FunSym("f", 1): parse_poly("x1"),
            FunSym("g", 1): parse_poly("3*x1"),
            FunSym("h", 2): parse_poly("x1 + x2 + 2"),
        },
    )
    residual = load_trs("r1.trs").subsystem([1, 7, 11])  # rules (2), (8), (12)
    assert check_certificate(n_interp, residual).accepted
    q_interp = lift_linear_n_to_q(n_interp)
    assert q_interp.domain == DomainTag("Q", Fraction(1))
    assert check_certificate(q_interp, residual).accepted


def test_lift_linear_rejects_quadratic():
    with pytest.raises(ValueError):
        lift_linear_n_to_q(r1_nat_interp())


def test_lift_linear_empty_signature():
    empty = Interp(domain_n(), {})
    assert lift_linear_n_to_q(empty).domain.kind == "Q"


def test_interp_validates_variables_and_coefficients():
    with pytest.raises(ValueError):
        Interp(domain_n(), {FunSym("f", 1): parse_poly("x2")})
    with pytest.raises(ValueError):
        Interp(domain_q(1), {FunSym("f", 1): parse_poly("sqrt(2)*x1")})
    with pytest.raises(ValueError):
        Interp(domain_r(1, 3), {FunSym("f", 1): parse_poly("sqrt(2)*x1")})
    # matching radicand is fine
    Interp(domain_r(1, 2), {FunSym("f", 1): parse_poly("sqrt(2)*x1")})


def test_certificate_round_trip():
    for name in (
        "r1_nat.cert",
        "r2_real.cert",
        "r3_q.cert",
        "r4_real.cert",
        "r1_inc_q.cert",
        "r5_inc_real.cert",
    ):
        cert = load_certificate(name)
        again = parse_certificate(format_certificate(cert))
        if cert.direct is not None:
            assert again.direct == cert.direct
        else:
            assert again.steps == cert.steps


def test_certificate_parse_errors():
    with pytest.raises(ValueError):
        parse_certificate("(DOMAIN N)")
    with pytest.raises(ValueError):
        parse_certificate("(DOMAIN Q) (INTERP (f (x1) x1))")  # missing delta
    with pytest.raises(ValueError):
        parse_certificate("(DOMAIN N) (INTERP (f (x1) x1 + y))")
    # no steps is a well-formed stepwise certificate; the checker rejects it
    # wherever rules remain
    empty = parse_certificate("(STEPS )")
    assert empty.steps == () and parse_certificate(format_certificate(empty)) == empty


def test_criteria_agree_with_general_reduction_spot():
    # the closed-form lemma against the shifted difference on the ladder,
    # wherever the ladder decides, for every unary template of degree <= 2
    # and every binary linear one of small grids (the constant cancels in
    # both, so it stays 0); the step sqrt(2) keeps the ladder's grid rung
    # cheap, where sqrt(2) coefficients would not be
    halves = [Fraction(n, 2) for n in range(-2, 3)]
    grids = [
        (domain_n(), [Fraction(n) for n in range(-2, 3)]),
        (domain_q(Fraction(1, 2)), halves),
        (domain_q(1), halves),
        (domain_r(quadext(0, 1, 2), 2), halves),
    ]
    x1, x2 = Poly.var("x1"), Poly.var("x2")
    decided = 0
    for domain, values in grids:
        for a, b in itertools.product(values, repeat=2):
            unary, linear = (x1 * x1).scale(a) + x1.scale(b), x1.scale(a) + x2.scale(b)
            for poly, arity in (unary, 1), (linear, 2):
                for i, kind in itertools.product(range(1, arity + 1), ("strict", "weak")):
                    closed = _mono_argument(poly, i, kind, domain)
                    shifted = _mono_shift_diff(poly, arg_var(i), kind, domain)
                    ladder = nonneg_on(shifted, domain.base)
                    if not ladder.is_unknown:
                        decided += 1
                        assert closed.status == ladder.status, (format_poly(poly), i, kind, domain)
    assert decided > 500


def _refuted(poly, var, kind, domain):
    """A sampled point and step where f(.., var + s, ..) - f - margin < 0, exactly.

    The step s is 1 over N and margin + h otherwise, for h in {0, 1/8, 64}.
    """
    margin = domain.strict_margin if kind == "strict" else Fraction(0)
    steps = [1] if domain.kind == "N" else [margin + h for h in (0, Fraction(1, 8), 64)]
    for point in itertools.product((0, Fraction(1, 2), 64), repeat=2):
        at = dict(zip(("x1", "x2"), map(Fraction, point)))
        for s in steps:
            if poly.eval(dict(at, **{var: at[var] + s})) - poly.eval(at) - margin < 0:
                return True
    return False


def test_mono_lemma_against_sampled_differences():
    # binary quadratics: the lemma decides, and exact sampling agrees with it;
    # on these grids a failed condition shows at the origin (the bound) or at
    # 64 in var, in x_j or in h (a < 0, b_j < 0)
    rng = random.Random(2014)
    halves = [Fraction(n, 2) for n in range(-2, 5)]
    grids = [
        (domain_n(), [Fraction(n) for n in (-1, 0, 1, 2)]),
        (domain_q(Fraction(1, 2)), halves),
        (domain_q(1), halves),
        (domain_r(quadext(0, 1, 2), 2), [quadext(a, b, 2) for a in (-1, 0, 1) for b in (-1, 0, 1)]),
    ]
    shapes = [{"x1": 2}, {"x1": 1, "x2": 1}, {"x2": 2}, {"x1": 1}, {"x2": 1}]
    outcomes = set()
    for domain, values in grids:
        for _ in range(40):
            poly = Poly({monomial(m): rng.choice(values) for m in shapes})
            for var, kind in itertools.product(("x1", "x2"), ("strict", "weak")):
                closed = _mono_argument(poly, int(var[1:]), kind, domain)
                assert closed.is_proved != _refuted(poly, var, kind, domain), (
                    format_poly(poly), var, kind, domain)
                outcomes.add(closed.status)
    assert outcomes == {"proved", "disproved"}
