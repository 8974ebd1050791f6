"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Everything is checked at tolerance zero; the only stated
tolerances are wall-clock budgets, asserted where the criterion names one.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from polyterm.corpus import load_certificate, load_corpus, load_trs
from polyterm.interp import (
    Interp,
    check_certificate,
    check_incremental,
    eval_term,
    lift_linear_n_to_q,
    lift_q_to_r,
    linear_permissible,
    nat_quad_permissible,
    qr_quad_strict_permissible,
    qr_quad_weak_permissible,
)
from polyterm.numeric import DomainTag, domain_n, scalar_sign
from polyterm.poly import Poly, parse_poly, parse_scalar
from polyterm.positivity import nonneg_on
from polyterm.prover import (
    SearchConfig,
    exhaustion_report,
    search_direct,
    search_incremental,
)
from polyterm.trs import FunSym, parse_term_text, parse_trs


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {title}")
        raise
    print(f"[criterion {number}] PASS {title}")


def _check(trs_name, cert_name):
    trs = load_trs(trs_name)
    cert = load_certificate(cert_name)
    started = time.monotonic()
    report = check_certificate(cert, trs)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"{cert_name} took {elapsed:.2f}s"
    return report


R1_INEQUALITY_TABLE = [
    ("1", "0"),
    ("2", "1"),
    ("7", "6"),
    ("1", "0"),
    ("6", "5"),
    ("2*x^2 + 7*x + 6", "2*x^2 + 7*x + 4"),
    ("32*x^2 + 60*x + 28", "32*x^2 - 16*x + 20"),
    ("4*x + 8", "4*x + 6"),
    ("4*x + 4", "2*x"),
    ("x + 1", "x"),
    ("x + 1", "x"),
    ("2*x^2 + 3*x + 4", "2*x^2 + 3*x + 1"),
]


def test_criterion_1_certificate_reproduction():
    with criterion(1, "shipped witness certificates verify, exact, < 1 s each"):
        # R1 over N, with the full inequality table of the proof
        assert _check("r1.trs", "r1_nat.cert").accepted
        r1 = load_trs("r1.trs")
        interp = load_certificate("r1_nat.cert").direct
        for rule, (lhs_text, rhs_text) in zip(r1.rules, R1_INEQUALITY_TABLE):
            assert eval_term(interp, rule.lhs) == parse_poly(lhs_text)
            assert eval_term(interp, rule.rhs) == parse_poly(rhs_text)
        margins = [
            eval_term(interp, r.lhs) - eval_term(interp, r.rhs) for r in r1.rules
        ]
        assert margins[5] == Poly.const(2)  # quadratic interpolation rule
        assert margins[11] == Poly.const(3)  # quadratic closing rule

        # R2 over N and over R
        assert _check("r2.trs", "r2_nat.cert").accepted
        assert _check("r2.trs", "r2_real.cert").accepted

        # R3 over Q, and its lift to R
        assert _check("r3.trs", "r3_q.cert").accepted
        r3 = load_trs("r3.trs")
        lifted = lift_q_to_r(load_certificate("r3_q.cert").direct)
        assert check_certificate(lifted, r3).accepted

        # R4 over R with exact sqrt(2) arithmetic: composing k three times
        # yields 2*sqrt(2)x + 3 + sqrt(2), so the margins of the last two
        # rules are 1 + sqrt(2) and 3 - sqrt(2)
        assert _check("r4.trs", "r4_real.cert").accepted
        r4 = load_trs("r4.trs")
        k_interp = load_certificate("r4_real.cert").direct
        kkk = eval_term(interp=k_interp, t=parse_term_text("k(k(k(x)))", {"x"}))
        assert kkk == parse_poly("2*sqrt(2)*x + 3 + sqrt(2)")
        m6 = eval_term(k_interp, r4.rules[5].lhs) - eval_term(k_interp, r4.rules[5].rhs)
        m7 = eval_term(k_interp, r4.rules[6].lhs) - eval_term(k_interp, r4.rules[6].rhs)
        assert m6 == Poly.const(parse_scalar("1+sqrt(2)"))
        assert m7 == Poly.const(parse_scalar("3-sqrt(2)"))

        # incremental proofs
        assert _check("r1.trs", "r1_inc_q.cert").accepted
        assert _check("r5.trs", "r5_inc_nat.cert").accepted
        assert _check("r5.trs", "r5_inc_real.cert").accepted
        assert _check("r6.trs", "r6_inc_nat.cert").accepted


def test_criterion_2_negative_checks():
    with criterion(2, "each corrupted certificate rejected at its designed site"):
        for entry in load_corpus():
            for cc in entry.certificates:
                if cc.expect_accept:
                    continue
                report = _check(entry.trs_file, cc.name + ".cert")
                assert not report.accepted, cc.name
                failures = report.failures()
                assert len(failures) == 1, (cc.name, [c.site() for c in failures])
                assert cc.expected_failure.matches(failures[0]), cc.name

        # the re-tagged certificate names a concrete witness in (0, 1/2)
        report = _check("r1.trs", "r1_nat_as_q.cert")
        fail = report.failures()[0]
        assert fail.kind == "well-defined" and fail.symbol == "f"
        witness = dict(fail.verdict.witness)["x1"]
        assert Fraction(0) < witness < Fraction(1, 2)
        assert fail.verdict.value < 0


# -- criterion 3: closed-form criteria against definitional oracles ----------

NAT_GRID = range(9)
QUARTER_GRID = [Fraction(n, 4) for n in range(17)]
FINE_GRID = [Fraction(n, 64) for n in range(257)] + [
    Fraction(8), Fraction(16), Fraction(32), Fraction(64)
]
DELTAS = [Fraction(1, 2), Fraction(1), Fraction(2)]


def _quad(a, b, c):
    return (
        (Poly.var("x") ** 2).scale(a) + Poly.var("x").scale(b) + Poly.const(c)
    )


def _oracle_nat_quad(a, b, c):
    p = _quad(a, b, c)
    values = {x: p.eval({"x": Fraction(x)}) for x in NAT_GRID}
    if any(v < 0 for v in values.values()):
        return False
    return all(
        values[x] >= values[y] + 1
        for x in NAT_GRID
        for y in NAT_GRID
        if x > y
    )


def _oracle_linear(a0, slopes, delta):
    names = [f"x{i+1}" for i in range(len(slopes))]
    p = Poly.const(a0)
    for name, s in zip(names, slopes):
        p = p + Poly.var(name).scale(s)
    corners = itertools.product([Fraction(0), Fraction(64)], repeat=len(names))
    if any(p.eval(dict(zip(names, pt))) < 0 for pt in corners):
        return False
    for i, name in enumerate(names):
        base = {n: Fraction(0) for n in names}
        for u in QUARTER_GRID:
            for v in QUARTER_GRID:
                if u - v >= delta:
                    hi = dict(base, **{name: u})
                    lo = dict(base, **{name: v})
                    if p.eval(hi) - p.eval(lo) < delta:
                        return False
    return True


def _oracle_qr_strict(a, b, c, delta):
    """Well-definedness plus the general shifted-difference check."""
    p = _quad(a, b, c)
    well = nonneg_on(p, "Q0")
    shifted = p.compose({"x": Poly.var("x") + Poly.const(delta) + Poly.var("h")})
    mono = nonneg_on(shifted - p - Poly.const(delta), "Q0")
    if well.is_unknown or mono.is_unknown:
        return None
    return well.is_proved and mono.is_proved


def _oracle_qr_weak(a, b, c):
    p = _quad(a, b, c)
    values = [p.eval({"x": x}) for x in FINE_GRID]
    if any(v < 0 for v in values):
        return False
    return all(u <= v for u, v in zip(values, values[1:]))


def test_criterion_3_criterion_oracle_equivalence():
    with criterion(3, "closed-form criteria match brute-force oracles, 1000 each, < 30 s"):
        started = time.monotonic()
        rng = random.Random(160914)

        for _ in range(1000):  # strict monotone + well-defined over N
            a = rng.choice([x for x in range(-4, 5) if x != 0])
            b, c = rng.randint(-4, 4), rng.randint(-4, 4)
            assert nat_quad_permissible(a, b, c) == _oracle_nat_quad(a, b, c), (a, b, c)

        for _ in range(1000):  # linear shapes over Q
            arity = rng.randint(1, 3)
            a0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            slopes = [
                Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
                for _ in range(arity)
            ]
            delta = rng.choice(DELTAS)
            assert linear_permissible(a0, slopes) == _oracle_linear(a0, slopes, delta), (
                a0, slopes, delta,
            )

        unknowns = 0
        for _ in range(1000):  # strict monotone + well-defined quadratics over Q
            a = Fraction(rng.choice([x for x in range(-4, 5) if x != 0]), rng.choice([1, 2, 4]))
            b = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            delta = rng.choice(DELTAS)
            oracle = _oracle_qr_strict(a, b, c, delta)
            if oracle is None:
                unknowns += 1
                continue
            assert qr_quad_strict_permissible(a, b, c, delta) == oracle, (a, b, c, delta)
        assert unknowns == 0

        for _ in range(1000):  # weakly monotone quadratics over Q
            a = Fraction(rng.choice([x for x in range(-4, 5) if x != 0]), rng.choice([1, 2, 4]))
            b = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            assert qr_quad_weak_permissible(a, b, c) == _oracle_qr_weak(a, b, c), (a, b, c)

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_criterion_4_domain_lifting():
    with criterion(4, "Q-to-R lifting and linear N-to-Q lifting are executable"):
        lifted_something = False
        for entry in load_corpus():
            trs = entry.trs()
            for cc in entry.certificates:
                if not cc.expect_accept:
                    continue
                cert = cc.load()
                if cert.is_incremental:
                    if cert.steps[0][0].domain.kind != "Q":
                        continue
                    lifted = [(lift_q_to_r(i), rem) for i, rem in cert.steps]
                    assert check_incremental(lifted, trs).accepted, cc.name
                    lifted_something = True
                elif cert.direct.domain.kind == "Q":
                    assert check_certificate(lift_q_to_r(cert.direct), trs).accepted
                    lifted_something = True
        assert lifted_something

        # the linear residual interpretation lifts to Q with delta = 1
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
        residual = load_trs("r1.trs").subsystem([1, 7, 11])
        assert check_certificate(n_interp, residual).accepted
        q_interp = lift_linear_n_to_q(n_interp)
        assert q_interp.domain == DomainTag("Q", Fraction(1))
        assert check_certificate(q_interp, residual).accepted


def test_criterion_5_prover_at_desk_scale():
    with criterion(5, "direct search < 1 s; two-step removal proof for R1/Q < 60 s"):
        single = parse_trs("(VAR x) (RULES f(x) -> x)", name="single_f")
        started = time.monotonic()
        res = search_direct(single, "N", SearchConfig(max_degree=1, max_coeff=2))
        assert time.monotonic() - started < 1.0
        assert res.found
        assert res.interp.assignment[FunSym("f", 1)] == parse_poly("x1 + 1")
        assert check_certificate(res.interp, single).accepted

        r1 = load_trs("r1.trs")
        cfg = SearchConfig(
            max_degree=2, max_coeff=5, denominators=(1, 2), deltas=(Fraction(1),),
            budget_seconds=59,
        )
        started = time.monotonic()
        inc = search_incremental(r1, "Q", cfg)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"{elapsed:.1f}s"
        assert inc.found and len(inc.proof.steps) == 2
        assert check_incremental(inc.proof, r1).accepted


def test_criterion_6_exhaustion_reports():
    with criterion(6, "bounded enumeration finds zero certificates, honestly labeled"):
        runs = [
            ("r1.trs", "Q", SearchConfig(
                max_degree=2, max_coeff=4, denominators=(1, 2, 4),
                deltas=(Fraction(1, 2), Fraction(1)), budget_seconds=600)),
            ("r2.trs", "Q", SearchConfig(
                max_degree=2, max_coeff=4, denominators=(1, 2, 4),
                deltas=(Fraction(1, 2), Fraction(1)), budget_seconds=600)),
            ("r3.trs", "N", SearchConfig(
                max_degree=2, max_coeff=2, budget_seconds=600)),
            ("r6.trs", "Q", SearchConfig(
                max_degree=2, max_coeff=3, denominators=(1, 2),
                deltas=(Fraction(1, 2), Fraction(1)), budget_seconds=600)),
        ]
        for trs_name, domain, cfg in runs:
            rep = exhaustion_report(load_trs(trs_name), domain, cfg)
            assert rep.complete, (trs_name, "budget exceeded")
            assert rep.cert_count == 0, (trs_name, rep.cert_count)
            line = rep.line()
            assert line.startswith("EXHAUSTED") and line.endswith("CERTS 0")
            # the report text says what a zero count is, and is not
            assert "not a nonexistence proof" in rep.format()


def test_criterion_7_no_unknown_verdicts():
    with criterion(7, "no Unknown verdicts anywhere in criteria 1-2"):
        for entry in load_corpus():
            trs = entry.trs()
            for cc in entry.certificates:
                report = check_certificate(cc.load(), trs)
                assert not any(
                    c.verdict.is_unknown for c in report.conditions
                ), cc.name
