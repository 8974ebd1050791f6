"""Search, incremental proofs, exhaustion reports."""

import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyterm

from polyterm import prover
from polyterm.corpus import load_certificate, load_trs
from polyterm.interp import (
    Certificate,
    Interp,
    _margin,
    check_certificate,
    check_incremental,
    check_monotone,
    check_well_defined,
    eval_term_with,
    step_conditions,
)
from polyterm.numeric import DomainTag, domain_n, domain_q, domain_r
from polyterm.poly import Poly, monomial, parse_poly
from polyterm.positivity import excess_at_least
from polyterm.prover import (
    SearchConfig,
    _candidate_permissible,
    _candidate_table,
    _int_form,
    _plan_order,
    _point_value,
    _refuted_at_points,
    _symbol_candidates,
    _template_positions,
    coefficient_grid,
    exhaustion_report,
    search_direct,
    search_incremental,
)
from polyterm.trs import App, FunSym, Trs, Var, parse_trs

SINGLE = parse_trs("(VAR x) (RULES f(x) -> x)", name="single_f")


def test_search_direct_finds_successor_first():
    res = search_direct(SINGLE, "N", SearchConfig(max_degree=1, max_coeff=2))
    assert res.found
    assert res.interp.assignment[FunSym("f", 1)] == parse_poly("x1 + 1")
    assert check_certificate(res.interp, SINGLE).accepted


def test_search_direct_empty_trs():
    empty = Trs((), ())
    res = search_direct(empty, "N", SearchConfig(max_degree=1, max_coeff=1))
    assert res.found
    assert check_certificate(res.interp, empty).accepted


def test_search_incremental_empty_trs_rechecks():
    empty = parse_trs("(VAR x) (RULES )", name="empty")
    res = search_incremental(empty, "N", SearchConfig(max_degree=1, max_coeff=1))
    assert res.found and res.proof.steps == ()
    assert check_certificate(res.proof, empty).accepted
    assert not check_certificate(res.proof, SINGLE).accepted


def test_search_direct_exhausts_r3_over_n():
    r3 = load_trs("r3.trs")
    res = search_direct(r3, "N", SearchConfig(max_degree=2, max_coeff=2))
    assert res.status == "exhausted"


def test_search_direct_q_grid():
    res = search_direct(
        SINGLE,
        "Q",
        SearchConfig(max_degree=1, max_coeff=2, denominators=(1, 2), deltas=(Fraction(1, 2),)),
    )
    assert res.found
    # first slope is 1; first constant clearing the margin 1/2 is 1/2 itself
    assert res.interp.assignment[FunSym("f", 1)] == parse_poly("x1 + 1/2")


def test_search_direct_r_grid_with_sqrt():
    res = search_direct(
        SINGLE,
        "R",
        SearchConfig(max_degree=1, max_coeff=1, deltas=(Fraction(1),), sqrt_d=2),
    )
    assert res.found
    assert check_certificate(res.interp, SINGLE).accepted


def test_search_determinism():
    cfg = SearchConfig(max_degree=2, max_coeff=2)
    a = search_direct(SINGLE, "N", cfg)
    b = search_direct(SINGLE, "N", cfg)
    assert a.interp == b.interp
    inc_a = search_incremental(SINGLE, "N", cfg)
    inc_b = search_incremental(SINGLE, "N", cfg)
    assert inc_a.proof == inc_b.proof


def test_incremental_degenerates_to_direct_on_single_rule():
    cfg = SearchConfig(max_degree=1, max_coeff=2)
    inc = search_incremental(SINGLE, "N", cfg)
    assert inc.found and len(inc.proof.steps) == 1
    interp, removed = inc.proof.steps[0]
    assert removed == (1,)
    assert interp == search_direct(SINGLE, "N", cfg).interp
    assert check_incremental(inc.proof, SINGLE).accepted


def test_budget_is_reported():
    r1 = load_trs("r1.trs")
    cfg = SearchConfig(
        max_degree=2, max_coeff=5, denominators=(1, 2), deltas=(Fraction(1),),
        budget_seconds=0.05,
    )
    res = search_incremental(r1, "Q", cfg)
    assert res.status == "budget"


def test_budget_overshoot_is_bounded():
    # the deadline is also checked while candidate lists, the level plan
    # and pass-lists are built, not only every 512 DFS nodes
    q = SearchConfig(
        max_degree=2, max_coeff=4, denominators=(1, 2, 4),
        deltas=(Fraction(1, 2), Fraction(1)), budget_seconds=0.05,
    )
    inc = SearchConfig(
        max_degree=2, max_coeff=5, denominators=(1, 2), deltas=(Fraction(1),),
        budget_seconds=0.05,
    )
    r1, r2 = load_trs("r1.trs"), load_trs("r2.trs")
    runs = (
        lambda: exhaustion_report(r1, "Q", q).line().split()[0],
        lambda: exhaustion_report(r2, "Q", q).line().split()[0],
        lambda: search_incremental(r1, "Q", inc).status,
    )
    for run in runs:
        started = time.monotonic()
        outcome = run()
        elapsed = time.monotonic() - started
        assert outcome in ("INCONCLUSIVE", "budget")
        assert elapsed < 1.0, f"{outcome} after {elapsed:.2f}s"


def test_exhaustion_drops_compositions_past_the_limits():
    # a quadratic f composes to degree 128 in f^7, above poly.MAX_DEGREE: the
    # search counts such a template as not proved instead of hanging
    deep = parse_trs("(VAR x) (RULES " + "f(" * 7 + "x" + ")" * 7 + " -> x)", name="deep")
    started = time.monotonic()
    quadratic = exhaustion_report(deep, "N", SearchConfig(max_degree=2, max_coeff=1))
    assert time.monotonic() - started < 5.0
    linear = exhaustion_report(deep, "N", SearchConfig(max_degree=1, max_coeff=1))
    assert quadratic.complete and quadratic.cert_count == linear.cert_count


def test_check_incremental_accepts_shipped_proofs():
    for trs_name, cert_name in (
        ("r1.trs", "r1_inc_q.cert"),
        ("r5.trs", "r5_inc_nat.cert"),
        ("r5.trs", "r5_inc_real.cert"),
        ("r6.trs", "r6_inc_nat.cert"),
    ):
        trs = load_trs(trs_name)
        report = check_incremental(load_certificate(cert_name), trs)
        assert report.accepted, cert_name


def test_check_incremental_rejects_unremoved_residual():
    trs = load_trs("r1.trs")
    steps = list(load_certificate("r1_inc_q.cert").steps)
    interp, removed = steps[1]
    steps[1] = (interp, removed[:-1])  # drop one removal index
    report = check_incremental(steps, trs)
    assert not report.accepted
    assert any(c.kind == "residual-empty" for c in report.failures())


def test_check_incremental_index_errors():
    trs = load_trs("r1.trs")
    steps = list(load_certificate("r1_inc_q.cert").steps)
    interp, removed = steps[0]
    with pytest.raises(ValueError):
        check_incremental([(interp, ())] , trs)
    with pytest.raises(ValueError):
        check_incremental([(interp, removed + (13,))], trs)
    with pytest.raises(ValueError):
        check_incremental([(interp, removed + (removed[0],))], trs)


def test_check_incremental_domain_mismatch():
    trs = load_trs("r1.trs")
    steps = load_certificate("r1_inc_q.cert").steps
    with pytest.raises(ValueError):
        check_incremental(list(steps), trs, domain="N")
    assert check_incremental(list(steps), trs, domain="Q").accepted


def test_exhaustion_counts_all_certificates():
    # tiny space enumerated by hand: slope in {1, 2}, constant in {0, 1, 2};
    # x fails strict compatibility at x = 0, 2x likewise; the other four hold
    rep = exhaustion_report(SINGLE, "N", SearchConfig(max_degree=1, max_coeff=2))
    assert rep.complete and rep.cert_count == 4
    assert rep.line() == "EXHAUSTED degree<=1 coeff<=2 CERTS 4"


def test_exhaustion_zero_line():
    r3 = load_trs("r3.trs")
    rep = exhaustion_report(r3, "N", SearchConfig(max_degree=2, max_coeff=2))
    assert rep.complete and rep.cert_count == 0
    assert rep.line() == "EXHAUSTED degree<=2 coeff<=2 CERTS 0"


def test_exhaustion_budget_inconclusive():
    r1 = load_trs("r1.trs")
    cfg = SearchConfig(
        max_degree=2, max_coeff=4, denominators=(1, 2, 4),
        deltas=(Fraction(1, 2), Fraction(1)), budget_seconds=0.05,
    )
    rep = exhaustion_report(r1, "Q", cfg)
    assert not rep.complete
    assert rep.line().startswith("INCONCLUSIVE")


def test_coefficient_grid_order():
    vals = coefficient_grid("N", SearchConfig(max_coeff=2))
    assert vals == [0, 1, -1, 2, -2]
    vals = coefficient_grid("Q", SearchConfig(max_coeff=1, denominators=(1, 2)))
    assert vals == [0, Fraction(1, 2), Fraction(-1, 2), 1, -1]


def test_incremental_no_progress_on_r6_q():
    r6 = load_trs("r6.trs")
    cfg = SearchConfig(max_degree=2, max_coeff=2, denominators=(1, 2), deltas=(Fraction(1),))
    res = search_incremental(r6, "Q", cfg)
    assert res.status == "no-progress"


def test_first_found_matches_unpruned_enumeration():
    # re-enumerate the documented candidate order with no pruning at all,
    # accepting via the checker; search_direct must return the same first hit
    import itertools

    cfg = SearchConfig(max_degree=2, max_coeff=2)
    grid = coefficient_grid("N", cfg)
    f = FunSym("f", 1)
    arg = "x1"
    brute = None
    for degree in (1, 2):
        if brute is not None:
            break
        monos = [{arg: degree}, {}] if degree == 1 else [{arg: 2}, {arg: 1}, {}]
        for coeffs in itertools.product(grid, repeat=len(monos)):
            if coeffs[0] == 0:
                continue  # belongs to a lower-degree template
            poly = parse_poly("0")
            for mono, c in zip(monos, coeffs):
                term = parse_poly("x1") ** mono.get(arg, 0)
                poly = poly + term.scale(c)
            interp = Interp(domain_n(), {f: poly})
            if check_certificate(interp, SINGLE).accepted:
                brute = interp
                break
    assert brute is not None
    assert search_direct(SINGLE, "N", cfg).interp == brute


def test_found_incremental_passes_independent_checker():
    trs = parse_trs("(VAR x) (RULES f(x) -> x  g(g(x)) -> f(g(x)))", name="two")
    cfg = SearchConfig(max_degree=1, max_coeff=2)
    res = search_incremental(trs, "N", cfg)
    assert res.found
    assert check_incremental(res.proof, trs).accepted


def test_candidate_filter_agrees_with_checker():
    # unary templates of degree <= 2 and binary ones of degree 1
    shapes = [
        (FunSym("f", 1), [{"x1": 2}, {"x1": 1}, {}]),
        (FunSym("h", 2), [{"x1": 1}, {"x2": 1}, {}]),
    ]
    cfg = SearchConfig(max_coeff=2, denominators=(1, 2))
    for domain in (domain_n(), domain_q(Fraction(1, 2)), domain_q(1)):
        values = coefficient_grid(domain.kind, cfg)
        for sym, monos in shapes:
            for coeffs in itertools.product(values, repeat=len(monos)):
                poly = Poly({monomial(m): c for m, c in zip(monos, coeffs)})
                interp = Interp(domain, {sym: poly})
                well = check_well_defined(interp)[sym].is_proved
                strict = all(v.is_proved for v in check_monotone(interp, "strict")[sym])
                weak = all(v.is_proved for v in check_monotone(interp, "weak")[sym])
                assert _candidate_permissible(
                    poly, sym.arity, domain, ("strict",)
                ) == (well and strict), (domain, poly)
                assert _candidate_permissible(
                    poly, sym.arity, domain, ("strict", "weak")
                ) == (well and strict and weak), (domain, poly)


_PLAN_SCRIPT = """
import random
from fractions import Fraction
from polyterm.corpus import load_trs
from polyterm.numeric import DomainTag
from polyterm.prover import SearchConfig, _candidate_table, _plan_order, _rule_selectivity
trs = load_trs("r6.trs")
domain = DomainTag("Q", Fraction(1))
cfg = SearchConfig(max_degree=1, max_coeff=2, denominators=(1,))
table = _candidate_table(trs, domain, cfg, True, None)
rng = random.Random(0)
print([_rule_selectivity(rec, table, "weak", rng) for rec in table.rules])
print(",".join(s.name for s in _plan_order(trs, table, "weak")))
"""


def test_plan_order_ignores_hash_seed():
    src = os.path.dirname(os.path.dirname(polyterm.__file__))
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _PLAN_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs


# -- brute-force oracle: the pruned DFS against unpruned enumeration -----------

TWO_STEP = parse_trs("(VAR x) (RULES s(s(x)) -> h(x, s(0))  h(x, x) -> s(0))", name="two_step")
SHIFT = parse_trs("(VAR x y) (RULES h(x, s(y)) -> h(s(x), y)  h(x, 0) -> x)", name="shift")
NEST = parse_trs("(VAR x) (RULES f(0) -> 0  f(f(x)) -> f(x))", name="nest")
_HALF = domain_q(Fraction(1, 2))


def _unpruned(trs, domain, cfg, require_weak):
    """Every assignment of the per-symbol candidate lists, in canonical order."""
    values = coefficient_grid(domain.kind, cfg)
    lists = [
        [
            poly
            for d in ([0] if sym.arity == 0 else range(1, cfg.max_degree + 1))
            for poly in _symbol_candidates(sym, d, domain, values, require_weak)
        ]
        for sym in trs.signature
    ]
    for polys in itertools.product(*lists):
        yield Interp(domain, dict(zip(trs.signature, polys)))


def _brute_step(trs, domain, cfg):
    """The valid step removing the most rules; ties go to the first one."""
    best = None
    every_rule = tuple(range(1, len(trs.rules) + 1))
    for interp in _unpruned(trs, domain, cfg, True):
        conds = step_conditions(interp, trs, every_rule, 1, False)
        if not all(c.verdict.is_proved for c in conds
                   if c.required and c.kind != "strict-compat"):
            continue
        removed = tuple(c.rule_index for c in conds
                        if c.kind == "strict-compat" and c.verdict.is_proved)
        if removed and (best is None or len(removed) > len(best[1])):
            best = (interp, removed)
    return best


def _brute_incremental(trs, domain, cfg):
    """The greedy removal proof, every step chosen by ``_brute_step``."""
    steps, residual = [], trs
    while residual.rules and len(steps) < cfg.max_steps:
        step = _brute_step(residual, domain, cfg)
        if step is None:
            break
        steps.append(step)
        residual = residual.subsystem(
            [i for i in range(len(residual.rules)) if i + 1 not in step[1]]
        )
    return None if residual.rules else Certificate(steps=tuple(steps))


@pytest.mark.parametrize(
    "trs, domain, cfg",
    [
        (SINGLE, domain_n(), SearchConfig(max_degree=2, max_coeff=2)),
        (SINGLE, _HALF, SearchConfig(max_degree=2, max_coeff=1, denominators=(1, 2))),
        (load_trs("r3.trs"), domain_n(), SearchConfig(max_degree=1, max_coeff=2)),
        (SHIFT, domain_n(), SearchConfig(max_degree=1, max_coeff=2)),
        (TWO_STEP, _HALF, SearchConfig(max_degree=1, max_coeff=2)),
        # quadratic templates scaled by L = 4 against the margin 1/2
        (NEST, _HALF, SearchConfig(max_degree=2, max_coeff=1, denominators=(1, 2, 4))),
    ],
    ids=["single-N", "single-Q", "r3-N", "shift-N", "two_step-Q", "nest-Q"],
)
def test_search_matches_unpruned_enumeration(trs, domain, cfg):
    # the kernel decides every assignment; no shape or rule pruning
    hits = [i for i in _unpruned(trs, domain, cfg, False) if check_certificate(i, trs).accepted]
    rep = exhaustion_report(trs, domain, cfg)
    assert rep.complete and rep.cert_count == len(hits)
    assert search_direct(trs, domain, cfg).interp == (hits[0] if hits else None)
    assert search_incremental(trs, domain, cfg).proof == _brute_incremental(trs, domain, cfg)


def test_point_refutation_scale():
    nest_q = SearchConfig(max_degree=2, max_coeff=1, denominators=(1, 2, 4))
    assert _candidate_table(NEST, _HALF, nest_q, False, None).scale == 4
    assert _candidate_table(NEST, domain_n(), nest_q, False, None).scale == 1
    # a sqrt(2) grid switches point refutation off
    r_grid = SearchConfig(max_degree=1, max_coeff=1, sqrt_d=2)
    assert _candidate_table(SINGLE, domain_r(Fraction(1), 2), r_grid, False, None).scale is None


@pytest.mark.parametrize(
    "f, g", [("x1^2 + 2", "3*x1"), ("x1 + 2", "x1^2")], ids=["refuted-at-1", "refuted-at-16"]
)
def test_point_refutation_reaches_past_zero(monkeypatch, f, g):
    # f(x) - g(x) - 1 is negative at x = 1 only (x^2 - 3x + 1), or at
    # x = 16 only (-x^2 + x + 1), so no point but that one refutes the rule
    trs = parse_trs("(VAR x) (RULES f(x) -> g(x))", name="f_g")
    table = _candidate_table(trs, domain_n(), SearchConfig(max_degree=2, max_coeff=3), False, None)
    composed = []
    monkeypatch.setattr(prover, "_excess_proved", lambda *args: composed.append(args) or True)
    (rec,) = table.rules
    chosen = {"f": parse_poly(f), "g": parse_poly(g)}
    pick = tuple(table.polys[s.name].index(chosen[s.name]) for s in rec.syms)
    assert not table.holds(rec, "strict", pick)
    assert composed == []


# -- point refutation against the kernel's composition ---------------------------

_A, _F, _G = FunSym("a", 0), FunSym("f", 1), FunSym("g", 2)


def _terms(depth):
    """Terms over a/0, f/1, g/2 and the variables x, y, nested <= depth deep."""
    leaves = st.sampled_from([Var("x"), Var("y"), App(_A, ())])
    if depth == 0:
        return leaves
    sub = _terms(depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda t: App(_F, (t,)), sub),
        st.builds(lambda s, t: App(_G, (s, t)), sub, sub),
    )


def _template(sym, grid):
    """Random coefficients on the monomials of a degree-2 template."""
    positions = _template_positions(sym.arity, 2)
    coeffs = st.lists(st.sampled_from(grid), min_size=len(positions), max_size=len(positions))
    return coeffs.map(lambda cs: Poly(dict(zip(positions, cs))))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_point_refutation_is_exact(data):
    base, dens = data.draw(st.sampled_from([("N", (1,)), ("Q0", (1, 2, 3))]))
    grid = [Fraction(p, q) for p in range(-2, 3) for q in dens]
    table = {sym: data.draw(_template(sym, grid)) for sym in (_A, _F, _G)}
    lhs, rhs = data.draw(_terms(3)), data.draw(_terms(3))
    margin = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
    scale = math.lcm(*(c.denominator for p in table.values() for c in p.coeffs()))
    forms = {sym: _int_form(p, scale) for sym, p in table.items()}
    polys = {t: eval_term_with(table, t) for t in (lhs, rhs)}
    values = {}
    for t in (lhs, rhs):
        for v in (0, 1, 16):
            n, k = values[t, v] = _point_value(t, v, forms.__getitem__, scale)
            assert Fraction(n, scale**k) == polys[t].eval({"x": v, "y": v})
    if _refuted_at_points(
        lambda v: values[lhs, v], lambda v: values[rhs, v], margin, scale
    ):
        assert not excess_at_least(polys[lhs], polys[rhs], margin, base).is_proved


# -- the one compatibility decider against the kernel ---------------------------


@functools.cache
def _decider_space(name):
    """A candidate table whose memos the oracle test never fills."""
    trs, domain, cfg = {
        "r3-N": (load_trs("r3.trs"), domain_n(), SearchConfig(max_degree=2, max_coeff=2)),
        "nest-Q": (NEST, _HALF, SearchConfig(max_degree=2, max_coeff=1, denominators=(1, 2, 4))),
        "r4-R": (load_trs("r4.trs"), domain_r(Fraction(1), 2),
                 SearchConfig(max_degree=2, max_coeff=1, sqrt_d=2)),
    }[name]
    return trs, _candidate_table(trs, domain, cfg, False, None)


def _question(table):
    """A random (rule record, mode, pick) over a table's candidates."""
    def pick_for(rec):
        pick = st.tuples(*(st.integers(0, len(table.polys[s.name]) - 1) for s in rec.syms))
        return st.tuples(st.just(rec), st.sampled_from(("strict", "weak")), pick)

    return st.sampled_from(table.rules).flatmap(pick_for)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_holds_matches_kernel_whoever_asks_first(data):
    trs, base = _decider_space(data.draw(st.sampled_from(["r3-N", "nest-Q", "r4-R"])))
    questions = data.draw(st.lists(_question(base), min_size=1, max_size=8))
    assert (base.scale is None) == (base.domain.kind == "R")  # sqrt(2): no point filter
    forward, backward = dataclasses.replace(base), dataclasses.replace(base)
    asked = [forward.holds(*q) for q in questions]
    assert [backward.holds(*q) for q in reversed(questions)] == asked[::-1]
    domain = base.domain
    for (rec, mode, pick), ok in zip(questions, asked):
        rule = trs.rules[rec.index - 1]
        polys = {s: base.polys[s.name][i] for s, i in zip(rec.syms, pick)}
        lhs, rhs = eval_term_with(polys, rule.lhs), eval_term_with(polys, rule.rhs)
        assert ok == excess_at_least(lhs, rhs, _margin(mode, domain), domain.base).is_proved


def test_plan_order_falls_back_past_14_symbols():
    # a1(x) -> a2(x), ..., a14(x) -> a15(x): every symbol has the candidates
    # x1 and x1 + 1; rule i forces a_i = x1 + 1 and a_(i+1) = x1, which rule
    # i + 1 contradicts, so the space holds no certificate
    rules = "  ".join(f"a{i}(x) -> a{i + 1}(x)" for i in range(1, 15))
    chain = parse_trs(f"(VAR x) (RULES {rules})", name="chain")
    cfg = SearchConfig(max_degree=1, max_coeff=1)
    table = _candidate_table(chain, domain_n(), cfg, False, None)
    assert all(ps == [parse_poly("x1"), parse_poly("x1 + 1")] for ps in table.polys.values())
    order = _plan_order(chain, table, "strict")
    signature = list(chain.signature)
    assert len(signature) == 15 and sorted(order, key=signature.index) == signature
    keys = [(len(table.polys[s.name]), signature.index(s)) for s in order]
    assert keys == sorted(keys)
    rep = exhaustion_report(chain, domain_n(), cfg)
    assert rep.complete and rep.line() == "EXHAUSTED degree<=1 coeff<=1 CERTS 0"
