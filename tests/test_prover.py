"""Search, incremental proofs, exhaustion reports."""

import collections
import dataclasses
import functools
import gc
import itertools
import math
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from unittest import mock

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
from polyterm.numeric import DomainTag, domain_n, domain_q, domain_r, quadext, scalar_sign
from polyterm.poly import Poly, monomial, parse_poly
from polyterm.positivity import excess_at_least
from polyterm.prover import (
    SearchConfig,
    _Budget,
    _candidate_permissible,
    _candidate_table,
    _decided_at_points,
    _int_form,
    _int_margin,
    _parts,
    _plan_order,
    _point_value,
    _root_point_value,
    _symbol_candidates,
    _template_positions,
    coefficient_grid,
    exhaustion_report,
    search_direct,
    search_incremental,
)
from polyterm.trs import App, FunSym, Rule, Trs, Var, parse_trs, term_vars

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
    # the deadline is checked per degree shape, per template filtered and per
    # compatibility decision too, not only every 512 DFS nodes; filtering the
    # binary quadratic templates of h with coefficients up to 3 alone takes
    # over a second, more than the prover._GROUP_GRACE that a space's set-up
    # may run past the deadline, so it is cut
    q = SearchConfig(
        max_degree=2, max_coeff=4, denominators=(1, 2, 4),
        deltas=(Fraction(1, 2), Fraction(1)), budget_seconds=0.05,
    )
    inc = SearchConfig(
        max_degree=2, max_coeff=5, denominators=(1, 2), deltas=(Fraction(1),),
        budget_seconds=0.05,
    )
    binary = SearchConfig(max_degree=2, max_coeff=3, budget_seconds=0.05)
    unary = SearchConfig(max_degree=2, max_coeff=2, budget_seconds=0.05)
    r1, r2 = load_trs("r1.trs"), load_trs("r2.trs")
    h = parse_trs("(VAR x y) (RULES h(x, y) -> x)", name="h")
    # 2^18 degree shapes: enumerating them alone takes seconds
    links = "  ".join(f"a{i}(x) -> a{i + 1}(x)" for i in range(1, 18))
    chain = parse_trs(f"(VAR x) (RULES {links})", name="chain")
    runs = (
        lambda: exhaustion_report(r1, "Q", q).line().split()[0],
        lambda: exhaustion_report(r2, "Q", q).line().split()[0],
        lambda: search_incremental(r1, "Q", inc).status,
        lambda: exhaustion_report(h, "N", binary).line().split()[0],
        lambda: search_direct(h, "N", binary).status,
        lambda: exhaustion_report(chain, "N", unary).line().split()[0],
    )
    for run in runs:
        started = time.monotonic()
        outcome = run()
        elapsed = time.monotonic() - started
        assert outcome in ("INCONCLUSIVE", "budget")
        assert elapsed < 1.0, f"{outcome} after {elapsed:.2f}s"


def test_budget_cuts_between_set_up_and_scan(monkeypatch):
    # a space's whole set-up (shapes, filter and plan) runs for the grace
    # past the deadline, and its scan is checked without it: a run cut there
    # repeats its work, even with a budget already past its deadline
    r1 = load_trs("r1.trs")
    cfg = SearchConfig(max_degree=2, max_coeff=2, denominators=(1, 2))
    calls = collections.Counter()

    def counted(name, decide):
        def wrapper(*args):
            calls[name] += 1
            return decide(*args)
        return wrapper

    monkeypatch.setattr(prover, "_candidate_permissible",
                        counted("filter", prover._candidate_permissible))
    monkeypatch.setattr(prover._CandidateTable, "holds",
                        counted("holds", prover._CandidateTable.holds))

    def set_up(budget):
        calls.clear()
        table = _candidate_table(r1, domain_q(1), cfg, False, budget)
        return table, prover._Searcher(r1, table, planned=True)

    whole_table, whole = set_up(_Budget(None))
    counts = [dict(calls)]
    for _ in range(2):
        late = _Budget(0.0)
        table, searcher = set_up(late)
        assert (table.shapes, table.polys) == (whole_table.shapes, whole_table.polys)
        assert searcher.symbols == whole.symbols
        counts.append(dict(calls))
        with pytest.raises(prover._BudgetExceeded):
            searcher.iterate(lambda _: None)
        assert late.nodes == 0
    assert counts[0]["filter"] and counts[0]["holds"]
    assert counts[0] == counts[1] == counts[2]


def test_each_space_is_freed_when_its_scan_returns(monkeypatch):
    # with the cyclic collector off, reference counts alone free a space: a
    # name bound to a finished searcher, or a closure that refers to itself,
    # would keep its table and memos alive while the next space is set up
    r6 = load_trs("r6.trs")
    cfg = SearchConfig(max_degree=1, max_coeff=2, denominators=(1, 2),
                       deltas=(Fraction(1, 2), Fraction(1)))
    tables, alive_at_build = [], []
    build = prover._candidate_table

    def tracked(*args):
        table = build(*args)
        alive_at_build.append([ref() is not None for ref in tables])
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(prover, "_candidate_table", tracked)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rep = exhaustion_report(r6, "Q", cfg)
        alive_at_end = [ref() is not None for ref in tables]
    finally:
        if was_enabled:
            gc.enable()
    assert rep.complete and len(tables) == 2
    assert alive_at_build == [[], [False]]
    assert alive_at_end == [False, False]


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


def test_exhaustion_searches_and_reports_the_given_tag():
    # a DomainTag fixes the delta and the radicand of the space: the grid
    # takes its radicand from the tag, not from sqrt_d, and the report prints
    # the bounds of the space searched, as the kind string naming it does
    cfg = SearchConfig(max_degree=1, max_coeff=1, sqrt_d=2)
    for tag, deltas, d, line in [
        (domain_r(1, 3), (Fraction(1),), 3, "deltas=1 sqrt=3 CERTS 9"),
        (domain_r(quadext(0, 1, 2), 2), (quadext(0, 1, 2),), 2, "deltas=sqrt(2) sqrt=2 CERTS 6"),
    ]:
        rep = exhaustion_report(SINGLE, tag, cfg)
        assert rep.line() == "EXHAUSTED degree<=1 coeff<=1 dens=1 " + line
        named = dataclasses.replace(cfg, deltas=deltas, sqrt_d=d)
        assert exhaustion_report(SINGLE, "R", named).line() == rep.line()


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


def _unpruned_candidates(sym, degree, domain, values, require_weak):
    """The whole product of the grid through _candidate_permissible."""
    positions = _template_positions(sym.arity, degree)
    top = [i for i, m in enumerate(positions) if sum(e for _, e in m) == degree]
    kinds = ("strict", "weak") if require_weak else ("strict",)
    out = []
    for coeffs in itertools.product(values, repeat=len(positions)):
        if degree > 0 and all(coeffs[i] == 0 for i in top):
            continue
        poly = Poly(dict(zip(positions, coeffs)))
        if _candidate_permissible(poly, sym.arity, domain, kinds):
            out.append(poly)
    return out


@pytest.mark.parametrize("domain, cfg", [
    (domain_n(), SearchConfig(max_coeff=2)),
    *((domain_q(delta), SearchConfig(max_coeff=2, denominators=(1, 2)))
      for delta in (Fraction(1, 2), Fraction(1), Fraction(2))),
    (domain_r(1, 2), SearchConfig(max_coeff=1, sqrt_d=2)),
], ids=["N", "Q-1/2", "Q-1", "Q-2", "R-sqrt2"])
def test_pruned_enumeration_equals_unpruned(domain, cfg):
    # the per-position floors drop only templates the filter rejects, and keep
    # the survivors' order; ternary templates are linear only, and binary
    # quadratics run on coefficients -1..1, and not over R or at delta 2,
    # where the well-definedness ladder samples a grid for the negative
    # slopes they admit (seconds to minutes per group)
    for arity, degree in [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
        grid = cfg
        if (arity, degree) == (2, 2):
            if domain.kind == "R" or domain.delta == 2:
                continue
            grid = dataclasses.replace(cfg, max_coeff=1, denominators=(1,))
        values = coefficient_grid(domain.kind, grid)
        sym = FunSym("f", arity)
        for require_weak in (False, True):
            pruned = _symbol_candidates(sym, degree, domain, values, require_weak, _Budget(None))
            assert pruned == _unpruned_candidates(sym, degree, domain, values, require_weak), (
                arity, degree, require_weak)


_PLAN_SCRIPT = """
import random
from fractions import Fraction
from polyterm.corpus import load_trs
from polyterm.numeric import DomainTag
from polyterm.prover import (
    SearchConfig, _Budget, _candidate_table, _plan_order, _rule_selectivity,
)
trs = load_trs("r6.trs")
domain = DomainTag("Q", Fraction(1))
cfg = SearchConfig(max_degree=1, max_coeff=2, denominators=(1,))
table = _candidate_table(trs, domain, cfg, True, _Budget(None))
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
            for poly in _symbol_candidates(sym, d, domain, values, require_weak, _Budget(None))
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
        # points over Q(sqrt 2) against the margin sqrt(2), and the ground rule f(0) -> 0
        (NEST, domain_r(quadext(0, 1, 2), 2), SearchConfig(max_degree=1, max_coeff=1, sqrt_d=2)),
    ],
    ids=["single-N", "single-Q", "r3-N", "shift-N", "two_step-Q", "nest-Q", "nest-R"],
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
    assert _candidate_table(NEST, _HALF, nest_q, False, _Budget(None)).scale == 4
    assert _candidate_table(NEST, domain_n(), nest_q, False, _Budget(None)).scale == 1
    # a sqrt(2) grid evaluates its points over Q(sqrt 2)
    r_grid = SearchConfig(max_degree=1, max_coeff=1, sqrt_d=2)
    r_table = _candidate_table(SINGLE, domain_r(Fraction(1), 2), r_grid, False, _Budget(None))
    assert (r_table.scale, r_table.root) == (1, 2)


@pytest.mark.parametrize(
    "f, g", [("x1^2 + 2", "3*x1"), ("x1 + 2", "x1^2")], ids=["refuted-at-1", "refuted-at-16"]
)
def test_point_refutation_reaches_past_zero(monkeypatch, f, g):
    # f(x) - g(x) - 1 is negative at x = 1 only (x^2 - 3x + 1), or at
    # x = 16 only (-x^2 + x + 1), so no point but that one refutes the rule
    trs = parse_trs("(VAR x) (RULES f(x) -> g(x))", name="f_g")
    cfg = SearchConfig(max_degree=2, max_coeff=3)
    table = _candidate_table(trs, domain_n(), cfg, False, _Budget(None))
    composed = []
    monkeypatch.setattr(prover, "_excess_proved", lambda *args: composed.append(args) or True)
    (rec,) = table.rules
    chosen = {"f": parse_poly(f), "g": parse_poly(g)}
    pick = tuple(table.polys[s.name].index(chosen[s.name]) for s in rec.syms)
    assert not table.holds(rec, "strict", pick)
    assert composed == []


def test_points_decide_before_composing(monkeypatch):
    # the points decide all 820 decisions of the r4 direct search over
    # Q(sqrt 2) and every decision of the r6 exhaustion over Q with delta 1,
    # by refuting or interpolating; a ground rule's decision never composes,
    # over N or Q(sqrt 2), where f(f(x)) of degree 4 does
    real = prover._excess_proved
    composed = []

    def spy(sides, margin, domain):
        lhs, rhs = sides()
        composed.append(lhs.is_constant() and rhs.is_constant())
        return real(lambda: (lhs, rhs), margin, domain)

    monkeypatch.setattr(prover, "_excess_proved", spy)
    r4_grid = SearchConfig(max_degree=2, max_coeff=1, sqrt_d=2)
    res = search_direct(load_trs("r4.trs"), "R", r4_grid)
    assert (res.status, res.nodes, len(composed)) == ("found", 98, 0)
    r6_grid = SearchConfig(max_degree=2, max_coeff=2, denominators=(1, 2))
    rep = exhaustion_report(load_trs("r6.trs"), domain_q(1), r6_grid)
    assert (rep.line(), len(composed)) == (
        "EXHAUSTED degree<=2 coeff<=2 dens=1,2 deltas=1 CERTS 0", 0)
    for domain, cfg in [(domain_n(), SearchConfig(max_degree=2, max_coeff=2)),
                        (domain_r(Fraction(1), 2), r4_grid)]:
        composed.clear()
        assert exhaustion_report(NEST, domain, cfg).cert_count > 0
        assert composed and not any(composed)


# -- point refutation against the kernel's composition ---------------------------

_A, _F, _G = FunSym("a", 0), FunSym("f", 1), FunSym("g", 2)


def _terms(depth, leaves=(Var("x"), Var("y"), App(_A, ()))):
    """Terms over a/0, f/1, g/2 and the leaves, nested <= depth deep."""
    if depth == 0:
        return st.sampled_from(leaves)
    sub = _terms(depth - 1, leaves)
    return st.one_of(
        st.sampled_from(leaves),
        st.builds(lambda t: App(_F, (t,)), sub),
        st.builds(lambda s, t: App(_G, (s, t)), sub, sub),
    )


def _template(sym, grid, degree=2):
    """Random coefficients on the monomials of a template of the degree."""
    positions = _template_positions(sym.arity, degree)
    coeffs = st.lists(st.sampled_from(grid), min_size=len(positions), max_size=len(positions))
    return coeffs.map(lambda cs: Poly(dict(zip(positions, cs))))


def _grid(dens, root):
    """p/q (+ r/q*sqrt(root)) for |p| <= 2, |r| <= 1 and q in dens."""
    return [quadext(Fraction(p, q), Fraction(r, q), 2)
            for p in range(-2, 3) for r in ((-1, 0, 1) if root else (0,)) for q in dens]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_point_refutation_is_exact(data):
    base, dens, root = data.draw(st.sampled_from([("N", (1,), 0), ("Q0", (1, 2, 3), 0),
                                                  ("R0", (1, 2), 2)]))
    grid = _grid(dens, root)
    table = {sym: data.draw(_template(sym, grid)) for sym in (_A, _F, _G)}
    lhs, rhs = data.draw(_terms(3)), data.draw(_terms(3))
    margins = [Fraction(0), Fraction(1, 2), Fraction(1)]
    if root:
        margins += [quadext(0, 1, 2), quadext(1, Fraction(-1, 2), 2)]
    margin = data.draw(st.sampled_from(margins))
    scale = math.lcm(*(x.denominator for p in table.values() for c in p.coeffs()
                       for x in _parts(c)))
    forms = {sym: _int_form(p, scale, root) for sym, p in table.items()}
    polys = {t: eval_term_with(table, t) for t in (lhs, rhs)}
    values = {}
    for t in (lhs, rhs):
        for v in (0, 1, 16):
            if root:
                (a, b), k = values[t, v] = _root_point_value(t, v, forms.__getitem__, scale, root)
                value = quadext(Fraction(a, scale**k), Fraction(b, scale**k), root)
            else:
                n, k = values[t, v] = _point_value(t, v, forms.__getitem__, scale)
                value = Fraction(n, scale**k)
            assert value == polys[t].eval({"x": v, "y": v})

    def short(v):  # the excess falls short of the margin at the all-equal point v
        at = {"x": v, "y": v}
        return scalar_sign(polys[lhs].eval(at) - polys[rhs].eval(at) - margin) < 0

    # a pair of constant sides is decided as a ground rule; any pair may be refuted
    for ground in {False, not (term_vars(lhs) or term_vars(rhs))}:
        decided = _decided_at_points(lambda v: values[lhs, v], lambda v: values[rhs, v],
                                     _int_margin(margin), scale, root, ground, lambda: False)
        refuted = any(map(short, (0,) if ground else (0, 1, 16)))
        assert decided is (False if refuted else True if ground else None)
        if decided is not None:
            assert decided == excess_at_least(polys[lhs], polys[rhs], margin, base).is_proved


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interpolated_decisions_equal_composing(data):
    # rules in x alone over Q0 and Q(sqrt 2), with templates of degree 1 to 3:
    # the decider interpolates the excess wherever no point refutes it and
    # both sides have degree <= 2 by the template degrees, composes it
    # otherwise, and decides as composing does
    root, dens, deltas = data.draw(st.sampled_from([
        (0, (1, 2, 3), [Fraction(1, 2), Fraction(1)]),
        (2, (1, 2), [Fraction(1), quadext(0, 1, 2), quadext(1, Fraction(-1, 2), 2)])]))
    delta, mode = data.draw(st.sampled_from(deltas)), data.draw(st.sampled_from(["strict", "weak"]))
    domain = domain_r(delta, 2) if root else domain_q(delta)
    degree = st.sampled_from([1, 1, 2, 3])
    degrees = {_A: 0, _F: data.draw(degree), _G: data.draw(degree)}
    grid = _grid(dens, root)
    grid += [c for c in grid if scalar_sign(c) > 0]  # fewer excesses negative at a point
    polys = {sym: data.draw(_template(sym, grid, d)) for sym, d in degrees.items()}
    sub = _terms(2, (Var("x"), App(_A, ())))
    top = data.draw(st.sampled_from([_F, _G]))
    args = data.draw(st.tuples(*[sub] * top.arity))
    lhs = App(top, args if any(map(term_vars, args)) else (Var("x"),) + args[1:])
    rhs = data.draw(_terms(3, (Var("x"), App(_A, ()))))
    rec = prover._rule_record(1, Rule(lhs, rhs))
    scale = math.lcm(*(x.denominator for p in polys.values() for c in p.coeffs()
                       for x in _parts(c)))
    table = prover._CandidateTable(
        domain, False, [], {s.name: [polys[s]] for s in rec.syms},
        {s.name: [degrees[s]] for s in rec.syms}, scale, root,
        {m: _int_margin(_margin(m, domain)) for m in ("strict", "weak")},
        {s.name: [_int_form(polys[s], scale, root)] for s in rec.syms}, (rec,), _Budget(None))
    sides = eval_term_with(polys, lhs), eval_term_with(polys, rhs)
    expected = prover._excess_proved(lambda: sides, _margin(mode, domain), domain)
    composed = []

    def spy(*args):
        composed.append(args)
        return expected

    with mock.patch.object(prover, "_excess_proved", spy):
        assert table.holds(rec, mode, (0,) * len(rec.syms)) == expected
    at = [sides[0].eval({"x": v}) - sides[1].eval({"x": v}) - _margin(mode, domain)
          for v in (0, 1, 16)]
    refuted = any(scalar_sign(e) < 0 for e in at)
    quadratic = max(prover._shape_ub(t, degrees.__getitem__) for t in (lhs, rhs)) <= 2
    assert len(composed) == (0 if refuted or quadratic else 1)


@pytest.mark.parametrize("domain, holds, composed", [(domain_n(), True, 1),
                                                     (domain_q(1), False, 0)], ids=["N", "Q"])
def test_univariate_quadratic_between_the_points(monkeypatch, domain, holds, composed):
    # f(x) -> g(x) weakly with f = x^2 + 2 and g = 3x: the excess x^2 - 3x + 2
    # is 2, 0 and 210 at x = 0, 1 and 16, so no point refutes it; it holds on
    # N (0 at 1 and 2), which the shifted rung proves after composing, and
    # fails at 3/2 on the half-line, which interpolation decides
    trs = parse_trs("(VAR x) (RULES f(x) -> g(x))", name="f_g")
    table = _candidate_table(trs, domain, SearchConfig(max_degree=2, max_coeff=3), False,
                             _Budget(None))
    real, calls = prover._excess_proved, []
    monkeypatch.setattr(prover, "_excess_proved",
                        lambda *args: calls.append(args) or real(*args))
    (rec,) = table.rules
    chosen = {"f": parse_poly("x1^2 + 2"), "g": parse_poly("3*x1")}
    pick = tuple(table.polys[s.name].index(chosen[s.name]) for s in rec.syms)
    assert (table.holds(rec, "weak", pick), len(calls)) == (holds, composed)


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
    return trs, _candidate_table(trs, domain, cfg, False, _Budget(None))


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
    assert base.root == (2 if base.domain.kind == "R" else 0)  # sqrt(2): points over Q(sqrt 2)
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
    table = _candidate_table(chain, domain_n(), cfg, False, _Budget(None))
    assert all(ps == [parse_poly("x1"), parse_poly("x1 + 1")] for ps in table.polys.values())
    order = _plan_order(chain, table, "strict")
    signature = list(chain.signature)
    assert len(signature) == 15 and sorted(order, key=signature.index) == signature
    keys = [(len(table.polys[s.name]), signature.index(s)) for s in order]
    assert keys == sorted(keys)
    rep = exhaustion_report(chain, domain_n(), cfg)
    assert rep.complete and rep.line() == "EXHAUSTED degree<=1 coeff<=1 CERTS 0"


# -- search paths the tests above do not reach ------------------------------------


def test_degree_shape_prune_cuts_prefixes():
    # every degree shape has deg f >= deg g * deg h; the per-prefix check
    # skips the prefixes no shape extends (1,037 nodes without it)
    trs = parse_trs("(VAR x) (RULES f(x) -> g(h(x)))", name="fgh")
    rep = exhaustion_report(trs, domain_n(), SearchConfig(max_degree=2, max_coeff=2))
    assert rep.line() == "EXHAUSTED degree<=2 coeff<=2 CERTS 281"
    assert rep.nodes == 596


def test_point_value_gives_up_at_the_bit_cap():
    # f^13(x) -> x with f = x1^2 + 1: the lhs doubles its bits per f, so its
    # point value passes MAX_COEFF_BITS at x = 16, and its composition has
    # degree 2^13, past MAX_DEGREE; the decision is then False, not an error
    trs = parse_trs("(VAR x) (RULES " + "f(" * 13 + "x" + ")" * 13 + " -> x)", name="f13")
    table = _candidate_table(trs, domain_n(), SearchConfig(max_coeff=1), False, _Budget(None))
    (rec,) = table.rules
    i = table.polys["f"].index(parse_poly("x1^2 + 1"))
    lhs = trs.rules[0].lhs
    values = [_point_value(lhs, v, lambda s: table.forms["f"][i], table.scale) for v in (0, 1, 16)]
    assert [n.bit_length() for n, _ in values[:2]] == [2408, 4815] and values[2] is None
    start = time.monotonic()
    assert not table.holds(rec, "strict", (i,))
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("depth, holds", [(14, True), (15, False)])
def test_ground_rule_at_the_bit_cap(monkeypatch, depth, holds):
    # f^depth(a) -> a with f = x1^2 + 1 and a = 1: the lhs has about 9,600
    # bits at depth 14, decided at x = 0, and passes MAX_COEFF_BITS at 15,
    # where composing fails too, so the rule is not proved, as in the kernel
    trs = parse_trs("(VAR x) (RULES " + "f(" * depth + "a" + ")" * depth + " -> a)", name="fa")
    table = _candidate_table(trs, domain_n(), SearchConfig(max_coeff=1), False, _Budget(None))
    (rec,) = table.rules
    pick = tuple(table.polys[s.name].index(parse_poly({"f": "x1^2 + 1", "a": "1"}[s.name]))
                 for s in rec.syms)
    real, composed = prover._excess_proved, []
    monkeypatch.setattr(prover, "_excess_proved",
                        lambda *args: composed.append(args) or real(*args))
    assert rec.ground and table.holds(rec, "strict", pick) is holds
    assert bool(composed) is not holds


@pytest.mark.parametrize("depth, interpolated", [(252, True), (253, False)])
def test_interpolation_at_the_bit_cap(monkeypatch, depth, interpolated):
    # f^depth(x) -> x with f = x1 + 1/L for L = 2^64 + 13 (65 bits), over Q
    # with delta 1/L: the lhs's points have the denominator L^depth, which
    # fits MAX_COEFF_BITS (16,384) for depth 252 (16,380 bits) and may not for
    # 253, so that rule is composed; its composition x + 253/L fits, and both
    # decisions are the kernel's
    big = 2**64 + 13
    terms = Var("x")
    for _ in range(depth):
        terms = App(_F, (terms,))
    trs = Trs((_F,), (Rule(terms, Var("x")),))
    cfg = SearchConfig(max_degree=1, max_coeff=1, denominators=(1, big))
    domain = domain_q(Fraction(1, big))
    table = _candidate_table(trs, domain, cfg, False, _Budget(None))
    (rec,) = table.rules
    f = parse_poly(f"x1 + 1/{big}")
    pick = (table.polys["f"].index(f),)
    real, composed = prover._excess_proved, []
    monkeypatch.setattr(prover, "_excess_proved",
                        lambda *args: composed.append(args) or real(*args))
    for mode in ("strict", "weak"):
        assert table.holds(rec, mode, pick)
        lhs = eval_term_with({_F: f}, terms)
        assert excess_at_least(lhs, Poly.var("x"), _margin(mode, domain), "Q0").is_proved
    assert table.scale == big and len(composed) == (0 if interpolated else 2)


def test_exhaustion_of_the_empty_system():
    empty = Trs((), ())
    table = _candidate_table(empty, domain_n(), SearchConfig(), False, _Budget(None))
    assert _plan_order(empty, table, "strict") == []
    rep = exhaustion_report(empty, domain_n(), SearchConfig())
    assert rep.line() == "EXHAUSTED degree<=2 coeff<=2 CERTS 1"


def test_space_without_candidates():
    # over Q with denominator 2 only and coefficients up to 1, the grid is
    # {-1/2, 0, 1/2}, and no linear template is strictly monotone with delta 1
    trs = parse_trs("(VAR x) (RULES f(x) -> g(x))", name="f_g")
    cfg = SearchConfig(max_degree=1, max_coeff=1, denominators=(2,))
    table = _candidate_table(trs, domain_q(Fraction(1)), cfg, False, _Budget(None))
    assert table.polys == {"f": [], "g": []}
    rep = exhaustion_report(trs, "Q", cfg)
    assert (rep.line(), rep.nodes) == ("EXHAUSTED degree<=1 coeff<=1 dens=2 deltas=1 CERTS 0", 0)
    assert search_direct(trs, "Q", cfg).status == "exhausted"
    assert search_incremental(trs, "Q", cfg).status == "no-progress"
