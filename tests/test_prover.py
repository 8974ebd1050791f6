"""Search, incremental proofs, exhaustion reports."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import polyterm

from polyterm.corpus import load_certificate, load_trs
from polyterm.interp import Interp, check_certificate, check_monotone, check_well_defined
from polyterm.numeric import DomainTag, domain_n, domain_q
from polyterm.poly import Poly, monomial, parse_poly
from polyterm.prover import (
    IncrementalProof,
    SearchConfig,
    _candidate_permissible,
    check_incremental,
    coefficient_grid,
    exhaustion_report,
    search_direct,
    search_incremental,
)
from polyterm.trs import FunSym, Trs, parse_trs

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


def test_check_incremental_accepts_shipped_proofs():
    for trs_name, cert_name in (
        ("r1.trs", "r1_inc_q.cert"),
        ("r5.trs", "r5_inc_nat.cert"),
        ("r5.trs", "r5_inc_real.cert"),
        ("r6.trs", "r6_inc_nat.cert"),
    ):
        trs = load_trs(trs_name)
        steps = load_certificate(cert_name).steps
        report = check_incremental(IncrementalProof(steps), trs)
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
from polyterm.prover import (
    SearchConfig, _plan_order, _rule_selectivity, _symbol_candidates, coefficient_grid,
)
trs = load_trs("r6.trs")
domain = DomainTag("Q", Fraction(1))
values = coefficient_grid("Q", SearchConfig(max_degree=1, max_coeff=2, denominators=(1,)))
cands = {
    s.name: _symbol_candidates(s, min(s.arity, 1), domain, values, True)
    for s in trs.signature
}
rng = random.Random(0)
print([_rule_selectivity(rule, cands, domain, "weak", rng) for rule in trs.rules])
print(",".join(s.name for s in _plan_order(trs, cands, domain, "weak")))
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
