"""Bounded template search for certificates, direct and incremental.

The search space is a finite grid: every function symbol gets a template of
total degree at most ``max_degree`` (2 at most) whose coefficients range over

* integers |c| <= max_coeff                          over N,
* p/q with |p| <= max_coeff, q in denominators       over Q,
* a + b*sqrt(d) with a, b from the Q grid            over R with radicand d,

and delta ranges over the configured candidates.  Only candidates that are
well-defined and strictly monotone (plus weakly monotone for incremental
steps) enter the space; that filter discards nothing a certificate could
use.  It enumerates only sign-feasible templates: each coefficient starts
at the floor that the monotonicity lemma and the value at the origin imply
(``_symbol_candidates``).  Three sound prunings keep enumeration feasible
and cannot drop an acceptable candidate:

* degree shapes: a rule whose right-hand side out-degrees its left-hand
  side under a candidate degree assignment refutes weak compatibility for
  every coefficient choice of that shape (leading coefficients of monotone
  interpretations are positive, so composed degrees do not cancel);
* early rule rejection: as soon as all symbols of a rule are assigned, a
  failed compatibility check discards the whole subtree;
* point refutation: before composing a rule, its excess lhs - rhs - margin
  is evaluated at the all-equal points x = 0, 1, 16 of the carrier, exactly:
  with every coefficient scaled by the lcm L of the grid's denominators, a
  term's value is n / L^k for Python ints n, k, or (a + b*sqrt(d)) / L^k
  over Q(sqrt d), whose sign the signs of a, b and the order of a^2 and
  d*b^2 decide.  So a negative value is a true counterexample and disproves
  the rule.  The survivors are interpolated over Q0/R0, and composed and
  decided by ``nonneg_on`` over N or past degree 2.

Over Q0 and R0, a rule in one variable whose sides have degree <= 2 has a
quadratic excess, fixed by its values at x = 0, 1 and 16; the ladder decides
it exactly by the half-line test, which the search applies to the
interpolated coefficients.  A ground rule's excess is its value at x = 0,
over N too.  Where a point value passes the bit cap, the rule is composed.

Candidates are enumerated canonically: symbols in signature order; per
symbol constants, then linear, then quadratic templates; coefficient tuples
lexicographically (positions ordered by descending monomial degree, each
position running through grid values sorted by magnitude, positive first).
Direct search returns the first acceptance in this order.  Incremental
search scans the whole space per step and keeps the interpretation that
removes the most rules, breaking ties toward the canonically least one, so
results do not depend on traversal order.  An exhaustion run enumerates the
space to the end and counts every certificate in it; its report is a
consistency statement, never a nonexistence proof.  The search is
untrusted and checks nothing itself: a direct search returns an ``Interp``
and a removal search a stepwise ``Certificate``, which the kernel's
``interp.check_certificate`` re-checks.

One DFS walks every space, with two hooks: a per-level one that prunes or
passes a state down (strict compatibility for direct search and exhaustion;
weak compatibility and a bound on strict failures for a removal step), and a
leaf one.  Each space (one delta, one removal step) has one candidate table,
filtered once per (arity, degree) and shared by a step's scout and picker.
The table also carries the one compatibility decider, ``holds``, and its
memo: the plan's samples, the scout and the picker ask it, so a check
decided once in a space is never decided again there.  No name outlives a
scan: each space's searchers and table are freed when its scan returns.

Each public operation has one ``_Budget``: its start, the deadline of
``budget_seconds``, a grace and the DFS node count.  The candidate table
carries it, and it is checked where the work is: per degree shape and
template, before each compatibility decision not memoised, and every 512
nodes.  A space's set-up (degree shapes, filter and plan) is cut
``_GROUP_GRACE`` s past the deadline, and its scan checks without grace as
it starts; a run whose set-up ends within the grace stops before the scan's
first node, so its work counts repeat.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from fractions import Fraction

from .interp import (
    Certificate,
    CompositionTooLarge,
    Interp,
    _candidate_permissible,
    _margin,
    arg_var,
    eval_term_with,
)
from .interp import check_incremental  # noqa: F401  bench/tracer.py wraps it here
from .numeric import (
    DomainTag, QuadExt, Scalar, as_scalar, format_scalar, quadext, quadratic_sign, scalar_sign,
)
from .poly import MAX_COEFF_BITS, Poly, monomial
from .positivity import excess_at_least, quad_nonneg_halfline
from .trs import FunSym, Rule, Term, Trs, Var, term_symbols, term_vars

__all__ = [
    "SearchConfig",
    "SearchResult",
    "IncrementalResult",
    "ExhaustionReport",
    "search_direct",
    "search_incremental",
    "exhaustion_report",
]

_SELECTIVITY_SAMPLES = 160  # random candidate tuples per rule in _plan_order
_REFUTE_POINTS = (0, 1, 16)  # all-equal carrier points tried before composing
_POINT_BITS = MAX_COEFF_BITS - 2  # point values stop short of the cap: see _point_value
_KEPT_EXAMPLES = 3  # certificates an exhaustion report prints
_GROUP_GRACE = 0.5  # seconds past the deadline before a space's set-up is cut


@dataclass(frozen=True)
class SearchConfig:
    max_degree: int = 2
    max_coeff: int = 2
    denominators: tuple[int, ...] = (1,)
    deltas: tuple[Scalar, ...] = (Fraction(1),)
    sqrt_d: int | None = None
    budget_seconds: float | None = None
    max_steps: int = 8

    def __post_init__(self):
        if not (1 <= self.max_degree <= 2):
            raise ValueError("max_degree must be 1 or 2")
        if self.max_coeff < 1:
            raise ValueError("max_coeff must be positive")
        if not self.denominators or any(q < 1 for q in self.denominators):
            raise ValueError("denominators must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.budget_seconds is not None and not self.budget_seconds >= 0:  # NaN fails this too
            raise ValueError("budget_seconds must be a number >= 0")

    def bounds_text(self, domain_kind: str) -> str:
        parts = [f"degree<={self.max_degree}", f"coeff<={self.max_coeff}"]
        if domain_kind in ("Q", "R"):
            dens = ",".join(str(q) for q in self.denominators)
            deltas = ",".join(format_scalar(as_scalar(x)) for x in self.deltas)
            parts.append(f"dens={dens}")
            parts.append(f"deltas={deltas}")
        if domain_kind == "R":
            parts.append(f"sqrt={self.sqrt_d if self.sqrt_d is not None else '-'}")
        return " ".join(parts)


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "exhausted" | "budget"
    interp: Interp | None = None
    nodes: int = 0
    elapsed: float = 0.0

    @property
    def found(self) -> bool:
        return self.status == "found"


@dataclass(frozen=True)
class IncrementalResult:
    status: str  # "found" | "budget" | "no-progress"
    proof: Certificate | None = None  # stepwise
    nodes: int = 0
    elapsed: float = 0.0

    @property
    def found(self) -> bool:
        return self.status == "found"


class _BudgetExceeded(Exception):
    pass


class _Found(Exception):
    """Early exit from the DFS; ``args[0]`` is what was found."""


class _Budget:
    """One search's start, deadline (None: unbounded), grace and DFS node count.

    ``grace`` is ``_GROUP_GRACE`` while a space is set up, and 0 in its scan.
    """

    def __init__(self, seconds: float | None):
        self.start = time.monotonic()
        self.deadline = None if seconds is None else self.start + seconds
        self.grace = 0.0
        self.nodes = 0

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline + self.grace:
            raise _BudgetExceeded

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes % 512 == 0:
            self.check()


# -- coefficient grids -------------------------------------------------------


def coefficient_grid(domain_kind: str, cfg: SearchConfig) -> list[Scalar]:
    """Grid values in canonical order (by magnitude, positive first)."""
    values: set[Scalar] = set()
    if domain_kind == "N":
        for n in range(-cfg.max_coeff, cfg.max_coeff + 1):
            values.add(Fraction(n))
    else:
        rationals = set()
        for q in cfg.denominators:
            for p in range(-cfg.max_coeff, cfg.max_coeff + 1):
                rationals.add(Fraction(p, q))
        values |= rationals
        if domain_kind == "R" and cfg.sqrt_d is not None:
            for a in rationals:
                for b in rationals:
                    values.add(quadext(a, b, cfg.sqrt_d))
    return sorted(values, key=lambda v: (abs(v), -v))


# -- degree shapes -----------------------------------------------------------


def _shape_ub(t: Term, degree_of) -> int:
    """A bound on the degree of t's polynomial, given each symbol's ``degree_of(sym)``."""
    if isinstance(t, Var):
        return 1
    d = degree_of(t.sym)
    if d == 0 or not t.args:
        return 0
    return d * max(_shape_ub(a, degree_of) for a in t.args)


def _shape_lb(t: Term, degree_of) -> int:
    if isinstance(t, Var):
        return 1
    d = degree_of(t.sym)
    if d == 0 or not t.args:
        return 0
    lbs = [_shape_lb(a, degree_of) for a in t.args]
    return max(max(lbs), d * min(lbs))


def _feasible_shapes(trs: Trs, cfg: SearchConfig, budget: _Budget) -> list[dict[str, int]]:
    """Degree assignments not refuted by per-rule degree comparison."""
    choices = []
    for sym in trs.signature:
        if sym.arity == 0:
            choices.append([0])
        else:
            choices.append(list(range(1, cfg.max_degree + 1)))
    shapes = []
    for combo in itertools.product(*choices):
        budget.check()
        shape = {sym.name: d for sym, d in zip(trs.signature, combo)}
        degree_of = lambda s: shape[s.name]  # noqa: E731
        if all(_shape_ub(r.lhs, degree_of) >= _shape_lb(r.rhs, degree_of) for r in trs.rules):
            shapes.append(shape)
    return shapes


# -- per-symbol candidate enumeration -----------------------------------------


def _template_positions(arity: int, degree: int) -> list:
    """Monomials of total degree <= degree, highest degree first."""
    groups: dict[int, list] = {}
    varnames = [arg_var(i) for i in range(1, arity + 1)]
    for exps in itertools.product(range(degree + 1), repeat=arity):
        total = sum(exps)
        if total <= degree:
            groups.setdefault(total, []).append(
                monomial({v: e for v, e in zip(varnames, exps)})
            )
    out = []
    for total in sorted(groups, reverse=True):
        out.extend(sorted(groups[total]))
    return out


def _symbol_candidates(
    sym: FunSym,
    degree: int,
    domain: DomainTag,
    values: list[Scalar],
    require_weak: bool,
    budget: _Budget,
) -> list[Poly]:
    """Well-defined, strictly (and optionally weakly) monotone templates.

    Each position runs through the grid values at or above a floor that
    ``_candidate_permissible`` implies (None: no floor): 0 for the constant
    (the value at the origin) and every degree-2 coefficient (the a and b_j
    of ``_mono_argument``), 1 for the slopes of a linear template (strict,
    which the kinds always hold), and 0 for the slopes of a quadratic one
    weakly monotone over Q0/R0, whose weak step is 0.  Filtering each
    position of the lexicographic product keeps the survivors in order, and
    each still goes through ``_candidate_permissible``.
    """
    positions = _template_positions(sym.arity, degree)
    degrees = [sum(e for _, e in m) for m in positions]
    top = [i for i, d in enumerate(degrees) if d == degree]
    slope_floor = 1 if degree == 1 else 0 if require_weak and domain.kind != "N" else None
    floors = [slope_floor if d == 1 else 0 for d in degrees]
    lists = [[v for v in values if floor is None or v >= floor] for floor in floors]
    kinds = ("strict", "weak") if require_weak else ("strict",)
    out: list[Poly] = []
    for coeffs in itertools.product(*lists):
        budget.check()
        if degree > 0 and all(scalar_sign(coeffs[i]) == 0 for i in top):
            continue  # belongs to a lower-degree template
        poly = Poly({m: c for m, c in zip(positions, coeffs)})
        if not _candidate_permissible(poly, sym.arity, domain, kinds):
            continue
        out.append(poly)
    return out


@dataclass(frozen=True)
class _RuleRecord:
    """A rule as ``_CandidateTable.holds`` reads it.

    ``syms`` lists the rule's symbols in first-occurrence order, lhs before
    rhs; a pick gives one candidate index per entry.  ``sides`` pairs each
    side with the positions of its own symbols in ``syms``.
    """

    index: int  # 1-based in the searched TRS
    syms: tuple[FunSym, ...]
    pos: dict[FunSym, int]  # sym -> its position in syms
    sides: tuple[tuple[Term, tuple[int, ...]], tuple[Term, tuple[int, ...]]]
    ground: bool  # no variable in the lhs, and so none in the rhs
    univariate: bool  # at most one variable


def _rule_record(index: int, rule: Rule) -> _RuleRecord:
    syms = tuple(dict.fromkeys(s for t in (rule.lhs, rule.rhs) for s in term_symbols(t)))
    pos = {s: i for i, s in enumerate(syms)}
    sides = tuple((t, tuple(pos[s] for s in term_symbols(t))) for t in (rule.lhs, rule.rhs))
    variables = term_vars(rule.lhs)
    return _RuleRecord(index, syms, pos, sides, not variables, len(variables) <= 1)


@dataclass(frozen=True)
class _CandidateTable:
    """The candidates of one search space and its one compatibility decider.

    ``scale`` is the lcm L of the candidates' denominators (of both parts of
    a + b*sqrt(d)), and ``root`` is d, or 0 when every coefficient and the
    margin are rational.  ``holds`` memoises every decision for the table's
    life, so plan samples and every searcher over the table share them.  It
    memoises each side's point values too; the plan drops those after
    sampling, since the scan reuses few of the random samples' sides.  The
    points decide nearly every check; the few left (over N, with two
    variables or past degree 2) are composed and not memoised.
    """

    domain: DomainTag
    require_weak: bool
    shapes: list[dict[str, int]]
    polys: dict[str, list[Poly]]  # per symbol name, in canonical order
    degrees: dict[str, list[int]]  # the template degree of each candidate
    scale: int
    root: int
    margins: dict[str, tuple[int, int, int]]  # _int_margin per mode
    forms: dict[str, list[tuple]]  # _int_form of each poly
    rules: tuple[_RuleRecord, ...]
    budget: _Budget
    # memos, empty also in a dataclasses.replace copy:
    # (rule index, mode) -> pick -> bool and (id(term), v) -> sub-pick -> _point_value
    _decided: dict = field(init=False, default_factory=partial(defaultdict, dict))
    _points: dict = field(init=False, default_factory=partial(defaultdict, dict))

    def holds(self, rec: _RuleRecord, mode: str, pick: tuple[int, ...]) -> bool:
        """Whether ``rec`` is compatible in ``mode`` under ``pick``, memoised.

        ``pick[i]`` is the candidate index of ``rec.syms[i]``.  Only a rule
        the points neither refute nor decide (as ground or by interpolation)
        is composed.
        """
        memo = self._decided[rec.index, mode]
        ok = memo.get(pick)
        if ok is None:
            self.budget.check()
            (lhs, lhs_pos), (rhs, rhs_pos) = rec.sides
            ok = _decided_at_points(partial(self._point_side, rec, pick, lhs, lhs_pos),
                                    partial(self._point_side, rec, pick, rhs, rhs_pos),
                                    self.margins[mode], self.scale, self.root, rec.ground,
                                    partial(self._quadratic, rec, pick))
            if ok is None:
                assignment = {s: self.polys[s.name][i] for s, i in zip(rec.syms, pick)}
                ok = _excess_proved(lambda: (eval_term_with(assignment, lhs),
                                             eval_term_with(assignment, rhs)),
                                    _margin(mode, self.domain), self.domain)
            memo[pick] = ok
        return ok

    def drop_side_memos(self) -> None:
        """Forget the sides' point values; decisions stay."""
        self._points.clear()

    def _point_side(self, rec, pick, term, positions, v):
        memo = self._points[id(term), v]
        key = tuple(map(pick.__getitem__, positions))
        if key not in memo:
            form_of = lambda s: self.forms[s.name][pick[rec.pos[s]]]  # noqa: E731
            memo[key] = (_root_point_value(term, v, form_of, self.scale, self.root) if self.root
                         else _point_value(term, v, form_of, self.scale))
        return memo[key]

    def _quadratic(self, rec, pick) -> bool:
        """Whether the excess is a quadratic in one variable, over Q0 or R0 (not N's ladder)."""
        degree_of = lambda s: self.degrees[s.name][pick[rec.pos[s]]]  # noqa: E731
        return (rec.univariate and self.domain.kind != "N"
                and all(_shape_ub(t, degree_of) <= 2 for t, _ in rec.sides))


def _parts(c: Scalar) -> tuple:
    """(a, b) of c = a + b*sqrt(d), rationals."""
    return (c.a, c.b) if isinstance(c, QuadExt) else (c, 0)


def _int_margin(margin: Scalar) -> tuple[int, int, int]:
    """(a, b, M) with margin = (a + b*sqrt(d)) / M."""
    a, b = _parts(margin)
    den = math.lcm(a.denominator, b.denominator)
    return int(a * den), int(b * den), den


def _int_form(poly: Poly, scale: int, root: int) -> tuple:
    """poly * scale as ((coefficient, ((argument index, exponent), ...)), ...).

    A coefficient is an int, or with a ``root`` d the int pair (a, b) of
    a + b*sqrt(d).
    """
    def scaled(c):
        a, b = _parts(c)
        return (int(a * scale), int(b * scale)) if root else int(c * scale)

    return tuple(
        (scaled(c), tuple((int(var[1:]) - 1, e) for var, e in m))  # var is x<i>
        for m, c in poly.terms.items()
    )


def _candidate_table(
    trs: Trs,
    domain: DomainTag,
    cfg: SearchConfig,
    require_weak: bool,
    budget: _Budget,
) -> _CandidateTable:
    """Feasible shapes and per-symbol candidates of every feasible degree.

    The candidates depend on a symbol's arity only, so each (arity, degree)
    group is filtered once and shared by every symbol of that arity.
    """
    budget.grace = _GROUP_GRACE  # until the scan starts (_Searcher._descend)
    values = coefficient_grid(domain.kind, replace(cfg, sqrt_d=domain.d))
    shapes = _feasible_shapes(trs, cfg, budget)
    groups: dict[tuple[int, int], list[Poly]] = {}
    polys: dict[str, list[Poly]] = {}
    degrees: dict[str, list[int]] = {}
    for sym in trs.signature:
        polys[sym.name], degrees[sym.name] = [], []
        for d in sorted({shape[sym.name] for shape in shapes}):
            key = (sym.arity, d)
            if key not in groups:
                groups[key] = _symbol_candidates(sym, d, domain, values, require_weak, budget)
            polys[sym.name].extend(groups[key])
            degrees[sym.name].extend([d] * len(groups[key]))
    coeffs = [c for group in groups.values() for p in group for c in p.coeffs()]
    # one radicand at most: the grid's is the tag's, and DomainTag matches its delta's to it
    root = next((c.d for c in coeffs + [domain.strict_margin] if isinstance(c, QuadExt)), 0)
    scale = math.lcm(*(x.denominator for c in coeffs for x in _parts(c)))
    margins = {mode: _int_margin(_margin(mode, domain)) for mode in ("strict", "weak")}
    forms = {name: [_int_form(p, scale, root) for p in ps] for name, ps in polys.items()}
    rules = tuple(_rule_record(i, rule) for i, rule in enumerate(trs.rules, start=1))
    return _CandidateTable(
        domain, require_weak, shapes, polys, degrees, scale, root, margins, forms, rules, budget
    )


# -- point refutation ----------------------------------------------------------


def _denominator_past_cap(scale: int, k: int) -> bool:
    """Whether scale**k may pass MAX_COEFF_BITS (it has at most k * bits(scale))."""
    return scale > 1 and k * scale.bit_length() > MAX_COEFF_BITS


def _point_value(term: Term, v: int, form_of, scale: int) -> "tuple[int, int] | None":
    """The exact value n / scale**k of a term with every variable at v, as (n, k).

    ``form_of(sym)`` is the ``_int_form`` of sym's candidate; k does not
    depend on v.  None where the n of the term or a subterm passes
    ``_POINT_BITS``, or scale**k may pass ``MAX_COEFF_BITS``; the caller then
    composes.  Otherwise composing a term the points decide passes no limit
    either.  Its coefficients are m_j / scale**k for ints m_j.  A ground
    term's m_0 is n; of degree <= 2 in x (so are its subterms, as a symbol
    with arguments has degree >= 1), m_0 = n(0), m_2 = (n(16) - 16*n(1) +
    15*n(0)) / 240 and m_1 = n(1) - n(0) - m_2, so |m_j| < 2.2 * max |n(v)|;
    it forms 9 products per monomial at most, within ``MAX_TERMS`` up to
    arity 45; past it a template group has 3^47 templates at least.
    """
    if isinstance(term, Var):
        return v, 0
    args = []
    for a in term.args:
        value = _point_value(a, v, form_of, scale)
        if value is None:
            return None
        args.append(value)
    parts = []  # per monomial: c * prod n_i^e_i, and sum e_i * k_i
    for c, m in form_of(term.sym):
        s = 0
        for i, e in m:
            n_i, k_i = args[i]
            c *= n_i**e
            s += e * k_i
        parts.append((c, s))
    k = 1 + max((s for _, s in parts), default=0)
    n = sum(c * scale ** (k - 1 - s) for c, s in parts)
    if n.bit_length() > _POINT_BITS or _denominator_past_cap(scale, k):
        return None
    return n, k


def _root_point_value(term: Term, v: int, form_of, scale: int, root: int):
    """``_point_value`` over Q(sqrt root): ((a, b), k) for (a + b*sqrt(root)) / scale**k.

    None past ``_POINT_BITS`` in a or b; each part interpolates as n does.
    """
    if isinstance(term, Var):
        return (v, 0), 0
    args = []
    for a in term.args:
        value = _root_point_value(a, v, form_of, scale, root)
        if value is None:
            return None
        args.append(value)
    parts = []  # per monomial: (a, b) * prod (a_i, b_i)^e_i, and sum e_i * k_i
    for (ca, cb), m in form_of(term.sym):
        s = 0
        for i, e in m:
            (na, nb), k_i = args[i]
            for _ in range(e):
                ca, cb = ca * na + root * cb * nb, ca * nb + cb * na
            s += e * k_i
        parts.append((ca, cb, s))
    k = 1 + max((s for _, _, s in parts), default=0)
    a = sum(ca * scale ** (k - 1 - s) for ca, _, s in parts)
    b = sum(cb * scale ** (k - 1 - s) for _, cb, s in parts)
    if max(a.bit_length(), b.bit_length()) > _POINT_BITS or _denominator_past_cap(scale, k):
        return None
    return (a, b), k


def _decided_at_points(lhs_at, rhs_at, margin, scale: int, root: int, ground: bool, quadratic):
    """lhs - rhs >= margin decided at points: False, True, or None to compose.

    ``lhs_at(v)`` and ``rhs_at(v)`` are the sides' point values at v, and
    ``margin`` is an ``_int_margin``.  A point of ``_REFUTE_POINTS`` where the
    excess falls short is a disproof.  A ``ground`` rule is decided at x = 0,
    and one where ``quadratic()`` holds by its excess at the three points.
    The excess at v is e_v / (den * scale**k), and k does not depend on v.
    """
    ma, mb, den = margin
    excess = []
    for v in (0,) if ground else _REFUTE_POINTS:
        left, right = lhs_at(v), rhs_at(v)
        if left is None or right is None:
            return None
        (x1, k1), (x2, k2) = left, right
        k = max(k1, k2)
        s1, s2, sk = scale ** (k - k1), scale ** (k - k2), scale**k
        if root:
            e = ((x1[0] * s1 - x2[0] * s2) * den - ma * sk,
                 (x1[1] * s1 - x2[1] * s2) * den - mb * sk)
        else:
            e = (x1 * s1 - x2 * s2) * den - ma * sk
        if (quadratic_sign(*e, root) if root else e) < 0:
            return False
        excess.append(e)
    return True if ground else _interpolated_nonneg(*excess, root) if quadratic() else None


def _interpolated_nonneg(e0, e1, e16, root: int) -> bool:
    """The ladder's verdict on the quadratic excess with these scaled values.

    c2, c1, c0 are 240 times its coefficients.  Over Q0 and R0 the ladder's
    constant rung, absolute positiveness and ``quad_nonneg_halfline`` each
    prove it exactly where the half-line test holds, as at any positive
    scale.  With a ``root`` d the values are pairs (a, b) of a + b*sqrt(d).
    """
    if root:
        e0, e1, e16 = (quadext(a, b, root) for a, b in (e0, e1, e16))
    c2 = e16 - 16 * e1 + 15 * e0
    return quad_nonneg_halfline(c2, 240 * (e1 - e0) - c2, 240 * e0)


def _excess_proved(sides, margin: Scalar, domain: DomainTag) -> bool:
    """lhs - rhs - margin >= 0 proved, where sides() composes (lhs, rhs).

    A composition past the limits of ``poly`` is not proved, like Unknown.
    """
    try:
        lhs, rhs = sides()
    except CompositionTooLarge:
        return False
    return excess_at_least(lhs, rhs, margin, domain.base).is_proved


# -- the backtracking search engine --------------------------------------------


@dataclass
class _RuleSlot:
    rec: _RuleRecord
    pick_levels: tuple[int, ...]  # the level of each of rec.syms


class _Searcher:
    """Joint enumeration over a candidate table with rule pruning.

    Levels follow ``_plan_order`` when ``planned`` (fast full scans), else
    the signature (canonical order, for first hits).
    """

    def __init__(self, trs: Trs, table: _CandidateTable, planned: bool):
        self.table = table
        if planned:
            mode = "weak" if table.require_weak else "strict"
            self.symbols = _plan_order(trs, table, mode)
        else:
            self.symbols = list(trs.signature)
        shapes = {tuple(shape[s.name] for s in self.symbols) for shape in table.shapes}
        self._prefixes = [{t[:k] for t in shapes} for k in range(len(self.symbols) + 1)]
        self.cands = [table.polys[s.name] for s in self.symbols]
        self.cand_degrees = [table.degrees[s.name] for s in self.symbols]

        level_of = {sym: lvl for lvl, sym in enumerate(self.symbols)}
        self.rules = [_RuleSlot(rec, tuple(map(level_of.get, rec.syms))) for rec in table.rules]
        # a rule is ready at the level of its last symbol; at each level, the
        # largest group of ready rules sharing one dependency key drives a
        # memoized pass-list over the candidates, and the rest follow in rule order
        self.driver_rules, self.driver_deps, self.other_rules = [], [], []
        for lvl in range(len(self.symbols)):
            ready = [slot for slot in self.rules if max(slot.pick_levels) == lvl]
            groups = defaultdict(list)
            for slot in ready:
                groups[tuple(sorted(l for l in slot.pick_levels if l != lvl))].append(slot)
            dep = max(groups, key=lambda k: len(groups[k]), default=())
            self.driver_rules.append(groups[dep])
            self.driver_deps.append(dep)
            self.other_rules.append([slot for slot in ready if slot not in groups[dep]])
        self._driver_memo: list[dict[tuple, list[int]]] = [{} for _ in self.symbols]
        self.idx = [-1] * len(self.symbols)

    def _compat(self, slot: _RuleSlot, mode: str) -> bool:
        pick = tuple(map(self.idx.__getitem__, slot.pick_levels))
        return self.table.holds(slot.rec, mode, pick)

    def _level_candidates(self, level: int, mode: str) -> "list[int]":
        """Candidate indices at a level, pre-filtered by the driver rules.

        The pass-list only depends on the candidates of the driver rules'
        other symbols, so it is shared across every prefix agreeing there.
        """
        driver = self.driver_rules[level]
        if not driver:
            return range(len(self.cands[level]))  # type: ignore[return-value]
        key = (mode,) + tuple(self.idx[l] for l in self.driver_deps[level])
        memo = self._driver_memo[level]
        passing = memo.get(key)
        if passing is None:
            passing = []
            for ci in range(len(self.cands[level])):
                self.idx[level] = ci
                if all(self._compat(slot, mode) for slot in driver):
                    passing.append(ci)
            self.idx[level] = -1
            memo[key] = passing
        return passing

    def _descend(self, mode: str, visit, leaf) -> None:
        """The one DFS over assignments (``_walk``), pruned by ``mode`` compatibility."""
        self.table.budget.grace = 0.0  # the space's set-up is over: check without grace
        self.table.budget.check()
        self._walk(0, (), 0, mode, visit, leaf)

    def _walk(self, level: int, degrees: tuple[int, ...], state, mode: str, visit, leaf) -> None:
        """The DFS below a prefix whose degree shape is ``degrees``.

        Each level walks its pass-list, skips infeasible degree shapes and
        assigns the candidate; ``visit(level, state)`` then returns the
        child's state, or None to prune the subtree.  ``leaf(state)`` runs
        on every full assignment; the root state is 0.  A method, so no
        closure refers to itself and keeps the searcher (and its table)
        alive past its scan.
        """
        if level == len(self.symbols):
            leaf(state)
            return
        cand_degrees = self.cand_degrees[level]
        for ci in self._level_candidates(level, mode):
            new_degrees = degrees + (cand_degrees[ci],)
            if new_degrees not in self._prefixes[level + 1]:
                continue
            self.table.budget.tick()
            self.idx[level] = ci
            child = visit(level, state)
            if child is not None:
                self._walk(level + 1, new_degrees, child, mode, visit, leaf)
        self.idx[level] = -1

    def iterate(self, on_leaf) -> None:
        """DFS over assignments, pruned by strict compatibility; ``on_leaf(self)`` at each leaf."""

        def visit(level: int, state):
            ok = all(self._compat(slot, "strict") for slot in self.other_rules[level])
            return state if ok else None

        self._descend("strict", visit, lambda state: on_leaf(self))

    def scan_removal(self, target: int | None = None) -> "int | tuple[Interp, tuple[int, ...]] | None":
        """Branch-and-bound scan of the weakly compatible space.

        With ``target=None``: return the maximum number of strictly
        compatible rules any valid interpretation achieves (0 if none).
        A completed rule whose strict check fails caps the score of the
        whole subtree, so only subtrees that could still improve are
        entered; no tie-chasing happens in this pass.

        With a ``target``: return the first interpretation reaching it, or
        None.  Run on a signature-ordered searcher, depth-first order is
        canonical-key order, so the first hit is the canonically least.
        The DFS state is the number of strict failures so far.
        """
        total = len(self.rules)
        best_score = 0

        def visit(level: int, fails: int):
            for slot in self.driver_rules[level]:
                if not self._compat(slot, "strict"):
                    fails += 1
            for slot in self.other_rules[level]:
                if not self._compat(slot, "weak"):
                    return None
                if not self._compat(slot, "strict"):
                    fails += 1
            needed = target if target is not None else best_score + 1
            return fails if total - fails >= max(needed, 1) else None

        def leaf(fails: int) -> None:
            nonlocal best_score
            score = total - fails
            if target is None:
                best_score = max(best_score, score)
            elif score == target:
                strict = tuple(
                    slot.rec.index for slot in self.rules if self._compat(slot, "strict")
                )
                raise _Found((self.interp_from_state(), strict))

        try:
            self._descend("weak", visit, leaf)
        except _Found as hit:
            return hit.args[0]
        return best_score if target is None else None

    def interp_from_state(self) -> Interp:
        polys = {sym: self.cands[lvl][self.idx[lvl]] for lvl, sym in enumerate(self.symbols)}
        return Interp(self.table.domain, polys)


def _rule_selectivity(
    rec: _RuleRecord, table: _CandidateTable, mode: str, rng: random.Random
) -> float:
    """Estimated pass rate of one compatibility check over random candidates."""
    counts = [len(table.polys[s.name]) for s in rec.syms]
    if not all(counts):
        return 0.0
    # choosing from a range draws exactly as choosing from the list
    passed = sum(
        table.holds(rec, mode, tuple(rng.choice(range(n)) for n in counts))
        for _ in range(_SELECTIVITY_SAMPLES)
    )
    return (passed + 1) / (_SELECTIVITY_SAMPLES + 2)


def _plan_order(trs: Trs, table: _CandidateTable, mode: str) -> list[FunSym]:
    """Level order minimizing estimated enumeration volume.

    A rule prunes a prefix as soon as all its symbols are assigned, with a
    selectivity measured on a random sample; a subset dynamic program then
    picks the order whose summed per-level volume estimate is least.  The
    order only affects speed: full scans and canonical tie-breaking do not
    depend on it.
    """
    symbols = list(trs.signature)
    candidates = table.polys
    n = len(symbols)
    if n > 14:
        return sorted(symbols, key=lambda s: (len(candidates[s.name]), symbols.index(s)))
    rng = random.Random(0)
    rule_masks: list[tuple[int, float]] = []
    for rec in table.rules:
        mask = 0
        for s in rec.syms:
            mask |= 1 << symbols.index(s)
        rule_masks.append((mask, _rule_selectivity(rec, table, mode, rng)))
    table.drop_side_memos()

    counts = [max(1, len(candidates[s.name])) for s in symbols]
    full = (1 << n) - 1
    sel = [1.0] * (full + 1)
    prod = [1.0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        prod[mask] = prod[rest] * counts[low.bit_length() - 1]
    for mask in range(full + 1):
        s = 1.0
        for rmask, sigma in rule_masks:
            if rmask & mask == rmask:
                s *= sigma
        sel[mask] = s

    INF = float("inf")
    cost = [INF] * (full + 1)
    choice = [-1] * (full + 1)
    cost[0] = 0.0
    for mask in range(1, full + 1):
        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                continue
            prev = mask ^ bit
            c = cost[prev] + prod[mask] * sel[prev]
            if c < cost[mask]:
                cost[mask] = c
                choice[mask] = i
    order: list[FunSym] = []
    mask = full
    while mask:
        i = choice[mask]
        order.append(symbols[i])
        mask ^= 1 << i
    order.reverse()
    return order


def _domains_to_try(domain, cfg: SearchConfig) -> list[DomainTag]:
    """A DomainTag fixes delta and d; a kind string tries each delta, with d = sqrt_d."""
    if isinstance(domain, DomainTag):
        return [domain]
    if domain == "N":
        return [DomainTag("N")]
    if domain == "Q":
        return [DomainTag("Q", as_scalar(dl)) for dl in cfg.deltas]
    if domain == "R":
        return [DomainTag("R", as_scalar(dl), cfg.sqrt_d) for dl in cfg.deltas]
    raise ValueError(f"unknown domain {domain!r}")


# -- public operations ----------------------------------------------------------


def _strict_scan(
    trs: Trs, domain, cfg: SearchConfig, budget: _Budget, planned: bool, on_leaf
) -> "tuple[str, Interp | None]":
    """The strict DFS over each configured delta in turn, under one budget.

    ``on_leaf(searcher)`` runs on every certificate and may stop the scan by
    raising ``_Found``.  Each space's searcher is a temporary that no name
    binds, so it and its table are freed when its scan returns, before the
    next space is set up.  Returns ("found", what was found), ("exhausted",
    None) or ("budget", None).
    """
    try:
        for tag in _domains_to_try(domain, cfg):
            _Searcher(trs, _candidate_table(trs, tag, cfg, False, budget), planned).iterate(on_leaf)
    except _Found as hit:
        return "found", hit.args[0]
    except _BudgetExceeded:
        return "budget", None
    return "exhausted", None


def search_direct(trs: Trs, domain, cfg: SearchConfig) -> SearchResult:
    """First certificate in canonical order, or exhausted/budget status."""
    budget = _Budget(cfg.budget_seconds)

    def grab(searcher: _Searcher):
        raise _Found(searcher.interp_from_state())

    status, interp = _strict_scan(trs, domain, cfg, budget, False, grab)
    return SearchResult(status, interp, budget.nodes, time.monotonic() - budget.start)


def _best_step(
    trs: Trs, tag: DomainTag, cfg: SearchConfig, budget: _Budget
) -> "tuple[Interp, tuple[int, ...]] | None":
    """The valid interpretation removing the most rules (ties: least key).

    A planned scout finds the best score, then a signature-ordered picker
    finds the canonically least interpretation reaching it; both read one
    candidate table.
    """
    table = _candidate_table(trs, tag, cfg, True, budget)
    top = _Searcher(trs, table, planned=True).scan_removal()
    if not top:
        return None
    return _Searcher(trs, table, planned=False).scan_removal(target=top)


def search_incremental(trs: Trs, domain, cfg: SearchConfig) -> IncrementalResult:
    """Greedy removal loop per Definition of stepwise polynomial termination."""
    budget = _Budget(cfg.budget_seconds)
    tags = _domains_to_try(domain, cfg)
    steps: list[tuple[Interp, tuple[int, ...]]] = []
    residual = trs

    def result(status: str, proof: Certificate | None = None) -> IncrementalResult:
        return IncrementalResult(status, proof, budget.nodes, time.monotonic() - budget.start)

    while residual.rules:
        if len(steps) >= cfg.max_steps:
            return result("no-progress")
        best_choice = None
        for tag in tags:
            try:
                choice = _best_step(residual, tag, cfg, budget)
            except _BudgetExceeded:
                return result("budget")
            if choice is not None:
                removed = choice[1]
                if best_choice is None or len(removed) > len(best_choice[1]):
                    best_choice = choice
                if len(removed) == len(residual.rules):
                    break
        if best_choice is None:
            return result("no-progress")
        interp, removed = best_choice
        steps.append((interp, removed))
        keep = [i for i in range(len(residual.rules)) if (i + 1) not in removed]
        residual = residual.subsystem(keep)
    return result("found", Certificate(steps=tuple(steps)))


# -- exhaustion reports -----------------------------------------------------------


@dataclass(frozen=True)
class ExhaustionReport:
    trs_name: str
    domain_kind: str
    bounds: str
    complete: bool
    cert_count: int
    examples: tuple[str, ...] = ()
    nodes: int = 0
    elapsed: float = 0.0

    def line(self) -> str:
        word = "EXHAUSTED" if self.complete else "INCONCLUSIVE"
        return f"{word} {self.bounds} CERTS {self.cert_count}"

    def format(self) -> str:
        out = [self.line()]
        out.append("  a zero count is a bounded-search consistency check, not a nonexistence proof")
        for ex in self.examples:
            out.append("  found: " + ex.replace("\n", " "))
        return "\n".join(out)


def exhaustion_report(trs: Trs, domain, cfg: SearchConfig) -> ExhaustionReport:
    """Enumerate the whole space, counting every direct certificate in it."""
    budget = _Budget(cfg.budget_seconds)
    kind = domain.kind if isinstance(domain, DomainTag) else str(domain)
    if isinstance(domain, DomainTag) and kind != "N":  # report the one space searched
        cfg = replace(cfg, deltas=(domain.delta,), sqrt_d=domain.d)
    count = 0
    examples: list[str] = []

    def leaf(searcher: _Searcher):
        nonlocal count
        count += 1
        if len(examples) < _KEPT_EXAMPLES:
            examples.append(repr(searcher.interp_from_state()))

    status, _ = _strict_scan(trs, domain, cfg, budget, True, leaf)
    return ExhaustionReport(trs.name or "trs", kind, cfg.bounds_text(kind), status == "exhausted",
                            count, tuple(examples), budget.nodes, time.monotonic() - budget.start)
