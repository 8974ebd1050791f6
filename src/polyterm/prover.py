"""Bounded template search for certificates, direct and incremental.

The search space is a finite grid: every function symbol gets a template of
total degree at most ``max_degree`` (2 at most) whose coefficients range over

* integers |c| <= max_coeff                          over N,
* p/q with |p| <= max_coeff, q in denominators       over Q,
* a + b*sqrt(d) with a, b from the Q grid            over R (when sqrt_d set),

and delta ranges over the configured candidates.  Only candidates that are
well-defined and strictly monotone (plus weakly monotone for incremental
steps) enter the space; that filter discards nothing a certificate could
use.  Three sound prunings keep enumeration feasible and cannot drop an
acceptable candidate:

* degree shapes: a rule whose right-hand side out-degrees its left-hand
  side under a candidate degree assignment refutes weak compatibility for
  every coefficient choice of that shape (leading coefficients of monotone
  interpretations are positive, so composed degrees do not cancel);
* early rule rejection: as soon as all symbols of a rule are assigned, a
  failed compatibility check discards the whole subtree;
* point refutation: before composing a rule, its excess lhs - rhs - margin
  is evaluated at the all-equal points x = 0, 1, 16 of the carrier, exactly:
  with every coefficient scaled to an integer by the lcm L of the grid's
  denominators, a term's value is n / L^k for Python ints n, k, so a
  negative value is a true counterexample and disproves the rule.  Only the
  survivors are composed and decided by ``nonneg_on``.  Grids with
  sqrt(d) coefficients skip this step.

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
decided once in a space is never decided again there.
``budget_seconds`` is checked in set-up too (per candidate group, plan rule
and pass-list candidate), not only every 512 nodes.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from typing import Mapping

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
from .numeric import DomainTag, QuadExt, Scalar, as_scalar, format_scalar, quadext, scalar_sign
from .poly import MAX_COEFF_BITS, Poly, monomial
from .positivity import excess_at_least
from .trs import FunSym, Rule, Term, Trs, Var, term_symbols

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
_KEPT_EXAMPLES = 3  # certificates an exhaustion report prints


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
    status: str  # "found" | "exhausted" | "budget" | "no-progress"
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


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _BudgetExceeded


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


def _shape_ub(t: Term, shape: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        return 1
    d = shape[t.sym.name]
    if d == 0 or not t.args:
        return 0
    return d * max(_shape_ub(a, shape) for a in t.args)


def _shape_lb(t: Term, shape: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        return 1
    d = shape[t.sym.name]
    if d == 0 or not t.args:
        return 0
    lbs = [_shape_lb(a, shape) for a in t.args]
    return max(max(lbs), d * min(lbs))


def _feasible_shapes(trs: Trs, cfg: SearchConfig) -> list[dict[str, int]]:
    """Degree assignments not refuted by per-rule degree comparison."""
    choices = []
    for sym in trs.signature:
        if sym.arity == 0:
            choices.append([0])
        else:
            choices.append(list(range(1, cfg.max_degree + 1)))
    shapes = []
    for combo in itertools.product(*choices):
        shape = {sym.name: d for sym, d in zip(trs.signature, combo)}
        if all(
            _shape_ub(r.lhs, shape) >= _shape_lb(r.rhs, shape) for r in trs.rules
        ):
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
) -> list[Poly]:
    """Well-defined, strictly (and optionally weakly) monotone templates."""
    positions = _template_positions(sym.arity, degree)
    top = [i for i, m in enumerate(positions) if sum(e for _, e in m) == degree]
    # over Q0/R0 a weakly monotone well-defined template of degree <= 2
    # has no negative coefficient at all
    if require_weak and domain.kind != "N":
        values = [v for v in values if scalar_sign(v) >= 0]
    kinds = ("strict", "weak") if require_weak else ("strict",)
    out: list[Poly] = []
    for coeffs in itertools.product(values, repeat=len(positions)):
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


def _rule_record(index: int, rule: Rule) -> _RuleRecord:
    syms = tuple(dict.fromkeys(s for t in (rule.lhs, rule.rhs) for s in term_symbols(t)))
    pos = {s: i for i, s in enumerate(syms)}
    sides = tuple((t, tuple(pos[s] for s in term_symbols(t))) for t in (rule.lhs, rule.rhs))
    return _RuleRecord(index, syms, pos, sides)


@dataclass(frozen=True)
class _CandidateTable:
    """The candidates of one search space and its one compatibility decider.

    ``scale`` is the lcm L of the candidates' denominators, None when a
    coefficient or the margin is in Q(sqrt d).  ``holds`` memoises every
    decision for the table's life, so plan samples and every searcher over
    the table share them.  It memoises each side's point values and
    composition too; the plan drops those after sampling, since the scan
    reuses few of the random samples' sides.
    """

    domain: DomainTag
    require_weak: bool
    shapes: list[dict[str, int]]
    polys: dict[str, list[Poly]]  # per symbol name, in canonical order
    degrees: dict[str, list[int]]  # the template degree of each candidate
    scale: int | None
    forms: dict[str, list[tuple]]  # _int_form of each poly; empty if scale is None
    rules: tuple[_RuleRecord, ...]
    # memos, empty also in a dataclasses.replace copy:
    # (rule index, mode) -> pick -> bool, id(term) -> sub-pick -> Poly and
    # (id(term), v) -> sub-pick -> _point_value
    _decided: dict = field(init=False, default_factory=partial(defaultdict, dict))
    _composed: dict = field(init=False, default_factory=partial(defaultdict, dict))
    _points: dict = field(init=False, default_factory=partial(defaultdict, dict))

    def holds(self, rec: _RuleRecord, mode: str, pick: tuple[int, ...]) -> bool:
        """Whether ``rec`` is compatible in ``mode`` under ``pick``, memoised.

        ``pick[i]`` is the candidate index of ``rec.syms[i]``.  A rule refuted
        at a point is decided without composing; the rest are composed.
        """
        memo = self._decided[rec.index, mode]
        ok = memo.get(pick)
        if ok is None:
            (lhs, lhs_pos), (rhs, rhs_pos) = rec.sides
            margin = _margin(mode, self.domain)
            ok = not _refuted_at_points(
                partial(self._point_side, rec, pick, lhs, lhs_pos),
                partial(self._point_side, rec, pick, rhs, rhs_pos),
                margin,
                self.scale,
            ) and _excess_proved(
                lambda: (self._composed_side(rec, pick, lhs, lhs_pos),
                         self._composed_side(rec, pick, rhs, rhs_pos)),
                margin,
                self.domain,
            )
            memo[pick] = ok
        return ok

    def drop_side_memos(self) -> None:
        """Forget the sides' point values and compositions; decisions stay."""
        self._points.clear()
        self._composed.clear()

    def _point_side(self, rec, pick, term, positions, v):
        memo = self._points[id(term), v]
        key = tuple(map(pick.__getitem__, positions))
        if key not in memo:
            form_of = lambda s: self.forms[s.name][pick[rec.pos[s]]]  # noqa: E731
            memo[key] = _point_value(term, v, form_of, self.scale)
        return memo[key]

    def _composed_side(self, rec, pick, term, positions) -> Poly:
        memo = self._composed[id(term)]
        key = tuple(map(pick.__getitem__, positions))
        poly = memo.get(key)
        if poly is None:
            assignment = {s: self.polys[s.name][i] for s, i in zip(rec.syms, pick)}
            poly = memo[key] = eval_term_with(assignment, term)
        return poly


def _int_form(poly: Poly, scale: int) -> tuple:
    """poly * scale as ((integer coefficient, ((argument index, exponent), ...)), ...)."""
    return tuple(
        (int(c * scale), tuple((int(var[1:]) - 1, e) for var, e in m))  # var is x<i>
        for m, c in poly.terms.items()
    )


def _candidate_table(
    trs: Trs,
    domain: DomainTag,
    cfg: SearchConfig,
    require_weak: bool,
    deadline: float | None,
) -> _CandidateTable:
    """Feasible shapes and per-symbol candidates of every feasible degree.

    The candidates depend on a symbol's arity only, so each (arity, degree)
    group is filtered once and shared by every symbol of that arity.
    """
    values = coefficient_grid(domain.kind, cfg)
    shapes = _feasible_shapes(trs, cfg)
    groups: dict[tuple[int, int], list[Poly]] = {}
    polys: dict[str, list[Poly]] = {}
    degrees: dict[str, list[int]] = {}
    for sym in trs.signature:
        polys[sym.name], degrees[sym.name] = [], []
        for d in sorted({shape[sym.name] for shape in shapes}):
            key = (sym.arity, d)
            if key not in groups:
                groups[key] = _symbol_candidates(sym, d, domain, values, require_weak)
                _check_deadline(deadline)
            polys[sym.name].extend(groups[key])
            degrees[sym.name].extend([d] * len(groups[key]))
    coeffs = [c for group in groups.values() for p in group for c in p.coeffs()]
    scale, forms = None, {}
    if not any(isinstance(c, QuadExt) for c in coeffs + [domain.strict_margin]):
        scale = math.lcm(*(c.denominator for c in coeffs))
        forms = {name: [_int_form(p, scale) for p in ps] for name, ps in polys.items()}
    rules = tuple(_rule_record(i, rule) for i, rule in enumerate(trs.rules, start=1))
    return _CandidateTable(domain, require_weak, shapes, polys, degrees, scale, forms, rules)


# -- point refutation ----------------------------------------------------------


def _point_value(term: Term, v: int, form_of, scale: int) -> "tuple[int, int] | None":
    """The exact value n / scale**k of a term with every variable at v, as (n, k).

    ``form_of(sym)`` is the ``_int_form`` of sym's candidate.  None past
    ``MAX_COEFF_BITS``: the caller then composes, where that limit applies.
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
    if n.bit_length() > MAX_COEFF_BITS or k * (scale.bit_length() - 1) > MAX_COEFF_BITS:
        return None
    return n, k


def _refuted_at_points(lhs_at, rhs_at, margin: Scalar, scale: int | None) -> bool:
    """lhs - rhs - margin < 0 at some point of ``_REFUTE_POINTS``: a disproof.

    ``lhs_at(v)`` and ``rhs_at(v)`` are the sides' ``_point_value`` at v.
    """
    if scale is None:
        return False
    for v in _REFUTE_POINTS:
        left, right = lhs_at(v), rhs_at(v)
        if left is None or right is None:
            return False
        (n1, k1), (n2, k2) = left, right
        k = max(k1, k2)
        excess = (n1 * scale ** (k - k1) - n2 * scale ** (k - k2)) * margin.denominator
        if excess < margin.numerator * scale ** k:
            return True
    return False


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

    def __init__(
        self,
        trs: Trs,
        table: _CandidateTable,
        planned: bool,
        deadline: float | None,
    ):
        self.table = table
        self.deadline = deadline
        self.nodes = 0

        if planned:
            mode = "weak" if table.require_weak else "strict"
            level_symbols = _plan_order(trs, table, mode, deadline=deadline)
        else:
            level_symbols = list(trs.signature)
        self.symbols = level_symbols
        self.shape_tuples = {
            tuple(shape[s.name] for s in level_symbols) for shape in table.shapes
        }
        self._prefixes = [
            {t[:k] for t in self.shape_tuples} for k in range(len(level_symbols) + 1)
        ]
        self.cands = [table.polys[s.name] for s in level_symbols]
        self.cand_degrees = [table.degrees[s.name] for s in level_symbols]

        level_of = {sym: lvl for lvl, sym in enumerate(level_symbols)}
        self.rules = [_RuleSlot(rec, tuple(map(level_of.get, rec.syms))) for rec in table.rules]
        self.by_ready: list[list[_RuleSlot]] = [[] for _ in level_symbols]
        for slot in self.rules:
            self.by_ready[max(slot.pick_levels)].append(slot)
        # at each level, the largest group of ready rules sharing one
        # dependency key drives a memoized pass-list over the candidates
        self.driver_rules: list[list[_RuleSlot]] = []
        self.driver_deps: list[tuple[int, ...]] = []
        self.other_rules: list[list[_RuleSlot]] = []
        for lvl, slots in enumerate(self.by_ready):
            groups: dict[tuple[int, ...], list[_RuleSlot]] = {}
            for slot in slots:
                dep = tuple(sorted(l for l in slot.pick_levels if l != lvl))
                groups.setdefault(dep, []).append(slot)
            if groups:
                dep = max(groups, key=lambda k: len(groups[k]))
                self.driver_rules.append(groups[dep])
                self.driver_deps.append(dep)
                self.other_rules.append(
                    [s for s in slots if s not in groups[dep]]
                )
            else:
                self.driver_rules.append([])
                self.driver_deps.append(())
                self.other_rules.append([])
        self._driver_memo: list[dict[tuple, list[int]]] = [
            {} for _ in level_symbols
        ]

        self.idx: list[int] = [-1] * len(level_symbols)

    def _compat(self, slot: _RuleSlot, mode: str) -> bool:
        pick = tuple(map(self.idx.__getitem__, slot.pick_levels))
        return self.table.holds(slot.rec, mode, pick)

    def _tick(self):
        self.nodes += 1
        if self.nodes % 512 == 0:
            _check_deadline(self.deadline)

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
                _check_deadline(self.deadline)
                self.idx[level] = ci
                if all(self._compat(slot, mode) for slot in driver):
                    passing.append(ci)
            self.idx[level] = -1
            memo[key] = passing
        return passing

    def _shape_feasible(self, prefix_degrees: tuple[int, ...]) -> bool:
        return prefix_degrees in self._prefixes[len(prefix_degrees)]

    def _descend(self, mode: str, visit, leaf) -> None:
        """The one DFS over assignments, pruned by ``mode`` compatibility.

        Each level walks its pass-list, skips infeasible degree shapes and
        assigns the candidate; ``visit(level, state)`` then returns the
        child's state, or None to prune the subtree.  ``leaf(state)`` runs
        on every full assignment.  The root state is 0.
        """
        n = len(self.symbols)

        def walk(level: int, degrees: tuple[int, ...], state) -> None:
            if level == n:
                leaf(state)
                return
            cand_degrees = self.cand_degrees[level]
            for ci in self._level_candidates(level, mode):
                new_degrees = degrees + (cand_degrees[ci],)
                if not self._shape_feasible(new_degrees):
                    continue
                self._tick()
                self.idx[level] = ci
                child = visit(level, state)
                if child is not None:
                    walk(level + 1, new_degrees, child)
            self.idx[level] = -1

        walk(0, (), 0)

    def iterate(self, prune_mode: str, on_leaf) -> None:
        """DFS over assignments; prune with weak or strict compatibility."""

        def visit(level: int, state):
            ok = all(self._compat(slot, prune_mode) for slot in self.other_rules[level])
            return state if ok else None

        self._descend(prune_mode, visit, lambda state: on_leaf())

    def scan_removal(
        self, target: int | None = None
    ) -> "int | tuple[Interp, tuple[int, ...]] | None":
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


def _plan_order(
    trs: Trs, table: _CandidateTable, mode: str, *, deadline: float | None = None
) -> list[FunSym]:
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
    if n == 0:
        return []
    if n > 14:
        return sorted(symbols, key=lambda s: (len(candidates[s.name]), symbols.index(s)))
    rng = random.Random(0)
    rule_masks: list[tuple[int, float]] = []
    for rec in table.rules:
        mask = 0
        for s in rec.syms:
            mask |= 1 << symbols.index(s)
        sigma = _rule_selectivity(rec, table, mode, rng)
        rule_masks.append((mask, sigma))
        _check_deadline(deadline)
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
    """A DomainTag fixes delta; a kind string tries every configured delta."""
    if isinstance(domain, DomainTag):
        return [domain]
    if domain == "N":
        return [DomainTag("N")]
    if domain == "Q":
        return [DomainTag("Q", as_scalar(dl)) for dl in cfg.deltas]
    if domain == "R":
        return [DomainTag("R", as_scalar(dl), cfg.sqrt_d) for dl in cfg.deltas]
    raise ValueError(f"unknown domain {domain!r}")


def _deadline(cfg: SearchConfig) -> float | None:
    if cfg.budget_seconds is None:
        return None
    return time.monotonic() + cfg.budget_seconds


# -- public operations ----------------------------------------------------------


def search_direct(trs: Trs, domain, cfg: SearchConfig) -> SearchResult:
    """First certificate in canonical order, or exhausted/budget status."""
    start = time.monotonic()
    deadline = _deadline(cfg)
    nodes = 0
    for tag in _domains_to_try(domain, cfg):
        searcher = None

        def grab():
            raise _Found(searcher.interp_from_state())

        try:
            table = _candidate_table(trs, tag, cfg, False, deadline)
            searcher = _Searcher(trs, table, planned=False, deadline=deadline)
            searcher.iterate("strict", grab)
        except _Found as hit:
            return SearchResult("found", hit.args[0], nodes=nodes + searcher.nodes,
                                elapsed=time.monotonic() - start)
        except _BudgetExceeded:
            used = searcher.nodes if searcher is not None else 0
            return SearchResult("budget", nodes=nodes + used,
                                elapsed=time.monotonic() - start)
        nodes += searcher.nodes
    return SearchResult("exhausted", nodes=nodes, elapsed=time.monotonic() - start)


def _best_step(
    trs: Trs, tag: DomainTag, cfg: SearchConfig, deadline: float | None
) -> "tuple[tuple[Interp, tuple[int, ...]] | None, int]":
    """The valid interpretation removing the most rules (ties: least key).

    A planned scout finds the best score, then a signature-ordered picker
    finds the canonically least interpretation reaching it; both read one
    candidate table.
    """
    table = _candidate_table(trs, tag, cfg, True, deadline)
    scout = _Searcher(trs, table, planned=True, deadline=deadline)
    top = scout.scan_removal()
    if not top:
        return None, scout.nodes
    picker = _Searcher(trs, table, planned=False, deadline=deadline)
    choice = picker.scan_removal(target=top)
    return choice, scout.nodes + picker.nodes


def search_incremental(trs: Trs, domain, cfg: SearchConfig) -> IncrementalResult:
    """Greedy removal loop per Definition of stepwise polynomial termination."""
    start = time.monotonic()
    deadline = _deadline(cfg)
    tags = _domains_to_try(domain, cfg)
    steps: list[tuple[Interp, tuple[int, ...]]] = []
    residual = trs
    nodes = 0

    def result(status: str, proof: Certificate | None = None) -> IncrementalResult:
        return IncrementalResult(status, proof, nodes, time.monotonic() - start)

    while residual.rules:
        if len(steps) >= cfg.max_steps:
            return result("no-progress")
        best_choice = None
        for tag in tags:
            try:
                choice, used = _best_step(residual, tag, cfg, deadline)
            except _BudgetExceeded:
                return result("budget")
            nodes += used
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
    start = time.monotonic()
    deadline = _deadline(cfg)
    kind = domain.kind if isinstance(domain, DomainTag) else str(domain)
    count = 0
    examples: list[str] = []
    nodes = 0
    complete = True
    for tag in _domains_to_try(domain, cfg):
        searcher = None

        def leaf():
            nonlocal count
            count += 1
            if len(examples) < _KEPT_EXAMPLES:
                examples.append(repr(searcher.interp_from_state()))

        try:
            table = _candidate_table(trs, tag, cfg, False, deadline)
            searcher = _Searcher(trs, table, planned=True, deadline=deadline)
            searcher.iterate("strict", leaf)
        except _BudgetExceeded:
            complete = False
        if searcher is not None:
            nodes += searcher.nodes
        if not complete:
            break
    return ExhaustionReport(
        trs.name or "trs",
        kind,
        cfg.bounds_text(kind),
        complete,
        count,
        tuple(examples),
        nodes,
        time.monotonic() - start,
    )
