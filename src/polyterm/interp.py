"""Polynomial interpretations: term evaluation, certificate checking, lifts.

An interpretation assigns to every n-ary function symbol a polynomial in
x1..xn over a domain tag (N, Q with delta, or R with delta and an optional
radicand).  Checking a certificate reduces to non-negativity queries:

* well-definedness of f:  f >= 0 on the carrier (plus integer coefficients
  over N, a structural condition);
* strict monotonicity in argument i:  f(.., xi + margin + h, ..) - f - margin
  >= 0, where margin is delta (1 over N); one closed-form lemma decides every
  polynomial of total degree <= 2, the shifted difference higher degrees;
* weak monotonicity: the same with shift h and margin 0;
* compatibility of a rule l -> r:  P_l - P_r - margin >= 0 with margin
  delta/1 (strict) or 0 (weak).

One checker, ``check_certificate``, checks every certificate: it walks the
removal steps against the shrinking system, and a direct certificate is the
one unnumbered step that removes every rule.  ``check_incremental`` takes the
steps alone.  Together with ``numeric``, ``poly``, ``positivity`` and ``trs``
this is the trusted kernel; the search in ``prover`` is re-checked by it.

Each condition has one decider (``_well_defined``, ``_mono_argument``, and
``excess_at_least`` on the composed sides of a rule), shared by the checker
and by the search's template filter ``_candidate_permissible``.  Deciding is
kept apart from explaining: a closed-form monotonicity rejection carries a
reason but no witness, and only the checker re-runs the shifted difference
to attach a witness point; it composes each rule's sides once and renders
the inequality only for conditions that are not proved.

The certificate file format::

    (DOMAIN N) | (DOMAIN Q (DELTA 1)) | (DOMAIN R (DELTA 1) (SQRT 2))
    (INTERP (f (x1) 2*x1^2 - x1) (0 () 0) (h (x1 x2) x1 + x2) ...)

or, for incremental rule-removal proofs, a sequence of steps whose REMOVE
indices are 1-based positions in the residual system at that step::

    (STEPS (STEP (DOMAIN ..) (INTERP ..) (REMOVE 1 3 4)) ...)

The tokens are ``(``, ``)`` and atoms ``[^ \t\r\n();]+``.  Blanks (space,
tab, CR and LF only) and comments, from ``;`` to the end of the line,
separate them; a polynomial is read from its atoms joined by spaces.
Parentheses nest at most ``trs.MAX_NESTING`` levels deep.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from .numeric import (
    DomainTag,
    QuadExt,
    Scalar,
    as_scalar,
    format_scalar,
    is_integer,
    scalar_sign,
)
from .poly import (
    MAX_COEFF_BITS, MAX_DEGREE, MAX_TERMS, Poly, format_poly, monomial, parse_poly, parse_scalar,
)
from .positivity import Verdict, excess_at_least, nonneg_on
from .trs import MAX_NESTING, FunSym, Rule, Term, Trs, Var, term_symbols

__all__ = [
    "Interp",
    "Condition",
    "CheckReport",
    "Certificate",
    "CompositionTooLarge",
    "eval_term",
    "eval_term_with",
    "step_conditions",
    "check_well_defined",
    "check_monotone",
    "check_rule",
    "check_certificate",
    "check_incremental",
    "lift_q_to_r",
    "lift_linear_n_to_q",
    "parse_certificate",
    "format_certificate",
    "nat_quad_permissible",
    "linear_permissible",
    "qr_quad_strict_permissible",
    "qr_quad_weak_permissible",
]

_SHIFT_VAR = "x0"  # fresh: interpretation polynomials use x1..xn


def arg_var(i: int) -> str:
    """The canonical name of the i-th formal argument (1-based)."""
    return f"x{i}"


class Interp:
    """A domain tag plus one polynomial per function symbol (immutable)."""

    __slots__ = ("domain", "assignment")

    def __init__(self, domain: DomainTag, assignment: Mapping[FunSym, Poly]):
        table: dict[FunSym, Poly] = {}
        for sym, poly in assignment.items():
            allowed = {arg_var(i) for i in range(1, sym.arity + 1)}
            for v in poly.variables():
                if v not in allowed:
                    raise ValueError(
                        f"interpretation of {sym.name}/{sym.arity} uses "
                        f"unexpected variable {v!r}"
                    )
            for c in poly.coeffs():
                if isinstance(c, QuadExt):
                    if domain.kind != "R":
                        raise ValueError(
                            f"sqrt({c.d}) coefficient not allowed over {domain.kind}"
                        )
                    if domain.d != c.d:
                        declared = "no SQRT" if domain.d is None else f"sqrt({domain.d})"
                        raise ValueError(
                            f"coefficient uses sqrt({c.d}) but domain declares {declared}"
                        )
            table[sym] = poly
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "assignment", table)

    def __setattr__(self, name, value):
        raise AttributeError("Interp is immutable")

    def __eq__(self, other):
        if not isinstance(other, Interp):
            return NotImplemented
        return self.domain == other.domain and self.assignment == other.assignment

    def __repr__(self):
        body = ", ".join(
            f"{s.name}->{format_poly(p)}" for s, p in self.assignment.items()
        )
        return f"Interp({self.domain}; {body})"


# -- term evaluation -----------------------------------------------------------


class CompositionTooLarge(ValueError):
    """A term's polynomial would pass a size limit of ``poly``."""


def eval_term_with(assignment: Mapping[FunSym, Poly], t: Term) -> Poly:
    """The polynomial of a term under a plain symbol -> polynomial table.

    CompositionTooLarge when a composition passes a size limit of ``poly``.
    """
    if isinstance(t, Var):
        return Poly.var(t.name)
    try:
        poly = assignment[t.sym]
    except KeyError:
        raise ValueError(f"uninterpreted symbol {t.sym.name}/{t.sym.arity}") from None
    if not t.args:
        return poly
    subst = {
        arg_var(i + 1): eval_term_with(assignment, arg)
        for i, arg in enumerate(t.args)
    }
    if set(poly.variables()) <= set(subst):  # else compose names the missing variable
        # before composing: the result's degree and the products its expansion forms
        sizes = {v: (p.degree(), len(p.terms)) for v, p in subst.items()}
        degree = products = 0
        for m in poly.terms:
            d, n = 0, 1
            for v, e in m:
                d += e * sizes[v][0]
                n *= sizes[v][1] ** e
            degree = max(degree, d)
            products += n
        if degree > MAX_DEGREE or products > MAX_TERMS:
            raise CompositionTooLarge(f"{t.sym.name} composes to degree {degree} with "
                                      f"{products} products (limits {MAX_DEGREE}, {MAX_TERMS})")
    out = poly.compose(subst)
    for c in out.terms.values():
        for part in (c.a, c.b) if type(c) is QuadExt else (c,):
            if max(part.numerator.bit_length(), part.denominator.bit_length()) > MAX_COEFF_BITS:
                raise CompositionTooLarge(
                    f"{t.sym.name} composes to a coefficient over {MAX_COEFF_BITS} bits")
    return out


def eval_term(interp: Interp, t: Term) -> Poly:
    """The polynomial of a term: composition of the symbol polynomials."""
    return eval_term_with(interp.assignment, t)


# -- deciders: one per condition, shared by the checker and the search --------


def _margin(kind: str, domain: DomainTag) -> Scalar:
    """The margin of a strict condition (delta, 1 over N) or of a weak one (0)."""
    return domain.strict_margin if kind == "strict" else Fraction(0)


def _well_defined(poly: Poly, domain: DomainTag) -> Verdict:
    """poly maps the carrier into itself; over N also integer coefficients."""
    if domain.kind == "N":
        bad = [c for c in poly.coeffs() if not is_integer(c)]
        if bad:
            return Verdict.disproved(
                None, None, f"non-integer coefficient {format_scalar(bad[0])} over N"
            )
    return nonneg_on(poly, domain.base)


def _mono_shift_diff(poly: Poly, var: str, kind: str, domain: DomainTag) -> Poly:
    """f(.., var + step, ..) - f - margin, which is >= 0 iff var is monotone.

    The step is 1 over N and margin + h, for a fresh h >= 0, otherwise.
    """
    margin = _margin(kind, domain)
    if domain.kind == "N":
        shifted = poly.shift(var, Fraction(1))
    else:
        subst = {v: Poly.var(v) for v in poly.variables()}
        subst[var] = Poly.var(var) + Poly.const(margin) + Poly.var(_SHIFT_VAR)
        shifted = poly.compose(subst)
    return shifted - poly - Poly.const(margin)


def _mono_argument(poly: Poly, i: int, kind: str, domain: DomainTag) -> Verdict:
    """Monotonicity of argument i, in closed form up to total degree 2.

    With a, b_j, c the coefficients of var^2, var*x_j, var, the difference
    for a step s is s*(2a*var + sum b_j*x_j + c) + a*s^2, where s = 1 over N,
    else margin + h for every h >= 0.  So var is monotone iff a >= 0, every
    b_j >= 0 and a*step + c >= bound (1 strict, 0 weak), where step is 1 over
    N, else the margin.  A closed-form rejection carries a reason but no
    witness point: only the checker needs one, and asks _mono_witness for it.
    """
    var = arg_var(i)
    deg = poly.degree()
    if deg > 2:
        return nonneg_on(_mono_shift_diff(poly, var, kind, domain), domain.base)
    a, c = poly.coeff(((var, 2),)), poly.coeff(((var, 1),))
    quadratic = (b for m, b in poly.terms.items() if (var, 2) in m or len(m) == 2 and (var, 1) in m)
    bound = 1 if kind == "strict" else 0
    step = 1 if domain.kind == "N" else _margin(kind, domain)
    if all(scalar_sign(b) >= 0 for b in quadratic):
        slack = c - bound + a * step if a else c - bound  # a = 0: a linear argument
        if scalar_sign(slack) >= 0:
            return Verdict.proved(f"criterion-{kind}")
    if deg <= 1:
        return Verdict.disproved(None, None, f"slope {format_scalar(c)} of {var} is below {bound}")
    return Verdict.disproved(None, None, "quadratic slope condition violated")


def _mono_witness(
    poly: Poly, i: int, kind: str, domain: DomainTag, rejected: Verdict
) -> Verdict:
    """A closed-form rejection, with a witness point.

    The failed condition names a line from the origin: x_j for some b_j < 0,
    else var (a < 0), with h = 0, or h = 1 for a weak step, which is h
    alone.  The difference is linear along it, so a point past its root is a
    witness, if it is negative; else the ladder looks for one.
    """
    var = arg_var(i)
    diff = _mono_shift_diff(poly, var, kind, domain)
    point = dict.fromkeys(diff.variables(), Fraction(0))
    if kind == "weak" and _SHIFT_VAR in point:
        point[_SHIFT_VAR] = Fraction(1)
    value = diff.eval(point)
    line = next((w for m, b in poly.terms.items() if len(m) == 2 and (var, 1) in m
                 and scalar_sign(b) < 0 for w, _ in m if w != var), var)
    slope = diff.eval(dict(point, **{line: 1})) - value
    if scalar_sign(value) >= 0 > scalar_sign(slope):
        root = value / -slope  # of the difference along the line
        point[line] = root + 1 if isinstance(root, QuadExt) else Fraction(root // 1 + 1)
        value = diff.eval(point)
    if scalar_sign(value) < 0:
        return Verdict.disproved(point, value, rejected.reason)
    refuted = nonneg_on(diff, domain.base)
    if refuted.is_disproved:
        return Verdict.disproved(refuted.point(), refuted.value, rejected.reason)
    return rejected


def _candidate_permissible(
    poly: Poly, arity: int, domain: DomainTag, kinds: tuple[str, ...]
) -> bool:
    """poly may interpret an arity-n symbol: the checker's symbol conditions.

    Monotone of every kind in ``kinds`` in every argument, and well-defined;
    the search filters its templates through this.
    """
    return all(
        _mono_argument(poly, i, kind, domain).is_proved
        for i in range(1, arity + 1)
        for kind in kinds
    ) and _well_defined(poly, domain).is_proved


# -- closed-form criteria as predicates over the coefficients -----------------


def _quadratic(a, b, c) -> Poly:
    return Poly({monomial({arg_var(1): 2}): a, monomial({arg_var(1): 1}): b, (): c})


def nat_quad_permissible(a, b, c) -> bool:
    """a*x1^2 + b*x1 + c is well-defined and strictly monotone over N."""
    return _candidate_permissible(_quadratic(a, b, c), 1, DomainTag("N"), ("strict",))


def linear_permissible(a0, slopes: Iterable) -> bool:
    """a0 + a1*x1 + .. + an*xn is well-defined and strictly monotone over R0.

    The answer is the same for every delta and over Q0 (see _mono_argument).
    """
    slopes = list(slopes)
    poly = Poly({(): a0} | {
        monomial({arg_var(i): 1}): ai for i, ai in enumerate(slopes, start=1)
    })
    return _candidate_permissible(
        poly, len(slopes), DomainTag("R", Fraction(1)), ("strict",)
    )


def qr_quad_strict_permissible(a, b, c, delta) -> bool:
    """a*x1^2 + b*x1 + c is well-defined and strictly monotone (wrt delta) over R0/Q0."""
    domain = DomainTag("R", as_scalar(delta))
    return _candidate_permissible(_quadratic(a, b, c), 1, domain, ("strict",))


def qr_quad_weak_permissible(a, b, c) -> bool:
    """a*x1^2 + b*x1 + c is well-defined and weakly monotone over R0/Q0."""
    domain = DomainTag("R", Fraction(1))
    return _candidate_permissible(_quadratic(a, b, c), 1, domain, ("weak",))


# -- per-interpretation checks ------------------------------------------------


def check_monotone(interp: Interp, kind: str) -> dict[FunSym, tuple[Verdict, ...]]:
    """Per-symbol, per-argument monotonicity verdicts ("strict" or "weak").

    A closed-form rejection gets a witness point where ``_mono_witness`` finds one.
    """
    if kind not in ("strict", "weak"):
        raise ValueError(f"unknown monotonicity kind {kind!r}")
    out = {}
    for sym, poly in interp.assignment.items():
        verdicts = []
        for i in range(1, sym.arity + 1):
            v = _mono_argument(poly, i, kind, interp.domain)
            if v.is_disproved and v.witness is None:
                v = _mono_witness(poly, i, kind, interp.domain, v)
            verdicts.append(v)
        out[sym] = tuple(verdicts)
    return out


def check_well_defined(interp: Interp) -> dict[FunSym, Verdict]:
    """f maps the carrier into the carrier; over N also integer coefficients."""
    return {sym: _well_defined(poly, interp.domain) for sym, poly in interp.assignment.items()}


def check_rule(interp: Interp, rule: Rule, kind: str) -> Verdict:
    """Strict (margin delta/1) or weak (margin 0) compatibility of one rule."""
    if kind not in ("strict", "weak"):
        raise ValueError(f"unknown compatibility kind {kind!r}")
    lhs = eval_term(interp, rule.lhs)
    rhs = eval_term(interp, rule.rhs)
    return excess_at_least(lhs, rhs, _margin(kind, interp.domain), interp.domain.base)


def _rule_detail(lhs: Poly, rhs: Poly, margin: Scalar) -> str:
    if scalar_sign(margin) == 0:
        return f"{format_poly(lhs)} >= {format_poly(rhs)}"
    return f"{format_poly(lhs)} >= {format_poly(rhs)} + {format_scalar(margin)}"


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    """One checked condition with its verdict and report location."""

    kind: str  # well-defined | strict-mono | weak-mono | strict-compat | weak-compat | residual-empty
    required: bool
    verdict: Verdict
    symbol: str | None = None
    arg: int | None = None
    rule_index: int | None = None
    step: int | None = None
    detail: str | None = None

    def site(self) -> str:
        where = ""
        if self.step is not None:
            where += f"step {self.step} "
        if self.symbol is not None:
            where += f"symbol {self.symbol}"
            if self.arg is not None:
                where += f" arg {self.arg}"
        if self.rule_index is not None:
            where += f"rule {self.rule_index}"
        return f"{self.kind} of {where}".strip()


@dataclass(frozen=True)
class CheckReport:
    accepted: bool
    conditions: tuple[Condition, ...]

    def failures(self) -> list[Condition]:
        return [c for c in self.conditions if c.required and c.verdict.is_disproved]

    def unknowns(self) -> list[Condition]:
        return [c for c in self.conditions if c.required and c.verdict.is_unknown]

    @property
    def verdict_word(self) -> str:
        if self.accepted:
            return "accepted"
        if self.failures():
            return "rejected"
        if self.unknowns():
            return "unknown"
        return "rejected"

    def format(self) -> str:
        lines = [f"VERDICT {self.verdict_word}"]
        for c in self.conditions:
            status = c.verdict.status
            prefix = "" if c.step is None else f"STEP {c.step} "
            if c.kind in ("strict-compat", "weak-compat"):
                flavor = "strict" if c.kind == "strict-compat" else "weak"
                lines.append(f"  {prefix}RULE {c.rule_index} {flavor} {status}")
            elif c.kind in ("strict-mono", "weak-mono"):
                flavor = "strict" if c.kind == "strict-mono" else "weak"
                lines.append(
                    f"  {prefix}SYM {c.symbol} mono {flavor} arg {c.arg} {status}"
                )
            elif c.kind == "well-defined":
                lines.append(f"  {prefix}SYM {c.symbol} well-defined {status}")
            else:
                lines.append(f"  {prefix}{c.kind} {status}")
            if not c.verdict.is_proved:
                lines.append(f"    {c.verdict.describe()}")
                if c.detail:
                    lines.append(f"    {c.detail}")
        return "\n".join(lines)


# -- the certificate checker --------------------------------------------------------


def _certificate_conditions(
    interp: Interp, trs: Trs, removed: Iterable[int], step: int | None, final: bool
) -> list[Condition]:
    """The conditions of one step that removes the rules ``removed`` from ``trs``.

    Only the symbols that ``trs`` uses are decided.  Weak monotonicity is
    checked, and weak compatibility required, unless the step is final.
    """
    need = dict.fromkeys(
        sym for rule in trs.rules for t in (rule.lhs, rule.rhs) for sym in term_symbols(t)
    )
    missing = [s for s in need if s not in interp.assignment]
    if missing:
        raise ValueError(
            f"uninterpreted symbol {missing[0].name}/{missing[0].arity}"
        )
    used = Interp(interp.domain, {s: p for s, p in interp.assignment.items() if s in need})

    conds = [
        Condition("well-defined", True, v, symbol=sym.name, step=step)
        for sym, v in check_well_defined(used).items()
    ]
    for kind in ("strict",) if final else ("strict", "weak"):
        for sym, verdicts in check_monotone(used, kind).items():
            conds += [
                Condition(f"{kind}-mono", True, v, symbol=sym.name, arg=i, step=step)
                for i, v in enumerate(verdicts, start=1)
            ]
    strict_set = set(removed)
    domain = interp.domain
    for idx, rule in enumerate(trs.rules, start=1):
        lhs = eval_term(interp, rule.lhs)
        rhs = eval_term(interp, rule.rhs)
        for kind in ("strict", "weak") if idx in strict_set else ("weak",):
            margin = _margin(kind, domain)
            verdict = excess_at_least(lhs, rhs, margin, domain.base)
            conds.append(
                Condition(
                    f"{kind}-compat",
                    kind == "strict" or not final,
                    verdict,
                    rule_index=idx,
                    step=step,
                    detail=None if verdict.is_proved else _rule_detail(lhs, rhs, margin),
                )
            )
    return conds


def step_conditions(
    interp: Interp, residual: Trs, removed: tuple[int, ...], step: int, is_last_full: bool
) -> list[Condition]:
    """Conditions of one rule-removal step against the current residual TRS.

    Every step needs well-definedness, strict monotonicity, weak compatibility
    with all residual rules, and strict compatibility on the removed ones.
    Intermediate steps additionally need weak monotonicity; a final step that
    removes everything is an ordinary (direct) certificate, where weak
    monotonicity and weak compatibility are not required.
    """
    if not removed:
        raise ValueError(f"step {step}: empty removal set")
    for idx in removed:
        if idx < 1 or idx > len(residual.rules):
            raise ValueError(f"step {step}: removal index {idx} out of range")
    if len(set(removed)) != len(removed):
        raise ValueError(f"step {step}: duplicate removal index")
    return _certificate_conditions(interp, residual, removed, step, is_last_full)


def _check_steps(steps, trs: Trs, domain) -> CheckReport:
    """The one certificate checker: every step against the residual it leaves.

    A step pairs an interpretation with the 1-based indices of the rules it
    removes from the residual at that step.  A direct certificate is one step
    whose indices are None: it removes every rule and carries no number.
    ``domain`` (a kind or a DomainTag) fixes the carrier of every step.  No
    steps prove a system without rules; otherwise residual-empty rejects them.
    """
    kind = domain.kind if isinstance(domain, DomainTag) else domain
    conds: list[Condition] = []
    residual = trs
    for number, (interp, removed) in enumerate(steps, start=1):
        kind = kind or interp.domain.kind
        if interp.domain.kind != kind:
            raise ValueError(f"step {number} is over {interp.domain.kind}, expected {kind}")
        every = range(1, len(residual.rules) + 1)
        if removed is None:
            conds += _certificate_conditions(interp, residual, every, None, True)
            removed = every
        else:
            final = number == len(steps) and set(removed) == set(every)
            conds += step_conditions(interp, residual, tuple(removed), number, final)
        gone = set(removed)
        residual = residual.subsystem([i - 1 for i in every if i not in gone])
    if residual.rules:
        conds.append(
            Condition(
                "residual-empty",
                True,
                Verdict.disproved(
                    None, None, f"{len(residual.rules)} rules were never removed"
                ),
            )
        )
    accepted = all(c.verdict.is_proved for c in conds if c.required)
    return CheckReport(accepted, tuple(conds))


def check_certificate(cert: Certificate | Interp, trs: Trs) -> CheckReport:
    """Check a certificate, direct or stepwise; a bare Interp is a direct one."""
    if isinstance(cert, Interp):
        cert = Certificate(direct=cert)
    steps = cert.steps if cert.is_incremental else ((cert.direct, None),)
    return _check_steps(steps, trs, None)


def check_incremental(proof, trs: Trs, domain=None) -> CheckReport:
    """Check removal steps: a stepwise Certificate or a sequence of (Interp, indices)."""
    steps = proof.steps if isinstance(proof, Certificate) else tuple(proof)
    return _check_steps(steps, trs, domain)


# -- domain transfer --------------------------------------------------------------


def lift_q_to_r(interp: Interp) -> Interp:
    """Re-tag a Q-interpretation over R; the same polynomials apply."""
    if interp.domain.kind != "Q":
        raise ValueError(f"can only lift from Q, got {interp.domain.kind}")
    return Interp(DomainTag("R", interp.domain.delta, None), interp.assignment)


def lift_linear_n_to_q(interp: Interp) -> Interp:
    """Re-tag a linear N-interpretation over Q with delta = 1."""
    if interp.domain.kind != "N":
        raise ValueError(f"can only lift from N, got {interp.domain.kind}")
    for sym, poly in interp.assignment.items():
        if poly.degree() > 1:
            raise ValueError(
                f"interpretation of {sym.name} is not linear: {format_poly(poly)}"
            )
    return Interp(DomainTag("Q", Fraction(1)), interp.assignment)


# -- certificate files -------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A parsed certificate file: direct interpretation or removal steps."""

    direct: Interp | None = None
    steps: tuple[tuple[Interp, tuple[int, ...]], ...] | None = None

    def __post_init__(self):
        if (self.direct is None) == (self.steps is None):
            raise ValueError("certificate is either direct or incremental")

    @property
    def is_incremental(self) -> bool:
        return self.steps is not None


_SEXPR_TOKEN = re.compile(r"[ \t\r\n]+|;[^\n]*|([()])|([^ \t\r\n();]+)")


def _read_sexprs(text: str) -> list:
    """The top-level forms of a certificate: atoms are strings, lists are lists."""
    stack: list[list] = [[]]  # the open lists, outermost first
    for m in _SEXPR_TOKEN.finditer(text):
        paren, atom = m.groups()
        if atom is not None:
            stack[-1].append(atom)
        elif paren == "(":
            if len(stack) > MAX_NESTING:
                raise ValueError(f"certificate nests deeper than {MAX_NESTING} levels")
            stack.append([])
        elif paren == ")":
            if len(stack) == 1:
                raise ValueError("unexpected ')' in certificate")
            stack[-2].append(stack.pop())
    if len(stack) > 1:
        raise ValueError("unbalanced parenthesis in certificate")
    return stack[0]


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(form) -> int:  # ASCII digits only, unlike int()
    if not isinstance(form, str) or not _INTEGER.fullmatch(form):
        raise ValueError(f"expected an integer, got {_render(form)!r}")
    try:
        return int(form)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ValueError(f"integer of {len(form.lstrip('+-'))} digits, over the limit of "
                         f"{sys.get_int_max_str_digits()}") from None


def _render(form) -> str:
    if isinstance(form, str):
        return form
    return "( " + " ".join(_render(f) for f in form) + " )"


def _render_tail(items) -> str:
    return " ".join(_render(f) for f in items)


def _parse_domain(form) -> DomainTag:
    if not isinstance(form, list) or not form or form[0] != "DOMAIN":
        raise ValueError("expected (DOMAIN ...)")
    if len(form) < 2:
        raise ValueError("empty DOMAIN form")
    kind = form[1]
    if kind == "N":
        if len(form) != 2:
            raise ValueError("domain N takes no arguments")
        return DomainTag("N")
    delta: Scalar | None = None
    d: int | None = None
    for sub in form[2:]:
        if not isinstance(sub, list) or not sub:
            raise ValueError(f"bad domain attribute {sub!r}")
        if sub[0] == "DELTA":
            delta = parse_scalar(_render_tail(sub[1:]))
        elif sub[0] == "SQRT":
            if len(sub) != 2:
                raise ValueError("SQRT takes one integer")
            d = _integer(sub[1])
        else:
            raise ValueError(f"unknown domain attribute {sub[0]!r}")
    if kind not in ("Q", "R"):
        raise ValueError(f"unknown domain {kind!r}")
    return DomainTag(kind, delta, d)


def _parse_interp(domain_form, interp_form) -> Interp:
    domain = _parse_domain(domain_form)
    if not isinstance(interp_form, list) or not interp_form or interp_form[0] != "INTERP":
        raise ValueError("expected (INTERP ...)")
    assignment: dict[FunSym, Poly] = {}
    for entry in interp_form[1:]:
        if not isinstance(entry, list) or len(entry) < 3 or not isinstance(entry[0], str):
            raise ValueError(f"bad interpretation entry {entry!r}")
        name = entry[0]
        params = entry[1]
        if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
            raise ValueError(f"bad parameter list for {name!r}")
        sym = FunSym(name, len(params))
        if sym in assignment:
            raise ValueError(f"duplicate interpretation for {name!r}")
        repeated = [p for p, n in Counter(params).items() if n > 1]
        if repeated:
            raise ValueError(f"repeated parameter {repeated[0]!r} for {name!r}")
        poly = parse_poly(_render_tail(entry[2:]), variables=params)
        renaming = {p: arg_var(i + 1) for i, p in enumerate(params)}
        assignment[sym] = poly.rename(renaming)
    return Interp(domain, assignment)


def parse_certificate(text: str) -> Certificate:
    """Parse a certificate file (direct or incremental)."""
    forms = _read_sexprs(text)
    if not forms:
        raise ValueError("empty certificate")
    if isinstance(forms[0], list) and forms[0] and forms[0][0] == "STEPS":
        if len(forms) != 1:
            raise ValueError("unexpected content after (STEPS ...)")
        steps = []
        for step_form in forms[0][1:]:
            if (
                not isinstance(step_form, list)
                or len(step_form) != 4
                or step_form[0] != "STEP"
            ):
                raise ValueError("expected (STEP (DOMAIN ..) (INTERP ..) (REMOVE ..))")
            interp = _parse_interp(step_form[1], step_form[2])
            rem_form = step_form[3]
            if not isinstance(rem_form, list) or not rem_form or rem_form[0] != "REMOVE":
                raise ValueError("expected (REMOVE i j ...)")
            removed = tuple(map(_integer, rem_form[1:]))
            steps.append((interp, removed))
        return Certificate(steps=tuple(steps))
    if len(forms) != 2:
        raise ValueError("expected (DOMAIN ...) followed by (INTERP ...)")
    return Certificate(direct=_parse_interp(forms[0], forms[1]))


def _format_domain(domain: DomainTag) -> str:
    if domain.kind == "N":
        return "(DOMAIN N)"
    parts = [f"(DELTA {format_scalar(domain.delta)})"]
    if domain.kind == "R" and domain.d is not None:
        parts.append(f"(SQRT {domain.d})")
    return f"(DOMAIN {domain.kind} {' '.join(parts)})"


def _format_interp_body(interp: Interp, indent: str = "") -> str:
    lines = [f"{indent}{_format_domain(interp.domain)}", f"{indent}(INTERP"]
    for sym, poly in interp.assignment.items():
        params = " ".join(arg_var(i) for i in range(1, sym.arity + 1))
        lines.append(f"{indent}  ({sym.name} ({params}) {format_poly(poly)})")
    lines.append(f"{indent})")
    return "\n".join(lines)


def format_certificate(cert: Certificate) -> str:
    """Render a certificate; parse_certificate round-trips it."""
    if cert.direct is not None:
        return _format_interp_body(cert.direct) + "\n"
    lines = ["(STEPS"]
    for interp, removed in cert.steps:
        lines.append("  (STEP")
        lines.append(_format_interp_body(interp, indent="    "))
        lines.append(f"    (REMOVE {' '.join(str(i) for i in removed)})")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"
