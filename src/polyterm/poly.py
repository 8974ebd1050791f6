"""Sparse multivariate polynomials with exact Scalar coefficients.

A monomial is a tuple of (variable, exponent) pairs, sorted by variable and
holding only positive exponents; the empty tuple is the constant monomial.
A polynomial maps monomials to nonzero Scalar coefficients (the zero
polynomial is the empty map).  This sparse form suits the package: every
polynomial that occurs has degree at most two in a handful of variables.

Text syntax, e.g. ``2*x1^2 - x1`` or ``x1 + x2 + 1/2`` or ``sqrt(2)*x1 + 1``:
a sum of terms, each a product of an optional scalar coefficient and
variables with optional ``^`` exponents.  Printing uses graded lexicographic
order, so parse/print round-trips to a canonical form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

from .numeric import QuadExt, Scalar, as_scalar, quadext

__all__ = [
    "Monomial",
    "Poly",
    "MINUS_INF",
    "monomial",
    "parse_poly",
    "format_poly",
]

Monomial = "tuple[tuple[str, int], ...]"

MINUS_INF = float("-inf")  # degree of the zero polynomial


def monomial(exps: Mapping[str, int] | Iterable[tuple[str, int]]) -> Monomial:
    """Canonical monomial from a var -> exponent mapping (zeros dropped)."""
    items = exps.items() if isinstance(exps, Mapping) else exps
    out = []
    for var, e in items:
        if e < 0:
            raise ValueError(f"negative exponent {e} for {var}")
        if e > 0:
            out.append((var, e))
    out.sort(key=lambda it: _var_key(it[0]))
    return tuple(out)


def _var_key(name: str):
    # natural order: x2 before x10
    m = re.fullmatch(r"(.*?)([0-9]*)", name)
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[str, int] = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return monomial(exps)


class Poly:
    """An immutable sparse polynomial with Scalar coefficients."""

    __slots__ = ("terms", "_vars")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction and not isinstance(c, QuadExt):
                    c = as_scalar(c)
                if c != 0:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_vars", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): as_scalar(c)})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): Fraction(1)})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def variables(self) -> list[str]:
        cached = self._vars
        if cached is None:
            seen = {var for m in self.terms for var, _ in m}
            cached = sorted(seen, key=_var_key)
            object.__setattr__(self, "_vars", cached)
        return cached

    def degree(self) -> int | float:
        """Total degree; MINUS_INF for the zero polynomial."""
        if not self.terms:
            return MINUS_INF
        return max(_mono_degree(m) for m in self.terms)

    def coeff(self, m: Monomial | Mapping[str, int]) -> Scalar:
        if not isinstance(m, tuple):
            m = monomial(m)
        return self.terms.get(m, Fraction(0))

    def constant(self) -> Scalar:
        return self.terms.get((), Fraction(0))

    def coeffs(self) -> list[Scalar]:
        return list(self.terms.values())

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Poly(out)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly()
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                if m in out:
                    out[m] = out[m] + c
                else:
                    out[m] = c
        return Poly(out)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = Poly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def scale(self, c) -> "Poly":
        c = as_scalar(c)
        return Poly({m: c * v for m, v in self.terms.items()})

    # -- substitution ------------------------------------------------------

    def compose(self, subst: Mapping[str, "Poly"]) -> "Poly":
        """Substitute a polynomial for every variable (exact composition)."""
        missing = [v for v in self.variables() if v not in subst]
        if missing:
            raise ValueError(f"missing substitution entry for {missing[0]!r}")
        own_vars = self.variables()
        if all(subst[v].is_constant() for v in own_vars):
            return Poly.const(self.eval({v: subst[v].constant() for v in own_vars}))
        acc = Poly()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for var, e in m:
                term = term * (subst[var] ** e)
            acc = acc + term
        return acc

    def shift(self, var: str, s: Scalar) -> "Poly":
        """The polynomial with var replaced by var + s."""
        subst = {v: Poly.var(v) for v in self.variables()}
        subst[var] = Poly.var(var) + Poly.const(s)
        return self.compose(subst)

    def eval(self, point: Mapping[str, Scalar]) -> Scalar:
        """Exact value at a point binding every variable."""
        total: Scalar = Fraction(0)
        for m, c in self.terms.items():
            val: Scalar = c
            for var, e in m:
                if var not in point:
                    raise ValueError(f"unbound variable {var!r}")
                x = as_scalar(point[var])
                for _ in range(e):
                    val = val * x
            total = total + val
        return total

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        """Rename variables (used to map formal parameters to x1..xn)."""
        return self.compose(
            {v: Poly.var(mapping.get(v, v)) for v in self.variables()}
        )

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _as_poly(x) -> "Poly":
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, QuadExt)):
        return Poly.const(x)
    return NotImplemented


# -- text format ---------------------------------------------------------


def _mono_sort_key(vars_order: list[str]):
    index = {v: i for i, v in enumerate(vars_order)}

    def key(m: Monomial):
        vec = [0] * len(vars_order)
        for var, e in m:
            vec[index[var]] = e
        return (-_mono_degree(m), tuple(-e for e in vec))

    return key


def _simple_terms(p: Poly) -> list[tuple[Fraction, int | None, Monomial]]:
    """Split into printable terms (rational coeff, optional radicand, mono)."""
    out = []
    order = p.variables()
    for m in sorted(p.terms, key=_mono_sort_key(order)):
        c = p.terms[m]
        if isinstance(c, QuadExt):
            if c.a != 0:
                out.append((c.a, None, m))
            out.append((c.b, c.d, m))
        else:
            out.append((Fraction(c), None, m))
    return out


def format_poly(p: Poly) -> str:
    """Canonical text rendering (graded lexicographic term order)."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for coeff, d, m in _simple_terms(p):
        factors = [f"{var}^{e}" if e > 1 else var for var, e in m]
        if d is not None:
            factors.insert(0, f"sqrt({d})")
        mag = abs(coeff)
        if not factors:
            body = _fmt_rat(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_fmt_rat(mag)] + factors)
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)


def _fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_POLY_TOKEN = re.compile(
    r"\s*([0-9]+|[A-Za-z_'][A-Za-z0-9_']*|\^|\*|/|\(|\)|\+|-)"
)


def parse_poly(text: str, variables: Iterable[str] | None = None) -> Poly:
    """Parse the polynomial text syntax.

    When ``variables`` is given, identifiers outside it are rejected;
    otherwise every identifier other than ``sqrt`` names a variable.
    """
    allowed = set(variables) if variables is not None else None
    toks: list[str] = []
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad polynomial syntax near {text[pos:]!r}")
        toks.append(m.group(1))
        pos = m.end()
    if not toks:
        raise ValueError("empty polynomial")

    i = 0

    def peek():
        return toks[i] if i < len(toks) else None

    def take(expect=None):
        nonlocal i
        if i >= len(toks):
            raise ValueError(f"unexpected end of polynomial {text!r}")
        t = toks[i]
        if expect is not None and t != expect:
            raise ValueError(f"expected {expect!r}, got {t!r} in {text!r}")
        i += 1
        return t

    def parse_term() -> Poly:
        coeff: Scalar = Fraction(1)
        exps: dict[str, int] = {}
        while True:
            t = peek()
            if t == "sqrt":
                take()
                take("(")
                d = int(take())
                take(")")
                coeff = coeff * quadext(0, 1, d)
            elif t is not None and t.isdigit():
                num = int(take())
                if peek() == "/":
                    take("/")
                    den = int(take())
                    if den == 0:
                        raise ZeroDivisionError("zero denominator in polynomial")
                    coeff = coeff * Fraction(num, den)
                else:
                    coeff = coeff * num
            elif t is not None and re.fullmatch(r"[A-Za-z_'][A-Za-z0-9_']*", t):
                var = take()
                if allowed is not None and var not in allowed:
                    raise ValueError(f"unknown variable {var!r} in {text!r}")
                e = 1
                if peek() == "^":
                    take("^")
                    e = int(take())
                exps[var] = exps.get(var, 0) + e
            else:
                raise ValueError(f"unexpected token {t!r} in {text!r}")
            if peek() == "*":
                take("*")
                continue
            break
        return Poly({monomial(exps): coeff})

    acc = Poly()
    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    acc = acc + parse_term().scale(sign)
    while peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
        acc = acc + parse_term().scale(sign)
    if i != len(toks):
        raise ValueError(f"trailing tokens in polynomial {text!r}")
    return acc
