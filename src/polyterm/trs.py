"""Terms, rewrite rules, term rewrite systems, and their text format.

The file grammar is the old-style interchange shape::

    file  := (VAR ident*) (RULES rule*)
    rule  := term "->" term
    term  := ident | ident "(" term ("," term)* ")"

Identifiers are ``[A-Za-z0-9_']+``; whitespace and newlines are
insignificant; ``;`` starts a comment running to end of line.  Identifiers
listed in the VAR section are variables, every other identifier is a
function symbol whose arity is fixed by its first use.  Numerals like ``0``
are ordinary constant symbols.  Terms nest at most ``MAX_NESTING`` levels
deep, so that hostile input is rejected before it exhausts the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FunSym",
    "Term",
    "Var",
    "App",
    "Rule",
    "Trs",
    "TrsError",
    "TrsParseError",
    "term_vars",
    "term_symbols",
    "parse_term_text",
    "parse_trs",
    "format_trs",
    "format_term",
    "MAX_NESTING",
]

# deepest term (and certificate s-expression) accepted; the corpus needs 8
MAX_NESTING = 256


class TrsError(ValueError):
    """A structurally invalid term, rule or system."""


class TrsParseError(TrsError):
    """Syntax or well-formedness error, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class FunSym:
    name: str
    arity: int


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    sym: FunSym
    args: tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.sym.arity:
            raise TrsError(
                f"symbol {self.sym.name}/{self.sym.arity} applied to "
                f"{len(self.args)} arguments"
            )


def term_vars(t: Term) -> list[str]:
    """Variable names in left-to-right first-occurrence order."""
    out: list[str] = []
    seen: set[str] = set()

    def walk(u: Term):
        if isinstance(u, Var):
            if u.name not in seen:
                seen.add(u.name)
                out.append(u.name)
        else:
            for a in u.args:
                walk(a)

    walk(t)
    return out


def term_symbols(t: Term) -> list[FunSym]:
    """Function symbols in left-to-right first-occurrence order."""
    out: list[FunSym] = []
    seen: set[FunSym] = set()

    def walk(u: Term):
        if isinstance(u, App):
            if u.sym not in seen:
                seen.add(u.sym)
                out.append(u.sym)
            for a in u.args:
                walk(a)

    walk(t)
    return out


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if isinstance(self.lhs, Var):
            raise TrsError("left-hand side of a rule must not be a variable")
        lv = set(term_vars(self.lhs))
        for v in term_vars(self.rhs):
            if v not in lv:
                raise TrsError(f"variable {v!r} of right-hand side not in left-hand side")

    def variables(self) -> list[str]:
        out = term_vars(self.lhs)
        seen = set(out)
        for v in term_vars(self.rhs):
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out


@dataclass(frozen=True)
class Trs:
    signature: tuple[FunSym, ...]
    rules: tuple[Rule, ...]
    name: str = ""

    def __post_init__(self):
        by_name: dict[str, FunSym] = {}
        for f in self.signature:
            if f.name in by_name:
                raise TrsError(f"duplicate symbol {f.name!r} in signature")
            by_name[f.name] = f
        for r in self.rules:
            for t in (r.lhs, r.rhs):
                for f in term_symbols(t):
                    g = by_name.get(f.name)
                    if g is None:
                        raise TrsError(f"symbol {f.name!r} missing from signature")
                    if g.arity != f.arity:
                        raise TrsError(
                            f"symbol {f.name!r} used with arity {f.arity}, "
                            f"declared {g.arity}"
                        )

    def subsystem(self, rule_indices: "list[int] | tuple[int, ...]") -> "Trs":
        """The TRS restricted to the given 0-based rule indices (kept in order)."""
        return make_trs([self.rules[i] for i in rule_indices], name=self.name)


def make_trs(rules: list[Rule], name: str = "") -> Trs:
    """A TRS whose signature lists the rules' symbols in reading order.

    Reading order is left to right, outermost first, lhs before rhs.
    """
    sig = dict.fromkeys(f for r in rules for t in (r.lhs, r.rhs) for f in term_symbols(t))
    return Trs(tuple(sig), tuple(rules), name=name)


# -- parsing ------------------------------------------------------------------

_IDENT_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_'")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int):
        for _ in range(n):
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def tokens(self) -> Iterator[tuple[str, str, int, int]]:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            if ch == ";":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance(1)
                continue
            line, col = self.line, self.col
            if ch in "(),":
                self._advance(1)
                yield (ch, ch, line, col)
                continue
            if text.startswith("->", self.pos):
                self._advance(2)
                yield ("->", "->", line, col)
                continue
            if ch in _IDENT_CHARS:
                end = self.pos
                while end < len(text) and text[end] in _IDENT_CHARS:
                    end += 1
                ident = text[self.pos : end]
                self._advance(end - self.pos)
                yield ("ident", ident, line, col)
                continue
            raise TrsParseError(f"unexpected character {ch!r}", line, col)
        yield ("eof", "", self.line, self.col)


class _Parser:
    def __init__(self, text: str):
        self.toks = list(_Lexer(text).tokens())
        self.i = 0
        self.vars: set[str] = set()
        self.arities: dict[str, int] = {}

    def peek(self):
        return self.toks[self.i]

    def take(self, kind: str | None = None, value: str | None = None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise TrsParseError(f"expected {kind}, got {tok[1]!r}", tok[2], tok[3])
        if value is not None and tok[1] != value:
            raise TrsParseError(f"expected {value!r}, got {tok[1]!r}", tok[2], tok[3])
        self.i += 1
        return tok

    def parse(self, name: str = "") -> Trs:
        self.take("(")
        tok = self.take("ident")
        if tok[1] != "VAR":
            raise TrsParseError(f"expected VAR, got {tok[1]!r}", tok[2], tok[3])
        while self.peek()[0] == "ident":
            self.vars.add(self.take("ident")[1])
        self.take(")")
        self.take("(")
        tok = self.take("ident")
        if tok[1] != "RULES":
            raise TrsParseError(f"expected RULES, got {tok[1]!r}", tok[2], tok[3])
        rules: list[Rule] = []
        while self.peek()[0] == "ident":
            rules.append(self.parse_rule())
        self.take(")")
        self.take("eof")
        return make_trs(rules, name)

    def parse_rule(self) -> Rule:
        ltok = self.peek()
        lhs = self.parse_term()
        if isinstance(lhs, Var):
            raise TrsParseError(
                "left-hand side of a rule must not be a variable", ltok[2], ltok[3]
            )
        self.take("->")
        rtok = self.peek()
        rhs = self.parse_term()
        lv = set(term_vars(lhs))
        for v in term_vars(rhs):
            if v not in lv:
                raise TrsParseError(
                    f"variable {v!r} of right-hand side not in left-hand side",
                    rtok[2],
                    rtok[3],
                )
        return Rule(lhs, rhs)

    def parse_term(self, depth: int = 1) -> Term:
        tok = self.take("ident")
        name = tok[1]
        if self.peek()[0] == "(":
            if name in self.vars:
                raise TrsParseError(f"variable {name!r} applied to arguments", tok[2], tok[3])
            if depth >= MAX_NESTING:
                raise TrsParseError(
                    f"term nests deeper than {MAX_NESTING} levels", tok[2], tok[3]
                )
            self.take("(")
            args = [self.parse_term(depth + 1)]
            while self.peek()[0] == ",":
                self.take(",")
                args.append(self.parse_term(depth + 1))
            self.take(")")
            return App(self._symbol(name, len(args), tok), tuple(args))
        if name in self.vars:
            return Var(name)
        return App(self._symbol(name, 0, tok), ())

    def _symbol(self, name: str, arity: int, tok) -> FunSym:
        known = self.arities.get(name)
        if known is None:
            self.arities[name] = arity
        elif known != arity:
            raise TrsParseError(
                f"symbol {name!r} used with arity {arity}, previously {known}",
                tok[2],
                tok[3],
            )
        return FunSym(name, arity)


def parse_trs(text: str, name: str = "") -> Trs:
    """Parse a TRS file; raises TrsParseError with line:col on bad input."""
    return _Parser(text).parse(name)


def parse_term_text(text: str, variables: set[str]) -> Term:
    """Parse a single term given the set of variable names (for tests)."""
    p = _Parser("")
    p.toks = list(_Lexer(text).tokens())
    p.i = 0
    p.vars = set(variables)
    t = p.parse_term()
    p.take("eof")
    return t


# -- printing -----------------------------------------------------------------


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.sym.name
    return f"{t.sym.name}({', '.join(format_term(a) for a in t.args)})"


def format_trs(trs: Trs) -> str:
    """Render in the file grammar; parse_trs(format_trs(t)) == t structurally."""
    varnames: list[str] = []
    seen: set[str] = set()
    for r in trs.rules:
        for v in r.variables():
            if v not in seen:
                seen.add(v)
                varnames.append(v)
    lines = [f"(VAR {' '.join(varnames)})" if varnames else "(VAR )"]
    lines.append("(RULES")
    for r in trs.rules:
        lines.append(f"  {format_term(r.lhs)} -> {format_term(r.rhs)}")
    lines.append(")")
    return "\n".join(lines) + "\n"
