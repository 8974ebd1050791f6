"""Terms, rewrite rules, term rewrite systems, and their text format.

The file grammar is the old-style interchange shape::

    file  := (VAR ident*) (RULES rule*)
    rule  := term "->" term
    term  := ident | ident "(" term ("," term)* ")"

The tokens are ``->``, ``(``, ``)``, ``,`` and identifiers
``[A-Za-z0-9_']+``.  Blanks (space, tab, CR and LF only) and comments, from
``;`` to the end of the line, separate tokens; any other character, such as
a form feed or a no-break space, is an error at its line:column.  Identifiers
listed in the VAR section are variables, every other identifier is a
function symbol whose arity is fixed by its first use.  Numerals like ``0``
are ordinary constant symbols.  Terms nest at most ``MAX_NESTING`` levels
deep, so that hostile input is rejected before it exhausts the stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
        return term_vars(self.lhs)  # the rhs variables are among them


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

_TOKEN = re.compile(
    r"(?P<blank>[ \t\r\n]+|;[^\n]*)|(?P<punct>->|[(),])|(?P<ident>[A-Za-z0-9_']+)|(?P<bad>.)"
)


def _tokens(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) per token, ending in eof; punctuation is its own kind."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "blank":
            if "\n" in tok:
                line += tok.count("\n")
                line_start = m.start() + tok.rindex("\n") + 1
        elif kind == "bad":
            raise TrsParseError(f"unexpected character {tok!r}", line, col)
        else:
            toks.append((tok if kind == "punct" else kind, tok, line, col))
    toks.append(("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0
        self.vars: set[str] = set()
        self.arities: dict[str, int] = {}

    def peek(self):
        return self.toks[self.i]

    def take(self, kind: str, text: str | None = None):
        """The next token, which must be of ``kind`` and, if given, spell ``text``."""
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise TrsParseError(f"expected {kind}, got {tok[1]!r}", tok[2], tok[3])
        if text is not None and tok[1] != text:
            raise TrsParseError(f"expected {text}, got {tok[1]!r}", tok[2], tok[3])
        self.i += 1
        return tok

    def parse(self, name: str = "") -> Trs:
        self.take("(")
        self.take("ident", "VAR")
        while self.peek()[0] == "ident":
            self.vars.add(self.take("ident")[1])
        self.take(")")
        self.take("(")
        self.take("ident", "RULES")
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
        try:
            return Rule(lhs, rhs)
        except TrsError as exc:
            raise TrsParseError(str(exc), rtok[2], rtok[3]) from None

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
    p = _Parser(text)
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
    varnames = list(dict.fromkeys(v for r in trs.rules for v in r.variables()))
    lines = [f"(VAR {' '.join(varnames)})" if varnames else "(VAR )"]
    lines.append("(RULES")
    for r in trs.rules:
        lines.append(f"  {format_term(r.lhs)} -> {format_term(r.rhs)}")
    lines.append(")")
    return "\n".join(lines) + "\n"
