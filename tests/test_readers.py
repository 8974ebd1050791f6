"""The two readers of the trusted kernel: error texts, and fuzzing.

Every rewrite system enters through ``trs.parse_trs`` and every certificate
through ``interp.parse_certificate``.  The table pins the first line and the
exit code of each error through the command line; the fuzz test requires
that no input makes either reader raise anything but an input error.
"""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyterm.cli import run_cli
from polyterm.interp import parse_certificate
from polyterm.trs import parse_trs

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "polyterm" / "data"

_TRS_ERRORS = {
    "percent": ("(VAR x) (RULES f(x) -> x %)", "ERROR 1:26: unexpected character '%'"),
    "missing-argument-close": ("(VAR x)\n(RULES f(x -> x)", "ERROR 2:12: expected ), got '->'"),
    "rhs-variable": (
        "(VAR x y) (RULES f(x) -> g(y))",
        "ERROR 1:26: variable 'y' of right-hand side not in left-hand side",
    ),
    "variable-lhs": (
        "(VAR x) (RULES x -> f(x))",
        "ERROR 1:16: left-hand side of a rule must not be a variable",
    ),
    "lone-variable": (
        "(VAR x) (RULES x)",
        "ERROR 1:16: left-hand side of a rule must not be a variable",
    ),
    "arity-clash": (
        "(VAR x) (RULES f(x) -> f(x)  f(x, x) -> x)",
        "ERROR 1:30: symbol 'f' used with arity 2, previously 1",
    ),
    "lone-dash": ("(VAR x) (RULES f(x) - x)", "ERROR 1:21: unexpected character '-'"),
    "form-feed": ("(VAR x)\n(RULES\n  f(x) ->\fx)", "ERROR 3:10: unexpected character '\\x0c'"),
    "no-break-space": (
        "(VAR x) (RULES f(x)\xa0-> x)",
        "ERROR 1:20: unexpected character '\\xa0'",
    ),
    "applied-variable": (
        "(VAR x) (RULES x(x) -> x)",
        "ERROR 1:16: variable 'x' applied to arguments",
    ),
    "VARS": ("(VARS x) (RULES f(x) -> x)", "ERROR 1:2: expected VAR, got 'VARS'"),
    "RULE": ("(VAR x) (RULE f(x) -> x)", "ERROR 1:10: expected RULES, got 'RULE'"),
    "missing-close": ("(VAR x) (RULES f(x) -> x", "ERROR 1:25: expected ), got ''"),
    "trailing-junk": ("(VAR x)\n(RULES f(x) -> x) junk", "ERROR 2:19: expected eof, got 'junk'"),
    "empty": ("", "ERROR 1:1: expected (, got ''"),
}

_CERT_ERRORS = {
    "unbalanced": (
        "(DOMAIN N) (INTERP (f (x1) x1 + 1)",
        "ERROR unbalanced parenthesis in certificate",
        3,
    ),
    "stray-close": (
        "(DOMAIN N) (INTERP (f (x1) x1 + 1)))",
        "ERROR unexpected ')' in certificate",
        3,
    ),
    "empty": ("", "ERROR empty certificate", 3),
    "comment-only": ("; nothing here\n", "ERROR empty certificate", 3),
    "deep": ("(" * 300 + ")" * 300, "ERROR certificate nests deeper than 256 levels", 3),
    "listed-index": (
        "(STEPS (STEP (DOMAIN N) (INTERP (f (x1) x1 + 1)) (REMOVE (1))))",
        "ERROR expected an integer, got '( 1 )'",
        3,
    ),
    "listed-radicand": (
        "(DOMAIN R (DELTA 1) (SQRT (2))) (INTERP (f (x1) x1 + 1))",
        "ERROR expected an integer, got '( 2 )'",
        3,
    ),
    "repeated-parameter": (
        "(DOMAIN N) (INTERP (f (x1 x1) x1))",
        "ERROR repeated parameter 'x1' for 'f'",
        3,
    ),
    # integer atoms are ASCII digits with an optional sign, unlike int()
    "underscore-index": (
        "(STEPS (STEP (DOMAIN N) (INTERP (f (x1) x1 + 1)) (REMOVE 1_0 \u0663)))",
        "ERROR expected an integer, got '1_0'",
        3,
    ),
    "arabic-index": (
        "(STEPS (STEP (DOMAIN N) (INTERP (f (x1) x1 + 1)) (REMOVE \u0663)))",
        "ERROR expected an integer, got '\u0663'",
        3,
    ),
    "arabic-radicand": (
        "(DOMAIN R (DELTA 1) (SQRT \u0663)) (INTERP (f (x1) x1 + 1))",
        "ERROR expected an integer, got '\u0663'",
        3,
    ),
    # one domain: a delta and every coefficient use the declared radicand
    "delta-radicand": (
        "(DOMAIN R (DELTA sqrt(3)) (SQRT 2)) (INTERP (f (x1) sqrt(2)*x1 + 2))",
        "ERROR mixed radicands sqrt(2) and sqrt(3)",
        3,
    ),
    "coefficient-without-sqrt": (
        "(DOMAIN R (DELTA 1)) (INTERP (f (x1) sqrt(2)*x1 + 2))",
        "ERROR coefficient uses sqrt(2) but domain declares no SQRT",
        3,
    ),
    "signed-index": (
        "(STEPS (STEP (DOMAIN N) (INTERP (f (x1) x1 + 1)) (REMOVE -1)))",
        "ERROR step 1: removal index -1 out of range",
        3,
    ),
    # a form feed is not a blank, so "x1\f+" is one atom; the polynomial
    # reader then takes it as x1 +
    "form-feed-in-poly": ("(DOMAIN N) (INTERP (f (x1) x1\f+ 1))", "VERDICT accepted", 0),
    # the polynomial reader names a non-integer after ^, / or sqrt( and an
    # early end in its own words
    "poly-exponent": (
        "(DOMAIN N) (INTERP (f (x1) x1^x1))",
        "ERROR expected an integer, got 'x1' in 'x1^x1'",
        3,
    ),
    "poly-denominator": (
        "(DOMAIN N) (INTERP (f (x1) 2/x1))",
        "ERROR expected an integer, got 'x1' in '2/x1'",
        3,
    ),
    "poly-radicand": (
        "(DOMAIN N) (INTERP (f (x1) sqrt(x1)*x1))",
        "ERROR expected an integer, got 'x1' in 'sqrt ( x1 ) *x1'",
        3,
    ),
    "poly-signed-exponent": (
        "(DOMAIN N) (INTERP (f (x1) x1^-1))",
        "ERROR expected an integer, got '-' in 'x1^-1'",
        3,
    ),
    "poly-end": (
        "(DOMAIN N) (INTERP (f (x1) x1 +))",
        "ERROR unexpected end of polynomial 'x1 +'",
        3,
    ),
}


@pytest.mark.parametrize(
    "suffix, text, first_line, code",
    [(".trs", text, line, 3) for text, line in _TRS_ERRORS.values()]
    + [(".cert", *case) for case in _CERT_ERRORS.values()],
    ids=[f"trs-{k}" for k in _TRS_ERRORS] + [f"cert-{k}" for k in _CERT_ERRORS],
)
def test_reader_error_texts(tmp_path, suffix, text, first_line, code):
    path = tmp_path / ("input" + suffix)
    path.write_text(text, encoding="utf-8")
    if suffix == ".trs":
        report = run_cli(["parse", str(path)])
    else:
        trs = tmp_path / "single.trs"
        trs.write_text("(VAR x) (RULES f(x) -> x)")
        report = run_cli(["check", "--trs", str(trs), "--cert", str(path)])
    assert (report.text.splitlines()[0], report.exit_code) == (first_line, code)


# -- fuzzing ------------------------------------------------------------------

_SHIPPED = sorted(p.read_text() for p in DATA.iterdir() if p.suffix in (".trs", ".cert"))
_TOKENS = [
    "(", ")", ",", "->", "-", ">", ";", "\n", " ", "\t", "\r", "\f", "\x00", "\x1b", "\xa0",
    "VAR", "RULES", "DOMAIN", "INTERP", "STEPS", "STEP", "REMOVE", "DELTA", "SQRT", "N", "Q",
    "R", "x", "x1", "f", "0", "1", "2", "-1", "1/2", "1/0", "sqrt(2)", "x1^2", "*", "+", "'",
]
_CHARS = st.sampled_from("()[],;-> \t\r\n\f\v\x00\x1b\x7f\xa0 /^*+.xf01'é")


@st.composite
def _edited(draw):
    """A shipped file cut short, or with one character deleted, changed or added."""
    text = draw(st.sampled_from(_SHIPPED))
    i = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["cut", "delete", "replace", "insert"]))
    if edit == "cut":
        return text[:i]
    if edit == "insert":
        return text[:i] + draw(_CHARS) + text[i:]
    return text[:i] + (draw(_CHARS) if edit == "replace" else "") + text[i + 1 :]


@st.composite
def _pieces(draw):
    """Slices of shipped files, glued together."""
    out = []
    for text in draw(st.lists(st.sampled_from(_SHIPPED), min_size=1, max_size=3)):
        i = draw(st.integers(0, len(text)))
        out.append(text[i : draw(st.integers(i, len(text)))])
    return "".join(out)


@st.composite
def _wrapped(draw):
    """A shipped file with one atom put in parentheses, where a list is not expected."""
    text = draw(st.sampled_from(_SHIPPED))
    atom = draw(st.sampled_from(list(re.finditer(r"[^ \t\r\n();]+", text))))
    return f"{text[: atom.start()]}({atom.group()}){text[atom.end() :]}"


@st.composite
def _nested(draw):
    """Deep nesting of terms or of parentheses, closed or not."""
    n = draw(st.integers(200, 400))
    core = draw(st.sampled_from(["f(" * n + "x" + ")" * n, "(" * n + ")" * n]))
    core = core[: draw(st.integers(len(core) - 2, len(core)))]
    return draw(st.sampled_from(["(VAR x) (RULES {} -> x)", "(DOMAIN N) {}", "{}"])).format(core)


_TEXTS = st.one_of(
    _edited(),
    _pieces(),
    _wrapped(),
    _nested(),
    st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join),
    st.text(max_size=60),
)


@settings(max_examples=300, deadline=500)
@given(text=_TEXTS)
def test_readers_raise_only_input_errors(text):
    # run_cli reports these two as input errors, with exit code 3; a
    # ZeroDivisionError comes from a numeral like 1/0 in a polynomial
    for read in (parse_trs, parse_certificate):
        try:
            read(text)
        except (ValueError, ZeroDivisionError):
            pass
