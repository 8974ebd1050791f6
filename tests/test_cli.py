"""The command-line front end: subcommands, exit codes, report shape."""

import pathlib

import pytest

from polyterm.cli import run_cli

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "polyterm" / "data"


def test_parse_command(tmp_path):
    report = run_cli(["parse", str(DATA / "r1.trs")])
    assert report.exit_code == 0
    assert "(RULES" in report.text and "12 rules" in report.text


def test_parse_bad_file(tmp_path):
    bad = tmp_path / "bad.trs"
    bad.write_text("(VAR x y) (RULES f(x) -> g(y))")
    report = run_cli(["parse", str(bad)])
    assert report.exit_code == 3
    assert "ERROR" in report.text


def test_parse_undeclared_identifier_is_constant(tmp_path):
    ok = tmp_path / "ok.trs"
    ok.write_text("(VAR x) (RULES f(x) -> g(y))")  # y undeclared: a constant
    report = run_cli(["parse", str(ok)])
    assert report.exit_code == 0
    assert "3 symbols" in report.text


def test_parse_deeply_nested_term_is_usage_error(tmp_path):
    deep = tmp_path / "deep.trs"
    deep.write_text("(VAR x) (RULES " + "f(" * 3000 + "x" + ")" * 3000 + " -> x)")
    report = run_cli(["parse", str(deep)])
    assert report.exit_code == 3
    assert "nests deeper than 256" in report.text


def test_parse_missing_file():
    assert run_cli(["parse", "no-such-file.trs"]).exit_code == 3


def test_check_accepted():
    report = run_cli(
        ["check", "--trs", str(DATA / "r1.trs"), "--cert", str(DATA / "r1_nat.cert")]
    )
    assert report.exit_code == 0
    assert report.text.splitlines()[0] == "VERDICT accepted"
    assert any(line.strip().startswith("RULE 7 strict proved") for line in report.text.splitlines())


def test_check_rejected_shows_failing_site():
    report = run_cli(
        ["check", "--trs", str(DATA / "r1.trs"), "--cert", str(DATA / "r1_nat_as_q.cert")]
    )
    assert report.exit_code == 1
    lines = report.text.splitlines()
    assert lines[0] == "VERDICT rejected"
    assert any("f well-defined disproved" in line for line in lines)


def test_check_incremental_certificate():
    report = run_cli(
        ["check", "--trs", str(DATA / "r5.trs"), "--cert", str(DATA / "r5_inc_real.cert")]
    )
    assert report.exit_code == 0
    assert "STEP 2" in report.text


def test_check_deeply_nested_certificate_is_usage_error(tmp_path):
    deep = tmp_path / "deep.cert"
    deep.write_text("(" * 5000 + ")" * 5000)
    report = run_cli(["check", "--trs", str(DATA / "r1.trs"), "--cert", str(deep)])
    assert report.exit_code == 3
    assert "nests deeper than 256" in report.text


def test_check_unknown_verdict(tmp_path):
    # f - g - 1 = (x - y)^2 + 1 > 0 on N^2, but no rung of the ladder proves it
    trs = tmp_path / "fg.trs"
    trs.write_text("(VAR x y) (RULES f(x, y) -> g(x, y))")
    cert = tmp_path / "fg.cert"
    cert.write_text(
        "(DOMAIN N) (INTERP (f (x1 x2) x1^2 + x2^2 + x1 + x2 + 2) (g (x1 x2) 2*x1*x2 + x1 + x2))"
    )
    report = run_cli(["check", "--trs", str(trs), "--cert", str(cert)])
    assert report.exit_code == 2
    lines = report.text.splitlines()
    assert lines[0] == "VERDICT unknown"
    assert "  RULE 1 strict unknown" in lines


def test_empty_steps_certificate_round_trips(tmp_path):
    trs = tmp_path / "empty.trs"
    trs.write_text("(VAR x) (RULES )")
    out = tmp_path / "empty.cert"
    prove = run_cli(
        ["prove", "--trs", str(trs), "--domain", "N", "--incremental", "--out", str(out)]
    )
    assert prove.exit_code == 0
    check = run_cli(["check", "--trs", str(trs), "--cert", str(out)])
    assert (check.exit_code, check.text) == (0, "VERDICT accepted")
    # against a system with rules, no steps leave every rule in the residual
    rejected = run_cli(["check", "--trs", str(DATA / "r1.trs"), "--cert", str(out)])
    assert rejected.exit_code == 1
    assert rejected.text.splitlines()[:2] == ["VERDICT rejected", "  residual-empty disproved"]


def test_check_cert_for_wrong_trs_is_usage_error():
    report = run_cli(
        ["check", "--trs", str(DATA / "r3.trs"), "--cert", str(DATA / "r1_nat.cert")]
    )
    assert report.exit_code == 3


def test_prove_writes_certificate(tmp_path):
    trs = tmp_path / "single.trs"
    trs.write_text("(VAR x)\n(RULES f(x) -> x)\n")
    out = tmp_path / "found.cert"
    report = run_cli(
        ["prove", "--trs", str(trs), "--domain", "N",
         "--max-degree", "1", "--max-coeff", "2", "--out", str(out)]
    )
    assert report.exit_code == 0
    assert report.text.splitlines()[0] == "VERDICT found"
    assert out.read_text().startswith("(DOMAIN N)")
    assert "x1 + 1" in out.read_text()
    check = run_cli(["check", "--trs", str(trs), "--cert", str(out)])
    assert check.exit_code == 0


def test_prove_exhausted_exit_code(tmp_path):
    trs = tmp_path / "single.trs"
    trs.write_text("(VAR x)\n(RULES f(x) -> x)\n")
    report = run_cli(
        ["prove", "--trs", str(trs), "--domain", "Q",
         "--max-degree", "1", "--max-coeff", "1", "--delta", "2"]
    )
    assert report.exit_code == 1
    assert report.text.startswith("EXHAUSTED") and report.text.endswith("CERTS 0")


def test_prove_exhaustive_counts(tmp_path):
    trs = tmp_path / "single.trs"
    trs.write_text("(VAR x)\n(RULES f(x) -> x)\n")
    report = run_cli(
        ["prove", "--trs", str(trs), "--domain", "N", "--exhaustive",
         "--max-degree", "1", "--max-coeff", "2"]
    )
    assert report.exit_code == 0
    assert "CERTS 4" in report.text.splitlines()[0]


def test_prove_incremental(tmp_path):
    trs = tmp_path / "two.trs"
    trs.write_text("(VAR x)\n(RULES f(x) -> x  g(g(x)) -> f(g(x)))\n")
    report = run_cli(
        ["prove", "--trs", str(trs), "--domain", "N", "--incremental",
         "--max-degree", "1", "--max-coeff", "2"]
    )
    assert report.exit_code == 0
    assert "(STEPS" in report.text


def test_unknown_flag_is_usage_error():
    assert run_cli(["prove", "--nope"]).exit_code == 3
    assert run_cli([]).exit_code == 3
    for delta in ("x", "1/0"):
        prove = ["prove", "--trs", str(DATA / "r1.trs"), "--domain", "Q", "--delta", delta]
        assert run_cli(prove).exit_code == 3


def test_corpus_verify():
    report = run_cli(["corpus", "verify"])
    assert report.exit_code == 0
    assert report.text.endswith("VERDICT accepted")


def test_stdout_stable_across_runs():
    a = run_cli(["check", "--trs", str(DATA / "r2.trs"), "--cert", str(DATA / "r2_real.cert")])
    b = run_cli(["check", "--trs", str(DATA / "r2.trs"), "--cert", str(DATA / "r2_real.cert")])
    assert a.text == b.text and a.exit_code == b.exit_code == 0


def _single_trs(tmp_path):
    trs = tmp_path / "single.trs"
    trs.write_text("(VAR x)\n(RULES f(x) -> x)\n")
    return trs


def test_huge_radicand_is_usage_error(tmp_path):
    huge = "1000000000000000003"  # trial division up to its root takes minutes
    cert = tmp_path / "huge.cert"
    cert.write_text(f"(DOMAIN R (DELTA 1) (SQRT {huge}))\n(INTERP (f (x1) x1 + 1))\n")
    trs = _single_trs(tmp_path)
    reports = [
        run_cli(["check", "--trs", str(trs), "--cert", str(cert)]),
        run_cli(["prove", "--trs", str(trs), "--domain", "R", "--delta", f"sqrt({huge})"]),
    ]
    for report in reports:
        assert report.exit_code == 3
        assert "radicand" in report.text
        assert report.elapsed < 1.0


def test_huge_exponent_is_usage_error(tmp_path):
    trs = tmp_path / "nested.trs"
    trs.write_text("(VAR)\n(RULES f(f(a)) -> b)\n")
    cert = tmp_path / "huge.cert"
    cert.write_text("(DOMAIN N)\n(INTERP (a () 0) (b () 0) (f (x1) x1^3000 + 1))\n")
    report = run_cli(["check", "--trs", str(trs), "--cert", str(cert)])
    assert report.exit_code == 3
    assert "degree above 64" in report.text
    assert report.elapsed < 1.0


def _nested(symbol, depth, inner):
    return f"{symbol}(" * depth + inner + ")" * depth


@pytest.mark.parametrize(
    "rule, interp",
    [
        # degree 2^depth: the degree limit stops it at depth 7
        (_nested("f", 10, "x") + " -> x", "(f (x1) x1^2 + x1 + 1)"),
        ("f(f(x)) -> x", "(f (x1) x1^64 + 1)"),
        # degree 0 throughout, but the numerals double in length per level
        (_nested("s", 26, "0") + " -> 0", "(0 () 0) (s (x1) x1^2 + 1)"),
        (_nested("s", 30, "0") + " -> 0", "(0 () 0) (s (x1) x1^2 + 1)"),
    ],
    ids=["f10-quadratic", "f2-degree-64", "s26-ground", "s30-ground"],
)
def test_composition_blowup_is_usage_error(tmp_path, rule, interp):
    trs = tmp_path / "nested.trs"
    trs.write_text(f"(VAR x)\n(RULES {rule})\n")
    cert = tmp_path / "nested.cert"
    cert.write_text(f"(DOMAIN N)\n(INTERP {interp})\n")
    report = run_cli(["check", "--trs", str(trs), "--cert", str(cert)])
    assert report.exit_code == 3
    assert "composes to" in report.text
    assert report.elapsed < 1.0


def test_prove_unwritable_out_is_usage_error(tmp_path):
    trs = _single_trs(tmp_path)
    out = tmp_path / "missing_dir" / "found.cert"
    report = run_cli(
        ["prove", "--trs", str(trs), "--domain", "N",
         "--max-degree", "1", "--max-coeff", "2", "--out", str(out)]
    )
    assert report.exit_code == 3
    assert report.text.startswith("ERROR usage: cannot write")
    assert report.elapsed < 1.0


def test_conflicting_prove_flags_are_usage_errors(tmp_path):
    trs = _single_trs(tmp_path)
    prove = ["prove", "--trs", str(trs), "--max-degree", "1", "--max-coeff", "2"]
    both = run_cli(prove + ["--domain", "N", "--exhaustive", "--incremental"])
    assert both.exit_code == 3
    assert both.text.startswith("ERROR usage:") and "--incremental" in both.text
    for domain in ("N", "Q"):
        sqrt = run_cli(prove + ["--domain", domain, "--sqrt", "2"])
        assert sqrt.exit_code == 3
        assert sqrt.text == "ERROR usage: --sqrt needs --domain R"
    assert run_cli(prove + ["--domain", "R", "--sqrt", "2"]).exit_code == 0
