"""The command-line front end: subcommands, exit codes, report shape."""

import hashlib
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
    # a NaN budget would never cut (monotonic() > nan is False), and a
    # negative one would cut before the first node
    exhaust = ["prove", "--trs", str(DATA / "r1.trs"), "--domain", "Q", "--exhaustive",
               "--max-coeff", "4", "--denoms", "1,2,4", "--delta", "1/2,1"]
    for budget in ("nan", "-1"):
        report = run_cli(exhaust + ["--budget", budget])
        assert (report.text, report.exit_code) == ("ERROR budget_seconds must be a number >= 0", 3)


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
    mixed = run_cli(prove + ["--domain", "R", "--sqrt", "3", "--delta", "sqrt(2)"])
    assert (mixed.text, mixed.exit_code) == ("ERROR mixed radicands sqrt(3) and sqrt(2)", 3)


# sha256 of "<exit code>\n<stdout>" per shipped file: `check` of each
# certificate against the system its name starts with, `parse` of each
# system (the data directory masked), and `corpus verify`; the outputs must
# stay byte-identical from change to change
_GOLDEN = {
    "r1_inc_q.cert": "00f4b7a875392e059742d53d816f1df5a04881a7708abb91cb283ff5a6e0dcb1",
    "r1_inc_q_bad.cert": "e1285df7b4c141a35b2de8f5c72a1775c3d7781db29b97749af0349bc4c63998",
    "r1_nat.cert": "7ff933913da291703a66253d4beffc04e934823582042e66f0f0b08054340ff3",
    "r1_nat_as_q.cert": "969ee5e7225dc1667719e547c74182fb835b9d8ee0c95834f362114f9346752b",
    "r1_nat_bad.cert": "031f22c78b2f316236746d9b09e2fe85b65c458fa8aef2f77814f013ad5a3d86",
    "r2_nat.cert": "3ac65cff680c20ce5055a26b36f6e95a4c5aaf736bf1400130a2b72c65bf2712",
    "r2_nat_bad.cert": "4413dd6df220d167029b364d66fe6cd216bf407ef074ab328d3d7149b4b657f7",
    "r2_real.cert": "3ac65cff680c20ce5055a26b36f6e95a4c5aaf736bf1400130a2b72c65bf2712",
    "r2_real_bad.cert": "2deccc00d7ff95dd3b3b6dafc48cbd5b0ca7546e65907d23cb2e140f7691ca87",
    "r3_q.cert": "dafae1de72da96bc94400db2c53e403426593dff09b49680ff455b840270a019",
    "r3_q_bad.cert": "f8946e90fc565370b84b7d45376f746995bd1e8113c5f42278daac6c937ac292",
    "r4_real.cert": "9cfe20bda6494d59c2809914b3bfa42fb396172223eb11f91b5b913d9d965ebb",
    "r4_real_bad.cert": "b21a86be73c5ff6a89844b30cdec418983b102d52c5b82d1abcf0d4222e75973",
    "r5_inc_nat.cert": "f2a54e09bd9b65fd0ce21901e893f47c15c4b053d1e0f200d1f632e3eb80247f",
    "r5_inc_nat_bad.cert": "8ceecf497b7f76a810fe0f7e5738718c4ba8226905b327bf9f694698ec8cad50",
    "r5_inc_real.cert": "c4a2e2633eea952c08792b7a5902b67972288d0121cac5ffce3d4f4de3368226",
    "r5_inc_real_bad.cert": "18dfca61baa456084b0a9bf7171aa20e8a7c38d5d9cbebf378c29e57359c631e",
    "r6_inc_nat.cert": "20afe00c309b4250c5a6480a168e7213ac31bf0488ff6b6109c182e061e9cced",
    "r6_inc_nat_bad.cert": "eab935d438a300f06e53ac913debc1bb9f33f14591742b50b7b2ae246f7017fc",
    "r1.trs": "ad06d49eaa82b765606941e968ecc926afc8c3faf9a21b959c28ae3d08fdb903",
    "r2.trs": "c69e5dea391fda1300df92861e2814b45b7660d5268223388cec54a0863237bf",
    "r3.trs": "a8d4edfcd3e565f95312aa61f48aadbd23d0d50c460d2bf3090dfd3e0639534d",
    "r4.trs": "032a32e428d7e3bec06d2cf5cd39a8f76780b40f03c86fe8a6ab595ca19da2c6",
    "r5.trs": "92af451a1a14fdaa06fb2ec1c7cc3b9cae2d07722c758e5bb99065103537a4b0",
    "r6.trs": "75b6602b908715f9a09481d7e6da25d84abdfc18e83b49b8c0df56f82729dca3",
    "s.trs": "2509d44be14c820040caf29386c055774a3c4f9f905de6556a87e3b554c6dda3",
    "corpus verify": "605ccf18bc3905f7ef512c9e18eda64ba19a770f4e08aa2754f3de6dfc26204f",
}


def _golden_argv(name):
    if name == "corpus verify":
        return ["corpus", "verify"]
    if name.endswith(".trs"):
        return ["parse", str(DATA / name)]
    return ["check", "--trs", str(DATA / (name.split("_")[0] + ".trs")), "--cert", str(DATA / name)]


def test_golden_cover_every_shipped_file():
    shipped = {p.name for p in DATA.iterdir() if p.suffix in (".trs", ".cert")}
    assert shipped | {"corpus verify"} == set(_GOLDEN)


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_outputs(name):
    report = run_cli(_golden_argv(name))
    text = report.text.replace(str(DATA), "<data>")
    digest = hashlib.sha256(f"{report.exit_code}\n{text}".encode()).hexdigest()
    assert digest == _GOLDEN[name], f"output of {name} changed"
