"""The embedded systems, their certificates, and the one-call verifier."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import polyterm
from polyterm import corpus
from polyterm.cli import run_cli
from polyterm.corpus import (
    CorpusCertificate,
    CorpusEntry,
    ExpectedFailure,
    load_certificate,
    load_corpus,
    verify_all,
)
from polyterm.interp import check_certificate, check_incremental, lift_q_to_r


def test_rule_counts():
    counts = {e.id: len(e.trs().rules) for e in load_corpus()}
    assert counts == {
        "R1": 12,
        "R2": 26,
        "R3": 1,
        "R4": 7,
        "S": 11,
        "R5": 20,
        "R6": 12,
    }


def test_every_positive_certificate_verifies_without_unknowns():
    for entry in load_corpus():
        trs = entry.trs()
        for cc in entry.certificates:
            if not cc.expect_accept:
                continue
            cert = cc.load()
            report = check_certificate(cert, trs)
            assert report.accepted, cc.name
            assert not any(c.verdict.is_unknown for c in report.conditions), cc.name


def test_every_negative_certificate_fails_at_its_site():
    for entry in load_corpus():
        trs = entry.trs()
        for cc in entry.certificates:
            if cc.expect_accept:
                continue
            cert = cc.load()
            report = check_certificate(cert, trs)
            assert not report.accepted, cc.name
            failures = report.failures()
            assert len(failures) == 1, (cc.name, [c.site() for c in failures])
            assert cc.expected_failure.matches(failures[0]), cc.name


def test_q_certificates_lift_to_r():
    for entry in load_corpus():
        trs = entry.trs()
        for cc in entry.certificates:
            if not cc.expect_accept:
                continue
            cert = cc.load()
            if cert.is_incremental:
                if cert.steps[0][0].domain.kind != "Q":
                    continue
                lifted = [(lift_q_to_r(i), removed) for i, removed in cert.steps]
                assert check_incremental(lifted, trs).accepted, cc.name
            elif cert.direct.domain.kind == "Q":
                assert check_certificate(lift_q_to_r(cert.direct), trs).accepted, cc.name


def test_verify_all_summary():
    report = verify_all()
    assert report.ok
    text = report.format()
    assert text.endswith("VERDICT accepted")
    assert "r4_real" in text


_RULE_7 = ExpectedFailure("strict-compat", rule_index=7)


@pytest.mark.parametrize(
    "entry, fail_line",
    [
        (CorpusEntry("R1", "r1.trs", 13, ()), "FAIL R1: expected 13 rules, parsed 12"),
        (CorpusEntry("R1", "r1.trs", 12, (CorpusCertificate("r1_nat_bad", True),)),
         "FAIL r1_nat_bad: expected accept: VERDICT rejected"),
        (CorpusEntry("R1", "r1.trs", 12, (CorpusCertificate("r1_nat", False, _RULE_7),)),
         "FAIL r1_nat: unexpectedly accepted"),
        (CorpusEntry("R1", "r1.trs", 12, (CorpusCertificate(
            "r1_nat_bad", False, ExpectedFailure("strict-compat", rule_index=8)),)),
         "FAIL r1_nat_bad: expected strict-compat at rule 8, got strict-compat of rule 7"),
    ],
    ids=["rule-count", "rejected-accept", "unexpected-accept", "wrong-site"],
)
def test_verify_all_reports_each_failure(monkeypatch, entry, fail_line):
    monkeypatch.setattr(corpus, "load_corpus", lambda: [entry])
    assert not verify_all().ok
    report = run_cli(["corpus", "verify"])
    assert report.exit_code == 1 and report.text.endswith("VERDICT rejected")
    assert "  " + fail_line in report.text.splitlines()


def test_copied_package_reads_its_data_and_imports_little(tmp_path):
    # a copy of the package stands in for an installed one: it finds its
    # data beside its own files, from any working directory, and importing
    # it loads neither typing nor importlib.resources
    site = tmp_path / "site"
    shutil.copytree(Path(polyterm.__file__).parent, site / "polyterm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    env = dict(os.environ, PYTHONPATH=str(site))

    def run(*args):
        return subprocess.run([sys.executable, "-S", "-s", *args], cwd=elsewhere, env=env,
                              capture_output=True, text=True, timeout=120)

    verify = run("-m", "polyterm.cli", "corpus", "verify")
    assert (verify.returncode, verify.stdout) == (0, run_cli(["corpus", "verify"]).text + "\n")
    probe = run("-c", "import sys, polyterm; print(polyterm.__file__); "
                      "print(sorted({'typing', 'importlib.resources'} & set(sys.modules)))")
    assert probe.stdout.splitlines() == [str(site / "polyterm" / "__init__.py"), "[]"]
