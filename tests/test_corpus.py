"""The embedded systems, their certificates, and the one-call verifier."""

from polyterm.corpus import load_certificate, load_corpus, verify_all
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
