"""The embedded benchmark systems and their witness certificates.

Seven rewrite systems (r1, r2, r3, r4, s, r5, r6) ship as plain text files
in the package data directory, together with every witness interpretation:
direct certificates, two-step rule-removal proofs, and one deliberately
broken variant per certificate whose single corrupted coefficient trips
exactly one check.  ``verify_all`` re-checks the lot with the kernel's one
checker, ``interp.check_certificate``, and is wired to the ``corpus verify``
CLI command; nothing here depends on the search.

The r4 certificate exercises exact sqrt(2) arithmetic: composing its k three
times yields the constant 3 + sqrt(2), so the margins of the last two rules
are 1 + sqrt(2) and 3 - sqrt(2) rather than the rounded constants one might
read off a proof sketch; both still clear delta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .interp import Certificate, check_certificate, lift_q_to_r, parse_certificate
from .trs import Trs, parse_trs

__all__ = [
    "ExpectedFailure",
    "CorpusCertificate",
    "CorpusEntry",
    "CorpusReport",
    "load_corpus",
    "load_trs",
    "load_certificate",
    "verify_all",
]


def _data_text(name: str) -> str:
    return (resources.files(__package__) / "data" / name).read_text()


def load_trs(name: str) -> Trs:
    """Load one of the shipped systems by file name, e.g. "r1.trs"."""
    return parse_trs(_data_text(name), name=name.removesuffix(".trs"))


def load_certificate(name: str) -> Certificate:
    return parse_certificate(_data_text(name))


@dataclass(frozen=True)
class ExpectedFailure:
    """Where a broken certificate must be rejected."""

    kind: str  # "strict-compat" | "weak-compat" | "well-defined" | ...
    rule_index: int | None = None
    symbol: str | None = None
    step: int | None = None

    def matches(self, condition) -> bool:
        return (
            condition.kind == self.kind
            and condition.rule_index == self.rule_index
            and (self.symbol is None or condition.symbol == self.symbol)
            and condition.step == self.step
        )

    def describe(self) -> str:
        out = self.kind
        if self.symbol is not None:
            out += f" of {self.symbol}"
        if self.rule_index is not None:
            out += f" at rule {self.rule_index}"
        if self.step is not None:
            out += f" in step {self.step}"
        return out


@dataclass(frozen=True)
class CorpusCertificate:
    name: str  # certificate file name without extension
    expect_accept: bool
    expected_failure: ExpectedFailure | None = None
    note: str = ""

    def load(self) -> Certificate:
        return load_certificate(self.name + ".cert")


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    trs_file: str
    rule_count: int
    certificates: tuple[CorpusCertificate, ...]
    notes: str = ""

    def trs(self) -> Trs:
        return load_trs(self.trs_file)


def load_corpus() -> list[CorpusEntry]:
    """All shipped systems with their certificates and broken variants."""
    return [
        CorpusEntry(
            "R1",
            "r1.trs",
            12,
            (
                CorpusCertificate("r1_nat", True),
                CorpusCertificate(
                    "r1_nat_bad",
                    False,
                    ExpectedFailure("strict-compat", rule_index=7),
                ),
                CorpusCertificate(
                    "r1_nat_as_q",
                    False,
                    ExpectedFailure("well-defined", symbol="f"),
                    note="the N-witness re-tagged over Q; f dips below zero on (0, 1/2)",
                ),
                CorpusCertificate("r1_inc_q", True),
                CorpusCertificate(
                    "r1_inc_q_bad",
                    False,
                    ExpectedFailure("strict-compat", rule_index=7, step=1),
                ),
            ),
        ),
        CorpusEntry(
            "R2",
            "r2.trs",
            26,
            (
                CorpusCertificate("r2_nat", True),
                CorpusCertificate(
                    "r2_nat_bad",
                    False,
                    ExpectedFailure("strict-compat", rule_index=23),
                ),
                CorpusCertificate("r2_real", True),
                CorpusCertificate(
                    "r2_real_bad",
                    False,
                    ExpectedFailure("strict-compat", rule_index=23),
                ),
            ),
        ),
        CorpusEntry(
            "R3",
            "r3.trs",
            1,
            (
                CorpusCertificate("r3_q", True),
                CorpusCertificate(
                    "r3_q_bad",
                    False,
                    ExpectedFailure("strict-compat", rule_index=1),
                ),
            ),
        ),
        CorpusEntry(
            "R4",
            "r4.trs",
            7,
            (
                CorpusCertificate("r4_real", True),
                CorpusCertificate(
                    "r4_real_bad",
                    False,
                    ExpectedFailure("strict-compat", rule_index=6),
                ),
            ),
            notes=(
                "exact composition gives k^3(x) = 2*sqrt(2)*x + 3 + sqrt(2); "
                "the checker verifies the exact margins 1 + sqrt(2) and 3 - sqrt(2)"
            ),
        ),
        CorpusEntry("S", "s.trs", 11, ()),
        CorpusEntry(
            "R5",
            "r5.trs",
            20,
            (
                CorpusCertificate("r5_inc_nat", True),
                CorpusCertificate(
                    "r5_inc_nat_bad",
                    False,
                    ExpectedFailure("strict-compat", rule_index=5, step=2),
                ),
                CorpusCertificate("r5_inc_real", True),
                CorpusCertificate(
                    "r5_inc_real_bad",
                    False,
                    ExpectedFailure("weak-compat", rule_index=19, step=1),
                ),
            ),
        ),
        CorpusEntry(
            "R6",
            "r6.trs",
            12,
            (
                CorpusCertificate("r6_inc_nat", True),
                CorpusCertificate(
                    "r6_inc_nat_bad",
                    False,
                    ExpectedFailure("strict-compat", rule_index=3, step=2),
                ),
            ),
        ),
    ]


@dataclass(frozen=True)
class CorpusReport:
    lines: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(good for _, good, _ in self.lines)

    def format(self) -> str:
        out = []
        for name, good, message in self.lines:
            out.append(f"  {'ok  ' if good else 'FAIL'} {name}: {message}")
        out.append(f"VERDICT {'accepted' if self.ok else 'rejected'}")
        return "\n".join(out)


def verify_all() -> CorpusReport:
    """Re-check every shipped certificate and broken variant."""
    lines: list[tuple[str, bool, str]] = []
    for entry in load_corpus():
        trs = entry.trs()
        if len(trs.rules) != entry.rule_count:
            lines.append(
                (entry.id, False, f"expected {entry.rule_count} rules, parsed {len(trs.rules)}")
            )
            continue
        lines.append((entry.id, True, f"{len(trs.rules)} rules"))
        for cc in entry.certificates:
            cert = cc.load()
            report = check_certificate(cert, trs)
            if cc.expect_accept:
                if report.accepted and not report.unknowns():
                    lines.append((cc.name, True, "accepted"))
                else:
                    lines.append((cc.name, False, f"expected accept: {report.format()}"))
                if not cert.is_incremental and cert.direct.domain.kind == "Q":
                    lifted = lift_q_to_r(cert.direct)
                    lifted_report = check_certificate(lifted, trs)
                    good = lifted_report.accepted
                    lines.append(
                        (cc.name + " (lifted to R)", good, "accepted" if good else "rejected")
                    )
            else:
                failures = report.failures()
                expected = cc.expected_failure
                hit = len(failures) == 1 and expected.matches(failures[0])
                if report.accepted:
                    lines.append((cc.name, False, "unexpectedly accepted"))
                elif hit:
                    lines.append((cc.name, True, f"rejected at {expected.describe()}"))
                else:
                    got = "; ".join(c.site() for c in failures) or "no single failure"
                    lines.append(
                        (cc.name, False, f"expected {expected.describe()}, got {got}")
                    )
    return CorpusReport(tuple(lines))
