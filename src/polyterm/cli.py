"""Command-line front end: parse, check, prove, corpus verification.

Exit codes: 0 accepted/found, 1 rejected/not found, 2 inconclusive or
unknown, 3 usage or I/O error.  Stdout carries the machine-readable report
(first line ``VERDICT ...`` for checks, ``EXHAUSTED ... CERTS n`` for
exhaustive runs); timing goes to stderr so the stdout region is stable
across runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .corpus import check_corpus_certificate, verify_all
from .interp import Certificate, format_certificate, parse_certificate
from .poly import parse_scalar
from .prover import (
    SearchConfig,
    exhaustion_report,
    search_direct,
    search_incremental,
)
from .trs import TrsError, format_trs, parse_trs

__all__ = ["CliReport", "run_cli", "main"]


@dataclass(frozen=True)
class CliReport:
    command: tuple[str, ...]
    exit_code: int
    text: str
    elapsed: float


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="polyterm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("parse", help="validate a TRS file and pretty-print it")
    q.add_argument("trs_file")

    c = sub.add_parser("check", help="verify a certificate against a TRS")
    c.add_argument("--trs", required=True)
    c.add_argument("--cert", required=True)

    r = sub.add_parser("prove", help="search for a certificate")
    r.add_argument("--trs", required=True)
    r.add_argument("--domain", required=True, choices=["N", "Q", "R"])
    mode = r.add_mutually_exclusive_group()
    mode.add_argument("--incremental", action="store_true")
    mode.add_argument("--exhaustive", action="store_true",
                      help="enumerate the whole space and count certificates")
    r.add_argument("--max-degree", type=int, default=2)
    r.add_argument("--max-coeff", type=int, default=2)
    r.add_argument("--denoms", default="1", help="comma-separated denominators")
    r.add_argument("--delta", default="1", help="comma-separated delta candidates")
    r.add_argument("--sqrt", type=int, default=None, help="radicand d; needs --domain R")
    r.add_argument("--budget", type=float, default=None, help="seconds")
    r.add_argument("--max-steps", type=int, default=8)
    r.add_argument("--out", default=None, help="write the found certificate here")

    v = sub.add_parser("corpus", help="embedded benchmark systems")
    vs = v.add_subparsers(dest="corpus_command", required=True)
    vs.add_parser("verify", help="re-check every shipped certificate")
    return p


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _cmd_parse(args) -> tuple[int, str]:
    trs = parse_trs(_read(args.trs_file), name=args.trs_file)
    summary = f"; {len(trs.rules)} rules, {len(trs.signature)} symbols"
    return 0, format_trs(trs).rstrip("\n") + "\n" + summary


def _cmd_check(args) -> tuple[int, str]:
    trs = parse_trs(_read(args.trs), name=args.trs)
    report = check_corpus_certificate(trs, parse_certificate(_read(args.cert)))
    code = {"accepted": 0, "rejected": 1, "unknown": 2}[report.verdict_word]
    return code, report.format()


def _search_config(args) -> SearchConfig:
    if args.sqrt is not None and args.domain != "R":
        raise _UsageError("--sqrt needs --domain R")
    try:
        denoms = tuple(int(tok) for tok in args.denoms.split(",") if tok)
        deltas = tuple(parse_scalar(tok) for tok in args.delta.split(",") if tok)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return SearchConfig(
        max_degree=args.max_degree,
        max_coeff=args.max_coeff,
        denominators=denoms or (1,),
        deltas=deltas or (Fraction(1),),
        sqrt_d=args.sqrt,
        budget_seconds=args.budget,
        max_steps=args.max_steps,
    )


def _cmd_prove(args) -> tuple[int, str]:
    trs = parse_trs(_read(args.trs), name=args.trs)
    cfg = _search_config(args)

    if args.exhaustive:
        rep = exhaustion_report(trs, args.domain, cfg)
        if not rep.complete:
            return 2, rep.format()
        return (0 if rep.cert_count > 0 else 1), rep.format()

    bounds = cfg.bounds_text(args.domain)
    if args.incremental:
        res = search_incremental(trs, args.domain, cfg)
        cert = Certificate(steps=res.proof.steps) if res.found else None
        not_found = f"NO-PROGRESS {bounds}"
    else:
        res = search_direct(trs, args.domain, cfg)
        cert = Certificate(direct=res.interp) if res.found else None
        not_found = f"EXHAUSTED {bounds} CERTS 0"
    if cert is None:
        if res.status == "budget":
            return 2, f"INCONCLUSIVE {bounds}"
        return 1, not_found
    text = format_certificate(cert)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}") from exc
    return 0, "VERDICT found\n" + text.rstrip("\n")


def _cmd_corpus(args) -> tuple[int, str]:
    report = verify_all()
    return (0 if report.ok else 1), report.format()


def run_cli(argv: list[str]) -> CliReport:
    """Run one command; never raises for bad input (exit code 3 instead)."""
    started = time.monotonic()
    argv = list(argv)
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "parse":
            code, text = _cmd_parse(args)
        elif args.command == "check":
            code, text = _cmd_check(args)
        elif args.command == "prove":
            code, text = _cmd_prove(args)
        else:
            code, text = _cmd_corpus(args)
    except _UsageError as exc:
        code, text = 3, f"ERROR usage: {exc}"
    except (TrsError, ValueError, ZeroDivisionError) as exc:
        code, text = 3, f"ERROR {exc}"
    return CliReport(tuple(argv), code, text, time.monotonic() - started)


def main() -> None:
    report = run_cli(sys.argv[1:])
    print(report.text)
    print(f"elapsed {report.elapsed:.3f}s", file=sys.stderr)
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()
