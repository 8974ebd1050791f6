"""Termination certificates for term rewriting via polynomial interpretations.

Exact arithmetic over N, Q and quadratic extensions Q(sqrt(d)); a checker
for direct and incremental (rule-removal) certificates; a bounded template
search; and an embedded corpus of benchmark systems with their witness
interpretations.
"""

from .numeric import DomainTag, QuadExt, Scalar, domain_n, domain_q, domain_r
from .poly import Poly, parse_poly, format_poly
from .trs import Rule, Trs, parse_trs, format_trs
from .positivity import Verdict, nonneg_on, excess_at_least
from .interp import (
    Certificate,
    CheckReport,
    Interp,
    check_certificate,
    check_incremental,
    eval_term,
    format_certificate,
    lift_linear_n_to_q,
    lift_q_to_r,
    parse_certificate,
)
from .prover import (
    ExhaustionReport,
    SearchConfig,
    exhaustion_report,
    search_direct,
    search_incremental,
)
from .corpus import load_corpus, load_trs, verify_all

__version__ = "0.1.0"
