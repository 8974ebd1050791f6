"""Non-negativity of polynomials over N^n, Q0^n and R0^n.

Every well-definedness, monotonicity and compatibility condition in this
package reduces to "p >= 0 on the whole carrier".  The decision ladder:

1. constant polynomials: exact sign;
2. absolute positiveness: all coefficients >= 0 proves any carrier;
3. univariate degree <= 2 over Q0/R0: the exact half-line criterion
   a >= 0 and c >= 0 and (b >= 0 or b^2 <= 4ac), with an exact witness
   (the vertex -b/2a, or a large enough point) when it fails;
4. over N: shifted absolute positiveness -- p(x1+s, ..., xn+s) has only
   nonnegative coefficients for some s <= DEFAULT_SHIFT_BOUND, and the
   region where some coordinate stays below s is covered by pinning each
   variable to each value in {0, .., s-1} and deciding the rest recursively
   (for univariate p that is just a finite point check);
5. counterexample sampling on a rational grid (denominator-major order,
   denominators 1,2,4,8, numerators 0..32; integers 0..32 over N), at most
   SAMPLE_CAP points;
6. otherwise Unknown -- a value, not an error: the caller must distinguish
   "disproved" from "this ladder is too weak".

Proved is returned only when the inequality genuinely holds on the whole
carrier; Disproved always carries a witness point that evaluates negative.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .numeric import Scalar, as_scalar, format_scalar, scalar_sign
from .poly import Poly

__all__ = [
    "Verdict",
    "nonneg_on",
    "excess_at_least",
    "quad_nonneg_halfline",
    "DEFAULT_SHIFT_BOUND",
    "SAMPLE_CAP",
]

DEFAULT_SHIFT_BOUND = 8
SAMPLE_CAP = 100_000

_BASES = ("N", "Q0", "R0")


@dataclass(frozen=True)
class Verdict:
    """Proved(method) | Disproved(witness, value) | Unknown."""

    status: str  # "proved" | "disproved" | "unknown"
    method: str | None = None
    witness: tuple[tuple[str, Scalar], ...] | None = None
    value: Scalar | None = None
    reason: str | None = None

    @staticmethod
    def proved(method: str) -> "Verdict":
        return Verdict("proved", method=method)

    @staticmethod
    def disproved(
        point: Mapping[str, Scalar] | None,
        value: Scalar | None,
        reason: str | None = None,
    ) -> "Verdict":
        witness = None
        if point is not None:
            witness = tuple(sorted(point.items()))
        return Verdict("disproved", witness=witness, value=value, reason=reason)

    @staticmethod
    def unknown(reason: str | None = None) -> "Verdict":
        return Verdict("unknown", reason=reason)

    @property
    def is_proved(self) -> bool:
        return self.status == "proved"

    @property
    def is_disproved(self) -> bool:
        return self.status == "disproved"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    def point(self) -> dict[str, Scalar] | None:
        return dict(self.witness) if self.witness is not None else None

    def describe(self) -> str:
        if self.is_proved:
            return f"proved ({self.method})"
        if self.is_disproved:
            if self.witness is not None:
                at = ", ".join(f"{v}={format_scalar(x)}" for v, x in self.witness)
                return f"disproved (at {at}: {format_scalar(self.value)})"
            return f"disproved ({self.reason})"
        return "unknown" + (f" ({self.reason})" if self.reason else "")


def quad_nonneg_halfline(a: Scalar, b: Scalar, c: Scalar) -> bool:
    """Exact test for a*x^2 + b*x + c >= 0 on the half-line [0, oo)."""
    if scalar_sign(a) < 0 or scalar_sign(c) < 0:
        return False
    if scalar_sign(b) >= 0:
        return True
    return scalar_sign(b * b - 4 * a * c) <= 0


def _quad_witness(p: Poly, var: str, a: Scalar, b: Scalar, c: Scalar):
    """A point of [0, oo) where the failing quadratic is negative."""
    if scalar_sign(c) < 0:
        return Fraction(0)
    if scalar_sign(a) < 0 or (scalar_sign(a) == 0 and scalar_sign(b) < 0):
        x = Fraction(1)
        while scalar_sign(p.eval({var: x})) >= 0:
            x *= 2
        return x
    # a > 0, b < 0, b^2 > 4ac: the vertex is in (0, oo) and negative there
    return -b / (2 * a)


def _grid_sequence(base: str) -> list[Scalar]:
    if base == "N":
        return [Fraction(n) for n in range(33)]
    seq: list[Scalar] = []
    for den in (1, 2, 4, 8):
        for num in range(33):
            if gcd(num, den) == 1 or (num == 0 and den == 1):
                seq.append(Fraction(num, den))
    return seq


def _grid_search(p: Poly, base: str) -> Verdict | None:
    variables = p.variables()
    seq = _grid_sequence(base)
    count = 0
    for point in itertools.product(seq, repeat=len(variables)):
        count += 1
        if count > SAMPLE_CAP:
            return None
        binding = dict(zip(variables, point))
        value = p.eval(binding)
        if scalar_sign(value) < 0:
            return Verdict.disproved(binding, value)
    return None


def _below_shift_nonneg(p: Poly, variables: list[str], s: int) -> bool:
    """p >= 0 on the part of N^n where some coordinate is below s.

    Each variable is pinned to each value in {0, .., s-1} in turn and the
    remaining polynomial is decided recursively (one variable fewer, so this
    terminates).  For univariate p this is exactly the finite point check.
    """
    for var in variables:
        for v in range(s):
            pinned = p.compose(
                {w: (Poly.const(v) if w == var else Poly.var(w)) for w in variables}
            )
            if not nonneg_on(pinned, "N").is_proved:
                return False
    return True


def _shifted_nonneg_n(p: Poly) -> Verdict | None:
    """Decided at the least s whose shift has no negative coefficient.

    Every larger s shifts to nonnegative coefficients too and pins a superset
    of the same subproblems, so it cannot prove what s failed to.
    """
    variables = p.variables()
    for s in range(1, DEFAULT_SHIFT_BOUND + 1):
        shifted = p.compose({v: Poly.var(v) + Poly.const(s) for v in variables})
        if all(scalar_sign(c) >= 0 for c in shifted.coeffs()):
            if not _below_shift_nonneg(p, variables, s):
                return None
            return Verdict.proved(f"shifted-absolute-positiveness(s={s})")
    return None


def nonneg_on(p: Poly, base: str) -> Verdict:
    """Decide or refute p >= 0 on the carrier ("N", "Q0" or "R0")."""
    if base not in _BASES:
        raise ValueError(f"unknown carrier {base!r}")

    if p.degree() <= 0:
        c = p.constant()
        if scalar_sign(c) >= 0:
            return Verdict.proved("constant")
        return Verdict.disproved({}, c)

    if all(scalar_sign(c) >= 0 for c in p.coeffs()):
        return Verdict.proved("absolute-positiveness")

    variables = p.variables()
    if base in ("Q0", "R0") and len(variables) == 1 and p.degree() <= 2:
        var = variables[0]
        a = p.coeff({var: 2})
        b = p.coeff({var: 1})
        c = p.constant()
        if quad_nonneg_halfline(a, b, c):
            return Verdict.proved("quadratic-criterion")
        x = _quad_witness(p, var, a, b, c)
        return Verdict.disproved({var: x}, p.eval({var: x}))

    if base == "N":
        verdict = _shifted_nonneg_n(p)
        if verdict is not None:
            return verdict

    found = _grid_search(p, base)
    if found is not None:
        return found

    return Verdict.unknown("positivity ladder exhausted")


def excess_at_least(p: Poly, q: Poly, margin: Scalar, base: str) -> Verdict:
    """Verdict for p - q - margin >= 0 on the carrier."""
    margin = as_scalar(margin)
    if scalar_sign(margin) < 0:
        raise ValueError("margin must be nonnegative")
    return nonneg_on(p - q - Poly.const(margin), base)
