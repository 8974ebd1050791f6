"""Exact scalar arithmetic: rationals and quadratic extensions a + b*sqrt(d).

Scalars are the coefficient domain of everything else in this package.  A
scalar is either a ``fractions.Fraction`` (exact rational, arbitrary
precision) or a :class:`QuadExt` value ``a + b*sqrt(d)`` with rational a, b
and a fixed square-free radicand 2 <= d <= MAX_RADICAND.  All operations
are exact; no floating point is used anywhere, in particular not for sign
determination.

Arithmetic and order are the operators of ``Fraction`` and :class:`QuadExt`;
:func:`scalar_sign` is the one exact sign test under them.  A scalar's text
is a constant polynomial: ``poly.parse_scalar`` reads it and
:func:`format_scalar` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Scalar",
    "QuadExt",
    "DomainTag",
    "MAX_RADICAND",
    "quadext",
    "is_square_free",
    "scalar_sign",
    "quadratic_sign",
    "as_scalar",
    "is_integer",
    "format_scalar",
    "domain_n",
    "domain_q",
    "domain_r",
]


def is_square_free(d: int) -> bool:
    """True iff no prime divides d twice (d >= 1)."""
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        while d % k == 0:
            d //= k
        k += 1
    return True


# Bounds the trial division of is_square_free to sqrt(MAX_RADICAND) = 1,000
# steps, so a hostile radicand is rejected at once instead of factored.
MAX_RADICAND = 10**6


def _check_radicand(d: int) -> None:
    """The one radicand check of QuadExt and DomainTag."""
    if not 2 <= d <= MAX_RADICAND or not is_square_free(d):
        raise ValueError(f"radicand must be square-free in [2, {MAX_RADICAND}], got {d}")


class QuadExt:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Instances are immutable.  Arithmetic demotes results with b = 0 to plain
    Fraction, so a QuadExt value always has b != 0; this makes equality with
    rationals structural.  Mixing two distinct radicands d is an error.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        a = Fraction(a)
        b = Fraction(b)
        _check_radicand(d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "tuple[Fraction, Fraction] | None":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(
                    f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
                )
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return quadext(self.a + co[0], self.b + co[1], self.d)

    __radd__ = __add__

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return quadext(self.a - co[0], self.b - co[1], self.d)

    def __rsub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return quadext(co[0] - self.a, co[1] - self.b, self.d)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a, b, d = self.a, self.b, self.d
        # (a + b sqrt d)(a' + b' sqrt d) = (aa' + bb'd) + (ab' + a'b) sqrt d
        return quadext(a * co[0] + b * co[1] * d, a * co[1] + co[0] * b, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        norm = self.a * self.a - self.b * self.b * self.d
        # norm = 0 would force sqrt(d) rational; cannot happen for b != 0
        return quadext(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        if isinstance(other, QuadExt):
            return self * other.inverse()
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError("scalar division by zero")
        return QuadExt(self.a / other, self.b / other, self.d)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Fraction(other) * self.inverse()
        return NotImplemented

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __abs__(self):
        return -self if scalar_sign(self) < 0 else self

    # -- order -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        return scalar_sign(self - other)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


Scalar = Fraction | QuadExt


def quadext(a, b, d: int) -> Scalar:
    """Canonical constructor: returns a plain Fraction when b = 0."""
    b = Fraction(b)
    if b == 0:
        return Fraction(a)
    return QuadExt(a, b, d)


def as_scalar(x) -> Scalar:
    """Coerce an int/Fraction/QuadExt to a Scalar."""
    if isinstance(x, QuadExt):
        return x
    return Fraction(x)


def is_integer(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and Fraction(x).denominator == 1


def scalar_sign(x: Scalar) -> int:
    """Exact sign in {-1, 0, +1}, decided without floating point."""
    if not isinstance(x, QuadExt):
        n = x.numerator if isinstance(x, Fraction) else x
        return (n > 0) - (n < 0)
    return quadratic_sign(x.a, x.b, x.d)


def quadratic_sign(a, b, d: int) -> int:
    """The exact sign of a + b*sqrt(d) for rational (int or Fraction) a, b.

    With a, b of opposite signs the comparison a ? -b*sqrt(d) is squared:
    both sides are nonnegative there, so the order of a^2 and b^2*d decides.
    """
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb if sa == 0 else sa
    # opposite signs: |a| vs |b|*sqrt(d), squared
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:  # impossible for square-free d, kept for totality
        return 0
    return sa if lhs > rhs else sb


def _format_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_scalar(x: Scalar) -> str:
    """Render a scalar as canonical text; ``poly.parse_scalar`` reads it back."""
    if not isinstance(x, QuadExt):
        return _format_rat(Fraction(x))
    parts = []
    if x.a != 0:
        parts.append(_format_rat(x.a))
    b = x.b
    if b == 1:
        root = f"sqrt({x.d})"
    elif b == -1:
        root = f"-sqrt({x.d})"
    else:
        root = f"{_format_rat(b)}*sqrt({x.d})"
    if not parts:
        return root
    if root.startswith("-"):
        return parts[0] + "-" + root[1:]
    return parts[0] + "+" + root


# -- interpretation domains ------------------------------------------------


@dataclass(frozen=True)
class DomainTag:
    """One of the carriers N, Q (with delta) or R (with delta, optional sqrt d)."""

    kind: str  # "N" | "Q" | "R"
    delta: Scalar | None = None
    d: int | None = None

    def __post_init__(self):
        if self.kind not in ("N", "Q", "R"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "N":
            if self.delta is not None or self.d is not None:
                raise ValueError("domain N carries no delta or radicand")
        else:
            if self.delta is None or scalar_sign(self.delta) <= 0:
                raise ValueError(f"domain {self.kind} needs delta > 0")
            if self.kind == "Q":
                if self.d is not None:
                    raise ValueError("domain Q carries no radicand")
                if isinstance(self.delta, QuadExt):
                    raise ValueError("domain Q needs a rational delta")
            if self.d is not None:
                _check_radicand(self.d)
                if isinstance(self.delta, QuadExt) and self.delta.d != self.d:
                    raise ValueError(f"mixed radicands sqrt({self.d}) and sqrt({self.delta.d})")

    @property
    def base(self) -> str:
        """The carrier set: "N", "Q0" or "R0"."""
        return {"N": "N", "Q": "Q0", "R": "R0"}[self.kind]

    @property
    def strict_margin(self) -> Scalar:
        """The margin of the strict order: delta, or 1 over N."""
        return Fraction(1) if self.kind == "N" else self.delta

    def __str__(self):
        if self.kind == "N":
            return "N"
        if self.kind == "Q":
            return f"Q(delta={format_scalar(self.delta)})"
        root = f", sqrt={self.d}" if self.d is not None else ""
        return f"R(delta={format_scalar(self.delta)}{root})"


def domain_n() -> DomainTag:
    return DomainTag("N")


def domain_q(delta) -> DomainTag:
    return DomainTag("Q", as_scalar(delta))


def domain_r(delta, d: int | None = None) -> DomainTag:
    return DomainTag("R", as_scalar(delta), d)
