"""Scalar backends.

Every numeric value in the library lives in one of three scalar backends:

* ``rational``        -- exact ``fractions.Fraction`` arithmetic, no rounding;
* ``bigfloat:<bits>`` -- mpmath floats at a fixed binary precision (>= 64);
* ``f64``             -- machine doubles.

A :class:`Backend` instance is threaded through all constructions so that a
computation is deterministic given (inputs, backend).  Big-float arithmetic
must run inside ``with backend.context():`` so the mpmath working precision
matches the backend.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

RATIONAL = "rational"
BIGFLOAT = "bigfloat"
F64 = "f64"

MIN_BIGFLOAT_BITS = 64


class HankelError(Exception):
    """Base class for library errors."""


class BackendError(HankelError):
    """An operation was asked to run under a backend it does not support."""


class PrecisionError(HankelError):
    """A value or factorization exceeded what the backend can represent.

    The message names the backend that would make the computation feasible.
    """


@dataclass(frozen=True)
class Backend:
    kind: str
    precision: int | None = None  # bits, bigfloat only

    def __post_init__(self):
        if self.kind not in (RATIONAL, BIGFLOAT, F64):
            raise BackendError(f"unknown backend kind {self.kind!r}")
        if self.kind == BIGFLOAT:
            if self.precision is None or self.precision < MIN_BIGFLOAT_BITS:
                raise BackendError(
                    f"bigfloat precision must be >= {MIN_BIGFLOAT_BITS} bits, "
                    f"got {self.precision!r}"
                )
        elif self.precision is not None:
            raise BackendError(f"backend {self.kind!r} takes no precision")

    # -- identification -----------------------------------------------------

    @staticmethod
    def parse(tag: str) -> "Backend":
        """Parse a backend tag: ``rational``, ``f64`` or ``bigfloat:<bits>``."""
        if tag == RATIONAL:
            return Backend(RATIONAL)
        if tag == F64:
            return Backend(F64)
        if tag.startswith(BIGFLOAT + ":"):
            try:
                bits = int(tag.split(":", 1)[1])
            except ValueError:
                raise BackendError(f"malformed backend tag {tag!r}") from None
            return Backend(BIGFLOAT, bits)
        raise BackendError(f"malformed backend tag {tag!r}")

    def tag(self) -> str:
        if self.kind == BIGFLOAT:
            return f"{BIGFLOAT}:{self.precision}"
        return self.kind

    # -- arithmetic helpers --------------------------------------------------

    def context(self):
        """Context manager pinning the mpmath working precision (no-op otherwise)."""
        if self.kind == BIGFLOAT:
            return mpmath.workprec(self.precision)
        return contextlib.nullcontext()

    def convert(self, value):
        """Coerce ``value`` (int, Fraction, str ``p/q``, float) to a native scalar.

        The rational backend refuses floats: silent binary-fraction promotion
        would launder rounding into "exact" results.  Strings are parsed at
        the backend's own precision (never through an f64 detour).
        """
        if self.kind == RATIONAL:
            if isinstance(value, (float, mpf)):
                raise BackendError(
                    "rational backend does not accept float input; "
                    "pass an int, Fraction or 'p/q' string"
                )
            return Fraction(value)
        if self.kind == F64:
            if isinstance(value, str):
                value = parse_rational_string(value)
            return float(value)
        with self.context():
            if isinstance(value, str):
                if "/" in value:
                    num, den = value.split("/", 1)
                    return mpf(int(num)) / mpf(int(den))
                return mpf(value)
            if isinstance(value, Fraction):
                return mpf(value.numerator) / mpf(value.denominator)
            return mpf(value)

    def sqrt(self, x):
        if self.kind == RATIONAL:
            raise BackendError("square roots are not rational; use a float backend")
        if self.kind == F64:
            return float(x) ** 0.5
        with self.context():
            return mpmath.sqrt(x)

    def exp(self, x):
        if self.kind == RATIONAL:
            raise BackendError("exp is not rational; use a float backend")
        if self.kind == F64:
            import math

            return math.exp(x)
        with self.context():
            return mpmath.exp(x)

    def power(self, base, exponent):
        """``base ** exponent`` with rational exactness when possible."""
        if self.kind == RATIONAL:
            if isinstance(exponent, int) or (
                isinstance(exponent, Fraction) and exponent.denominator == 1
            ):
                return Fraction(base) ** int(exponent)
            raise BackendError("non-integer powers are not rational")
        if self.kind == F64:
            return float(base) ** float(exponent)
        with self.context():
            return mpmath.power(self.convert(base), self.convert(exponent))

    def zero(self):
        return self.convert(0)

    def one(self):
        return self.convert(1)


F64_BACKEND = Backend(F64)
RATIONAL_BACKEND = Backend(RATIONAL)


def bigfloat(bits: int) -> Backend:
    return Backend(BIGFLOAT, bits)


# -- scalar formatting -------------------------------------------------------


def parse_rational_string(text: str):
    """Parse ``p/q`` or integer/decimal strings; returns Fraction or float."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    try:
        return int(text)
    except ValueError:
        return float(text)


def scalar_to_json(x):
    """Encode a scalar for JSON: rationals as ``p/q`` strings, floats as-is."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return f"{x.numerator}"
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return x
    if isinstance(x, mpf):
        # enough decimal digits to round-trip the stored mantissa
        bits = max(x._mpf_[3] if isinstance(x._mpf_[3], int) else 53, 53)
        digits = int(bits * 0.30103) + 3
        return mpmath.nstr(x, digits, strip_zeros=True)
    raise TypeError(f"cannot serialize scalar of type {type(x).__name__}")


def to_float(x) -> float:
    """Lossy conversion to a machine double (for display and f64 views)."""
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    return float(x)


# -- small vector helpers (backend-generic) -----------------------------------


def norm_sq(v):
    acc = None
    for a in v:
        term = a * a
        acc = term if acc is None else acc + term
    return acc if acc is not None else 0


def sup_norm(v):
    m = None
    for a in v:
        x = abs(a)
        if m is None or x > m:
            m = x
    return m if m is not None else 0
