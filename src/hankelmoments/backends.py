"""Scalar backends.

Every numeric value in the library lives in one of three scalar backends:

* ``rational``        -- exact ``fractions.Fraction`` arithmetic, no rounding;
* ``bigfloat:<bits>`` -- mpmath floats at a fixed binary precision (>= 64);
* ``f64``             -- machine doubles.

A :class:`Backend` instance is threaded through all constructions so that a
computation is deterministic given (inputs, backend).  Big-float arithmetic
must run inside ``with backend.context():`` so the mpmath working precision
matches the backend.

The inner loops that step scalar by scalar have one exact accumulator,
:func:`exact_sum`: it adds ``(numerator, denominator)`` int pairs over a
running least common denominator and builds one reduced ``Fraction`` from
the unreduced integer accumulation, instead of a reduction per operation.
The reproducing kernel of :mod:`.extremal` passes it its terms directly;
the other loops (the monic polynomial values, the readers of a float
factor) run on two scalar kernels, :func:`dot` and :func:`three_term`,
whose exact branch is one ``exact_sum`` of their terms.  On any other
operand type the two kernels evaluate the in-order expression an
accumulate loop would, with the same operands, so float results keep
their bits.  The loops that step whole rows (the Chebyshev recurrence and
the triangular inverse of :mod:`.triangular`, the exact Hankel row action
and shift series of :mod:`.hankel`, xi, its identity and the weights of an
exact factor) go one level lower: :func:`integer_form` writes a row as
Python ints over one common denominator, each row is formed on those ints
and reduced once, and a ``Fraction`` is built only for an entry the caller
gets back.

Numbers cross the JSON boundary by one rule each way.  :func:`parse_number`
reads every number of a config: ``p/q`` and integer strings and JSON
integers become ``Fraction``s, decimal strings floats.  :func:`to_json`
encodes every report: exact numbers as ``p/q`` strings, big floats as
decimal strings with enough digits to round-trip, counts and finite machine
floats as JSON numbers, and non-finite machine floats as the strings
``"inf"``, ``"-inf"`` and ``"nan"``, which strict JSON parsers accept and
:func:`parse_number` reads back.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm

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
        """Coerce a number (int, Fraction, float, mpf) to a native scalar.

        A string raises TypeError: :func:`parse_number` is the one reader of
        number strings.  The rational backend refuses floats: silent
        binary-fraction promotion would launder rounding into "exact"
        results.  An exact value past the f64 range raises
        :class:`PrecisionError` at f64, naming the smallest big float, whose
        exponent does not overflow.
        """
        if self.kind == RATIONAL and type(value) is Fraction:  # immutable: no copy needed
            return value
        if isinstance(value, str):
            raise TypeError(
                f"convert takes a number, not the string {value!r}; "
                "read it with backends.parse_number"
            )
        if self.kind == RATIONAL:
            if isinstance(value, (float, mpf)):
                raise BackendError(
                    "rational backend does not accept float input; "
                    "pass an int or a Fraction (a 'p/q' string in a config)"
                )
            return Fraction(value)
        if self.kind == F64:
            try:
                return float(value)
            except OverflowError:
                raise PrecisionError(
                    f"an exact value past the f64 range; use {BIGFLOAT}:{MIN_BIGFLOAT_BITS}"
                ) from None
        with self.context():
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

    def zero(self):
        return self.convert(0)

    def one(self):
        return self.convert(1)


F64_BACKEND = Backend(F64)
RATIONAL_BACKEND = Backend(RATIONAL)


def bigfloat(bits: int) -> Backend:
    return Backend(BIGFLOAT, bits)


# -- scalar formatting -------------------------------------------------------


def parse_number(value):
    """Read a number from a config: the one rule for every config value.

    ``"p/q"`` and integer strings, and JSON integers, become ``Fraction``s,
    and ``"p/0"`` raises ValueError; decimal strings become floats, and one
    that is not zero but rounds to 0.0 (``"1e-400"``) raises ValueError.  Bools and anything else (floats,
    ``Fraction``s, mpf) are returned as given; a JSON number token is
    parsed by ``json`` before it gets here, so one that underflows arrives
    as 0.0 and cannot be told from a zero.
    """
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = map(int, text.split("/", 1))
            if not den:
                raise ValueError(f"{text!r} has a zero denominator")
            return Fraction(num, den)
        try:
            return Fraction(int(text))
        except ValueError:
            number = float(text)
        if number == 0 and Fraction(text) != 0:
            raise ValueError(f"{text!r} underflows to 0.0 as a float")
        return number
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    return value


def scalar_to_json(x):
    """Encode a scalar for JSON: rationals as ``p/q`` strings, finite floats
    as-is, and inf, -inf and nan as the strings ``"inf"``, ``"-inf"`` and
    ``"nan"``.

    Big floats are decimal strings with enough digits to round-trip their
    mantissa.
    """
    if isinstance(x, float):
        return x if isfinite(x) else str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return f"{x.numerator}"
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, mpf):
        # enough decimal digits to round-trip the stored mantissa
        bits = max(x._mpf_[3] if isinstance(x._mpf_[3], int) else 53, 53)
        digits = int(bits * 0.30103) + 3
        return mpmath.nstr(x, digits, strip_zeros=True)
    raise TypeError(f"cannot serialize scalar of type {type(x).__name__}")


def to_json(obj):
    """Encode a report value for JSON; every report is written through it.

    A dataclass becomes an object of its fields, a list or tuple a list and
    a dict a dict of encoded values.  ``Fraction``, float and mpf scalars
    go through :func:`scalar_to_json`; ints, strings, bools and None pass
    as they are.
    """
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, (float, Fraction, mpf)):
        return scalar_to_json(obj)
    if isinstance(obj, (list, tuple)):
        return [to_json(x) for x in obj]
    if isinstance(obj, dict):
        return {key: to_json(value) for key, value in obj.items()}
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def to_float(x) -> float:
    """Lossy conversion to a machine double (for display and f64 views).

    The exact-type test is deliberate: ``isinstance(x, Fraction)`` goes
    through ``ABCMeta`` and costs several times the conversion itself.
    Anything else, a ``Fraction`` subclass included, takes ``float(x)``,
    which for a rational is the same correctly rounded ``int / int``.
    """
    if type(x) is Fraction:
        return x.numerator / x.denominator
    return float(x)


# -- small vector helpers (backend-generic) -----------------------------------


def sup_norm(v):
    m = None
    for a in v:
        x = abs(a)
        if m is None or x > m:
            m = x
    return m if m is not None else 0


# -- exact inner-loop kernels ---------------------------------------------------

_EXACT_TYPES = frozenset((Fraction, int))


def is_exact(values) -> bool:
    """Whether every value is a ``Fraction`` or an ``int`` (exact types only,
    so a subclass or a float takes the in-order path of the caller)."""
    return _EXACT_TYPES.issuperset(map(type, values))


def integer_form(values):
    """``(numerators, den)``: Fractions or ints as ints over the least common
    multiple ``den`` of their denominators (1 for no values), so that
    ``values[i] == numerators[i] / den``."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def exact_sum(terms):
    """sum_i n_i / d_i over ``(n_i, d_i)`` int pairs (every d_i nonzero), in
    order of i: the one exact accumulator of the library.

    The numerators are summed over a running least common denominator,
    exactly zero terms skipped, and one reduced ``Fraction`` is built at
    the end (``Fraction(0)`` when there are no terms).
    """
    num, den = 0, 1
    for a, b in terms:
        if not a:
            continue
        if b == den:
            num += a
        else:
            g = gcd(den, b)
            num = num * (b // g) + a * (den // g)
            den = den // g * b
    return Fraction(num, den)


def dot(xs, ys):
    """sum_i x_i y_i over two sequences of equal length, in order of i.

    Fraction and int operands: one :func:`exact_sum` of the products'
    integer numerators and denominators.  Other operands:
    ``0 + x_0 y_0 + x_1 y_1 + ...``, left to right.
    """
    if is_exact(xs) and is_exact(ys):
        return exact_sum([(x.numerator * y.numerator, x.denominator * y.denominator)
                          for x, y in zip(xs, ys)])
    acc = 0
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def three_term(a, alpha, b, beta, c):
    """a - alpha b - beta c, the step of a three-term recurrence.

    Fraction and int operands: one :func:`exact_sum` of the three terms.
    Other operands: ``a - alpha * b - beta * c`` as written.
    """
    if (type(a) in _EXACT_TYPES and type(alpha) in _EXACT_TYPES
            and type(b) in _EXACT_TYPES and type(beta) in _EXACT_TYPES
            and type(c) in _EXACT_TYPES):
        return exact_sum((
            (a.numerator, a.denominator),
            (-alpha.numerator * b.numerator, alpha.denominator * b.denominator),
            (-beta.numerator * c.numerator, beta.denominator * c.denominator),
        ))
    return a - alpha * b - beta * c
