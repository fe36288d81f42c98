"""Moment sequences of the measure families used throughout the library.

Each family knows its moments in closed form, so every value is independently
checkable and exact whenever the data is rational.  Moments walked in index
order along a sequence are linear-time: the sequence hands its cached moments
to the family, and Gegenbauer takes one ratio step from m_{n-2} instead of
the O(n) product, with the same values.  A family may also build a whole f64
block in one call (:meth:`MomentFamily.f64_moments`), with the bits of its
per-moment values; a sequence keeps each block it has read.  Asymptotic
classification (decay, boundedness, summability of even moments) is computed
analytically from the family's known tail behavior; explicitly tabulated
sequences only ever get window-based heuristic verdicts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from .backends import (
    F64,
    F64_BACKEND,
    MIN_BIGFLOAT_BITS,
    RATIONAL,
    RATIONAL_BACKEND,
    Backend,
    BackendError,
    HankelError,
    PrecisionError,
    integer_form,
    parse_number,
    to_float,
)
from .measures import DiscreteMeasure
from .triangular import ldl_positive_definite_limit


class MissingMomentError(HankelError, LookupError):
    """An explicit sequence was asked for an index beyond its stored length."""


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class MomentFamily:
    """Base class: ``moment(n, backend, known)`` in closed form, optionally
    a whole f64 block at once (:meth:`f64_moments`), and what is known of
    the measure: :meth:`tail_class`, :meth:`edge_exponent`,
    :meth:`finite_data` and :meth:`positive_definite_limit`."""

    name: str = "?"

    def moment(self, n: int, backend: Backend, known: Mapping | None = None):
        """m_n in ``backend``.

        ``known`` is read-only: the moments (index -> value) this sequence has
        already computed in this backend.  A family may step from them instead
        of evaluating its closed form, but must return the same value; without
        ``known`` the closed form is evaluated directly.
        """
        raise NotImplementedError

    def f64_moments(self, count: int, step: int) -> np.ndarray | None:
        """m_0, m_step, ..., m_{(count-1) step} as an f64 array, each entry
        with the bits of ``moment(n, F64_BACKEND)``, or None where the family
        builds no block (:meth:`MomentSequence.float_array` then reads the
        moments one at a time)."""
        return None

    def tail_class(self) -> dict | None:
        """Analytic (is_o1, is_O_1_over_n, is_ell1) verdicts, or None if unknown."""
        return None

    def edge_exponent(self):
        """``a`` for a measure on [-1, 1] whose density is comparable to
        (1 - |x|)^a at each endpoint it charges, or None if unknown; the
        domain rule of :func:`.hankel.power_decay_domain` reads it."""
        return None

    def finite_data(self) -> "MomentFamily | None":
        """None for a measure with infinite support; finite data returns
        itself with every value exact (a float or mpf as its binary
        fraction), which the rational sibling reads."""
        return None

    def positive_definite_limit(self, n: int) -> int:
        """Largest M <= n whose exact leading M x M block is positive
        definite: n for a positive measure with infinite support, every
        truncation of which is positive definite."""
        return n

    def params_json(self) -> dict:
        return {}


def _require_index(n: int):
    if n < 0:
        raise ValueError(f"moment index must be >= 0, got {n}")


def _f64_overflow(name: str, n: int) -> PrecisionError:
    """The error of an f64 moment m_n past the f64 range; an mpf exponent
    does not overflow, so the smallest big float serves."""
    return PrecisionError(f"{name} moment m_{n} overflows f64; use bigfloat:{MIN_BIGFLOAT_BITS}")


def _convert_moment(family, n, backend, value):
    """``value``, the family's exact m_n, in ``backend``, with the moment
    named where it is past the f64 range."""
    try:
        return backend.convert(value)
    except PrecisionError:
        raise _f64_overflow(family.name, n) from None


def _exact(value) -> Fraction:
    """``value`` as a Fraction, a float or mpf as its binary fraction."""
    if isinstance(value, mpmath.mpf):
        return Fraction(*mpmath.libmp.to_rational(value._mpf_))
    return Fraction(value)


@dataclass(frozen=True)
class PowerLog(MomentFamily):
    """m_n = 1/(n+1)^c for c > 0; c = 1 gives the Hilbert matrix."""

    c: object

    name = "power_log"

    def __post_init__(self):
        if not to_float(self.c) > 0:
            raise ValueError("power_log requires c > 0")

    def moment(self, n, backend, known=None):
        _require_index(n)
        c = self.c
        if backend.kind == RATIONAL:
            if not (isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)):
                raise BackendError(
                    "power_log moments are irrational for non-integer c; "
                    "use the f64 or bigfloat backend"
                )
            return Fraction(1, (n + 1) ** int(c))
        if backend.kind == F64:
            # numpy's pow, as in f64_moments: Python's differs from it in the
            # last bit at a few percent of the indices
            return float(np.power(float(n + 1), -float(c)))
        with backend.context():
            return mpmath.power(n + 1, -backend.convert(c))

    def f64_moments(self, count, step):
        # one vectorized pow, whose doubles the scalar moment repeats
        return (np.arange(0, count * step, step, dtype=float) + 1.0) ** -to_float(self.c)

    def tail_class(self):
        c = to_float(self.c)
        return {"is_o1": True, "is_O_1_over_n": c >= 1, "is_ell1": c > 1}

    def edge_exponent(self):
        # d mu_c = (-log x)^(c-1) dx / Gamma(c) on (0, 1), and -log x ~ 1 - x at x = 1
        return self.c - 1

    def params_json(self):
        return {"c": self.c}


_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Gegenbauer(MomentFamily):
    """Even moments (1/2)_k / (lam+1)_k of the weight (1-x^2)^(lam-1/2) on (-1,1)."""

    lam: object

    name = "gegenbauer"

    def __post_init__(self):
        if not to_float(self.lam) > -0.5:
            raise ValueError("gegenbauer requires lam > -1/2")

    def moment(self, n, backend, known=None):
        _require_index(n)
        if n % 2:
            return backend.zero()
        k = n // 2
        # with m_{n-2} known, only the product's last factor (i = k - 1) is
        # applied, with its operands and order, so the value is the same
        prev = known.get(n - 2) if known else None
        with backend.context():
            lam = backend.convert(self.lam)
            half = backend.convert(_HALF)
            value, first = backend.one(), 0
            if prev is not None:
                value, first = prev, k - 1
            for i in range(first, k):
                value = value * (half + i) / (lam + 1 + i)
            return value

    def f64_moments(self, count, step):
        # the loop of moment on plain floats, with its operands and order:
        # one ratio step per even index up to the last one the block reads
        lam = F64_BACKEND.convert(self.lam)
        half = F64_BACKEND.convert(_HALF)
        value = 1.0
        evens = [value]
        for i in range((count - 1) * step // 2):
            value = value * (half + i) / (lam + 1 + i)
            evens.append(value)
        return np.array([0.0 if n % 2 else evens[n // 2] for n in range(0, count * step, step)])

    def tail_class(self):
        lam = to_float(self.lam)
        return {"is_o1": True, "is_O_1_over_n": lam >= 0.5, "is_ell1": lam > 0.5}

    def edge_exponent(self):
        return self.lam - _HALF

    def params_json(self):
        return {"lambda": self.lam}


@dataclass(frozen=True)
class Gaussian(MomentFamily):
    """Standard normal moments: m_{2k} = (2k-1)!!, odd moments zero."""

    name = "gaussian"

    def moment(self, n, backend, known=None):
        _require_index(n)
        if n % 2:
            return backend.zero()
        value = 1
        for i in range(1, n // 2 + 1):
            value *= 2 * i - 1
        return _convert_moment(self, n, backend, value)

    def tail_class(self):
        return {"is_o1": False, "is_O_1_over_n": False, "is_ell1": False}


_EXP_GUARD_BITS = 20  # beyond the argument's integer bits


@dataclass(frozen=True)
class LogNormal(MomentFamily):
    """m_n = exp(n^2 sigma^2 / 2); the classical indeterminate example.

    Every float backend takes one rule: exp of the exact argument
    x = n^2 sigma^2 / 2 (sigma at its exact binary or rational value) at
    w = p + L + ``_EXP_GUARD_BITS`` bits, x < 2^L, rounded once to the
    backend's p bits (53 for f64).  Forming x at w bits moves exp(x) by at
    most 2 x 2^-w < 2^-(p+19), relative, so each moment lies within
    (1 + 2^-17) 2^-p of its exact value.  An f64 moment past the f64 range
    (n > 37/sigma or so) raises :class:`PrecisionError` naming a big-float
    backend.
    """

    sigma: object

    name = "log_normal"

    def __post_init__(self):
        if not to_float(self.sigma) > 0:
            raise ValueError("log_normal requires sigma > 0")

    @cached_property
    def _half_sigma_sq(self) -> Fraction:
        return _exact(self.sigma) ** 2 / 2

    def moment(self, n, backend, known=None):
        _require_index(n)
        if backend.kind == RATIONAL:
            raise BackendError(
                "log_normal moments are transcendental; use f64 or bigfloat"
            )
        arg = n * n * self._half_sigma_sq
        bits = 53 if backend.kind == F64 else backend.precision
        with mpmath.workprec(bits + int(arg).bit_length() + _EXP_GUARD_BITS):
            value = mpmath.exp(mpmath.mpf(arg.numerator) / arg.denominator)
        if backend.kind != F64:
            with backend.context():
                return +value
        value = float(value)  # inf past the range, with no error
        if value == math.inf:
            raise _f64_overflow(self.name, n)
        return value

    def tail_class(self):
        return {"is_o1": False, "is_O_1_over_n": False, "is_ell1": False}

    def params_json(self):
        return {"sigma": self.sigma}


@dataclass(frozen=True)
class Discrete(MomentFamily):
    """Moments of a finitely supported measure."""

    measure: DiscreteMeasure

    name = "discrete"

    @cached_property
    def _integer_form(self):
        """(a, c, B, W): points a_i / B and weights c_i / W over common denominators.

        Converted through the rational backend once per measure, so float
        data raises :class:`BackendError` as a per-moment conversion would.
        """
        a, b = integer_form([RATIONAL_BACKEND.convert(x) for x in self.measure.points])
        c, w = integer_form([RATIONAL_BACKEND.convert(c) for c in self.measure.weights])
        return a, c, b, w

    def moment(self, n, backend, known=None):
        _require_index(n)
        if backend.kind == RATIONAL:
            # an integer power sum over one common denominator, reduced once
            a, c, b, w = self._integer_form
            return Fraction(sum(ci * ai**n for ai, ci in zip(a, c)), w * b**n)
        points = [backend.convert(x) for x in self.measure.points]
        weights = [backend.convert(w) for w in self.measure.weights]
        with backend.context():
            total = backend.zero()
            for x, c in zip(points, weights):
                try:
                    total = total + c * x**n
                except OverflowError:  # a float power past the f64 range
                    raise _f64_overflow(self.name, n) from None
            return total

    def f64_moments(self, count, step):
        # the sum of moment, in point order with Python's pow, on points and
        # weights converted once; numpy adds the per-point terms entrywise,
        # one IEEE addition each, as the scalar loop does.  A power past the
        # f64 range builds no block: moment names the first one it meets.
        indices = range(0, count * step, step)
        total = np.zeros(count)
        for x, c in zip(self.measure.points, self.measure.weights):
            x, c = F64_BACKEND.convert(x), F64_BACKEND.convert(c)
            try:
                total = total + np.array([c * x**n for n in indices], dtype=float)
            except OverflowError:
                return None
        return total

    def tail_class(self):
        r = max(abs(to_float(x)) for x in self.measure.points)
        inside = r < 1
        return {"is_o1": inside, "is_O_1_over_n": inside, "is_ell1": inside}

    def finite_data(self):
        exact = [tuple(map(_exact, xs)) for xs in (self.measure.points, self.measure.weights)]
        return Discrete(DiscreteMeasure(*exact))

    def positive_definite_limit(self, n):
        # H_N = V^t W V with V the Vandermonde matrix of the distinct points
        # and W the positive weights: positive definite iff N <= the size
        return min(n, self.measure.size)

    def params_json(self):
        return self.measure.to_json()


PD_FIRST_BLOCK = 8  # leading block size an explicit sequence's limit tries first


@dataclass(frozen=True)
class Explicit(MomentFamily):
    """A tabulated moment sequence; classification is heuristic only."""

    values: tuple

    name = "explicit"

    def __post_init__(self):
        if not self.values:
            raise ValueError("explicit family needs at least one moment")

    @staticmethod
    def from_list(values) -> "Explicit":
        return Explicit(tuple(parse_number(v) for v in values))

    def moment(self, n, backend, known=None):
        _require_index(n)
        if n >= len(self.values):
            raise MissingMomentError(
                f"explicit sequence stores {len(self.values)} moments, "
                f"index {n} requested"
            )
        return _convert_moment(self, n, backend, self.values[n])

    def finite_data(self):
        return Explicit(tuple(map(_exact, self.values)))

    def positive_definite_limit(self, n):
        """The rational LDL of the exact values on leading blocks of 8, 16,
        ... up to n, stopping at the first that is not positive definite:
        the blocks nest, so the limit is the whole block's, and no value
        past that block is read."""
        exact = self.finite_data()
        size = min(PD_FIRST_BLOCK, n)
        while True:
            block = [exact.moment(i, RATIONAL_BACKEND) for i in range(2 * size - 1)]
            limit = ldl_positive_definite_limit(block, size, Fraction(0))
            if limit < size or size == n:
                return limit
            size = min(2 * size, n)

    def params_json(self):
        return {"values": self.values}


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


class MomentSequence:
    """A family bound to a backend, with an append-only cache.

    The family is one of the library's own, each a positive measure with
    infinite support or exact finite data (:meth:`MomentFamily.finite_data`);
    derived sequences, such as the damped moments m_n - m_{n+2} of the shift
    series, are formed by their callers from these moments.
    :meth:`with_backend` keeps one sibling sequence per backend for the life
    of the sequence, in a registry the siblings share, so every caller that
    asks for the same family at the same precision reads one cache.
    """

    def __init__(self, family: MomentFamily, backend: Backend):
        self.family = family
        self.backend = backend
        self._cache: dict[int, object] = {}
        self._blocks: dict[tuple[int, int], np.ndarray] = {}  # f64_moments, read-only
        self._siblings: dict[Backend, MomentSequence] = {backend: self}

    def __repr__(self):
        return f"MomentSequence({self.family.name}, {self.backend.tag()})"

    def moment(self, n: int):
        try:
            return self._cache[n]
        except KeyError:
            pass
        value = self._cache[n] = self.family.moment(n, self.backend, self._cache)
        return value

    def moments(self, count: int) -> list:
        return [self.moment(n) for n in range(count)]

    def float_array(self, count: int, step: int = 1) -> np.ndarray:
        """m_0, m_step, ..., m_{(count-1) step} as a dense f64 array (fast
        numeric paths).

        At f64 the family builds the block in one call
        (:meth:`MomentFamily.f64_moments`), with the bits of its ``moment``;
        the sequence keeps it per (count, step), read-only, and returns the
        same array on every later call.  A family without a block, or any
        other backend, reads the moments in index order and rounds each to
        f64 (a Fraction correctly; one past the f64 range raises
        :class:`PrecisionError`), into a fresh array.
        """
        block = self._blocks.get((count, step))
        if block is None and self.backend.kind == F64:
            block = self.family.f64_moments(count, step)
            if block is not None:
                block.flags.writeable = False
                self._blocks[count, step] = block
        if block is None:
            moments = map(self.moment, range(0, count * step, step))
            return np.fromiter(map(F64_BACKEND.convert, moments), float, count)
        return block

    def with_backend(self, backend: Backend) -> "MomentSequence":
        """The sibling sequence in ``backend``, made on first use and then kept;
        that of finite data at ``rational`` reads its exact values."""
        sibling = self._siblings.get(backend)
        if sibling is None:
            exact = self.family.finite_data() if backend.kind == RATIONAL else None
            sibling = self._siblings[backend] = MomentSequence(exact or self.family, backend)
            sibling._siblings = self._siblings
        return sibling


def hankel_rows(ms: MomentSequence, n: int) -> list[list]:
    """The N x N truncation (m_{k+l}) as row lists, from one moment block."""
    block = ms.moments(2 * n - 1)
    return [block[k : k + n] for k in range(n)]


def partial_trace(ms: MomentSequence, terms: int):
    """m_0 + m_2 + ... + m_{2(terms-1)}, summed in order in the backend.

    Under f64 the even moments are read as one block and summed left to
    right in a plain loop (``sum`` compensates from Python 3.12, ``np.sum``
    is pairwise), so the result has the bits of the per-moment sum.
    """
    if ms.backend.kind == F64:
        acc = 0.0
        for value in ms.float_array(terms, step=2).tolist():
            acc += value
        return acc
    with ms.backend.context():
        acc = ms.backend.zero()
        for k in range(terms):
            acc = acc + ms.moment(2 * k)
        return acc


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """A yes/no/inconclusive judgement plus how it was reached."""

    value: bool | None
    basis: str  # "analytic" or "heuristic"
    evidence: dict = field(default_factory=dict)

    def __bool__(self):
        return bool(self.value)


@dataclass(frozen=True)
class Classification:
    positive_definite_up_to: int
    is_o1: Verdict
    is_O_1_over_n: Verdict
    is_ell1: Verdict
    trace_partial: object
    trace_terms: int


HEURISTIC_WINDOW = 64  # moments read as evidence for a tabulated sequence


def _heuristic_verdicts(ms: MomentSequence) -> dict[str, Verdict]:
    """Window-based evidence for tabulated sequences.  Never asserts a limit."""
    values = []
    for n in range(HEURISTIC_WINDOW):
        try:
            values.append(to_float(ms.moment(n)))
        except MissingMomentError:
            break
    evens = values[::2]
    if len(evens) < 4:
        unknown = Verdict(None, "heuristic", {"window": len(values)})
        return {"is_o1": unknown, "is_O_1_over_n": unknown, "is_ell1": unknown}
    half = len(evens) // 2
    head = sum(abs(v) for v in evens[:half]) / half
    tail = sum(abs(v) for v in evens[half:]) / (len(evens) - half)
    o1 = tail < 0.5 * head if head > 0 else True
    sup_n_mn = max((n * abs(v) for n, v in enumerate(values)), default=0.0)
    tail_sup = max(
        ((n + 1) * abs(v) for n, v in enumerate(values) if n >= len(values) // 2),
        default=0.0,
    )
    head_sup = max(
        ((n + 1) * abs(v) for n, v in enumerate(values) if n < len(values) // 2),
        default=0.0,
    )
    big_o = o1 and tail_sup <= 2 * max(head_sup, 1e-300)
    partial = 0.0
    partials = []
    for v in evens:
        partial += v
        partials.append(partial)
    half = len(partials) // 2
    ell1 = big_o and partials[-1] - partials[half] < 0.1 * max(partials[half], 1e-300)
    # enforce verdict monotonicity: ell1 => O(1/n) => o(1)
    big_o = big_o or ell1
    o1 = o1 or big_o
    window_info = {"window": len(values)}
    return {
        "is_o1": Verdict(o1, "heuristic", window_info),
        "is_O_1_over_n": Verdict(
            big_o, "heuristic", {**window_info, "sup_n_mn": sup_n_mn}
        ),
        "is_ell1": Verdict(
            ell1,
            "heuristic",
            {**window_info, "partial_sums_tail": partials[-1] - partials[half]},
        ),
    }


def classify(
    ms: MomentSequence,
    n: int,
    *,
    trace_terms: int | None = None,
) -> Classification:
    """Positive definiteness up to ``n`` plus decay/summability verdicts.

    Closed-form families are classified analytically from their known tails;
    explicit sequences get heuristic verdicts over the evidence window.
    Positive definiteness is the family's exact answer
    (:meth:`MomentFamily.positive_definite_limit`) at every backend, up to
    the largest leading block whose moments the backend can read: m_0 ..
    m_{2n-2} are read in order up to the first one that is missing or out
    of range, so an explicit sequence is probed as far as its values go and
    an f64 log-normal one as far as its moments stay finite.  A family the
    backend cannot represent at all (log-normal, or power-log with an
    exponent that is not an integer, at ``rational``) raises the
    :class:`BackendError` of its m_0.
    """
    if n < 2:
        raise ValueError("classification needs a truncation of at least 2")
    analytic = ms.family.tail_class()
    if analytic is not None:
        verdicts = {
            key: Verdict(val, "analytic", {"family": ms.family.name})
            for key, val in analytic.items()
        }
    else:
        verdicts = _heuristic_verdicts(ms)

    # the largest leading block whose moments this backend can read
    readable = 0
    try:
        for j in range(2 * n - 1):
            ms.moment(j)
            readable += 1
    except (PrecisionError, MissingMomentError):
        pass
    pd_up_to = ms.family.positive_definite_limit((readable + 1) // 2)

    terms = trace_terms if trace_terms is not None else n
    trace = None
    try:
        trace = partial_trace(ms, terms)
    except PrecisionError:
        trace = float("inf")
    except MissingMomentError:
        trace = None

    return Classification(
        positive_definite_up_to=pd_up_to,
        is_o1=verdicts["is_o1"],
        is_O_1_over_n=verdicts["is_O_1_over_n"],
        is_ell1=verdicts["is_ell1"],
        trace_partial=trace,
        trace_terms=terms,
    )
