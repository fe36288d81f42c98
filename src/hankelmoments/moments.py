"""Moment sequences of the measure families used throughout the library.

Each family knows its moments in closed form, so every value is independently
checkable and exact whenever the data is rational.  Moments walked in index
order along a sequence are linear-time: the sequence hands its cached moments
to the family, and Gegenbauer takes one ratio step from m_{n-2} instead of
the O(n) product, with the same values.  Asymptotic classification
(decay, boundedness, summability of even moments) is computed analytically
from the family's known tail behavior; explicitly tabulated sequences only
ever get window-based heuristic verdicts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .backends import (
    BIGFLOAT,
    F64,
    RATIONAL,
    Backend,
    BackendError,
    HankelError,
    PrecisionError,
    parse_rational_string,
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
    """Base class; subclasses provide ``moment(n, backend, known)`` in closed form."""

    name: str = "?"

    def moment(self, n: int, backend: Backend, known: Mapping | None = None):
        """m_n in ``backend``.

        ``known`` is read-only: the moments (index -> value) this sequence has
        already computed in this backend.  A family may step from them instead
        of evaluating its closed form, but must return the same value; without
        ``known`` the closed form is evaluated directly.
        """
        raise NotImplementedError

    def tail_class(self) -> dict | None:
        """Analytic (is_o1, is_O_1_over_n, is_ell1) verdicts, or None if unknown."""
        return None

    def check_truncation(self, backend: Backend, n: int) -> None:
        """Hook for families that need a better backend at a given size."""

    def params_json(self) -> dict:
        return {}


def _require_index(n: int):
    if n < 0:
        raise ValueError(f"moment index must be >= 0, got {n}")


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
        return backend.power(n + 1, -backend.convert(c))

    def tail_class(self):
        c = to_float(self.c)
        return {"is_o1": True, "is_O_1_over_n": c >= 1, "is_ell1": c > 1}

    def params_json(self):
        return {"c": self.c}


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
        if backend.kind == RATIONAL:
            if isinstance(self.lam, float):
                raise BackendError(
                    "gegenbauer with float lam is not rational; "
                    "pass a Fraction or use a float backend"
                )
            lam = Fraction(self.lam)
            if prev is not None:
                i = k - 1
                return prev * (Fraction(1, 2) + i) / (lam + 1 + i)
            num = Fraction(1)
            den = Fraction(1)
            for i in range(k):
                num *= Fraction(1, 2) + i
                den *= lam + 1 + i
            return num / den
        with backend.context():
            lam = backend.convert(self.lam)
            value, first = backend.one(), 0
            if prev is not None:
                value, first = prev, k - 1
            for i in range(first, k):
                value = value * (backend.convert(Fraction(1, 2)) + i) / (lam + 1 + i)
            return value

    def tail_class(self):
        lam = to_float(self.lam)
        return {"is_o1": True, "is_O_1_over_n": lam >= 0.5, "is_ell1": lam > 0.5}

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
        return backend.convert(value)

    def tail_class(self):
        return {"is_o1": False, "is_O_1_over_n": False, "is_ell1": False}


@dataclass(frozen=True)
class LogNormal(MomentFamily):
    """m_n = exp(n^2 sigma^2 / 2); the classical indeterminate example."""

    sigma: object

    name = "log_normal"

    # entries outgrow machine range around n ~ 37/sigma; truncations beyond
    # this size are refused at f64 rather than silently degraded
    F64_MAX_TRUNCATION = 8

    def __post_init__(self):
        if not to_float(self.sigma) > 0:
            raise ValueError("log_normal requires sigma > 0")

    def moment(self, n, backend, known=None):
        _require_index(n)
        if backend.kind == RATIONAL:
            raise BackendError(
                "log_normal moments are transcendental; use f64 or bigfloat"
            )
        try:
            return backend.exp(
                backend.convert(n) ** 2 * backend.convert(self.sigma) ** 2 / 2
            )
        except OverflowError:
            raise PrecisionError(
                f"log_normal moment m_{n} overflows f64; use bigfloat:"
                f"{suggest_bits_for_lognormal(n, to_float(self.sigma))}"
            ) from None

    def check_truncation(self, backend, n):
        if backend.kind == F64 and n > self.F64_MAX_TRUNCATION:
            raise PrecisionError(
                f"log_normal truncations beyond N={self.F64_MAX_TRUNCATION} need "
                f"bigfloat:{suggest_bits_for_lognormal(2 * n - 2, to_float(self.sigma))}"
            )

    def tail_class(self):
        return {"is_o1": False, "is_O_1_over_n": False, "is_ell1": False}

    def params_json(self):
        return {"sigma": self.sigma}


def suggest_bits_for_lognormal(n: int, sigma: float) -> int:
    return max(64, int(n * n * sigma * sigma / 2 / math.log(2)) + 4 * n + 64)


@dataclass(frozen=True)
class Discrete(MomentFamily):
    """Moments of a finitely supported measure."""

    measure: DiscreteMeasure

    name = "discrete"

    def moment(self, n, backend, known=None):
        _require_index(n)
        points = [backend.convert(x) for x in self.measure.points]
        weights = [backend.convert(w) for w in self.measure.weights]
        with backend.context():
            total = backend.zero()
            for x, c in zip(points, weights):
                total = total + c * x**n
            return total

    def tail_class(self):
        r = max(abs(to_float(x)) for x in self.measure.points)
        inside = r < 1
        return {"is_o1": inside, "is_O_1_over_n": inside, "is_ell1": inside}

    def params_json(self):
        return self.measure.to_json()


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
        conv = lambda x: parse_rational_string(x) if isinstance(x, str) else x
        return Explicit(tuple(conv(v) for v in values))

    def moment(self, n, backend, known=None):
        _require_index(n)
        if n >= len(self.values):
            raise MissingMomentError(
                f"explicit sequence stores {len(self.values)} moments, "
                f"index {n} requested"
            )
        return backend.convert(self.values[n])

    def params_json(self):
        from .backends import scalar_to_json

        return {"values": [scalar_to_json(v) for v in self.values]}


@dataclass(frozen=True)
class _Difference(MomentFamily):
    """Internal view: n-th moment is base m_n - m_{n+2} (the (1-x^2) dμ measure)."""

    base: "MomentSequence"

    name = "nu_view"

    def moment(self, n, backend, known=None):
        with backend.context():
            return self.base.moment(n) - self.base.moment(n + 2)

    def tail_class(self):
        return self.base.family.tail_class()


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


class MomentSequence:
    """A family bound to a backend, with an append-only cache."""

    def __init__(self, family: MomentFamily, backend: Backend):
        self.family = family
        self.backend = backend
        self._cache: dict[int, object] = {}

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

    def float_array(self, count: int) -> np.ndarray:
        """First ``count`` moments as a dense f64 array (fast numeric paths)."""
        if isinstance(self.family, PowerLog):
            c = to_float(self.family.c)
            return (np.arange(count, dtype=float) + 1.0) ** (-c)
        return np.array([to_float(self.moment(n)) for n in range(count)])

    def nu(self) -> "MomentSequence":
        """The sequence m_n - m_{n+2} (moments after damping by 1 - x^2)."""
        return MomentSequence(_Difference(self), self.backend)

    def with_backend(self, backend: Backend) -> "MomentSequence":
        if backend == self.backend:
            return self
        family = self.family
        if isinstance(family, _Difference):
            return family.base.with_backend(backend).nu()
        return MomentSequence(family, backend)

    def check_truncation(self, n: int) -> None:
        self.family.check_truncation(self.backend, n)


def hankel_rows(ms: MomentSequence, n: int) -> list[list]:
    """The N x N truncation (m_{k+l}) as row lists, from one moment block."""
    block = ms.moments(2 * n - 1)
    return [block[k : k + n] for k in range(n)]


def partial_trace(ms: MomentSequence, terms: int):
    """m_0 + m_2 + ... + m_{2(terms-1)}, summed in order in the backend."""
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

    def to_json(self):
        return {"value": self.value, "basis": self.basis, "evidence": self.evidence}


@dataclass(frozen=True)
class Classification:
    positive_definite_up_to: int
    is_o1: Verdict
    is_O_1_over_n: Verdict
    is_ell1: Verdict
    trace_partial: object
    trace_terms: int

    def to_json(self):
        from .backends import scalar_to_json

        trace = self.trace_partial
        return {
            "positive_definite_up_to": self.positive_definite_up_to,
            "is_o1": self.is_o1.to_json(),
            "is_O_1_over_n": self.is_O_1_over_n.to_json(),
            "is_ell1": self.is_ell1.to_json(),
            "trace_partial": None if trace is None else scalar_to_json(trace),
            "trace_terms": self.trace_terms,
        }


def _heuristic_verdicts(ms: MomentSequence, window: int) -> dict[str, Verdict]:
    """Window-based evidence for tabulated sequences.  Never asserts a limit."""
    try:
        values = [to_float(ms.moment(n)) for n in range(window)]
    except MissingMomentError:
        values = []
        n = 0
        while True:
            try:
                values.append(to_float(ms.moment(n)))
            except MissingMomentError:
                break
            n += 1
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
    heuristic_window: int = 64,
) -> Classification:
    """Positive definiteness up to ``n`` plus decay/summability verdicts.

    Closed-form families are classified analytically from their known tails;
    explicit sequences get heuristic verdicts over the evidence window.
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
        verdicts = _heuristic_verdicts(ms, heuristic_window)

    # largest leading block passing the pivot test under this backend
    n_probe = n
    if isinstance(ms.family, Explicit):
        n_probe = min(n, (len(ms.family.values) + 1) // 2)
    pd_up_to = 0
    try:
        ms.check_truncation(n_probe)
        block = ms.moments(2 * n_probe - 1)
        with ms.backend.context():
            pd_up_to = ldl_positive_definite_limit(block, n_probe, ms.backend.zero())
    except (PrecisionError, BackendError, MissingMomentError, OverflowError):
        pd_up_to = 0

    terms = trace_terms if trace_terms is not None else n
    trace = None
    try:
        trace = partial_trace(ms, terms)
    except (OverflowError, PrecisionError):
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
