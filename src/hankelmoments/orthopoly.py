"""Orthonormal-polynomial transition matrices from Hankel truncations.

``factor`` peels the truncation into ``C = D^{1/2} U`` (unit upper triangular
``U``, positive pivots ``D``) so that ``C^t C`` reproduces the matrix and
``B = C^{-1}`` carries the polynomial coefficients: column ``n`` of ``B``
holds the monomial coefficients of the n-th orthonormal polynomial.  The
factorization is the O(N^2) Chebyshev algorithm of :mod:`.triangular`, which
works on the moment block ``m_0 .. m_{2N-2}`` directly: it yields ``D`` and
``U`` from the mixed moments, then ``U^{-1}`` (the monic polynomials) from
the three-term recurrence.  :func:`recurrence` reads that recurrence off
``U`` and ``D`` in O(N).  Under the rational backend everything stays
square-root-free and exact; identities are checked in that form.

Hankel truncations of bounded-support families are notoriously ill
conditioned (Hilbert-type condition numbers grow like e^{3.5 N}), so float
factorizations run on a precision ladder: machine floats up to a small size,
then big floats.  :meth:`PrecisionPolicy.ladder` is the one list of big-float
precisions that both ``factor`` and the spectral profiles walk: it starts at
dimension- and scale-dependent bits (raised to an explicit big-float
backend's own precision) and doubles while it stays at or below
``retry_cap_bits``; a caller stops at the first rung that succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .backends import (
    BIGFLOAT,
    F64,
    RATIONAL,
    Backend,
    F64_BACKEND,
    bigfloat,
)
from .moments import MomentSequence
from .triangular import (
    PositivityError,
    invert_unit_upper,
    ldl_decompose,
    monic_alpha,
    utdu_product,
)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Constants of the factorization precision ladder."""

    machine_max_n: int = 12
    bits_per_dim: int = 4
    base_margin_bits: int = 64
    retry_cap_bits: int = 65536
    escalate_max_n: int = 64  # spectral profiles refuse big-float work above this

    def ladder_bits(self, ms: MomentSequence, n: int) -> int:
        bits = self.bits_per_dim * n + self.base_margin_bits
        return max(bits + max(0, _max_moment_log2(ms, 2 * n - 1)), 64)

    def ladder(self, ms: MomentSequence, n: int) -> list[int]:
        """Big-float precisions to try for the N x N truncation, cheapest first.

        Starts at :meth:`ladder_bits`, raised to the precision of an explicit
        big-float backend, and doubles while at most ``retry_cap_bits``; empty
        when the start already exceeds the cap.
        """
        bits = self.ladder_bits(ms, n)
        if ms.backend.kind == BIGFLOAT:
            bits = max(bits, ms.backend.precision)
        rungs = []
        while bits <= self.retry_cap_bits:
            rungs.append(bits)
            bits *= 2
        return rungs


DEFAULT_POLICY = PrecisionPolicy()


def _max_moment_log2(ms: MomentSequence, count: int) -> int:
    """ceil(log2 max |m_j|) over j < count, probed at low precision."""
    probe = ms.with_backend(bigfloat(64))
    with mpmath.workprec(64):
        top = max(abs(probe.moment(j)) for j in range(count))
        if top <= 1:
            return 0
        return int(mpmath.ceil(mpmath.log(top, 2)))


@dataclass(frozen=True)
class TriangularPair:
    """Factorization data: matrix = U^t diag(pivots) U, plus the inverse of U.

    ``backend`` is the scalar backend of the stored entries; ``precision_bits``
    records the mantissa actually used (53 for f64, None for exact data).
    """

    n: int
    backend: Backend
    unit_upper: tuple
    pivots: tuple
    unit_upper_inv: tuple
    precision_bits: int | None

    # -- views ---------------------------------------------------------------

    def _view_backend(self) -> Backend:
        return F64_BACKEND if self.backend.kind == RATIONAL else self.backend

    def c_matrix(self):
        """Upper-triangular Cholesky factor C = D^{1/2} U (numeric view)."""
        vb = self._view_backend()
        with vb.context():
            roots = [vb.sqrt(vb.convert(d)) for d in self.pivots]
            return [
                [roots[k] * vb.convert(self.unit_upper[k][j]) for j in range(self.n)]
                for k in range(self.n)
            ]

    def b_matrix(self):
        """Inverse factor B = U^{-1} D^{-1/2}; column n holds P_n's coefficients."""
        vb = self._view_backend()
        with vb.context():
            roots = [vb.sqrt(vb.convert(d)) for d in self.pivots]
            return [
                [vb.convert(self.unit_upper_inv[k][j]) / roots[j] for j in range(self.n)]
                for k in range(self.n)
            ]

    def monic_values(self, x):
        """Exact values pi_k(x) of the monic orthogonal polynomials.

        pi_k has the coefficients of column k of U^{-1}; P_k = pi_k / sqrt(d_k).
        Stays in the pair's scalar backend (exact for rational pairs).
        """
        x = self.backend.convert(x)
        with self.backend.context():
            values = []
            for k in range(self.n):
                acc = self.backend.zero()
                for j in range(k, -1, -1):
                    acc = acc * x + self.unit_upper_inv[j][k]
                values.append(acc)
            return values

    def reconstruction(self):
        """U^t D U, for reconstruction checks against the source matrix."""
        with self.backend.context():
            return utdu_product(
                [list(r) for r in self.unit_upper], list(self.pivots),
                self.backend.zero(),
            )

    def inverse_residual_identity(self):
        """U * U^{-1}, which must be the identity (exactly, when rational)."""
        from .triangular import mat_mul

        with self.backend.context():
            return mat_mul(
                [list(r) for r in self.unit_upper],
                [list(r) for r in self.unit_upper_inv],
                self.backend.zero(),
            )

    def hs_norm_sq_b(self):
        """Squared Frobenius norm of B (exact for rational pairs)."""
        with self.backend.context():
            acc = self.backend.zero()
            for j in range(self.n):
                col = self.backend.zero()
                for k in range(j + 1):
                    col = col + self.unit_upper_inv[k][j] * self.unit_upper_inv[k][j]
                acc = acc + col / self.pivots[j]
            return acc


def factor(
    ms: MomentSequence,
    n: int,
    policy: PrecisionPolicy | None = None,
) -> TriangularPair:
    """Factor the N x N truncation on the precision ladder.

    Each attempt runs :func:`ldl_decompose` on the moment block and then
    :func:`invert_unit_upper`, both O(N^2).  Rational input stays exact.  f64
    input is factored at machine precision up to ``policy.machine_max_n``;
    beyond that, and for big-float input, each rung of ``policy.ladder`` is
    tried in turn until the pivots come out positive.  Failure on every rung
    raises :class:`PositivityError`, flagged ``precision_suspect`` unless the
    input was exact.
    """
    policy = policy or DEFAULT_POLICY
    if n < 1:
        raise ValueError("factorization size must be >= 1")
    ms.check_truncation(n)

    if ms.backend.kind == RATIONAL:
        rungs = [(ms, None)]
    elif ms.backend.kind == F64 and n <= policy.machine_max_n:
        rungs = [(ms, 53)]
    else:
        rungs = [(ms.with_backend(bigfloat(bits)), bits) for bits in policy.ladder(ms, n)]

    last_err = None
    for work, bits in rungs:
        backend = work.backend
        with backend.context():
            block = work.moments(2 * n - 1)
            try:
                unit_upper, pivots = ldl_decompose(
                    block, n, backend.zero(), precision_suspect=backend.kind == BIGFLOAT
                )
            except PositivityError as err:
                last_err = err
                continue
            inv = invert_unit_upper(unit_upper, pivots, n, backend.zero())
        return TriangularPair(
            n, backend,
            tuple(tuple(r) for r in unit_upper),
            tuple(pivots),
            tuple(tuple(r) for r in inv),
            bits,
        )
    tried = ", ".join("exact" if bits is None else f"{bits} bits" for _, bits in rungs)
    raise PositivityError(
        last_err.dimension if last_err else n,
        f"{last_err} (tried: {tried})" if last_err
        else f"the precision ladder has no rung at or below {policy.retry_cap_bits} bits",
        precision_suspect=ms.backend.kind != RATIONAL,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_polys(tp: TriangularPair, x):
    """Numeric values (P_0(x), ..., P_{N-1}(x)); leading coefficients positive.

    Square roots force a float view: rational pairs evaluate at f64.  Exact
    checks should use :meth:`TriangularPair.monic_values` instead.
    """
    vb = tp._view_backend()
    with vb.context():
        xv = vb.convert(x)
        values = []
        for k in range(tp.n):
            acc = vb.zero()
            for j in range(k, -1, -1):
                acc = acc * xv + vb.convert(tp.unit_upper_inv[j][k])
            values.append(acc / vb.sqrt(vb.convert(tp.pivots[k])))
        return values


@dataclass(frozen=True)
class PFunctionPartial:
    value: object
    last_increment: object
    increments: list

    def to_json(self):
        from .backends import scalar_to_json

        return {
            "value": scalar_to_json(self.value),
            "last_increment": scalar_to_json(self.last_increment),
            "increments": [scalar_to_json(x) for x in self.increments],
        }


def p_function(tp: TriangularPair, z, n_max: int) -> PFunctionPartial:
    """Partial sums of the squared orthonormal polynomial values at ``z``.

    Returns (sum_{n<=n_max} P_n(z)^2)^{1/2} together with the last increment;
    bounded increments over growing ``n_max`` are the numeric signature of
    indeterminate-type behavior.
    """
    if not 0 <= n_max < tp.n:
        raise ValueError("n_max must satisfy 0 <= n_max < N")
    values = eval_polys(tp, z)
    vb = tp._view_backend()
    with vb.context():
        increments = [v * v for v in values[: n_max + 1]]
        total = vb.zero()
        for inc in increments:
            total = total + inc
        return PFunctionPartial(vb.sqrt(total), increments[-1], increments)


# ---------------------------------------------------------------------------
# three-term recurrence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """x P_n = beta_{n+1} P_{n+1} + alpha_n P_n + beta_n P_{n-1}.

    ``alpha[n]`` holds alpha_n for n < N-1; ``beta[n]`` holds beta_{n+1}.
    """

    alpha: list
    beta: list

    def to_json(self):
        from .backends import scalar_to_json

        return {
            "alpha": [scalar_to_json(a) for a in self.alpha],
            "beta": [scalar_to_json(b) for b in self.beta],
        }


def recurrence(tp: TriangularPair) -> RecurrenceCoeffs:
    """Read the orthonormal recurrence coefficients off the factorization, in O(N).

    The monic polynomials satisfy pi_{n+1} = (x - alpha_n) pi_n - b_n pi_{n-1}
    with alpha_n = U[n][n+1] - U[n-1][n] and b_n = d_n / d_{n-1}; normalizing
    by P_n = pi_n / sqrt(d_n) keeps alpha_n and gives beta_{n+1} =
    sqrt(d_{n+1} / d_n).  Both are formed in the pair's backend (exactly for
    rational pairs) and then converted to the numeric view.
    """
    if tp.n < 3:
        raise ValueError("recurrence extraction needs N >= 3")
    vb = tp._view_backend()
    with tp.backend.context():
        alpha = [monic_alpha(tp.unit_upper, n) for n in range(tp.n - 1)]
        ratios = [tp.pivots[n + 1] / tp.pivots[n] for n in range(tp.n - 1)]
    with vb.context():
        return RecurrenceCoeffs(
            alpha=[vb.convert(a) for a in alpha],
            beta=[vb.sqrt(vb.convert(r)) for r in ratios],
        )
