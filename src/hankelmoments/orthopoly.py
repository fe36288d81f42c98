"""Orthonormal-polynomial transition matrices from Hankel truncations.

``factor`` peels the truncation into ``C = D^{1/2} U`` (unit upper triangular
``U``, positive pivots ``D``) so that ``C^t C`` reproduces the matrix and
``B = C^{-1}`` carries the polynomial coefficients: column ``n`` of ``B``
holds the monomial coefficients of the n-th orthonormal polynomial.  The
factorization is the O(N^2) Chebyshev algorithm of :mod:`.triangular`, which
works on the moment block ``m_0 .. m_{2N-2}`` directly: it yields ``D`` and
``U`` from the mixed moments, then ``U^{-1}`` (the monic polynomials) from
the three-term recurrence, whose coefficients the factorization forms once
and the pair keeps (:attr:`TriangularPair.monic_recurrence`).  A factor of
a symmetric functional skips the entries that vanish by parity
(:mod:`.triangular`); the pair records that in ``symmetric``.  The
recurrence is the one polynomial evaluator: :func:`recurrence` reads its
orthonormal form in O(N), :meth:`TriangularPair.monic_values` runs it in the
pair's backend, O(N) per point, and :func:`eval_polys` is its orthonormal
float view.  A pair evaluates each point once: ``monic_values`` keeps the
vector of every point it was asked for, keyed on the point converted to the
pair's backend, for the life of the pair, and hands out copies.  Under the
rational backend everything stays square-root-free and exact; identities
are checked in that form.

Hankel truncations of bounded-support families are notoriously ill
conditioned (for measures on [0, 1], log2 of the condition number grows like
5.05 N), so every float factorization, f64 input included, runs on a
big-float precision ladder.  :func:`ladder` is the list of precisions that
``factor`` walks; only ``factor`` walks it (the spectral profiles climb the
rungs of their own graded run and factor only exact rational sequences).
It starts at ``BITS_PER_DIM`` bits per dimension plus ``BASE_MARGIN_BITS``
plus the exponent of the largest moment (raised to an explicit big-float
backend's own precision) and doubles while it stays at or below
``RETRY_CAP_BITS``; ``factor`` stops at the first rung that succeeds.  As
no rung tells exhausted precision from a block that is not positive
definite, it first reads the family's exact limit (:mod:`.moments`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath

from .backends import (
    BIGFLOAT,
    RATIONAL,
    Backend,
    F64_BACKEND,
    bigfloat,
    dot,
    three_term,
)
from .moments import MomentSequence, positive_definite_limit
from .triangular import (
    PositivityError,
    invert_unit_upper,
    ldl_decompose,
    monic_alpha,
    parity_holds,
)


BITS_PER_DIM = 6
BASE_MARGIN_BITS = 64
RETRY_CAP_BITS = 65536


def ladder(ms: MomentSequence, n: int) -> list[int]:
    """Big-float precisions to try for the N x N truncation, cheapest first.

    Starts at BITS_PER_DIM * N + BASE_MARGIN_BITS plus ceil(log2 max |m_j|)
    (at least 64), raised to the precision of an explicit big-float backend,
    and doubles while at most RETRY_CAP_BITS; empty when the start already
    exceeds the cap.
    """
    bits = max(BITS_PER_DIM * n + BASE_MARGIN_BITS + _max_moment_log2(ms, 2 * n - 1), 64)
    if ms.backend.kind == BIGFLOAT:
        bits = max(bits, ms.backend.precision)
    rungs = []
    while bits <= RETRY_CAP_BITS:
        rungs.append(bits)
        bits *= 2
    return rungs


def _max_moment_log2(ms: MomentSequence, count: int) -> int:
    """ceil(log2 max |m_j|) over j < count (0 when at most 1), probed at 64 bits.

    The probe reads the sequence's one 64-bit sibling, so the ladders of
    every factor of one sequence compute each probe moment once.
    """
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
    records the mantissa actually used (the ladder rung, None for exact data).
    ``symmetric`` records that the factorization skipped the entries that
    vanish by parity (:mod:`.triangular`); readers of the pair may skip them
    too.  ``monic_recurrence`` is (alpha_0..alpha_{N-2}, beta_1..beta_{N-1})
    of the monic recurrence, alpha_k = U[k][k+1] - U[k-1][k] and beta_k =
    d_k / d_{k-1}, in the pair's scalar backend (exactly for rational
    pairs): :func:`factor` passes the ones its factorization formed, and a
    pair built without them forms them from ``U`` and ``D``.
    """

    n: int
    backend: Backend
    unit_upper: tuple
    pivots: tuple
    unit_upper_inv: tuple
    precision_bits: int | None
    symmetric: bool = False
    monic_recurrence: tuple | None = field(default=None, repr=False, compare=False)
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.monic_recurrence is None:
            with self.backend.context():
                alpha = tuple(monic_alpha(self.unit_upper, k) for k in range(self.n - 1))
                beta = tuple(self.pivots[k] / self.pivots[k - 1] for k in range(1, self.n))
            object.__setattr__(self, "monic_recurrence", (alpha, beta))

    # -- views ---------------------------------------------------------------

    def _view_backend(self) -> Backend:
        return F64_BACKEND if self.backend.kind == RATIONAL else self.backend

    def monic_values(self, x):
        """Values pi_0(x), ..., pi_{N-1}(x) of the monic orthogonal polynomials.

        O(N) by the recurrence pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1}
        (:attr:`monic_recurrence`); P_k = pi_k / sqrt(d_k).  Stays in the
        pair's scalar backend (exact for rational pairs, which therefore need
        a rational ``x``).  Each point is evaluated once per pair: the memo
        is keyed on ``x`` converted to the backend, and every call returns a
        new list.  (-0.0 reads the vector of 0.0, which has the same bits: x
        enters only through alpha_k - x, and a zero product leaves the step
        at +0.0.)
        """
        x = self.backend.convert(x)
        values = self._values.get(x)
        if values is None:
            alpha, beta = self.monic_recurrence
            zero = self.backend.zero()
            with self.backend.context():
                values = [self.backend.one()]
                for k in range(self.n - 1):
                    # 0 - (alpha_k - x) pi_k - beta_k pi_{k-1}, with beta_k = beta[k - 1]
                    b, c = (beta[k - 1], values[k - 1]) if k else (zero, zero)
                    values.append(three_term(zero, alpha[k] - x, values[k], b, c))
            self._values[x] = values
        return list(values)

    def hs_norm_sq_b(self):
        """Squared Frobenius norms of B_M for M = 1..N (exact for rational pairs).

        Entry M - 1 is ||B_M||_F^2 = tr(H_M^-1) = sum_{j<M} ||col_j(U^-1)||^2
        / d_j, the running sum in order of j; the last entry is ||B||_F^2.
        The leading M x M blocks of U^-1 and D come from the same operations
        as the M x M factor at this precision (:mod:`.triangular`), so every
        entry is that factor's own weight, bit for bit.
        """
        with self.backend.context():
            acc = self.backend.zero()
            sums = []
            for j in range(self.n):
                col = [self.unit_upper_inv[k][j] for k in range(j + 1)]
                acc = acc + dot(col, col) / self.pivots[j]
                sums.append(acc)
            return sums


def factor(ms: MomentSequence, n: int) -> TriangularPair:
    """Factor the N x N truncation on the precision ladder.

    Each attempt runs :func:`ldl_decompose` on the moment block and then
    :func:`invert_unit_upper`, both O(N^2), and hands the recurrence
    coefficients the first formed to the second and to the pair.  Both skip
    the parity zeros of a block whose odd moments all vanish
    (:func:`~.triangular.parity_holds`).  Rational input stays exact.  Float
    input past the exact limit (:func:`~.moments.positive_definite_limit`)
    raises :class:`PositivityError` at its dimension; other float input
    tries each rung of :func:`ladder` until the pivots come out positive,
    and the pair is a big float at that rung.  Failure on every rung raises
    it flagged ``precision_suspect``; an empty ladder names ``RETRY_CAP_BITS``.
    """
    if n < 1:
        raise ValueError("factorization size must be >= 1")

    if ms.backend.kind == RATIONAL:
        rungs = [(ms, None)]
    else:
        d = positive_definite_limit(ms, n) + 1
        if d <= n:
            raise PositivityError(d, f"the exact leading {d}x{d} block is not positive definite")
        rungs = [(ms.with_backend(bigfloat(bits)), bits) for bits in ladder(ms, n)]

    last_err = None
    for work, bits in rungs:
        backend = work.backend
        with backend.context():
            block = work.moments(2 * n - 1)
            symmetric = parity_holds(block, n)
            try:
                unit_upper, pivots, alpha, beta = ldl_decompose(
                    block, n, backend.zero(),
                    precision_suspect=backend.kind == BIGFLOAT, symmetric=symmetric,
                )
            except PositivityError as err:
                last_err = err
                continue
            inv = invert_unit_upper(alpha, beta, n, backend.zero(), symmetric=symmetric)
        return TriangularPair(
            n, backend,
            tuple(tuple(r) for r in unit_upper),
            tuple(pivots),
            tuple(tuple(r) for r in inv),
            bits,
            symmetric,
            (tuple(alpha), tuple(beta)),
        )
    tried = ", ".join("exact" if bits is None else f"{bits} bits" for _, bits in rungs)
    raise PositivityError(
        last_err.dimension if last_err else n,
        f"{last_err} (tried: {tried})" if last_err
        else f"the precision ladder has no rung at or below RETRY_CAP_BITS = {RETRY_CAP_BITS} bits",
        precision_suspect=ms.backend.kind != RATIONAL,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_polys(tp: TriangularPair, x):
    """Numeric values (P_0(x), ..., P_{N-1}(x)); leading coefficients positive.

    The float view of :meth:`TriangularPair.monic_values`: P_k = pi_k /
    sqrt(d_k), with pi_k and d_k converted to the view backend (f64 for
    rational pairs) before the square root.  Exact checks should use
    ``monic_values`` instead.
    """
    values = tp.monic_values(x)
    vb = tp._view_backend()
    with vb.context():
        return [vb.convert(v) / vb.sqrt(vb.convert(d)) for v, d in zip(values, tp.pivots)]


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
    alpha, ratios = tp.monic_recurrence
    with vb.context():
        return RecurrenceCoeffs(
            alpha=[vb.convert(a) for a in alpha],
            beta=[vb.sqrt(vb.convert(r)) for r in ratios],
        )
