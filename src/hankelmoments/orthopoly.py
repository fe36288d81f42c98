"""Orthonormal-polynomial transition matrices from Hankel truncations.

``factor`` peels the truncation into ``C = D^{1/2} U`` (unit upper triangular
``U``, positive pivots ``D``) so that ``C^t C`` reproduces the matrix and
``B = C^{-1}`` carries the polynomial coefficients: column ``n`` of ``B``
holds the monomial coefficients of the n-th orthonormal polynomial.  A
rational factorization is the O(N^2) Chebyshev algorithm of
:mod:`.triangular`, which works on the moment block ``m_0 .. m_{2N-2}``
directly and yields ``D`` and ``U`` from the mixed moments; a float one reads
them off the graded Cholesky (below).  Either way ``U^{-1}`` (the monic
polynomials) follows from the three-term recurrence, whose coefficients are
formed once and kept by the pair (:attr:`TriangularPair.monic_recurrence`).
A factor of a symmetric functional skips the entries that vanish by parity
(:mod:`.triangular`); the pair records that in ``symmetric``.  The
recurrence is the one polynomial evaluator: :func:`recurrence` reads its
orthonormal form in O(N), :meth:`TriangularPair.monic_values` runs it in the
pair's backend, O(N) per point, and :func:`eval_polys` is its orthonormal
float view.  A pair evaluates each point once: ``monic_values`` keeps the
vector of every point it was asked for, keyed on the point converted to the
pair's backend, for the life of the pair, and hands out copies.  Under the
rational backend everything stays square-root-free and exact; identities
are checked in that form.

Every float factor, f64 input included, is read off the graded Cholesky of
:mod:`.spectral` (its module docstring derives the bounds): H = S A S with
S^-1 = diag(r_k), A = L L^t on Python ints, and X L = I + R row by row.
:func:`graded_rows` is that row loop and :func:`graded_climb` the one climb
of its rungs, which both the lambda_min path and ``factor`` take.
``factor`` climbs from ``GRADED_BITS`` (or an explicit big-float backend's
own precision) until the bounds of the pivots, alpha and beta lie below the
output precision (2^-53 for f64, 2^-b for ``bigfloat:b``) with
``FACTOR_MARGIN_BITS`` to spare.  It first reads the family's exact limit
(:mod:`.moments`), so a block that is not positive definite fails before
any rung runs.  Rational input takes the
Chebyshev algorithm of :mod:`.triangular`, exactly.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .backends import (
    BIGFLOAT,
    RATIONAL,
    Backend,
    BackendError,
    F64_BACKEND,
    HankelError,
    PrecisionError,
    bigfloat,
    dot,
    integer_form,
    is_exact,
    three_term,
)
from .moments import MissingMomentError, MomentSequence
from .triangular import (
    PositivityError,
    invert_unit_upper,
    ldl_decompose,
    monic_alpha,
    parity_holds,
)


GRADED_BITS = 128  # first rung of every float computation
RETRY_CAP_BITS = 65536  # last rung
FACTOR_MARGIN_BITS = 8  # a float factor's bounds lie this far below its output precision


# ---------------------------------------------------------------------------
# the graded Cholesky
# ---------------------------------------------------------------------------


def guard_bits(n):
    """2 ceil(log2 N): the headroom of the N x N fixed-point rounding errors."""
    return 2 * (n - 1).bit_length()


def graded_frac(bits, n):
    """p = bits + 2 ceil(log2 N) + 8, the fixed-point format of a graded run
    of size N at rung ``bits``."""
    return bits + guard_bits(n) + 8


def _round_shift(man, exp):
    """round(man * 2^exp) for ints ``man`` and ``exp`` (halves rounded up)."""
    if exp >= 0:
        return man << exp
    return (man + (1 << (-exp - 1))) >> -exp


def _round_div(num, den):
    """round(num / den) for ints, den > 0 (halves rounded up)."""
    return (2 * num + den) // (2 * den)


# Row j of a graded run: row j of L~ (its diagonal last) and of X~, ints at
# 2^-p; r_j = man 2^exp as ``scale = (man, exp)``; theta_{j+1} as the int
# ``theta`` at 2^-(2p + bits); ``step`` 2 where the moments read so far are
# those of a symmetric functional, whose parity zeros the row skipped, else 1.
GradedRow = namedtuple("GradedRow", "chol x scale theta step")


class GradedStop(HankelError):
    """A graded run ended before its last row, at size ``size``.

    ``definite``: the run's theta_M reached its tolerance below 1, which
    proves the leading block positive definite.  Else an even moment or a
    pivot was not positive, or theta_M >= 1, which proves nothing by itself.
    """

    def __init__(self, size: int, definite: bool = False):
        super().__init__(f"the graded run stopped at size {size}")
        self.size, self.definite = size, definite


def graded_rows(ms: MomentSequence, top: int, bits: int, tol):
    """The rows of the graded run of size ``top`` at rung ``bits``
    (:mod:`.spectral`), each a :class:`GradedRow`; raises
    :class:`GradedStop` where the run ends early, and the error of a moment
    that cannot be read.

    H = S A S with S^-1 = diag(r_k), r_k = 1/sqrt(m_2k), from the moment
    block at ``bits``; A is rounded to p = :func:`graded_frac` fractional
    bits with unit diagonal, factored A = L L^t and inverted row by row (X L
    = I + R) on Python ints, row j of X right after row j of L.  The run
    stops at the first theta_M >= ``tol`` (a float or a Fraction, compared
    exactly), theta_M = (2 M^2 + 1) 2^-bits ||X_M||_F^2.

    Where the moments read so far are those of a symmetric functional
    (:func:`~.triangular.parity_holds`, carried from row to row, so each
    odd moment is compared to 0 once per run), A~_jk, L~_jk and X~_jk are
    exact zeros for odd j + k, and row j forms only its entries of the
    parity of j: the ints are those of the full loops.
    """
    work = ms.with_backend(bigfloat(bits))
    frac = graded_frac(bits, top)
    tol = Fraction(tol)
    mul = operator.mul
    one_sq = 1 << (2 * frac)  # 1 at the scale of a product of two entries
    theta_unit = 1 << (2 * frac + bits)
    block, scale, chol, cols = [], [], [], []
    norm_sq = 0  # ||X||_F^2 of the rows so far, at 2^(-2 frac)
    symmetric = True  # parity_holds(block, j + 1), carried from row to row
    for j in range(top):
        with mpmath.workprec(bits):
            block += [work.moment(i) for i in range(len(block), 2 * j + 1)]
        if not block[2 * j] > 0:
            raise GradedStop(j + 1)
        with mpmath.workprec(frac):
            scale.append((1 / mpmath.sqrt(block[2 * j]))._mpf_[1:3])
        mj, ej = scale[j]
        # entries with j + k odd vanish for a symmetric functional: skip them;
        # the only odd moment new to row j is m_{2j-1}, the last of the pair
        symmetric = symmetric and parity_holds(block[2 * j - 2 : 2 * j], 2)
        first, step = (j % 2, 2) if symmetric else (0, 1)
        row = [0] * j
        for k in range(first, j, step):
            mk, ek = scale[k]
            sign, man, exp, _ = block[j + k]._mpf_
            man *= mj * mk
            a = _round_shift(-man if sign else man, exp + ej + ek + frac)
            dots = sum(map(mul, row[first:k:step], chol[k][first:k:step]))
            row[k] = _round_div((a << frac) - dots, chol[k][k])
        pivot = one_sq - sum(t * t for t in row[first::step])
        if pivot <= 0:
            raise GradedStop(j + 1)
        row.append(math.isqrt(pivot))
        chol.append(row)
        for col, t in zip(cols, row):
            col.append(t)
        cols.append([row[j]])
        x = [0] * (j + 1)
        x[j] = _round_div(one_sq, row[j])
        for k in range(j - step, -1, -step):
            x[k] = _round_div(-sum(map(mul, x[k + step :: step], cols[k][step::step])), cols[k][0])
        norm_sq += sum(t * t for t in x)
        theta = (2 * (j + 1) ** 2 + 1) * norm_sq
        if theta * tol.denominator >= tol.numerator * theta_unit:
            raise GradedStop(j + 1, definite=theta < theta_unit)
        yield GradedRow(row, x, scale[j], theta, step)


def graded_climb(ms: MomentSequence, top: int, tol, bits: int):
    """The rungs of the graded run of size ``top``: :func:`graded_rows` at
    ``bits``, 2 ``bits``, ... up to ``RETRY_CAP_BITS``, each yielded as
    ``(bits, rows)`` with the rows it completed.  The climb ends after the
    first rung that completes all ``top``, or at the cap.

    This is the one climb rule (:mod:`.spectral` gives its grounds).  A rung
    that stops at size M climbs where its theta_M < 1, which proves the
    leading M x M block positive definite, or, on theta_M >= 1, an even
    moment or a pivot <= 0, where that block is positive definite: a lower
    rung passed M, or else the family's
    :meth:`~.moments.MomentFamily.positive_definite_limit` says so, asked
    once per stopping size.  Otherwise the climb yields the
    prefix and raises the :class:`PositivityError` of dimension M that the
    exact factor raises; a moment that cannot be read yields the prefix and
    raises its error.
    """
    proven = 0  # the largest stopping size shown positive definite
    while bits <= RETRY_CAP_BITS:
        rows, error = [], None
        try:
            for row in graded_rows(ms, top, bits, tol):
                rows.append(row)
        except GradedStop as stop:
            m = stop.size
            if not (stop.definite or m <= proven or ms.family.positive_definite_limit(m) >= m):
                error = PositivityError(m, f"the exact leading {m}x{m} block is not positive definite")
            proven = max(proven, m)
        except (BackendError, PrecisionError, MissingMomentError) as err:
            error = err
        yield bits, rows
        if error is not None:
            raise error
        if len(rows) == top:
            return
        bits *= 2


@dataclass(frozen=True)
class TriangularPair:
    """Factorization data: matrix = U^t diag(pivots) U, plus the inverse of U.

    ``backend`` is the scalar backend of the stored entries; ``precision_bits``
    records the mantissa actually used (the graded rung, None for exact data).
    ``symmetric`` records that the factorization skipped the entries that
    vanish by parity (:mod:`.triangular`); readers of the pair may skip them
    too.  ``monic_recurrence`` is (alpha_0..alpha_{N-2}, beta_1..beta_{N-1})
    of the monic recurrence, alpha_k = U[k][k+1] - U[k-1][k] and beta_k =
    d_k / d_{k-1}, in the pair's scalar backend (exactly for rational
    pairs): :func:`factor` passes the ones its factorization formed, and a
    pair built without them forms them from ``U`` and ``D``.  ``bounds`` is
    (pivots, alpha, beta) of a float factor, entry by entry: the relative
    bound of each pivot d_k and monic beta_k, and the absolute bound of each
    alpha_k, against the exact factor (:mod:`.spectral` derives them); None
    for exact data.  ``integer_forms`` is (rows, columns) of an exact pair,
    lists of Python ints: ``U[k][l] = rows[k][l] / rows[k][k]`` (the mixed
    moments S_k of :func:`~.triangular.ldl_decompose`) and ``U^-1[j][k] =
    columns[k][j] / columns[k][k]`` (pi_k's coefficients from
    :func:`~.triangular.invert_unit_upper`).  :func:`factor` passes the
    ones its factorization formed; a rational pair built with exact entries
    and without them derives them once, by
    :func:`~.backends.integer_form` per row and column.  The exact readers
    (:meth:`hs_norm_sq_b`, xi and its identity in :mod:`.spectral`, the
    kernel of :mod:`.extremal`) work on them and build a Fraction only for
    an entry they return; a float pair has None and keeps the in-order
    loops.
    """

    n: int
    backend: Backend
    unit_upper: tuple
    pivots: tuple
    unit_upper_inv: tuple
    precision_bits: int | None
    symmetric: bool = False
    monic_recurrence: tuple | None = field(default=None, repr=False, compare=False)
    bounds: tuple | None = field(default=None, repr=False, compare=False)
    integer_forms: tuple | None = field(default=None, repr=False, compare=False)
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.monic_recurrence is None:
            with self.backend.context():
                alpha = tuple(monic_alpha(self.unit_upper, k) for k in range(self.n - 1))
                beta = tuple(self.pivots[k] / self.pivots[k - 1] for k in range(1, self.n))
            object.__setattr__(self, "monic_recurrence", (alpha, beta))
        if (self.integer_forms is None and self.backend.kind == RATIONAL
                and is_exact(self.pivots) and all(map(is_exact, self.unit_upper))
                and all(map(is_exact, self.unit_upper_inv))):
            rows = [integer_form(row)[0] for row in self.unit_upper]
            columns = [integer_form(col)[0] for col in zip(*self.unit_upper_inv)]
            object.__setattr__(self, "integer_forms", (rows, columns))

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
        at +0.0.)  The memo earns its place on exact pairs, whose kernel
        values re-read their points: without it the ``exact-rational``
        benchmark ran about 8 % slower (``wall_s`` 0.245 / 0.242 / 0.256 s
        against 0.263 / 0.265 / 0.280 s in three alternating pairs on a
        2-vCPU host).
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
        entry is that factor's own weight, bit for bit.  An exact pair reads
        its integer columns (:attr:`integer_forms`): term j is sum_i C_j[i]^2
        / (c_j^2 d_j), c_j = C_j[j], one Fraction.
        """
        columns = self.integer_forms[1] if self.integer_forms is not None else None
        step = 2 if self.symmetric else 1
        with self.backend.context():
            acc = self.backend.zero()
            sums = []
            for j, d in enumerate(self.pivots):
                if columns is None:
                    col = [self.unit_upper_inv[k][j] for k in range(j + 1)]
                    acc = acc + dot(col, col) / d
                else:
                    col = columns[j]
                    square = sum(x * x for x in col[j % step : j + 1 : step])
                    acc = acc + Fraction(square * d.denominator, col[j] * col[j] * d.numerator)
                sums.append(acc)
            return sums


def factor(ms: MomentSequence, n: int) -> TriangularPair:
    """Factor the N x N truncation: exactly for rational input, else off
    the graded Cholesky.

    Rational input runs :func:`ldl_decompose` on the moment block and then
    :func:`invert_unit_upper`, both O(N^2), and hands the recurrence
    coefficients the first formed to the second and to the pair.  Float
    input past the exact limit
    (:meth:`~.moments.MomentFamily.positive_definite_limit`)
    raises :class:`PositivityError` at its dimension.  Other float input
    takes the first rung of :func:`graded_climb`, from ``GRADED_BITS`` or
    the precision of a big-float backend if larger, that completes with
    (2N + 1) theta_N <= 2^-(out + FACTOR_MARGIN_BITS), out = 53 for f64 and
    b for ``bigfloat:b``: the pair is a big float at that rung, with its
    bounds (:func:`_graded_pair`).  A climb that ends without one raises
    :class:`~.backends.PrecisionError`, and one that ends on a moment error
    raises that.  Both paths skip the parity zeros of a block whose odd
    moments all vanish.
    """
    if n < 1:
        raise ValueError("factorization size must be >= 1")
    if ms.backend.kind == RATIONAL:
        block = ms.moments(2 * n - 1)
        symmetric = parity_holds(block, n)
        *factors, rows = ldl_decompose(block, n, ms.backend.zero(), symmetric=symmetric)
        return _pair(ms.backend, *factors, None, symmetric, rows=rows)
    d = ms.family.positive_definite_limit(n) + 1
    if d <= n:
        raise PositivityError(d, f"the exact leading {d}x{d} block is not positive definite")
    out = ms.backend.precision if ms.backend.kind == BIGFLOAT else 53
    tol = Fraction(1, (2 * n + 1) << (out + FACTOR_MARGIN_BITS))
    for bits, rows in graded_climb(ms, n, tol, max(GRADED_BITS, out)):
        if len(rows) == n:
            return _graded_pair(rows, bits)
    raise PrecisionError(f"no rung up to RETRY_CAP_BITS = {RETRY_CAP_BITS} bits bounds "
                         f"the {n}x{n} factor to 2^-{out}")


def _graded_pair(rows, bits) -> TriangularPair:
    """The pair read off the complete graded run ``rows`` at ``bits``, with
    its bounds (:mod:`.spectral`).

    With L^ = L~ 2^-p and S^-1 = diag(r_k): d_k = (L^_kk / r_k)^2 and U[k][l]
    = L~_lk r_k / (L~_kk r_l), each from exact ints in two roundings at
    ``bits``; alpha and beta as the monic recurrence forms them, and U^-1
    from :func:`invert_unit_upper`.  The bounds are formed at 53 bits.
    """
    n = len(rows)
    frac = graded_frac(bits, n)
    step = rows[-1].step
    backend = bigfloat(bits)
    zero = backend.zero()
    with backend.context():
        unit_upper = [[zero] * n for _ in range(n)]
        pivots = []
        for k, row in enumerate(rows):
            (mk, ek), lkk = row.scale, row.chol[k]
            pivots.append(mpmath.ldexp(mpmath.mpf(lkk * lkk) / (mk * mk), -2 * (frac + ek)))
            unit_upper[k][k] = zero + 1
            for l in range(k + step, n, step):
                ml, el = rows[l].scale
                unit_upper[k][l] = mpmath.ldexp(mpmath.mpf(rows[l].chol[k] * mk) / (lkk * ml), ek - el)
        alpha = [monic_alpha(unit_upper, k) for k in range(n - 1)]
        beta = [pivots[k] / pivots[k - 1] for k in range(1, n)]
    with mpmath.workprec(53):
        spare = mpmath.ldexp(1, 3 - bits)  # the roundings of the read-off
        thetas = [mpmath.ldexp(row.theta, -2 * frac - bits) for row in rows]
        logs = [-mpmath.log1p(-t) for t in thetas]
        phis = [t / (mpmath.sqrt(2) * (1 - t)) for t in thetas]
        roots = [0] + [mpmath.sqrt(b) for b in beta]
        bounds = (
            tuple(mpmath.expm1((2 * k + 1) * logs[k]) + spare for k in range(n)),
            tuple((roots[k] + roots[k + 1]) * phis[k + 1] / (1 - phis[k + 1])
                  + spare * (abs(unit_upper[k][k + 1]) + (abs(unit_upper[k - 1][k]) if k else 0))
                  for k in range(n - 1)),
            tuple(mpmath.expm1(4 * k * logs[k]) + spare for k in range(1, n)),
        )
    return _pair(backend, unit_upper, pivots, alpha, beta, bits, step == 2, bounds)


def _pair(backend, unit_upper, pivots, alpha, beta, bits, symmetric, bounds=None,
          rows=None) -> TriangularPair:
    """The pair of a factorization in ``backend``, U^-1 from its recurrence
    (:func:`invert_unit_upper`); an exact factorization passes its integer
    ``rows`` and keeps the integer columns of the inverse with them."""
    n = len(pivots)
    with backend.context():
        inv, columns = invert_unit_upper(alpha, beta, n, backend.zero(), symmetric=symmetric)
    return TriangularPair(n, backend, tuple(map(tuple, unit_upper)), tuple(pivots),
                          tuple(map(tuple, inv)), bits, symmetric, (tuple(alpha), tuple(beta)),
                          bounds, None if rows is None else (rows, columns))


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
    ``alpha_bound[n]`` bounds the error of ``alpha[n]``, absolute, and
    ``beta_bound[n]`` that of ``beta[n]``, relative, against the exact
    truncation; both are None for a rational pair, whose values are the
    exact ones rounded once.
    """

    alpha: list
    beta: list
    alpha_bound: list | None = None
    beta_bound: list | None = None


def recurrence(tp: TriangularPair) -> RecurrenceCoeffs:
    """Read the orthonormal recurrence coefficients off the factorization, in O(N).

    The monic polynomials satisfy pi_{n+1} = (x - alpha_n) pi_n - b_n pi_{n-1}
    with alpha_n = U[n][n+1] - U[n-1][n] and b_n = d_n / d_{n-1}; normalizing
    by P_n = pi_n / sqrt(d_n) keeps alpha_n and gives beta_{n+1} =
    sqrt(d_{n+1} / d_n).  Both are formed in the pair's backend (exactly for
    rational pairs) and then converted to the numeric view.  A float pair's
    alpha keeps its bound; a relative bound g of b_n becomes g / (1 +
    sqrt(1 - g)) for its root, plus the rounding of the root.
    """
    if tp.n < 3:
        raise ValueError("recurrence extraction needs N >= 3")
    vb = tp._view_backend()
    alpha, ratios = tp.monic_recurrence
    bounds = {}
    if tp.bounds is not None:
        with mpmath.workprec(53):
            root = mpmath.ldexp(1, -tp.precision_bits)  # the rounding of the root
            bounds = {"alpha_bound": list(tp.bounds[1]),
                      "beta_bound": [g / (1 + mpmath.sqrt(1 - g)) + root for g in tp.bounds[2]]}
    with vb.context():
        return RecurrenceCoeffs(
            alpha=[vb.convert(a) for a in alpha],
            beta=[vb.sqrt(vb.convert(r)) for r in ratios],
            **bounds,
        )
