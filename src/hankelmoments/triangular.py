"""Square-root-free triangular factorization of Hankel truncations.

The N x N Hankel truncation ``H = (m_{k+l})`` of a positive definite moment
sequence is decomposed as ``H = U^t D U`` with ``U`` unit upper triangular
and ``D`` a positive diagonal, which realizes the Cholesky factor ``C =
D^{1/2} U`` without ever forming square roots.  :func:`ldl_decompose` sees
exact data only: the rational truncations of :func:`~.orthopoly.factor` and
the exact blocks of :func:`~.moments.positive_definite_limit`; a float
factor reads ``U`` and ``D`` off the graded Cholesky instead
(:mod:`.orthopoly`).  :func:`invert_unit_upper` works entry-wise over any
scalar backend and gives ``U^{-1}`` of both.

The factorization uses the Hankel structure through the Chebyshev algorithm
(Gautschi, *Orthogonal Polynomials: Computation and Approximation*, 2004,
§2.1.7), in O(N^2) operations instead of the O(N^3) of dense elimination.
With the monic orthogonal polynomials ``pi_k`` of the moment functional, the
mixed moments ``sigma_{k,l} = <pi_k, x^l>`` satisfy

    sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l} - beta_{k-1} sigma_{k-2,l},

starting from ``sigma_{0,l} = m_l``.  They are the rows of ``D U``:
``d_k = sigma_{k,k}`` and ``U[k][l] = sigma_{k,l} / d_k``.  Column ``k`` of
``U^{-1}`` holds the coefficients of ``pi_k``, which follow from the
three-term recurrence ``pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1}``
with ``alpha_k = U[k][k+1] - U[k-1][k]`` and ``beta_k = d_k / d_{k-1}``.

Both recurrences step through :func:`.backends.three_term`: on Fractions
each new sigma and each coefficient of ``pi_{k+1}`` is one reduced Fraction
formed from an integer numerator over a common denominator, and on floats
the step is the expression above, as written.

``alpha_k`` and ``beta_k`` are formed once, in :func:`ldl_decompose`, as the
Chebyshev algorithm needs them (a float factor forms them from its ``U`` and
``D`` the same way): it returns them with ``U`` and ``D``, and
:func:`invert_unit_upper` and the pair's monic recurrence
(:class:`~.orthopoly.TriangularPair`) read them from there.

A symmetric functional, one whose odd moments all vanish, has alpha_k = 0,
and pi_k has the parity of k (Chihara, *An Introduction to Orthogonal
Polynomials*, 1978, sec. I.4): sigma_{k,l}, U[k][l] and U^{-1}[k][l] are
zero wherever k + l is odd.  :func:`parity_holds` reads that off the moment
block, and with ``symmetric=True`` both routines step by 2 over the
surviving half, leaving the zeros as they were allocated.  Every surviving
entry is the same operation on the same operands as in the full loops, so
the results are the same bit for bit where a computed zero carries no sign:
on Fractions, and on the mpmath floats of a float factor, the only data
:func:`~.orthopoly.factor` hands these loops.  (On machine floats the full
inverse loop writes -0.0 into some parity zeros of U^{-1}, ``-alpha_0``
first.)
"""

from __future__ import annotations

from .backends import HankelError, three_term


class PositivityError(HankelError):
    """A leading principal block is not positive definite.

    ``dimension`` is the first failing leading dimension (1-based).  Exact
    data prove it: the rational LDL here, or the family's exact limit
    (:func:`~.moments.positive_definite_limit`) that a float factor and the
    graded run read before they report it.
    """

    def __init__(self, dimension: int, message: str):
        super().__init__(message)
        self.dimension = dimension


def monic_alpha(unit_upper, k):
    """alpha_k = U[k][k+1] - U[k-1][k] of the monic recurrence (needs k + 1 < N)."""
    if k == 0:
        return unit_upper[0][1]
    return unit_upper[k][k + 1] - unit_upper[k - 1][k]


def parity_holds(moments, n) -> bool:
    """Whether m_1, m_3, ..., m_{2n-3} are all exactly zero, so that the
    N x N truncation is that of a symmetric functional (module docstring)."""
    return all(m == 0 for m in moments[1 : 2 * n - 2 : 2])


def ldl_decompose(moments, n, zero, *, symmetric=False):
    """Return ``(unit_upper, pivots, alpha, beta)`` with ``H = U^t diag(pivots) U``.

    ``moments`` holds ``m_0 .. m_{2n-2}``, the entries of the N x N Hankel
    truncation ``H``.  Runs the Chebyshev algorithm (module docstring) in
    O(N^2) operations, and returns the monic recurrence it forms on the way:
    ``alpha = (alpha_0, ..., alpha_{n-2})`` and ``beta = (beta_1, ...,
    beta_{n-1})``.  ``symmetric`` (:func:`parity_holds`) skips the entries
    with k + l odd.  Raises :class:`PositivityError` at the first
    nonpositive pivot ``sigma_{k,k}``, with ``dimension = k + 1``.
    """
    step = 2 if symmetric else 1
    unit_upper = [[zero] * n for _ in range(n)]
    pivots, alpha, beta = [], [], []
    older = [zero] * (2 * n - 1)  # sigma_{k-2, .}; sigma_{-1, .} = 0
    sigma = list(moments[: 2 * n - 1])  # sigma_{k, .}, valid for k <= l <= 2n-2-k
    for k in range(n):
        if k:
            a, b = alpha[k - 1], beta[k - 2] if k > 1 else zero
            nxt = [zero] * (2 * n - 1)
            for l in range(k, 2 * n - 1 - k, step):
                nxt[l] = three_term(sigma[l + 1], a, sigma[l], b, older[l])
            older, sigma = sigma, nxt
        d = sigma[k]
        if not d > 0:
            raise PositivityError(
                k + 1,
                f"leading {k + 1}x{k + 1} block is not positive definite "
                f"(pivot {d!r})",
            )
        if k:
            beta.append(d / pivots[k - 1])
        pivots.append(d)
        row = unit_upper[k]
        row[k] = zero + 1
        for l in range(k + step, n, step):
            row[l] = sigma[l] / d
        if k + 1 < n:
            alpha.append(monic_alpha(unit_upper, k))
    return unit_upper, pivots, alpha, beta


def ldl_positive_definite_limit(moments, n, zero) -> int:
    """Largest ``M <= n`` whose leading ``MxM`` Hankel block is positive definite.

    ``moments`` holds exact ``m_0 .. m_{2n-2}`` (Fractions, as
    :func:`~.moments.positive_definite_limit` passes them, so no float
    rounding can end the walk); ``M`` is the first index with
    ``sigma_{M,M} <= 0`` in :func:`ldl_decompose` (``n`` if there is none).
    """
    try:
        ldl_decompose(moments, n, zero, symmetric=parity_holds(moments, n))
    except PositivityError as err:
        return err.dimension - 1
    return n


def invert_unit_upper(alpha, beta, n, zero, *, symmetric=False):
    """Inverse of the unit upper factor of :func:`ldl_decompose`, in O(N^2).

    Column ``k`` of ``U^{-1}`` holds the monomial coefficients of the monic
    orthogonal polynomial ``pi_k``; columns are built by the three-term
    recurrence from ``alpha[k] = alpha_k`` and ``beta[k - 1] = beta_k``, as
    :func:`ldl_decompose` returns them.  ``symmetric`` skips the entries
    with j + k odd.  Exact for rational input.
    """
    inv = [[zero] * n for _ in range(n)]
    for k in range(n):
        inv[k][k] = zero + 1
    if n > 1 and not symmetric:
        inv[0][1] = -alpha[0]
    for k in range(1, n - 1):
        a, b = alpha[k], beta[k - 1]
        if not symmetric or k % 2:
            inv[0][k + 1] = -a * inv[0][k] - b * inv[0][k - 1]
        first, step = (1 + k % 2, 2) if symmetric else (1, 1)
        for j in range(first, k, step):
            inv[j][k + 1] = three_term(inv[j - 1][k], a, inv[j][k], b, inv[j][k - 1])
        if not symmetric:
            inv[k][k + 1] = inv[k - 1][k] - a
    return inv
