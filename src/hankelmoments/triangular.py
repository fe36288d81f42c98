"""Square-root-free triangular factorization of Hankel truncations.

Works entry-wise over any scalar backend (Fractions stay exact).  The N x N
Hankel truncation ``H = (m_{k+l})`` of a positive definite moment sequence is
decomposed as ``H = U^t D U`` with ``U`` unit upper triangular and ``D`` a
positive diagonal, which realizes the Cholesky factor ``C = D^{1/2} U``
without ever forming square roots.

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
"""

from __future__ import annotations

from .backends import HankelError


class PositivityError(HankelError):
    """A leading principal block failed to be positive definite.

    ``dimension`` is the first failing leading dimension (1-based); at float
    precision this may reflect precision exhaustion rather than true
    indefiniteness, which ``precision_suspect`` flags.
    """

    def __init__(self, dimension: int, message: str, precision_suspect: bool = False):
        super().__init__(message)
        self.dimension = dimension
        self.precision_suspect = precision_suspect


def monic_alpha(unit_upper, k):
    """alpha_k = U[k][k+1] - U[k-1][k] of the monic recurrence (needs k + 1 < N)."""
    if k == 0:
        return unit_upper[0][1]
    return unit_upper[k][k + 1] - unit_upper[k - 1][k]


def ldl_decompose(moments, n, zero, *, precision_suspect=False):
    """Return ``(unit_upper, pivots)`` with ``H = U^t diag(pivots) U``.

    ``moments`` holds ``m_0 .. m_{2n-2}``, the entries of the N x N Hankel
    truncation ``H``.  Runs the Chebyshev algorithm (module docstring) in
    O(N^2) operations.  Raises :class:`PositivityError` at the first
    nonpositive pivot ``sigma_{k,k}``, with ``dimension = k + 1``.
    """
    unit_upper = [[zero] * n for _ in range(n)]
    pivots = []
    older = [zero] * (2 * n - 1)  # sigma_{k-2, .}; sigma_{-1, .} = 0
    sigma = list(moments[: 2 * n - 1])  # sigma_{k, .}, valid for k <= l <= 2n-2-k
    for k in range(n):
        if k:
            alpha = monic_alpha(unit_upper, k - 1)
            beta = pivots[k - 1] / pivots[k - 2] if k > 1 else zero
            nxt = [zero] * (2 * n - 1)
            for l in range(k, 2 * n - 1 - k):
                nxt[l] = sigma[l + 1] - alpha * sigma[l] - beta * older[l]
            older, sigma = sigma, nxt
        d = sigma[k]
        if not d > 0:
            raise PositivityError(
                k + 1,
                f"leading {k + 1}x{k + 1} block is not positive definite "
                f"(pivot {d!r})",
                precision_suspect=precision_suspect,
            )
        pivots.append(d)
        row = unit_upper[k]
        row[k] = zero + 1
        for l in range(k + 1, n):
            row[l] = sigma[l] / d
    return unit_upper, pivots


def ldl_positive_definite_limit(moments, n, zero) -> int:
    """Largest ``M <= n`` whose leading ``MxM`` Hankel block is positive definite.

    ``moments`` holds ``m_0 .. m_{2n-2}``; ``M`` is the first index with
    ``sigma_{M,M} <= 0`` in :func:`ldl_decompose` (``n`` if there is none).
    """
    try:
        ldl_decompose(moments, n, zero)
    except PositivityError as err:
        return err.dimension - 1
    except (OverflowError, ZeroDivisionError):
        return 0
    return n


def invert_unit_upper(unit_upper, pivots, n, zero):
    """Inverse of the unit upper factor of :func:`ldl_decompose`, in O(N^2).

    Column ``k`` of ``U^{-1}`` holds the monomial coefficients of the monic
    orthogonal polynomial ``pi_k``; columns are built by the three-term
    recurrence from ``alpha_k`` and ``beta_k = pivots[k] / pivots[k-1]``.
    Exact for rational input.
    """
    inv = [[zero] * n for _ in range(n)]
    for k in range(n):
        inv[k][k] = zero + 1
    if n > 1:
        inv[0][1] = -monic_alpha(unit_upper, 0)
    for k in range(1, n - 1):
        alpha = monic_alpha(unit_upper, k)
        beta = pivots[k] / pivots[k - 1]
        inv[0][k + 1] = -alpha * inv[0][k] - beta * inv[0][k - 1]
        for j in range(1, k):
            inv[j][k + 1] = inv[j - 1][k] - alpha * inv[j][k] - beta * inv[j][k - 1]
        inv[k][k + 1] = inv[k - 1][k] - alpha
    return inv


def mat_mul(a, b, zero):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = zero
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def utdu_product(unit_upper, pivots, zero):
    """Reassemble ``U^t D U`` (for exact reconstruction checks)."""
    n = len(pivots)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = zero
            for k in range(min(i, j) + 1):
                s = s + unit_upper[k][i] * pivots[k] * unit_upper[k][j]
            out[i][j] = s
    return out
