"""Square-root-free triangular factorization of positive definite matrices.

Works entry-wise over any scalar backend (Fractions stay exact).  A symmetric
positive definite ``H`` is decomposed as ``H = U^t D U`` with ``U`` unit upper
triangular and ``D`` a positive diagonal, which realizes the Cholesky factor
``C = D^{1/2} U`` without ever forming square roots.
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


def ldl_decompose(rows, n, zero, *, precision_suspect=False):
    """Return ``(unit_upper, pivots)`` with ``rows = U^t diag(pivots) U``.

    ``rows`` is indexed ``rows[i][j]``; only the lower triangle is read.
    Raises :class:`PositivityError` at the first nonpositive pivot.
    """
    lower = [[zero] * n for _ in range(n)]
    pivots = []
    for j in range(n):
        d = rows[j][j]
        for k in range(j):
            d = d - lower[j][k] * lower[j][k] * pivots[k]
        if not d > 0:
            raise PositivityError(
                j + 1,
                f"leading {j + 1}x{j + 1} block is not positive definite "
                f"(pivot {d!r})",
                precision_suspect=precision_suspect,
            )
        pivots.append(d)
        lower[j][j] = zero + 1
        for i in range(j + 1, n):
            s = rows[i][j]
            for k in range(j):
                s = s - lower[i][k] * lower[j][k] * pivots[k]
            lower[i][j] = s / d
    unit_upper = [[lower[j][i] for j in range(n)] for i in range(n)]
    return unit_upper, pivots


def ldl_positive_definite_limit(rows, n, zero) -> int:
    """Largest ``M <= n`` whose leading ``MxM`` block is positive definite."""
    try:
        ldl_decompose(rows, n, zero)
    except PositivityError as err:
        return err.dimension - 1
    except (OverflowError, ZeroDivisionError):
        return 0
    return n


def invert_unit_upper(unit_upper, n, zero):
    """Exact inverse of a unit upper triangular matrix (back substitution)."""
    inv = [[zero] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = zero + 1
        for i in range(j - 1, -1, -1):
            s = zero
            for k in range(i + 1, j + 1):
                s = s + unit_upper[i][k] * inv[k][j]
            inv[i][j] = -s
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
