"""The Chebyshev-algorithm factorization against dense elimination.

``dense_ldl`` and ``dense_inverse`` are the O(N^3) Cholesky-type elimination
and back substitution that the Hankel-structured routines replaced; they are
kept here as the reference the exact results must equal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from hankelmoments import Discrete, Gegenbauer, MomentSequence, PositivityError, RATIONAL_BACKEND
from hankelmoments.triangular import (
    invert_unit_upper,
    ldl_decompose,
    ldl_positive_definite_limit,
)

from conftest import rational_points_and_weights

F = Fraction


def dense_ldl(rows, n, zero):
    """Reference: rows = U^t diag(pivots) U by column elimination, O(N^3)."""
    lower = [[zero] * n for _ in range(n)]
    pivots = []
    for j in range(n):
        d = rows[j][j]
        for k in range(j):
            d = d - lower[j][k] * lower[j][k] * pivots[k]
        if not d > 0:
            raise PositivityError(j + 1, f"pivot {d!r}")
        pivots.append(d)
        lower[j][j] = zero + 1
        for i in range(j + 1, n):
            s = rows[i][j]
            for k in range(j):
                s = s - lower[i][k] * lower[j][k] * pivots[k]
            lower[i][j] = s / d
    return [[lower[j][i] for j in range(n)] for i in range(n)], pivots


def dense_inverse(unit_upper, n, zero):
    """Reference: inverse of a unit upper triangular matrix by back substitution."""
    inv = [[zero] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = zero + 1
        for i in range(j - 1, -1, -1):
            s = zero
            for k in range(i + 1, j + 1):
                s = s + unit_upper[i][k] * inv[k][j]
            inv[i][j] = -s
    return inv


def rows_of(block, n):
    return [block[k : k + n] for k in range(n)]


def assert_matches_dense(block, n):
    zero = F(0)
    unit_upper, pivots = ldl_decompose(block, n, zero)
    ref_upper, ref_pivots = dense_ldl(rows_of(block, n), n, zero)
    assert unit_upper == ref_upper
    assert pivots == ref_pivots
    assert invert_unit_upper(unit_upper, pivots, n, zero) == dense_inverse(ref_upper, n, zero)


@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(1), F(3, 2)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_gegenbauer_factors_equal_dense_elimination(lam, n):
    block = MomentSequence(Gegenbauer(lam), RATIONAL_BACKEND).moments(2 * n - 1)
    assert_matches_dense(block, n)


@given(mu=rational_points_and_weights(max_points=5))
@settings(max_examples=30, deadline=None)
def test_discrete_factors_equal_dense_elimination(mu):
    ms = MomentSequence(Discrete(mu), RATIONAL_BACKEND)
    assert_matches_dense(ms.moments(2 * mu.size - 1), mu.size)
    # one dimension past the support the truncation is singular: both
    # routines stop at the same pivot, and the probe reports the support size
    n = mu.size + 1
    block = ms.moments(2 * n - 1)
    with pytest.raises(PositivityError) as ours:
        ldl_decompose(block, n, F(0))
    with pytest.raises(PositivityError) as ref:
        dense_ldl(rows_of(block, n), n, F(0))
    assert ours.value.dimension == ref.value.dimension == n
    assert ldl_positive_definite_limit(block, n, F(0)) == mu.size


def test_indefinite_block_reports_first_failing_dimension():
    block = [F(1), F(0), F(1), F(0), F(-1)]  # [[1, 0, 1], [0, 1, 0], [1, 0, -1]]
    with pytest.raises(PositivityError) as err:
        ldl_decompose(block, 3, F(0), precision_suspect=True)
    assert err.value.dimension == 3
    assert err.value.precision_suspect
    assert ldl_positive_definite_limit(block, 3, F(0)) == 2


class _Counted:
    """A Fraction that counts the multiplications and divisions made with it."""

    __slots__ = ("value", "counter")

    def __init__(self, value, counter):
        self.value = value
        self.counter = counter

    def _wrap(self, value):
        return _Counted(value, self.counter)

    @staticmethod
    def _raw(other):
        return other.value if isinstance(other, _Counted) else other

    def __add__(self, other):
        return self._wrap(self.value + self._raw(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._wrap(self.value - self._raw(other))

    def __rsub__(self, other):
        return self._wrap(self._raw(other) - self.value)

    def __neg__(self):
        return self._wrap(-self.value)

    def __mul__(self, other):
        self.counter[0] += 1
        return self._wrap(self.value * self._raw(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        self.counter[0] += 1
        return self._wrap(self.value / self._raw(other))

    def __gt__(self, other):
        return self.value > self._raw(other)


def test_factorization_needs_quadratically_many_multiplications():
    n = 48
    counter = [0]
    block = MomentSequence(Gegenbauer(F(1)), RATIONAL_BACKEND).moments(2 * n - 1)
    counted = [_Counted(m, counter) for m in block]
    zero = _Counted(F(0), counter)
    unit_upper, pivots = ldl_decompose(counted, n, zero)
    invert_unit_upper(unit_upper, pivots, n, zero)
    assert counter[0] <= 4 * n * n
    # the counter does count: dense elimination needs about N^3 / 3
    counter[0] = 0
    dense_inverse(dense_ldl(rows_of(counted, n), n, zero)[0], n, zero)
    assert counter[0] > n**3 / 3
