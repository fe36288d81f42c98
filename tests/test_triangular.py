"""The Chebyshev-algorithm factorization against dense elimination.

``dense_ldl`` and ``dense_inverse`` are the O(N^3) Cholesky-type elimination
and back substitution that the Hankel-structured routines replaced, and
``horner_values`` is the O(N^2) evaluation over the columns of U^{-1} that
the recurrence in ``TriangularPair.monic_values`` replaced; they are kept here
as the reference the exact results must equal.  ``full_ldl``,
``full_inverse`` and ``full_xi`` are the Chebyshev, inverse and xi loops with
every entry formed, as they were before the parity skip: the skipped results
must equal theirs bit for bit.
"""

from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmoments import (
    Discrete,
    DiscreteMeasure,
    Explicit,
    F64_BACKEND,
    Gaussian,
    Gegenbauer,
    LogNormal,
    MomentSequence,
    PositivityError,
    PowerLog,
    RATIONAL_BACKEND,
    TriangularPair,
    bigfloat,
    factor,
    h_xi_identity,
)
from hankelmoments import orthopoly, triangular
from hankelmoments.backends import RATIONAL, dot, three_term
from hankelmoments.spectral import _xi_and_image
from hankelmoments.triangular import (
    invert_unit_upper,
    ldl_decompose,
    ldl_positive_definite_limit,
    monic_alpha,
    parity_holds,
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


def horner_values(inv, n, x):
    """Reference: pi_k(x) by Horner's rule over column k of U^{-1}, O(N^2)."""
    values = []
    for k in range(n):
        acc = x * 0
        for j in range(k, -1, -1):
            acc = acc * x + inv[j][k]
        values.append(acc)
    return values


def rows_of(block, n):
    return [block[k : k + n] for k in range(n)]


def pair_of(unit_upper, pivots, inv):
    n = len(pivots)
    return TriangularPair(
        n, RATIONAL_BACKEND, tuple(map(tuple, unit_upper)), tuple(pivots),
        tuple(map(tuple, inv)), None,
    )


def assert_matches_dense(block, n, points):
    zero = F(0)
    symmetric = parity_holds(block, n)
    unit_upper, pivots, alpha, beta, _ = ldl_decompose(block, n, zero, symmetric=symmetric)
    ref_upper, ref_pivots = dense_ldl(rows_of(block, n), n, zero)
    assert unit_upper == ref_upper
    assert pivots == ref_pivots
    ref_inv = dense_inverse(ref_upper, n, zero)
    inv, _ = invert_unit_upper(alpha, beta, n, zero, symmetric=symmetric)
    assert inv == ref_inv
    tp = pair_of(unit_upper, pivots, inv)
    for x in points:
        assert tp.monic_values(x) == horner_values(ref_inv, n, x)


@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(1), F(3, 2)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_gegenbauer_factors_equal_dense_elimination(lam, n):
    block = MomentSequence(Gegenbauer(lam), RATIONAL_BACKEND).moments(2 * n - 1)
    assert_matches_dense(block, n, [F(0), F(1, 3), F(-7, 10), F(1), F(5, 2)])


@given(mu=rational_points_and_weights(max_points=5))
@settings(max_examples=30, deadline=None)
def test_discrete_factors_equal_dense_elimination(mu):
    ms = MomentSequence(Discrete(mu), RATIONAL_BACKEND)
    assert_matches_dense(ms.moments(2 * mu.size - 1), mu.size, mu.points)
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
        ldl_decompose(block, 3, F(0))
    assert err.value.dimension == 3
    assert ldl_positive_definite_limit(block, 3, F(0)) == 2


@st.composite
def rational_blocks(draw):
    """(moments, n): the Hilbert block, a Gegenbauer block, the block of a
    rational measure at its support size or one past it, or a Hankel block
    of random Fractions, mostly indefinite."""
    kind = draw(st.sampled_from(["hilbert", "gegenbauer", "measure", "random"]))
    if kind == "measure":
        mu = draw(rational_points_and_weights(max_points=5))
        n = mu.size + draw(st.integers(0, 1))
        return MomentSequence(Discrete(mu), RATIONAL_BACKEND).moments(2 * n - 1), n
    n = draw(st.integers(1, 12 if kind != "random" else 6))
    if kind == "hilbert":
        return [F(1, j + 1) for j in range(2 * n - 1)], n
    if kind == "gegenbauer":
        lam = draw(st.fractions(min_value=F(-2, 5), max_value=F(4), max_denominator=6))
        return MomentSequence(Gegenbauer(lam), RATIONAL_BACKEND).moments(2 * n - 1), n
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    return draw(st.lists(entry, min_size=2 * n - 1, max_size=2 * n - 1)), n


def outcome(run):
    """What ``run()`` returns, or the dimension of its PositivityError."""
    try:
        return run()
    except PositivityError as err:
        return err.dimension


@given(case=rational_blocks())
@settings(max_examples=80, deadline=None)
def test_integer_kernels_equal_the_scalar_loops_and_dense_elimination(case):
    block, n = case
    zero = F(0)
    symmetric = parity_holds(block, n)
    ours = outcome(lambda: ldl_decompose(block, n, zero, symmetric=symmetric))
    full = outcome(lambda: full_ldl(block, n, zero))
    dense = outcome(lambda: dense_ldl(rows_of(block, n), n, zero))
    limit = ldl_positive_definite_limit(block, n, zero)
    if isinstance(ours, int):
        assert ours == full == dense == limit + 1
        return
    assert limit == n
    unit_upper, pivots, alpha, beta, rows = ours
    # bits_of checks the type of every entry as well as its value
    assert bits_of(unit_upper) == bits_of(full[0]) == bits_of(dense[0])
    assert bits_of([pivots]) == bits_of([full[1]]) == bits_of([dense[1]])
    reference = pair_of(*full, full_inverse(*full, n, zero))
    assert bits_of(reference.monic_recurrence) == bits_of([alpha, beta])
    inv, columns = invert_unit_upper(alpha, beta, n, zero, symmetric=symmetric)
    assert bits_of(inv) == bits_of(reference.unit_upper_inv)
    assert bits_of(inv) == bits_of(dense_inverse(dense[0], n, zero))
    # the integer forms are U and U^-1 over their diagonal entries
    assert [[F(s, row[k]) for s in row] for k, row in enumerate(rows)] == unit_upper
    assert [[F(col[j], col[k]) for k, col in enumerate(columns)] for j in range(n)] == inv


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

    def __eq__(self, other):
        return self.value == self._raw(other)

    def __bool__(self):
        return bool(self.value)


def counted_factor(block, n):
    """(counter, U, pivots, U^-1) of the factorization of ``block``, parity
    skip included where it holds.  counter[0] holds what the exact kernels
    formed: each integer entry of a row step (``triangular._row_step``, three
    products and two differences) and each Fraction they built; the factors
    come back as _Counted scalars on the same counter."""
    counter = [0]
    row_step = triangular._row_step

    def counting_step(*args):
        entries, den = row_step(*args)
        counter[0] += len(entries)
        return entries, den

    def counting_fraction(*args):
        counter[0] += 1
        return F(*args)

    symmetric = parity_holds(block, n)
    with mock.patch.object(triangular, "_row_step", counting_step), \
            mock.patch.object(triangular, "Fraction", counting_fraction):
        unit_upper, pivots, alpha, beta, _ = ldl_decompose(block, n, F(0), symmetric=symmetric)
        inv, _ = invert_unit_upper(alpha, beta, n, F(0), symmetric=symmetric)

    def counted(rows):
        return [[_Counted(x, counter) for x in row] for row in rows]

    return counter, counted(unit_upper), [_Counted(d, counter) for d in pivots], counted(inv)


def test_factorization_needs_quadratically_many_multiplications():
    n = 48
    block = MomentSequence(Gegenbauer(F(1)), RATIONAL_BACKEND).moments(2 * n - 1)
    # Hilbert moments 1/(j+1) have no parity zeros: every entry is formed
    hilbert = [F(1, j + 1) for j in range(2 * n - 1)]
    general = counted_factor(hilbert, n)[0]
    assert general[0] <= 4 * n * n
    # a symmetric block forms half of them: the counter reads 5688 for the
    # Hilbert block and 2879 for this one (and for Gaussian moments), so the
    # parity skip is what keeps it under 1.8 N^2 = 4147
    counter, unit_upper, pivots, inv = counted_factor(block, n)
    assert general[0] > 1.8 * n * n >= counter[0]
    # one point of the monic polynomials takes O(N) by the recurrence ...
    counter[0] = 0
    x = F(1, 3)
    values = pair_of(unit_upper, pivots, inv).monic_values(x)
    assert counter[0] <= 4 * n
    # ... where Horner over the columns of U^{-1} takes about N^2 / 2
    counter[0] = 0
    reference = horner_values(inv, n, x)
    assert counter[0] > n * n / 3
    assert [_Counted._raw(v) for v in values] == [_Counted._raw(r) for r in reference]
    # the counter does count: dense elimination needs about N^3 / 3
    counter[0] = 0
    counted = [_Counted(m, counter) for m in block]
    zero = _Counted(F(0), counter)
    dense_inverse(dense_ldl(rows_of(counted, n), n, zero)[0], n, zero)
    assert counter[0] > n**3 / 3


# ---------------------------------------------------------------------------
# the parity skip against the unskipped loops
# ---------------------------------------------------------------------------


def full_ldl(moments, n, zero):
    """The Chebyshev loops forming every sigma and every entry of U, one
    :func:`three_term` per sigma."""
    unit_upper = [[zero] * n for _ in range(n)]
    pivots = []
    older = [zero] * (2 * n - 1)
    sigma = list(moments[: 2 * n - 1])
    for k in range(n):
        if k:
            alpha = monic_alpha(unit_upper, k - 1)
            beta = pivots[k - 1] / pivots[k - 2] if k > 1 else zero
            nxt = [zero] * (2 * n - 1)
            for l in range(k, 2 * n - 1 - k):
                nxt[l] = three_term(sigma[l + 1], alpha, sigma[l], beta, older[l])
            older, sigma = sigma, nxt
        d = sigma[k]
        if not d > 0:
            raise PositivityError(k + 1, f"pivot {d!r}")
        pivots.append(d)
        row = unit_upper[k]
        row[k] = zero + 1
        for l in range(k + 1, n):
            row[l] = sigma[l] / d
    return unit_upper, pivots


def full_inverse(unit_upper, pivots, n, zero):
    """The inverse loops forming every entry of U^-1, alpha and beta anew."""
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
            inv[j][k + 1] = three_term(inv[j - 1][k], alpha, inv[j][k], beta, inv[j][k - 1])
        inv[k][k + 1] = inv[k - 1][k] - alpha
    return inv


def full_xi(tp, t):
    """xi(t), its image D U xi and the residuals U^t (D U xi) - (t^i)_i, with
    every product over the whole row or column."""
    backend, n = tp.backend, tp.n
    y = tp.monic_values(t)
    with backend.context():
        z = [y[k] / tp.pivots[k] for k in range(n)]
        xi = [dot(tp.unit_upper_inv[i][i:], z[i:]) for i in range(n)]
        image = [dot(tp.unit_upper[k][k:], xi[k:]) * tp.pivots[k] for k in range(n)]
        tv, power, residuals = backend.convert(t), backend.one(), []
        for i, column in enumerate(zip(*tp.unit_upper)):
            residuals.append(dot(column[: i + 1], image[: i + 1]) - power)
            power = power * tv
    return xi, image, residuals


def bits(value):
    """A key equal for two scalars exactly when their bits are: the Fraction,
    the hex of a float (signed zeros apart) or the raw tuple of an mpf."""
    if isinstance(value, float):
        return "f64", value.hex()
    if isinstance(value, mpmath.mpf):
        return "mpf", value._mpf_
    assert type(value) is Fraction
    return "rational", value


def bits_of(rows):
    return [[bits(x) for x in row] for row in rows]


def assert_parity_skip_is_bit_identical(ms, n, points):
    """The pair factor() makes, and its xi, image and residuals, against the
    unskipped loops: for exact data, those above run on the same moments;
    for float data, the graded run and read-off with parity never holding,
    at the same rung."""
    tp = factor(ms, n)
    backend = tp.backend
    zero = backend.zero()
    if backend.kind == RATIONAL:
        block = ms.moments(2 * n - 1)
        ref_upper, ref_pivots = full_ldl(block, n, zero)
        ref_inv = full_inverse(ref_upper, ref_pivots, n, zero)
        ref = TriangularPair(n, backend, tuple(map(tuple, ref_upper)), tuple(ref_pivots),
                             tuple(map(tuple, ref_inv)), None)
    else:
        with mock.patch.object(orthopoly, "parity_holds", lambda moments, n: False):
            ref = factor(ms, n)
        assert ref.precision_bits == tp.precision_bits and not ref.symmetric
        assert_float_inverse_is_the_loop_as_written(ref)
    assert bits_of(tp.unit_upper) == bits_of(ref.unit_upper)
    assert bits_of([tp.pivots]) == bits_of([ref.pivots])
    assert bits_of(tp.unit_upper_inv) == bits_of(ref.unit_upper_inv)
    assert bits_of(tp.monic_recurrence) == bits_of(ref.monic_recurrence)
    for t in points:
        xi, image = _xi_and_image(tp, t)
        residuals = h_xi_identity(tp, t).residuals
        assert bits_of([xi, image, residuals]) == bits_of(full_xi(ref, t))
    return tp


def assert_float_inverse_is_the_loop_as_written(tp):
    """U^-1 of a float pair, stepped by the one column rule with zero for
    the neighbours past the column ends, has the bits of the loop that
    writes out the first row and the line next to the diagonal."""
    with tp.backend.context():
        ref = full_inverse(tp.unit_upper, tp.pivots, tp.n, tp.backend.zero())
    assert bits_of(tp.unit_upper_inv) == bits_of(ref)


@pytest.mark.parametrize("backend", [F64_BACKEND, bigfloat(128)], ids=lambda b: b.tag())
@pytest.mark.parametrize("family", [PowerLog(1), LogNormal(1), Explicit(tuple(
    F(1, 3**j) + F(1, (j + 1) ** 2) for j in range(23)))], ids=repr)
def test_float_inverse_is_the_loop_as_written(family, backend):
    assert_float_inverse_is_the_loop_as_written(factor(MomentSequence(family, backend), 12))


BACKENDS = [RATIONAL_BACKEND, F64_BACKEND, bigfloat(128), bigfloat(256)]


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.tag())
@pytest.mark.parametrize("family", [Gegenbauer(F(0)), Gegenbauer(F(1, 2)), Gegenbauer(F(1)),
                                    Gegenbauer(F(3, 2)), Gaussian()], ids=repr)
def test_parity_skip_is_bit_identical(family, backend):
    tp = assert_parity_skip_is_bit_identical(
        MomentSequence(family, backend), 24, [F(0), F(1, 3), F(-5, 7)])
    assert tp.symmetric


@st.composite
def symmetric_measures(draw):
    """Points -x_i and x_i with equal weights, and perhaps a mass at 0."""
    halves = draw(st.lists(st.fractions(min_value=F(1, 12), max_value=F(9, 10),
                                        max_denominator=12),
                           min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.fractions(min_value=F(1, 12), max_value=F(3), max_denominator=12),
                            min_size=len(halves) + 1, max_size=len(halves) + 1))
    masses = {x: w for x, w in zip(halves, weights)}
    masses.update({-x: w for x, w in zip(halves, weights)})
    if draw(st.booleans()):
        masses[F(0)] = weights[-1]
    points = tuple(sorted(masses))
    return DiscreteMeasure(points, tuple(masses[x] for x in points))


@given(mu=symmetric_measures())
@settings(max_examples=20, deadline=None)
def test_parity_skip_is_bit_identical_on_symmetric_measures(mu):
    for backend in (RATIONAL_BACKEND, F64_BACKEND, bigfloat(128)):
        tp = assert_parity_skip_is_bit_identical(
            MomentSequence(Discrete(mu), backend), mu.size, [F(0), F(1, 3)])
        if backend is RATIONAL_BACKEND:
            assert tp.symmetric


def test_one_nonzero_odd_moment_takes_the_full_path():
    n = 6
    values = list(MomentSequence(Gegenbauer(F(1, 2)), RATIONAL_BACKEND).moments(2 * n - 1))
    assert parity_holds(values, n)
    values[2 * n - 3] = F(1, 1000)  # the last odd moment the truncation reads
    assert not parity_holds(values, n)
    for backend in (RATIONAL_BACKEND, bigfloat(128)):
        tp = assert_parity_skip_is_bit_identical(
            MomentSequence(Explicit(tuple(values)), backend), n, [F(1, 3)])
        assert not tp.symmetric
