"""The readers of an exact factor against plain Fraction references.

xi, its image and the residuals of its identity, ``hs_norm_sq_b`` and
``cd_kernel`` of a rational pair work on the pair's integer forms; each must
equal, in value and in type, the same quantity formed entry by entry from the
pair's U, U^-1 and D with the dense oracles of ``conftest``.
"""

import functools
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmoments import (
    RATIONAL_BACKEND as RAT,
    Discrete,
    DiscreteMeasure,
    Gegenbauer,
    MomentSequence,
    PowerLog,
    TriangularPair,
    cd_kernel,
    factor,
    h_xi_identity,
    xi_vector,
)
from hankelmoments.spectral import _xi_and_image

from conftest import mat_mul, rational_points_and_weights

ZERO = F(0)
points = st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=40)


@functools.lru_cache(maxsize=None)
def family_pair(name, n):
    family = PowerLog(1) if name == "hilbert" else Gegenbauer(F(name))
    return factor(MomentSequence(family, RAT), n)


family_pairs = st.one_of(
    st.tuples(st.sampled_from(["0", "1/2", "3/2"]), st.integers(1, 40)),
    st.tuples(st.just("hilbert"), st.integers(1, 24)),
).map(lambda spec: family_pair(*spec))


def column(values):
    return [[v] for v in values]


def monic_reference(tp, t):
    """pi_k(t) = sum_j U^-1[j][k] t^j."""
    return mat_mul([[t**j for j in range(tp.n)]], tp.unit_upper_inv, ZERO)[0]


def xi_reference(tp, t):
    """(xi, image, residuals): xi = U^-1 D^-1 pi(t), image = D U xi and
    U^t image - (t^i)_i, entry by entry."""
    pi = monic_reference(tp, t)
    xi = [r[0] for r in mat_mul(tp.unit_upper_inv, column(p / d for p, d in zip(pi, tp.pivots)),
                                ZERO)]
    image = [d * r[0] for d, r in zip(tp.pivots, mat_mul(tp.unit_upper, column(xi), ZERO))]
    transposed = [list(c) for c in zip(*tp.unit_upper)]
    residuals = [r[0] - t**i for i, r in enumerate(mat_mul(transposed, column(image), ZERO))]
    return xi, image, residuals


def hs_reference(tp):
    sums, acc = [], ZERO
    for j, d in enumerate(tp.pivots):
        square = ZERO
        for i in range(tp.n):
            square = square + tp.unit_upper_inv[i][j] * tp.unit_upper_inv[i][j]
        acc = acc + square / d
        sums.append(acc)
    return sums


def kernel_reference(tp, x, y):
    acc = ZERO
    for px, py, d in zip(monic_reference(tp, x), monic_reference(tp, y), tp.pivots):
        acc = acc + px * py / d
    return acc


def assert_same(ours, reference):
    assert ours == reference
    assert all(type(v) is F for v in ours)


def hand_built(tp):
    return TriangularPair(tp.n, RAT, tp.unit_upper, tp.pivots, tp.unit_upper_inv, None)


def assert_readers_match(tp, t):
    assert tp.integer_forms is not None
    xi, image, residuals = xi_reference(tp, t)
    ours_xi, ours_image = _xi_and_image(tp, t)
    assert_same(ours_xi, xi)
    assert_same(ours_image, image)
    report = h_xi_identity(tp, t)
    assert_same(report.residuals, residuals)
    assert report.exact_zero
    assert_same(tp.hs_norm_sq_b(), hs_reference(tp))
    # a pair built by hand derives its own integer forms and reads the same xi
    hand = hand_built(tp)
    assert hand.integer_forms is not None and not hand.symmetric
    assert_same(xi_vector(hand, t).xi, xi_vector(tp, t).xi)
    assert_same(h_xi_identity(hand, t).residuals, residuals)


@given(tp=family_pairs, t=points)
@settings(max_examples=60, deadline=None)
def test_family_readers_equal_the_dense_references(tp, t):
    assert_readers_match(tp, t)


@given(mu=rational_points_and_weights(), t=points, y=points)
@settings(max_examples=60, deadline=None)
def test_measure_readers_equal_the_dense_references(mu, t, y):
    tp = factor(MomentSequence(Discrete(mu), RAT), mu.size)
    assert_readers_match(tp, t)
    for a, b in [(t, y), (t, t)] + [(p, q) for p in mu.points for q in mu.points]:
        value = cd_kernel(mu, a, b, tp=tp)
        assert value == kernel_reference(tp, a, b) and type(value) is F
    # the reproducing property on the support: K(x_i, x_j) = delta_ij / c_i
    for i, (x, c) in enumerate(zip(mu.points, mu.weights)):
        assert [cd_kernel(mu, x, p, tp=tp) for p in mu.points] == \
            [1 / c if j == i else 0 for j in range(mu.size)]


def test_symmetric_and_full_pairs_are_both_covered():
    assert family_pair("1/2", 12).symmetric
    assert not family_pair("hilbert", 12).symmetric
    # a measure symmetric about 0 factors with the parity skips too
    mu = DiscreteMeasure((F(-1, 2), F(-1, 5), F(1, 5), F(1, 2)), (F(1), F(3), F(3), F(1)))
    tp = factor(MomentSequence(Discrete(mu), RAT), mu.size)
    assert tp.symmetric
    for t in (F(0), F(2, 7), F(-5, 6)):
        assert_readers_match(tp, t)