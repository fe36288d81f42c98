from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmoments import (
    Discrete,
    DiscreteMeasure,
    EmptyMeasureError,
    F64_BACKEND,
    HypothesisViolationError,
    MomentSequence,
    RATIONAL_BACKEND,
    bigfloat,
    cd_kernel,
    factor,
    kernel_vector_check,
    perturbation_check,
    remove_masses,
)
from hankelmoments.moments import classify

from conftest import rational_points_and_weights

F = Fraction
RAT = RATIONAL_BACKEND


def removal_cases():
    return rational_points_and_weights(max_points=6).flatmap(
        lambda mu: st.sets(
            st.integers(min_value=0, max_value=mu.size - 1),
            min_size=0,
            max_size=mu.size - 1,
        ).map(lambda idx: (mu, sorted(idx)))
    )


# ---------------------------------------------------------------------------
# measure surgery
# ---------------------------------------------------------------------------


def test_remove_single_mass(three_point_measure):
    trimmed = remove_masses(three_point_measure, [2])
    ms = MomentSequence(Discrete(trimmed), RAT)
    assert ms.moment(0) == F(3, 4)
    assert ms.moment(1) == F(-1, 8)


def test_remove_nothing_is_identity(three_point_measure):
    assert remove_masses(three_point_measure, []) == three_point_measure


def test_remove_two_leaves_rank_one(three_point_measure):
    trimmed = remove_masses(three_point_measure, [0, 1])
    assert trimmed.size == 1
    result = classify(MomentSequence(Discrete(trimmed), RAT), 4)
    assert result.positive_definite_up_to == 1


def test_remove_everything_fails(three_point_measure):
    with pytest.raises(EmptyMeasureError):
        remove_masses(three_point_measure, [0, 1, 2])


def test_remove_validates_indices(three_point_measure):
    with pytest.raises(IndexError):
        remove_masses(three_point_measure, [5])
    with pytest.raises(ValueError):
        remove_masses(three_point_measure, [1, 1])


@pytest.mark.parametrize("weights", [["1", "2", "3"], ["1"]], ids=["extra", "missing"])
def test_from_lists_checks_the_lengths_before_sorting(weights):
    # the sort pairs points and weights by index: a third weight was dropped,
    # and a missing one raised a bare IndexError
    with pytest.raises(ValueError, match=f"2 points and {len(weights)} weights"):
        DiscreteMeasure.from_lists(["1/2", "-1/2"], weights)
    mu = DiscreteMeasure.from_lists(["1/2", "-1/2"], ["1", "2"])
    assert mu == DiscreteMeasure((F(-1, 2), F(1, 2)), (F(2), F(1)))


@given(case=removal_cases())
@settings(max_examples=40, deadline=None)
def test_moment_additivity(case):
    mu, indices = case
    if not indices:
        return
    trimmed = remove_masses(mu, indices)
    full = MomentSequence(Discrete(mu), RAT)
    part = MomentSequence(Discrete(trimmed), RAT)
    for n in range(8):
        removed = sum(mu.weights[i] * mu.points[i] ** n for i in indices)
        assert full.moment(n) == part.moment(n) + removed


# ---------------------------------------------------------------------------
# the rank-one correction identity
# ---------------------------------------------------------------------------


def test_perturbation_three_point_frozen(three_point_measure):
    report = perturbation_check(three_point_measure, [2], 4)
    assert report.deviation == 0
    assert report.exact
    assert report.correction_coefficients == [F(1, 3)]
    assert "finite-surrogate" in report.banner


def test_perturbation_empty_removal(three_point_measure):
    report = perturbation_check(three_point_measure, [], 3)
    assert report.deviation == 0
    assert report.correction == [[0] * 3 for _ in range(3)]


def test_perturbation_rank_two(three_point_measure):
    report = perturbation_check(three_point_measure, [0, 2], 4)
    assert report.deviation == 0
    assert report.exact
    assert len(report.correction_coefficients) == 2


@pytest.mark.parametrize("check", [perturbation_check, kernel_vector_check])
def test_checks_reject_an_index_past_the_support(three_point_measure, check):
    # remove_masses checks the range for both
    with pytest.raises(IndexError, match="out of range for 3 points"):
        check(three_point_measure, [three_point_measure.size], 3)


def test_perturbation_rejects_boundary_points():
    mu = DiscreteMeasure((F(-1), F(1, 2)), (F(1), F(1)))
    with pytest.raises(HypothesisViolationError):
        perturbation_check(mu, [0], 3)


@given(case=removal_cases(), n=st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_perturbation_identity_randomized(case, n):
    mu, indices = case
    report = perturbation_check(mu, indices, n)
    assert report.deviation == 0
    assert report.exact or not indices


def test_perturbation_readding_masses_elsewhere(three_point_measure):
    # moving a removed mass to a fresh interior point keeps the identity
    trimmed = remove_masses(three_point_measure, [2])
    moved = DiscreteMeasure.from_lists(
        list(trimmed.points) + [F(1, 4)], list(trimmed.weights) + [F(1, 4)]
    )
    report = perturbation_check(moved, [1], moved.size)
    assert report.deviation == 0


# ---------------------------------------------------------------------------
# reproducing kernel on the surrogate
# ---------------------------------------------------------------------------


def test_cd_kernel_frozen_values(three_point_measure):
    assert cd_kernel(three_point_measure, F(0), F(0)) == 2
    assert cd_kernel(three_point_measure, F(-1, 2), F(-1, 2)) == 4


def test_cd_kernel_off_diagonal_vanishes(three_point_measure):
    pts = three_point_measure.points
    for i in range(3):
        for j in range(3):
            value = cd_kernel(three_point_measure, pts[i], pts[j])
            expected = (
                1 / three_point_measure.weights[i] if i == j else F(0)
            )
            assert value == expected


def test_cd_kernel_single_point():
    mu = DiscreteMeasure((F(1, 3),), (F(2, 5),))
    assert cd_kernel(mu, F(1, 3), F(1, 3)) == F(5, 2)


@given(mu=rational_points_and_weights(max_points=5))
@settings(max_examples=40, deadline=None)
def test_cd_kernel_delta_over_weight(mu):
    for i, (x, c) in enumerate(zip(mu.points, mu.weights)):
        assert cd_kernel(mu, x, x) == 1 / c
        if i + 1 < mu.size:
            assert cd_kernel(mu, x, mu.points[i + 1]) == 0


def test_cd_kernel_symmetric(three_point_measure):
    a, b = F(1, 5), F(-2, 7)
    assert cd_kernel(three_point_measure, a, b) == cd_kernel(three_point_measure, b, a)


def test_cd_kernel_eight_point_measure():
    mu = DiscreteMeasure(
        tuple(F(2 * i - 7, 9) for i in range(8)),
        tuple(F(i + 1, 13) for i in range(8)),
    )
    for i, (x, c) in enumerate(zip(mu.points, mu.weights)):
        assert cd_kernel(mu, x, x) == 1 / c
        for j in range(i):
            assert cd_kernel(mu, x, mu.points[j]) == 0


@pytest.mark.parametrize("backend", [F64_BACKEND, bigfloat(128)], ids=lambda b: b.tag())
@given(mu=rational_points_and_weights(max_points=6))
@settings(max_examples=30, deadline=None)
def test_cd_kernel_float_backends_match_the_exact_kernel(backend, mu):
    pts = mu.points
    tp = factor(MomentSequence(Discrete(mu), backend), mu.size)
    exact = [[cd_kernel(mu, x, y) for y in pts] for x in pts]
    scale = max(abs(float(v)) for row in exact for v in row)
    for x, row in zip(pts, exact):
        for y, value in zip(pts, row):
            assert abs(float(cd_kernel(mu, x, y, tp=tp)) - float(value)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# kernel vectors of the trimmed truncation
# ---------------------------------------------------------------------------


def test_kernel_vector_exact_zero(three_point_measure):
    report = kernel_vector_check(three_point_measure, [2])
    assert report.exact_zero
    assert report.residual_norms == [0.0]
    assert "finite-surrogate" in report.banner


def test_kernel_vector_without_removal_is_injective(three_point_measure):
    report = kernel_vector_check(three_point_measure, [])
    assert report.residual_norms == []
    # the untrimmed truncation maps xi(x_j) to the geometric vector (x_j^n)
    from hankelmoments import factor, xi_vector

    ms = MomentSequence(Discrete(three_point_measure), RAT)
    tp = factor(ms, 3)
    xi = xi_vector(tp, F(1, 2)).xi
    image = [
        sum(ms.moment(row + col) * xi[col] for col in range(3)) for row in range(3)
    ]
    assert image == [1, F(1, 2), F(1, 4)]
    assert any(v != 0 for v in image)


def test_kernel_vector_scaling_invariance(three_point_measure):
    doubled = DiscreteMeasure(
        three_point_measure.points, tuple(2 * w for w in three_point_measure.weights)
    )
    report = kernel_vector_check(doubled, [2])
    assert report.exact_zero


def test_kernel_vector_multiple_removals():
    mu = DiscreteMeasure(
        (F(-2, 3), F(-1, 4), F(1, 5), F(1, 2)),
        (F(1, 3), F(1, 4), F(1, 6), F(1, 5)),
    )
    report = kernel_vector_check(mu, [0, 3])
    assert report.exact_zero
    assert report.residual_norms == [0.0, 0.0]


def test_kernel_vector_short_embedding_leaves_a_residual(three_point_measure):
    # xi(1/2) cut to its first two entries is no longer in the kernel
    report = kernel_vector_check(three_point_measure, [2], k_tail=2)
    assert report.embedding_length == 2 and report.n == 3
    assert report.residual_norms == [pytest.approx(0.5728219618, abs=1e-10)]
    assert not report.exact_zero


def test_kernel_vector_respects_rank_limits(three_point_measure):
    with pytest.raises(ValueError):
        kernel_vector_check(three_point_measure, [0], n=5)


def test_kernel_vector_boundary_point_rejected():
    mu = DiscreteMeasure((F(-1, 2), F(1)), (F(1, 2), F(1, 2)))
    with pytest.raises(HypothesisViolationError):
        kernel_vector_check(mu, [1])


# ---------------------------------------------------------------------------
# quadratic forms against vanishing vectors
# ---------------------------------------------------------------------------


def vanishing_combination(mu, indices, coeffs):
    """Coefficients of q(x) * prod_j (x - x_j): a polynomial vanishing at the
    removed points, for quadratic-form comparisons between mu and mu~."""
    poly = list(coeffs)
    for i in indices:
        x = mu.points[i]
        shifted = [0 * poly[0]] + poly
        scaled = [a * (-x) for a in poly] + [0 * poly[0]]
        poly = [s + t for s, t in zip(shifted, scaled)]
    return poly


@given(case=removal_cases())
@settings(max_examples=40, deadline=None)
def test_quadratic_form_unchanged_on_vanishing_vectors(case):
    mu, indices = case
    if not indices:
        return
    g = vanishing_combination(mu, indices, [F(1), F(-2), F(1, 3)])
    # g's generating polynomial vanishes at every removed point
    for i in indices:
        x = mu.points[i]
        assert sum(c * x**k for k, c in enumerate(g)) == 0
    trimmed = remove_masses(mu, indices)
    full = MomentSequence(Discrete(mu), RAT)
    part = MomentSequence(Discrete(trimmed), RAT)
    n = len(g)
    q_full = sum(
        full.moment(k + l) * g[k] * g[l] for k in range(n) for l in range(n)
    )
    q_part = sum(
        part.moment(k + l) * g[k] * g[l] for k in range(n) for l in range(n)
    )
    assert q_full == q_part


def test_float_backend_perturbation_small_roundoff(three_point_measure):
    report = perturbation_check(three_point_measure, [2], 4, F64_BACKEND)
    assert float(report.deviation) < 1e-15
    assert not report.exact
