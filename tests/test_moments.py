import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmoments import (
    BackendError,
    Discrete,
    DiscreteMeasure,
    Explicit,
    F64_BACKEND,
    Gaussian,
    Gegenbauer,
    LogNormal,
    MissingMomentError,
    MomentSequence,
    PowerLog,
    PrecisionError,
    RATIONAL_BACKEND,
    bigfloat,
    classify,
)

RAT = RATIONAL_BACKEND


def seq(family, backend=RAT):
    return MomentSequence(family, backend)


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------


def test_power_log_moment():
    assert seq(PowerLog(1)).moment(3) == Fraction(1, 4)
    assert seq(PowerLog(2)).moment(3) == Fraction(1, 16)


def test_gegenbauer_even_moment():
    # (1/2)_2 / (3/2)_2 = (3/4) / (15/4)
    assert seq(Gegenbauer(Fraction(1, 2))).moment(4) == Fraction(1, 5)


def test_gegenbauer_odd_moments_vanish():
    ms = seq(Gegenbauer(Fraction(1, 2)))
    assert ms.moment(3) == 0


def test_discrete_moment(three_point_measure):
    ms = seq(Discrete(three_point_measure))
    assert ms.moment(2) == Fraction(1, 8)


def test_gaussian_double_factorial():
    ms = seq(Gaussian())
    assert [ms.moment(n) for n in range(7)] == [1, 0, 1, 0, 3, 0, 15]


def test_log_normal_value():
    ms = seq(LogNormal(1.0), F64_BACKEND)
    assert ms.moment(2) == pytest.approx(math.exp(2.0))


def test_parameter_validation():
    with pytest.raises(ValueError):
        PowerLog(0)
    with pytest.raises(ValueError):
        Gegenbauer(-0.5)
    with pytest.raises(ValueError):
        LogNormal(0)
    with pytest.raises(ValueError):
        seq(PowerLog(1)).moment(-1)


def test_explicit_missing_index():
    ms = seq(Explicit.from_list(["1", "0", "1/2"]))
    assert ms.moment(2) == Fraction(1, 2)
    with pytest.raises(MissingMomentError):
        ms.moment(3)


def test_rational_backend_refusals():
    with pytest.raises(BackendError):
        seq(PowerLog(Fraction(1, 2))).moment(1)
    with pytest.raises(BackendError):
        seq(LogNormal(1)).moment(1)
    # float lam is not exact data, also when m_{n-2} is at hand
    with pytest.raises(BackendError):
        seq(Gegenbauer(0.5)).moment(2)
    with pytest.raises(BackendError):
        Gegenbauer(0.5).moment(2, RAT, {0: Fraction(1)})


def test_log_normal_overflow_names_backend():
    ms = seq(LogNormal(1.0), F64_BACKEND)
    with pytest.raises(PrecisionError, match="bigfloat"):
        ms.moment(60)


# ---------------------------------------------------------------------------
# linear-time sequences: a cached step gives the closed form's value
# ---------------------------------------------------------------------------

STEP_BACKENDS = [RAT, F64_BACKEND, bigfloat(64), bigfloat(256)]
STEP_CASES = [
    (Fraction(lam), backend)
    for lam in ("0", "1/2", "1", "3/2")
    for backend in STEP_BACKENDS
] + [(0.3, backend) for backend in STEP_BACKENDS[1:]]


def assert_identical(a, b):
    # same value, same type and, for mpf, the same bits
    assert a == b
    assert type(a) is type(b)
    assert getattr(a, "_mpf_", None) == getattr(b, "_mpf_", None)


@pytest.mark.parametrize(
    "lam, backend", STEP_CASES, ids=[f"{lam}-{b.tag()}" for lam, b in STEP_CASES]
)
def test_gegenbauer_sequence_equals_closed_form(lam, backend):
    family = Gegenbauer(lam)
    ms = seq(family, backend)
    for n in range(300):
        assert_identical(ms.moment(n), family.moment(n, backend))


@pytest.mark.parametrize("backend", STEP_BACKENDS, ids=lambda b: b.tag())
def test_gegenbauer_out_of_order_and_nu_equal_closed_form(backend):
    family = Gegenbauer(Fraction(1, 2))
    ms = seq(family, backend)
    for n in [40, 42] + list(range(61)):
        assert_identical(ms.moment(n), family.moment(n, backend))
    nu = seq(family, backend).nu()
    with backend.context():
        for n in range(60):
            direct = family.moment(n, backend) - family.moment(n + 2, backend)
            assert_identical(nu.moment(n), direct)


def test_gegenbauer_known_predecessor_is_one_step():
    # a sentinel in place of m_8 shows m_10 is m_8 times one ratio, not the product
    lam = Fraction(3, 2)
    s = Fraction(7, 3)
    m10 = Gegenbauer(lam).moment(10, RAT, {8: s})
    assert m10 == s * (Fraction(1, 2) + 4) / (lam + 5)
    assert Gegenbauer(0.3).moment(10, F64_BACKEND, {8: 7.0}) == 7.0 * (0.5 + 4) / (0.3 + 1 + 4)
    big = bigfloat(128)
    with big.context():
        s_big = big.convert(7)
        expected = s_big * (big.convert(Fraction(1, 2)) + 4) / (big.convert(lam) + 1 + 4)
    assert_identical(Gegenbauer(lam).moment(10, big, {8: s_big}), expected)
    # without m_{n-2} the closed form is used
    assert Gegenbauer(lam).moment(10, RAT, {6: s}) == Gegenbauer(lam).moment(10, RAT)


# ---------------------------------------------------------------------------
# the damped sequence m_n - m_{n+2}
# ---------------------------------------------------------------------------


def test_nu_first_value():
    nu = seq(PowerLog(1)).nu()
    assert nu.moment(0) == Fraction(2, 3)


def test_nu_gegenbauer_closed_form():
    nu = seq(Gegenbauer(Fraction(1, 2))).nu()
    for k in range(10):
        assert nu.moment(2 * k) == Fraction(1, 2 * k + 1) - Fraction(1, 2 * k + 3)


@given(k_stop=st.integers(min_value=1, max_value=64))
@settings(max_examples=25, deadline=None)
def test_nu_telescoping_identity(k_stop):
    # partial sums of even damped moments collapse to m_0 - m_{2K} exactly
    ms = seq(PowerLog(1))
    nu = ms.nu()
    total = sum(nu.moment(2 * k) for k in range(k_stop))
    assert total == ms.moment(0) - ms.moment(2 * k_stop)


def test_nu_sum_matches_total_mass(three_point_measure):
    ms = seq(Discrete(three_point_measure))
    nu = ms.nu()
    k_stop = 40
    assert sum(nu.moment(2 * k) for k in range(k_stop)) == ms.moment(0) - ms.moment(
        2 * k_stop
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_power_log_trace_class():
    result = classify(seq(PowerLog(2), F64_BACKEND), 8, trace_terms=2000)
    assert result.is_ell1.value is True
    assert result.is_ell1.basis == "analytic"
    # sum over odd squares tends to pi^2/8 with tail below 1/(4K)
    assert abs(result.trace_partial - math.pi**2 / 8) < 1 / (4 * 2000) + 1e-12


def test_classify_hilbert_bounded_not_trace_class():
    result = classify(seq(PowerLog(1)), 6)
    assert result.is_O_1_over_n.value is True
    assert result.is_ell1.value is False


def test_classify_power_log_unbounded():
    result = classify(seq(PowerLog(0.5), F64_BACKEND), 6)
    assert result.is_O_1_over_n.value is False
    assert result.is_o1.value is True


def test_classify_gaussian_grows():
    result = classify(seq(Gaussian()), 6)
    assert result.is_o1.value is False


def test_classify_gegenbauer_thresholds():
    assert classify(seq(Gegenbauer(Fraction(1, 2))), 4).is_O_1_over_n.value is True
    assert classify(seq(Gegenbauer(Fraction(1, 2))), 4).is_ell1.value is False
    assert classify(seq(Gegenbauer(Fraction(3, 2))), 4).is_ell1.value is True
    assert classify(seq(Gegenbauer(Fraction(-1, 4))), 4).is_O_1_over_n.value is False


def test_classify_positive_definite_limit_explicit():
    # moments of a two-point +-1 measure: rank 2, singular from size 3 on
    ms = seq(Explicit.from_list([1, 0] * 8))
    result = classify(ms, 5)
    assert result.positive_definite_up_to == 2


def test_classify_explicit_is_heuristic():
    values = [Fraction(1, (n + 1) ** 3) for n in range(64)]
    result = classify(seq(Explicit(tuple(values))), 8)
    assert result.is_o1.basis == "heuristic"
    assert result.is_o1.value is True


def test_verdict_monotonicity_across_families():
    families = [
        PowerLog(1),
        PowerLog(2),
        Gegenbauer(Fraction(1, 2)),
        Gegenbauer(Fraction(2)),
        Gaussian(),
    ]
    for family in families:
        result = classify(seq(family), 4)
        if result.is_ell1.value:
            assert result.is_O_1_over_n.value
        if result.is_O_1_over_n.value:
            assert result.is_o1.value


def test_classify_discrete_inside_unit_interval(three_point_measure):
    result = classify(seq(Discrete(three_point_measure)), 3)
    assert result.is_ell1.value is True
    assert result.positive_definite_up_to == 3


def test_trace_partial_is_even_moment_sum():
    ms = seq(Gaussian())
    result = classify(ms, 4, trace_terms=4)
    assert result.trace_partial == 1 + 1 + 3 + 15


# ---------------------------------------------------------------------------
# positivity of the standard families (the float sizes reflect the ladder)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,n",
    [
        (PowerLog(1), 12),
        (Gegenbauer(Fraction(1, 2)), 12),
        (Gaussian(), 12),
        (LogNormal(1.0), 8),
    ],
)
def test_positive_definite_at_machine_floats(family, n):
    result = classify(MomentSequence(family, F64_BACKEND), n)
    assert result.positive_definite_up_to == n


@pytest.mark.slow
@pytest.mark.parametrize(
    "family",
    [PowerLog(1), Gegenbauer(Fraction(1, 2)), Gaussian(), LogNormal(1.0)],
)
def test_positive_definite_at_bigfloat_40(family):
    from hankelmoments.orthopoly import DEFAULT_POLICY

    bits = max(512, DEFAULT_POLICY.ladder_bits(MomentSequence(family, bigfloat(64)), 40))
    result = classify(MomentSequence(family, bigfloat(bits)), 40)
    assert result.positive_definite_up_to == 40


def test_positive_definite_discrete_capped_at_rank(three_point_measure):
    result = classify(seq(Discrete(three_point_measure)), 6)
    assert result.positive_definite_up_to == 3


@pytest.mark.parametrize(
    "family",
    [PowerLog(1), PowerLog(3), Gegenbauer(Fraction(1, 2)), Gegenbauer(Fraction(5, 2))],
)
def test_even_moments_positive_and_non_increasing(family):
    ms = seq(family)
    evens = [ms.moment(2 * k) for k in range(32)]
    assert all(v > 0 for v in evens)
    assert all(a >= b for a, b in zip(evens, evens[1:]))


def test_odd_moment_symmetry():
    for family in (Gegenbauer(Fraction(1, 2)), Gegenbauer(Fraction(3)), Gaussian()):
        ms = seq(family)
        assert all(ms.moment(2 * k + 1) == 0 for k in range(20))


def test_cache_is_idempotent():
    ms = seq(PowerLog(1))
    first = ms.moment(7)
    assert ms.moment(7) is first
    assert ms.moments(8)[7] == first


def test_nu_moment_keeps_backend_precision_outside_a_context():
    big = bigfloat(256)
    outside = seq(Gegenbauer(Fraction(1, 2)), big).nu().moment(0)
    with big.context():
        inside = seq(Gegenbauer(Fraction(1, 2)), big).nu().moment(0)
        assert outside == inside
        assert abs(outside - big.convert(Fraction(2, 3))) < big.convert(2) ** -250
