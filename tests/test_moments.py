import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmoments import (
    Backend,
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
from hankelmoments.moments import partial_trace
from hankelmoments.triangular import ldl_positive_definite_limit

from conftest import rational_points_and_weights

RAT = RATIONAL_BACKEND


def seq(family, backend=RAT):
    return MomentSequence(family, backend)


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------


def test_power_log_moment():
    assert seq(PowerLog(1)).moment(3) == Fraction(1, 4)
    assert seq(PowerLog(2)).moment(3) == Fraction(1, 16)


@pytest.mark.parametrize("c", [0.3, Fraction(1, 2), 1, 1.5, 2, 3, Fraction(7, 3)], ids=str)
def test_power_log_f64_moments_equal_the_float_array(c):
    # one f64 path: the scalar moments are the vectorized pow's doubles
    count = 20_000
    ms = seq(PowerLog(c), F64_BACKEND)
    assert ms.moments(count) == ms.float_array(count).tolist()


@pytest.mark.parametrize(
    "family",
    [PowerLog(2), PowerLog(Fraction(1, 3)), Gegenbauer(Fraction(1, 2)), Gegenbauer(0.3)],
    ids=str,
)
def test_f64_partial_trace_is_the_in_order_sum(family):
    # one block read, every even moment and no odd one, summed left to right:
    # the bits of the per-moment loop
    terms = 3_000
    ms = seq(family, F64_BACKEND)
    assert ms.float_array(terms, step=2).tolist() == [ms.moment(2 * k) for k in range(terms)]
    acc = 0.0
    for k in range(terms):
        acc = acc + ms.moment(2 * k)
    fresh = seq(family, F64_BACKEND)
    assert partial_trace(fresh, terms).hex() == acc.hex()
    assert all(n % 2 == 0 for n in fresh._cache)


# ---------------------------------------------------------------------------
# f64 blocks
# ---------------------------------------------------------------------------


BLOCK_FAMILIES = (
    [PowerLog(c) for c in (0.3, Fraction(1, 2), 1, 2, Fraction(7, 3))]
    + [Gegenbauer(lam) for lam in (0, 0.25, Fraction(1, 2), 1, Fraction(3, 2), -0.25)]
    + [
        Discrete(DiscreteMeasure((Fraction(-1, 2), Fraction(0), Fraction(3, 4)), (1, 1, 1))),
        Discrete(DiscreteMeasure((-0.9, -0.125, 0.0, 0.7), (0.3, Fraction(1, 3), 2, 0.25))),
    ]
)


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("family", BLOCK_FAMILIES, ids=str)
def test_f64_block_has_the_bits_of_the_moments(family, step):
    # the family's block, kept by the sequence and read-only, against the
    # moments of a fresh sequence
    for count in (0, 1, 2000, 2047):
        ms = seq(family, F64_BACKEND)
        block = ms.float_array(count, step)
        reference = seq(family, F64_BACKEND).moments(max((count - 1) * step + 1, 0))[::step]
        assert [v.hex() for v in block.tolist()] == [v.hex() for v in reference]
        assert ms.float_array(count, step) is block
        assert not block.flags.writeable
        assert not ms._cache  # no moment was read one at a time


@pytest.mark.parametrize("family", [Gaussian(), LogNormal(1.0)], ids=str)
def test_f64_families_without_a_block_read_each_moment(family):
    assert family.f64_moments(30, 1) is None
    for step in (1, 2):
        ms = seq(family, F64_BACKEND)
        values = ms.float_array(18, step)
        assert sorted(ms._cache) == list(range(0, 18 * step, step))
        assert values.tolist() == [ms.moment(n) for n in range(0, 18 * step, step)]
        assert ms.float_array(18, step) is not values


@pytest.mark.parametrize("backend", [RAT, bigfloat(64)], ids=lambda b: b.tag())
@pytest.mark.parametrize(
    "family",
    [PowerLog(2), Gegenbauer(Fraction(1, 2)), Discrete(DiscreteMeasure((0, Fraction(1, 3)), (1, 2)))],
    ids=str,
)
def test_exact_and_bigfloat_backends_never_consult_the_block(monkeypatch, family, backend):
    def refuse(self, count, step):
        raise AssertionError("f64_moments consulted off f64")

    monkeypatch.setattr(type(family), "f64_moments", refuse)
    ms = seq(family, backend)
    assert ms.float_array(40, 2).tolist() == [float(ms.moment(n)) for n in range(0, 80, 2)]


def test_discrete_f64_block_converts_its_data_once(monkeypatch):
    # no per-moment call, and one conversion per point and per weight
    # (the per-moment path converts all of them at every index)
    mu = DiscreteMeasure((Fraction(-1, 2), Fraction(0), Fraction(3, 4)), (1, 1, 1))
    converted = []
    real_convert = Backend.convert

    def counting_convert(self, value):
        converted.append(value)
        return real_convert(self, value)

    def refuse(self, n, backend, known=None):
        raise AssertionError("Discrete.moment called for an f64 block")

    monkeypatch.setattr(Backend, "convert", counting_convert)
    monkeypatch.setattr(Discrete, "moment", refuse)
    block = seq(Discrete(mu), F64_BACKEND).float_array(10_000, step=2)
    assert len(block) == 10_000
    assert sorted(converted) == sorted(mu.points + mu.weights)


def test_gegenbauer_even_moment():
    # (1/2)_2 / (3/2)_2 = (3/4) / (15/4)
    assert seq(Gegenbauer(Fraction(1, 2))).moment(4) == Fraction(1, 5)


def test_gegenbauer_odd_moments_vanish():
    ms = seq(Gegenbauer(Fraction(1, 2)))
    assert ms.moment(3) == 0


def test_discrete_moment(three_point_measure):
    ms = seq(Discrete(three_point_measure))
    assert ms.moment(2) == Fraction(1, 8)


def test_discrete_rational_moments_equal_the_fraction_sums():
    # the rational path sums integer powers over one common denominator
    points = (Fraction(-2, 3), Fraction(1, 6), Fraction(3, 4))
    mu = DiscreteMeasure(points, (Fraction(1, 5), Fraction(2, 7), 1))
    ms = seq(Discrete(mu))
    for n in range(12):
        assert ms.moment(n) == sum(c * x**n for x, c in zip(mu.points, mu.weights))


def test_discrete_float_points_are_refused_by_the_rational_backend():
    ms = seq(Discrete(DiscreteMeasure((0.5,), (Fraction(1),))))
    with pytest.raises(BackendError):
        ms.moment(0)


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


def test_power_log_bigfloat_exponent_keeps_the_backend_precision():
    # c = 1/3 is not dyadic: negating it at mpmath's ambient 53 bits would
    # leave the moment about 3e-17 relative off
    value = seq(PowerLog(Fraction(1, 3)), bigfloat(256)).moment(5)
    with mpmath.workprec(300):
        reference = mpmath.power(6, -mpmath.mpf(1) / 3)
        assert abs(value - reference) / reference < mpmath.mpf(2) ** -250


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
    # an mpf exponent does not overflow: the smallest big float holds m_60
    with pytest.raises(PrecisionError, match="use bigfloat:64$"):
        ms.moment(60)
    assert mpmath.isfinite(seq(LogNormal(1.0), bigfloat(64)).moment(60))


_WIDE = Discrete(DiscreteMeasure((Fraction(-1, 2), Fraction(11, 10)), (Fraction(1, 2),) * 2))


@pytest.mark.parametrize(
    "family, last, first",
    [(Gaussian(), 300, 302), (_WIDE, 7447, 7448),
     (Explicit((Fraction(1), Fraction(10**400))), 0, 1)],
    ids=["gaussian", "discrete", "explicit"],
)
def test_every_f64_overflow_names_the_moment_and_a_backend(family, last, first):
    # each family raises as log_normal does, at the first moment past the
    # f64 range; gaussian failed in float(int) and discrete in pow, with
    # Python's messages, and the smallest big float holds the moment
    ms = seq(family, F64_BACKEND)
    assert math.isfinite(ms.moment(last))
    with pytest.raises(PrecisionError, match=f"^{family.name} moment m_{first} overflows "
                                             "f64; use bigfloat:64$"):
        ms.moment(first)
    assert mpmath.isfinite(seq(family, bigfloat(64)).moment(first))


def test_f64_blocks_past_the_range_name_the_first_moment():
    # a discrete block with a power past the range is not built: the
    # moments are read one at a time up to the first that overflows
    with pytest.raises(PrecisionError, match="^discrete moment m_7448 overflows"):
        seq(_WIDE, F64_BACKEND).float_array(8000)
    with pytest.raises(PrecisionError, match="^gaussian moment m_302 overflows"):
        seq(Gaussian(), F64_BACKEND).float_array(200, step=2)
    # an exact sequence rounded to f64 refuses a moment past the range too
    with pytest.raises(PrecisionError, match="use bigfloat:64$"):
        seq(Gaussian(), RAT).float_array(400)
    with pytest.raises(PrecisionError, match="use bigfloat:64$"):
        F64_BACKEND.convert(Fraction(10**400, 3))
    assert classify(seq(Gaussian(), F64_BACKEND), 200).trace_partial == math.inf


@pytest.mark.parametrize("sigma", [1.0, 1.3, 2.1, Fraction(13, 10)], ids=str)
@pytest.mark.parametrize(
    "backend", [F64_BACKEND, bigfloat(128), bigfloat(256)], ids=lambda b: b.tag()
)
def test_log_normal_moments_take_one_rounding(sigma, backend):
    # exp of the exact argument n^2 sigma^2 / 2 rounded once, against a
    # 1200-bit reference: exp multiplies a rounding of its argument by the
    # argument, which would put f64 sigma = 1.3 604 roundings off at n = 27
    # and bigfloat:128 sigma = 13/10 16510 off at n = 126
    p = 53 if backend == F64_BACKEND else backend.precision
    ms = seq(LogNormal(sigma), backend)
    with mpmath.workprec(1200):
        for n in range(127):
            arg = Fraction(sigma) ** 2 * n * n / 2
            exact = mpmath.exp(mpmath.mpf(arg.numerator) / arg.denominator)
            try:
                value = ms.moment(n)
            except PrecisionError:
                # only past the f64 range, and from there on
                assert backend == F64_BACKEND and exact > mpmath.mpf(2) ** 1024, n
                with pytest.raises(PrecisionError, match="bigfloat"):
                    ms.moment(n + 1)
                break
            rel = abs(mpmath.mpf(value) - exact) / exact
            assert rel <= 1.01 * mpmath.mpf(2) ** -p, (n, float(rel * 2**p))
        else:
            assert backend != F64_BACKEND


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


def damped(ms, count):
    """m_k - m_{k+2} for k < count, as the shift series forms them."""
    with ms.backend.context():
        return [ms.moment(k) - ms.moment(k + 2) for k in range(count)]


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
    with backend.context():
        direct = [family.moment(n, backend) - family.moment(n + 2, backend) for n in range(60)]
    for left, right in zip(damped(ms, 60), direct, strict=True):
        assert_identical(left, right)


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
# sibling sequences
# ---------------------------------------------------------------------------


def test_with_backend_keeps_one_sibling_per_backend():
    ms = seq(PowerLog(1), F64_BACKEND)
    big = ms.with_backend(bigfloat(64))
    assert ms.with_backend(bigfloat(64)) is big
    assert big.with_backend(F64_BACKEND) is ms
    assert ms.with_backend(F64_BACKEND) is ms


@pytest.mark.parametrize("backend", [RAT, F64_BACKEND, bigfloat(128)], ids=lambda b: b.tag())
@pytest.mark.parametrize("family", [PowerLog(1), Gegenbauer(Fraction(1, 2))], ids=str)
def test_damped_sibling_is_the_damped_sibling(family, backend):
    # a sibling reached through with_backend, sharing its registry, reads the
    # same damped moments as a fresh sequence at that backend
    sibling = seq(family, F64_BACKEND).with_backend(backend)
    for left, right in zip(damped(sibling, 40), damped(seq(family, backend), 40), strict=True):
        assert_identical(left, right)


def test_rational_sibling_of_finite_data_reads_it_exactly():
    # float data are dyadic rationals: the rational sibling reads them as
    # such, though a rational sequence made from them still refuses them
    mu = DiscreteMeasure((-0.5, 0.1), (0.25, mpmath.mpf(0.75)))
    for family, m1 in ((Explicit((1.0, 0.1)), Fraction(0.1)),
                       (Discrete(mu), Fraction(-1, 8) + Fraction(0.1) * 3 / 4)):
        assert seq(family, F64_BACKEND).with_backend(RAT).moments(2) == [1, m1]
        with pytest.raises(BackendError):
            seq(family).moments(2)


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


@pytest.mark.parametrize("family", [LogNormal(1), PowerLog(Fraction(1, 2))], ids=lambda f: f.name)
def test_classify_raises_for_a_family_the_backend_cannot_represent(family):
    # m_0 already has no rational value; the CLI reports this as a config error
    with pytest.raises(BackendError):
        classify(seq(family, RATIONAL_BACKEND), 4)


def test_classify_positive_definite_limit_explicit():
    # moments of a two-point +-1 measure: rank 2, singular from size 3 on
    ms = seq(Explicit.from_list([1, 0] * 8))
    result = classify(ms, 5)
    assert result.positive_definite_up_to == 2


def test_classify_float_data_stops_at_the_exact_limit():
    # four float points: rounded at 64 bits, the singular H_5 keeps a
    # positive pivot, which the exact data refute
    mu = DiscreteMeasure((-0.5, 0.0, 0.25, 0.75), (0.25,) * 4)
    assert classify(seq(Discrete(mu), bigfloat(64)), 8).positive_definite_up_to == 4


@pytest.mark.parametrize("backend", [F64_BACKEND, bigfloat(64)], ids=lambda b: b.tag())
@pytest.mark.parametrize("n", [20, 40])
def test_classify_float_hilbert_is_positive_definite_at_every_size(backend, n):
    # a pivot test in the backend's arithmetic stopped at 13 (f64) and 14
    # (64 bits), a rounding artifact: the Hilbert matrix is positive definite
    assert classify(seq(PowerLog(1), backend), n).positive_definite_up_to == n


SIX_POINTS = DiscreteMeasure(
    tuple(map(Fraction, ("-9/10", "-1/2", "0", "1/3", "1/2", "4/5"))),
    tuple(map(Fraction, ("1", "1/2", "1", "2", "1", "1/3"))),
)
HILBERT_VALUES = [Fraction(1, k + 1) for k in range(79)]
INFINITE_SUPPORT = [PowerLog(1), PowerLog(2), Gegenbauer(0), Gegenbauer(Fraction(1, 2)), Gaussian()]
INFINITE_SUPPORT_SIZES = [1, 2, 7, 8, 9, 16, 17, 24]


@pytest.mark.parametrize(
    "family, sizes",
    [
        (Discrete(SIX_POINTS), [1, 6, 7, 8, 9, 16, 17, 64]),
        # positive definite at every size
        (Explicit(tuple(HILBERT_VALUES)), [1, 7, 8, 9, 20, 40]),
        # m_22 = 0: H_12 fails, inside the second leading block (16)
        (Explicit(tuple(HILBERT_VALUES[:22] + [Fraction(0)] + HILBERT_VALUES[23:])),
         [8, 11, 12, 16, 17, 40]),
        # the library's measures with infinite support: the rule answers n at once
        *((family, INFINITE_SUPPORT_SIZES) for family in INFINITE_SUPPORT),
    ],
    ids=["six-points", "hilbert", "hilbert-m22-zero", "power-log-1", "power-log-2",
         "gegenbauer-0", "gegenbauer-1/2", "gaussian"],
)
def test_positive_definite_limit_is_the_full_block_limit(family, sizes):
    for n in sizes:
        full = ldl_positive_definite_limit(seq(family).moments(2 * n - 1), n, Fraction(0))
        assert seq(family, F64_BACKEND).family.positive_definite_limit(n) == full


def test_positive_definite_limit_stops_at_the_first_failing_block():
    # explicit data of six points fail at H_7, inside the first block of 8:
    # m_0 .. m_14 are all it reads, so it needs no value past them; a
    # discrete measure answers in closed form and forms no moment at all
    values = seq(Discrete(SIX_POINTS)).moments(15)
    assert seq(Explicit(tuple(values)), F64_BACKEND).family.positive_definite_limit(64) == 6
    ms = seq(Discrete(SIX_POINTS), F64_BACKEND)
    assert ms.family.positive_definite_limit(64) == 6
    assert ms.with_backend(RAT)._cache == {}


@settings(max_examples=60, deadline=None)
@given(rational_points_and_weights(max_points=10), st.integers(min_value=1, max_value=14))
def test_discrete_positive_definite_limit_is_the_ldl_limit(measure, n):
    # H_N of distinct points and positive weights is positive definite iff
    # N <= the number of points; n runs on both sides of it
    exact = seq(Discrete(measure)).moments(2 * n - 1)
    assert seq(Discrete(measure), F64_BACKEND).family.positive_definite_limit(n) == (
        ldl_positive_definite_limit(exact, n, Fraction(0))
    )


def test_classify_explicit_is_heuristic():
    values = [Fraction(1, (n + 1) ** 3) for n in range(64)]
    result = classify(seq(Explicit(tuple(values))), 8)
    assert result.is_o1.basis == "heuristic"
    assert result.is_o1.value is True


def test_classify_short_explicit_reports_its_whole_window():
    # 16 moments, fewer than the default window of 64: every one is evidence
    values = [Fraction(1, (n + 1) ** 3) for n in range(16)]
    result = classify(seq(Explicit(tuple(values))), 4)
    for verdict in (result.is_o1, result.is_O_1_over_n, result.is_ell1):
        assert verdict.evidence["window"] == 16


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
# positivity of the standard families
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


@pytest.mark.parametrize("n, expected", [(9, 9), (12, 12), (40, 19)])
def test_f64_lognormal_is_probed_as_far_as_its_moments_are_finite(n, expected):
    # m_j = e^{j^2 / 2} overflows f64 from j = 38 on: the 38 finite moments
    # fill blocks up to 19 x 19, all positive definite (infinite support)
    result = classify(MomentSequence(LogNormal(1.0), F64_BACKEND), n)
    assert result.positive_definite_up_to == expected


@pytest.mark.parametrize(
    "family",
    [PowerLog(1), Gegenbauer(Fraction(1, 2)), Gaussian(), LogNormal(1.0)],
)
def test_positive_definite_at_bigfloat_40(family):
    # the rule owns the answer: the smallest big float reads every moment
    result = classify(MomentSequence(family, bigfloat(64)), 40)
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

