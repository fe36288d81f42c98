import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings

from hankelmoments import (
    BackendError,
    Discrete,
    DiscreteMeasure,
    Explicit,
    F64_BACKEND,
    Gaussian,
    Gegenbauer,
    MomentSequence,
    PositivityError,
    PowerLog,
    PrecisionError,
    RATIONAL_BACKEND,
    bigfloat,
    cd_kernel,
    eval_polys,
    factor,
    recurrence,
)
from hankelmoments.backends import to_float
from hankelmoments import orthopoly
from hankelmoments.moments import LogNormal, MissingMomentError

from conftest import (
    b_matrix,
    c_matrix,
    inverse_residual_identity,
    rational_points_and_weights,
    reconstruction,
)

RAT = RATIONAL_BACKEND
F = Fraction

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


def uniform(backend=RAT):
    return MomentSequence(Gegenbauer(F(1, 2)), backend)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factor_trivial_size_one():
    tp = factor(MomentSequence(Explicit.from_list(["4"]), RAT), 1)
    c = c_matrix(tp)
    b = b_matrix(tp)
    assert c[0][0] == pytest.approx(2.0)
    assert b[0][0] == pytest.approx(0.5)


def test_factor_uniform_matches_symbolic_gram_schmidt():
    # frozen from the symbolic oracle: orthonormalizing 1, x, x^2 against
    # the uniform weight gives 1, sqrt(3) x, (sqrt(5)/2)(3 x^2 - 1)
    tp = factor(uniform(), 3)
    b = b_matrix(tp)
    assert b[1][1] == pytest.approx(SQRT3, rel=1e-14)
    assert b[2][2] == pytest.approx(3 * SQRT5 / 2, rel=1e-14)
    assert b[0][2] == pytest.approx(-SQRT5 / 2, rel=1e-14)
    c = c_matrix(tp)
    assert c[1][1] == pytest.approx(1 / SQRT3, rel=1e-14)


def test_factor_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    x, theta = sympy.symbols("x theta")
    # weight sqrt(1 - x^2) / B(1/2, 3/2) on (-1, 1): the lam = 1 family.  Its
    # moments come from sympy through x = cos(theta), as the integrals of
    # cos^k sin^2 over (0, pi) normalized by k = 0; inner products of
    # polynomials up to degree 3 need k <= 6
    raw = [
        sympy.integrate(sympy.cos(theta) ** k * sympy.sin(theta) ** 2, (theta, 0, sympy.pi))
        for k in range(7)
    ]
    weight_moments = [r / raw[0] for r in raw]

    def inner(p, q):
        coeffs = sympy.Poly(sympy.expand(p * q), x).all_coeffs()[::-1]
        return sum(c * weight_moments[k] for k, c in enumerate(coeffs))

    ortho = []
    for degree in range(4):
        p = x**degree
        for q in ortho:
            p = p - inner(p, q) * q
        ortho.append(sympy.expand(p / sympy.sqrt(inner(p, p))))

    tp = factor(MomentSequence(Gegenbauer(F(1)), RAT), 4)
    b = b_matrix(tp)
    for n in range(4):
        coeffs = sympy.Poly(ortho[n], x).all_coeffs()[::-1]
        for k in range(n + 1):
            assert b[k][n] == pytest.approx(float(coeffs[k]), rel=1e-12, abs=1e-12)


def test_factor_reports_failing_dimension():
    ms = MomentSequence(Explicit.from_list([1, 0] * 6), RAT)
    with pytest.raises(PositivityError) as err:
        factor(ms, 3)
    assert err.value.dimension == 3  # exact input proves indefiniteness
    with pytest.raises(PositivityError) as err:
        factor(ms.with_backend(F64_BACKEND), 3)
    assert err.value.dimension == 3  # the exact data prove it too


SIX_POINTS = DiscreteMeasure(
    (F(-9, 10), F(-1, 2), F(0), F(1, 3), F(1, 2), F(4, 5)),
    (F(1), F(1, 2), F(1), F(2), F(1), F(1, 3)),
)
FOUR_FLOAT_POINTS = DiscreteMeasure((-0.5, 0.0, 0.25, 0.75), (0.25,) * 4)


@pytest.mark.parametrize(
    "family, backend, n, dimension",
    [(Discrete(SIX_POINTS), backend, n, 7)
     for backend in (F64_BACKEND, bigfloat(64)) for n in (7, 8, 64)]
    + [(Explicit((1.0, 2.0, 1.0, 0.0, 1.0)), F64_BACKEND, 3, 2),
       (Discrete(FOUR_FLOAT_POINTS), F64_BACKEND, 5, 5)],
    ids=lambda v: v.tag() if hasattr(v, "tag") else getattr(v, "name", None),
)
def test_factor_refutes_finite_data_before_the_ladder(family, backend, n, dimension, monkeypatch):
    # the exact data prove the block indefinite or singular, so no rung runs;
    # rounding at a rung can leave such a block a tiny positive pivot
    monkeypatch.setattr(orthopoly, "graded_rows", lambda *args: pytest.fail("a rung ran"))
    with pytest.raises(PositivityError) as err:
        factor(MomentSequence(family, backend), n)
    assert err.value.dimension == dimension
    assert len(str(err.value)) < 200


@given(mu=rational_points_and_weights(max_points=5))
@settings(deadline=None)
def test_factor_past_the_support_raises_before_the_ladder(mu):
    # a measure of M points has a singular H_{M+1}: the exact data, rational
    # or the same points and weights rounded to floats, say so before any
    # big-float rung
    rounded = DiscreteMeasure(tuple(map(float, mu.points)), tuple(map(float, mu.weights)))
    rungs = []
    real = orthopoly.graded_rows

    def recording(ms, top, bits, tol):
        rungs.append(bits)
        return real(ms, top, bits, tol)

    with mock.patch.object(orthopoly, "graded_rows", recording):
        for data in (mu, rounded):
            size = len(set(data.points))
            for backend in (F64_BACKEND, bigfloat(64)):
                with pytest.raises(PositivityError) as err:
                    factor(MomentSequence(Discrete(data), backend), size + 1)
                assert err.value.dimension == size + 1
    assert rungs == []


def test_factor_rational_round_trips_exact():
    for family in (PowerLog(1), Gegenbauer(F(0)), Gegenbauer(F(3, 2))):
        ms = MomentSequence(family, RAT)
        n = 10
        tp = factor(ms, n)
        h = [[ms.moment(k + l) for l in range(n)] for k in range(n)]
        assert reconstruction(tp) == h
        identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        assert inverse_residual_identity(tp) == identity
        assert all(d > 0 for d in tp.pivots)


@given(mu=rational_points_and_weights(max_points=5))
@settings(max_examples=30, deadline=None)
def test_factor_discrete_measures_exact(mu):
    ms = MomentSequence(Discrete(mu), RAT)
    n = mu.size
    tp = factor(ms, n)
    h = [[ms.moment(k + l) for l in range(n)] for k in range(n)]
    assert reconstruction(tp) == h
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert inverse_residual_identity(tp) == identity


def test_factor_float_round_trip_hilbert_12():
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    n = 12
    tp = factor(ms, n)
    assert tp.precision_bits == orthopoly.GRADED_BITS
    assert tp.backend == bigfloat(tp.precision_bits)
    recon = reconstruction(tp)
    h = [[to_float(ms.moment(k + l)) for l in range(n)] for k in range(n)]
    assert max(
        abs(recon[i][j] - h[i][j]) for i in range(n) for j in range(n)
    ) < 1e-10 * max(map(max, h))
    ident = inverse_residual_identity(tp)
    assert max(
        abs(ident[i][j] - (i == j)) for i in range(n) for j in range(n)
    ) < 1e-12


def test_precision_ladder_escalates_beyond_machine():
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    tp = factor(ms, 20)
    assert tp.precision_bits is not None and tp.precision_bits >= 4 * 20 + 64
    assert all(d > 0 for d in tp.pivots)


@pytest.mark.slow
def test_precision_ladder_bigfloat_40_reconstructs():
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    n = 40
    tp = factor(ms, n)
    recon = reconstruction(tp)
    import mpmath

    with mpmath.workprec(tp.precision_bits):
        h = ms.with_backend(bigfloat(tp.precision_bits))
        dev = max(
            abs(recon[i][j] - h.moment(i + j)) for i in range(n) for j in range(n)
        )
        assert dev < mpmath.mpf(2) ** (-tp.precision_bits // 2)


@pytest.mark.slow
def test_ladder_handles_lognormal_scale():
    # the top entry is e^{30^2/2} ~ 2^650: the mpf exponents and the scaling
    # S carry it, so the first rung serves, with every bound below 2^-72
    ms = MomentSequence(LogNormal(1.0), bigfloat(64))
    tp = factor(ms, 16)
    assert all(d > 0 for d in tp.pivots)
    assert tp.precision_bits == orthopoly.GRADED_BITS
    assert _relative_bounds(tp) < mpmath.mpf(2) ** -72


def _relative_bounds(tp):
    """The largest relative bound of the pair's pivots and beta."""
    pivots, _, beta = tp.bounds
    return max(pivots + beta)


def _rungs(monkeypatch):
    """Record the rung of every graded run a factor starts."""
    seen = []
    real = orthopoly.graded_rows

    def recording(ms, top, bits, tol):
        seen.append(bits)
        return real(ms, top, bits, tol)

    monkeypatch.setattr(orthopoly, "graded_rows", recording)
    return seen


def test_factor_retries_the_next_ladder_rung_on_pivot_failure(monkeypatch):
    # Hilbert N=40: 128 and 256 bits stop short of the bound target (a pivot,
    # or a theta_M too large), and the climb doubles to 512 bits
    seen = _rungs(monkeypatch)
    tp = factor(MomentSequence(PowerLog(1), F64_BACKEND), 40)
    assert seen == [128, 256, 512]
    assert tp.precision_bits == 512 and tp.backend == bigfloat(512)
    assert _relative_bounds(tp) <= 2.0 ** -61


def test_factor_takes_the_ladder_for_a_truncation_f64_refuses():
    # f64 log-normal has no truncation limit: N = 8 and 10 alike succeed at
    # the first rung, within their bounds of a bigfloat:512 factor
    ms = MomentSequence(LogNormal(1.0), F64_BACKEND)
    assert factor(ms, 8).precision_bits == orthopoly.GRADED_BITS
    tp = factor(ms, 10)
    assert tp.precision_bits == orthopoly.GRADED_BITS and tp.backend == bigfloat(128)
    ref = factor(MomentSequence(LogNormal(1.0), bigfloat(512)), 10)
    with mpmath.workprec(1024):
        for d, r, bound, ref_bound in zip(tp.pivots, ref.pivots, tp.bounds[0], ref.bounds[0]):
            assert abs(d / r - 1) <= bound + 2 * ref_bound


def test_ladder_starts_at_an_explicit_bigfloat_precision_and_stops_at_the_cap(monkeypatch):
    # bigfloat:64 starts at GRADED_BITS, bigfloat:200 at its own 200 bits;
    # 200 bits miss the 2^-208 target of a bigfloat:200 factor, and a cap
    # of 256 leaves no rung above it
    seen = _rungs(monkeypatch)
    ms = MomentSequence(PowerLog(1), bigfloat(200))
    assert factor(ms.with_backend(bigfloat(64)), 6).precision_bits == 128
    assert factor(ms, 6).precision_bits == 400
    assert seen == [128, 200, 400]
    seen.clear()
    monkeypatch.setattr(orthopoly, "RETRY_CAP_BITS", 256)
    with pytest.raises(PrecisionError, match="RETRY_CAP_BITS = 256"):
        factor(ms, 6)
    assert seen == [200]


def _climb(ms, top):
    """The (bits, rows completed) of every rung of the climb at tol 1e-12,
    and the error that ends it (None where it just ends)."""
    rungs = []
    try:
        for bits, rows in orthopoly.graded_climb(ms, top, 1e-12, orthopoly.GRADED_BITS):
            rungs.append((bits, len(rows)))
    except (PositivityError, MissingMomentError) as err:
        return rungs, err
    return rungs, None


def test_graded_climb_yields_each_rung_and_ends_on_the_first_complete_one():
    # the exact H_5 of four points is singular: the stop at 5 is final;
    # Hilbert stops at 19 at 128 bits and completes at 256; explicit data of
    # 7 moments cannot fill row 5, whatever the rung
    four = MomentSequence(Discrete(FOUR_FLOAT_POINTS), F64_BACKEND)
    rungs, err = _climb(four, 6)
    assert rungs == [(128, 4)]
    assert isinstance(err, PositivityError) and err.dimension == 5
    assert _climb(MomentSequence(PowerLog(1), F64_BACKEND), 32) == ([(128, 18), (256, 32)], None)
    short = MomentSequence(Explicit(tuple(1.0 / (k + 1) for k in range(7))), F64_BACKEND)
    rungs, err = _climb(short, 6)
    assert rungs == [(128, 4)] and isinstance(err, MissingMomentError)


def test_graded_climb_ends_at_the_cap_without_a_complete_rung(monkeypatch):
    monkeypatch.setattr(orthopoly, "RETRY_CAP_BITS", 256)
    assert _climb(MomentSequence(PowerLog(1), F64_BACKEND), 48) == ([(128, 18), (256, 43)], None)


def _lognormal_reference(sigma, n, bits):
    """Pivots and monic alpha, beta of log-normal in closed form at ``bits``:
    with q = e^-sigma^2, beta_k = q^-(4k-2) (1 - q^k), alpha_k =
    q^-(k+1/2) ((1 + q) q^-k - q), and d_k = d_{k-1} beta_k from d_0 = 1."""
    with mpmath.workprec(bits):
        q = mpmath.exp(-mpmath.mpf(sigma) ** 2)
        beta = [q ** -(4 * k - 2) * (1 - q**k) for k in range(1, n)]
        alpha = [q ** -(k + mpmath.mpf(1) / 2) * ((1 + q) * q**-k - q) for k in range(n - 1)]
        pivots = [mpmath.mpf(1)]
        for b in beta:
            pivots.append(pivots[-1] * b)
    return pivots, alpha, beta


def assert_within_bounds(tp, pivots, alpha, beta, bits):
    """Every pivot, monic alpha and beta of the float pair ``tp`` within its
    bound of the reference values, and every orthonormal beta of its
    recurrence within its bound, compared at ``bits``."""
    pivot_bounds, alpha_bounds, beta_bounds = tp.bounds
    rc = recurrence(tp) if tp.n >= 3 else None
    with mpmath.workprec(bits):
        for k, (d, ref, bound) in enumerate(zip(tp.pivots, pivots, pivot_bounds)):
            assert abs(d / ref - 1) <= bound, ("pivot", k)
        for k, (a, ref, bound) in enumerate(zip(tp.monic_recurrence[0], alpha, alpha_bounds)):
            assert abs(a - ref) <= bound, ("alpha", k)
        for k, (b, ref, bound) in enumerate(zip(tp.monic_recurrence[1], beta, beta_bounds)):
            assert abs(b / ref - 1) <= bound, ("beta", k + 1)
        if rc is not None:
            assert rc.alpha_bound == list(alpha_bounds)
            for k, (b, ref, bound) in enumerate(zip(rc.beta, beta, rc.beta_bound)):
                assert abs(b / mpmath.sqrt(ref) - 1) <= bound, ("orthonormal beta", k + 1)


def _exact_scalars(values, bits):
    """Fractions as mpf at ``bits`` (the exact factor's values, rounded once)."""
    with mpmath.workprec(bits):
        return [mpmath.mpf(v.numerator) / v.denominator for v in values]


def assert_rational_within_bounds(tp, ms):
    """The float pair ``tp`` of ``ms`` against the exact factor of the same
    size, compared at 4 times its rung."""
    exact = factor(ms.with_backend(RAT), tp.n)
    bits = 4 * tp.precision_bits
    alpha, beta = exact.monic_recurrence
    assert_within_bounds(tp, _exact_scalars(exact.pivots, bits), _exact_scalars(alpha, bits),
                         _exact_scalars(beta, bits), bits)


@pytest.mark.parametrize("n", [12, 32, 64])
@pytest.mark.parametrize("family", [PowerLog(1), PowerLog(2), Gegenbauer(F(1, 2)), Gaussian()],
                         ids=["hilbert", "powerlog2", "legendre", "gaussian"])
def test_f64_factor_lies_within_its_bounds_of_the_exact_factor(family, n):
    ms = MomentSequence(family, F64_BACKEND)
    tp = factor(ms, n)
    assert _relative_bounds(tp) <= 2.0 ** -61
    assert_rational_within_bounds(tp, ms)


@pytest.mark.parametrize("n", [12, 32, 64])
def test_f64_lognormal_factor_lies_within_its_bounds_of_the_closed_form(n):
    tp = factor(MomentSequence(LogNormal(1.0), F64_BACKEND), n)
    assert tp.precision_bits == orthopoly.GRADED_BITS
    assert_within_bounds(tp, *_lognormal_reference(1, n, 512), 512)


@pytest.mark.parametrize("n", [10, 40])
def test_lognormal_30_at_bigfloat_64_factors_within_its_bounds(n):
    # the largest moment at N=40 is e^{78^2 30^2 / 2} ~ 2^3.9e6: the moments
    # are graded (A is the identity to 128 bits), so the first rung bounds
    # every value far below 2^-64
    tp = factor(MomentSequence(LogNormal(30), bigfloat(64)), n)
    assert tp.precision_bits == orthopoly.GRADED_BITS and tp.backend == bigfloat(128)
    assert _relative_bounds(tp) <= mpmath.mpf(2) ** -72
    assert_within_bounds(tp, *_lognormal_reference(30, n, 512), 512)


@given(mu=rational_points_and_weights())
@settings(max_examples=30, deadline=None)
def test_float_factor_lies_within_its_bounds_on_discrete_measures(mu):
    # every float factor up to the support size against the exact one
    family = Discrete(mu)
    for backend in (F64_BACKEND, bigfloat(128)):
        for n in range(2, mu.size + 1):
            ms = MomentSequence(family, backend)
            assert_rational_within_bounds(factor(ms, n), ms)


def test_float_factor_never_runs_the_chebyshev_algorithm(monkeypatch):
    # the Chebyshev algorithm factors exact data only; a float factor reads
    # the graded Cholesky
    monkeypatch.setattr(orthopoly, "ldl_decompose", lambda *args, **kwargs: pytest.fail("LDL ran"))
    for family in (PowerLog(1), Gaussian(), LogNormal(1.0), Discrete(SIX_POINTS)):
        for backend in (F64_BACKEND, bigfloat(64), bigfloat(256)):
            tp = factor(MomentSequence(family, backend), 6)
            assert tp.bounds is not None and tp.precision_bits >= 128


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_polys_uniform_at_one():
    tp = factor(uniform(), 3)
    values = eval_polys(tp, 1)
    assert values[1] == pytest.approx(1.7320508, rel=1e-7)


def test_eval_polys_odd_vanish_at_zero():
    tp = factor(uniform(), 6)
    values = eval_polys(tp, 0)
    assert values[1] == pytest.approx(0.0, abs=1e-15)
    assert values[3] == pytest.approx(0.0, abs=1e-15)
    assert values[5] == pytest.approx(0.0, abs=1e-15)


def test_eval_polys_rounds_exact_values_of_rational_pairs():
    # orthonormal Legendre values sqrt(2k+1) P_k(t) at N = 64; the float view
    # converts the exact monic values, so no cancellation among the large
    # alternating coefficients of U^{-1} reaches it
    n = 64
    t = F(-5, 11)
    values = eval_polys(factor(uniform(), n), t)
    with mpmath.workprec(256):
        x = mpmath.mpf(t.numerator) / t.denominator
        ref = [float(mpmath.sqrt(2 * k + 1) * mpmath.legendre(k, x)) for k in range(n)]
    for value, expected in zip(values, ref):
        assert value == pytest.approx(expected, rel=1e-14)


def test_discrete_orthonormality_exact(three_point_measure):
    # sum_i w_i pi_m(x_i) pi_n(x_i) = delta_mn d_m in square-root-free form
    ms = MomentSequence(Discrete(three_point_measure), RAT)
    tp = factor(ms, 3)
    for m in range(3):
        for n in range(3):
            acc = F(0)
            for x, w in zip(three_point_measure.points, three_point_measure.weights):
                pix = tp.monic_values(x)
                acc += w * pix[m] * pix[n]
            assert acc == (tp.pivots[m] if m == n else 0)


def test_discrete_orthonormality_float(three_point_measure):
    ms = MomentSequence(Discrete(three_point_measure), RAT)
    tp = factor(ms, 3)
    for m in range(3):
        for n in range(3):
            acc = 0.0
            for x, w in zip(three_point_measure.points, three_point_measure.weights):
                values = eval_polys(tp, x)
                acc += to_float(w) * values[m] * values[n]
            assert acc == pytest.approx(1.0 if m == n else 0.0, abs=1e-12)


def test_monic_values_memo_keeps_the_rational_pair_exact():
    # the memo is keyed on the converted point: a float still raises after
    # the equal Fraction was evaluated
    tp = factor(uniform(), 6)
    first = tp.monic_values(F(1, 2))
    with pytest.raises(BackendError):
        tp.monic_values(0.5)
    # every call hands out its own list
    first[2] = F(99)
    again = tp.monic_values(F(1, 2))
    assert again == factor(uniform(), 6).monic_values(F(1, 2))
    assert again[2] != F(99) and again is not tp.monic_values(F(1, 2))


def test_cd_kernel_on_a_shared_pair_equals_fresh_pairs():
    mu = DiscreteMeasure((F(-2, 3), F(-1, 5), F(1, 4), F(5, 6)), (F(1, 3), F(2), F(3, 4), F(1, 2)))
    ms = MomentSequence(Discrete(mu), RAT)
    tp = factor(ms, mu.size)
    pairs = [(x, y) for x in mu.points for y in mu.points] + [(F(1, 7), F(1, 7)), (F(1, 7), F(0))]
    for x, y in pairs:
        assert cd_kernel(mu, x, y, tp=tp) == cd_kernel(mu, x, y, tp=factor(ms, mu.size))


def test_monomial_reassembly_exact():
    # sum_k c_{k,n} P_k(x) = x^n, checked square-root-free at rational x
    ms = uniform()
    n = 8
    tp = factor(ms, n)
    rng = random.Random(7)
    for _ in range(10):
        x = F(rng.randint(-50, 50), 50)
        pi = tp.monic_values(x)
        for col in range(n):
            total = sum(tp.unit_upper[k][col] * pi[k] for k in range(col + 1))
            assert total == x**col


def test_monomial_reassembly_float():
    ms = MomentSequence(Gegenbauer(F(1)), F64_BACKEND)
    n = 10
    tp = factor(ms, n)
    c = c_matrix(tp)
    rng = random.Random(11)
    for _ in range(50):
        x = rng.uniform(-1, 1)
        values = eval_polys(tp, x)
        for col in range(n):
            total = sum(c[k][col] * values[k] for k in range(col + 1))
            assert total == pytest.approx(x**col, rel=1e-9, abs=1e-9)


def test_degree_and_leading_sign():
    tp = factor(uniform(), 6)
    b = b_matrix(tp)
    for n in range(6):
        assert b[n][n] > 0
        for k in range(n + 1, 6):
            assert b[k][n] == 0


# ---------------------------------------------------------------------------
# recurrence extraction
# ---------------------------------------------------------------------------


def test_recurrence_uniform_alpha_zero_beta_known():
    tp = factor(uniform(), 5)
    rc = recurrence(tp)
    for a in rc.alpha:
        assert a == pytest.approx(0.0, abs=1e-14)
    assert rc.beta[0] == pytest.approx(1 / SQRT3, rel=1e-14)
    assert all(b > 0 for b in rc.beta)


def test_recurrence_round_trip_rebuilds_polynomials():
    ms = MomentSequence(Gegenbauer(F(1)), F64_BACKEND)
    n = 12
    tp = factor(ms, n)
    rc = recurrence(tp)
    rng = random.Random(3)
    for _ in range(20):
        x = rng.uniform(-1, 1)
        direct = eval_polys(tp, x)
        rebuilt = [direct[0]]
        prev = 0.0
        for k in range(n - 1):
            nxt = ((x - rc.alpha[k]) * rebuilt[k] - (rc.beta[k - 1] if k else 0.0) * prev)
            prev = rebuilt[k]
            rebuilt.append(nxt / rc.beta[k])
        dev = max(abs(a - b) for a, b in zip(direct, rebuilt))
        assert dev < 1e-12 * max(1.0, max(abs(v) for v in direct))


def test_recurrence_needs_three_columns():
    with pytest.raises(ValueError):
        recurrence(factor(uniform(), 2))


@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(1), F(3, 2)], ids=str)
def test_rational_recurrence_matches_gegenbauer_closed_form(lam):
    # symmetric weight: alpha_n is exactly zero; the orthonormal
    # beta_n^2 = n (n + 2 lam - 1) / (4 (n + lam) (n + lam - 1)), and
    # beta_1 = 1/sqrt(2) for lam = 0 (Chebyshev polynomials of the first kind)
    import mpmath

    n = 64
    rc = recurrence(factor(MomentSequence(Gegenbauer(lam), RAT), n))
    assert all(a == 0.0 for a in rc.alpha)
    with mpmath.workprec(200):
        for k, b in enumerate(rc.beta, start=1):
            if lam == 0 and k == 1:
                ref = 1 / mpmath.sqrt(2)
            else:
                ratio = F(k * (k + 2 * lam - 1), 4 * (k + lam) * (k + lam - 1))
                ref = mpmath.sqrt(mpmath.mpf(ratio.numerator) / ratio.denominator)
            assert abs(b - float(ref)) <= 2 * math.ulp(float(ref)), k


@pytest.mark.parametrize("n", [4, 8, 12])
def test_hilbert_f64_hs_norm_matches_eigsy(n):
    # ||B||_F^2 = trace(H^{-1}) = sum 1 / lambda_i, from mpmath.eigsy at 640 bits
    import mpmath

    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    tp = factor(ms, n)
    assert tp.precision_bits == orthopoly.GRADED_BITS
    hs = math.sqrt(to_float(tp.hs_norm_sq_b()[-1]))
    with mpmath.workprec(640):
        h = mpmath.matrix([[mpmath.mpf(1) / (i + j + 1) for j in range(n)] for i in range(n)])
        ref = mpmath.sqrt(sum(1 / lam for lam in mpmath.eigsy(h, eigvals_only=True)))
    assert abs(hs - float(ref)) <= math.ulp(float(ref))


def test_hilbert_f64_recurrence_is_shifted_legendre():
    # Lebesgue measure on [0, 1]: alpha_k = 1/2, beta_k = k / (2 sqrt(4k^2 - 1))
    rc = recurrence(factor(MomentSequence(PowerLog(1), F64_BACKEND), 12))
    for a in rc.alpha:
        assert abs(to_float(a) - 0.5) <= 4 * math.ulp(0.5)
    with mpmath.workprec(200):
        for k, b in enumerate(rc.beta, start=1):
            ref = float(k / (2 * mpmath.sqrt(4 * k * k - 1)))
            assert abs(to_float(b) - ref) <= 4 * math.ulp(ref), k


@pytest.mark.parametrize(
    "family, n",
    [(PowerLog(1), 8), (PowerLog(1), 12), (PowerLog(0.5), 8), (PowerLog(0.5), 12),
     (PowerLog(1), 48), (PowerLog(1), 64), (PowerLog(2), 48), (PowerLog(2), 64)],
    ids=lambda v: repr(v) if isinstance(v, PowerLog) else str(v),
)
def test_f64_factor_beta_is_the_reference_beta(family, n):
    # the graded rung bounds beta far below an ulp for measures on [0, 1],
    # whose log2 condition number grows like 5.05 N; the reference is the
    # exact factor where the family has rational moments
    ms = MomentSequence(family, F64_BACKEND)
    tp = factor(ms, n)
    assert tp.precision_bits == (128 if n <= 12 else 512)
    beta = recurrence(tp).beta
    exact = family.c in (1, 2)
    ref = recurrence(factor(ms.with_backend(RAT if exact else bigfloat(2048)), n)).beta
    for k, (b, r) in enumerate(zip(beta, ref), start=1):
        r = to_float(r)
        assert abs(to_float(b) - r) <= 4 * math.ulp(r), k
