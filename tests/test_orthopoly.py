import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from hankelmoments import (
    Discrete,
    Explicit,
    F64_BACKEND,
    Gegenbauer,
    MomentSequence,
    PositivityError,
    PowerLog,
    PrecisionPolicy,
    RATIONAL_BACKEND,
    bigfloat,
    eval_polys,
    factor,
    p_function,
    recurrence,
)
from hankelmoments.backends import to_float
from hankelmoments.moments import LogNormal

from conftest import rational_points_and_weights

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
    c = tp.c_matrix()
    b = tp.b_matrix()
    assert c[0][0] == pytest.approx(2.0)
    assert b[0][0] == pytest.approx(0.5)


def test_factor_uniform_matches_symbolic_gram_schmidt():
    # frozen from the symbolic oracle: orthonormalizing 1, x, x^2 against
    # the uniform weight gives 1, sqrt(3) x, (sqrt(5)/2)(3 x^2 - 1)
    tp = factor(uniform(), 3)
    b = tp.b_matrix()
    assert b[1][1] == pytest.approx(SQRT3, rel=1e-14)
    assert b[2][2] == pytest.approx(3 * SQRT5 / 2, rel=1e-14)
    assert b[0][2] == pytest.approx(-SQRT5 / 2, rel=1e-14)
    c = tp.c_matrix()
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
    b = tp.b_matrix()
    for n in range(4):
        coeffs = sympy.Poly(ortho[n], x).all_coeffs()[::-1]
        for k in range(n + 1):
            assert b[k][n] == pytest.approx(float(coeffs[k]), rel=1e-12, abs=1e-12)


def test_factor_reports_failing_dimension():
    ms = MomentSequence(Explicit.from_list([1, 0] * 6), RAT)
    with pytest.raises(PositivityError) as err:
        factor(ms, 3)
    assert err.value.dimension == 3
    assert not err.value.precision_suspect  # exact input proves indefiniteness
    with pytest.raises(PositivityError) as err:
        factor(ms.with_backend(F64_BACKEND), 3)
    assert err.value.dimension == 3
    assert err.value.precision_suspect


def test_factor_rational_round_trips_exact():
    for family in (PowerLog(1), Gegenbauer(F(0)), Gegenbauer(F(3, 2))):
        ms = MomentSequence(family, RAT)
        n = 10
        tp = factor(ms, n)
        h = [[ms.moment(k + l) for l in range(n)] for k in range(n)]
        assert tp.reconstruction() == h
        identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        assert tp.inverse_residual_identity() == identity
        assert all(d > 0 for d in tp.pivots)


@given(mu=rational_points_and_weights(max_points=5))
@settings(max_examples=30, deadline=None)
def test_factor_discrete_measures_exact(mu):
    ms = MomentSequence(Discrete(mu), RAT)
    n = mu.size
    tp = factor(ms, n)
    h = [[ms.moment(k + l) for l in range(n)] for k in range(n)]
    assert tp.reconstruction() == h
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert tp.inverse_residual_identity() == identity


def test_factor_float_round_trip_hilbert_12():
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    n = 12
    tp = factor(ms, n)
    assert tp.precision_bits == 53
    recon = tp.reconstruction()
    h = [[to_float(ms.moment(k + l)) for l in range(n)] for k in range(n)]
    assert max(
        abs(recon[i][j] - h[i][j]) for i in range(n) for j in range(n)
    ) < 1e-10 * max(map(max, h))
    ident = tp.inverse_residual_identity()
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
    recon = tp.reconstruction()
    import mpmath

    with mpmath.workprec(tp.precision_bits):
        h = ms.with_backend(bigfloat(tp.precision_bits))
        dev = max(
            abs(recon[i][j] - h.moment(i + j)) for i in range(n) for j in range(n)
        )
        assert dev < mpmath.mpf(2) ** (-tp.precision_bits // 2)


@pytest.mark.slow
def test_ladder_handles_lognormal_scale():
    ms = MomentSequence(LogNormal(1.0), bigfloat(64))
    tp = factor(ms, 16)
    assert all(d > 0 for d in tp.pivots)
    # scale-aware bits: the top entry is e^{30^2/2} ~ 2^650, so the ladder must
    # lift the requested 64 bits well past the dynamic range
    assert tp.precision_bits >= 700


def test_policy_constants_are_overridable():
    policy = PrecisionPolicy(machine_max_n=4)
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    tp = factor(ms, 6, policy)
    assert tp.precision_bits >= 4 * 6 + 64  # forced onto the ladder


def test_factor_retries_the_next_ladder_rung_on_pivot_failure(monkeypatch):
    # one bit per dimension is too little for Hilbert N=40: the first rung
    # (104 bits) loses a pivot and the second one (208 bits) succeeds
    import mpmath

    from hankelmoments import orthopoly

    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    policy = PrecisionPolicy(bits_per_dim=1)
    rungs = policy.ladder(ms, 40)
    assert rungs[:2] == [104, 208]
    seen = []
    original = orthopoly.ldl_decompose

    def recording(*args, **kwargs):
        seen.append(mpmath.mp.prec)
        return original(*args, **kwargs)

    monkeypatch.setattr(orthopoly, "ldl_decompose", recording)
    tp = factor(ms, 40, policy)
    assert seen == rungs[:2]
    assert tp.precision_bits == rungs[1] == 208
    assert tp.backend == bigfloat(208)


def test_ladder_starts_at_an_explicit_bigfloat_precision_and_stops_at_the_cap():
    ms = MomentSequence(PowerLog(1), bigfloat(200))
    policy = PrecisionPolicy(retry_cap_bits=1000)
    assert policy.ladder_bits(ms, 6) == 4 * 6 + 64
    assert policy.ladder(ms, 6) == [200, 400, 800]


def test_empty_ladder_raises_precision_suspect_positivity_error():
    policy = PrecisionPolicy(retry_cap_bits=64)
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    assert policy.ladder(ms, 20) == []
    with pytest.raises(PositivityError) as err:
        factor(ms, 20, policy)
    assert err.value.precision_suspect
    assert err.value.dimension == 20


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
    c = tp.c_matrix()
    rng = random.Random(11)
    for _ in range(50):
        x = rng.uniform(-1, 1)
        values = eval_polys(tp, x)
        for col in range(n):
            total = sum(c[k][col] * values[k] for k in range(col + 1))
            assert total == pytest.approx(x**col, rel=1e-9, abs=1e-9)


def test_degree_and_leading_sign():
    tp = factor(uniform(), 6)
    b = tp.b_matrix()
    for n in range(6):
        assert b[n][n] > 0
        for k in range(n + 1, 6):
            assert b[k][n] == 0


# ---------------------------------------------------------------------------
# the squared-value partial sums
# ---------------------------------------------------------------------------


def test_p_function_degenerate():
    tp = factor(MomentSequence(Explicit.from_list(["1"]), RAT), 1)
    out = p_function(tp, F(1, 3), 0)
    assert out.value == pytest.approx(1.0)


def test_p_function_uniform_partial():
    tp = factor(uniform(), 3)
    out = p_function(tp, 0, 2)
    assert out.value == pytest.approx(1.5, rel=1e-14)
    assert out.last_increment == pytest.approx(1.25, rel=1e-14)


@pytest.mark.slow
def test_p_function_lognormal_increments_plateau():
    ms = MomentSequence(LogNormal(1.0), bigfloat(4096))
    tp = factor(ms, 24)
    out = p_function(tp, 0, 23)
    late = [to_float(v) for v in out.increments[12:]]
    early = [to_float(v) for v in out.increments[:12]]
    # squared values at 0 stop growing: plateau evidence of indeterminacy
    assert max(late) < max(early)


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


@pytest.mark.parametrize("n", [4, 8])
def test_hilbert_f64_hs_norm_matches_eigsy(n):
    # ||B||_F^2 = trace(H^{-1}) = sum 1 / lambda_i, from mpmath.eigsy at 640 bits
    import mpmath

    tp = factor(MomentSequence(PowerLog(1), F64_BACKEND), n)
    assert tp.precision_bits == 53
    hs = math.sqrt(to_float(tp.hs_norm_sq_b()))
    with mpmath.workprec(640):
        h = mpmath.matrix([[mpmath.mpf(1) / (i + j + 1) for j in range(n)] for i in range(n)])
        ref = mpmath.sqrt(sum(1 / lam for lam in mpmath.eigsy(h, eigvals_only=True)))
    assert abs(hs - float(ref)) <= 1e-7 * float(ref)
