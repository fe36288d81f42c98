import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hankelmoments import (
    Discrete,
    Explicit,
    F64_BACKEND,
    Gaussian,
    Gegenbauer,
    HankelError,
    MomentFamily,
    MomentSequence,
    PowerLog,
    PrecisionPolicy,
    RATIONAL_BACKEND,
    TriangularPair,
    a_matrix_experiment,
    bigfloat,
    factor,
    h_xi_identity,
    lambda_profile,
    plateau_verdict,
    xi_vector,
)
from hankelmoments.moments import LogNormal
from hankelmoments.spectral import (
    PlateauVerdict,
    SpectralInvariantError,
    SpectralProfile,
    ProfileEntry,
    bigfloat_extremes,
    eigen_count_below,
    extreme_eigenvalue,
    householder_tridiagonalize,
)

RAT = RATIONAL_BACKEND
F = Fraction

LAM_MIN_2 = (4 - math.sqrt(13)) / 6
LAM_MAX_2 = (4 + math.sqrt(13)) / 6


def uniform(backend=RAT):
    return MomentSequence(Gegenbauer(F(1, 2)), backend)


# ---------------------------------------------------------------------------
# eigenvalue machinery
# ---------------------------------------------------------------------------


def test_hilbert_2x2_closed_form_f64():
    profile = lambda_profile(MomentSequence(PowerLog(1), F64_BACKEND), [2])
    entry = profile.entries[0]
    assert entry.lambda_min == pytest.approx(LAM_MIN_2, abs=1e-12)
    assert entry.lambda_max == pytest.approx(LAM_MAX_2, abs=1e-12)


def test_hilbert_2x2_closed_form_bigfloat():
    lo, hi = bigfloat_extremes(MomentSequence(PowerLog(1), F64_BACKEND), 2, 128)
    assert abs(float(lo) - LAM_MIN_2) < 1e-12
    assert abs(float(hi) - LAM_MAX_2) < 1e-12


def test_bisection_agrees_with_lapack_on_random_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.standard_normal((7, 7))
        sym = (a + a.T) / 2
        ref = np.linalg.eigvalsh(sym)
        with mpmath.workprec(96):
            rows = [[mpmath.mpf(float(sym[i, j])) for j in range(7)] for i in range(7)]
            diag, off = householder_tridiagonalize(rows, 7)
            lo = extreme_eigenvalue(diag, off, "min")
            hi = extreme_eigenvalue(diag, off, "max")
        assert float(lo) == pytest.approx(ref[0], abs=1e-10)
        assert float(hi) == pytest.approx(ref[-1], abs=1e-10)


@pytest.mark.parametrize(
    "diag, off",
    [([0.5, -1.0, 2.0, 0.25], [1.5, 0.75, -1.0]), ([-3.0, -1.0, -2.0], [0.5, 0.25])],
    ids=["indefinite", "negative-definite"],
)
def test_tridiagonal_with_negative_lambda_min_matches_lapack(diag, off):
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.linalg.eigvalsh(dense)
    assert ref[0] < 0
    with mpmath.workprec(128):
        d, o = [mpmath.mpf(x) for x in diag], [mpmath.mpf(x) for x in off]
        lo = extreme_eigenvalue(d, o, "min")
        hi = extreme_eigenvalue(d, o, "max")
    assert float(lo) == pytest.approx(ref[0], abs=1e-10)
    assert float(hi) == pytest.approx(ref[-1], abs=1e-10)


def test_lambda_min_below_the_resolution_floor_is_not_positive():
    # 1e-60 lies below 2^-128 times the spectral radius: no positive value
    # computed at 128 bits could be trusted
    with mpmath.workprec(128):
        d, o = [mpmath.mpf(1), mpmath.mpf("1e-60")], [mpmath.mpf(0)]
        assert extreme_eigenvalue(d, o, "min") <= 0


def _count_steps(monkeypatch):
    """Spy on the Sturm counts made by each extreme_eigenvalue call."""
    from hankelmoments import spectral

    steps = []
    count_below = spectral.eigen_count_below
    extreme = spectral.extreme_eigenvalue

    def counting(diag, off, x):
        steps[-1][1] += 1
        return count_below(diag, off, x)

    def spying(diag, off, which):
        steps.append([which, 0])
        return extreme(diag, off, which)

    monkeypatch.setattr(spectral, "eigen_count_below", counting)
    monkeypatch.setattr(spectral, "extreme_eigenvalue", spying)
    return steps


@pytest.mark.parametrize(
    "family, n, bits",
    [(LogNormal(1.0), 28, 2280), (Gaussian(), 40, 414)],
    ids=["lognormal", "gaussian"],
)
def test_bisection_step_budget_at_the_first_rung(monkeypatch, family, n, bits):
    # a relative 64-bit bracket costs ~64 + log2(prec) counts, not prec/2
    ms = MomentSequence(family, bigfloat(256))
    assert PrecisionPolicy().ladder(ms, n)[0] == bits
    steps = _count_steps(monkeypatch)
    lo, hi = bigfloat_extremes(ms, n, bits)
    assert 0 < lo < hi
    assert [which for which, _ in steps] == ["min", "max"]
    assert all(count <= 100 for _, count in steps), steps


def test_eigen_count_is_monotone():
    with mpmath.workprec(80):
        rows = [
            [mpmath.mpf(v) for v in row]
            for row in [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        ]
        diag, off = householder_tridiagonalize(rows, 3)
        counts = [eigen_count_below(diag, off, mpmath.mpf(x)) for x in (-1, 1, 2.5, 5)]
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == 3


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_monotone_extremes_hilbert():
    profile = lambda_profile(
        MomentSequence(PowerLog(1), F64_BACKEND),
        [2, 4, 8, 16, 24],
        quantities=("lambda_min", "lambda_max"),
    )
    mins = [v for _, v in profile.reliable("lambda_min")]
    maxs = [v for _, v in profile.reliable("lambda_max")]
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert all(a <= b for a, b in zip(maxs, maxs[1:]))
    assert all(v > 0 for v in mins)
    assert all(v < math.pi for v in maxs)


def test_profile_escalates_precision_beyond_machine():
    profile = lambda_profile(
        MomentSequence(PowerLog(1), F64_BACKEND),
        [8, 16],
        quantities=("lambda_min", "lambda_max"),
    )
    by_n = {e.n: e for e in profile.entries}
    assert by_n[8].precision_bits == 53
    assert by_n[16].precision_bits >= 4 * 16 + 64


def test_profile_marks_unresolved_beyond_escalation_cap():
    from hankelmoments import PrecisionPolicy

    policy = PrecisionPolicy(escalate_max_n=12)
    profile = lambda_profile(
        MomentSequence(PowerLog(1), F64_BACKEND),
        [8, 32],
        policy,
        quantities=("lambda_min", "lambda_max"),
    )
    by_n = {e.n: e for e in profile.entries}
    assert by_n[32].status == "lambda-min-unresolved"
    assert by_n[32].lambda_min is None
    assert by_n[32].lambda_max is not None  # still trustworthy at f64


def test_profile_lognormal_f64_escalates_instead_of_crashing():
    # the f64 moment path overflows early for this family; the profile must
    # escalate eigenvalues onto the big-float ladder and mark the trace
    profile = lambda_profile(
        MomentSequence(LogNormal(1.0), F64_BACKEND),
        [4, 20],
        quantities=("lambda_min", "lambda_max", "trace_partial"),
    )
    for entry in profile.entries:
        assert entry.lambda_min is not None and entry.lambda_min > 0
    assert profile.entries[1].precision_bits > 1000  # scale-aware ladder bits
    assert profile.entries[1].trace_partial == float("inf")  # f64 overflow marker


def test_profile_hs_norm_non_decreasing():
    profile = lambda_profile(uniform(), [2, 4, 8], quantities=("hs_norm_b",))
    hs = profile.series("hs_norm_b")
    assert all(a <= b for a, b in zip(hs, hs[1:]))


def test_profile_trace_partial_column():
    ms = uniform()
    profile = lambda_profile(ms, [2, 3], quantities=("trace_partial",))
    assert profile.entries[0].trace_partial == pytest.approx(1 + 1 / 3)
    assert profile.entries[1].trace_partial == pytest.approx(1 + 1 / 3 + 1 / 5)


def _fake_extremes(monkeypatch, nonpositive_rungs):
    """Patch bigfloat_extremes so its first rungs report lambda_min <= 0."""
    from hankelmoments import spectral

    seen = []

    def fake(ms, n, bits, **kwargs):
        seen.append(bits)
        lo, hi = bigfloat_extremes(ms, n, bits, **kwargs)
        return (-lo if len(seen) <= nonpositive_rungs else lo), hi

    monkeypatch.setattr(spectral, "bigfloat_extremes", fake)
    return seen


def test_profile_walks_the_factor_ladder(monkeypatch):
    seen = _fake_extremes(monkeypatch, nonpositive_rungs=2)
    ms = MomentSequence(PowerLog(1), bigfloat(64))
    policy = PrecisionPolicy()
    profile = lambda_profile(ms, [6], policy, quantities=("lambda_min", "lambda_max"))
    assert seen == policy.ladder(ms, 6)[:3]
    entry = profile.entries[0]
    assert entry.status == "ok"
    assert entry.precision_bits == seen[-1]
    assert entry.lambda_min > 0


def test_profile_stops_at_the_ladder_cap(monkeypatch):
    seen = _fake_extremes(monkeypatch, nonpositive_rungs=100)
    ms = MomentSequence(PowerLog(1), bigfloat(64))
    policy = PrecisionPolicy(retry_cap_bits=400)
    profile = lambda_profile(ms, [6], policy, quantities=("lambda_min", "lambda_max"))
    assert seen == policy.ladder(ms, 6) == [88, 176, 352]
    entry = profile.entries[0]
    assert entry.status == "lambda-min-unresolved"
    assert entry.precision_bits == 352


def test_profile_entry_with_empty_ladder_is_unresolved():
    policy = PrecisionPolicy(retry_cap_bits=64)
    profile = lambda_profile(
        MomentSequence(PowerLog(1), bigfloat(64)),
        [6],
        policy,
        quantities=("lambda_min", "lambda_max"),
    )
    entry = profile.entries[0]
    assert entry.status == "lambda-min-unresolved"
    assert entry.lambda_min is None and entry.lambda_max is None
    assert entry.precision_bits is None


def test_profile_computes_only_the_requested_extremes(monkeypatch):
    steps = _count_steps(monkeypatch)
    profile = lambda_profile(
        MomentSequence(Gaussian(), bigfloat(256)), [8, 12], quantities=("lambda_min",)
    )
    assert all(e.status == "ok" and e.lambda_max is None for e in profile.entries)
    assert [which for which, _ in steps] == ["min", "min"]


def _eigsy_extremes(family, n):
    with mpmath.workprec(1200):
        ms = MomentSequence(family, bigfloat(1200))
        h = mpmath.matrix([[ms.moment(i + j) for j in range(n)] for i in range(n)])
        eig = mpmath.eigsy(h, eigvals_only=True)
        return float(min(eig)), float(max(eig))


@pytest.mark.parametrize("family", [PowerLog(1), Gaussian()], ids=["hilbert", "gaussian"])
def test_bigfloat_profile_matches_eigsy(family):
    grid = list(range(8, 21, 2))
    profile = lambda_profile(
        MomentSequence(family, bigfloat(64)), grid, quantities=("lambda_min", "lambda_max")
    )
    for entry in profile.entries:
        lam_min, lam_max = _eigsy_extremes(family, entry.n)
        assert entry.status == "ok"
        assert entry.lambda_min == pytest.approx(lam_min, rel=1e-12, abs=0), entry.n
        assert entry.lambda_max == pytest.approx(lam_max, rel=1e-12, abs=0), entry.n


def test_profile_climbs_past_an_unresolvable_first_rung(monkeypatch):
    # at 64 bits Hilbert lambda_min(16) ~ 9.2e-23 sits below the resolution
    # floor 2^-64 * |H|; the entry must move up the ladder, not report "ok"
    seen = _fake_extremes(monkeypatch, nonpositive_rungs=0)
    ms = MomentSequence(PowerLog(1), bigfloat(64))
    policy = PrecisionPolicy(bits_per_dim=1, base_margin_bits=0)
    assert policy.ladder(ms, 16)[:2] == [64, 128]
    entry = lambda_profile(ms, [16], policy, quantities=("lambda_min",)).entries[0]
    assert seen == [64, 128]
    assert entry.status == "ok" and entry.precision_bits == 128
    lam_min = _eigsy_extremes(PowerLog(1), 16)[0]
    assert entry.lambda_min == pytest.approx(lam_min, rel=1e-12, abs=0)


@dataclass(frozen=True)
class _BrokenAtF64(MomentFamily):
    """Hilbert moments, with a bug that only the f64 branch hits."""

    name = "broken_at_f64"

    def moment(self, n, backend, known=None):
        if backend.kind == "f64":
            raise TypeError("bug in the f64 moment branch")
        return PowerLog(1).moment(n, backend)


def test_profile_does_not_swallow_bugs_in_the_f64_assembly():
    # only the failures the f64 path expects (precision, backend, missing
    # moments, overflow) fall back to the ladder; a bug must surface
    ms = MomentSequence(_BrokenAtF64(), F64_BACKEND)
    with pytest.raises(TypeError, match="f64 moment branch"):
        lambda_profile(ms, [4, 8], quantities=("lambda_min", "lambda_max"))


# ---------------------------------------------------------------------------
# plateau heuristic
# ---------------------------------------------------------------------------


def _fake_profile(values):
    entries = [
        ProfileEntry(
            n=4 * (i + 1),
            lambda_min=v,
            lambda_max=1.0,
            hs_norm_b=None,
            trace_partial=None,
            precision_bits=53,
            status="ok",
        )
        for i, v in enumerate(values)
    ]
    return SpectralProfile("test", "f64", entries, ("lambda_min",))


def test_plateau_constant_profile_is_indeterminate_like():
    verdict = plateau_verdict(_fake_profile([0.4] * 6), window=4, ratio_threshold=0.5)
    assert verdict.label == "indeterminate-like"
    assert verdict.ratio == pytest.approx(1.0)


def test_plateau_geometric_decay_is_determinate_like():
    values = [0.1**k for k in range(6)]
    verdict = plateau_verdict(_fake_profile(values), window=4, ratio_threshold=0.5)
    assert verdict.label == "determinate-like"


def test_plateau_needs_enough_points():
    with pytest.raises(ValueError):
        plateau_verdict(_fake_profile([0.5, 0.4]), window=4)


@pytest.mark.slow
def test_hs_growth_contrast_recorded():
    # calibrated expectation, not a theorem: the inverse-factor weight grows
    # without a visible bound for the growing-moment determinate family while
    # the indeterminate one flattens (square-summable coefficient columns)
    grid = [4, 8, 12, 16]
    logn = lambda_profile(
        MomentSequence(LogNormal(1.0), bigfloat(256)), grid, quantities=("hs_norm_b",)
    ).series("hs_norm_b")
    gauss = lambda_profile(
        MomentSequence(Gaussian(), bigfloat(256)), grid, quantities=("hs_norm_b",)
    ).series("hs_norm_b")
    logn_growth = logn[-1] / logn[-2]
    gauss_growth = gauss[-1] / gauss[-2]
    assert logn_growth < gauss_growth
    assert logn_growth < 1.05


def test_gaussian_vs_lognormal_contrast_small_grid():
    grid = range(4, 25, 4)
    gauss = lambda_profile(
        MomentSequence(Gaussian(), bigfloat(256)), grid, quantities=("lambda_min",)
    )
    logn = lambda_profile(
        MomentSequence(LogNormal(1.0), bigfloat(256)), grid, quantities=("lambda_min",)
    )
    assert plateau_verdict(gauss, 4, 0.5).label == "determinate-like"
    assert plateau_verdict(logn, 4, 0.5).label == "indeterminate-like"


# ---------------------------------------------------------------------------
# xi vectors and the finite identities
# ---------------------------------------------------------------------------


def test_xi_uniform_frozen_values():
    tp = factor(uniform(), 3)
    out = xi_vector(tp, F(1, 2))
    assert out.xi == [F(21, 16), F(3, 2), F(-15, 16)]
    assert out.p[0] == pytest.approx(1.0)
    assert out.p[1] == pytest.approx(math.sqrt(3) / 2, rel=1e-14)
    assert out.p[2] == pytest.approx(-math.sqrt(5) / 8, rel=1e-13)


def test_xi_c_identity_rational_exact():
    # U xi must reproduce the monic values scaled by the pivots, exactly
    tp = factor(uniform(), 6)
    for t in (F(0), F(1, 3), F(-2, 3)):
        xi = xi_vector(tp, t).xi
        pi = tp.monic_values(t)
        for k in range(6):
            u_xi = sum(tp.unit_upper[k][j] * xi[j] for j in range(k, 6))
            assert u_xi * tp.pivots[k] == pi[k]


def test_xi_c_identity_float():
    ms = MomentSequence(Gegenbauer(F(1, 2)), F64_BACKEND)
    tp = factor(ms, 3)
    out = xi_vector(tp, 0.5)
    c = tp.c_matrix()
    for k in range(3):
        recon = sum(c[k][j] * out.xi[j] for j in range(3))
        assert recon == pytest.approx(out.p[k], abs=1e-14)


def test_xi_zero_symmetric_structure():
    tp = factor(uniform(), 5)
    out = xi_vector(tp, F(0))
    assert out.p[1] == pytest.approx(0.0, abs=1e-15)
    assert out.p[3] == pytest.approx(0.0, abs=1e-15)
    assert out.xi[1] == 0 and out.xi[3] == 0


def test_xi_warns_outside_unit_interval():
    tp = factor(uniform(), 3)
    with pytest.warns(UserWarning):
        xi_vector(tp, F(3, 2))


def test_xi_identity_violation_is_a_library_error():
    # U^{-1} stored as the identity although U is not: the exact identity
    # (U xi)_k d_k = pi_k(t) fails and is reported as a HankelError
    tp = TriangularPair(
        2, RAT, ((F(1), F(1, 2)), (F(0), F(1))), (F(1), F(1)),
        ((F(1), F(0)), (F(0), F(1))), None,
    )
    with pytest.raises(SpectralInvariantError) as err:
        xi_vector(tp, F(1, 2))
    assert isinstance(err.value, HankelError)
    assert not isinstance(err.value, AssertionError)


def test_h_xi_identity_exact_for_rational_families(three_point_measure):
    cases = [
        (uniform(), 6),
        (MomentSequence(Discrete(three_point_measure), RAT), 3),
    ]
    for ms, n in cases:
        tp = factor(ms, n)
        for t in (F(0), F(1, 3), F(1, 2), F(-2, 3)):
            report = h_xi_identity(tp, t)
            assert report.exact_zero
            assert all(r == 0 for r in report.residuals)


def test_h_xi_identity_t_zero_gives_e0():
    tp = factor(uniform(), 4)
    xi = xi_vector(tp, F(0)).xi
    # U^t D U xi must equal e_0 exactly
    u_xi = [
        sum(tp.unit_upper[k][j] * xi[j] for j in range(k, 4)) * tp.pivots[k]
        for k in range(4)
    ]
    recon = [sum(tp.unit_upper[k][i] * u_xi[k] for k in range(i + 1)) for i in range(4)]
    assert recon == [1, 0, 0, 0]


def test_h_xi_identity_float_ladder_n12():
    ms = MomentSequence(Gegenbauer(F(1, 2)), F64_BACKEND)
    tp = factor(ms, 12)
    report = h_xi_identity(tp, 0.5)
    assert report.sup < 1e-9


def test_xi_kernel_series_consistency():
    # the coefficient vector xi(t) reproduces sum_k P_k(t) P_k(x) as a power
    # series in x at moderate truncation
    ms = MomentSequence(Gegenbauer(F(1, 2)), F64_BACKEND)
    tp = factor(ms, 12)
    from hankelmoments import eval_polys

    t = 0.3
    out = xi_vector(tp, t)
    pt = eval_polys(tp, t)
    for x in np.linspace(-0.4, 0.4, 9):
        px = eval_polys(tp, x)
        kernel = sum(a * b for a, b in zip(pt, px))
        series = sum(c * x**k for k, c in enumerate(out.xi))
        assert series == pytest.approx(kernel, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# the inverse-product experiment
# ---------------------------------------------------------------------------


def test_a_matrix_size_one_exact():
    tp = factor(MomentSequence(Explicit.from_list(["1"]), RAT), 1)
    report = a_matrix_experiment(tp, MomentSequence(Explicit.from_list(["1"]), RAT), 1)
    assert report.deviation == 0
    assert report.exact_zero


def test_a_matrix_square_cut_is_exact_identity():
    ms = uniform()
    tp = factor(ms, 6)
    report = a_matrix_experiment(tp, ms, 6)
    assert report.exact_zero
    assert report.deviation == 0
    assert report.label == "experiment"


def test_a_matrix_exact_identity_at_any_finite_cut():
    # nested coefficient columns collapse every finite cut to the identity;
    # only the absolute series partial sums carry information
    ms = uniform()
    tp = factor(ms, 10)
    report = a_matrix_experiment(tp, ms, 4)
    assert report.series_cut == 10
    assert report.exact_zero and report.deviation == 0
    assert report.abs_series_max > 1


def test_a_matrix_absolute_series_grows_with_cut():
    ms = MomentSequence(PowerLog(1), RAT)
    small = a_matrix_experiment(factor(ms, 4), ms, 3)
    large = a_matrix_experiment(factor(ms, 10), ms, 3)
    assert large.abs_series_max >= small.abs_series_max
    assert small.n == large.n == 3


def test_a_matrix_float_shows_roundoff_only():
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    tp = factor(ms, 8)
    report = a_matrix_experiment(tp, ms, 8)
    assert not report.exact_zero
    assert report.deviation < 1e-4  # roundoff amplified by the conditioning


@pytest.mark.slow
def test_a_matrix_lognormal_series_trend():
    ms = MomentSequence(LogNormal(1.0), bigfloat(256))
    reports = [
        a_matrix_experiment(factor(ms, cut), ms, 4) for cut in (6, 10, 12)
    ]
    for report in reports:
        assert report.deviation < 1e-6  # bigfloat roundoff only
    sums = [r.abs_series_max for r in reports]
    assert sums == sorted(sums)  # absolute-convergence evidence, report-only
