import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hankelmoments import (
    Discrete,
    DiscreteMeasure,
    Explicit,
    F64_BACKEND,
    Gaussian,
    Gegenbauer,
    HankelError,
    MomentFamily,
    MomentSequence,
    PowerLog,
    PrecisionError,
    RATIONAL_BACKEND,
    TriangularPair,
    bigfloat,
    factor,
    h_xi_identity,
    hankel_rows,
    lambda_profile,
    plateau_verdict,
    xi_vector,
)
from hankelmoments import orthopoly, spectral
from hankelmoments.moments import LogNormal, MissingMomentError
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

from conftest import c_matrix

RAT = RATIONAL_BACKEND
F = Fraction

LAM_MIN_2 = (4 - math.sqrt(13)) / 6
LAM_MAX_2 = (4 + math.sqrt(13)) / 6
# mpmath.eigsy at 1200 bits on the exact Hilbert moments
HILBERT_64_LAMBDA_MIN = 6.07200368296270307882392095089e-96


def uniform(backend=RAT):
    return MomentSequence(Gegenbauer(F(1, 2)), backend)


# four points of weight 1/4 and two spikes, of weight 2^-130 at 1/2 and
# 2^-180 at -1/4: lambda_min(H_5) ~ 2.2e-43 and lambda_min(H_6) ~ 2.2e-58.
# The graded path certifies H_4 at 128 bits and stops at H_5 (theta >= 1);
# the exact H_5 is positive definite, so it climbs and certifies H_5 and
# H_6 at 256 bits
SPIKED = Discrete(
    DiscreteMeasure(
        (F(-1, 2), F(-1, 4), F(0), F(1, 3), F(1, 2), F(3, 4)),
        (F(1, 4), F(1, 2**180), F(1, 4), F(1, 4), F(1, 2**130), F(1, 4)),
    )
)

# a 4-point measure: H_N is singular from N = 5 on
FOUR_POINTS = Discrete(
    DiscreteMeasure((F(-1, 2), F(0), F(1, 3), F(3, 4)), (F(1, 4),) * 4)
)


# ---------------------------------------------------------------------------
# eigenvalue machinery
# ---------------------------------------------------------------------------


def _fixed(x, frac_bits):
    """round(x * 2^frac_bits): a float in the kernels' fixed-point format."""
    return round(x * 2**frac_bits)


def _mpf_householder(rows, n):
    """Oracle: Householder tridiagonalization in mpf at the working precision."""
    a = [list(r) for r in rows]
    for k in range(n - 2):
        norm2 = mpmath.fsum(a[i][k] ** 2 for i in range(k + 1, n))
        if norm2 == 0:
            continue
        alpha = mpmath.sqrt(norm2)
        if a[k + 1][k] > 0:
            alpha = -alpha
        r2 = norm2 - a[k + 1][k] * alpha
        v = [mpmath.mpf(0)] * n
        v[k + 1] = a[k + 1][k] - alpha
        for i in range(k + 2, n):
            v[i] = a[i][k]
        w = [
            mpmath.fsum(a[i][j] * v[j] for j in range(k + 1, n)) / r2
            for i in range(n)
        ]
        coef = mpmath.fsum(v[i] * w[i] for i in range(k + 1, n)) / (2 * r2)
        for i in range(n):
            w[i] = w[i] - coef * v[i]
        for i in range(k, n):
            for j in range(k, i + 1):
                a[i][j] = a[i][j] - v[i] * w[j] - w[i] * v[j]
                a[j][i] = a[i][j]
    return [a[i][i] for i in range(n)], [a[i + 1][i] for i in range(n - 1)]


def _mpf_count_below(diag, off, x):
    """Oracle: Sturm count in mpf at the working precision."""
    count = 0
    tiny = mpmath.mpf(2) ** (-3 * mpmath.mp.prec)
    q = diag[0] - x
    if q < 0:
        count += 1
    for i in range(1, len(diag)):
        if q == 0:
            q = tiny
        q = diag[i] - x - off[i - 1] * off[i - 1] / q
        if q < 0:
            count += 1
    return count


def _tridiagonal_matrix(diag, off):
    n = len(diag)
    t = mpmath.zeros(n, n)
    for i in range(n):
        t[i, i] = diag[i]
    for i in range(n - 1):
        t[i, i + 1] = t[i + 1, i] = off[i]
    return t


@pytest.mark.parametrize(
    "family, n, bits",
    [(Gaussian(), 8, 256), (PowerLog(1), 32, 192), (LogNormal(1.0), 28, 2280)],
    ids=["gaussian", "hilbert", "lognormal"],
)
def test_fixed_point_kernels_match_the_mpf_oracle_and_eigsy(family, n, bits):
    # every path starts from the same moment block at ``bits``, so the
    # comparison isolates the kernels from the rounding of the moments.  The
    # Gaussian block is a checkerboard: one reflected sub-column vanishes up
    # to rounding, so v^t v must be summed from v, not from the rounded alpha
    ms = MomentSequence(family, bigfloat(bits))
    lo, hi = bigfloat_extremes(ms, n, bits)
    with mpmath.workprec(bits):
        block = ms.moments(2 * n - 1)
    with mpmath.workprec(bits + 128):
        rows = [block[k : k + n] for k in range(n)]
        dense = mpmath.eigsy(mpmath.matrix(rows), eigvals_only=True)
        oracle = mpmath.eigsy(_tridiagonal_matrix(*_mpf_householder(rows, n)), eigvals_only=True)
        for ref in (dense, oracle):
            assert abs(lo / min(ref) - 1) < 1e-12
            assert abs(hi / max(ref) - 1) < 1e-12


def _eigsy_on_block(ms, n, bits):
    """Extremes by mpmath.eigsy of the moment block taken at ``bits``."""
    with mpmath.workprec(bits):
        block = ms.moments(2 * n - 1)
    with mpmath.workprec(bits + 128):
        eig = mpmath.eigsy(mpmath.matrix([block[k : k + n] for k in range(n)]), eigvals_only=True)
        return min(eig), max(eig)


def test_mixed_sign_moments_keep_their_sign():
    # points on both sides of 0 make odd moments of either sign (m_1 > 0,
    # m_3 < 0); the fixed-point block must carry each sign into the kernels
    mu = DiscreteMeasure.from_lists([F(-1), F(-1, 2), F(1, 4), F(1, 2), F(19, 20)], [1] * 5)
    ms = MomentSequence(Discrete(mu), bigfloat(128))
    assert ms.moment(1) > 0 > ms.moment(3)
    profile = lambda_profile(ms, [3, 5], quantities=("lambda_min", "lambda_max"))
    for entry in profile.entries:
        lo, hi = bigfloat_extremes(ms, entry.n, 128)
        ref_lo, ref_hi = _eigsy_on_block(ms, entry.n, 128)
        assert abs(lo / ref_lo - 1) < 1e-12 and abs(hi / ref_hi - 1) < 1e-12
        assert entry.status == "ok" and entry.precision_bits == 128
        assert entry.lambda_min == pytest.approx(float(ref_lo), rel=1e-12, abs=0)
        assert entry.lambda_max == pytest.approx(float(ref_hi), rel=1e-12, abs=0)


def test_indefinite_explicit_sequence_reports_a_positivity_error(monkeypatch):
    ms = MomentSequence(Explicit.from_list([1, -2, 1, 3, -1]), F64_BACKEND)
    ref_lo, ref_hi = _eigsy_on_block(ms.with_backend(bigfloat(128)), 3, 128)
    assert ref_lo < 0
    lo, hi = bigfloat_extremes(ms, 3, 128)
    assert abs(lo / ref_lo - 1) < 1e-12 and abs(hi / ref_hi - 1) < 1e-12
    # the graded run stops on the pivot 1 - 2^2 < 0 of the exact H_2, which
    # is indefinite, so it does not climb and proves H_3 not positive
    # definite: the entry reports that error, with no lambda_min, and keeps
    # the certified lambda_max of eigvalsh
    _no_float_factor(monkeypatch)
    runs = _spy_graded(monkeypatch)
    entry = lambda_profile(ms, [3], quantities=("lambda_min", "lambda_max")).entries[0]
    assert runs == [(3, spectral.GRADED_BITS)]
    assert entry.status == "error:PositivityError"
    assert entry.precision_bits == 53 and entry.lambda_min is None
    assert entry.lambda_max == pytest.approx(float(ref_hi), rel=1e-12, abs=0)


def _sturm_cases():
    s = 3**20
    return {
        "toeplitz": ([2 * s] * 11, [-s] * 10),
        "wilkinson": ([abs(10 - i) * s for i in range(21)], [s] * 20),
        "zero-diagonal": ([0] * 10, [s + 7 * i for i in range(9)]),
    }


@pytest.mark.parametrize("case", list(_sturm_cases()))
def test_sturm_count_within_two_units_of_an_eigenvalue_matches_lapack(case):
    # at 3^20 scale LAPACK places every eigenvalue within 1e-3 units, so a
    # point 1 to 2 units away is on a known side; the integer count must be
    # exact there, as it is exact for the diagonal moved by less than one unit
    # (two next to a vanishing pivot: x = 0 on the zero diagonal makes one)
    diag, off = _sturm_cases()[case]
    dense = np.diag(np.array(diag, float))
    dense += np.diag(np.array(off, float), 1) + np.diag(np.array(off, float), -1)
    eig = np.linalg.eigvalsh(dense)
    near = {x for lam in eig for x in (math.floor(lam) - 1, math.ceil(lam) + 1)}
    points = [x for x in sorted(near | {0}) if np.min(np.abs(eig - x)) > 1.01]
    assert sum(np.min(np.abs(eig - x)) <= 2 for x in points) >= len(diag)
    off_sq = [e * e for e in off]
    for x in points:
        expected = int(np.sum(eig < x))
        assert eigen_count_below(diag, off_sq, x) == expected, x
        with mpmath.workprec(128):
            assert _mpf_count_below(
                [mpmath.mpf(d) for d in diag], [mpmath.mpf(e) for e in off], mpmath.mpf(x)
            ) == expected, x


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
        rows = [[_fixed(sym[i, j], 96) for j in range(7)] for i in range(7)]
        diag, off = householder_tridiagonalize(rows, 7, 96)
        lo = extreme_eigenvalue(diag, off, "min", 96) / 2**96
        hi = extreme_eigenvalue(diag, off, "max", 96) / 2**96
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
    d, o = [_fixed(x, 128) for x in diag], [_fixed(x, 128) for x in off]
    lo = extreme_eigenvalue(d, o, "min", 128) / 2**128
    hi = extreme_eigenvalue(d, o, "max", 128) / 2**128
    assert float(lo) == pytest.approx(ref[0], abs=1e-10)
    assert float(hi) == pytest.approx(ref[-1], abs=1e-10)


def test_lambda_min_below_the_resolution_floor_is_not_positive():
    # 1e-60 lies below 2^-128 times the spectral radius: no positive value
    # computed at 128 bits could be trusted
    d, o = [_fixed(1.0, 256), _fixed(1e-60, 256)], [0]
    assert extreme_eigenvalue(d, o, "min", 128) <= 0


def test_negative_lambda_min_below_the_resolution_floor_is_unresolved():
    # the floor holds for either sign: -1e-60 at 128 bits has no trusted sign
    d, o = [_fixed(1.0, 256), _fixed(-1e-60, 256)], [0]
    assert extreme_eigenvalue(d, o, "min", 128) == 0
    # LogNormal(1) at N = 24: at 1024 bits the floor is ~1e152, and the
    # bisected noise below it (-1.08e127) must not come back as a value
    ms = MomentSequence(LogNormal(1), bigfloat(256))
    lo, hi = bigfloat_extremes(ms, 24, 1024, which=("min",))
    assert lo == 0 and hi is None


def _count_steps(monkeypatch):
    """Spy on the Sturm counts made by each extreme_eigenvalue call."""
    steps = []
    count_below = spectral.eigen_count_below
    extreme = spectral.extreme_eigenvalue

    def counting(diag, off, x):
        steps[-1][1] += 1
        return count_below(diag, off, x)

    def spying(diag, off, which, bits):
        steps.append([which, 0])
        return extreme(diag, off, which, bits)

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
    steps = _count_steps(monkeypatch)
    lo, hi = bigfloat_extremes(ms, n, bits)
    assert 0 < lo < hi
    assert [which for which, _ in steps] == ["min", "max"]
    assert all(count <= 100 for _, count in steps), steps


def test_eigen_count_is_monotone():
    rows = [[_fixed(v, 80) for v in row] for row in [[2, 1, 0], [1, 2, 1], [0, 1, 2]]]
    diag, off = householder_tridiagonalize(rows, 3, 80)
    off_sq = [e * e for e in off]
    counts = [eigen_count_below(diag, off_sq, _fixed(x, 80)) for x in (-1, 1, 2.5, 5)]
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
    # N = 8: the graded lambda_min at 128 bits, lambda_max certified at 53
    assert by_n[8].precision_bits == spectral.GRADED_BITS
    assert by_n[16].precision_bits >= 4 * 16 + 64


def test_profile_marks_unresolved_beyond_escalation_cap():
    assert spectral.ESCALATE_MAX_N < 80
    profile = lambda_profile(
        MomentSequence(PowerLog(1), F64_BACKEND),
        [8, 80],
        quantities=("lambda_min", "lambda_max"),
    )
    by_n = {e.n: e for e in profile.entries}
    assert by_n[80].status == "lambda-min-unresolved"
    assert by_n[80].lambda_min is None
    assert by_n[80].lambda_max is not None  # still trustworthy at f64


def test_reliable_lambda_min_survives_a_declined_lambda_max():
    # lambda_max is past the f64 range from N = 20 on and is declined; the
    # certified lambda_min of those entries stays reliable
    profile = lambda_profile(
        MomentSequence(LogNormal(1), bigfloat(64)),
        [8, 16, 24, 31],
        quantities=("lambda_min", "lambda_max"),
    )
    assert [e.status for e in profile.entries][2:] == ["lambda-min-unresolved"] * 2
    reliable = profile.reliable("lambda_min")
    assert [n for n, _ in reliable] == [8, 16, 24, 31]
    assert reliable == [(e.n, e.lambda_min) for e in profile.entries]
    assert [n for n, _ in profile.reliable("lambda_max")] == [8, 16]


def test_profile_lognormal_f64_escalates_instead_of_crashing():
    # the f64 moment path overflows early for this family; the profile must
    # take the eigenvalues from big-float moments and mark the trace
    profile = lambda_profile(
        MomentSequence(LogNormal(1.0), F64_BACKEND),
        [4, 20],
        quantities=("lambda_min", "lambda_max", "trace_partial"),
    )
    for entry in profile.entries:
        assert entry.lambda_min is not None and entry.lambda_min > 0
    # the graded run and the scaled 128-bit block, not a float factor
    assert profile.entries[1].precision_bits == spectral.GRADED_BITS
    assert profile.entries[1].trace_partial == float("inf")  # f64 overflow marker


def test_profile_hs_norm_non_decreasing():
    profile = lambda_profile(uniform(), [2, 4, 8], quantities=("hs_norm_b",))
    hs = [e.hs_norm_b for e in profile.entries]
    assert all(a <= b for a, b in zip(hs, hs[1:]))


def test_profile_trace_partial_column():
    ms = uniform()
    profile = lambda_profile(ms, [2, 3], quantities=("trace_partial",))
    assert profile.entries[0].trace_partial == pytest.approx(1 + 1 / 3)
    assert profile.entries[1].trace_partial == pytest.approx(1 + 1 / 3 + 1 / 5)


def _uncertified_lambda_max(monkeypatch):
    """Decline every LAPACK lambda_max, as an uncertified one is declined
    (the scaled f64 path certifies these inputs)."""
    monkeypatch.setattr(spectral, "_certified_lambda_max", lambda ms, n: None)


def test_profile_entry_with_empty_ladder_is_unresolved(monkeypatch):
    # the largest moment of LogNormal(30) at N=10 is e^{18^2 30^2 / 2} ~
    # 2^210345; the graded lambda_min holds at 128 bits (A is the identity
    # to 128 bits), and an uncertified lambda_max is missing
    _uncertified_lambda_max(monkeypatch)
    ms = MomentSequence(LogNormal(30), bigfloat(64))
    profile = lambda_profile(ms, [10], quantities=("lambda_min", "lambda_max"))
    entry = profile.entries[0]
    assert entry.status == "lambda-min-unresolved"
    assert entry.lambda_min == 1.0 and entry.lambda_max is None
    assert entry.precision_bits == spectral.GRADED_BITS


def test_profile_computes_only_the_requested_extremes(monkeypatch):
    # the spiked N = 5 and 6: the graded run climbs to 256 bits and certifies
    # lambda_min, so no eigvalsh runs; lambda_max alone runs no graded run
    ms = MomentSequence(SPIKED, bigfloat(256))
    real = spectral._certified_lambda_max

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(spectral, "_certified_lambda_max", refuse)
    profile = lambda_profile(ms, [5, 6], quantities=("lambda_min",))
    assert all(e.status == "ok" and e.lambda_max is None for e in profile.entries)
    monkeypatch.setattr(spectral, "_certified_lambda_max", real)
    runs = _spy_graded(monkeypatch)
    profile = lambda_profile(ms, [5, 6], quantities=("lambda_max",))
    assert all(e.status == "ok" and e.lambda_min is None for e in profile.entries)
    assert runs == []


@functools.lru_cache(maxsize=None)
def _eigsy_extremes(family, n, bits=1200):
    with mpmath.workprec(bits):
        ms = MomentSequence(family, bigfloat(bits))
        h = mpmath.matrix([[ms.moment(i + j) for j in range(n)] for i in range(n)])
        eig = mpmath.eigsy(h, eigvals_only=True)
        return float(min(eig)), float(max(eig))


_DEFAULT_QUANTITIES = ("lambda_min", "lambda_max", "hs_norm_b", "trace_partial")
_BOTH = ("lambda_min", "lambda_max")


# the f64 and rational rows are truncations whose LAPACK lambda_min is wrong
# although the machine Cholesky succeeds (Gaussian N = 16 and 24 negative,
# Gegenbauer(3/10) N = 24 36 % off, Legendre N = 24 1.1 %, Hilbert N = 12
# 3.9 %, LogNormal(1) N = 8 -5.2e10), so lambda_min must not come from it
@pytest.mark.parametrize(
    "family, backend, grid, quantities",
    [
        (PowerLog(1), bigfloat(64), list(range(8, 21, 2)), _BOTH),
        (Gaussian(), bigfloat(64), list(range(8, 21, 2)), _BOTH),
        (Gaussian(), F64_BACKEND, [16, 24], _DEFAULT_QUANTITIES),
        (Gegenbauer(F(3, 10)), RAT, [24], _DEFAULT_QUANTITIES),
        (Gegenbauer(F(1, 2)), F64_BACKEND, [24], _DEFAULT_QUANTITIES),
        (PowerLog(1), F64_BACKEND, [12], _DEFAULT_QUANTITIES),
        (LogNormal(1.0), F64_BACKEND, [2, 4, 8, 12], _BOTH),
    ],
    ids=["hilbert", "gaussian", "gaussian-f64", "gegenbauer-rational", "legendre-f64",
         "hilbert-f64", "lognormal-f64"],
)
def test_bigfloat_profile_matches_eigsy(family, backend, grid, quantities):
    profile = lambda_profile(MomentSequence(family, backend), grid, quantities)
    for entry in profile.entries:
        lam_min, lam_max = _eigsy_extremes(family, entry.n)
        assert entry.status == "ok"
        assert entry.lambda_min == pytest.approx(lam_min, rel=1e-12, abs=0), entry.n
        assert entry.lambda_max == pytest.approx(lam_max, rel=1e-12, abs=0), entry.n


_DISCRETE_25 = Discrete(
    DiscreteMeasure(
        tuple(F(2 * k - 24, 25) for k in range(25)), tuple(F(1, k + 1) for k in range(25))
    )
)


def _spy_factor(monkeypatch):
    """Record the backend of every sequence the profile factors."""
    seen = []
    real = spectral.factor

    def spy(ms, n):
        seen.append(ms.backend)
        return real(ms, n)

    monkeypatch.setattr(spectral, "factor", spy)
    return seen


@pytest.mark.parametrize("backend", [F64_BACKEND, RAT, bigfloat(64)], ids=lambda b: b.tag())
@pytest.mark.parametrize(
    "family",
    [PowerLog(1), PowerLog(2), Gegenbauer(F(1, 2)), Gegenbauer(F(3, 10)), Gaussian(),
     LogNormal(1.0), _DISCRETE_25],
    ids=["hilbert", "powerlog2", "legendre", "gegenbauer", "gaussian", "lognormal", "discrete25"],
)
def test_extreme_columns_do_not_depend_on_the_other_quantities(monkeypatch, family, backend):
    # one path per extreme: asking for other quantities never changes a value.
    # An entry that fails on another quantity reports an error status (the
    # log-normal trace has no rational value); its eigenvalues are not compared.
    # A weight the graded run does not certify is the exact one: the profile
    # factors only rational sequences
    seen = _spy_factor(monkeypatch)
    ms = MomentSequence(family, backend)
    grid = list(range(4, 25, 4))
    sets = [("lambda_min",), ("lambda_max",), _BOTH, _DEFAULT_QUANTITIES]
    profiles = {q: lambda_profile(ms, grid, q).entries for q in sets}
    assert set(seen) <= {RAT}
    for name, alone in [("lambda_min", sets[0]), ("lambda_max", sets[1])]:
        for quantities in sets[2:]:
            for a, b in zip(profiles[alone], profiles[quantities]):
                if not b.status.startswith("error"):
                    assert getattr(a, name) == getattr(b, name), (name, quantities, a.n)


@pytest.mark.parametrize("backend", [F64_BACKEND, RAT, bigfloat(64)], ids=lambda b: b.tag())
@pytest.mark.parametrize(
    "family",
    [PowerLog(1), PowerLog(2), Gegenbauer(F(1, 2)), Gegenbauer(F(3, 10)), Gaussian(),
     LogNormal(1.0), _DISCRETE_25],
    ids=["hilbert", "powerlog2", "legendre", "gegenbauer", "gaussian", "lognormal", "discrete25"],
)
def test_lambda_max_never_reaches_the_ladder(monkeypatch, family, backend):
    # the scaled f64 block serves big-float sequences, f64-refused sizes
    # (log-normal past N = 8) and families without rational moments alike.
    # The log-normal lambda_max from N = 20 on is past the f64 range, so it
    # is declined instead of written as inf
    _no_float_factor(monkeypatch)
    profile = lambda_profile(MomentSequence(family, backend), range(4, 25, 4), ("lambda_max",))
    for entry in profile.entries:
        if family == LogNormal(1.0) and entry.n >= 20:
            assert entry.status == "lambda-min-unresolved" and entry.lambda_max is None, entry
            assert entry.precision_bits is None
        else:
            assert entry.status == "ok" and entry.precision_bits == 53, entry


def test_hilbert_n64_lambda_min_labelled_ok_matches_eigsy(monkeypatch):
    # an earlier eigenvalue rule put it "ok" at 320 bits, ~2 bits above the resolution floor
    # and 3.7e-4 off; the graded path climbs 128 -> 256 -> 512 bits instead
    _no_float_factor(monkeypatch)
    entry = lambda_profile(
        MomentSequence(PowerLog(1), F64_BACKEND), [64], quantities=("lambda_min",)
    ).entries[0]
    assert entry.status != "ok" or entry.lambda_min == pytest.approx(
        HILBERT_64_LAMBDA_MIN, rel=1e-12, abs=0
    )
    assert entry.status == "ok" and entry.precision_bits == 512


def _list_built_lambda_max(ms, n):
    """The certified lambda_max as computed from a truncation of row lists."""
    h64 = np.array(hankel_rows(ms, n), dtype=float)
    lam = float(np.linalg.eigvalsh(h64)[-1])
    return lam if spectral._eigvalsh_error(h64) <= spectral.LAMBDA_MAX_TOL * abs(lam) else None


@pytest.mark.parametrize(
    "family, backend",
    [(PowerLog(1), F64_BACKEND), (PowerLog(2), RAT), (PowerLog(F(1, 2)), F64_BACKEND),
     (Gegenbauer(F(1, 2)), F64_BACKEND), (Gegenbauer(F(1, 2)), RAT),
     (Gegenbauer(F(3, 10)), F64_BACKEND), (Gegenbauer(F(3, 10)), RAT)],
    ids=["hilbert-f64", "powerlog2-rational", "powerlog-half-f64", "legendre-f64",
         "legendre-rational", "gegenbauer-f64", "gegenbauer-rational"],
)
def test_lambda_max_of_the_window_view_is_bit_equal_to_the_row_lists(family, backend):
    # the f64 truncation is a sliding-window view of one moment array; its
    # certified lambda_max has the bits of the one built from row lists
    for n in (2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 256, 512):
        ms = MomentSequence(family, backend)
        assert spectral._certified_lambda_max(ms, n) == _list_built_lambda_max(ms, n), n


def test_rational_power_log_float_array_rounds_each_fraction():
    # the vectorized pow is the f64 sequence's; a rational one rounds its Fractions
    ms = MomentSequence(PowerLog(2), RAT)
    assert ms.float_array(600).tolist() == [float(F(1, (j + 1) ** 2)) for j in range(600)]


def test_lognormal_f64_profile_walks_the_factor_ladder_past_n8():
    # the graded run reads 128-bit moments and lambda_max the f64 block up to
    # N = 19, where every f64 moment is finite; hs_norm_b and both extremes
    # agree with the big-float profile's
    grid = [8, 12, 16]
    f64 = lambda_profile(MomentSequence(LogNormal(1.0), F64_BACKEND), grid).entries
    big = lambda_profile(MomentSequence(LogNormal(1.0), bigfloat(256)), grid).entries
    for a, b in zip(f64, big):
        assert a.status == "ok", a
        assert a.lambda_min > 0 and a.lambda_max > 0
        assert a.hs_norm_b == pytest.approx(b.hs_norm_b, rel=1e-12, abs=0), a.n


def _exact_lognormal_lambda_max(sigma, n, bits=1200):
    """lambda_max of H_N by ``mpmath.eigsy`` on the moments exp(j^2 sigma^2 / 2)
    of the exact sigma, each argument formed at ``bits``."""
    with mpmath.workprec(bits):
        moments = []
        for j in range(2 * n - 1):
            arg = F(sigma) ** 2 * j * j / 2
            moments.append(mpmath.exp(mpmath.mpf(arg.numerator) / arg.denominator))
        h = mpmath.matrix([[moments[i + k] for k in range(n)] for i in range(n)])
        return max(mpmath.eigsy(h, eigvals_only=True))


@pytest.mark.parametrize("sigma", [1.3, 2.1])
def test_lognormal_f64_lambda_max_lies_within_its_bound(sigma):
    # the f64 block is read directly at every size with finite moments (up to
    # N = 15 and 9); the bound assumes moments within a few roundings, which
    # an exp argument rounded before exp breaks (sigma = 1.3 at N = 6 would be
    # 8.2e-15 off against a bound of 2.7e-15, sigma = 2.1 at N = 8 3.0e-14
    # against 3.6e-15)
    ms = MomentSequence(LogNormal(sigma), F64_BACKEND)
    last = {1.3: 15, 2.1: 9}[sigma]
    ms.float_array(2 * last - 1)  # every moment of H_last is finite
    with pytest.raises(PrecisionError, match="bigfloat"):
        ms.moment(2 * last)
    for n in range(2, last + 1):
        h64, _ = spectral._scaled_truncation(ms, n)
        lam_max = spectral._certified_lambda_max(ms, n)
        bound = spectral._eigvalsh_error(h64) / float(np.linalg.eigvalsh(h64)[-1])
        exact = _exact_lognormal_lambda_max(sigma, n)
        assert float(abs(lam_max - exact) / exact) <= bound, n


def _no_float_factor(monkeypatch):
    """Refuse a float factor and the fixed-point eigenvalue kernels."""
    real = spectral.factor

    def refuse(*args, **kwargs):
        raise AssertionError("the big-float path ran")

    def exact_only(ms, n):
        assert ms.backend == RAT, "a float factor ran"
        return real(ms, n)

    monkeypatch.setattr(spectral, "factor", exact_only)
    monkeypatch.setattr(spectral, "bigfloat_extremes", refuse)


# eigsy needs the bits of the largest moment on top of the 1200 it keeps for
# the other families: LogNormal(1) reaches m_46 ~ 2^1526 at N = 24
@pytest.mark.parametrize(
    "family, backend, grid, bits",
    [
        (LogNormal(1.0), bigfloat(256), [4, 12, 24], 2800),
        (Gaussian(), bigfloat(256), [8, 24, 40], 1200),
        (PowerLog(1), F64_BACKEND, [12], 1200),
    ],
    ids=["lognormal", "gaussian", "hilbert-f64"],
)
def test_graded_lambda_min_matches_eigsy(monkeypatch, family, backend, grid, bits):
    # LAPACK on the f64 Hilbert truncation puts lambda_min(12) 3.9 % off;
    # the graded path takes the moment growth out and keeps 1e-12
    _no_float_factor(monkeypatch)
    ms = MomentSequence(family, backend)
    for entry in lambda_profile(ms, grid, quantities=("lambda_min",)).entries:
        assert entry.status == "ok" and entry.precision_bits == spectral.GRADED_BITS
        lam_min = _eigsy_extremes(family, entry.n, bits)[0]
        assert entry.lambda_min == pytest.approx(lam_min, rel=1e-12, abs=0), entry.n


@pytest.mark.parametrize(
    "family, grid, bits, accepted",
    [
        (LogNormal(1.0), [4, 12, 24], 2800, True),
        (Gaussian(), [8, 24, 40], 1200, True),
        (PowerLog(1), [12, 16, 18], 1200, True),
        (PowerLog(1), [20, 24], 1200, False),
    ],
    ids=["lognormal", "gaussian", "hilbert", "hilbert-declined"],
)
def test_graded_bound_covers_its_error(family, grid, bits, accepted):
    # accepted entries state eps <= 1e-12; Hilbert from N = 19 on states
    # more and is declined, but its bound still covers the error
    # single-size runs; tol=1 lets a declined size report its bound too
    ms = MomentSequence(family, F64_BACKEND)
    for n in grid:
        item = spectral._graded_lambda_min(ms, [n], tol=1)[0]
        assert item.bits == spectral.GRADED_BITS
        assert (item.eps <= spectral.LAMBDA_MAX_TOL) == accepted, (n, item.eps)
        assert abs(item.lambda_min / _eigsy_extremes(family, n, bits)[0] - 1) <= item.eps, n


def test_lognormal_profile_never_reaches_the_ladder(monkeypatch):
    _no_float_factor(monkeypatch)
    profile = lambda_profile(
        MomentSequence(LogNormal(1.0), bigfloat(256)), range(4, 41, 4), quantities=("lambda_min",)
    )
    for entry in profile.entries:
        assert entry.status == "ok" and entry.precision_bits == spectral.GRADED_BITS
    assert plateau_verdict(profile, 4, 0.5).label == "indeterminate-like"


def _spy_graded(monkeypatch):
    """Record the size and rung of every graded run, one record per rung."""
    runs = []
    real = orthopoly.graded_rows

    def spy(ms, top, bits, tol):
        runs.append((top, bits))
        return real(ms, top, bits, tol)

    monkeypatch.setattr(orthopoly, "graded_rows", spy)
    return runs


def test_graded_path_climbs_its_own_rungs_on_hilbert(monkeypatch):
    # theta passes 1e-12 at M = 19 at 128 bits, below 1: the sizes from 19 on
    # run again at 256 bits, and no entry reaches Householder
    def refuse(*args, **kwargs):
        raise AssertionError("householder_tridiagonalize ran")

    monkeypatch.setattr(spectral, "householder_tridiagonalize", refuse)
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    grid = list(range(4, 33, 4))
    items = spectral._graded_lambda_min(ms, grid)
    runs = _spy_graded(monkeypatch)
    profile = lambda_profile(ms, grid)
    assert runs == [(32, 128), (32, 256)]
    for entry, item in zip(profile.entries, items):
        assert entry.status == "ok" and entry.lambda_min == item.lambda_min
        assert entry.precision_bits == item.bits == (128 if entry.n < 19 else 256)
        err = abs(item.lambda_min / _eigsy_extremes(PowerLog(1), entry.n)[0] - 1)
        assert err <= item.eps, entry.n
        if item.bits == 256:
            assert err <= 1e-15, entry.n


def test_singular_truncation_grades_once_and_skips_the_ladder(monkeypatch):
    # H_N of the 4-point measure is singular from N = 5 on: the graded run
    # stops there even with tol=1, and the exact leading 5 x 5 block is not
    # positive definite, so it does not climb.  Every larger size reports
    # the PositivityError of dimension 5, with no value
    ms = MomentSequence(FOUR_POINTS, F64_BACKEND)
    item = spectral._graded_lambda_min(ms, [4, 5], tol=1)[1]
    assert isinstance(item, spectral.PositivityError) and item.dimension == 5
    _no_float_factor(monkeypatch)
    runs = _spy_graded(monkeypatch)
    entries = lambda_profile(ms, [4, 8, 12, 16], quantities=("lambda_min",)).entries
    assert runs == [(16, 128)]
    assert entries[0].status == "ok" and entries[0].precision_bits == 128
    for entry in entries[1:]:
        assert entry.status == "error:PositivityError"
        assert entry.lambda_min is None and entry.precision_bits is None
    # a certified lambda_max still comes from LAPACK
    entries = lambda_profile(ms, [8], quantities=("lambda_min", "lambda_max")).entries
    assert entries[0].status == "error:PositivityError" and entries[0].precision_bits == 53
    assert entries[0].lambda_max == pytest.approx(_eigsy_extremes(FOUR_POINTS, 8)[1], rel=1e-12)


def test_exact_positive_definiteness_reads_the_rational_ldl():
    # a zero pivot (the 4-point H_5) and a negative one (H_2 of the
    # indefinite data) both fail; a measure with infinite support passes
    four = MomentSequence(FOUR_POINTS, F64_BACKEND)
    assert four.family.positive_definite_limit(4) == 4
    assert four.family.positive_definite_limit(5) == 4
    indefinite = MomentSequence(Explicit.from_list([1, -2, 1, 3, -1]), F64_BACKEND)
    assert indefinite.family.positive_definite_limit(1) == 1
    assert indefinite.family.positive_definite_limit(2) == 1
    spiked = MomentSequence(SPIKED, bigfloat(64))
    assert spiked.family.positive_definite_limit(6) == 6
    assert spiked.family.positive_definite_limit(7) == 6
    lognormal = MomentSequence(LogNormal(1.0), F64_BACKEND)
    assert lognormal.family.positive_definite_limit(8) == 8


def test_explicit_float_data_is_tested_exactly(monkeypatch):
    # f64 explicit data stands for its float values, dyadic rationals that
    # the rational backend refuses as input, so the exact test reads them as
    # Fractions.  Rounded to f64, the Hilbert H_N is positive definite up to
    # N = 13 only: N = 16 reports the exact factor's PositivityError, not a
    # BackendError of the refused floats, and the graded run does not climb
    _no_float_factor(monkeypatch)
    runs = _spy_graded(monkeypatch)
    ms = MomentSequence(Explicit(tuple(1.0 / (j + 1) for j in range(31))), F64_BACKEND)
    assert ms.family.positive_definite_limit(13) == 13
    assert ms.family.positive_definite_limit(14) == 13
    entries = lambda_profile(ms, [8, 16]).entries
    assert [(e.status, e.precision_bits) for e in entries] == [
        ("ok", 128), ("error:PositivityError", 53)
    ]
    assert runs == [(16, 128)]


def test_float_discrete_data_is_tested_exactly(monkeypatch):
    # four float points: the exact H_5 is singular, so the 128-bit run stops
    # there for good, and every larger size reports the exact factor's
    # PositivityError rather than climbing to the cap
    _no_float_factor(monkeypatch)
    runs = _spy_graded(monkeypatch)
    mu = DiscreteMeasure((-0.5, 0.0, 0.25, 0.75), (0.25,) * 4)
    entries = lambda_profile(MomentSequence(Discrete(mu), F64_BACKEND), [4, 8, 16, 32]).entries
    assert [e.status for e in entries] == ["ok"] + ["error:PositivityError"] * 3
    assert runs == [(32, 128)]


# five points, one of weight 2^-300 at 1/2: the graded run stops on a pivot
# <= 0 of H_5 at 128 and 256 bits, and certifies it at 512
FAINT_POINT = Discrete(
    DiscreteMeasure(
        (F(-1, 2), F(0), F(1, 3), F(1, 2), F(3, 4)),
        (F(1, 4), F(1, 4), F(1, 4), F(1, 2**300), F(1, 4)),
    )
)


def test_graded_path_climbs_unless_the_exact_block_is_not_positive_definite(monkeypatch):
    hilbert = MomentSequence(PowerLog(1), F64_BACKEND)
    assert spectral._graded_lambda_min(hilbert, [24], tol=1)[0].eps > spectral.LAMBDA_MAX_TOL
    # pivot 1 - 2^2 < 0 of an exact H_2 that is not positive definite
    indefinite = MomentSequence(Explicit.from_list([1, -2, 1, 3, -1]), F64_BACKEND)
    crossed = MomentSequence(Explicit.from_list([1, 2, 1]), F64_BACKEND)
    for ms, n in [(indefinite, 3), (crossed, 2)]:
        item = spectral._graded_lambda_min(ms, [n])[0]
        assert isinstance(item, spectral.PositivityError) and item.dimension == 2
    # the spiked theta_5 passes 1 at 128 bits and the faint point's pivot
    # drops to 0 or below, but both exact H_5 are positive definite: the run
    # climbs until it certifies them
    _no_float_factor(monkeypatch)
    for family, bits in [(SPIKED, 256), (FAINT_POINT, 512)]:
        ms = MomentSequence(family, bigfloat(256))
        item = spectral._graded_lambda_min(ms, [5], tol=1)[0]
        assert item.bits == bits and item.eps <= spectral.LAMBDA_MAX_TOL
        entry = lambda_profile(ms, [5], quantities=("lambda_min",)).entries[0]
        assert entry.status == "ok" and entry.precision_bits == bits
        lam_min = _eigsy_extremes(family, 5)[0]
        assert entry.lambda_min == pytest.approx(lam_min, rel=1e-12, abs=0)
    # the indefinite truncation reports that error, with no value, as it
    # does when lambda_max is asked for too
    entry = lambda_profile(indefinite, [3], quantities=("lambda_min",)).entries[0]
    assert entry.status == "error:PositivityError"
    assert entry.lambda_min is None and entry.precision_bits is None


def test_f64_lambda_max_is_certified_at_53_bits(monkeypatch):
    # machine Cholesky fails from N ~ 13 on, but backward-stable LAPACK
    # lambda_max stays within eps = 4 N u |H|_F / lambda_max of the exact one
    _no_float_factor(monkeypatch)
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    profile = lambda_profile(ms, [16, 32, 64], quantities=("lambda_max",))
    for entry in profile.entries:
        assert entry.status == "ok" and entry.precision_bits == 53
        lam_max = _eigsy_extremes(PowerLog(1), entry.n)[1]
        assert entry.lambda_max == pytest.approx(lam_max, rel=1e-12, abs=0), entry.n


def test_uncertified_lambda_max_is_unresolved():
    # -H_16: lambda_max = -lambda_min(Hilbert) ~ -1e-22 is far below the
    # rounding of |H|_F ~ 1.9, so LAPACK's value carries no digits; the same
    # eigvalsh certifies lambda_min ~ -1.5, which the entry does not ask for
    n = 16
    ms = MomentSequence(
        Explicit(tuple(F(-1, j + 1) for j in range(2 * n - 1))), F64_BACKEND
    )
    h = np.array(ms.moments(2 * n - 1))
    h = np.array([h[k : k + n] for k in range(n)])
    lam = np.linalg.eigvalsh(h)
    assert spectral._eigvalsh_error(h) > spectral.LAMBDA_MAX_TOL * abs(lam[-1])
    assert spectral._eigvalsh_error(h) <= spectral.LAMBDA_MAX_TOL * abs(lam[0])
    entry = lambda_profile(ms, [n], quantities=("lambda_max",)).entries[0]
    assert entry.status == "lambda-min-unresolved"
    assert entry.lambda_max is None and entry.precision_bits is None


@pytest.mark.parametrize("backend", [F64_BACKEND, RAT], ids=lambda b: b.tag())
def test_subnormal_block_is_not_certified_at_53_bits(backend):
    # Hilbert moments times 2^-1060 round to subnormals with about 14 bits;
    # LAPACK on them put lambda_max 3.3e-5 off under "ok" at 53 bits.  The
    # underflow term declines it, and the entry is unresolved with no value
    n = 4
    values = tuple(F(1, (j + 1) * 2**1060) for j in range(2 * n - 1))
    ms = MomentSequence(Explicit(values), backend)
    entry = lambda_profile(ms, [n], quantities=("lambda_max",)).entries[0]
    assert entry.status == "lambda-min-unresolved"
    assert entry.lambda_max is None and entry.precision_bits is None


class _Counting(MomentFamily):
    """Moments of ``base`` that count how often each (backend, index) is computed."""

    name = "counting"

    def __init__(self, base):
        self.base = base
        self.calls = {}

    def moment(self, n, backend, known=None):
        self.calls[backend, n] = self.calls.get((backend, n), 0) + 1
        return self.base.moment(n, backend)


def test_profile_grid_computes_each_probe_moment_once():
    # the profile runs no float factor, so it reads no 64-bit probe at
    # all; N = 4 is graded at 128 bits, and N = 5 and 6 at 256 after one
    # exact check of H_5, each moment computed once per backend
    family = _Counting(SPIKED)
    ms = MomentSequence(family, F64_BACKEND)
    profile = lambda_profile(ms, [4, 5, 6], quantities=("lambda_min",))
    assert [e.precision_bits for e in profile.entries] == [128, 256, 256]
    assert all(e.status == "ok" for e in profile.entries)
    assert bigfloat(64) not in {backend for backend, _ in family.calls}
    assert set(family.calls.values()) == {1}


def test_hs_norm_entry_computes_its_rung_block_once():
    family = _Counting(SPIKED)
    ms = MomentSequence(family, bigfloat(256))
    # N = 5: the graded run climbs to 256 bits, where lambda_min and the
    # weight come from one block
    entry = lambda_profile(ms, [5], quantities=("lambda_min", "hs_norm_b")).entries[0]
    assert entry.status == "ok" and entry.precision_bits == 256
    block = {n: c for (backend, n), c in family.calls.items() if backend == bigfloat(256)}
    assert block == {j: 1 for j in range(2 * 5 - 1)}
    assert entry.hs_norm_b > 0


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
    # moments, overflow) fall back to 128-bit moments; a bug must surface
    ms = MomentSequence(_BrokenAtF64(), F64_BACKEND)
    with pytest.raises(TypeError, match="f64 moment branch"):
        lambda_profile(ms, [4, 8], quantities=("lambda_min", "lambda_max"))


@pytest.mark.parametrize(
    "quantities, index",
    [(("lambda_min",), 5), (("hs_norm_b",), 5), (("lambda_min", "hs_norm_b", "trace_partial"), 6)],
    ids=["graded", "hs", "trace-first"],
)
def test_short_explicit_data_names_the_index_of_a_single_size_run(quantities, index):
    # the grid functions hold a missing moment until the entry that needs
    # it, so the profile stops where a run of that size alone stops.  The
    # five Hilbert values are positive definite up to N = 3, so no size
    # before the missing moment fails for another reason
    ms = MomentSequence(Explicit.from_list([F(1, j + 1) for j in range(5)]), F64_BACKEND)
    for grid in ([2, 3, 5], [5]):
        with pytest.raises(MissingMomentError, match=f"index {index} requested"):
            lambda_profile(ms, grid, quantities=quantities)


def test_hilbert_hs_norm_grid_matches_the_exact_trace():
    # every size reads ||Y_M||_F off the graded run (128 and 256 bits); an
    # f64 factor would put N = 8 and 12 5e-9 and 1.2e-2 off
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    profile = lambda_profile(ms, range(4, 33, 4))
    exact = factor(MomentSequence(PowerLog(1), RAT), 32).hs_norm_sq_b()
    for entry in profile.entries:
        assert entry.status == "ok"
        ref = math.sqrt(exact[entry.n - 1])
        assert entry.hs_norm_b == pytest.approx(ref, rel=1e-14, abs=0), entry.n


@pytest.mark.parametrize("grid", [[12], [4, 8, 12]], ids=["n12", "n4-12"])
def test_small_f64_hilbert_grid_hs_norm_is_the_exact_weight(grid):
    # a 53-bit factor puts hs_norm_b 1.2 % off at N = 12; the graded run
    # needs no factor
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    entry = lambda_profile(ms, grid, quantities=("hs_norm_b",)).entries[-1]
    ref = math.sqrt(factor(MomentSequence(PowerLog(1), RAT), 12).hs_norm_sq_b()[11])
    assert entry.status == "ok" and entry.n == 12
    assert entry.hs_norm_b == pytest.approx(ref, rel=1e-12, abs=0)


def _two_spikes(weight):
    """Weight ``weight`` at -1/2 and 1/2: H_1 = (2w), H_2 = diag(2w, w/2)."""
    return Discrete(DiscreteMeasure((F(-1, 2), F(1, 2)), (weight, weight)))


# lambda_min(H_1) = 2w is past the f64 range either way, the weights
# sqrt(1/(2w)) and sqrt(5/(2w)) are not
_SPIKES_400 = {"heavy": _two_spikes(F(10**400)), "light": _two_spikes(F(1, 10**400))}


@pytest.mark.parametrize(
    "family, backend, grid, ref_backend",
    [
        (PowerLog(1), F64_BACKEND, list(range(2, 65)), RAT),
        (Gegenbauer(F(1, 2)), F64_BACKEND, list(range(4, 41, 4)), RAT),
        (Gaussian(), F64_BACKEND, list(range(4, 41, 4)), RAT),
        (Gaussian(), bigfloat(256), list(range(4, 41, 4)), RAT),
        (LogNormal(1.0), F64_BACKEND, list(range(4, 29, 4)), bigfloat(1024)),
    ] + [
        (family, backend, [1, 2], RAT)
        for family in _SPIKES_400.values() for backend in (F64_BACKEND, bigfloat(128))
    ],
    ids=["hilbert", "legendre", "gaussian-f64", "gaussian", "lognormal"] + [
        f"{name}-spikes-{tag}" for name in _SPIKES_400 for tag in ("f64", "bigfloat:128")
    ],
)
def test_graded_hs_norm_bound_covers_its_error(family, backend, grid, ref_backend):
    # ||Y_M||_F against the weight of the exact (or 1024-bit) factor, every
    # size certified; Hilbert climbs to 256 and 512 bits.  An exact trace is
    # rooted before it is rounded, since the two-spike traces are outside the
    # f64 range (in range the root has the bytes of math.sqrt(float(q)))
    items = spectral._graded_lambda_min(MomentSequence(family, backend), grid)
    exact = factor(MomentSequence(family, ref_backend), grid[-1]).hs_norm_sq_b()
    for n, item in zip(grid, items):
        assert item.hs_eps <= spectral.LAMBDA_MAX_TOL, n
        q = exact[n - 1]
        ref = spectral._sqrt_to_float(q) if isinstance(q, F) else math.sqrt(float(q))
        assert abs(item.hs_norm_b / ref - 1) <= item.hs_eps, n


@pytest.mark.parametrize("backend", [F64_BACKEND, bigfloat(128)], ids=lambda b: b.tag())
@pytest.mark.parametrize("name", _SPIKES_400)
def test_weight_is_kept_where_lambda_min_is_declined(name, backend):
    # the graded run declines lambda_min(H_N), outside the f64 range, and
    # still reports the weight of the same size, at its rung, with no factor
    ms = MomentSequence(_SPIKES_400[name], backend)
    items = spectral._graded_lambda_min(ms, [1, 2])
    assert [(item.lambda_min, item.eps) for item in items] == [(None, math.inf)] * 2
    entries = lambda_profile(ms, [1, 2], ("lambda_min", "hs_norm_b")).entries
    assert [(e.lambda_min, e.hs_norm_b, e.precision_bits, e.status) for e in entries] == [
        (None, item.hs_norm_b, 128, "lambda-min-unresolved") for item in items
    ]


def test_declined_hs_norm_bound_still_covers_its_error():
    # Hilbert N = 20 and 24 at 128 bits state more than 1e-12, and hold it
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    exact = factor(MomentSequence(PowerLog(1), RAT), 24).hs_norm_sq_b()
    for n in (20, 24):
        item = spectral._graded_lambda_min(ms, [n], tol=1)[0]
        assert item.bits == 128 and item.hs_eps > spectral.LAMBDA_MAX_TOL
        assert abs(item.hs_norm_b / math.sqrt(exact[n - 1]) - 1) <= item.hs_eps, n


def test_hs_norm_grid_keeps_the_single_size_statuses():
    # a 4-point measure: H_N is singular from N = 5 on, so each of those
    # sizes fails its own factor and the walk moves down to N = 4
    mu = DiscreteMeasure((F(-1, 2), F(0), F(1, 3), F(3, 4)), (F(1), F(2), F(1, 2), F(1, 4)))
    ms = MomentSequence(Discrete(mu), RAT)
    grid = list(range(2, 7))
    entries = lambda_profile(ms, grid, quantities=("hs_norm_b",)).entries
    singles = [lambda_profile(ms, [n], quantities=("hs_norm_b",)).entries[0] for n in grid]
    assert entries == singles
    assert [e.status for e in entries] == ["ok"] * 3 + ["error:PositivityError"] * 2
    assert all(e.hs_norm_b > 0 for e in entries[:3])


_ALL_BACKENDS = [RAT, F64_BACKEND, bigfloat(128)]


@pytest.mark.parametrize(
    "family, backend",
    [(PowerLog(1), F64_BACKEND), (PowerLog(F(1, 2)), F64_BACKEND), (Gaussian(), F64_BACKEND),
     (Gegenbauer(F(3)), F64_BACKEND)]
    + [(LogNormal(sigma), bigfloat(64)) for sigma in (0.3, 1.0, 2.0, 3.0)]
    + [(spikes, backend) for spikes in _SPIKES_400.values()
       for backend in (F64_BACKEND, bigfloat(128))],
    ids=["hilbert", "powerlog-half", "gaussian", "gegenbauer3", "lognormal-0.3", "lognormal-1",
         "lognormal-2", "lognormal-3", "heavy-spikes-f64", "heavy-spikes-bigfloat:128",
         "light-spikes-f64", "light-spikes-bigfloat:128"],
)
def test_float_weight_has_one_source(monkeypatch, family, backend):
    # a float sequence takes its weight from the graded run alone: the
    # profile factors nothing and never reaches the exact weight
    def refuse(*args, **kwargs):
        raise AssertionError("a float weight read the exact factor")

    monkeypatch.setattr(spectral, "factor", refuse)
    monkeypatch.setattr(spectral, "_hs_norms", refuse)
    grid = [1, 2] if family.name == "discrete" else list(range(8, 65, 8))
    entries = lambda_profile(MomentSequence(family, backend), grid).entries
    assert all(e.hs_norm_b is not None for e in entries)


@pytest.mark.parametrize("backend", [F64_BACKEND, RAT], ids=lambda b: b.tag())
def test_weight_asked_for_and_not_given_is_unresolved(backend):
    # above ESCALATE_MAX_N no path gives the weight, so an entry that asks
    # for it is unresolved
    ms = MomentSequence(PowerLog(1), backend)
    entry = lambda_profile(ms, [80], ("hs_norm_b",)).entries[0]
    assert (entry.hs_norm_b, entry.status) == (None, "lambda-min-unresolved")


def test_reliable_lambda_min_survives_a_declined_weight(monkeypatch):
    # a declined weight leaves the entry unresolved; its certified lambda_min
    # stays reliable
    monkeypatch.setattr(spectral, "_hs_norms", lambda ms, grid: {})
    profile = lambda_profile(MomentSequence(PowerLog(1), RAT), [4, 8], ("lambda_min", "hs_norm_b"))
    assert [(e.hs_norm_b, e.status) for e in profile.entries] == [
        (None, "lambda-min-unresolved")
    ] * 2
    assert profile.reliable("lambda_min") == [(e.n, e.lambda_min) for e in profile.entries]
    assert all(value > 0 for _, value in profile.reliable("lambda_min"))


@pytest.mark.parametrize("backend", _ALL_BACKENDS, ids=lambda b: b.tag())
def test_lambda_min_past_the_f64_range_is_declined(backend):
    # lambda_min(H_1) = 2e400 is past the f64 range: 1/sigma^2 of the graded
    # run declines the size, and the profile goes on
    ms = MomentSequence(_two_spikes(F(10**400)), backend)
    entries = lambda_profile(ms, [1, 2], ("lambda_min",)).entries
    assert [(e.lambda_min, e.status) for e in entries] == [(None, "lambda-min-unresolved")] * 2


@pytest.mark.parametrize("backend", _ALL_BACKENDS, ids=lambda b: b.tag())
@pytest.mark.parametrize("weight", [F(10**400), F(1, 10**400)], ids=["heavy", "light"])
def test_exact_weight_is_rooted_before_it_is_rounded(weight, backend):
    # tr(H_1^-1) = 1/(2w) and tr(H_2^-1) = 5/(2w) are outside the f64 range
    # while their roots are not, so the root is taken before the rounding
    ms = MomentSequence(_two_spikes(weight), backend)
    entries = lambda_profile(ms, [1, 2], ("hs_norm_b",)).entries
    with mpmath.workprec(200):
        exact = [float(mpmath.sqrt(mpmath.mpf(t) / (2 * weight))) for t in (1, 5)]
    assert [(e.hs_norm_b, e.status) for e in entries] == [(w, "ok") for w in exact]


@pytest.mark.parametrize("backend", _ALL_BACKENDS, ids=lambda b: b.tag())
@pytest.mark.parametrize("weight", [F(10**700), F(1, 10**700)], ids=["heavy", "light"])
def test_exact_weight_outside_the_f64_range_is_a_precision_error(weight, backend):
    ms = MomentSequence(_two_spikes(weight), backend)
    entries = lambda_profile(ms, [1, 2], ("hs_norm_b",)).entries
    assert [(e.hs_norm_b, e.status) for e in entries] == [(None, "error:PrecisionError")] * 2


def test_exact_weight_keeps_the_bytes_of_the_rounded_trace():
    # in range, the scaled root is the root of the correctly rounded trace
    for q in (F(1, 3), F(10**300, 7), F(7, 10**300), F(2) ** -1000, F(5, 2) * F(2) ** 1001):
        assert spectral._sqrt_to_float(q) == math.sqrt(float(q)), q


@pytest.mark.parametrize(
    "family, grid, bits",
    [(LogNormal(1.0), [4, 12, 24], 2800), (Gaussian(), [8, 24, 40], 1200)],
    ids=["lognormal", "gaussian"],
)
def test_graded_grid_agrees_with_single_size_runs(family, grid, bits):
    # the grid run rounds at the top size's p; each size's bound still covers
    # its error, and the value is the single-size one to 1e-12
    ms = MomentSequence(family, bigfloat(256))
    for n, item in zip(grid, spectral._graded_lambda_min(ms, grid)):
        single = spectral._graded_lambda_min(ms, [n])[0].lambda_min
        assert item.lambda_min == pytest.approx(single, rel=1e-12, abs=0), n
        assert abs(item.lambda_min / _eigsy_extremes(family, n, bits)[0] - 1) <= item.eps, n


def test_graded_run_stops_at_the_first_declined_row(monkeypatch):
    # the spiked theta_M passes 1 at M = 5: the 128-bit run reads no row
    # from the 6th on and takes no SVD, checks the exact H_5 once, and both
    # sizes run again at 256 bits
    family = _Counting(SPIKED)
    ms = MomentSequence(family, bigfloat(256))
    runs = _spy_graded(monkeypatch)
    checks, norms = [], []
    real_check, real_norm = _Counting.positive_definite_limit, spectral.np.linalg.norm

    def spy_check(family, m):
        checks.append(m)
        return real_check(family, m)

    def spy_norm(a, *args, **kwargs):
        norms.append((runs[-1][1], len(a)))
        return real_norm(a, *args, **kwargs)

    monkeypatch.setattr(_Counting, "positive_definite_limit", spy_check)
    monkeypatch.setattr(spectral.np.linalg, "norm", spy_norm)
    entries = lambda_profile(ms, [5, 6], quantities=("lambda_min",)).entries
    graded = [n for backend, n in family.calls if backend == bigfloat(spectral.GRADED_BITS)]
    assert max(graded) < 2 * 5  # row 6 (index 5) would read m_9 and m_10
    assert runs == [(6, 128), (6, 256)]
    assert checks == [5]
    assert norms == [(256, 5), (256, 6)]
    assert all(e.status == "ok" and e.precision_bits == 256 for e in entries)


def test_climb_checks_each_stopping_size_once(monkeypatch):
    # the faint point stops on a pivot <= 0 of H_5 at 128 and at 256 bits:
    # the exact H_5 is checked at the first stop only, and 512 bits certify
    # it with the value and bounds the run gave when it checked both stops
    checks = []
    real_check = Discrete.positive_definite_limit

    def spy_check(family, m):
        checks.append(m)
        return real_check(family, m)

    monkeypatch.setattr(Discrete, "positive_definite_limit", spy_check)
    runs = _spy_graded(monkeypatch)
    item = spectral._graded_lambda_min(MomentSequence(FAINT_POINT, bigfloat(256)), [5], tol=1)[0]
    assert [bits for _, bits in runs] == [128, 256, 512]
    assert checks == [5]
    assert item.bits == 512
    assert [x.hex() for x in (item.lambda_min, item.eps, item.hs_norm_b, item.hs_eps)] == [
        "0x1.3bd60d9232954p-312", "0x1.8000000000000p-49",
        "0x1.ccf49d919a01dp+155", "0x1.8000000000000p-51",
    ]


def _graded_bits(items):
    """Each item's fields in hex; an error item by its type and dimension."""
    out = []
    for item in items:
        if isinstance(item, spectral.GradedItem):
            item = (item.bits, item.lambda_min.hex(), item.eps.hex(), item.hs_norm_b.hex(),
                    item.hs_eps.hex())
        elif isinstance(item, spectral.PositivityError):
            item = (type(item), item.dimension)
        out.append(item)
    return out


# dyadic points and weights: the big-float odd moments cancel exactly
SYMMETRIC_FIVE = Discrete(DiscreteMeasure(
    (F(-3, 4), F(-1, 4), F(0), F(1, 4), F(3, 4)), (F(1, 4), F(1, 2), F(1, 8), F(1, 2), F(1, 4))
))


@pytest.mark.parametrize(
    "family, backend, grid",
    [
        (Gaussian(), bigfloat(256), list(range(4, 41, 4))),
        (Gegenbauer(F(1, 2)), F64_BACKEND, [8, 24, 40]),
        (Gegenbauer(F(0)), bigfloat(256), [8, 32]),
        (SYMMETRIC_FIVE, RAT, [3, 5, 6]),
        (LogNormal(1.0), bigfloat(256), [4, 12]),
    ],
    ids=["gaussian", "legendre-f64", "chebyshev", "symmetric-discrete", "lognormal"],
)
def test_graded_parity_skip_is_bit_identical(monkeypatch, family, backend, grid):
    # a symmetric block skips the exact zeros A_jk, L_jk and X_jk at odd j + k;
    # the unskipped loop (parity never holding) gives the same items, bit for
    # bit, at every rung (Legendre N = 40 climbs to 256 bits)
    ms = MomentSequence(family, backend)
    held = []
    real = orthopoly.parity_holds

    def spy(moments, n):
        held.append(real(moments, n))
        return held[-1]

    monkeypatch.setattr(orthopoly, "parity_holds", spy)
    skipped = _graded_bits(spectral._graded_lambda_min(ms, grid))
    assert all(held) == (family.name != "log_normal")
    monkeypatch.setattr(orthopoly, "parity_holds", lambda moments, n: False)
    assert skipped == _graded_bits(spectral._graded_lambda_min(ms, grid))


@pytest.mark.parametrize(
    "family, backend, grid",
    [
        (Gaussian(), bigfloat(256), list(range(4, 41, 4))),
        (Gegenbauer(F(1, 2)), F64_BACKEND, [8, 24, 40]),
        (LogNormal(1.0), bigfloat(256), [4, 12]),
    ],
    ids=["gaussian", "legendre-f64", "lognormal"],
)
def test_graded_parity_reads_each_odd_moment_once_per_rung(monkeypatch, family, backend, grid):
    # the parity flag is carried from row to row: within one rung (one call
    # of the run), each odd moment is compared to 0 at most once, not once
    # per later row as well
    rungs = []
    real_graded, real_parity = orthopoly.graded_rows, orthopoly.parity_holds

    def graded(ms, top, bits, tol):
        rungs.append((top, []))
        return real_graded(ms, top, bits, tol)

    def parity(moments, n):
        rungs[-1][1].extend(id(m) for m in moments[1 : 2 * n - 2 : 2])
        return real_parity(moments, n)

    monkeypatch.setattr(orthopoly, "graded_rows", graded)
    monkeypatch.setattr(orthopoly, "parity_holds", parity)
    spectral._graded_lambda_min(MomentSequence(family, backend), grid)
    assert len(rungs) >= (2 if family.name == "gegenbauer" else 1)
    for top, compared in rungs:
        assert compared and len(compared) == len(set(compared)) <= top - 1


_FLOAT_BACKENDS = [F64_BACKEND, bigfloat(64), bigfloat(256)]


@pytest.mark.parametrize("backend", _FLOAT_BACKENDS, ids=lambda b: b.tag())
def test_spiked_profile_is_certified_past_the_first_rung(monkeypatch, backend):
    # the graded run stops at H_5 at 128 bits (theta >= 1); the exact H_5 is
    # positive definite, so it climbs, and 256 bits certify lambda_min and
    # the weight of N = 5 and 6.  An earlier eigenvalue rule put lambda_min(H_5)
    # 1.7e-10 off under "ok", and an earlier float factor put the f64 weight of
    # N = 5 at 5.99e8 (exact 2.13e21)
    _no_float_factor(monkeypatch)
    grid = [3, 4, 5, 6]
    ms = MomentSequence(SPIKED, backend)
    exact = factor(MomentSequence(SPIKED, RAT), grid[-1]).hs_norm_sq_b()
    entries = lambda_profile(ms, grid).entries
    for entry, item in zip(entries, spectral._graded_lambda_min(ms, grid)):
        assert entry.status == "ok"
        assert entry.precision_bits == item.bits == (256 if entry.n >= 5 else 128)
        assert (entry.lambda_min, entry.hs_norm_b) == (item.lambda_min, item.hs_norm_b)
        lam_err = abs(item.lambda_min / _eigsy_extremes(SPIKED, entry.n)[0] - 1)
        hs_err = abs(item.hs_norm_b / math.sqrt(exact[entry.n - 1]) - 1)
        assert lam_err <= 1e-12 and lam_err <= item.eps, entry.n
        assert hs_err <= 1e-12 and hs_err <= item.hs_eps, entry.n


@pytest.mark.parametrize("backend", _FLOAT_BACKENDS, ids=lambda b: b.tag())
def test_singular_truncation_reports_no_value(monkeypatch, backend):
    # H_5 of the 4-point measure is singular: its weight is the
    # PositivityError the graded run proves (an earlier float factor reported
    # 5.99e8, 1.7e102 and inf under "ok"), and so is lambda_min past N = 4,
    # after a single 128-bit graded run
    _no_float_factor(monkeypatch)
    runs = _spy_graded(monkeypatch)
    ms = MomentSequence(FOUR_POINTS, backend)
    entry = lambda_profile(ms, [5], quantities=("hs_norm_b",)).entries[0]
    assert entry.status == "error:PositivityError" and entry.hs_norm_b is None
    runs.clear()
    entries = lambda_profile(ms, range(4, 9), quantities=("lambda_min",)).entries
    assert runs == [(8, 128)]
    assert entries[0].status == "ok"
    for entry in entries[1:]:
        assert entry.status == "error:PositivityError" and entry.lambda_min is None


@pytest.mark.parametrize("backend", _FLOAT_BACKENDS + [RAT], ids=lambda b: b.tag())
def test_discrete_profile_past_its_support_fails_at_once(monkeypatch, backend):
    # H_26 of the 25-point measure is singular: N = 28 and 32 report a
    # PositivityError, where an earlier float factor ran every rung up to 65536
    # bits first (28 to 40 s a profile); the statuses and precisions are
    # those it gave.  A float sequence takes the error from its
    # graded run and factors nothing; a rational one from its exact factor
    seen = _spy_factor(monkeypatch)
    ms = MomentSequence(_DISCRETE_25, backend)
    entries = lambda_profile(ms, [4, 8, 24, 28, 32], _DEFAULT_QUANTITIES).entries
    assert [(e.status, e.precision_bits) for e in entries] == [("ok", 128)] * 3 + [
        ("error:PositivityError", 53)
    ] * 2
    assert set(seen) == ({RAT} if backend == RAT else set())


def _random_discrete(seed, size):
    """``size`` distinct points k/128 in (-1, 1), weights k/8 in [1/8, 2]."""
    rng = np.random.default_rng(seed)
    points = sorted(F(int(k), 128) for k in rng.choice(np.arange(-127, 128), size, replace=False))
    weights = [F(int(k), 8) for k in rng.integers(1, 17, size)]
    return Discrete(DiscreteMeasure(tuple(points), tuple(weights)))


def _eigvalsh_certifies_a_positive_lambda_min(ms, n):
    """Whether the smallest eigenvalue of the scaled f64 truncation is
    positive and within the ``eigvalsh`` bound, as lambda_max is certified
    (the normal-range check left out, which only certifies less)."""
    h64, _ = spectral._scaled_truncation(ms, n)
    lam = float(np.linalg.eigvalsh(h64)[0])
    return lam > 0 and spectral._eigvalsh_error(h64) <= spectral.LAMBDA_MAX_TOL * lam


@pytest.mark.parametrize(
    "family",
    [PowerLog(1), PowerLog(2), PowerLog(F(1, 2)), Gaussian(), LogNormal(1.0), LogNormal(0.3),
     Gegenbauer(F(0)), Gegenbauer(F(1, 2)), Gegenbauer(F(3))]
    + [_random_discrete(seed, size) for seed, size in [(1, 21), (2, 30), (3, 42), (4, 54)]],
    ids=["hilbert", "powerlog2", "powerlog-half", "gaussian", "lognormal", "lognormal-0.3",
         "chebyshev", "legendre", "gegenbauer3", "discrete21", "discrete30", "discrete42",
         "discrete54"],
)
def test_eigvalsh_certifies_no_lambda_min_the_graded_run_misses(family):
    # tr A^-1 <= N kappa_2(H), so any H that eigvalsh can certify has theta
    # far below 1e-12 at 128 bits: wherever the scaled eigvalsh would
    # certify a positive lambda_min (only at N = 2..5 here), the graded run
    # certifies one too, and a profile loses nothing by not asking it
    grid = list(range(2, 65))
    for backend in (F64_BACKEND, bigfloat(128)):
        ms = MomentSequence(family, backend)
        items = spectral._graded_lambda_min(ms, grid)
        certified = [n for n in grid if _eigvalsh_certifies_a_positive_lambda_min(ms, n)]
        assert certified, backend.tag()
        for n in certified:
            item = items[n - 2]
            assert isinstance(item, spectral.GradedItem), (backend.tag(), n, item)
            assert item.eps <= spectral.LAMBDA_MAX_TOL, (backend.tag(), n)


def test_profile_factors_once_and_grades_once(monkeypatch):
    # a grid whose entries all succeed: one graded run behind every
    # lambda_min and every hs_norm_b, and no factor
    calls = {"factor": [], "graded": []}
    real_factor, real_graded = spectral.factor, spectral._graded_lambda_min

    def spy_factor(ms, n):
        calls["factor"].append(n)
        return real_factor(ms, n)

    def spy_graded(ms, grid, **kwargs):
        calls["graded"].append(list(grid))
        return real_graded(ms, grid, **kwargs)

    monkeypatch.setattr(spectral, "factor", spy_factor)
    monkeypatch.setattr(spectral, "_graded_lambda_min", spy_graded)
    # (up to N = 18, where the graded path certifies Hilbert at its first rung)
    hilbert = lambda_profile(MomentSequence(PowerLog(1), F64_BACKEND), range(4, 17, 4))
    assert all(e.status == "ok" for e in hilbert.entries)
    assert calls == {"factor": [], "graded": [list(range(4, 17, 4))]}
    calls["graded"].clear()
    calls["factor"].clear()
    gaussian = lambda_profile(
        MomentSequence(Gaussian(), bigfloat(256)), range(8, 41, 8),
        quantities=("lambda_min", "hs_norm_b"),
    )
    assert all(
        e.status == "ok" and e.precision_bits == spectral.GRADED_BITS for e in gaussian.entries
    )
    assert calls == {"factor": [], "graded": [[8, 16, 24, 32, 40]]}


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
    ).entries
    gauss = lambda_profile(
        MomentSequence(Gaussian(), bigfloat(256)), grid, quantities=("hs_norm_b",)
    ).entries
    logn = [e.hs_norm_b for e in logn]
    gauss = [e.hs_norm_b for e in gauss]
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
    c = c_matrix(tp)
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
    for compute in (xi_vector, h_xi_identity):
        with pytest.warns(UserWarning):
            compute(tp, F(3, 2))


def test_xi_identity_violation_is_a_library_error():
    # U^{-1} stored as the identity although U is not: the exact identity
    # (U xi)_k d_k = pi_k(t) fails and is reported as a HankelError
    tp = TriangularPair(
        2, RAT, ((F(1), F(1, 2)), (F(0), F(1))), (F(1), F(1)),
        ((F(1), F(0)), (F(0), F(1))), None,
    )
    # t = 1/3, not 1/2: pi_1(t) = t - U[0][1] vanishes at t = 1/2, where this
    # corrupt pair happens to satisfy the identity
    with pytest.raises(SpectralInvariantError) as err:
        xi_vector(tp, F(1, 3))
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
