"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line.  Exact
criteria run under the rational backend with zero tolerance; float criteria
pin the tolerances stated here, and timed criteria assert their wall-clock
budgets.  Quantities that only exist at infinite size (operator norms, the
limit of the smallest eigenvalues, domain equalities) are intentionally not
asserted numerically; the property suites cover their finite shadows.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from hankelmoments import (
    Discrete,
    DiscreteMeasure,
    F64_BACKEND,
    Gaussian,
    Gegenbauer,
    LogNormal,
    MomentSequence,
    PowerLog,
    RATIONAL_BACKEND,
    apply_H_via_series,
    bigfloat,
    cd_kernel,
    domain_diagnostic,
    factor,
    h_xi_identity,
    kernel_vector_check,
    lambda_profile,
    matvec_fft,
    matvec_naive,
    perturbation_check,
    plateau_verdict,
    power_decay,
    xi_vector,
)
from hankelmoments.hankel import default_k_grid

from conftest import inverse_residual_identity, reconstruction

F = Fraction
RAT = RATIONAL_BACKEND

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def random_rational_measure(rng, max_points=6):
    size = rng.randint(1, max_points)
    points = set()
    while len(points) < size:
        points.add(F(rng.randint(-9, 9), rng.randint(10, 12)))
    weights = [F(rng.randint(1, 24), rng.randint(8, 12)) for _ in range(size)]
    return DiscreteMeasure(tuple(sorted(points)), tuple(weights))


# ---------------------------------------------------------------------------


def test_criterion_1_factorization_identity_exact():
    with criterion(1, "square-root-free C^tC = H and CB = I, exact, N <= 16"):
        start = time.perf_counter()
        cases = []
        for lam in (F(0), F(1, 2), F(1), F(3, 2)):
            cases.append((MomentSequence(Gegenbauer(lam), RAT), 16))
        rng = random.Random(20250810)
        for _ in range(10):
            mu = random_rational_measure(rng)
            cases.append((MomentSequence(Discrete(mu), RAT), min(16, mu.size)))
        for ms, n in cases:
            tp = factor(ms, n)
            h = [[ms.moment(k + l) for l in range(n)] for k in range(n)]
            assert reconstruction(tp) == h, "C^tC must rebuild the truncation exactly"
            identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            assert inverse_residual_identity(tp) == identity, "CB must be I exactly"
        assert time.perf_counter() - start < 10.0


def test_criterion_2_monomial_and_xi_identities_exact():
    with criterion(2, "sum_k c_{k,n} P_k(t) = t^n and (C^tC) xi(t) = (t^n), exact"):
        ts = (F(0), F(1, 3), F(1, 2), F(-2, 3))
        three_point = DiscreteMeasure(
            (F(-1, 2), F(0), F(1, 2)), (F(1, 4), F(1, 2), F(1, 4))
        )
        cases = [
            (MomentSequence(Gegenbauer(F(1, 2)), RAT), 12),
            (MomentSequence(PowerLog(1), RAT), 12),
            (MomentSequence(Discrete(three_point), RAT), 3),
        ]
        for ms, n in cases:
            tp = factor(ms, n)
            for t in ts:
                pi = tp.monic_values(t)
                for col in range(n):
                    total = sum(tp.unit_upper[k][col] * pi[k] for k in range(col + 1))
                    assert total == t**col, "monomial reassembly must be exact"
                report = h_xi_identity(tp, t)
                assert report.exact_zero, "xi residual must vanish exactly"


def test_criterion_3_hilbert_norm_trend():
    with criterion(3, "Hilbert lambda_max strictly increasing toward pi, N <= 512"):
        start = time.perf_counter()
        ms = MomentSequence(PowerLog(1), F64_BACKEND)
        grid = [2, 4, 8, 16, 32, 64, 128, 256, 512]
        profile = lambda_profile(ms, grid, quantities=("lambda_min", "lambda_max"))
        maxima = [e.lambda_max for e in profile.entries]
        assert all(v is not None for v in maxima)
        assert all(a < b for a, b in zip(maxima, maxima[1:])), "strict increase"
        assert all(v < math.pi for v in maxima), "bounded by the operator norm"
        closed_form = (4 + math.sqrt(13)) / 6
        assert abs(maxima[0] - closed_form) <= 1e-12, "2x2 closed-form oracle"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_4_trace_partial_sums():
    with criterion(4, "partial traces of the c=2 family approach pi^2/8"):
        ms = MomentSequence(PowerLog(2), F64_BACKEND)
        target = math.pi**2 / 8
        for k_terms in (100, 1_000, 10_000):
            partial = math.fsum(ms.moment(2 * k) for k in range(k_terms))
            assert abs(partial - target) < 1 / (4 * k_terms) + 1e-12


def test_criterion_5_series_matches_naive_exactly():
    with criterion(5, "shift-series application equals the naive product, exact"):
        n = 32
        rng = random.Random(5)
        for family in (PowerLog(1), Gegenbauer(F(1, 2))):
            ms = MomentSequence(family, RAT)
            for _ in range(5):
                # a rational combination of the difference vectors v_0..v_8
                coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(9)]
                g = [F(0)] * 11
                for k, a in enumerate(coeffs):
                    g[k] += a
                    g[k + 2] -= a
                series = apply_H_via_series(ms, g, n)
                naive = matvec_naive(ms, g, n)
                assert series.converged
                assert series.result[: n - 10] == naive[: n - 10]


def test_criterion_6_fft_matvec_equivalence():
    with criterion(6, "fft matvec within 1e-10 of naive, 100 vectors per size"):
        ms = MomentSequence(PowerLog(1), F64_BACKEND)
        rng = np.random.default_rng(42)
        timing_rows = []
        for n in (8, 64, 512, 4096):
            gs = rng.standard_normal((100, n))
            worst = 0.0
            t_naive = t_fft = 0.0
            for g in gs:
                t0 = time.perf_counter()
                ref = matvec_naive(ms, list(g), n)
                t_naive += time.perf_counter() - t0
                t0 = time.perf_counter()
                fast = matvec_fft(ms, list(g), n)
                t_fft += time.perf_counter() - t0
                scale = max(abs(v) for v in ref)
                worst = max(worst, max(abs(a - b) for a, b in zip(ref, fast)) / scale)
            assert worst < 1e-10, f"N={n}: relative deviation {worst:.2e}"
            timing_rows.append((n, t_naive / 100, t_fft / 100, worst))
        print("  N      naive(s)    fft(s)     worst rel dev   (informational)")
        for n, tn, tf, dev in timing_rows:
            print(f"  {n:<6} {tn:.6f}   {tf:.6f}   {dev:.3e}")


@pytest.mark.slow
def test_criterion_7_determinate_indeterminate_contrast():
    with criterion(7, "lambda_min plateau separates the two model families"):
        start = time.perf_counter()
        grid = list(range(4, 41, 4))
        gauss = lambda_profile(
            MomentSequence(Gaussian(), bigfloat(256)), grid, quantities=("lambda_min",)
        )
        logn = lambda_profile(
            MomentSequence(LogNormal(1.0), bigfloat(256)),
            grid,
            quantities=("lambda_min",),
        )
        verdict_g = plateau_verdict(gauss, window=4, ratio_threshold=0.5)
        verdict_l = plateau_verdict(logn, window=4, ratio_threshold=0.5)
        assert verdict_g.label == "determinate-like", verdict_g
        assert verdict_l.label == "indeterminate-like", verdict_l
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_8_mass_removal_identities_randomized():
    with criterion(8, "mass-removal correction, kernel values, kernel vectors exact"):
        start = time.perf_counter()
        rng = random.Random(88)
        for _ in range(200):
            mu = random_rational_measure(rng)
            m = mu.size
            removable = [i for i in range(m)]
            removals = rng.sample(removable, rng.randint(0, m - 1)) if m > 1 else []
            report = perturbation_check(mu, removals, rng.randint(1, 8))
            assert report.deviation == 0
            tp = factor(MomentSequence(Discrete(mu), RAT), m)
            for i, (x, c) in enumerate(zip(mu.points, mu.weights)):
                assert cd_kernel(mu, x, x, tp=tp) == 1 / c
                if i + 1 < m:
                    assert cd_kernel(mu, x, mu.points[i + 1], tp=tp) == 0
            if removals:
                kernel = kernel_vector_check(mu, removals)
                assert kernel.exact_zero
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"


@pytest.mark.slow
def test_criterion_9_domain_cutoff_calibration():
    with criterion(9, "form-domain trend verdicts bracket the analytic cutoff"):
        ms = MomentSequence(PowerLog(0.5), F64_BACKEND)
        grid = default_k_grid(100_000, 10)
        bounded = domain_diagnostic(ms, power_decay(0.95), grid)
        divergent = domain_diagnostic(ms, power_decay(0.55), grid)
        assert bounded.in_V_mu.label == "bounded-trend", bounded.in_V_mu
        assert divergent.in_V_mu.label == "divergent-trend", divergent.in_V_mu
        assert bounded.in_V_mu.heuristic and divergent.in_V_mu.heuristic
