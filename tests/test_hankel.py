import math
from fractions import Fraction

import numpy as np
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
    MomentSequence,
    PowerLog,
    PrecisionError,
    RATIONAL_BACKEND,
    apply_H_via_series,
    build,
    domain_diagnostic,
    matvec_fft,
    matvec_naive,
    power_decay,
    shift,
    shift_adjoint,
)
from hankelmoments.backends import norm_sq, to_float
from hankelmoments.hankel import default_k_grid
from hankelmoments.moments import LogNormal, hankel_rows

RAT = RATIONAL_BACKEND
F = Fraction


def hilbert(backend=RAT):
    return MomentSequence(PowerLog(1), backend)


def uniform(backend=RAT):
    return MomentSequence(Gegenbauer(F(1, 2)), backend)


def v_basis(k, length=None):
    length = length or k + 3
    vec = [F(0)] * length
    vec[k] = F(1)
    vec[k + 2] = F(-1)
    return vec


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_hilbert_2x2():
    assert build(hilbert(), 2).to_lists() == [[1, F(1, 2)], [F(1, 2), F(1, 3)]]


def test_build_uniform_3x3():
    assert build(uniform(), 3).to_lists() == [
        [1, 0, F(1, 3)],
        [0, F(1, 3), 0],
        [F(1, 3), 0, F(1, 5)],
    ]


def test_build_explicit_delta():
    ms = MomentSequence(Explicit.from_list([1, 0, 0]), RAT)
    assert build(ms, 2).to_lists() == [[1, 0], [0, 0]]


@given(n=st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_build_symmetry_and_antidiagonals(n):
    h = build(uniform(), n)
    for k in range(n):
        for l in range(n):
            assert h.entry(k, l) == h.entry(l, k)
            if k + 1 < n and l >= 1:
                assert h.entry(k, l) == h.entry(k + 1, l - 1)
            assert h.entry(k, l) == h.ms.moment(k + l)


def test_build_lognormal_needs_bigfloat():
    ms = MomentSequence(LogNormal(1.0), F64_BACKEND)
    with pytest.raises(PrecisionError, match="bigfloat"):
        build(ms, 9)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_hankel_rows_slices_one_moment_block(n, monkeypatch):
    calls = []
    closed_form = PowerLog.moment

    def counting(self, j, backend, known=None):
        calls.append(j)
        return closed_form(self, j, backend, known)

    monkeypatch.setattr(PowerLog, "moment", counting)
    rows = hankel_rows(hilbert(), n)
    assert len(calls) == 2 * n - 1
    assert sorted(calls) == list(range(2 * n - 1))
    assert rows == build(hilbert(), n).to_lists()


# ---------------------------------------------------------------------------
# matvec
# ---------------------------------------------------------------------------


def test_matvec_naive_hilbert():
    assert matvec_naive(hilbert(), [F(1), F(1)], 2) == [F(3, 2), F(5, 6)]


def test_matvec_naive_e0_gives_first_column():
    ms = uniform()
    out = matvec_naive(ms, [F(1)], 5)
    assert out == [ms.moment(n) for n in range(5)]


def test_matvec_naive_gegenbauer_difference():
    assert matvec_naive(uniform(), [F(1), F(0), F(-1)], 3) == [
        F(2, 3),
        F(0),
        F(2, 15),
    ]


def test_matvec_fft_matches_naive_small():
    ms = hilbert(F64_BACKEND)
    out = matvec_fft(ms, [1.0, 1.0], 2)
    assert out[0] == pytest.approx(1.5, abs=1e-12)
    assert out[1] == pytest.approx(5 / 6, abs=1e-12)


def test_matvec_fft_zero_vector():
    ms = hilbert(F64_BACKEND)
    assert matvec_fft(ms, [0.0, 0.0, 0.0], 3) == pytest.approx([0.0, 0.0, 0.0])


def test_matvec_fft_refuses_exact_backends():
    with pytest.raises(BackendError):
        matvec_fft(hilbert(), [F(1)], 2)


@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("family", [PowerLog(1), Gegenbauer(F(1, 2))])
def test_matvec_fft_equivalence(n, family):
    ms = MomentSequence(family, F64_BACKEND)
    rng = np.random.default_rng(1234 + n)
    for _ in range(10):
        g = list(rng.standard_normal(n))
        ref = matvec_naive(ms, g, n)
        fast = matvec_fft(ms, g, n)
        scale = max(abs(v) for v in ref)
        assert max(abs(a - b) for a, b in zip(ref, fast)) / scale < 1e-10


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def test_shift_kills_e0():
    assert shift([F(1), F(0), F(0)], 1) == [0, 0]


def test_shift_moves_basis_down():
    e3 = [F(0), F(0), F(0), F(1)]
    assert shift(e3, 1) == [0, 0, 1]


def test_shift_adjoint_moves_basis_up():
    assert shift_adjoint([F(1)], 1) == [0, 1]
    assert shift_adjoint([F(2), F(3)], 2) == [0, 0, 2, 3]


@given(
    vec=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=20),
        min_size=1,
        max_size=12,
    ),
    p=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_shift_norm_properties(vec, p):
    assert norm_sq(shift(vec, p)) <= norm_sq(vec)
    assert norm_sq(shift_adjoint(vec, p)) == norm_sq(vec)
    assert shift(shift_adjoint(vec, p), p) == list(vec)


@given(
    h=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        min_size=1,
        max_size=10,
    ),
    top=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_shift_telescoping_algebra(h, top):
    # sum of even shifts against (I - S^2): exact cancellation down to the
    # 2(top+1)-fold shift, entrywise on the zero-padded sequences
    def at(vec, i):
        return vec[i] if 0 <= i < len(vec) else F(0)

    partial = [
        sum((at(h, i + 2 * l) for l in range(top + 1)), start=F(0))
        for i in range(len(h))
    ]
    lhs = [at(partial, i) - at(partial, i + 2) for i in range(len(h))]
    rhs = [at(h, i) - at(h, i + 2 * top + 2) for i in range(len(h))]
    assert lhs == rhs


# ---------------------------------------------------------------------------
# series application
# ---------------------------------------------------------------------------


def test_series_on_v0_hilbert_exact():
    report = apply_H_via_series(hilbert(), v_basis(0), 3)
    assert report.result == [F(2, 3), F(1, 4), F(2, 15)]
    assert report.converged
    assert report.mode == "telescoped-exact"


def test_series_on_v_basis_matches_naive_exactly():
    for family in (PowerLog(1), Gegenbauer(F(1, 2))):
        ms = MomentSequence(family, RAT)
        for k in range(4):
            g = v_basis(k, 8)
            n = 20
            series = apply_H_via_series(ms, g, n).result
            naive = matvec_naive(ms, g, n)
            assert series[: n - k - 2] == naive[: n - k - 2]


def test_series_deltas_recorded_and_decreasing():
    report = apply_H_via_series(hilbert(), v_basis(0), 6)
    assert len(report.partial_norm_deltas) == report.terms_used
    assert report.partial_norm_deltas[0] > report.partial_norm_deltas[-1]


def test_series_terminates_exactly_on_finite_data():
    ms = MomentSequence(Explicit.from_list([1] + [0] * 80), RAT)
    report = apply_H_via_series(ms, [F(1), F(1)], 4)
    assert report.partial_norm_deltas[-1] == 0
    assert report.converged


def test_series_float_path_converges_on_discrete():
    mu = DiscreteMeasure((-0.5, 0.25), (0.5, 0.5))
    ms = MomentSequence(Discrete(mu), F64_BACKEND)
    report = apply_H_via_series(ms, [1.0, -1.0, 0.5], 6, tol=1e-12)
    assert report.mode == "iterative"
    assert report.converged
    naive = matvec_naive(ms, [1.0, -1.0, 0.5], 6)
    assert max(abs(a - b) for a, b in zip(report.result, naive)) < 1e-10


def test_series_float_hilbert_agrees_within_tail_bound():
    ms = hilbert(F64_BACKEND)
    g = [1.0, 0.0, -1.0]
    cap = 400
    report = apply_H_via_series(ms, g, 5, max_terms=cap, tol=1e-15)
    naive = matvec_naive(ms, g, 5)
    # remainder after L terms is bounded by sum_j |g_j| m_{2L}
    tail = sum(abs(x) for x in g) * ms.moment(2 * report.terms_used)
    assert not report.converged
    assert max(abs(a - b) for a, b in zip(report.result, naive)) <= tail + 1e-12


def per_stage_series(ms, g, n, stages):
    """Reference: term l of the series summed afresh as (sum_j nu_{i+2l+j} g_j)_{i<n}."""
    nu = ms.nu()
    with ms.backend.context():
        terms = []
        for l in range(stages):
            term = []
            for i in range(n):
                acc = ms.backend.zero()
                for j, gj in enumerate(g):
                    acc = acc + nu.moment(i + 2 * l + j) * gj
                term.append(acc)
            terms.append(term)
        return terms


@pytest.mark.parametrize("backend", [RAT, F64_BACKEND], ids=lambda b: b.tag())
def test_series_terms_equal_per_stage_sums(backend):
    ms = uniform(backend)
    g = [backend.convert(x) for x in (F(1), F(-1, 3), F(0), F(1, 2), F(-1, 5))]
    n = 12
    report = apply_H_via_series(ms, g, n, max_terms=32, tol=0.0, recorded_terms=32)
    assert report.terms_used == 32
    terms = per_stage_series(ms, g, n, 32)
    assert report.partial_norm_deltas == [
        math.sqrt(to_float(norm_sq(t))) for t in terms
    ]
    partial = [backend.zero()] * n
    for t in terms:
        partial = [p + x for p, x in zip(partial, t)]
    if backend == RAT:
        # the exact mode closes the telescope with the remainder at 2 * 32
        partial = [p + sum(ms.moment(i + j + 64) * gj for j, gj in enumerate(g))
                   for i, p in enumerate(partial)]
    assert report.result == partial


def test_series_requires_decaying_moments():
    with pytest.raises(ValueError, match="is_o1"):
        apply_H_via_series(MomentSequence(Gaussian(), RAT), v_basis(0), 4)


# ---------------------------------------------------------------------------
# domain diagnostics
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_domain_trends_bracket_the_cutoff():
    ms = MomentSequence(PowerLog(0.5), F64_BACKEND)
    grid = default_k_grid(10_000, 8)
    assert domain_diagnostic(ms, power_decay(1.2), grid).in_V_mu.label == "bounded-trend"
    assert (
        domain_diagnostic(ms, power_decay(0.55), grid).in_V_mu.label
        == "divergent-trend"
    )


def test_domain_finite_support_is_bounded():
    ms = hilbert(F64_BACKEND)

    def g(k):
        return 1.0 if k < 3 else 0.0

    verdict = domain_diagnostic(ms, g, default_k_grid(3_000, 6))
    assert verdict.in_V_mu.label == "bounded-trend"
    assert verdict.in_D_H.label == "bounded-trend"
    assert verdict.in_V_mu.heuristic and verdict.in_D_H.heuristic


def test_domain_verdicts_carry_evidence():
    ms = MomentSequence(PowerLog(0.5), F64_BACKEND)
    verdict = domain_diagnostic(ms, power_decay(0.9), default_k_grid(2_000, 5))
    assert len(verdict.in_V_mu.grid) == len(verdict.in_V_mu.values) >= 3
    assert len(verdict.in_D_H.grid) == len(verdict.in_D_H.values)
