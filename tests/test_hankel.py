import bisect
import functools
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
    RATIONAL_BACKEND,
    apply_H_via_series,
    bigfloat,
    domain_diagnostic,
    hankel_rows,
    matvec_fft,
    matvec_naive,
    power_decay,
    power_decay_domain,
)
from hankelmoments.backends import dot, to_float, to_json
from hankelmoments.hankel import _dot_rows, _fast_len, default_k_grid

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
    assert hankel_rows(hilbert(), 2) == [[1, F(1, 2)], [F(1, 2), F(1, 3)]]


def test_build_uniform_3x3():
    assert hankel_rows(uniform(), 3) == [
        [1, 0, F(1, 3)],
        [0, F(1, 3), 0],
        [F(1, 3), 0, F(1, 5)],
    ]


def test_build_explicit_delta():
    ms = MomentSequence(Explicit.from_list([1, 0, 0]), RAT)
    assert hankel_rows(ms, 2) == [[1, 0], [0, 0]]


@given(n=st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_build_symmetry_and_antidiagonals(n):
    ms = uniform()
    h = hankel_rows(ms, n)
    for k in range(n):
        for l in range(n):
            assert h[k][l] == h[l][k]
            if k + 1 < n and l >= 1:
                assert h[k][l] == h[k + 1][l - 1]
            assert h[k][l] == ms.moment(k + l)


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
    assert rows == [[F(1, k + l + 1) for l in range(n)] for k in range(n)]


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


def test_exact_products_refuse_float_coefficients():
    # a float would otherwise turn the "exact" product into a float product
    with pytest.raises(BackendError):
        matvec_naive(uniform(), [0.5, F(1, 3)], 2)
    with pytest.raises(BackendError):
        apply_H_via_series(uniform(), [F(1), 0.25], 3)
    # ints and Fractions are exact data
    assert matvec_naive(uniform(), [1, F(1, 3)], 2) == [F(1), F(1, 9)]


_EXACT_ENTRIES = st.one_of(st.integers(-20, 20),
                           st.fractions(min_value=-5, max_value=5, max_denominator=30))


@given(g=st.lists(_EXACT_ENTRIES, max_size=6), count=st.integers(0, 8), data=st.data())
@settings(max_examples=150, deadline=None)
def test_exact_dot_rows_equal_the_per_row_dot(g, count, data):
    """The integer rows of exact data against one backends.dot per row, in
    value and type: ints and Fractions mixed, all-int data, an empty g."""
    size = max(count + len(g) - 1, 0)
    window = data.draw(st.lists(_EXACT_ENTRIES, min_size=size, max_size=size))
    rows = _dot_rows(window, g, count, F(0))
    expected = [dot(window[i : i + len(g)], g) if g else F(0) for i in range(count)]
    assert [(type(r), r) for r in rows] == [(type(e), e) for e in expected]


def test_matvec_naive_empty_vector_keeps_the_backend_type():
    out = matvec_naive(uniform(bigfloat(128)), [], 3)
    assert out == [0, 0, 0]
    assert all(type(x) is type(bigfloat(128).zero()) for x in out)


def test_matvec_fft_matches_naive_small():
    ms = hilbert(F64_BACKEND)
    out = matvec_fft(ms, [1.0, 1.0], 2)
    assert out[0] == pytest.approx(1.5, abs=1e-12)
    assert out[1] == pytest.approx(5 / 6, abs=1e-12)


def test_f64_products_need_only_the_moments_of_the_truncation():
    # the 3 x 3 product reads m_0..m_4: five stored values suffice for both
    ms = MomentSequence(Explicit.from_list([1.0, 0.5, 0.3, 0.25, 0.2]), F64_BACKEND)
    g = [1.0, -2.0, 0.5]
    naive = matvec_naive(ms, g, 3)
    assert naive == pytest.approx(matvec_fft(ms, g, 3), abs=1e-14)
    assert naive == [1.0 - 1.0 + 0.15, 0.5 - 0.6 + 0.125, 0.3 - 0.5 + 0.1]
    assert matvec_naive(ms, [], 3) == [0.0, 0.0, 0.0]


def test_fast_len_is_the_next_5_smooth_number():
    smooth = sorted(
        2**a * 3**b * 5**c
        for a in range(15)
        for b in range(10)
        for c in range(7)
        if 2**a * 3**b * 5**c < 2 * 10**4
    )
    for n in range(1, 10**4):
        assert _fast_len(n) == smooth[bisect.bisect_left(smooth, n)]


def test_matvec_fft_zero_vector():
    ms = hilbert(F64_BACKEND)
    assert matvec_fft(ms, [0.0, 0.0, 0.0], 3) == pytest.approx([0.0, 0.0, 0.0])


def test_matvec_fft_refuses_exact_backends():
    with pytest.raises(BackendError):
        matvec_fft(hilbert(), [F(1)], 2)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 512, 4096])
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


_G5 = [F(1), F(-1, 3), F(0), F(1, 2), F(-1, 5)]


@pytest.mark.parametrize("product", [matvec_naive, matvec_fft])
@pytest.mark.parametrize("family", [PowerLog(1), Gegenbauer(F(1, 2))])
def test_f64_products_return_python_floats_for_any_vector_kind(product, family):
    ms = MomentSequence(family, F64_BACKEND)
    floats = [to_float(x) for x in _G5]
    outs = [product(ms, g, 8) for g in (floats, np.array(floats), _G5)]
    for out in outs:
        assert type(out) is list and len(out) == 8
        assert all(type(x) is float for x in out)
    assert [x.hex() for x in outs[1]] == [x.hex() for x in outs[0]]
    assert [x.hex() for x in outs[2]] == [x.hex() for x in outs[0]]


@pytest.mark.parametrize("family", [PowerLog(1), PowerLog(0.3), Gegenbauer(F(1, 2))])
def test_f64_matvec_naive_is_the_in_order_sum(family):
    n = 64
    ms = MomentSequence(family, F64_BACKEND)
    g = np.random.default_rng(64).standard_normal(n).tolist()
    m = [ms.moment(j) for j in range(2 * n - 1)]
    ref = []
    for i in range(n):
        acc = 0.0
        for k in range(n):
            acc += m[i + k] * g[k]
        ref.append(acc)
    assert [x.hex() for x in matvec_naive(ms, g, n)] == [x.hex() for x in ref]


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


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
    """Reference: term l of the series summed afresh as (sum_j nu_{i+2l+j} g_j)_{i<n},
    nu_k = m_k - m_{k+2}."""
    with ms.backend.context():
        terms = []
        for l in range(stages):
            term = []
            for i in range(n):
                acc = ms.backend.zero()
                for j, gj in enumerate(g):
                    k = i + 2 * l + j
                    acc = acc + (ms.moment(k) - ms.moment(k + 2)) * gj
                term.append(acc)
            terms.append(term)
        return terms


def in_order_sum_of_squares(v):
    acc = v[0] * v[0]
    for a in v[1:]:
        acc = acc + a * a
    return acc


@pytest.mark.parametrize(
    "backend", [RAT, F64_BACKEND, bigfloat(128)], ids=lambda b: b.tag()
)
def test_series_terms_equal_per_stage_sums(backend):
    ms = uniform(backend)
    g = [backend.convert(x) for x in (F(1), F(-1, 3), F(0), F(1, 2), F(-1, 5))]
    n = 12
    report = apply_H_via_series(ms, g, n, max_terms=32, tol=0.0)
    assert report.terms_used == 32
    terms = per_stage_series(ms, g, n, 32)
    # squares and sums at the backend's precision, not mpmath's default
    with backend.context():
        assert report.partial_norm_deltas == [
            math.sqrt(to_float(in_order_sum_of_squares(t))) for t in terms
        ]
        partial = [backend.zero()] * n
        for t in terms:
            partial = [p + x for p, x in zip(partial, t)]
    if backend == RAT:
        # the exact mode closes the telescope with the remainder at 2 * 32
        partial = [p + sum(ms.moment(i + j + 64) * gj for j, gj in enumerate(g))
                   for i, p in enumerate(partial)]
    assert report.result == partial


def test_series_adds_remainder_after_a_zero_term():
    # term 0 is nu_0 g_0 + nu_1 g_1 = 0, but H g = m_0 g_0 + m_1 g_1 is not:
    # the telescope must still be closed with R(1)
    mu = DiscreteMeasure((F(1, 3), F(1, 2)), (F(1), F(1)))
    ms = MomentSequence(Discrete(mu), RAT)
    g = [F(-145, 354), F(1)]
    report = apply_H_via_series(ms, g, 1)
    assert report.partial_norm_deltas == [0.0]
    assert report.result == [F(5, 354)]
    assert report.converged


def exact_series_reference(ms, g, n):
    """(result, deltas, terms_used) of the exact series from the per-stage
    Fraction sums: stages up to 32, the last the first zero one, then the
    remainder R(L)_i = sum_j m_{i+j+2L} g_j."""
    partial, deltas = [F(0)] * n, []
    for term in per_stage_series(ms, g, n, 32):
        partial = [p + x for p, x in zip(partial, term)]
        square = in_order_sum_of_squares(term)
        deltas.append(math.sqrt(to_float(square)))
        if square == 0:
            break
    shift = 2 * len(deltas)
    result = [p + sum(ms.moment(i + j + shift) * gj for j, gj in enumerate(g))
              for i, p in enumerate(partial)]
    return result, deltas, len(deltas)


@given(
    family=st.sampled_from([PowerLog(1), Gegenbauer(F(1, 2))]),
    g=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=1, max_size=5),
    n=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_exact_series_equals_per_stage_fraction_sums(family, g, n):
    ms = MomentSequence(family, RAT)
    report = apply_H_via_series(ms, g, n)
    result, deltas, terms_used = exact_series_reference(ms, g, n)
    assert report.result == result
    assert all(type(x) is F for x in report.result)
    assert report.partial_norm_deltas == deltas
    assert report.terms_used == terms_used


def zero_first_stage():
    # g_0 nu_0 + g_4 nu_4 = 0, so the first stage is zero, but H g is not:
    # the data ends at m_6, the seventh moment, enough for classify's window
    mu = DiscreteMeasure((F(1, 3), F(1, 2)), (F(1), F(1)))
    nu = [sum(w * x**k * (1 - x * x) for x, w in zip(mu.points, mu.weights)) for k in (0, 4)]
    return Discrete(mu), [-nu[1] / nu[0], F(0), F(0), F(0), F(1)], 1, 1


def full_run():
    return PowerLog(1), [F(1), F(-1, 3), F(0), F(1, 2)], 5, 32


@pytest.mark.parametrize("case", [zero_first_stage, full_run], ids=["zero-first-stage", "full-run"])
def test_exact_series_reads_moments_stage_by_stage(case, monkeypatch):
    family, g, n, stages = case()
    closed_form = type(family).moment
    read = []

    def spy(self, j, backend, known=None):
        read.append(j)
        return closed_form(self, j, backend, known)

    monkeypatch.setattr(type(family), "moment", spy)
    ms = MomentSequence(family, RAT)
    report = apply_H_via_series(ms, g, n)
    assert report.terms_used == stages
    assert report.result != [0] * n
    # the last stage and the remainder both end at m_{2L + n + len(g) - 2}
    top = 2 * stages + n + len(g) - 2
    assert max(read) == top
    monkeypatch.undo()
    # so data that ends there is enough
    explicit = MomentSequence(Explicit(tuple(ms.moments(top + 1))), RAT)
    assert apply_H_via_series(explicit, g, n) == report


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


def test_domain_default_grid():
    # the default grid holds Python ints, which the 5-smooth FFT lengths need
    assert all(type(k) is int for k in default_k_grid())
    ms = MomentSequence(PowerLog(0.5), F64_BACKEND)
    verdict = domain_diagnostic(ms, power_decay(0.8))
    assert verdict.in_V_mu.grid == default_k_grid()
    assert to_json(verdict) == to_json(domain_diagnostic(ms, power_decay(0.8), default_k_grid()))


def test_domain_finite_support_is_bounded():
    ms = hilbert(F64_BACKEND)

    def g(k):
        return 1.0 if k < 3 else 0.0

    verdict = domain_diagnostic(ms, g, default_k_grid(3_000, 6))
    assert verdict.in_V_mu.label == "bounded-trend"
    assert verdict.in_D_H.label == "bounded-trend"
    assert verdict.in_V_mu.heuristic and verdict.in_D_H.heuristic


def test_domain_fraction_generator_equals_its_float_twin():
    ms = MomentSequence(PowerLog(0.5), F64_BACKEND)
    grid = default_k_grid(2_000, 5)
    exact = domain_diagnostic(ms, lambda k: F(2, 3 * k + 1), grid)
    twin = domain_diagnostic(ms, lambda k: 2 / (3 * k + 1), grid)
    assert to_json(exact) == to_json(twin)
    assert [v.hex() for v in exact.in_D_H.values] == [v.hex() for v in twin.in_D_H.values]


def test_domain_verdicts_carry_evidence():
    ms = MomentSequence(PowerLog(0.5), F64_BACKEND)
    verdict = domain_diagnostic(ms, power_decay(0.9), default_k_grid(2_000, 5))
    assert len(verdict.in_V_mu.grid) == len(verdict.in_V_mu.values) >= 3
    assert len(verdict.in_D_H.grid) == len(verdict.in_D_H.values)


# ---------------------------------------------------------------------------
# the edge-exponent rule: V_mu iff 2d + a > 1, D_H iff also min(a+1, a+d) > 1/2
# ---------------------------------------------------------------------------

DECAYS = (0.55, 0.7, 0.75, 0.8, 0.95, 1.2)


def members(family, d):
    verdict = power_decay_domain(MomentSequence(family, F64_BACKEND), d)
    return tuple(v.label == "bounded-trend" for v in (verdict.in_V_mu, verdict.in_D_H))


def test_edge_exponents_of_the_closed_form_families():
    assert PowerLog(F(1, 2)).edge_exponent() == F(-1, 2)
    assert PowerLog(2).edge_exponent() == 1
    assert Gegenbauer(F(1)).edge_exponent() == F(1, 2)
    assert Gegenbauer(0.25).edge_exponent() == -0.25
    assert Gaussian().edge_exponent() is None
    assert Discrete(DiscreteMeasure((F(0),), (F(1),))).edge_exponent() is None


def test_power_log_half_sits_on_the_form_domain_cutoff():
    # 2d + a = 1 exactly at c = 1/2, d = 3/4: not a member (strict inequality)
    for c in (0.5, F(1, 2)):
        assert members(PowerLog(c), 0.75) == (False, False)
        assert members(PowerLog(c), 0.76) == (True, False)


def test_hilbert_takes_every_square_summable_power_vector():
    assert all(members(PowerLog(1), d) == (True, True) for d in DECAYS + (0.501, 3))


def test_power_log_half_is_never_in_the_operator_domain():
    # a = -1/2: the row action decays like i^(-1/2) at best
    assert all(not members(PowerLog(0.5), d)[1] for d in DECAYS + (2, 10))


def test_analytic_verdict_names_its_basis():
    verdict = power_decay_domain(MomentSequence(Gegenbauer(F(1, 4)), F64_BACKEND), 0.7)
    for v in (verdict.in_V_mu, verdict.in_D_H):
        assert (v.heuristic, v.basis, v.edge_exponent, v.decay) == (False, "analytic", F(-1, 4), 0.7)
    assert (verdict.in_V_mu.label, verdict.in_D_H.label) == ("bounded-trend", "divergent-trend")
    assert set(to_json(verdict.in_V_mu)) == {"label", "edge_exponent", "decay", "heuristic", "basis"}


def test_power_decay_domain_without_an_edge_exponent_is_the_trend():
    ms = MomentSequence(Discrete(DiscreteMeasure((F(-1, 2), F(1, 3)), (F(1), F(2)))), F64_BACKEND)
    grid = default_k_grid(2_000, 5)
    assert to_json(power_decay_domain(ms, 0.9, grid)) == to_json(
        domain_diagnostic(ms, power_decay(0.9), grid)
    )
    with pytest.raises(ValueError, match="1/2"):
        power_decay_domain(ms, 0.5, grid)


@functools.lru_cache(maxsize=1)
def _f64_sequence(family):
    # the table runs family by family: each family's 2 x 10^5 moments are
    # made once, and only the current family's are kept
    return MomentSequence(family, F64_BACKEND)


@pytest.mark.parametrize("d", DECAYS)
@pytest.mark.parametrize(
    "family",
    [PowerLog(0.5), PowerLog(0.8), PowerLog(1), PowerLog(2)]
    + [Gegenbauer(lam) for lam in (0, 0.25, 0.5, 1)],
    ids=repr,
)
def test_trend_never_contradicts_the_edge_exponent_rule(family, d):
    # the default grid, as the CLI runs it; an inconclusive trend says nothing
    ms = _f64_sequence(family)
    trend = domain_diagnostic(ms, power_decay(d))
    rule = power_decay_domain(ms, d)
    for key in ("in_V_mu", "in_D_H"):
        label = getattr(trend, key).label
        assert label in ("inconclusive", getattr(rule, key).label), (key, label)
