"""Truncated Hankel matrices and their actions.

An "operator" here is always the pair (moment sequence, truncation size);
nothing pretends to be the infinite matrix.  Domain membership of the power
vectors g_k = (k+1)^(-d) is a theorem where the family states the edge
exponent of its measure (:func:`power_decay_domain`); anywhere else, and for
any other vector, it is answered with trend evidence over growing
truncations (:func:`domain_diagnostic`), labelled heuristic.
Every exact product works on ints over one common denominator and builds a
``Fraction`` only for an entry it returns: ``matvec_naive`` off f64, the
shift series' remainder and the kernel-vector images of ``extremal`` are
rows of :func:`row_actions`, and the exact shift series keeps its damped
moments m_k - m_{k+2} and their row actions as ints over one running
denominator (:func:`apply_H_via_series`).  The fast f64
products (``matvec_fft`` and the form and row-action values of
``domain_diagnostic``) run on numpy's FFT at 5-smooth lengths.  The f64 paths convert their data into numpy once -- a vector
``g`` with ``np.asarray``, the values of a coefficient generator with
``np.fromiter``, the moments through ``MomentSequence.float_array`` -- and
return lists of Python floats.  numpy converts each element with
``float()``, so the doubles are those a per-element conversion gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np
from numpy.fft import irfft, rfft

from .backends import F64, RATIONAL, BackendError, dot, integer_form, is_exact, to_float
from .moments import _HALF, MomentSequence, _exact, classify


# ---------------------------------------------------------------------------
# matrix-vector products
# ---------------------------------------------------------------------------


def row_actions(ms: MomentSequence, g, start: int, stop: int):
    """r_k = sum_j m_{k+j} g_j for start <= k < stop.

    The one exact Hankel row action: every product that is not an f64 array
    product goes through it, inside the backend's context.  ``g`` is
    converted to the backend first (so the rational backend refuses float
    coefficients), the moments m_start .. m_{stop+len(g)-2} are read once in
    increasing order, and the rows are formed by :func:`_dot_rows`.
    """
    backend = ms.backend
    with backend.context():
        g = [backend.convert(x) for x in g]
        window = [ms.moment(i) for i in range(start, stop + len(g) - 1)] if g else []
        return _dot_rows(window, g, stop - start, backend.zero())


def _dot_rows(window, g, count, zero):
    """(sum_j window[i + j] g_j)_{i < count}; ``zero`` for every row when
    ``g`` is empty.

    Exact data (Fractions and ints only) is written as ints over the lcm of
    its denominators once (:func:`.backends.integer_form`), and each row is
    one integer sum and one reduced ``Fraction``, equal to the row's
    :func:`.backends.dot`.  Other data sums each row in order of j, one
    :func:`.backends.dot` per row, so float rows keep their bits.
    """
    width = len(g)
    if not width:
        return [zero] * count
    if not (is_exact(window) and is_exact(g)):
        return [dot(window[i : i + width], g) for i in range(count)]
    moments, m_den = integer_form(window)
    coefficients, g_den = integer_form(g)
    den = m_den * g_den
    return [Fraction(sum(map(mul, moments[i : i + width], coefficients)), den)
            for i in range(count)]


def matvec_naive(ms: MomentSequence, g, n: int):
    """Row action (sum_k m_{i+k} g_k)_{i<n} by direct summation.

    Exact under the rational backend.  The f64 path converts ``g`` to one
    array and returns a list of Python floats; its dense product sums each
    row in order of k, as the in-order loop does.
    """
    f64 = ms.backend.kind == F64
    g = np.asarray(g, dtype=float) if f64 else list(g)
    if len(g) > n:
        raise ValueError("len(g) must be <= n")
    if f64:
        # rows i of the dense product are m[i : i + len(g)], up to m_{n+len(g)-2};
        # the strided view avoids materializing the n x len(g) block
        m = ms.float_array(n + len(g) - 1)
        rows = np.lib.stride_tricks.sliding_window_view(m, len(g))[:n]
        return (rows @ g).tolist()
    return row_actions(ms, g, 0, n)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the real FFT factors fast."""
    best = 1 << max(n - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # odd times the smallest power of two that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def matvec_fft(ms: MomentSequence, g, n: int):
    """Same row action via cyclic convolution of length >= 2n-1; f64 only."""
    if ms.backend.kind != F64:
        raise BackendError("matvec_fft supports only the f64 backend")
    g = np.asarray(g, dtype=float)
    if len(g) > n:
        raise ValueError("len(g) must be <= n")
    if not len(g):
        return [0.0] * n
    m = ms.float_array(n + len(g) - 1)
    size = _fast_len(n + len(g) - 1)
    conv = irfft(rfft(m, size) * rfft(g[::-1], size), size)
    return conv[len(g) - 1 : len(g) - 1 + n].tolist()


# ---------------------------------------------------------------------------
# series representation of the operator for measures inside (-1, 1)
# ---------------------------------------------------------------------------


RECORDED_TERMS = 32  # exact mode: shift-series terms summed before the remainder


@dataclass(frozen=True)
class SeriesApplyReport:
    result: list
    partial_norm_deltas: list
    converged: bool
    terms_used: int
    mode: str  # "iterative" or "telescoped-exact"
    tolerance: float | None


def apply_H_via_series(
    ms: MomentSequence,
    g,
    n: int,
    max_terms: int = 10_000,
    tol: float | None = None,
) -> SeriesApplyReport:
    """Apply the operator through its damped-measure shift series.

    Requires even moments decreasing to zero (measure inside (-1, 1)).  The
    damped moments nu_k = m_k - m_{k+2}, those of (1 - x^2) dmu, are formed
    here in the backend's context, each once, as the stages reach them.  The
    added term at stage ``l`` is the ``2l``-fold shift of their row action on
    ``g``: the slice r[2l : 2l + n] of one growing sequence of row actions
    r_k = sum_j nu_{k+j} g_j, so each further stage computes two entries.
    Under the rational backend nu and r are ints over one running
    denominator, rescaled when a new nu enlarges it: a stage's squared norm
    is one integer sum, one Fraction gives its delta, and each result entry
    is one Fraction plus its remainder entry.  Under float backends the rows
    are formed by :func:`_dot_rows`, a stage's squared norm is one ``dot``
    of its n entries with themselves, and each result entry one ``dot`` over
    its terms after the last stage; both sum in order, so float bits are
    those of the in-order loops.  Either way the moments are read stage by
    stage, up to the ones the last stage and the remainder need.

    Under float backends the terms are summed until the last one drops below
    ``tol`` (default 1e-12) or ``max_terms`` is hit.  Under the rational
    backend at most ``RECORDED_TERMS`` terms are summed (stopping early on a
    zero term) and the remainder R(L)_i = sum_j m_{i+j+2L} g_j of the ``L``
    terms used is always added: the partial sums telescope to H g - R(L), so
    the exact product is returned with the term norms attached as evidence.
    """
    if n < 1 or max_terms < 1:
        raise ValueError("n and max_terms must be >= 1")
    g = list(g)
    verdict = classify(ms, 2).is_o1
    if verdict.value is not True:
        raise ValueError(
            "series application needs even moments decreasing to zero "
            f"(is_o1 verdict: {verdict.value})"
        )
    backend = ms.backend
    exact = backend.kind == RATIONAL
    with backend.context():
        g = [backend.convert(x) for x in g]
        if exact:
            stages = min(max_terms, RECORDED_TERMS)
            result, deltas, terms_used = _telescoped_series(ms, g, n, stages)
            converged = True
        else:
            tol = 1e-12 if tol is None else tol
            result, deltas, terms_used, converged = _iterated_series(ms, g, n, max_terms, tol)
    return SeriesApplyReport(
        result=result,
        partial_norm_deltas=deltas,
        converged=converged,
        terms_used=terms_used,
        mode="telescoped-exact" if exact else "iterative",
        tolerance=None if exact else tol,
    )


def _telescoped_series(ms, g, n, stages):
    """(result, deltas, terms_used) of the exact series of
    :func:`apply_H_via_series`, over exact ``g``.

    nu_k = nu[k] / nu_den and r_k = rows[k] / (nu_den g_den) are ints over
    one running denominator, rescaled when a new nu enlarges it; a stage's
    squared norm is one integer sum, and each result entry one Fraction
    plus its remainder entry.
    """
    coefficients, g_den = integer_form(g)
    width = len(g)
    nu, nu_den = [], 1
    rows = []
    deltas = []
    for l in range(stages):
        stop = 2 * l + n
        fresh = [ms.moment(k) - ms.moment(k + 2) for k in range(len(nu), stop + width - 1)]
        den = math.lcm(nu_den, *[v.denominator for v in fresh])
        if den != nu_den:
            scale = den // nu_den
            nu = [v * scale for v in nu]
            rows = [r * scale for r in rows]
            nu_den = den
        nu += [v.numerator * (den // v.denominator) for v in fresh]
        rows += [sum(map(mul, nu[k : k + width], coefficients)) for k in range(len(rows), stop)]
        square = sum(r * r for r in rows[2 * l : stop])
        deltas.append(math.sqrt(to_float(Fraction(square, (nu_den * g_den) ** 2))))
        if not square:
            break
    terms_used = len(deltas)
    # close the telescope: the L terms sum to H g - R(L), R(L) = S^{2L} H g
    remainder = row_actions(ms, g, 2 * terms_used, 2 * terms_used + n)
    return ([Fraction(sum(rows[i : i + 2 * terms_used : 2]), nu_den * g_den) + r
             for i, r in enumerate(remainder)], deltas, terms_used)


def _iterated_series(ms, g, n, max_terms, tol):
    """(result, deltas, terms_used, converged) of the float series of
    :func:`apply_H_via_series`: every sum in order, as in :func:`dot`."""
    nu = []  # nu_k = m_k - m_{k+2}, the moments of (1 - x^2) dmu
    rows = []  # r_k for k < 2l + n
    deltas = []
    converged = False
    for l in range(max_terms):
        stop = 2 * l + n
        nu += [ms.moment(k) - ms.moment(k + 2) for k in range(len(nu), stop + len(g) - 1)]
        rows += _dot_rows(nu[len(rows) :], g, stop - len(rows), ms.backend.zero())
        stage = rows[2 * l : 2 * l + n]
        deltas.append(math.sqrt(to_float(dot(stage, stage))))
        if deltas[-1] < tol:
            converged = True
            break
    # entry i sums r_i, r_{i+2}, ... over the stages, in stage order
    result = [dot(t, [1] * len(t)) for t in (rows[i : i + 2 * len(deltas) : 2] for i in range(n))]
    return result, deltas, len(deltas), converged


# ---------------------------------------------------------------------------
# domain membership: the edge-exponent rule, else a heuristic trend
# ---------------------------------------------------------------------------

BOUNDED_SLOPE = 0.05
DIVERGENT_SLOPE = 0.2
FIT_FRACTION = 0.5  # share of a grid's tail the log-log slope is fitted on
N_WINDOW = tuple(2**j for j in range(14))  # row-action index windows 1 .. 8192


@dataclass(frozen=True)
class TrendVerdict:
    label: str  # "bounded-trend" | "divergent-trend" | "inconclusive"
    slope: float
    grid: list
    values: list
    heuristic: bool = field(default=True, init=False)


@dataclass(frozen=True)
class AnalyticVerdict:
    """Membership decided by the edge-exponent rule of :func:`power_decay_domain`.

    ``label`` keeps the trend vocabulary: "bounded-trend" for a member,
    "divergent-trend" for a non-member.
    """

    label: str
    edge_exponent: object  # a, as the family states it
    decay: object  # d
    heuristic: bool = field(default=False, init=False)
    basis: str = field(default="analytic", init=False)


@dataclass(frozen=True)
class DomainVerdict:
    in_V_mu: TrendVerdict | AnalyticVerdict
    in_D_H: TrendVerdict | AnalyticVerdict


def _trend_label(slope: float) -> str:
    if slope < BOUNDED_SLOPE:
        return "bounded-trend"
    if slope > DIVERGENT_SLOPE:
        return "divergent-trend"
    return "inconclusive"


def _fit_tail_slope(grid, values):
    logx = np.log(np.asarray(grid, dtype=float))
    logy = np.log(np.maximum(np.asarray(values, dtype=float), 1e-300))
    start = int(len(grid) * (1 - FIT_FRACTION))
    start = min(max(start, 0), len(grid) - 2)
    return float(np.polyfit(logx[start:], logy[start:], 1)[0])


def default_k_grid(k_max: int = 100_000, points: int = 10) -> list[int]:
    """``points`` log-spaced sizes from 100 to ``k_max``, as Python ints."""
    return sorted({int(k) for k in np.round(np.logspace(2, math.log10(k_max), points))})


def power_decay(d: float):
    """The canonical test vectors g_k = 1/(k+1)^d (square summable for d > 1/2)."""

    def gen(k):
        return (k + 1.0) ** (-d)

    return gen


def domain_diagnostic(ms: MomentSequence, g, k_grid=None) -> DomainVerdict:
    """Trend evidence for form-domain and operator-domain membership.

    ``g`` is a coefficient generator ``k -> g_k`` so that the truncations used
    at each grid size are consistent.  The form values Q_K and the row-action
    tails (square sums over the index windows ``N_WINDOW``) are computed at
    f64 via convolutions on numpy's FFT, padded to 5-smooth lengths; verdicts
    compare the log-log slope fitted over the last ``FIT_FRACTION`` of each
    grid against frozen thresholds (< 0.05 bounded, > 0.2 divergent, else
    inconclusive).
    """
    k_grid = default_k_grid() if k_grid is None else sorted(set(int(k) for k in k_grid))
    if len(k_grid) < 3:
        raise ValueError("k_grid needs at least 3 points")
    k_max = k_grid[-1]
    n_max = N_WINDOW[-1] + 1

    gvec = np.fromiter(map(g, range(k_max)), float, k_max)
    # one read serves the form (m_0 .. m_{2K-2}) and the row action (m_0 .. m_{n+K-1})
    moments = ms.float_array(max(2 * k_max - 1, n_max + k_max))
    m_all = moments[: 2 * k_max - 1]

    # quadratic form Q_K = sum_j m_j (g*g)_j over the K x K block
    q_values = []
    for k in k_grid:
        size = _fast_len(2 * k - 1)
        conv = irfft(rfft(gvec[:k], size) ** 2, size)[: 2 * k - 1]
        q_values.append(float(np.dot(m_all[: 2 * k - 1], conv)))
    slope_q = _fit_tail_slope(k_grid, q_values)
    in_v = TrendVerdict(_trend_label(slope_q), slope_q, k_grid, q_values)

    # row action u_i = sum_k m_{i+k} g_k (convolution with reversed g), then
    # the growth of its square sums over the index window
    m_long = moments[: n_max + k_max]
    size = _fast_len(n_max + k_max)
    conv = irfft(rfft(m_long, size) * rfft(gvec[::-1], size), size)
    u = conv[k_max - 1 : k_max - 1 + n_max]
    tail_sums = np.cumsum(u * u)
    t_values = [float(tail_sums[w]) for w in N_WINDOW]
    slope_u = _fit_tail_slope(N_WINDOW, t_values)
    label_u = _trend_label(slope_u)
    if label_u == "bounded-trend" and in_v.label != "bounded-trend":
        label_u = "inconclusive"  # operator domain sits inside the form domain
    in_d = TrendVerdict(label_u, slope_u, list(N_WINDOW), t_values)
    return DomainVerdict(in_V_mu=in_v, in_D_H=in_d)


def _member_label(member: bool) -> str:
    return "bounded-trend" if member else "divergent-trend"


def power_decay_domain(ms: MomentSequence, d, k_grid=None) -> DomainVerdict:
    """Membership of g_k = (k+1)^(-d), d > 1/2, in V_mu and in D_H.

    Where the family states the edge exponent a of its measure
    (:meth:`.moments.MomentFamily.edge_exponent`) the answer is analytic.
    G(x) = sum_k g_k x^k = Li_d(x)/x behaves like (1-x)^(d-1) as x -> 1-
    and is bounded on [-1, 0], so

    - g is in V_mu = {g in l^2 : int |G|^2 dmu < inf} iff 2d + a > 1;
    - g is in D_H iff also min(a+1, a+d) > 1/2: by Watson's lemma
      (H g)_i = int x^i G(x) dmu(x) is comparable to i^-min(a+1, a+d) (with
      a log factor at d = 1, which moves no strict inequality).

    Both inequalities are decided exactly, at the binary value of a float a
    or d.  ``k_grid`` is unused there.  Any other family gets the trend
    ``domain_diagnostic(ms, power_decay(d), k_grid)``.
    """
    if not d > 0.5:
        raise ValueError(f"power decay needs d > 1/2 for g in l^2, got {d}")
    a = ms.family.edge_exponent()
    if a is None:
        return domain_diagnostic(ms, power_decay(d), k_grid)
    a_x, d_x = _exact(a), _exact(d)
    in_v = 2 * d_x + a_x > 1
    in_d = in_v and min(a_x + 1, a_x + d_x) > _HALF
    return DomainVerdict(
        in_V_mu=AnalyticVerdict(_member_label(in_v), a, d),
        in_D_H=AnalyticVerdict(_member_label(in_d), a, d),
    )
