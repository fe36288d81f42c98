"""Truncated Hankel matrices and their actions.

An "operator" here is always the pair (moment sequence, truncation size);
nothing pretends to be the infinite matrix.  Domain membership questions are
answered with trend evidence over growing truncations, never as theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft

from .backends import F64, RATIONAL, BackendError, norm_sq, to_float
from .moments import MomentSequence, classify, hankel_rows


@dataclass(frozen=True)
class HankelMatrix:
    """The N x N truncation (m_{k+l}), 0 <= k, l < N."""

    ms: MomentSequence
    n: int
    rows: tuple

    def entry(self, k: int, l: int):
        return self.rows[k][l]

    def to_lists(self):
        return [list(r) for r in self.rows]


def build(ms: MomentSequence, n: int) -> HankelMatrix:
    """Materialize the truncation; entry (k, l) is exactly moment k+l."""
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    ms.check_truncation(n)
    return HankelMatrix(ms, n, tuple(map(tuple, hankel_rows(ms, n))))


# ---------------------------------------------------------------------------
# matrix-vector products
# ---------------------------------------------------------------------------


def matvec_naive(ms: MomentSequence, g, n: int):
    """Row action (sum_k m_{i+k} g_k)_{i<n} by direct summation.

    Exact under the rational backend; the f64 path uses a dense product with
    the same summation semantics.
    """
    g = list(g)
    if len(g) > n:
        raise ValueError("len(g) must be <= n")
    if ms.backend.kind == F64:
        m = ms.float_array(n + len(g))
        garr = np.array([to_float(x) for x in g])
        # rows i of the dense product are m[i : i + len(g)]; the strided view
        # avoids materializing the n x len(g) block
        rows = np.lib.stride_tricks.sliding_window_view(m, len(g))[:n]
        return list(rows @ garr)
    out = []
    with ms.backend.context():
        for i in range(n):
            acc = ms.backend.zero()
            for k, gk in enumerate(g):
                acc = acc + ms.moment(i + k) * gk
            out.append(acc)
    return out


def matvec_fft(ms: MomentSequence, g, n: int):
    """Same row action via cyclic convolution of length >= 2n-1; f64 only."""
    if ms.backend.kind != F64:
        raise BackendError("matvec_fft supports only the f64 backend")
    g = [to_float(x) for x in g]
    if len(g) > n:
        raise ValueError("len(g) must be <= n")
    if not g:
        return [0.0] * n
    m = ms.float_array(n + len(g) - 1)
    size = next_fast_len(n + len(g) - 1)
    conv = irfft(rfft(m, size) * rfft(g[::-1], size), size)
    return list(conv[len(g) - 1 : len(g) - 1 + n])


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def shift(g, p: int = 1):
    """(S^p g)_k = g_{k+p}: drop the first p coefficients."""
    if p < 0:
        raise ValueError("shift power must be >= 0")
    return list(g[p:])


def shift_adjoint(g, p: int = 1):
    """(S*^p g)_k = g_{k-p}: prepend p zeros."""
    if p < 0:
        raise ValueError("shift power must be >= 0")
    g = list(g)
    if not g:
        return g
    zero = g[0] * 0
    return [zero] * p + g


# ---------------------------------------------------------------------------
# series representation of the operator for measures inside (-1, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesApplyReport:
    result: list
    partial_norm_deltas: list
    converged: bool
    terms_used: int
    mode: str  # "iterative" or "telescoped-exact"
    tolerance: float | None

    def to_json(self):
        from .backends import scalar_to_json

        return {
            "result": [scalar_to_json(x) for x in self.result],
            "partial_norm_deltas": self.partial_norm_deltas,
            "converged": self.converged,
            "terms_used": self.terms_used,
            "mode": self.mode,
            "tolerance": self.tolerance,
        }


def _row_actions(nu: MomentSequence, g, start: int, stop: int):
    """r_k = sum_j nu_{k+j} g_j for start <= k < stop, summed in order of j."""
    backend = nu.backend
    out = []
    with backend.context():
        for k in range(start, stop):
            acc = backend.zero()
            for j, gj in enumerate(g):
                acc = acc + nu.moment(k + j) * gj
            out.append(acc)
    return out


def _series_terms(nu: MomentSequence, g, n: int):
    """Yield the terms S^{2l}(H_nu g) restricted to indices < n, l = 0, 1, ...

    Term ``l`` is the slice r[2l : 2l + n] of one sequence of row actions, so
    each r_k is computed once and each further term adds two entries.
    """
    rows = _row_actions(nu, g, 0, n)
    l = 0
    while True:
        yield rows[2 * l : 2 * l + n]
        l += 1
        rows += _row_actions(nu, g, 2 * l + n - 2, 2 * l + n)


def apply_H_via_series(
    ms: MomentSequence,
    g,
    n: int,
    max_terms: int = 10_000,
    tol: float | None = None,
    *,
    recorded_terms: int = 32,
) -> SeriesApplyReport:
    """Apply the operator through its damped-measure shift series.

    Requires even moments decreasing to zero (measure inside (-1, 1)).  The
    added term at stage ``l`` is the ``2l``-fold shift of the damped-sequence
    row action on ``g``; its norm is recorded per stage.

    Under float backends the terms are summed until the last one drops below
    ``tol`` (default 1e-12) or ``max_terms`` is hit.  Under the rational
    backend the partial sums telescope exactly against a remainder that
    vanishes in the limit, so the exact limit is returned with the leading
    ``recorded_terms`` term norms attached as evidence.
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
    nu = ms.nu()

    if backend.kind == RATIONAL:
        stages = min(max_terms, recorded_terms)
        deltas = []
        partial = [backend.zero()] * n
        terms_used = 0
        for l, term in zip(range(stages), _series_terms(nu, g, n)):
            ns = norm_sq(term)
            deltas.append(math.sqrt(to_float(ns)))
            for i in range(n):
                partial[i] = partial[i] + term[i]
            terms_used = l + 1
            if ns == 0:
                break
        else:
            # close the telescope: sum_{l<L} term_l = R(0) - R(L) with
            # R(L)_i = sum_j g_j m_{i+j+2L}, and R(L) -> 0 by the decay
            # precondition, so adding the exact remainder yields the limit
            remainder = [
                sum((ms.moment(i + j + 2 * stages) * gj for j, gj in enumerate(g)),
                    start=backend.zero())
                for i in range(n)
            ]
            partial = [p + r for p, r in zip(partial, remainder)]
        return SeriesApplyReport(
            result=partial,
            partial_norm_deltas=deltas,
            converged=True,
            terms_used=terms_used,
            mode="telescoped-exact",
            tolerance=None,
        )

    tol = 1e-12 if tol is None else tol
    result = [backend.zero()] * n
    deltas = []
    converged = False
    terms_used = 0
    with backend.context():
        for l, term in zip(range(max_terms), _series_terms(nu, g, n)):
            delta = math.sqrt(to_float(norm_sq(term)))
            deltas.append(delta)
            for i in range(n):
                result[i] = result[i] + term[i]
            terms_used = l + 1
            if delta < tol:
                converged = True
                break
    return SeriesApplyReport(
        result=result,
        partial_norm_deltas=deltas,
        converged=converged,
        terms_used=terms_used,
        mode="iterative",
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# domain diagnostics (heuristic by construction)
# ---------------------------------------------------------------------------

BOUNDED_SLOPE = 0.05
DIVERGENT_SLOPE = 0.2


@dataclass(frozen=True)
class TrendVerdict:
    label: str  # "bounded-trend" | "divergent-trend" | "inconclusive"
    slope: float
    grid: list
    values: list
    heuristic: bool = True

    def to_json(self):
        return {
            "label": self.label,
            "slope": self.slope,
            "grid": list(self.grid),
            "values": list(self.values),
            "heuristic": self.heuristic,
        }


@dataclass(frozen=True)
class DomainVerdict:
    in_V_mu: TrendVerdict
    in_D_H: TrendVerdict

    def to_json(self):
        return {"in_V_mu": self.in_V_mu.to_json(), "in_D_H": self.in_D_H.to_json()}


def _trend_label(slope: float) -> str:
    if slope < BOUNDED_SLOPE:
        return "bounded-trend"
    if slope > DIVERGENT_SLOPE:
        return "divergent-trend"
    return "inconclusive"


def _fit_tail_slope(grid, values, fit_fraction: float):
    logx = np.log(np.asarray(grid, dtype=float))
    logy = np.log(np.maximum(np.asarray(values, dtype=float), 1e-300))
    start = int(len(grid) * (1 - fit_fraction))
    start = min(max(start, 0), len(grid) - 2)
    return float(np.polyfit(logx[start:], logy[start:], 1)[0])


def default_k_grid(k_max: int = 100_000, points: int = 10) -> list[int]:
    return sorted(set(np.round(np.logspace(2, math.log10(k_max), points)).astype(int)))


def power_decay(d: float):
    """The canonical test vectors g_k = 1/(k+1)^d (square summable for d > 1/2)."""

    def gen(k):
        return (k + 1.0) ** (-d)

    gen.label = f"power_decay({d})"
    return gen


def domain_diagnostic(
    ms: MomentSequence,
    g,
    k_grid=None,
    n_window=None,
    *,
    fit_fraction: float = 0.5,
) -> DomainVerdict:
    """Trend evidence for form-domain and operator-domain membership.

    ``g`` is a coefficient generator ``k -> g_k`` so that the truncations used
    at each grid size are consistent.  The form values Q_K and the row-action
    tails are computed at f64 via FFT convolutions; verdicts compare the
    fitted log-log slope over the tail of the grid against frozen thresholds
    (< 0.05 bounded, > 0.2 divergent, else inconclusive).
    """
    k_grid = default_k_grid() if k_grid is None else sorted(set(int(k) for k in k_grid))
    if len(k_grid) < 3:
        raise ValueError("k_grid needs at least 3 points")
    k_max = k_grid[-1]
    if n_window is None:
        n_window = [2**j for j in range(0, 14)]
    n_max = max(n_window) + 1

    gvec = np.array([to_float(g(k)) for k in range(k_max)])
    m_all = ms.float_array(2 * k_max - 1)

    # quadratic form Q_K = sum_j m_j (g*g)_j over the K x K block
    q_values = []
    for k in k_grid:
        size = next_fast_len(2 * k - 1)
        conv = irfft(rfft(gvec[:k], size) ** 2, size)[: 2 * k - 1]
        q_values.append(float(np.dot(m_all[: 2 * k - 1], conv)))
    slope_q = _fit_tail_slope(k_grid, q_values, fit_fraction)
    in_v = TrendVerdict(_trend_label(slope_q), slope_q, k_grid, q_values)

    # row action u_i = sum_k m_{i+k} g_k (convolution with reversed g), then
    # the growth of its square sums over the index window
    m_long = ms.float_array(n_max + k_max)
    size = next_fast_len(n_max + k_max)
    conv = irfft(rfft(m_long, size) * rfft(gvec[::-1], size), size)
    u = conv[k_max - 1 : k_max - 1 + n_max]
    tail_sums = np.cumsum(u * u)
    t_values = [float(tail_sums[w]) for w in n_window]
    slope_u = _fit_tail_slope(n_window, t_values, fit_fraction)
    label_u = _trend_label(slope_u)
    if label_u == "bounded-trend" and in_v.label != "bounded-trend":
        label_u = "inconclusive"  # operator domain sits inside the form domain
    in_d = TrendVerdict(label_u, slope_u, list(n_window), t_values)
    return DomainVerdict(in_V_mu=in_v, in_D_H=in_d)
