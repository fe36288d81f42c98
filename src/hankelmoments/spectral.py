"""Spectral diagnostics over growing truncations.

The profile machinery tracks extreme eigenvalues, the Hilbert-Schmidt weight
of the inverse factor, and partial traces along a truncation grid; a
calibrated plateau heuristic on the smallest eigenvalue separates
determinate-like from indeterminate-like moment data.  Nothing here claims a
limit: every verdict ships with the profile that produced it.

Big-float eigenvalue extremes use Householder tridiagonalization followed by
bisection with inertia counts, which is deterministic at any fixed precision;
the f64 path uses LAPACK.  Only the requested extremes are bisected, each
positive one to a bracket 2^(-min(64, prec/2)) wide relative to its own size
(geometric bisection for lambda_min, whose size can be far below 1).  A
lambda_min below the resolution floor, 2^(-prec) times the Gershgorin bound
on the spectrum, comes back as 0, so the profile moves to the next precision
rung instead of reporting it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath import mpf

from .backends import (
    BIGFLOAT,
    RATIONAL,
    BackendError,
    HankelError,
    PrecisionError,
    bigfloat,
    norm_sq,
    sup_norm,
    to_float,
)
from .moments import MissingMomentError, MomentSequence, hankel_rows, partial_trace
from .orthopoly import DEFAULT_POLICY, PrecisionPolicy, TriangularPair, factor
from .triangular import PositivityError


# ---------------------------------------------------------------------------
# symmetric eigenvalue extremes
# ---------------------------------------------------------------------------


def householder_tridiagonalize(rows, n):
    """Similarity-reduce a symmetric matrix (mpf entries) to tridiagonal form.

    Runs at the caller's mpmath working precision; returns (diag, offdiag).
    """
    a = [list(r) for r in rows]
    for k in range(n - 2):
        norm2 = mpmath.fsum(a[i][k] ** 2 for i in range(k + 1, n))
        if norm2 == 0:
            continue
        alpha = mpmath.sqrt(norm2)
        if a[k + 1][k] > 0:
            alpha = -alpha
        r2 = norm2 - a[k + 1][k] * alpha
        v = [mpf(0)] * n
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


def eigen_count_below(diag, off, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below ``x``."""
    count = 0
    tiny = mpf(2) ** (-3 * mpmath.mp.prec)
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


def _bisect(diag, off, lo, hi, target):
    """Plain bisection for the ``target``-th eigenvalue inside [lo, hi]."""
    tol = mpf(2) ** (-(mpmath.mp.prec // 2))
    while hi - lo > tol * max(mpf(1), abs(hi), abs(lo)):
        mid = (lo + hi) / 2
        if eigen_count_below(diag, off, mid) >= target:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def extreme_eigenvalue(diag, off, which: str):
    """Smallest or largest eigenvalue by bisection on inertia counts.

    Deterministic at fixed precision.  A positive extreme is bracketed to
    2^(-min(64, prec/2)) relative to its own size: lambda_min geometrically
    on (floor, min diag], lambda_max arithmetically on [max diag, Gershgorin
    hi] (every diagonal entry is a Rayleigh quotient).  The floor is
    2^(-prec) times max(|Gershgorin lo|, |Gershgorin hi|); a lambda_min
    below it cannot be resolved at this precision and comes back as 0.  A
    negative lambda_min (and a lambda_max with max diag <= 0) is found by
    plain bisection to 2^(-prec/2) relative to max(1, |endpoints|).
    """
    n = len(diag)
    if n == 1:
        return diag[0]
    rad = (
        [abs(off[0])]
        + [abs(off[i - 1]) + abs(off[i]) for i in range(1, n - 1)]
        + [abs(off[-1])]
    )
    g_lo = min(diag[i] - rad[i] for i in range(n))
    g_hi = max(diag[i] + rad[i] for i in range(n))
    prec = mpmath.mp.prec
    rel = mpf(2) ** (-min(64, prec // 2))
    if which == "min":
        if eigen_count_below(diag, off, mpf(0)) >= 1:
            return _bisect(diag, off, g_lo, mpf(0), 1)
        lo = mpf(2) ** (-prec) * max(abs(g_lo), abs(g_hi))
        if eigen_count_below(diag, off, lo) >= 1:
            return mpf(0)
        hi = min(diag)
        while hi > lo * (1 + rel):
            mid = mpmath.sqrt(lo * hi)
            if eigen_count_below(diag, off, mid) >= 1:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2
    lo = max(diag)
    if lo <= 0:
        return _bisect(diag, off, g_lo, g_hi, n)
    hi = g_hi
    while hi - lo > rel * lo:
        mid = (lo + hi) / 2
        if eigen_count_below(diag, off, mid) >= n:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def bigfloat_extremes(ms: MomentSequence, n: int, bits: int, which=("min", "max")):
    """(lambda_min, lambda_max) of the truncation at the given precision.

    Only the extremes named in ``which`` are computed; the other is None.
    """
    work = ms.with_backend(bigfloat(bits))
    with mpmath.workprec(bits):
        diag, off = householder_tridiagonalize(hankel_rows(work, n), n)
        return tuple(
            extreme_eigenvalue(diag, off, end) if end in which else None
            for end in ("min", "max")
        )


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileEntry:
    n: int
    lambda_min: float | None
    lambda_max: float | None
    hs_norm_b: float | None
    trace_partial: float | None
    precision_bits: int | None
    status: str  # "ok" | "lambda-min-unresolved" | "error:<...>"

    def to_json(self):
        return {
            "n": self.n,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "hs_norm_b": self.hs_norm_b,
            "trace_partial": self.trace_partial,
            "precision_bits": self.precision_bits,
            "status": self.status,
        }


class SpectralInvariantError(HankelError):
    """A computed result broke an invariant that holds by construction.

    Raised when reliable extremes violate interlacing beyond tolerance and
    when an exact xi vector fails its defining identity.
    """


@dataclass(frozen=True)
class SpectralProfile:
    family: str
    backend_tag: str
    entries: list
    quantities: tuple

    def n_grid(self):
        return [e.n for e in self.entries]

    def series(self, name: str):
        return [getattr(e, name) for e in self.entries]

    def reliable(self, name: str):
        """(n, value) pairs whose value the status does not call into question."""
        out = []
        for e in self.entries:
            value = getattr(e, name)
            if value is None or e.status.startswith("error"):
                continue
            if name == "lambda_min" and e.status != "ok":
                continue
            out.append((e.n, value))
        return out

    def to_json(self):
        return {
            "family": self.family,
            "backend": self.backend_tag,
            "quantities": list(self.quantities),
            "entries": [e.to_json() for e in self.entries],
        }


def _check_interlacing(profile: SpectralProfile):
    mins = profile.reliable("lambda_min")
    for (_, a), (_, b) in zip(mins, mins[1:]):
        if b > a * (1 + 1e-9) + 1e-300:
            raise SpectralInvariantError(
                f"lambda_min must be non-increasing, got {a} -> {b}"
            )
    maxs = profile.reliable("lambda_max")
    for (_, a), (_, b) in zip(maxs, maxs[1:]):
        if b < a * (1 - 1e-9):
            raise SpectralInvariantError(
                f"lambda_max must be non-decreasing, got {a} -> {b}"
            )


def lambda_profile(
    ms: MomentSequence,
    n_grid,
    policy: PrecisionPolicy | None = None,
    quantities: tuple = ("lambda_min", "lambda_max", "hs_norm_b", "trace_partial"),
) -> SpectralProfile:
    """Extreme-eigenvalue (and related) profile over a truncation grid.

    Per grid point the cheapest adequate precision is chosen: LAPACK at f64
    while the machine Cholesky of the truncation still succeeds, otherwise
    the rungs of ``policy.ladder`` (the same ladder ``factor`` walks) until
    lambda_min comes out positive.  An entry whose ladder runs out at
    ``retry_cap_bits`` without that, or whose size exceeds
    ``policy.escalate_max_n``, is marked unresolved rather than silently
    degraded.  Interlacing of the reliable extremes is enforced as a
    postcondition.
    """
    policy = policy or DEFAULT_POLICY
    n_grid = sorted(set(int(n) for n in n_grid))
    if not n_grid or n_grid[0] < 1:
        raise ValueError("n_grid must contain positive sizes")
    entries = []
    for n in n_grid:
        entries.append(_profile_entry(ms, n, policy, quantities))
    profile = SpectralProfile(
        family=ms.family.name,
        backend_tag=ms.backend.tag(),
        entries=entries,
        quantities=tuple(quantities),
    )
    _check_interlacing(profile)
    return profile


def _f64_cholesky_ok(h: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(h)
        return True
    except np.linalg.LinAlgError:
        return False


def _profile_entry(ms, n, policy, quantities) -> ProfileEntry:
    lam_min = lam_max = hs = trace = None
    bits_used = None
    status = "ok"
    want_min = "lambda_min" in quantities
    want_max = "lambda_max" in quantities
    want_hs = "hs_norm_b" in quantities
    want_trace = "trace_partial" in quantities

    try:
        if want_trace:
            try:
                trace = to_float(partial_trace(ms, n))
            except (OverflowError, PrecisionError):
                trace = float("inf")

        h64 = None
        if ms.backend.kind != BIGFLOAT:
            try:
                ms.check_truncation(n)
                cand = np.array(hankel_rows(ms, n), dtype=float)
                if np.all(np.isfinite(cand)):
                    h64 = cand
            except (PrecisionError, BackendError, MissingMomentError, OverflowError):
                h64 = None
        use_f64 = h64 is not None and _f64_cholesky_ok(h64)

        if use_f64:
            eig = np.linalg.eigvalsh(h64)
            lam_min = float(eig[0]) if want_min else None
            lam_max = float(eig[-1]) if want_max else None
            bits_used = 53
        elif (want_min or want_max) and n <= policy.escalate_max_n:
            status = "lambda-min-unresolved"
            # lambda_min is always computed: the status below is read off it
            which = ("min", "max") if want_max else ("min",)
            for bits in policy.ladder(ms, n):
                lo, hi = bigfloat_extremes(ms, n, bits, which=which)
                lam_min = to_float(lo) if want_min else None
                lam_max = to_float(hi) if want_max else None
                bits_used = bits
                if lo > 0:
                    status = "ok"
                    break
        elif want_min or want_max:
            # out of escalation range: keep what f64 can still say (lambda_max
            # of a bounded family is stable even when lambda_min is hopeless)
            if h64 is not None:
                eig = np.linalg.eigvalsh(h64)
                lam_max = float(eig[-1]) if want_max else None
                bits_used = 53
            lam_min = None
            status = "lambda-min-unresolved" if want_min else "ok"

        if want_hs and n <= policy.escalate_max_n:
            tp = factor(ms, n, policy)
            hs = math.sqrt(to_float(tp.hs_norm_sq_b()))
            if bits_used is None:
                bits_used = tp.precision_bits
    except (PositivityError, BackendError, PrecisionError) as err:
        status = f"error:{type(err).__name__}"
    return ProfileEntry(
        n=n,
        lambda_min=lam_min,
        lambda_max=lam_max,
        hs_norm_b=hs,
        trace_partial=trace,
        precision_bits=bits_used,
        status=status,
    )


# ---------------------------------------------------------------------------
# plateau heuristic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlateauVerdict:
    label: str  # "determinate-like" | "indeterminate-like" | "inconclusive"
    ratio: float | None
    window: int
    threshold: float
    grid: list = field(default_factory=list)
    lambda_min: list = field(default_factory=list)

    def to_json(self):
        return {
            "label": self.label,
            "ratio": self.ratio,
            "window": self.window,
            "threshold": self.threshold,
            "grid": self.grid,
            "lambda_min": self.lambda_min,
            "heuristic": True,
        }


def plateau_verdict(
    profile: SpectralProfile, window: int = 4, ratio_threshold: float = 0.5
) -> PlateauVerdict:
    """Plateau heuristic: does lambda_min stop decaying along the grid?

    Compares the last reliable lambda_min against the one ``window`` grid
    points earlier; a ratio above the threshold reads as indeterminate-like.
    The constants are calibrated, not theorems, and ride along in the verdict.
    """
    points = profile.reliable("lambda_min")
    if len(points) < window + 1:
        raise ValueError(
            f"profile needs at least window+1={window + 1} reliable lambda_min "
            f"points, has {len(points)}"
        )
    grid = [n for n, _ in points]
    values = [v for _, v in points]
    last = values[-1]
    ref = values[-1 - window]
    if ref <= 0 or last <= 0:
        return PlateauVerdict("inconclusive", None, window, ratio_threshold, grid, values)
    ratio = last / ref
    label = "indeterminate-like" if ratio > ratio_threshold else "determinate-like"
    return PlateauVerdict(label, ratio, window, ratio_threshold, grid, values)


# ---------------------------------------------------------------------------
# xi vectors and finite identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XiVector:
    t: object
    n: int
    xi: list
    p: list

    def to_json(self):
        from .backends import scalar_to_json

        return {
            "t": scalar_to_json(self.t),
            "n": self.n,
            "xi": [scalar_to_json(x) for x in self.xi],
            "p": [scalar_to_json(x) for x in self.p],
        }


def xi_vector(tp: TriangularPair, t) -> XiVector:
    """xi(t) = B_N (P_k(t))_k, the inverse-factor image of the value vector.

    For rational pairs the two inverse square roots cancel and xi is computed
    exactly: xi = U^{-1} D^{-1} (U^{-1})^t (t^j)_j.  The companion value
    vector p keeps the numeric view.
    """
    if abs(to_float(t)) >= 1:
        warnings.warn(
            "xi(t) is requested for |t| >= 1; finite truncations still "
            "compute, but the geometric tail has no l2 meaning",
            stacklevel=2,
        )
    from .orthopoly import eval_polys

    backend = tp.backend
    with backend.context():
        # y = (U^{-1})^t tau: y_k = sum_{j<=k} Uinv[j][k] t^j  (monic values)
        y = tp.monic_values(t)
        z = [y[k] / tp.pivots[k] for k in range(tp.n)]
        xi = []
        for i in range(tp.n):
            acc = backend.zero()
            for k in range(i, tp.n):
                acc = acc + tp.unit_upper_inv[i][k] * z[k]
            xi.append(acc)
        if backend.kind == RATIONAL:
            # the defining identity C xi = p, in square-root-free form:
            # (U xi)_k d_k must reproduce the monic values exactly
            for k in range(tp.n):
                u_xi = sum(tp.unit_upper[k][j] * xi[j] for j in range(k, tp.n))
                if u_xi * tp.pivots[k] != y[k]:
                    raise SpectralInvariantError(
                        "xi construction violated its defining identity"
                    )
    p = eval_polys(tp, t)
    return XiVector(t=t, n=tp.n, xi=xi, p=p)


@dataclass(frozen=True)
class ResidualReport:
    residuals: list
    sup: float
    l2: float
    exact_zero: bool

    def to_json(self):
        from .backends import scalar_to_json

        return {
            "residuals": [scalar_to_json(r) for r in self.residuals],
            "sup": self.sup,
            "l2": self.l2,
            "exact_zero": self.exact_zero,
        }


def h_xi_identity(tp: TriangularPair, t) -> ResidualReport:
    """Residual of the finite identity (C^t C) xi(t) = (t^n)_{n<N}.

    In exact arithmetic the residual vanishes because the factor columns
    reassemble the monomials from the orthonormal values.  Float pairs report
    the roundoff left by the ill-conditioned reconstruction.
    """
    backend = tp.backend
    xi = xi_vector(tp, t).xi
    with backend.context():
        tv = backend.convert(t)
        # r = U^t D U xi - tau
        u_xi = []
        for k in range(tp.n):
            acc = backend.zero()
            for j in range(k, tp.n):
                acc = acc + tp.unit_upper[k][j] * xi[j]
            u_xi.append(acc * tp.pivots[k])
        residuals = []
        power = backend.one()
        for i in range(tp.n):
            acc = backend.zero()
            for k in range(i + 1):
                acc = acc + tp.unit_upper[k][i] * u_xi[k]
            residuals.append(acc - power)
            power = power * tv
        return ResidualReport(
            residuals=residuals,
            sup=to_float(sup_norm(residuals)),
            l2=math.sqrt(to_float(norm_sq(residuals))),
            exact_zero=backend.kind == RATIONAL and all(r == 0 for r in residuals),
        )


# ---------------------------------------------------------------------------
# the inverse-product experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AMatrixReport:
    """Report-only experiment; no pass/fail semantics.

    In exact arithmetic every finite cut of (B B^t) H collapses to the
    identity (the coefficient columns are nested across truncations), so the
    deviation shows roundoff only.  What stays genuinely open is whether the
    series defining the infinite product converge absolutely, and the report
    tracks its finite evidence: ``abs_series_max`` is the largest absolute
    partial sum max_{i,l<n} sum_{j<cut} |A_ij| m_{j+l}; its growth across
    increasing cuts is the thing to watch.
    """

    n: int
    series_cut: int
    deviation: float
    exact_zero: bool
    abs_series_max: float
    label: str = "experiment"

    def to_json(self):
        return {
            "n": self.n,
            "series_cut": self.series_cut,
            "deviation": self.deviation,
            "exact_zero": self.exact_zero,
            "abs_series_max": self.abs_series_max,
            "label": self.label,
        }


def a_matrix_experiment(tp: TriangularPair, ms: MomentSequence, n: int) -> AMatrixReport:
    """Deviation of (B B^t) H from the identity on the leading n x n block,
    plus the absolute partial sums of the defining series at this cut."""
    if n > tp.n:
        raise ValueError("report block cannot exceed the factorization size")
    backend = tp.backend
    k_cut = tp.n
    work = ms if ms.backend == backend else ms.with_backend(backend)
    with backend.context():
        # A = B B^t restricted to rows < n: A[i][j] = sum_m Uinv[i][m] Uinv[j][m] / d_m
        a_rows = []
        for i in range(n):
            row = []
            for j in range(k_cut):
                acc = backend.zero()
                for m in range(max(i, j), k_cut):
                    acc = acc + (
                        tp.unit_upper_inv[i][m] * tp.unit_upper_inv[j][m] / tp.pivots[m]
                    )
                row.append(acc)
            a_rows.append(row)
        dev = backend.zero()
        abs_max = backend.zero()
        exact = backend.kind == RATIONAL
        for i in range(n):
            for l in range(n):
                acc = backend.zero()
                abs_acc = backend.zero()
                for j in range(k_cut):
                    term = a_rows[i][j] * work.moment(j + l)
                    acc = acc + term
                    abs_acc = abs_acc + abs(term)
                target = backend.one() if i == l else backend.zero()
                diff = abs(acc - target)
                if diff > dev:
                    dev = diff
                if abs_acc > abs_max:
                    abs_max = abs_acc
        return AMatrixReport(
            n=n,
            series_cut=k_cut,
            deviation=to_float(dev),
            exact_zero=exact and dev == 0,
            abs_series_max=to_float(abs_max),
        )
