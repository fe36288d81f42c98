"""Mass-removal experiments on finitely supported measures.

Removing point masses from a measure perturbs its Hankel truncation by an
explicit finite-rank correction; on a finitely supported measure every one of
these statements is an exact finite-dimensional identity, so the module
verifies them with zero tolerance under the rational backend.  All reports
carry a finite-surrogate banner: nothing here simulates an infinite measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backends import (
    RATIONAL,
    RATIONAL_BACKEND,
    Backend,
    HankelError,
    dot,
    exact_sum,
    to_float,
)
from .hankel import row_actions
from .measures import DiscreteMeasure, EmptyMeasureError
from .moments import Discrete, MomentSequence
from .orthopoly import TriangularPair, factor
from .spectral import _xi_and_image

FINITE_SURROGATE_BANNER = (
    "finite-surrogate: identities verified exactly on a finitely supported "
    "measure; no claim about infinite discrete measures is implied"
)


class HypothesisViolationError(HankelError):
    """A removed point sits outside (-1, 1), where the rank-one normalization
    1/(1 - x^2) of the correction is undefined or negative."""


# ---------------------------------------------------------------------------
# measure surgery
# ---------------------------------------------------------------------------


def remove_masses(mu: DiscreteMeasure, indices) -> DiscreteMeasure:
    """Delete the point masses at the given support indices."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("removal indices must be distinct")
    for i in indices:
        if not 0 <= i < mu.size:
            raise IndexError(f"removal index {i} out of range for {mu.size} points")
    keep = [i for i in range(mu.size) if i not in set(indices)]
    if not keep:
        raise EmptyMeasureError("cannot remove every point mass")
    return DiscreteMeasure(
        tuple(mu.points[i] for i in keep), tuple(mu.weights[i] for i in keep)
    )


def _check_removal_indices(mu: DiscreteMeasure, indices):
    """Removed points must lie inside (-1, 1); :func:`remove_masses` has
    checked the indices themselves."""
    for i in indices:
        if not abs(to_float(mu.points[i])) < 1:
            raise HypothesisViolationError(
                f"removed point {mu.points[i]} lies outside (-1, 1); the rank-one "
                f"normalization 1/(1 - x^2) requires interior points"
            )


# ---------------------------------------------------------------------------
# the finite-rank correction identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationReport:
    removed: list  # {"point": x, "weight": c} per removed mass
    n: int
    deviation: object  # max abs entry of H(mu) - [H(mu~) + correction]
    exact: bool
    correction_coefficients: list  # weight / (1 - x^2) per removed point
    correction: list  # the rank-|removed| matrix, for audit
    banner: str = FINITE_SURROGATE_BANNER


def perturbation_check(
    mu: DiscreteMeasure,
    indices,
    n: int,
    backend: Backend = RATIONAL_BACKEND,
) -> PerturbationReport:
    """Verify H(mu) = H(mu~) + sum_j (1-x_j^2)^{-1} c_j v_j v_j^t entrywise.

    The rank-one direction v_j is the normalized geometric vector
    sqrt(1-x_j^2) (x_j^k)_k truncated to length n; the square root cancels
    against the coefficient, so the whole correction is rational when the
    measure is, and the deviation must vanish exactly.
    """
    indices = list(indices)
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    mu_t = remove_masses(mu, indices)
    _check_removal_indices(mu, indices)
    removed = [{"point": mu.points[i], "weight": mu.weights[i]} for i in indices]

    full = MomentSequence(Discrete(mu), backend)
    trimmed = MomentSequence(Discrete(mu_t), backend)
    with backend.context():
        one = backend.one()
        coeffs = []
        scaled = []  # coef_j (1 - x_j^2): the weight of x_j^(k+l) in entry (k, l)
        points = []
        for i in indices:
            xv = backend.convert(mu.points[i])
            cv = backend.convert(mu.weights[i])
            unit_sq = one - xv * xv  # squared normalization of v_j
            coeffs.append(cv / unit_sq)
            scaled.append(coeffs[-1] * unit_sq)
            points.append(xv)

        # the correction is Hankel: its 2n - 1 antidiagonals, each one dot
        # over the removed points
        zero = backend.zero()
        diagonals = [
            dot(scaled, [xv**s for xv in points]) if points else zero for s in range(2 * n - 1)
        ]
        correction = [diagonals[k : k + n] for k in range(n)]

        # all three matrices are Hankel: compare them antidiagonal by antidiagonal
        deviation = backend.zero()
        for lhs, rhs, corr in zip(
            full.moments(2 * n - 1), trimmed.moments(2 * n - 1), diagonals
        ):
            diff = abs(lhs - (rhs + corr))
            if diff > deviation:
                deviation = diff
    return PerturbationReport(
        removed=removed,
        n=n,
        deviation=deviation,
        exact=backend.kind == RATIONAL and deviation == 0,
        correction_coefficients=coeffs,
        correction=correction,
    )


# ---------------------------------------------------------------------------
# reproducing kernel on the finite surrogate
# ---------------------------------------------------------------------------


def cd_kernel(
    mu: DiscreteMeasure,
    x,
    y,
    backend: Backend = RATIONAL_BACKEND,
    tp: TriangularPair | None = None,
):
    """Reproducing kernel K(x, y) = sum_{k<M} P_k(x) P_k(y) of the measure.

    The orthonormal system comes from factoring the full M x M truncation;
    the inverse square roots pair up, so the kernel value is exact for
    rational data.  On support points K(x_i, x_j) = delta_ij / c_i.  An
    exact pair passes the terms pi_k(x) pi_k(y) / d_k to
    :func:`.backends.exact_sum` as integer pairs, the numerator of d_k in
    the denominator; a float pair takes one ``dot`` of pi(x) with
    pi_k(y) / d_k.
    """
    if tp is None:
        tp = factor(MomentSequence(Discrete(mu), backend), mu.size)
    pix = tp.monic_values(x)
    piy = pix if y == x else tp.monic_values(y)
    if tp.integer_forms is not None:
        return exact_sum([(p.numerator * q.numerator * d.denominator,
                           p.denominator * q.denominator * d.numerator)
                          for p, q, d in zip(pix, piy, tp.pivots)])
    with tp.backend.context():
        return dot(pix, [p / d for p, d in zip(piy, tp.pivots)])


# ---------------------------------------------------------------------------
# kernel vectors of the trimmed operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelResidualReport:
    removed_points: list
    n: int
    embedding_length: int
    residual_norms: list  # ||H(mu~) xi(x_j)|| per removed point
    exact_zero: bool
    banner: str = FINITE_SURROGATE_BANNER


def kernel_vector_check(
    mu: DiscreteMeasure,
    indices,
    n: int | None = None,
    k_tail: int | None = None,
    backend: Backend = RATIONAL_BACKEND,
) -> KernelResidualReport:
    """Apply the trimmed truncation to xi(x_j) for each removed point.

    On the full-rank finite surrogate (n = embedding length = M) the products
    vanish exactly: the xi vectors span the kernel of the trimmed operator.
    Shorter truncations report the positive residual left by cutting the
    geometric tails.  Only xi itself is formed (no float view of the
    polynomial values), and each image is one row action.
    """
    indices = list(indices)
    m = mu.size
    n = m if n is None else n
    emb = m if k_tail is None else min(k_tail, m)
    if not 1 <= n:
        raise ValueError("truncation size must be >= 1")
    if n > m or emb > m:
        raise ValueError(
            "a finitely supported measure has rank M; truncation and embedding "
            "cannot exceed it"
        )
    mu_t = remove_masses(mu, indices)
    _check_removal_indices(mu, indices)
    tp = factor(MomentSequence(Discrete(mu), backend), m)
    trimmed = MomentSequence(Discrete(mu_t), backend)

    removed_points = [mu.points[i] for i in indices]
    norms = []
    exact = backend.kind == RATIONAL
    all_zero = True
    with backend.context():
        for x in removed_points:
            xi = _xi_and_image(tp, x)[0][:emb]
            image = row_actions(trimmed, xi, 0, n)
            ns = dot(image, image)
            if ns != 0:
                all_zero = False
            norms.append(math.sqrt(to_float(ns)))
    return KernelResidualReport(
        removed_points=removed_points,
        n=n,
        embedding_length=emb,
        residual_norms=norms,
        exact_zero=exact and all_zero and bool(removed_points),
        banner=FINITE_SURROGATE_BANNER,
    )
