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
    norm_sq,
    to_float,
)
from .measures import DiscreteMeasure, EmptyMeasureError
from .moments import Discrete, MomentSequence, hankel_rows
from .orthopoly import TriangularPair, factor
from .spectral import xi_vector

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


def add_masses(mu: DiscreteMeasure, points, weights) -> DiscreteMeasure:
    """Inverse of removal: adjoin new point masses at fresh points."""
    pts = list(mu.points) + list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("new points must be distinct from the support")
    return DiscreteMeasure.from_lists(pts, list(mu.weights) + list(weights))


# ---------------------------------------------------------------------------
# the finite-rank correction identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationReport:
    removed: list  # (point, weight) pairs
    n: int
    deviation: object  # max abs entry of H(mu) - [H(mu~) + correction]
    exact: bool
    correction_coefficients: list  # weight / (1 - x^2) per removed point
    correction: list  # the rank-|removed| matrix, for audit
    index_of_determinacy: int | None  # bookkeeping only: removals - 1
    banner: str = FINITE_SURROGATE_BANNER

    def to_json(self):
        from .backends import scalar_to_json

        return {
            "removed": [
                {"point": scalar_to_json(x), "weight": scalar_to_json(c)}
                for x, c in self.removed
            ],
            "n": self.n,
            "deviation": scalar_to_json(self.deviation),
            "exact": self.exact,
            "correction_coefficients": [
                scalar_to_json(c) for c in self.correction_coefficients
            ],
            "correction": [[scalar_to_json(v) for v in row] for row in self.correction],
            "index_of_determinacy": self.index_of_determinacy,
            "banner": self.banner,
        }


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
    for i in indices:
        if not 0 <= i < mu.size:
            raise IndexError(f"removal index {i} out of range for {mu.size} points")
        x = mu.points[i]
        if not abs(to_float(x)) < 1:
            raise HypothesisViolationError(
                f"removed point {x} lies outside (-1, 1); the rank-one "
                f"normalization 1/(1 - x^2) requires interior points"
            )
    removed = [(mu.points[i], mu.weights[i]) for i in indices]
    mu_t = remove_masses(mu, indices) if indices else mu

    full = MomentSequence(Discrete(mu), backend)
    trimmed = MomentSequence(Discrete(mu_t), backend)
    with backend.context():
        one = backend.one()
        coeffs = []
        directions = []
        for x, c in removed:
            xv = backend.convert(x)
            cv = backend.convert(c)
            unit_sq = one - xv * xv  # squared normalization of v_j
            coeffs.append(cv / unit_sq)
            directions.append(([xv**k for k in range(n)], unit_sq))

        correction = [[backend.zero()] * n for _ in range(n)]
        for (powers, unit_sq), coef in zip(directions, coeffs):
            for k in range(n):
                for l in range(n):
                    correction[k][l] = correction[k][l] + coef * (
                        unit_sq * powers[k] * powers[l]
                    )

        deviation = backend.zero()
        for lhs_row, rhs_row, corr_row in zip(
            hankel_rows(full, n), hankel_rows(trimmed, n), correction
        ):
            for lhs, rhs, corr in zip(lhs_row, rhs_row, corr_row):
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
        index_of_determinacy=len(removed) - 1 if removed else None,
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
    rational data.  On support points K(x_i, x_j) = delta_ij / c_i.
    """
    ms = MomentSequence(Discrete(mu), backend)
    tp = tp or factor(ms, mu.size)
    pix = tp.monic_values(x)
    piy = tp.monic_values(y)
    with tp.backend.context():
        acc = tp.backend.zero()
        for k in range(tp.n):
            acc = acc + pix[k] * piy[k] / tp.pivots[k]
        return acc


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

    def to_json(self):
        from .backends import scalar_to_json

        return {
            "removed_points": [scalar_to_json(x) for x in self.removed_points],
            "n": self.n,
            "embedding_length": self.embedding_length,
            "residual_norms": self.residual_norms,
            "exact_zero": self.exact_zero,
            "banner": self.banner,
        }


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
    geometric tails.
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
    for i in indices:
        if not 0 <= i < m:
            raise IndexError(f"removal index {i} out of range for {m} points")
        if not abs(to_float(mu.points[i])) < 1:
            raise HypothesisViolationError(
                f"removed point {mu.points[i]} lies outside (-1, 1)"
            )
    ms = MomentSequence(Discrete(mu), backend)
    tp = factor(ms, m)
    mu_t = remove_masses(mu, indices) if indices else mu
    trimmed = MomentSequence(Discrete(mu_t), backend)

    removed_points = [mu.points[i] for i in indices]
    norms = []
    exact = backend.kind == RATIONAL
    all_zero = True
    with backend.context():
        for x in removed_points or []:
            xi = xi_vector(tp, x).xi[:emb]
            image = []
            for row in range(n):
                acc = backend.zero()
                for col in range(emb):
                    acc = acc + trimmed.moment(row + col) * xi[col]
                image.append(acc)
            ns = norm_sq(image)
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


def vanishing_combination(mu: DiscreteMeasure, indices, coeffs):
    """Coefficients of q(x) * prod_j (x - x_j): a polynomial vanishing at the
    removed points, for quadratic-form comparisons between mu and mu~."""
    poly = list(coeffs)
    for i in indices:
        x = mu.points[i]
        shifted = [0 * poly[0]] + poly
        scaled = [a * (-x) for a in poly] + [0 * poly[0]]
        poly = [s + t for s, t in zip(shifted, scaled)]
    return poly
