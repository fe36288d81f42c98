from fractions import Fraction

import pytest
from hypothesis import strategies as st

from hankelmoments import DiscreteMeasure


def rational_points_and_weights(max_points=6):
    """Strategy: a rational measure with distinct points inside (-1, 1)."""
    point = st.fractions(
        min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=12
    )
    weight = st.fractions(
        min_value=Fraction(1, 12), max_value=Fraction(3), max_denominator=12
    )
    return (
        st.lists(point, min_size=1, max_size=max_points, unique=True)
        .flatmap(
            lambda pts: st.tuples(
                st.just(sorted(pts)),
                st.lists(weight, min_size=len(pts), max_size=len(pts)),
            )
        )
        .map(lambda pw: DiscreteMeasure(tuple(pw[0]), tuple(pw[1])))
    )


@pytest.fixture
def three_point_measure():
    return DiscreteMeasure(
        (Fraction(-1, 2), Fraction(0), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
    )


# ---------------------------------------------------------------------------
# dense oracles for TriangularPair: plain operators, O(N^3), independent of the
# library's scalar kernels
# ---------------------------------------------------------------------------


def mat_mul(a, b, zero):
    out = [[zero] * len(b[0]) for _ in range(len(a))]
    for i in range(len(a)):
        for j in range(len(b[0])):
            s = zero
            for t in range(len(b)):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def utdu_product(unit_upper, pivots, zero):
    """U^t diag(pivots) U, entry by entry."""
    n = len(pivots)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = zero
            for k in range(min(i, j) + 1):
                s = s + unit_upper[k][i] * pivots[k] * unit_upper[k][j]
            out[i][j] = s
    return out


def reconstruction(tp):
    """U^t D U of a pair, in its backend, for checks against the truncation."""
    with tp.backend.context():
        return utdu_product(tp.unit_upper, tp.pivots, tp.backend.zero())


def inverse_residual_identity(tp):
    """U U^{-1} of a pair, which must be the identity (exactly, when rational)."""
    with tp.backend.context():
        return mat_mul(tp.unit_upper, tp.unit_upper_inv, tp.backend.zero())


def c_matrix(tp):
    """Cholesky factor C = D^{1/2} U as numbers (f64 for rational pairs)."""
    vb = tp._view_backend()
    with vb.context():
        roots = [vb.sqrt(vb.convert(d)) for d in tp.pivots]
        return [[roots[k] * vb.convert(tp.unit_upper[k][j]) for j in range(tp.n)]
                for k in range(tp.n)]


def b_matrix(tp):
    """Inverse factor B = U^{-1} D^{-1/2}; column n holds P_n's coefficients."""
    vb = tp._view_backend()
    with vb.context():
        roots = [vb.sqrt(vb.convert(d)) for d in tp.pivots]
        return [[vb.convert(tp.unit_upper_inv[k][j]) / roots[j] for j in range(tp.n)]
                for k in range(tp.n)]
