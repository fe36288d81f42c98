"""Spectral diagnostics over growing truncations.

The profile machinery tracks extreme eigenvalues, the Hilbert-Schmidt weight
of the inverse factor, and partial traces along a truncation grid; a
calibrated plateau heuristic on the smallest eigenvalue separates
determinate-like from indeterminate-like moment data.  Nothing here claims a
limit: every verdict ships with the profile that produced it.

:func:`bigfloat_extremes` gives both extremes of a truncation at a fixed
precision, from Householder tridiagonalization followed by bisection with
inertia counts, both in fixed point on Python ints, which is deterministic
at any fixed precision; no profile calls it.  At precision
``bits`` the moment block m_0 .. m_{2N-2} is taken at ``bits``, scaled by
2^-e, where e is the exponent of the largest |m_j| (so every entry is below 1
in magnitude), and rounded to ints with

    p = bits + 64 + 2 ceil(log2 N) + 8

fractional bits, 64 being the bisection resolution of a positive extreme.
The kernels then move an eigenvalue by at most (N^2 + 1) 2^(e-p): the
rounding of the block (N/2 units of 2^-p), the Householder steps (exactly
orthogonal integer reflectors; (N-2)(N+18)/4 units in all) and the inertia
counts (exact for a diagonal moved by less than two units) add up to (N^2 +
18N - 28)/4 <= N^2 + 1 units (Weyl).  Only the requested extremes are
bisected, each positive one to a bracket 2^-64 wide relative to its own size
at every rung (geometric bisection for lambda_min, whose size can be far
below 1).  A lambda_min below the resolution floor, 2^(-bits) times the
Gershgorin bound on the spectrum, comes back as 0: no value of it is
resolved at this precision.  A negative lambda_min is bisected to
2^-(bits/2) relative to the larger bracket end.  The floor is at least
2^(e-1-bits), so the kernel error lies 70 bits below it: it moves a resolved
lambda_min by less than 2^-70 relative, a 64th of the bracket.

A profile entry takes each extreme by one rule, whatever else it asks for:
lambda_min from the graded path below where its bound holds, and nowhere
else; lambda_max from one LAPACK ``eigvalsh`` of the scaled f64 truncation
where a bound certifies it (:func:`lambda_profile`).  The moment block m_0
.. m_{2N-2} is read at the sequence's own precision, or at 128 bits where
the family refuses it there (it has no rational moments, or a moment that
overflows f64), scaled by 2^-e, where 2^e <= max |m_j| < 2^(e+1), and
rounded to f64: no entry overflows, and an entry that underflows is off by
at most 2^-1075 besides its relative rounding.  A block that is f64 before
it is scaled (an f64 sequence's, or a rational one rounded entrywise) is
only scaled down, e >= 0, so an entry that underflowed in its own rounding
is off by at most 2^-1075 at the new scale too; one whose largest entry is
below 2, Hilbert's m_0 = 1 among them, is not scaled at all.  ``eigvalsh``
is backward stable (Demmel, *Applied Numerical Linear Algebra*, 1997, sec.
5.2): its values are the exact eigenvalues of H~ + E, with ||E||_2 <= N u
||H~||_2 and u = 2^-53, where H~ is the scaled f64 truncation.  H~ differs
from the exact scaled truncation H by the rounding of its moments: a moment
formed in at most 2N roundings lies within 2N u of its exact value,
relative, so ||H~ - H||_2 <= ||H~ - H||_F <= 2N u ||H||_F + N 2^-1075.  The
closed forms take one to a few roundings per moment (one for log-normal,
whose exp is rounded once), and Gegenbauer two per step of its product, at
most j for m_j.  A Gegenbauer lambda for which lambda + 1 + i rounds takes
two more per step, up to 2j; that case is covered only to the extent that
its decreasing moments put little of ||H||_F on the large indices.  By
Weyl's inequality, with ||.||_2 <= ||.||_F, each computed eigenvalue lambda^
then lies within 3N u ||H||_F of the exact one to first order.  The bound
takes N u more, for the second-order terms and for ||H~||_F standing in for
||H||_F, and N^2 2^-1074 for the entries that underflow (N 2^-1075 in the
block, and as much again for the underflow inside LAPACK, with room to
spare), and is read relative to the value:

    eps = (4 N u ||H~||_F + N^2 2^-1074) / |lambda^|,

both at the scale 2^-e; the reported value is lambda^ 2^e.  For a positive
semidefinite H, ||H||_F <= sqrt(N) lambda_max, so eps of lambda_max is at
most about 4 N^(3/2) u: 2.3e-13 at N = 64.  The largest eigenvalue of the
``eigvalsh`` is reported where eps <= LAMBDA_MAX_TOL and lambda^ 2^e is a
normal f64 number (a lambda_max past the f64 range is declined, not
written as inf); 1e-12 is the relative agreement the ``eigsy`` checks hold
the graded path to.  The same bound on the smallest eigenvalue certifies
nothing the graded path misses: as ||H||_F >= lambda_max, eps <=
LAMBDA_MAX_TOL asks for kappa_2(H) <= 1e-12 / (4 N u), while A = S^-1 H
S^-1 below has tr A^-1 = sum_k (H^-1)_kk m_2k <= N kappa_2(H) (the van der
Sluis bound), so theta below stays under 1e-31 at 128 bits up to N = 64
wherever it holds.  No positive definite Hankel matrix beyond small N is
that well conditioned (Beckermann, *Numer. Math.* 85, 2000).  Nor does a
negative value state more than that the truncation is not positive
definite, which the graded path proves exactly.

lambda_min comes from the graded path, whose precision follows the condition
of A in H = S A S, S diagonal, not that of H (Demmel and Veselic, *Jacobi's
method is more accurate than QR*, SIAM J. Matrix Anal. Appl. 13, 1992).  A
run at rung b reads the moment block at v = 2^-b, each moment within 2N v of
its exact value, relative (the count above).  With p = b + 2 ceil(log2 N) +
8, S^-1 = diag(r_k), r_k = 1/sqrt(m~_2k) rounded to p bits (two roundings,
|rho_k| <= 2^(1-p)).  S is this computed scaling, so H = S A' S holds exactly
for A' = S^-1 H S^-1.  The rest runs in fixed point at 2^-p on Python ints:

* A~: A~_jk = r_j m~_{j+k} r_k is rounded once, half a unit, and A~_jj = 1,
  off A'_jj = r_j^2 m_2j by at most 2N v + 2 |rho_j|.  Every entry of A~ -
  A' is below 2N v + 4 units, so ||A~ - A'||_2 <= N (2N v + 4 2^-p).
  (|A'_jk| <= 1 to first order: L~ L~^t below is a Gram matrix with
  diagonal at most 1, within two units of A~.)
* Cholesky: L~_jk = round((A~_jk - sum_{l<k} L~_jl L~_kl) / L~_kk), the sum
  exact, and L~_jj = isqrt of the pivot, which leaves below 2 L~_jj <= 2
  units.  So L~ L~^t - A~ is below half a unit off the diagonal and two on
  it, at most 2N units in the 2-norm.  A pivot <= 0 declines.
* Inverse: X~ solves x L~ = e_i row by row, each entry rounded once, so
  X~ L~ = I + R with R lower triangular, |R_ik| <= L~_kk / 2 units and
  ||R||_2 <= N 2^(-p-1).  The residual sits next to L~, in the frame of A:
  X~ = (I + R) L~^-1 is exactly the inverse factor of A^ = L~ (I + R)^-1
  (I + R)^-t L~^t, and R never meets S^-1, whose entries run to 2^1000 and
  beyond.  ||A^ - L~ L~^t||_2 <= ||L~||_2^2 (2 ||R|| + ||R||^2) / (1 -
  ||R||)^2 <= N^2 2^-p to first order, as ||L~||_2^2 <= tr(L~ L~^t) <= N.

In all, dA = A^ - A' has ||dA||_2 <= 2N^2 v + (N^2 + 6N) 2^-p <= (2N^2 + 1)
v, since 2^-p <= v / (256 N^2).  Now (S A^ S)^-1 = S^-1 X~^t X~ S^-1, so
lambda_min(S A^ S) = 1/||X~ S^-1||_2^2 exactly, and H = Z (I - G) Z^t with
Z = S A^(1/2) and G = A^(-1/2) dA A^(-1/2).  By Ostrowski's theorem every
eigenvalue of H is that of S A^ S times a factor in [1 - theta, 1 + theta],
theta = ||G||_2 <= ||dA||_2 ||X~||_2^2 <= (2N^2 + 1) v ||X~||_F^2, where
||X~||_F^2 is summed exactly from the ints; theta < 1 also proves H
positive definite.  ||X~||_F^2 is about tr A^-1 <= N kappa(A): 200 for
LogNormal(1) at N = 40 (kappa 67.5), 7.5e16 for the Gaussian (kappa 5.3e17),
and for Hilbert, whose A is as ill-conditioned as H, enough to pass 1e-12 at
128 bits from N = 19 on.

The f64 steps: Y = X~ S^-1 is rounded entrywise once (an int division), so
|dY_jk| <= u |Y_jk| + 2^-1075; the absolute part covers the entries that
underflow (LogNormal(1) columns k >= 27, r_k = e^(-k^2)), and sigma =
||X~ S^-1||_2 moves by at most ||dY||_F <= sqrt(N) u sigma + N 2^-1075.
LAPACK's SVD is backward stable (Demmel, sec. 5.4): sigma^ is the largest
singular value of Y + E with ||E||_2 <= N u ||Y||_2.  lambda^ = (1/sigma^)^2
takes two roundings more.  To first order lambda^ is then within 2(N +
sqrt(N) + 1) u + N 2^-1074 / sigma^ of lambda_min(S A^ S), relative; the
bound takes 4(N + 1) u for the first term, the rest being spare for the
second order, and reads

    eps = (theta + 4 (N + 1) u + N 2^-1074 / sigma^) / (1 - theta).

A lambda^ with eps <= LAMBDA_MAX_TOL is reported; there is no other
lambda_min.  The path declines, and lambda_min is unresolved, when lambda^
leaves the normal f64 range (the weight of the same size keeps its value,
below), or when the bound exceeds LAMBDA_MAX_TOL at every rung it runs.  An
even moment or a pivot that is not positive, or theta_M >= 1, on a
truncation whose exact block is not positive definite (below) is a
:class:`~.triangular.PositivityError`.

A profile runs the graded path once per grid and rung, at the largest size N
it asks for, and p comes from that N.  Row j of L~ reads only A~_jk, k <=
j, and the rows of L~ above it; row j of X~ reads only rows 0..j of L~.  So
the leading M x M blocks of A~, L~, X~ and Y are exactly those of a run at
size M with the same p, and the derivation above holds for every M <= N,
since 2^-p <= v / (256 N^2) <= v / (256 M^2).  Size M takes theta_M = (2M^2
+ 1) v ||X~_M||_F^2 from the running sum of the row norms of X~ and sigma
from LAPACK on the leading M x M block of Y; its value can differ from that
of a single-size run in the last bits, as p does.  theta_M only grows with
M and eps >= theta_M, so the run stops at the first M whose theta_M exceeds
LAMBDA_MAX_TOL: every larger size declines at this rung, with no further
rows and no SVD.

The sizes from M on then run again at higher rungs, by the one climb rule of
:func:`~.orthopoly.graded_climb`, which a float factor takes too (below);
each size reports the rung that certified it.  The rule rests on two facts.
theta_M < 1 proves the leading M x M block positive definite, and
||X~_M||_F^2 = tr A^_M^-1 lies within a factor (1 -+ theta_M)^-1 of tr
A'_M^-1 (Ostrowski again), which depends on the moments, not on b: at 2b,
theta_M is about 2^-b theta_M, far below LAMBDA_MAX_TOL.  And a positive
definite A' has a positive lambda_min of its own, which the rounding at 2^-b
can hide behind theta_M >= 1 or a pivot <= 0 and a finer rung brings out,
while a singular truncation stops so at every rung and must not climb to the
cap.  The family's exact test
(:meth:`~.moments.MomentFamily.positive_definite_limit`) tells the two apart: a measure with infinite support passes it at once,
every truncation of it being positive definite, a discrete measure passes up
to its number of points, and explicit data takes the rational LDL of the
exact values the rungs approach.  Where it fails, every size from M on
reports the :class:`~.triangular.PositivityError` of dimension M that the
exact factor raises.  Hilbert's lambda_min takes 128 bits up to N = 18, 256
bits for N = 19..43 and 512 bits for N = 44..64.

Where the moments a row reads are those of a symmetric functional (every
odd one exactly zero), A~_jk = r_j m~_{j+k} r_k vanishes for odd j + k, and
so do L~_jk and X~_jk: each is a rounded sum of products one factor of
which vanishes, and rounds to 0.  The run skips those products and forms
every other int as the full loops do, so theta, lambda_min, hs_norm_b and
their bounds keep their bits.

hs_norm_b = ||B_M||_F = sqrt(tr H_M^-1) comes from the same run.  With
Y^ = X~ S^-1, (S A^ S)^-1 = (Y^)^t Y^ exactly, so ||Y^_M||_F^2 =
tr (S A^ S)_M^-1.  By Ostrowski every eigenvalue of H_M^-1 is one of
(S A^ S)_M^-1 times a factor in [(1 + theta_M)^-1, (1 - theta_M)^-1];
summing them, sqrt(tr H_M^-1) lies within a factor [1 - theta_M / 2,
1 + theta_M / (2 (1 - theta_M))] of ||Y^_M||_F.  The f64 Y is off Y^ by at
most u |Y^_jk| + 2^-1075 per entry (as above), which moves the norm by at
most u ||Y^_M||_F + M 2^-1075.  The norm nu is the ``math.hypot`` of the
norms of the rows of Y_M, each the ``math.hypot`` of its entries, formed
once as the row is written.  Python documents hypot as within 1 ulp (2u),
so nu is within 4u of ||Y_M||_F.  hypot scales by its largest argument, so
nothing overflows where the result does not; wherever nu is a normal
number, scaled entries that underflow move it by at most M^2 2^-1074
relative, far below u.  So

    eps_hs = (theta_M / 2 + 6 u + M 2^-1074 / nu) / (1 - theta_M),

the 6u leaving u spare for the second order and the underflows.  nu is
hs_norm_b wherever eps_hs <= LAMBDA_MAX_TOL; eps_hs never exceeds the
lambda_min bound, as nu >= sigma, so a size with a certified lambda_min has
a certified weight.  The weight has a range check of its own.  theta_M is
formed from the ints before row M - 1 of Y, so a row of Y that overflows
belongs to a block already proven positive definite, and its entry bounds
||Y_M'||_F from below for every M' >= M: each of those weights is at least
2^1024.  The run goes on with the ints, and each such size, like one whose
nu is not a normal number (a Y that underflows), reports a
:class:`~.backends.PrecisionError` for its weight, unless the run proves
its block not positive definite.  As sigma <= nu <= sqrt(M) sigma, lambda^
is then outside the normal f64 range too, and lambda_min is declined.

A profile runs the graded path for hs_norm_b even when it does not ask for
lambda_min, and a size it proves not positive definite reports that error
for the weight too: the graded run is the only source of the weight of an
f64 or big-float sequence.  That of a rational sequence stays the correctly
rounded exact one, read off its exact factor (:func:`_hs_norms`), which
reports a size past the exact positive-definite limit as its
:class:`~.triangular.PositivityError`.  The Chebyshev algorithm of
:mod:`.triangular` forms the leading M x M block of the N x N factor by the
same operations whatever N is, so tr(H_M^-1) = ||B_M||_F^2 = sum_{j<M}
||col_j(U^-1)||^2 / d_j is a running sum over its columns: the largest size
is factored once, and each smaller one reads its leading block.  A size
whose own factor fails keeps its error, and the next smaller size factors
anew.

A float factor (:func:`~.orthopoly.factor`) reads its pair off the same
ints, from a run at its size N that completes: every theta_M below the
tolerance the factor sets.  Let W = S L~.  The computed factor is exact for
H^ = W W^t: C^ = W^t, so d^_k = W_kk^2 = (L~_kk / r_k)^2 and U^[k][l] = W_lk
/ W_kk = L~_lk r_k / (L~_kk r_l).  And H = W (I - G) W^t, with G = L~^-1 dA'
L~^-t and dA' = L~ L~^t - A'.  The entry bounds above give ||dA'||_F <= 2N^2
v + 6N 2^-p (the N^2 2^-p of A^ drops out), and L~^-1 = (I + R)^-1 X~ gives
||L~^-1||_2^2 <= ||X~||_F^2 / (1 - N 2^(-p-1))^2.
So ||G_M||_F <= theta_M, with room to spare for that factor and for the
rounding of theta_M to 53 bits.  W is lower triangular, so G_M is the
leading block of G and H_M = W_M (I - G_M) W_M^t.

* Pivots.  d_k = det H_{k+1} / det H_k, and det H_M = det(W_M)^2 det(I -
  G_M).  The eigenvalues of I - G_M lie in [1 - theta_M, 1 + theta_M], and
  1 + theta <= 1 / (1 - theta), so det(I - G_M) lies within (1 -
  theta_M)^(+-M).  As theta_M grows with M, d_k / d^_k lies within (1 -
  theta_{k+1})^(+-(2k+1)): the relative bound is expm1((2k + 1) l_{k+1}),
  l_M = -log1p(-theta_M), about (2k + 1) theta_{k+1}.
* beta.  beta_k = d_k / d_{k-1} is det H_{k+1} det H_{k-1} / (det H_k)^2,
  within (1 - theta_{k+1})^(+-4k): the bound is expm1(4k l_{k+1}), about 4k
  theta_{k+1}.  For the orthonormal beta_k = sqrt(b_k) of a monic b_k
  within g relative, |sqrt(x) - 1| = |x - 1| / (1 + sqrt(x)) gives g / (1 +
  sqrt(1 - g)) (:func:`~.orthopoly.recurrence`).
* alpha.  The exact Cholesky factor of H is W K, where K K^t = I - G and K
  is lower triangular.  Sun's bound (*BIT* 31, 1991) gives ||K - I||_F <=
  ||G||_F / (sqrt 2 (1 - ||G||_2)) <= phi = theta / (sqrt 2 (1 - theta)).
  The exact U is then V U^, where V = diag(W)^-1 diag(K)^-1 K^t diag(W) is
  unit upper triangular, so U[k][k+1] = U^[k][k+1] + V_{k,k+1}, with
  V_{k,k+1} = (K_{k+1,k} / K_kk) sqrt(b^_{k+1}) and b^_{k+1} = d^_{k+1} /
  d^_k.  Hence alpha_k = U[k][k+1] - U[k-1][k] moves by at most (sqrt b^_k
  + sqrt b^_{k+1}) phi / (1 - phi), phi taken at theta_{k+2}, the leading
  block that holds both entries.
* Read-off.  d^_k and U^[k][l] come from exact ints in two roundings at b
  (int to mpf, and one division), beta^ from two pivots in one more, and
  alpha^ from two entries of U^ in one more.  2^(3-b) covers them: relative
  for the pivots and beta, and times |U^[k][k+1]| + |U^[k-1][k]| for alpha.

The bounds are formed at 53 bits and kept by the pair
(:attr:`~.orthopoly.TriangularPair.bounds`).  The factor climbs from
``GRADED_BITS``, or b for ``bigfloat:b`` if larger, until (2N + 1) theta_N
<= 2^-(out + ``FACTOR_MARGIN_BITS``), out = 53 for f64 and b for
``bigfloat:b``, which puts every relative bound near 2^-(out + 8) or below:
Hilbert at f64 takes 128 bits up to N = 12, 256 bits for N = 13..37 and 512
bits for N = 38..64.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .backends import (
    BIGFLOAT,
    RATIONAL,
    BackendError,
    HankelError,
    PrecisionError,
    bigfloat,
    dot,
    integer_form,
    sup_norm,
    to_float,
)
from .moments import MissingMomentError, MomentSequence, partial_trace
from .orthopoly import (
    GRADED_BITS,
    TriangularPair,
    _round_shift,
    eval_polys,
    factor,
    graded_climb,
    graded_frac,
    guard_bits,
)
from .triangular import PositivityError

ESCALATE_MAX_N = 64  # above this size a profile runs no graded run and no exact factor
LAMBDA_MAX_TOL = 1e-12  # relative bound to report f64 lambda_max or graded lambda_min
_BRACKET_BITS = 64  # a positive extreme is bisected to 2^-64 relative at every rung
_ENTRY_ERRORS = (PositivityError, BackendError, PrecisionError)  # reported as a status


# ---------------------------------------------------------------------------
# symmetric eigenvalue extremes (fixed point on Python ints)
# ---------------------------------------------------------------------------


def householder_tridiagonalize(rows, n, frac_bits):
    """Similarity-reduce a symmetric fixed-point matrix to tridiagonal form.

    ``rows`` holds ints, each entry scaled by 2^frac_bits; returns (diag,
    offdiag) in the same format.  Only the lower triangle is read and
    updated.  Each reflector I - 2 v v^t / (v^t v) is defined by the integer
    vector v = x - alpha e_0, and v^t v is summed exactly, so every reflector
    is exactly orthogonal; alpha = -sign(x_0) isqrt(|x|^2) is written as the
    off-diagonal directly, and only the rows below it are updated.  The
    reflected vector q carries 2 ceil(log2 N) + 3 guard bits.  For entries of
    magnitude at most 1 the result is exactly orthogonally similar to a
    symmetric matrix within (N-2)(N+18)/4 units of 2^-frac_bits of the input
    in the 2-norm: per step, half a unit per row from rounding the update,
    at most 2.25 from the rounding of q (against |v| <= 2N + 1) and 2 from
    dropping the part of the reflected column that the rounded alpha leaves
    below the off-diagonal.
    """
    scale = frac_bits + guard_bits(n) + 3
    rnd = 1 << (scale - 1)
    mul = operator.mul
    block = [list(r[: i + 1]) for i, r in enumerate(rows)]
    diag, off = [], []
    while len(block) > 2:
        diag.append(block[0][0])
        x = [r[0] for r in block[1:]]
        block = [r[1:] for r in block[1:]]
        norm2 = sum(t * t for t in x)
        if norm2 == 0:
            off.append(0)
            continue
        alpha = math.isqrt(norm2)
        if x[0] > 0:
            alpha = -alpha
        off.append(alpha)
        v = x
        v[0] -= alpha
        vv = sum(t * t for t in v)
        # p = 2 B v / (v^t v), with (B v)_j = row j + column j - diagonal
        p = [
            ((sum(map(mul, r, v)) + sum(map(mul, c, v)) - r[-1] * vj) << (scale + 1)) // vv
            for r, c, vj in zip(block, itertools.zip_longest(*block, fillvalue=0), v)
        ]
        # q = p - (p^t v / v^t v) v; then B <- B - v q^t - q v^t, rounded
        pv = sum(map(mul, p, v))
        q = [pi - pv * vi // vv for pi, vi in zip(p, v)]
        block = [
            [b - ((vi * qj + qi * vj + rnd) >> scale) for b, qj, vj in zip(r, q, v)]
            for r, vi, qi in zip(block, v, q)
        ]
    diag += [r[-1] for r in block]
    if len(block) == 2:
        off.append(block[1][0])
    return diag, off


def eigen_count_below(diag, off_sq, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below ``x``.

    Fixed point: ``diag`` and ``x`` share a scale 2^p and ``off_sq`` holds
    the squared off-diagonals at 2^(2p).  The floor division makes each
    pivot q_i = d_i - x - e_{i-1}^2 // q_{i-1} exact for a diagonal entry
    moved by less than one unit, so the count is exact for T + diag(delta)
    with |delta_i| < 2^-p; a zero pivot is taken as one unit, which moves
    its entry by less than 2^(1-p).
    """
    count = 0
    q = diag[0] - x
    for d, e2 in zip(diag[1:], off_sq):
        if q < 0:
            count += 1
        elif q == 0:
            q = 1
        q = d - x - e2 // q
    return count + (q < 0)


def _bisect(diag, off_sq, lo, hi, target, bits):
    """Plain bisection for the ``target``-th eigenvalue inside [lo, hi]."""
    rel = bits // 2
    while hi - lo > max(1, max(abs(lo), abs(hi)) >> rel):
        mid = (lo + hi) >> 1
        if eigen_count_below(diag, off_sq, mid) >= target:
            hi = mid
        else:
            lo = mid
    return (lo + hi) >> 1


def extreme_eigenvalue(diag, off, which: str, bits: int):
    """Smallest or largest eigenvalue of a fixed-point tridiagonal matrix.

    ``diag`` and ``off`` are ints at one scale 2^p, and so is the result;
    ``bits`` is the precision the matrix stands for.  A positive extreme is
    bracketed to 2^-64 relative to its own size at every precision:
    lambda_min geometrically (midpoint ``isqrt(lo * hi)``) on (floor, min
    diag], lambda_max arithmetically on [max diag, Gershgorin hi] (every
    diagonal entry is a Rayleigh quotient).  The floor is 2^-bits times
    max(|Gershgorin lo|, |Gershgorin hi|); a lambda_min below it in
    magnitude, of either sign, cannot be resolved at this precision and
    comes back as 0.  A negative lambda_min beyond it (and a lambda_max with
    max diag <= 0) is found by plain bisection to 2^-(bits/2) relative to
    the larger bracket end.  The off-diagonals are squared once, and every
    inertia count is exact for the matrix with its diagonal moved by less
    than two units (:func:`eigen_count_below`).
    """
    n = len(diag)
    if n == 1:
        return diag[0]
    rad = (
        [abs(off[0])]
        + [abs(off[i - 1]) + abs(off[i]) for i in range(1, n - 1)]
        + [abs(off[-1])]
    )
    g_lo = min(d - r for d, r in zip(diag, rad))
    g_hi = max(d + r for d, r in zip(diag, rad))
    off_sq = [e * e for e in off]
    r = _BRACKET_BITS
    if which == "min":
        lo = max(abs(g_lo), abs(g_hi)) >> bits
        if eigen_count_below(diag, off_sq, -lo) >= 1:
            return _bisect(diag, off_sq, g_lo, 0, 1, bits)
        if eigen_count_below(diag, off_sq, lo) >= 1:
            return 0
        lo = max(lo, 1)
        hi = min(diag)
        # hi - lo > 2 keeps the integer geometric mean strictly inside
        while hi - lo > max(2, lo >> r):
            mid = math.isqrt(lo * hi)
            if eigen_count_below(diag, off_sq, mid) >= 1:
                hi = mid
            else:
                lo = mid
        return (lo + hi) >> 1
    lo = max(diag)
    if lo <= 0:
        return _bisect(diag, off_sq, g_lo, g_hi, n, bits)
    hi = g_hi
    while hi - lo > max(1, lo >> r):
        mid = (lo + hi) >> 1
        if eigen_count_below(diag, off_sq, mid) >= n:
            hi = mid
        else:
            lo = mid
    return (lo + hi) >> 1


def _to_fixed(x, shift):
    """round(x * 2^shift) for an mpf ``x``, exactly (halves rounded up)."""
    sign, man, exp, _ = x._mpf_
    return _round_shift(-man if sign else man, exp + shift)


def bigfloat_extremes(ms: MomentSequence, n: int, bits: int, which=("min", "max")):
    """(lambda_min, lambda_max) of the truncation at the given precision.

    Only the extremes named in ``which`` are computed; the other is None.
    The moment block is taken at ``bits`` and handed to the fixed-point
    kernels (module docstring), and the extremes come back as mpf at
    ``bits``.
    """
    work = ms.with_backend(bigfloat(bits))
    frac_bits = graded_frac(bits + _BRACKET_BITS, n)
    with mpmath.workprec(bits):
        block = work.moments(2 * n - 1)
    e = max((m.exp + m.bc for m in block if m), default=0)
    fixed = [_to_fixed(m, frac_bits - e) for m in block]
    diag, off = householder_tridiagonalize(
        [fixed[k : k + n] for k in range(n)], n, frac_bits
    )
    with mpmath.workprec(bits):
        return tuple(
            mpmath.ldexp(extreme_eigenvalue(diag, off, end, bits), e - frac_bits)
            if end in which
            else None
            for end in ("min", "max")
        )


def _scaled_float(num, exp):
    """num * 2^exp for ints, correctly rounded to f64 (int true division
    rounds once, into the subnormals too); OverflowError above the range."""
    return num / (1 << -exp) if exp < 0 else float(num << exp)


@dataclass(frozen=True)
class GradedItem:
    """One size of a graded run: lambda_min and ||Y_M||_F = hs_norm_b, each
    with its relative bound (module docstring), and the rung of the run.
    lambda_min is None, with an infinite bound, where lambda^ is outside the
    normal f64 range."""

    lambda_min: float | None
    eps: float
    bits: int
    hs_norm_b: float
    hs_eps: float


def _graded_lambda_min(ms: MomentSequence, grid, tol=LAMBDA_MAX_TOL):
    """Graded lambda_min of every truncation size in ``grid``, from the rungs
    of :func:`~.orthopoly.graded_climb` at the largest size N, which holds
    the climb rule.

    Size M reads the leading blocks of the first rung whose prefix holds it
    (module docstring): theta_M from the running sum of ||X||_F^2 and
    lambda_min = 1/||Y_M||_2^2, the norm by LAPACK on the leading M x M
    block of the f64 rounding Y of X S^-1, rebuilt from the rung's rows.

    Returns one item per size: a :class:`GradedItem`, whose ``bits`` is the
    rung that gave it and whose hs_norm_b is ||Y_M||_F; a
    :class:`PrecisionError` where that weight is outside the normal f64
    range (lambda^ is then too); the error that ends the climb, a moment
    error or the :class:`PositivityError` of a block the climb proves not
    positive definite, for every size no rung holds; or None where the
    climb ends at the cap.  A rung's prefix ends at the first theta_M >=
    ``tol`` (at most 1): theta_M grows with M and eps >= theta_M, so every
    larger size declines at that rung, with no SVD.  A row of Y that
    overflows does not end it.  ``tol`` is a test seam: the profile keeps
    the default, the bound it accepts, and the tests pass 1 to read the
    value and bound of a size it declines at a rung.
    """
    top = max(grid)
    items = {}
    beyond = None  # what a size no rung holds gets
    try:
        for bits, rows in graded_climb(ms, top, tol, GRADED_BITS):
            frac = graded_frac(bits, top)
            y = np.zeros((top, top))
            scale = [row.scale for row in rows]
            row_norms = []  # ||row_j(Y)||_2 in f64
            for j, row in enumerate(rows):
                try:
                    y[j, : j + 1] = y_row = [_scaled_float(t * m, e - frac) for t, (m, e) in zip(row.x, scale)]
                except OverflowError:  # every weight from size j + 1 on is past 2^1024
                    y_row = [math.inf]
                row_norms.append(math.hypot(*y_row))
            for m in grid:
                if m <= len(rows) and m not in items:
                    theta = rows[m - 1].theta / (1 << (2 * frac + bits))
                    items[m] = _graded_item(y[:m, :m], row_norms[:m], theta, bits)
    except (PositivityError, BackendError, PrecisionError, MissingMomentError) as err:
        beyond = err
    return [items.get(m, beyond) for m in grid]


def _graded_item(y, row_norms, theta, bits):
    """The item of the leading block ``y`` of Y, whose rows have the norms
    ``row_norms``, at ``theta`` (module docstring)."""
    m = len(row_norms)
    hs = math.hypot(*row_norms)
    if not sys.float_info.min <= hs < math.inf:
        return PrecisionError(f"a weight of {hs} is outside the normal f64 range")
    hs_eps = (theta / 2 + 6 * 2.0**-53 + m * 2.0**-1074 / hs) / (1 - theta)
    sigma = float(np.linalg.norm(y, 2))
    try:
        lam = (1 / sigma) ** 2
    except OverflowError:  # a lambda_min past the f64 range
        lam = math.inf
    eps = (theta + 4 * (m + 1) * 2.0**-53 + m * 2.0**-1074 / sigma) / (1 - theta)
    if not sys.float_info.min <= lam < math.inf:
        lam, eps = None, math.inf
    return GradedItem(lam, eps, bits, hs, hs_eps)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileEntry:
    """One grid point of a :class:`SpectralProfile`.

    ``lambda_min`` is only ever the graded value, positive and certified;
    ``lambda_max`` only LAPACK's.  ``precision_bits`` names one path per
    entry: the rung of the graded run that certified lambda_min (128,
    ``GRADED_BITS``, or a climb to 256, 512, ...), else 53 when lambda_max
    is certified, else the rung of the graded run behind ``hs_norm_b``;
    None means the exact factor of a rational sequence gave ``hs_norm_b``,
    or no path gave a value.

    An entry that asks for lambda_min or hs_norm_b at a size the graded run
    proves not positive definite reports ``error:PositivityError``, and one
    that asks for hs_norm_b where the weight is outside the normal f64 range
    ``error:PrecisionError``; one that asks for an extreme or the weight and
    gets no value is ``lambda-min-unresolved``.

    ``hs_norm_b`` of an f64 or big-float sequence is ||Y_M||_F of the graded
    run, at the rung that certified it (the rung lambda_min reports when
    both are asked for), wherever its bound is at most ``LAMBDA_MAX_TOL``,
    and nothing else.  That of a rational sequence is its exact weight,
    read off one exact factor: that of the largest size up to
    ``ESCALATE_MAX_N`` whose own factor succeeds.  Every size above it
    reports the error of its own factor (a :class:`PositivityError` past
    the exact positive-definite limit), and every one below it reads its
    leading block (module docstring).
    """

    n: int
    lambda_min: float | None
    lambda_max: float | None
    hs_norm_b: float | None
    trace_partial: float | None
    precision_bits: int | None
    status: str  # "ok" | "lambda-min-unresolved" | "error:<...>"


class SpectralInvariantError(HankelError):
    """A computed result broke an invariant that holds by construction.

    Raised when reliable extremes violate interlacing beyond tolerance and
    when an exact xi vector fails its defining identity.
    """


@dataclass(frozen=True)
class SpectralProfile:
    family: str
    backend: str  # the tag
    entries: list
    quantities: tuple

    def reliable(self, name: str):
        """(n, value) pairs of the entries with a value and without an error
        status: an entry unresolved for its lambda_max alone keeps its
        certified lambda_min."""
        return [
            (e.n, getattr(e, name))
            for e in self.entries
            if getattr(e, name) is not None and not e.status.startswith("error")
        ]


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
    quantities: tuple = ("lambda_min", "lambda_max", "hs_norm_b", "trace_partial"),
) -> SpectralProfile:
    """Extreme-eigenvalue (and related) profile over a truncation grid.

    Each extreme follows one rule, whatever else the entry asks for.
    lambda_min is the graded value of the scaled fixed-point Cholesky when
    its relative bound (module docstring) is at most ``LAMBDA_MAX_TOL`` =
    1e-12 at 128 bits or at a rung the graded run climbs to, and nothing
    else: a size the graded run proves not positive definite reports its
    :class:`PositivityError`.  lambda_max comes from one LAPACK ``eigvalsh``
    of the scaled f64 truncation, where its relative bound eps = (4 N u
    ||H||_F + N^2 2^-1074) / lambda (u = 2^-53) is at most
    ``LAMBDA_MAX_TOL`` (:func:`_certified_lambda_max`).  An entry that asks
    for an extreme or the weight it cannot certify is marked unresolved
    rather than silently degraded.  Above ``ESCALATE_MAX_N`` there is no
    graded run and no exact factor, so lambda_min and hs_norm_b get no
    value there.  The graded run, behind lambda_min and the hs_norm_b of a
    sequence that is not rational, nests, so it runs once per grid, at its
    largest size, and every entry reads its leading block (module
    docstring); so does the exact factor behind the hs_norm_b of a rational
    sequence (:func:`_hs_norms`).  A size the graded run proves not
    positive definite takes its error for hs_norm_b too.  Interlacing of
    the reliable extremes is enforced as a postcondition.
    """
    n_grid = sorted(set(int(n) for n in n_grid))
    if not n_grid or n_grid[0] < 1:
        raise ValueError("n_grid must contain positive sizes")
    # the quantities that nest are computed once per grid; each entry then
    # takes its own item
    graded, hs = {}, {}
    eligible = [n for n in n_grid if n <= ESCALATE_MAX_N]
    graded_hs = "hs_norm_b" in quantities and ms.backend.kind != RATIONAL
    if eligible and ("lambda_min" in quantities or graded_hs):
        graded = dict(zip(eligible, _graded_lambda_min(ms, eligible)))
    if graded_hs:
        for n, item in graded.items():
            if isinstance(item, Exception):
                hs[n] = item
            elif item is not None and item.hs_eps <= LAMBDA_MAX_TOL:
                hs[n] = item.hs_norm_b, item.bits
    elif "hs_norm_b" in quantities:
        hs = _hs_norms(ms, eligible)
    # an entry reports no lambda_min it did not ask for
    min_items = graded if "lambda_min" in quantities else {}
    entries = [
        _profile_entry(ms, n, quantities, min_items.get(n), hs.get(n)) for n in n_grid
    ]
    profile = SpectralProfile(
        family=ms.family.name,
        backend=ms.backend.tag(),
        entries=entries,
        quantities=tuple(quantities),
    )
    _check_interlacing(profile)
    return profile


def _eigvalsh_error(h64: np.ndarray) -> float:
    """4 N u ||H||_F + N^2 2^-1074: how far any f64 eigenvalue of the scaled
    truncation ``h64`` can lie from the exact one (module docstring)."""
    n = len(h64)
    return 4 * n * 2.0**-53 * float(np.linalg.norm(h64)) + n * n * 2.0**-1074


def _scaled_truncation(ms, n):
    """(H, e): the N x N truncation times 2^-e, rounded to f64, as a
    sliding-window view of one array of 2N - 1 moments, where 2^e <= max
    |m_j| < 2^(e+1) (e = 0 for a zero block).

    The moments are read at the sequence's own precision, or at
    ``GRADED_BITS`` where the family refuses them there: no rational value,
    or a moment that overflows f64.  A big-float block rounds each scaled
    moment once.  An f64 block (a rational one is rounded entrywise first)
    is only scaled down, e >= 0, exactly but for entries that underflow.
    """
    if ms.backend.kind != BIGFLOAT:
        try:
            block = ms.float_array(2 * n - 1)
        except (PrecisionError, BackendError):
            block = None
        if block is not None and np.all(np.isfinite(block)):
            # only scaled down: an entry that underflowed in its own
            # rounding stays within 2^-1075 at the scale of the bound
            e = max(math.frexp(float(np.max(np.abs(block))))[1] - 1, 0)
            return sliding_window_view(np.ldexp(block, -e), n), e
        ms = ms.with_backend(bigfloat(GRADED_BITS))
    with mpmath.workprec(ms.backend.precision):
        block = [m._mpf_ for m in ms.moments(2 * n - 1)]
    e = max((exp + bc - 1 for _, man, exp, bc in block if man), default=0)
    block = [_scaled_float(-man if sign else man, exp - e) for sign, man, exp, _ in block]
    return sliding_window_view(np.array(block), n), e


def _certified_lambda_max(ms, n):
    """lambda_max: the largest eigenvalue of one LAPACK ``eigvalsh`` of the
    scaled f64 truncation (:func:`_scaled_truncation`), where
    :func:`_eigvalsh_error` is at most ``LAMBDA_MAX_TOL`` times its size and
    its value lambda 2^e is a normal f64 number, else None.  A missing
    moment of explicit data propagates."""
    h64, e = _scaled_truncation(ms, n)
    lam = float(np.linalg.eigvalsh(h64)[-1])
    if _eigvalsh_error(h64) <= LAMBDA_MAX_TOL * abs(lam) and (
        sys.float_info.min_exp <= math.frexp(lam)[1] + e <= sys.float_info.max_exp
    ):
        return math.ldexp(lam, e)
    return None


def _hs_norms(ms, grid):
    """{n: (hs_norm_b, None) or the error of its factor} over ``grid``, for
    a rational sequence ``ms``.

    Its :func:`~.orthopoly.factor` is exact (no precision bits): a size
    past the exact positive-definite limit
    reports its :class:`PositivityError`, and a family without rational
    moments a :class:`BackendError`.  Walks the grid from the largest size
    down and factors only a size that no successful factor covers yet;
    every other size reads its running sum of
    :meth:`~.orthopoly.TriangularPair.hs_norm_sq_b` off the covering
    factor.  A size whose own factor fails keeps that error, and the next
    smaller size tries its own factor.  The weight is the root of the exact
    sum, rounded once (:func:`_sqrt_to_float`); one outside the normal f64
    range reports a :class:`PrecisionError`.
    """
    out = {}
    sums = None
    for n in reversed(grid):
        if sums is None:
            try:
                sums = factor(ms, n).hs_norm_sq_b()
            except (*_ENTRY_ERRORS, MissingMomentError) as err:
                out[n] = err
                continue
        try:
            out[n] = _sqrt_to_float(sums[n - 1]), None
        except PrecisionError as err:
            out[n] = err
    return out


def _sqrt_to_float(q: Fraction) -> float:
    """sqrt(q) of an exact q >= 0, rounded to f64 with no square in between:
    q is scaled by 4^-k into [1/2, 4), so wherever q is a normal f64 number
    the result has the bytes of ``math.sqrt(float(q))``.  A root outside the
    normal f64 range raises PrecisionError."""
    k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    root = math.sqrt(to_float(q / Fraction(4) ** k))
    exp = math.frexp(root)[1] + k
    if not sys.float_info.min_exp <= exp <= sys.float_info.max_exp:
        raise PrecisionError(f"a weight of about 2^{exp} is outside the normal f64 range")
    return math.ldexp(root, k)


def _read(item):
    """A grid item for one entry, raising the error it holds: a moment
    error or a :class:`PositivityError` of the graded run, or the error of
    an exact factor.

    The entry raises it where a single-size run would: the entry reports
    an ``_ENTRY_ERRORS`` error as its status, and a missing moment of short
    explicit data leaves the profile at the same entry, with the same
    index, as a run at that size alone.
    """
    if isinstance(item, Exception):
        raise item
    return item


def _profile_entry(ms, n, quantities, graded_item, hs_item) -> ProfileEntry:
    """One grid point; ``graded_item`` is its item from
    :func:`_graded_lambda_min` when the entry asks for lambda_min, and
    ``hs_item`` its (hs_norm_b, bits) from the graded run or, for a rational
    sequence, :func:`_hs_norms`, or the error of the graded run or of its
    factor (None where no value was certified or no grid function ran for
    it).  lambda_max, the certified ``eigvalsh`` value
    (:func:`_certified_lambda_max`), is read first, so an entry whose
    graded item is an error keeps it; lambda_min is the graded value where
    its bound holds, else None.  An extreme or the weight asked for and
    missing leaves the entry unresolved."""
    lam_min = lam_max = hs = trace = None
    bits_used = None
    status = "ok"

    try:
        if "trace_partial" in quantities:
            try:
                trace = to_float(partial_trace(ms, n))
            except (OverflowError, PrecisionError):
                trace = float("inf")

        if "lambda_max" in quantities:
            lam_max = _certified_lambda_max(ms, n)
            if lam_max is not None:
                bits_used = 53
        # a weight outside the f64 range puts lambda^ outside it too: declined
        graded = None if isinstance(graded_item, PrecisionError) else _read(graded_item)
        if graded is not None and graded.eps <= LAMBDA_MAX_TOL:
            lam_min, bits_used = graded.lambda_min, graded.bits

        hs_item = _read(hs_item)
        if hs_item is not None:
            hs, hs_bits = hs_item
            if bits_used is None:
                bits_used = hs_bits
        asked = {"lambda_min": lam_min, "lambda_max": lam_max, "hs_norm_b": hs}
        if any(asked[q] is None for q in asked if q in quantities):
            status = "lambda-min-unresolved"
    except _ENTRY_ERRORS as err:
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
    heuristic: bool = field(default=True, init=False)


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


def _xi_and_image(tp: TriangularPair, t):
    """xi(t) and its image D U xi(t), each computed once.

    With the monic values pi(t) = (U^{-1})^t (t^j)_j, xi = U^{-1} D^{-1}
    pi(t): the two inverse square roots of B cancel, so xi is exact for
    rational pairs.  The image must reproduce pi(t) (the identity C xi = p
    in square-root-free form); rational pairs check that exactly.  A
    symmetric pair's products skip the entries of U^-1 and U that vanish by
    parity.

    An exact pair works on its integer forms
    (:attr:`~.orthopoly.TriangularPair.integer_forms`): with column k of
    U^-1 = C_k / c_k and Q_k / B = pi_k(t) / (d_k c_k) over one lcm B, xi =
    X / B for the ints X = sum_k Q_k C_k, and with row k of U = S_k / S_k[k],
    image_k = d_k (sum_l S_k[l] X_l) / (S_k[k] B), one Fraction per entry.
    Float pairs sum each entry in order (:func:`.backends.dot`).
    """
    if abs(to_float(t)) >= 1:
        warnings.warn(
            "xi(t) is requested for |t| >= 1; finite truncations still "
            "compute, but the geometric tail has no l2 meaning",
            stacklevel=3,
        )
    backend = tp.backend
    step = 2 if tp.symmetric else 1  # skip the parity zeros of U and U^-1
    y = tp.monic_values(t)
    if tp.integer_forms is not None:
        xi, image = _exact_xi_and_image(tp, y, step)
    else:
        with backend.context():
            z = [y[k] / tp.pivots[k] for k in range(tp.n)]
            xi = [dot(tp.unit_upper_inv[i][i::step], z[i::step]) for i in range(tp.n)]
            image = [dot(tp.unit_upper[k][k::step], xi[k::step]) * tp.pivots[k]
                     for k in range(tp.n)]
    if backend.kind == RATIONAL and image != y:
        raise SpectralInvariantError("xi construction violated its defining identity")
    return xi, image


def _exact_xi_and_image(tp, y, step):
    """xi and its image of the exact pair ``tp`` from the monic values
    ``y`` (:func:`_xi_and_image`)."""
    rows, columns = tp.integer_forms
    q, b = integer_form([v / (d * col[k])
                         for k, (v, d, col) in enumerate(zip(y, tp.pivots, columns))])
    # X_i = sum_{k >= i} Q_k C_k[i]: row i of the integer U^-1 times Q
    x = [sum(map(operator.mul, row[i::step], q[i::step]))
         for i, row in enumerate(zip(*columns))]
    xi = [Fraction(v, b) for v in x]
    image = []
    for k, (row, d) in enumerate(zip(rows, tp.pivots)):
        total = sum(map(operator.mul, row[k::step], x[k::step]))
        image.append(Fraction(d.numerator * total, d.denominator * row[k] * b))
    return xi, image


def xi_vector(tp: TriangularPair, t) -> XiVector:
    """xi(t) = B_N (P_k(t))_k, the inverse-factor image of the value vector.

    Exact for rational pairs (see :func:`_xi_and_image`).  The companion
    value vector p keeps the numeric view.
    """
    xi, _ = _xi_and_image(tp, t)
    return XiVector(t=t, n=tp.n, xi=xi, p=eval_polys(tp, t))


@dataclass(frozen=True)
class ResidualReport:
    residuals: list
    sup: float
    l2: float
    exact_zero: bool


def h_xi_identity(tp: TriangularPair, t) -> ResidualReport:
    """Residual of the finite identity (C^t C) xi(t) = (t^n)_{n<N}.

    In exact arithmetic the residual vanishes because the factor columns
    reassemble the monomials from the orthonormal values.  Float pairs report
    the roundoff left by the ill-conditioned reconstruction.  An exact pair
    forms residual_i = (sum_k S_k[i] W_k) / E - t^i on its integer rows,
    with W_k / E = image_k / S_k[k] over one lcm E, one Fraction per entry.
    """
    backend = tp.backend
    step = 2 if tp.symmetric else 1  # U[j][i] vanishes by parity where i + j is odd
    _, image = _xi_and_image(tp, t)
    with backend.context():
        tv = backend.convert(t)
        # r = U^t (D U xi) - tau
        if tp.integer_forms is not None:
            residuals = _exact_residuals(tp.integer_forms[0], image, tv, step)
        else:
            residuals = []
            power = backend.one()
            for i, column in enumerate(zip(*tp.unit_upper)):
                part = slice(i % step, i + 1, step)
                residuals.append(dot(column[part], image[part]) - power)
                power = power * tv
        return ResidualReport(
            residuals=residuals,
            sup=to_float(sup_norm(residuals)),
            l2=math.sqrt(to_float(dot(residuals, residuals))),
            exact_zero=backend.kind == RATIONAL and all(r == 0 for r in residuals),
        )


def _exact_residuals(rows, image, t, step):
    """U^t image - (t^i)_i on the integer rows of U (:func:`h_xi_identity`)."""
    w, e = integer_form([v / row[k] for k, (v, row) in enumerate(zip(image, rows))])
    residuals = []
    num, den = 1, 1  # t^i = num / den, in lowest terms
    for i, column in enumerate(zip(*rows)):
        part = slice(i % step, i + 1, step)
        total = sum(map(operator.mul, column[part], w[part]))
        residuals.append(Fraction(total * den - num * e, e * den))
        num, den = num * t.numerator, den * t.denominator
    return residuals
