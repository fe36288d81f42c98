"""Square-root-free triangular factorization of Hankel truncations.

The N x N Hankel truncation ``H = (m_{k+l})`` of a positive definite moment
sequence is decomposed as ``H = U^t D U`` with ``U`` unit upper triangular
and ``D`` a positive diagonal, which realizes the Cholesky factor ``C =
D^{1/2} U`` without ever forming square roots.  :func:`ldl_decompose` sees
exact data only: the rational truncations of :func:`~.orthopoly.factor` and
the exact blocks of :meth:`~.moments.MomentFamily.positive_definite_limit`;
a float factor reads ``U`` and ``D`` off the graded Cholesky instead
(:mod:`.orthopoly`).  :func:`invert_unit_upper` gives ``U^{-1}`` of both,
on ints for exact ``alpha`` and ``beta`` and entry-wise for mpmath ones.

The factorization uses the Hankel structure through the Chebyshev algorithm
(Gautschi, *Orthogonal Polynomials: Computation and Approximation*, 2004,
§2.1.7), in O(N^2) operations instead of the O(N^3) of dense elimination.
With the monic orthogonal polynomials ``pi_k`` of the moment functional, the
mixed moments ``sigma_{k,l} = <pi_k, x^l>`` satisfy

    sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l} - beta_{k-1} sigma_{k-2,l},

starting from ``sigma_{0,l} = m_l``.  They are the rows of ``D U``:
``d_k = sigma_{k,k}`` and ``U[k][l] = sigma_{k,l} / d_k``.  Column ``k`` of
``U^{-1}`` holds the coefficients of ``pi_k``, which follow from the
three-term recurrence ``pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1}``
with ``alpha_k = U[k][k+1] - U[k-1][k]`` and ``beta_k = d_k / d_{k-1}``.

Both recurrences step a whole row at a time on Python ints.  Row k of sigma
is kept as integer numerators ``S_k[l]`` over one row denominator ``L_k``
(column k of ``U^{-1}``, the coefficients of pi_k, the same way).  With
``alpha_{k-1} = p/q`` and ``beta_{k-1} = r/s`` the next row is

    S_k[l] = c1 S_{k-1}[l+1] - c2 S_{k-1}[l] - c3 S_{k-2}[l]
    over L_k = lcm(L_{k-1} q, L_{k-2} s),

where ``c1 = L_k / L_{k-1}``, ``c2 = p L_k / (L_{k-1} q)`` and ``c3 = r L_k
/ (L_{k-2} s)`` are three ints formed once per row (:func:`_row_step`).
The new row is reduced once, by the gcd of ``L_k`` and all its numerators,
and a Fraction is built only for an entry the caller gets back: ``d_k =
S_k[k] / L_k`` and ``U[k][l] = S_k[l] / S_k[k]``, where the row denominator
cancels, and each entry of ``U^{-1}`` from its column.  Fractions are
canonical, so each entry is the one the scalar recurrence gives.
:func:`ldl_decompose` also hands back the integer rows ``S_k[:n]`` and
:func:`invert_unit_upper` the integer columns ``C_k`` (entry k of each
being its scale), which the exact pair keeps for its readers
(:class:`~.orthopoly.TriangularPair`).

Both kinds of data take one column rule in :func:`invert_unit_upper`:
coefficient j of pi_{k+1} is pi_k[j-1] - alpha_k pi_k[j] - beta_k
pi_{k-1}[j] for j in ``range((k + 1) % step, k + 1, step)`` (``step`` 2 on
a symmetric block, below), pi_{k+1}[k+1] = 1 being the diagonal, with zero
for pi_k[-1] and for pi_{-1}.  Exact data step the whole column on ints as
above; the mpmath ``alpha`` and ``beta`` of a float factor step it entry by
entry through :func:`.backends.three_term`, as written.  The zero
neighbours cost no rounding: in mpmath, whose zero carries no sign, ``0 -
a x`` rounds as ``-a x`` and ``x - a 1 - b 0`` as ``x - a``, ``a`` being
at the working precision.

``alpha_k`` and ``beta_k`` are formed once, in :func:`ldl_decompose`, as the
Chebyshev algorithm needs them (a float factor forms them from its ``U`` and
``D`` the same way): it returns them with ``U`` and ``D``, and
:func:`invert_unit_upper` and the pair's monic recurrence
(:class:`~.orthopoly.TriangularPair`) read them from there.

A symmetric functional, one whose odd moments all vanish, has alpha_k = 0,
and pi_k has the parity of k (Chihara, *An Introduction to Orthogonal
Polynomials*, 1978, sec. I.4): sigma_{k,l}, U[k][l] and U^{-1}[k][l] are
zero wherever k + l is odd.  :func:`parity_holds` reads that off the moment
block, and with ``symmetric=True`` both routines step by 2 over the
surviving half, leaving the zeros as they were allocated.  Every surviving
entry is the same operation on the same operands as in the full loops (a
skipped zero leaves the gcd of an integer row unchanged), so the results
are the same bit for bit where a computed zero carries no sign:
on Fractions, and on the mpmath floats of a float factor, the only data
:func:`~.orthopoly.factor` hands these loops.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .backends import HankelError, integer_form, is_exact, three_term


class PositivityError(HankelError):
    """A leading principal block is not positive definite.

    ``dimension`` is the first failing leading dimension (1-based).  Exact
    data prove it: the rational LDL here, or the family's exact limit
    (:meth:`~.moments.MomentFamily.positive_definite_limit`) that a float
    factor and the graded run read before they report it.
    """

    def __init__(self, dimension: int, message: str):
        super().__init__(message)
        self.dimension = dimension


def monic_alpha(unit_upper, k):
    """alpha_k = U[k][k+1] - U[k-1][k] of the monic recurrence (needs k + 1 < N)."""
    if k == 0:
        return unit_upper[0][1]
    return unit_upper[k][k + 1] - unit_upper[k - 1][k]


def parity_holds(moments, n) -> bool:
    """Whether m_1, m_3, ..., m_{2n-3} are all exactly zero, so that the
    N x N truncation is that of a symmetric functional (module docstring)."""
    return all(m == 0 for m in moments[1 : 2 * n - 2 : 2])


def _row_step(lead, row, den, older, older_den, a, b, span):
    """The integer row step (module docstring): entries ``l`` in ``span`` of
    lead - a row - b older, for ints ``lead`` and ``row`` over ``den``,
    ``older`` over ``older_den`` and exact ``a`` and ``b``, as ``(entries,
    den')``, reduced by their gcd with den'."""
    p = den * a.denominator
    q = older_den * b.denominator
    new = lcm(p, q)
    c1, c2, c3 = new // den, a.numerator * (new // p), b.numerator * (new // q)
    if c2:
        entries = [c1 * lead[l] - c2 * row[l] - c3 * older[l] for l in span]
    else:  # a = 0, as on every row of a symmetric block
        entries = [c1 * lead[l] - c3 * older[l] for l in span]
    g = gcd(new, *entries)
    if g == 1:
        return entries, new
    return [x // g for x in entries], new // g


def ldl_decompose(moments, n, zero, *, symmetric=False):
    """Return ``(unit_upper, pivots, alpha, beta, rows)`` with ``H = U^t
    diag(pivots) U``.

    ``moments`` holds exact ``m_0 .. m_{2n-2}`` (Fractions or ints), the
    entries of the N x N Hankel truncation ``H``; ``zero`` is the Fraction
    0 the skipped entries of ``U`` hold.  Runs the Chebyshev algorithm
    (module docstring) on integer rows in O(N^2) row operations, and returns
    the monic recurrence it forms on the way: ``alpha = (alpha_0, ...,
    alpha_{n-2})`` and ``beta = (beta_1, ..., beta_{n-1})``, Fractions.
    ``symmetric`` (:func:`parity_holds`) skips the entries with k + l odd.
    ``rows`` holds the integer rows: list k is ``S_k[l]`` for l < n, so
    that ``U[k][l] = S_k[l] / S_k[k]``.  Raises
    :class:`PositivityError` at the first nonpositive pivot ``sigma_{k,k}``,
    with ``dimension = k + 1``.
    """
    step = 2 if symmetric else 1
    width = 2 * n - 1
    unit_upper = [[zero] * n for _ in range(n)]
    pivots, alpha, beta, rows = [], [], [], []
    # sigma_{k, l} = row[l] / den, valid for k <= l <= 2n-2-k; sigma_{-1, .} = 0
    row, den = integer_form(moments[:width])
    older, older_den = [0] * width, 1
    for k in range(n):
        if k:
            b = beta[k - 2] if k > 1 else 0
            entries, new_den = _row_step(row[1:], row, den, older, older_den, alpha[k - 1], b,
                                         range(k, width - k, step))
            nxt = [0] * width
            nxt[k : width - k : step] = entries
            older, older_den, row, den = row, den, nxt, new_den
        top = row[k]
        d = Fraction(top, den)
        if not top > 0:
            raise PositivityError(
                k + 1,
                f"leading {k + 1}x{k + 1} block is not positive definite "
                f"(pivot {d!r})",
            )
        if k:
            beta.append(d / pivots[k - 1])
        pivots.append(d)
        upper = unit_upper[k]
        upper[k] = zero + 1
        upper[k + step : n : step] = [Fraction(x, top) for x in row[k + step : n : step]]
        rows.append(row[:n])
        if k + 1 < n:
            alpha.append(monic_alpha(unit_upper, k))
    return unit_upper, pivots, alpha, beta, rows


def ldl_positive_definite_limit(moments, n, zero) -> int:
    """Largest ``M <= n`` whose leading ``MxM`` Hankel block is positive definite.

    ``moments`` holds exact ``m_0 .. m_{2n-2}`` (Fractions, as
    :meth:`~.moments.MomentFamily.positive_definite_limit` passes them, so
    no float rounding can end the walk); ``M`` is the first index with
    ``sigma_{M,M} <= 0`` in :func:`ldl_decompose` (``n`` if there is none).
    """
    try:
        ldl_decompose(moments, n, zero, symmetric=parity_holds(moments, n))
    except PositivityError as err:
        return err.dimension - 1
    return n


def invert_unit_upper(alpha, beta, n, zero, *, symmetric=False):
    """``(inv, columns)``: the inverse of the unit upper factor of
    :func:`ldl_decompose`, in O(N^2), and its integer columns.

    Column ``k`` of ``U^{-1}`` holds the monomial coefficients of the monic
    orthogonal polynomial ``pi_k``; columns are built by the three-term
    recurrence from ``alpha[k] = alpha_k`` and ``beta[k - 1] = beta_k``, as
    :func:`ldl_decompose` returns them, by the one column rule of the module
    docstring.  ``symmetric`` skips the entries with j + k odd.  Exact
    ``alpha`` and ``beta`` (Fractions or ints) step each column on ints and
    give Fractions; others (mpmath floats) step the same span entry by entry
    through :func:`.backends.three_term`, with ``zero`` for the neighbours
    past the ends of columns k and k - 1.  For exact data list k of
    ``columns`` is ``C_k[j]`` for j < n, so that ``U^{-1}[j][k] = C_k[j] /
    C_k[k]``; for other data ``columns`` is None.
    """
    inv = [[zero] * n for _ in range(n)]
    for k in range(n):
        inv[k][k] = zero + 1
    step = 2 if symmetric else 1
    if is_exact(alpha) and is_exact(beta):
        return inv, _invert_exact(inv, alpha, beta, n, step)
    for k in range(n - 1):
        a, b = alpha[k], beta[k - 1] if k else zero
        for j in range((k + 1) % step, k + 1, step):
            inv[j][k + 1] = three_term(inv[j - 1][k] if j else zero, a, inv[j][k], b,
                                       inv[j][k - 1] if k else zero)
    return inv, None


def _invert_exact(inv, alpha, beta, n, step):
    """Fill the columns 1 .. n-1 of ``inv`` from exact ``alpha`` and ``beta``,
    and return the integer columns.

    Column k is held as ints ``col[j] / den`` (entry k is ``den``, pi_k
    being monic), and column k + 1 is one :func:`_row_step` of it:
    coefficient j of pi_{k+1} is pi_k[j-1] - alpha_k pi_k[j] - beta_k
    pi_{k-1}[j].  Only the entries with j + k + 1 even are formed
    when ``step`` is 2.
    """
    older, older_den = [0] * n, 1  # pi_{-1} = 0
    col, den = [1] + [0] * (n - 1), 1  # pi_0 = 1
    columns = [col]
    for k in range(n - 1):
        span = range((k + 1) % step, k + 2, step)
        entries, new_den = _row_step([0] + col, col, den, older, older_den, alpha[k],
                                     beta[k - 1] if k else 0, span)
        nxt = [0] * n
        nxt[span.start : k + 2 : step] = entries
        older, older_den, col, den = col, den, nxt, new_den
        columns.append(col)
        for j in span[:-1]:
            inv[j][k + 1] = Fraction(col[j], den)
    return columns
