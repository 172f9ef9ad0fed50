"""The trimmed block norm, its proximal operator, and directional slopes.

A block vector is an ``(m, p)`` array: one p-dimensional block per graph
edge.  Writing ``nu_1 >= nu_2 >= ...`` for the sorted block norms, the
trimmed norm of order K is

    trimmed_norm(z, K) = nu_{K+1} + ... + nu_m,

the sum of the m - K smallest block norms.  It vanishes exactly when at
most K blocks are nonzero, which is what makes it a penalty surrogate
for a cardinality constraint on unmerged edges.  K = 0 recovers the
plain sum of block norms; K >= m gives the zero function.

Despite being non-convex, the penalty has an exact proximal operator:
keep the K largest blocks untouched and group-soft-threshold the rest
(:func:`prox_trimmed`).  Ties in the selection are broken toward the
lowest block index so results are deterministic; at a tie the operator
is set-valued and any choice attains the same objective.

:func:`directional_derivative` evaluates the exact one-sided directional
derivative of the trimmed norm, including the combinatorial term arising
when several block norms tie at the K-th largest value.

:func:`row_norms` is the block-norm kernel every module uses: the
values of ``np.linalg.norm(a, axis=-1)``, bit for bit, at a fraction of
its cost on narrow blocks.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "row_norms",
    "trimmed_norm",
    "prox_trimmed",
    "group_shrink",
    "phi_envelope",
    "directional_derivative",
]


def _as_blocks(z, name):
    """``z`` as a float64 (m, p) array, a 1-D array read as one column;
    any other rank is a ValueError that names the argument ``name``.

    The one reading of a point or block array in the package."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return z[:, None]
    if z.ndim != 2:
        raise ValueError(f"{name} must be a 1-D or 2-D array")
    return z


def row_norms(a):
    """Euclidean norm along the last axis of ``a``, as float64.

    Equal bit for bit to ``np.linalg.norm(a, axis=-1)``, and about five
    times faster on (m, 2) blocks.  numpy reduces a row of fewer than 8
    squares in order, left to right, which is what the column-by-column
    sum below does without numpy's generic reduction machinery.  From 8
    entries on numpy sums pairwise, so wide rows (and empty ones) go to
    numpy itself.
    """
    a = np.asarray(a, dtype=np.float64)
    p = a.shape[-1]
    if not 0 < p < 8:
        return np.linalg.norm(a, axis=-1)
    s = a[..., 0] * a[..., 0]
    for k in range(1, p):
        c = a[..., k]
        s += c * c
    return np.sqrt(s)


def _is_int(value):
    """An integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_k(K, m):
    if not _is_int(K) or K < 0:
        raise ValueError("K must be a non-negative integer")
    return min(int(K), m)


def _keep_mask(norms, K):
    """Boolean mask of the K largest of ``norms``, ties at the K-th
    largest going to the lowest indices; K must lie in 0..m.

    The one selection rule of the trimmed norm: :func:`prox_trimmed`
    leaves these blocks unpenalized and
    :func:`netlasso.solver.stationarity_check` penalizes the rest."""
    m = len(norms)
    if not K:
        return np.zeros(m, dtype=bool)
    kth = np.partition(norms, m - K)[m - K]  # K-th largest norm
    keep = norms > kth
    keep[np.flatnonzero(norms == kth)[:K - keep.sum()]] = True
    return keep


def trimmed_norm(z, K):
    """Sum of the m - K smallest block norms of ``z``.

    K beyond the number of blocks is treated as m, giving 0.
    """
    z = _as_blocks(z, "z")
    m = len(z)
    K = _check_k(K, m)
    norms = row_norms(z)
    if K == 0:
        return float(norms.sum())
    if K >= m:
        return 0.0
    return float(np.sort(norms)[: m - K].sum())


def _shrink_factors(norms, lam):
    """(1 - lam_e / norms_e)_+ per row; ``lam`` a scalar or per row.

    Rows with ``norms_e > lam_e`` get ``1 - lam_e / norms_e``, every
    other row (NaN norms included) +0.0.  The quotient is taken on every
    row and discarded where the row is not shrunk: plain ufuncs and one
    ``np.where`` beat masked ufuncs several times over, and the divide
    and invalid warnings of the discarded rows are silenced."""
    big = norms > lam
    with np.errstate(all="ignore"):
        q = np.divide(lam, norms)
        np.subtract(1.0, q, out=q)
    return np.where(big, q, 0.0)


def _scale_rows(a, scale, op=np.multiply, out=None):
    """``op(a, scale[:, None], out=out)``: each row a_e combined with
    scale_e.

    One column at a time, which for p >= 2 is twice as fast as the
    (m, 1) x (m, p) broadcast and gives the same bits in the same
    memory order."""
    if a.shape[1] == 1:
        return op(a, scale[:, None], out=out)
    if out is None:
        out = np.empty_like(a)
    for k in range(a.shape[1]):
        op(a[:, k], scale, out=out[:, k])
    return out


def group_shrink(a, lam):
    """Group soft threshold of each row a_e of ``a`` by ``lam``, a
    scalar or one level per row: (1 - lam_e / ||a_e||)_+ a_e."""
    return _scale_rows(a, _shrink_factors(row_norms(a), lam))


def phi_envelope(t, lam):
    """Scalar value function min_s [lam * s + 0.5 (s - t)^2] for s >= 0.

    Equals ``t^2 / 2`` for ``t <= lam`` and ``lam t - lam^2 / 2`` beyond;
    it is non-decreasing on t >= 0, which is what justifies trimming the
    K largest blocks in :func:`prox_trimmed`.
    """
    t = np.asarray(t, dtype=np.float64)
    if lam < 0:
        raise ValueError("lam must be non-negative")
    out = np.where(t <= lam, 0.5 * t * t, lam * t - 0.5 * lam * lam)
    if out.ndim == 0:
        return float(out)
    return out


def prox_trimmed(a, K, lam):
    """Exact proximal operator of ``lam * trimmed_norm(., K)`` at ``a``.

    Minimizes ``lam * trimmed_norm(z, K) + 0.5 ||z - a||^2`` over block
    vectors z.  The K blocks of largest norm (ties broken toward the
    lowest index) are copied unchanged; every other block is
    group-soft-thresholded with level ``lam``.

    Parameters
    ----------
    a : array_like, shape (m, p)
    K : int
        Number of unpenalized blocks; values above m act like m.
    lam : float
        Non-negative threshold (gamma / rho inside the solver).

    Returns
    -------
    z : ndarray, shape (m, p)
    keep : ndarray of bool, shape (m,)
        True on the blocks left unchanged.
    """
    a = _as_blocks(a, "a")
    m = len(a)
    K = _check_k(K, m)
    if lam < 0:
        raise ValueError("lam must be non-negative")
    norms = row_norms(a)
    keep = _keep_mask(norms, K)
    # one pass over all rows: kept rows times 1.0 are copied exactly
    scale = _shrink_factors(norms, lam)
    np.putmask(scale, keep, 1.0)
    return _scale_rows(a, scale), keep


def directional_derivative(z, v, K, tie_tol=0.0):
    """One-sided directional derivative of ``trimmed_norm(., K)`` at z.

    The derivative sums the block slopes over every block whose norm is
    strictly below the K-th largest norm, then resolves ties at that
    threshold by picking the remaining required number of blocks with
    the smallest slopes.  With K = 0 the threshold is infinite and the
    result is the full sum of slopes.

    Parameters
    ----------
    z, v : array_like, shape (m, p)
        Base point and direction.
    K : int
    tie_tol : float
        Absolute tolerance used to group norms with the K-th largest;
        the default 0 compares exactly.

    Returns
    -------
    float
        lim_{t -> 0+} [trimmed_norm(z + t v, K) - trimmed_norm(z, K)] / t.
    """
    z = _as_blocks(z, "z")
    v = _as_blocks(v, "v")
    if z.shape != v.shape:
        raise ValueError("z and v must have the same shape")
    m = len(z)
    K = _check_k(K, m)
    if K >= m:
        return 0.0
    # delta(z_k, v_k)^T v_k, with delta z/||z|| when z != 0, v/||v|| when
    # z = 0 != v, and 0 when both vanish
    norms, vnorms = row_norms(z), row_norms(v)
    nz = norms > 0
    s = np.zeros(m)
    s[nz] = np.einsum("ij,ij->i", z[nz], v[nz]) / norms[nz]
    both = (~nz) & (vnorms > 0)
    s[both] = vnorms[both]
    if K == 0:
        return float(s.sum())
    kth = np.sort(norms)[m - K]  # K-th largest block norm
    below = norms < kth - tie_tol
    at = np.abs(norms - kth) <= tie_tol
    need = m - K - int(below.sum())
    total = float(s[below].sum())
    if need > 0:
        total += float(np.sort(s[at])[:need].sum())
    return total
