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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrimSelection",
    "trimmed_norm",
    "prox_trimmed",
    "prox_group_l2",
    "group_shrink",
    "phi_envelope",
    "directional_derivative",
]


def _as_blocks(z):
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2:
        raise ValueError("block vectors must be (m, p) arrays")
    return z


def _check_k(K, m):
    K = int(K)
    if K < 0:
        raise ValueError("K must be non-negative")
    return min(K, m)


@dataclass(frozen=True)
class TrimSelection:
    """Index split produced by :func:`prox_trimmed`.

    ``kept`` holds the (up to K) block indices left unpenalized, sorted
    ascending; ``trimmed`` holds the rest.
    """

    kept: np.ndarray
    trimmed: np.ndarray


def trimmed_norm(z, K):
    """Sum of the m - K smallest block norms of ``z``.

    K beyond the number of blocks is treated as m, giving 0.
    """
    z = _as_blocks(z)
    m = len(z)
    K = _check_k(K, m)
    norms = np.linalg.norm(z, axis=1)
    if K == 0:
        return float(norms.sum())
    if K >= m:
        return 0.0
    return float(np.sort(norms)[: m - K].sum())


def prox_group_l2(a, lam):
    """Proximal operator of ``lam * ||.||_2`` at block ``a``.

    Returns 0 when ``||a|| <= lam`` and the shrunk block
    ``(1 - lam / ||a||) a`` otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    if lam < 0:
        raise ValueError("lam must be non-negative")
    nrm = float(np.linalg.norm(a))
    if nrm <= lam:
        return np.zeros_like(a)
    return (1.0 - lam / nrm) * a


def group_shrink(a, lam):
    """Group soft threshold of each row a_e of ``a`` by ``lam``, a
    scalar or one level per row: (1 - lam_e / ||a_e||)_+ a_e."""
    norms = np.linalg.norm(a, axis=1)
    lam = np.asarray(lam)
    scale = np.zeros_like(norms)
    big = norms > lam
    scale[big] = 1.0 - (lam[big] if lam.ndim else lam) / norms[big]
    return scale[:, None] * a


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
    selection : TrimSelection
    """
    a = _as_blocks(a)
    m = len(a)
    K = _check_k(K, m)
    if lam < 0:
        raise ValueError("lam must be non-negative")
    norms = np.linalg.norm(a, axis=1)
    keep = np.zeros(m, dtype=bool)
    if K:
        kth = np.partition(norms, m - K)[m - K]  # K-th largest norm
        keep = norms > kth
        # ties at the K-th norm go to the lowest indices
        keep[np.flatnonzero(norms == kth)[:K - keep.sum()]] = True
    kept = np.flatnonzero(keep)
    trimmed = np.flatnonzero(~keep)
    z = a.copy()
    z[trimmed] = group_shrink(a[trimmed], lam)
    return z, TrimSelection(kept=kept, trimmed=trimmed)


def _block_slopes(z, v, norms):
    """Per-block slope delta(z_k, v_k)^T v_k used by the derivative.

    delta is z/||z|| when z != 0, v/||v|| when z = 0 != v, and 0 when
    both vanish.
    """
    vnorms = np.linalg.norm(v, axis=1)
    s = np.zeros(len(z))
    nz = norms > 0
    s[nz] = np.einsum("ij,ij->i", z[nz], v[nz]) / norms[nz]
    both = (~nz) & (vnorms > 0)
    s[both] = vnorms[both]
    return s


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
    z = _as_blocks(z)
    v = _as_blocks(v)
    if z.shape != v.shape:
        raise ValueError("z and v must have the same shape")
    m = len(z)
    K = _check_k(K, m)
    norms = np.linalg.norm(z, axis=1)
    slopes = _block_slopes(z, v, norms)
    if K == 0:
        return float(slopes.sum())
    if K >= m:
        return 0.0
    kth = np.sort(norms)[m - K]  # K-th largest block norm
    below = norms < kth - tie_tol
    at = np.abs(norms - kth) <= tie_tol
    need = m - K - int(below.sum())
    total = float(slopes[below].sum())
    if need > 0:
        tied = np.sort(slopes[at])
        total += float(tied[:need].sum())
    return total
