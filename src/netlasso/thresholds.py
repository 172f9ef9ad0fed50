"""Threshold calculators for cluster recovery and cardinality exactness.

Two families of guarantees are computable from a problem instance:

* a regularization interval for the convex solver such that, for any
  strength inside it, the solution's merge pattern equals a given target
  partition (or at least coarsens it non-trivially), and
* a strength above which the trimmed penalty acts as an exact penalty,
  i.e. the penalized solution already satisfies the cardinality
  constraint it relaxes.

Everything here is diagnostic arithmetic on the loss curvatures and the
weight structure; nothing solves an optimization problem except the
small per-cluster minimizations delegated to the losses module.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .datasets import _jsonify
from .losses import SquaredDistance, sum_loss_minimizer
from .path import Partition
from .penalty import _as_blocks, row_norms


def _anchors(points):
    """The anchor points of a SquaredDistance loss, or ``points`` read
    as an (n, p) array; another loss family is a TypeError."""
    if isinstance(points, SquaredDistance):
        return points.points
    if hasattr(points, "num_nodes"):
        raise TypeError("squared-distance losses required; got a "
                        "different loss family")
    return _as_blocks(points, "points")


def _ratio(num, den):
    """num / den elementwise; a positive numerator over a vanishing (or
    negative, i.e. premise-violating) denominator is "no finite bound",
    +inf, and a zero numerator over one is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.divide(num, den)
    return np.where(den > 0.0, q, np.where(num > 0.0, math.inf, 0.0))


def _norms(d):
    # one dot product per row: the kernel np.linalg.norm uses on a
    # single vector, so each value equals that norm bit for bit.  Not
    # penalty.row_norms: that one is the axis= reduction, whose sum of
    # squares rounds differently from the dot product on some rows
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


@dataclass
class RecoveryReport:
    """Everything the recovery interval is built from, plus the interval.

    ``members[k]`` lists the nodes of cluster k in ascending order, and
    :meth:`mu_matrix` indexes cluster k's pairs in that order.
    ``failing_pairs[k]`` counts the node pairs (a, b) of cluster k with
    n_k w_ab <= mu_ab, pairs with no edge included.
    ``gamma_min``/``gamma_max`` bound the strengths at which the convex
    solver reproduces the target partition exactly, provided
    ``premise_ok`` is true; ``coarsening_bound`` is the (possibly
    smaller) upper limit below which at least a non-trivial coarsening
    is guaranteed.
    """

    num_clusters: int
    members: list
    cluster_sizes: list
    cluster_minimizers: np.ndarray
    aggregate_curvatures: list
    smoothness: list
    node_cluster_weights: np.ndarray
    cross_weights: np.ndarray
    failing_pairs: list
    separated_ok: np.ndarray
    curvature_assumed: bool
    gamma_min: float
    gamma_max: float
    coarsening_bound: float

    @property
    def premise_ok(self):
        N = self.num_clusters
        off = ~np.eye(N, dtype=bool)
        return not any(self.failing_pairs) and \
            bool(self.separated_ok[off].all())

    def mu_matrix(self, k):
        """Cluster k's dense n_k x n_k matrix of mu_ab (zero diagonal),
        rebuilt on demand from the stored weights and constants."""
        mem = np.asarray(self.members[k])
        n_k = len(mem)
        a, b = np.divmod(np.arange(n_k * n_k), n_k)
        mu = _pair_mu(np.delete(self.node_cluster_weights[mem], k, axis=1),
                      a, b, np.asarray(self.smoothness)[mem],
                      np.asarray(self.aggregate_curvatures)[k],
                      _outgoing(self.cross_weights)[k]).reshape(n_k, n_k)
        np.fill_diagonal(mu, 0.0)
        return mu

    def to_json_dict(self):
        return _jsonify(dict(asdict(self), premise_ok=self.premise_ok))


def _clusters_from_labels(labels, n):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(
            f"expected one label per node ({n}), got shape {labels.shape}")
    N = Partition(labels).num_clusters  # non-empty, non-negative, dense
    return N, [np.flatnonzero(labels == k) for k in range(N)]


def _cluster_weights(graph, labels, N):
    """Symmetric weights W (CSR), node-to-cluster weights w_i^(k) (n, N),
    cluster-pair weights w^(k,k') (N, N) and each cluster's total weight
    to the other clusters."""
    n = graph.num_nodes
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    upper = sp.csr_matrix((graph.weights, (i, j)), shape=(n, n))
    W = (upper + upper.T).tocsr()
    M = sp.csr_matrix((np.ones(n), (np.arange(n), labels)), shape=(n, N))
    WM = W @ M
    cross = (M.T @ WM).toarray()
    return W, WM.toarray(), cross, _outgoing(cross)


def _outgoing(cross):
    """Each cluster's total weight to the other clusters."""
    return cross.sum(axis=1) - np.diag(cross)


def _pair_mu(nc, a, b, L, scale_k, out_k):
    """mu_ab for the node pairs (a[t], b[t]) of one cluster k, given as
    positions in its member list: the sum over the other clusters l (the
    columns of ``nc``) of |w_a^(l) - w_b^(l)|, plus
    (L_a + L_b) / scale_k * out_k when ``L`` is given."""
    mu = np.abs(nc[a] - nc[b]).sum(axis=1)
    if L is not None:
        mu += (L[a] + L[b]) / scale_k * out_k
    return mu


def _interval(W, node_cluster, cross_out, members, rows, centers, scale,
              smoothness=None):
    """Both ends of a recovery interval, and the terms they come from.

    gamma_min is the largest ratio, over node pairs (a, b) in a cluster
    k, of ||rows[k][a] - rows[k][b]|| to n_k w_ab - mu_ab, where mu_ab
    sums |w_a^(l) - w_b^(l)| over the other clusters l, plus
    (L_a + L_b) / scale_k * w_out_k if ``smoothness`` is given.
    gamma_max is the smallest ratio, over cluster pairs, of
    ||centers_k - centers_k'|| to w_out_k / scale_k + w_out_k' / scale_k'.
    Also returns each cluster's count of pairs with n_k w_ab <= mu_ab
    and the center distances of the cluster pairs in ``np.triu_indices``
    order.

    Ratios are computed only on the intra-cluster edges that ``W``
    stores, so memory is O(n + m).  A pair without an edge (or with a
    zero weight) has n_k * 0 - mu_ab <= 0, so it fails the premise and
    its ratio is +inf when its rows differ and 0 when they are equal:
    cluster k's end is +inf exactly when some pair without an edge has
    rows that differ.  Rows count as equal when every coordinate is, so
    two rows whose differences all lie below about 1e-154, where the
    squared distance underflows to 0, count as different, and so do
    rows holding NaN.
    """
    failing, ends = [], []
    for k, mem in enumerate(members):
        n_k, X = len(mem), rows[k]
        nc = np.delete(node_cluster[mem], k, axis=1)
        L = None if smoothness is None else smoothness[mem]
        edges = sp.triu(W[mem][:, mem], k=1).tocoo()
        a, b = edges.row, edges.col
        den = n_k * edges.data - _pair_mu(nc, a, b, L, scale[k],
                                          cross_out[k])
        missing = n_k * (n_k - 1) // 2 - len(a)
        failing.append(missing + len(a) - int(np.count_nonzero(den > 0.0)))
        counts = np.unique(X, axis=0, return_counts=True)[1]
        equal = int((counts * (counts - 1) // 2).sum())
        equal_missing = equal - int((X[a] == X[b]).all(axis=1).sum())
        if missing > equal_missing:
            ends.append(math.inf)
        else:
            ends.append(_ratio(_norms(X[a] - X[b]), den).max(initial=0.0))
    iu, ju = np.triu_indices(len(members), k=1)
    gaps = _norms(centers[iu] - centers[ju])
    out = cross_out / scale
    gamma_max = _ratio(gaps, out[iu] + out[ju]).min(initial=math.inf)
    gamma_min = np.max(ends, initial=0.0)
    return float(gamma_min), float(gamma_max), failing, gaps


def recovery_interval(losses, graph, labels, aggregate_curvature=None):
    """Strength interval under which the target partition is recovered.

    ``labels`` assigns every node a dense cluster id.  Each per-node
    loss must be strictly convex; aggregate curvatures default to the
    per-cluster sums of the node constants (exact for quadratics, since
    Hessians add).  Pass ``aggregate_curvature`` to assert the constants
    yourself, e.g. for custom losses whose declared per-node constant is
    zero or loose; the report then has ``curvature_assumed`` set.

    Premise failures (a too-weak intra-cluster weight, or two clusters
    whose aggregate minimizers coincide) are reported via
    ``failing_pairs`` and ``separated_ok`` rather than raised: an
    instance that merely fails the sufficient conditions is still worth
    inspecting.
    """
    n = losses.num_nodes
    if graph.num_nodes != n:
        raise ValueError("graph and losses disagree on the node count")
    N, members = _clusters_from_labels(labels, n)
    labels = np.asarray(labels, dtype=np.int64)

    if aggregate_curvature is None:
        if losses.min_strong_convexity() <= 0.0:
            raise ValueError(
                "recovery interval needs strictly convex node losses; "
                "pass aggregate_curvature to assert cluster constants")
        # bincount adds each cluster's constants in node order
        alpha = np.bincount(labels, losses._alpha, N).tolist()
        curvature_assumed = False
    else:
        alpha = [float(a) for a in aggregate_curvature]
        if len(alpha) != N:
            raise ValueError("need one aggregate curvature per cluster")
        if min(alpha) <= 0.0:
            raise ValueError("aggregate curvatures must be positive")
        curvature_assumed = True

    xbar = np.stack([sum_loss_minimizer(losses, mem) for mem in members])
    grand = sum_loss_minimizer(losses, range(n))

    W, node_cluster, cross, cross_out = _cluster_weights(graph, labels, N)
    grads = losses.total_gradient(xbar[labels])
    gamma_min, gamma_max, failing, gaps = _interval(
        W, node_cluster, cross_out, members, [grads[mem] for mem in members],
        xbar, np.asarray(alpha), smoothness=losses._L)

    iu, ju = np.triu_indices(N, k=1)
    norms = _norms(xbar)
    separated = np.ones((N, N), dtype=bool)
    separated[iu, ju] = separated[ju, iu] = \
        gaps > 1e-9 * (1.0 + norms[iu] + norms[ju])

    at_grand = losses.total_gradient(np.tile(grand, (n, 1)))
    pull = _norms(np.stack([np.sum(at_grand[mem], axis=0)
                            for mem in members]))
    coarsening = _ratio(pull, cross_out).max(initial=0.0)

    return RecoveryReport(
        num_clusters=N,
        members=[mem.tolist() for mem in members],
        cluster_sizes=[len(mem) for mem in members],
        cluster_minimizers=xbar,
        aggregate_curvatures=alpha,
        smoothness=losses._L.tolist(),
        node_cluster_weights=node_cluster,
        cross_weights=cross,
        failing_pairs=failing,
        separated_ok=separated,
        curvature_assumed=curvature_assumed,
        gamma_min=gamma_min,
        gamma_max=gamma_max,
        coarsening_bound=float(coarsening))


def recovery_interval_cc(points, graph, labels):
    """Specialized (wider) interval for squared-distance clustering.

    Accepts the anchor points directly, a 1-D array read as one column,
    or a SquaredDistance loss.  The general interval from
    :func:`recovery_interval` is contained in this one: the lower
    thresholds satisfy general >= specialized and the upper thresholds
    coincide for these losses.
    """
    points = _anchors(points)
    n = len(points)
    if graph.num_nodes != n:
        raise ValueError("graph and data disagree on the node count")
    N, members = _clusters_from_labels(labels, n)

    W, node_cluster, _, cross_out = _cluster_weights(graph, labels, N)
    means = np.stack([points[mem].mean(axis=0) for mem in members])
    sizes = np.array([len(mem) for mem in members])
    return _interval(W, node_cluster, cross_out, members,
                     [points[mem] for mem in members], means, sizes)[:2]


@dataclass
class PenaltyThreshold:
    """Exact-penalty strength and the solution bound it was built from."""

    bound_C: float
    gamma_star: float
    method: str = "supplied-C"

    @property
    def degenerate(self):
        return self.gamma_star == 0.0

    def to_json_dict(self):
        return _jsonify(dict(asdict(self), degenerate=self.degenerate))


def exact_penalty_threshold(losses, bound, method="supplied-C"):
    """Strength above which the trimmed penalty enforces its cardinality.

    ``bound`` must dominate the norm of every per-node coordinate at any
    (locally) optimal solution; the bound_C_* helpers compute valid
    choices for the built-in loss families.  Any strength strictly above
    the returned ``gamma_star`` makes every solution of the penalized
    problem feasible for the cardinality-constrained one.
    """
    bound = float(bound)
    if bound < 0.0:
        raise ValueError("solution bound must be non-negative")
    infinite = np.flatnonzero(~np.isfinite(losses._L))
    if len(infinite):
        raise ValueError(f"node {infinite[0]} has no finite smoothness "
                         "constant")
    grads = losses.total_gradient(np.zeros((losses.num_nodes, losses.dim)))
    # ||grad f_i(0)||, 2 L_i C, node by node, added left to right by
    # cumsum (np.sum would add pairwise)
    terms = np.column_stack((_norms(grads), 2.0 * losses._L * bound))
    return PenaltyThreshold(bound_C=bound, method=method, gamma_star=float(
        np.cumsum(np.r_[0.0, terms.ravel()])[-1]))


def bound_C_clustering(points):
    """Norm bound for squared-distance solutions: the largest anchor.

    Takes the anchor points, a 1-D array read as one column, or a
    SquaredDistance loss."""
    points = _anchors(points)
    if points.size == 0:
        return 0.0
    return float(row_norms(points).max())


def bound_C_strongly_convex(losses):
    """Norm bound from strong convexity of every node loss.

    Looser than the clustering bound where both apply, but valid for
    any strongly convex family with known minimizers.
    """
    alpha = losses.min_strong_convexity()
    if alpha <= 0.0:
        raise ValueError("every node loss must be strongly convex")
    zero = np.zeros(losses.dim)
    gap, norm = 0, 0.0
    for i in range(losses.num_nodes):
        m = losses.minimizer(i)
        if m is None:
            raise ValueError(f"node {i} exposes no minimizer")
        gap += float(losses.value(i, zero)) - float(losses.value(i, m))
        norm = max(norm, float(np.linalg.norm(m)))
    # roundoff can push the gap a hair negative
    return math.sqrt(2.0 * max(gap, 0.0) / alpha) + norm


def bound_C_quadratic(losses):
    """Norm bound for quadratic node losses with positive definite terms."""
    terms = losses.quadratic_terms()
    if terms is None:
        raise ValueError("quadratic losses required")
    H, g = terms
    evals = np.linalg.eigvalsh(H)
    flat = np.flatnonzero(evals[:, 0] <= 1e-12 * np.maximum(evals[:, -1], 1.0))
    if len(flat):
        raise ValueError(f"node {flat[0]} quadratic term is not positive "
                         "definite")
    sols = np.linalg.solve(H, g[..., None])[..., 0]
    # the g_i . sol_i added left to right, as in exact_penalty_threshold
    quad = np.cumsum(np.r_[0.0, (g[:, None, :] @ sols[..., None])[:, 0, 0]])
    radius = math.sqrt(max(float(quad[-1]), 0.0) / float(evals[:, 0].min()))
    return radius + float(row_norms(sols).max())


def clustering_threshold(points):
    """Closed-form clustering preset: 3 * n * (largest anchor norm).

    An upper bound on :func:`exact_penalty_threshold` evaluated with the
    clustering solution bound, convenient because it needs no loss
    object.  Strengths strictly above it keep the exactness guarantee.
    ``points`` is read as in :func:`bound_C_clustering`.
    """
    points = _anchors(points)
    return 3.0 * len(points) * bound_C_clustering(points)
