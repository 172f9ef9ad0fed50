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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .losses import SquaredDistance, sum_loss_minimizer
from .penalty import row_norms


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


def _jsonify(value):
    """Make a value JSON-friendly, containers included; infinities
    become strings."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return _jsonify(float(value)) if isinstance(value, np.floating) \
            else int(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return value


@dataclass
class RecoveryReport:
    """Everything the recovery interval is built from, plus the interval.

    ``members[k]`` lists the nodes of cluster k in ascending order, and
    the per-cluster matrices (``mu``, ``pair_ok``) are indexed in that
    order.  ``gamma_min``/``gamma_max`` bound the strengths at which the
    convex solver reproduces the target partition exactly, provided
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
    mu: list
    pair_ok: list
    separated_ok: np.ndarray
    curvature_assumed: bool
    gamma_min: float
    gamma_max: float
    coarsening_bound: float

    @property
    def premise_ok(self):
        pairs = all(bool(ok.all()) for ok in self.pair_ok)
        N = self.num_clusters
        off = ~np.eye(N, dtype=bool)
        return pairs and bool(self.separated_ok[off].all())

    def to_json_dict(self):
        return {
            "gamma_min": _jsonify(self.gamma_min),
            "gamma_max": _jsonify(self.gamma_max),
            "coarsening_bound": _jsonify(self.coarsening_bound),
            "premise_ok": self.premise_ok,
            "num_clusters": self.num_clusters,
            "members": [list(map(int, m)) for m in self.members],
            "cluster_sizes": list(map(int, self.cluster_sizes)),
            "cluster_minimizers": _jsonify(self.cluster_minimizers),
            "aggregate_curvatures": _jsonify(self.aggregate_curvatures),
            "smoothness": _jsonify(self.smoothness),
            "node_cluster_weights": _jsonify(self.node_cluster_weights),
            "cross_weights": _jsonify(self.cross_weights),
            "mu": _jsonify(self.mu),
            "pair_ok": [ok.tolist() for ok in self.pair_ok],
            "separated_ok": self.separated_ok.tolist(),
            "curvature_assumed": self.curvature_assumed,
        }


def _clusters_from_labels(labels, n):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(
            f"expected one label per node ({n}), got shape {labels.shape}")
    if labels.size == 0:
        raise ValueError("empty partition")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative")
    N = int(labels.max()) + 1
    members = [np.flatnonzero(labels == k) for k in range(N)]
    for k, mem in enumerate(members):
        if len(mem) == 0:
            raise ValueError(f"cluster {k} is empty; ids must be dense")
    return N, members


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
    cross_out = cross.sum(axis=1) - np.diag(cross)
    return W, WM.toarray(), cross, cross_out


def _interval(W, node_cluster, cross_out, members, rows, centers, scale,
              smoothness=None):
    """Both ends of a recovery interval, and the terms they come from.

    gamma_min is the largest ratio, over node pairs (a, b) in a cluster
    k, of ||rows[k][a] - rows[k][b]|| to n_k w_ab - mu_ab, where mu_ab
    sums |w_a^(l) - w_b^(l)| over the other clusters l, plus
    (L_a + L_b) / scale_k * w_out_k if ``smoothness`` is given.
    gamma_max is the smallest ratio, over cluster pairs, of
    ||centers_k - centers_k'|| to w_out_k / scale_k + w_out_k' / scale_k'.
    Also returns the mu and pair_ok matrices and the center distances
    of the cluster pairs in ``np.triu_indices`` order.
    """
    mu, pair_ok, lower = [], [], []
    for k, mem in enumerate(members):
        nc = np.delete(node_cluster[mem], k, axis=1)
        mu_k = np.abs(nc[:, None, :] - nc[None, :, :]).sum(axis=2)
        if smoothness is not None:
            Lk = smoothness[mem]
            mu_k += (Lk[:, None] + Lk[None, :]) / scale[k] * cross_out[k]
        np.fill_diagonal(mu_k, 0.0)
        den = len(mem) * W[mem][:, mem].toarray() - mu_k
        ok = den > 0.0
        np.fill_diagonal(ok, True)
        off = ~np.eye(len(mem), dtype=bool)
        dist = _norms(rows[k][:, None, :] - rows[k][None, :, :])
        lower.append(_ratio(dist[off], den[off]))
        mu.append(mu_k)
        pair_ok.append(ok)
    iu, ju = np.triu_indices(len(members), k=1)
    gaps = _norms(centers[iu] - centers[ju])
    out = cross_out / scale
    gamma_max = _ratio(gaps, out[iu] + out[ju]).min(initial=math.inf)
    gamma_min = np.concatenate(lower).max(initial=0.0)
    return float(gamma_min), float(gamma_max), mu, pair_ok, gaps


def recovery_interval(losses, graph, labels, aggregate_curvature=None):
    """Strength interval under which the target partition is recovered.

    ``labels`` assigns every node a dense cluster id.  Each per-node
    loss must be strictly convex; aggregate curvatures default to the
    per-cluster sums of the node constants (exact for quadratics, since
    Hessians add).  Pass ``aggregate_curvature`` to assert the constants
    yourself, e.g. for custom losses whose declared per-node constant is
    zero or loose; the report then has ``curvature_assumed`` set.

    Premise failures (a too-weak intra-cluster weight, or two clusters
    whose aggregate minimizers coincide) are reported via the flag
    matrices rather than raised: an instance that merely fails the
    sufficient conditions is still worth inspecting.
    """
    n = losses.num_nodes
    if graph.num_nodes != n:
        raise ValueError("graph and losses disagree on the node count")
    N, members = _clusters_from_labels(labels, n)

    L = [float(losses.smoothness(i)) for i in range(n)]
    if aggregate_curvature is None:
        node_alpha = [float(losses.strong_convexity(i)) for i in range(n)]
        if min(node_alpha) <= 0.0:
            raise ValueError(
                "recovery interval needs strictly convex node losses; "
                "pass aggregate_curvature to assert cluster constants")
        alpha = [float(sum(node_alpha[i] for i in mem)) for mem in members]
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
    grads = [np.stack([losses.gradient(i, xbar[k]) for i in mem])
             for k, mem in enumerate(members)]
    gamma_min, gamma_max, mu, pair_ok, gaps = _interval(
        W, node_cluster, cross_out, members, grads, xbar, np.asarray(alpha),
        smoothness=np.asarray(L))

    iu, ju = np.triu_indices(N, k=1)
    norms = _norms(xbar)
    separated = np.ones((N, N), dtype=bool)
    separated[iu, ju] = separated[ju, iu] = \
        gaps > 1e-9 * (1.0 + norms[iu] + norms[ju])

    at_grand = np.stack([losses.gradient(i, grand) for i in range(n)])
    pull = _norms(np.stack([np.sum(at_grand[mem], axis=0)
                            for mem in members]))
    coarsening = _ratio(pull, cross_out).max(initial=0.0)

    return RecoveryReport(
        num_clusters=N,
        members=[mem.tolist() for mem in members],
        cluster_sizes=[len(mem) for mem in members],
        cluster_minimizers=xbar,
        aggregate_curvatures=alpha,
        smoothness=L,
        node_cluster_weights=node_cluster,
        cross_weights=cross,
        mu=mu,
        pair_ok=pair_ok,
        separated_ok=separated,
        curvature_assumed=curvature_assumed,
        gamma_min=gamma_min,
        gamma_max=gamma_max,
        coarsening_bound=float(coarsening))


def recovery_interval_cc(points, graph, labels):
    """Specialized (wider) interval for squared-distance clustering.

    Accepts the data matrix directly, or a SquaredDistance loss.  The
    general interval from :func:`recovery_interval` is contained in this
    one: the lower thresholds satisfy general >= specialized and the
    upper thresholds coincide for these losses.
    """
    if isinstance(points, SquaredDistance):
        points = points.points
    elif hasattr(points, "num_nodes"):
        raise TypeError("squared-distance losses required; got a "
                        "different loss family")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise TypeError("squared-distance data required: a 2-D array "
                        "of anchor points (or a SquaredDistance loss)")
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
        return {"bound_C": _jsonify(self.bound_C),
                "gamma_star": _jsonify(self.gamma_star),
                "method": self.method,
                "degenerate": self.degenerate}


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
    zero = np.zeros(losses.dim)
    total = 0.0
    for i in range(losses.num_nodes):
        L_i = float(losses.smoothness(i))
        if not math.isfinite(L_i):
            raise ValueError(f"node {i} has no finite smoothness constant")
        total += float(np.linalg.norm(losses.gradient(i, zero)))
        total += 2.0 * L_i * bound
    return PenaltyThreshold(bound_C=bound, gamma_star=float(total),
                            method=method)


def bound_C_clustering(points):
    """Norm bound for squared-distance solutions: the largest anchor."""
    if isinstance(points, SquaredDistance):
        points = points.points
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        return 0.0
    return float(row_norms(points).max())


def bound_C_strongly_convex(losses):
    """Norm bound from strong convexity of every node loss.

    Looser than the clustering bound where both apply, but valid for
    any strongly convex family with known minimizers.
    """
    alphas = [float(losses.strong_convexity(i))
              for i in range(losses.num_nodes)]
    if min(alphas) <= 0.0:
        raise ValueError("every node loss must be strongly convex")
    mins = []
    for i in range(losses.num_nodes):
        m = losses.minimizer(i)
        if m is None:
            raise ValueError(f"node {i} exposes no minimizer")
        mins.append(np.asarray(m, dtype=np.float64))
    zero = np.zeros(losses.dim)
    gap = sum(float(losses.value(i, zero)) - float(losses.value(i, mins[i]))
              for i in range(losses.num_nodes))
    gap = max(gap, 0.0)  # roundoff can push the sum a hair negative
    radius = math.sqrt(2.0 * gap / min(alphas))
    return radius + max(float(np.linalg.norm(m)) for m in mins)


def bound_C_quadratic(losses):
    """Norm bound for quadratic node losses with positive definite terms."""
    terms = losses.quadratic_terms()
    if terms is None:
        raise ValueError("quadratic losses required")
    H, g = terms
    n = H.shape[0]
    alpha = math.inf
    sols = np.zeros_like(g)
    quad = 0.0
    for i in range(n):
        evals = np.linalg.eigvalsh(H[i])
        if evals[0] <= 1e-12 * max(evals[-1], 1.0):
            raise ValueError(f"node {i} quadratic term is not positive "
                             "definite")
        alpha = min(alpha, float(evals[0]))
        sols[i] = np.linalg.solve(H[i], g[i])
        quad += float(g[i] @ sols[i])
    radius = math.sqrt(max(quad, 0.0) / alpha)
    return radius + float(row_norms(sols).max())


def clustering_threshold(points):
    """Closed-form clustering preset: 3 * n * (largest anchor norm).

    An upper bound on :func:`exact_penalty_threshold` evaluated with the
    clustering solution bound, convenient because it needs no loss
    object.  Strengths strictly above it keep the exactness guarantee.
    """
    if isinstance(points, SquaredDistance):
        points = points.points
    points = np.asarray(points, dtype=np.float64)
    return 3.0 * len(points) * bound_C_clustering(points)
