"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
loops, exhaustive enumeration) so it cannot share a bug with the library
code it checks.
"""

import itertools
import math
import sys

import numpy as np


def prox_trimmed_objective(z, a, K, lam):
    """lam * (sum of the m-K smallest block norms of z) + 0.5 ||z - a||^2."""
    norms = sorted(float(np.linalg.norm(b)) for b in z)
    m = len(norms)
    kk = min(int(K), m)
    pen = lam * sum(norms[: m - kk])
    return pen + 0.5 * float(((z - a) ** 2).sum())


def brute_force_prox_trimmed(a, K, lam):
    """Exhaustive minimizer of the trimmed-norm prox objective.

    Tries every subset of m - K blocks as the penalized set, applies the
    per-block shrinkage closed form on it, and returns the candidate
    with the smallest true objective.
    """
    a = np.asarray(a, dtype=np.float64)
    m = len(a)
    kk = min(int(K), m)
    best = None
    best_val = np.inf
    for penalized in itertools.combinations(range(m), m - kk):
        z = a.copy()
        for k in penalized:
            nrm = float(np.linalg.norm(a[k]))
            if nrm <= lam:
                z[k] = 0.0
            else:
                z[k] = (1.0 - lam / nrm) * a[k]
        val = prox_trimmed_objective(z, a, K, lam)
        if val < best_val:
            best_val = val
            best = z
    return best, best_val


def trimmed_norm_slow(z, K):
    """Sorted-loop version of the trimmed block norm."""
    norms = sorted(float(np.linalg.norm(b)) for b in z)
    m = len(norms)
    kk = min(int(K), m)
    return sum(norms[: m - kk])


def shrink_factors_reference(norms, lam):
    """(1 - lam_e / norms_e)_+ per row by zero-fill, gather and scatter;
    ``lam`` a scalar or per row."""
    lam = np.asarray(lam)
    scale = np.zeros_like(norms)
    big = norms > lam
    scale[big] = 1.0 - (lam[big] if lam.ndim else lam) / norms[big]
    return scale


def group_shrink_reference(a, lam):
    """Group soft threshold of each row by ``lam`` (scalar or per row),
    with numpy's own row norms."""
    norms = np.linalg.norm(a, axis=1)
    return shrink_factors_reference(norms, lam)[:, None] * a


def prox_trimmed_reference(a, K, lam):
    """Trimmed prox by copy, gather and scatter: the K largest rows (ties
    to the lowest indices) copied, the rest group-soft-thresholded.
    Returns (z, kept, trimmed)."""
    a = np.asarray(a, dtype=np.float64)
    m = len(a)
    K = min(int(K), m)
    norms = np.linalg.norm(a, axis=1)
    keep = np.zeros(m, dtype=bool)
    if K:
        kth = np.partition(norms, m - K)[m - K]
        keep = norms > kth
        keep[np.flatnonzero(norms == kth)[:K - keep.sum()]] = True
    kept = np.flatnonzero(keep)
    trimmed = np.flatnonzero(~keep)
    z = a.copy()
    z[trimmed] = group_shrink_reference(a[trimmed], lam)
    return z, kept, trimmed


def directional_derivative_reference(z, v, K, tie_tol=0.0):
    """Directional derivative of the trimmed norm, every quantity
    recomputed from z and v on each call."""
    m = len(z)
    K = min(int(K), m)
    norms = np.linalg.norm(z, axis=1)
    vnorms = np.linalg.norm(v, axis=1)
    slopes = np.zeros(m)
    nz = norms > 0
    slopes[nz] = np.einsum("ij,ij->i", z[nz], v[nz]) / norms[nz]
    both = (~nz) & (vnorms > 0)
    slopes[both] = vnorms[both]
    if K == 0:
        return float(slopes.sum())
    if K >= m:
        return 0.0
    kth = np.sort(norms)[m - K]
    below = norms < kth - tie_tol
    at = np.abs(norms - kth) <= tie_tol
    need = m - K - int(below.sum())
    total = float(slopes[below].sum())
    if need > 0:
        total += float(np.sort(slopes[at])[:need].sum())
    return total


def incidence_apply(graph, x):
    """Edge differences x_i - x_j as the CSR product E @ x."""
    return graph.incidence() @ x


def merged_labels_reference(graph, x, blocks, merge_tol=1e-6):
    """Cluster labels, numbered by first node, of the graph whose edges
    have ``||blocks[e]|| <= merge_tol * (1 + max_v ||x_v||)``; by union
    find over the edge list."""
    x = np.asarray(x, dtype=np.float64).reshape(graph.num_nodes, -1)
    scale = 1.0 + np.linalg.norm(x, axis=1).max()
    parent = list(range(graph.num_nodes))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for (i, j), norm in zip(graph.edges.tolist(),
                            np.linalg.norm(blocks, axis=1)):
        if norm <= merge_tol * scale:
            parent[root(i)] = root(j)
    ids = {}
    return np.array([ids.setdefault(root(i), len(ids))
                     for i in range(graph.num_nodes)])


def pair_count_ari(labels_a, labels_b):
    """Adjusted Rand index by direct O(n^2) pair counting."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    n = len(labels_a)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            if same_a and same_b:
                a += 1
            elif same_a and not same_b:
                b += 1
            elif same_b and not same_a:
                c += 1
            else:
                d += 1
    num = 2.0 * (a * d - b * c)
    den = float((a + b) * (b + d) + (a + c) * (c + d))
    if den == 0.0:
        return 1.0
    return num / den


def dense_table_ari(labels_a, labels_b):
    """Adjusted Rand index from the dense (c1, c2) contingency table."""
    n = len(labels_a)
    table = np.zeros((int(labels_a.max()) + 1, int(labels_b.max()) + 1))
    np.add.at(table, (labels_a, labels_b), 1.0)

    def comb2(v):
        return float((v * (v - 1.0) / 2.0).sum())

    total = n * (n - 1.0) / 2.0
    if total == 0.0:
        return 1.0
    index = comb2(table)
    a = comb2(table.sum(axis=1))
    b = comb2(table.sum(axis=0))
    expected = a * b / total
    max_index = (a + b) / 2.0
    if max_index == expected:
        return 1.0
    return (index - expected) / (max_index - expected)


def enumerate_set_partitions(items):
    """All set partitions of ``items`` (restricted growth strings)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in enumerate_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def _pair_weight(weights, i, j):
    if i == j:
        return 0.0
    key = (i, j) if i < j else (j, i)
    return weights.get(key, 0.0)


def recovery_thresholds_slow(losses, weights, clusters):
    """Naive per-cluster loop evaluation of the recovery interval.

    ``weights`` is a dict {(i, j): w} with i < j, absent pairs weighing
    zero; ``clusters`` is a list of node lists.  Cluster minimizers come
    from scipy's BFGS on the summed loss, so nothing here shares code
    with the module under test beyond the per-node loss primitives.
    """
    from scipy.optimize import minimize

    n = losses.num_nodes
    N = len(clusters)
    L = [losses.smoothness(i) for i in range(n)]
    alpha = [sum(losses.strong_convexity(i) for i in c) for c in clusters]

    def cluster_min(nodes):
        fun = lambda x: sum(losses.value(i, x) for i in nodes)
        jac = lambda x: sum(losses.gradient(i, x) for i in nodes)
        res = minimize(fun, np.zeros(losses.dim), jac=jac, method="BFGS",
                       tol=1e-14)
        return res.x

    xbar = [cluster_min(c) for c in clusters]
    grand = cluster_min([i for c in clusters for i in c])

    def w_node(i, k):
        return sum(_pair_weight(weights, i, j) for j in clusters[k])

    def w_cross(k, l):
        return sum(_pair_weight(weights, i, j)
                   for i in clusters[k] for j in clusters[l])

    def ratio(num, den):
        if den > 0:
            return num / den
        return math.inf if num > 0 else 0.0

    gamma_min = 0.0
    mu = {}
    premise_pairs = True
    for k, nodes in enumerate(clusters):
        n_k = len(nodes)
        out = sum(w_cross(k, l) for l in range(N) if l != k)
        for i in nodes:
            for j in nodes:
                if i == j:
                    continue
                val = sum(abs(w_node(i, l) - w_node(j, l))
                          for l in range(N) if l != k)
                val += (L[i] + L[j]) / alpha[k] * out
                mu[(k, i, j)] = val
                if n_k * _pair_weight(weights, i, j) <= val:
                    premise_pairs = False
                num = float(np.linalg.norm(
                    np.asarray(losses.gradient(j, xbar[k]))
                    - np.asarray(losses.gradient(i, xbar[k]))))
                den = n_k * _pair_weight(weights, i, j) - val
                gamma_min = max(gamma_min, ratio(num, den))

    gamma_max = math.inf
    for k in range(N):
        for kp in range(N):
            if kp == k:
                continue
            num = float(np.linalg.norm(xbar[k] - xbar[kp]))
            den = sum(w_cross(k, l) for l in range(N) if l != k) / alpha[k] \
                + sum(w_cross(kp, l) for l in range(N) if l != kp) / alpha[kp]
            gamma_max = min(gamma_max, ratio(num, den))

    coarsen = 0.0
    for k, nodes in enumerate(clusters):
        num = float(np.linalg.norm(
            sum(np.asarray(losses.gradient(i, grand)) for i in nodes)))
        den = sum(w_cross(k, l) for l in range(N) if l != k)
        coarsen = max(coarsen, ratio(num, den))

    return {"gamma_min": gamma_min, "gamma_max": gamma_max,
            "coarsening_bound": coarsen, "mu": mu, "xbar": xbar,
            "premise_pairs": premise_pairs}


def cc_thresholds_slow(points, weights, clusters):
    """Naive loop evaluation of the clustering-specialized interval."""
    points = np.asarray(points, dtype=np.float64)
    N = len(clusters)

    def w_node(i, k):
        return sum(_pair_weight(weights, i, j) for j in clusters[k])

    def w_cross(k, l):
        return sum(_pair_weight(weights, i, j)
                   for i in clusters[k] for j in clusters[l])

    def ratio(num, den):
        if den > 0:
            return num / den
        return math.inf if num > 0 else 0.0

    means = [points[c].mean(axis=0) for c in clusters]
    gamma_min = 0.0
    for k, nodes in enumerate(clusters):
        n_k = len(nodes)
        for i in nodes:
            for j in nodes:
                if i == j:
                    continue
                num = float(np.linalg.norm(points[i] - points[j]))
                den = n_k * _pair_weight(weights, i, j) \
                    - sum(abs(w_node(i, l) - w_node(j, l))
                          for l in range(N) if l != k)
                gamma_min = max(gamma_min, ratio(num, den))
    gamma_max = math.inf
    for k in range(N):
        for kp in range(N):
            if kp == k:
                continue
            num = float(np.linalg.norm(means[k] - means[kp]))
            den = sum(w_cross(k, l) for l in range(N) if l != k) / len(clusters[k]) \
                + sum(w_cross(kp, l) for l in range(N) if l != kp) / len(clusters[kp])
            gamma_max = min(gamma_max, ratio(num, den))
    return gamma_min, gamma_max


def _ratio(num, den):
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.divide(num, den)
    return np.where(den > 0.0, q, np.where(num > 0.0, math.inf, 0.0))


def _norms(d):
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def dense_interval(W, node_cluster, cross_out, members, rows, centers, scale,
                   smoothness=None):
    """The recovery interval over every node pair, with dense n_k x n_k
    mu and pair_ok matrices: the reference for the edge-only
    ``thresholds._interval``."""
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


def dense_recovery_interval(losses, graph, labels):
    """``thresholds.recovery_interval`` on :func:`dense_interval`: the
    interval ends, the coarsening bound, the premise and the dense
    per-cluster mu and pair_ok matrices."""
    from netlasso.losses import sum_loss_minimizer
    from netlasso.thresholds import _cluster_weights, _clusters_from_labels

    n = losses.num_nodes
    N, members = _clusters_from_labels(labels, n)
    L = np.asarray([float(losses.smoothness(i)) for i in range(n)])
    alpha = np.asarray([float(sum(float(losses.strong_convexity(i))
                                  for i in mem)) for mem in members])
    xbar = np.stack([sum_loss_minimizer(losses, mem) for mem in members])
    grand = sum_loss_minimizer(losses, range(n))
    W, node_cluster, _, cross_out = _cluster_weights(graph, labels, N)
    grads = [np.stack([losses.gradient(i, xbar[k]) for i in mem])
             for k, mem in enumerate(members)]
    gamma_min, gamma_max, mu, pair_ok, gaps = dense_interval(
        W, node_cluster, cross_out, members, grads, xbar, alpha,
        smoothness=L)
    norms = _norms(xbar)
    iu, ju = np.triu_indices(N, k=1)
    separated = gaps > 1e-9 * (1.0 + norms[iu] + norms[ju])
    at_grand = np.stack([losses.gradient(i, grand) for i in range(n)])
    pull = _norms(np.stack([np.sum(at_grand[mem], axis=0)
                            for mem in members]))
    return {"gamma_min": gamma_min, "gamma_max": gamma_max,
            "coarsening_bound": float(_ratio(pull, cross_out).max(
                initial=0.0)),
            "premise_ok": all(bool(ok.all()) for ok in pair_ok)
            and bool(separated.all()),
            "mu": mu, "pair_ok": pair_ok}


def dense_recovery_interval_cc(points, graph, labels):
    """``thresholds.recovery_interval_cc`` on :func:`dense_interval`."""
    from netlasso.thresholds import _cluster_weights, _clusters_from_labels

    N, members = _clusters_from_labels(labels, len(points))
    W, node_cluster, _, cross_out = _cluster_weights(graph, labels, N)
    means = np.stack([points[mem].mean(axis=0) for mem in members])
    sizes = np.array([len(mem) for mem in members])
    return dense_interval(W, node_cluster, cross_out, members,
                          [points[mem] for mem in members], means, sizes)[:2]


def knn_pairs_slow(points, k, alpha):
    """Per-node sorted loop over the kNN "or" rule: edges and weights.

    Node i's neighbours are the first k of every other node ordered by
    (squared distance, index); edge {i, j} exists when either end picks
    the other.  Weights are exp(-alpha * ||a_i - a_j||^2).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    pairs = set()
    for i in range(n):
        diff = points - points[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        order = np.lexsort((np.arange(n), d2))
        for j in order[:k]:
            pairs.add((min(i, j), max(i, j)))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    diff = points[edges[:, 0]] - points[edges[:, 1]]
    return edges, np.exp(-alpha * np.einsum("ij,ij->i", diff, diff))


def dense_certificate_slow(x, losses, graph, gamma, merge_tol=1e-6,
                           refine_iters=2000):
    """Subgradient certificate with a dense A per merged component.

    Returns (max_rel_residual, max_subgrad_norm, merged_edges).  Edge
    (i, j) is merged when ||x_i - x_j|| <= merge_tol (1 + max_v ||x_v||);
    unmerged edges carry their unit difference.  Each connected component
    of the merged edges gets the lstsq solution of A u = b, where column
    e of A holds +gamma w_e at node i and -gamma w_e at node j and b is
    minus the residual the unmerged edges leave.  A component where some
    ||u_e|| > 1 is polished by ``refine_iters`` projected-gradient steps
    of length 1 / ||A||_2^2 onto the unit balls.

    As in ``nl_certificate`` at its default residual_tol of 1e-4, no
    component is polished (its u is only projected onto the balls) when
    some node v has (||b_v|| - sum of gamma w_e over its merged edges
    - 1e-12 (deg_v + 1) T_v) / (1 + ||grad_v||) > 1e-4, with
    T_v = ||grad_v|| + sum of gamma w_e over all its edges.
    """
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    edges, gw = graph.edges, gamma * graph.weights
    m = len(edges)
    scale = 1.0 + max(float(np.linalg.norm(v)) for v in x)
    merged = [float(np.linalg.norm(x[i] - x[j])) <= merge_tol * scale
              for i, j in edges]
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e, (i, j) in enumerate(edges):
        if merged[e]:
            parent[root(i)] = root(j)
    grad = losses.total_gradient(x)
    g = np.zeros((m, p))
    resid = grad.copy()
    for e, (i, j) in enumerate(edges):
        if not merged[e]:
            d = x[i] - x[j]
            g[e] = d / np.linalg.norm(d)
            resid[i] += gw[e] * g[e]
            resid[j] -= gw[e] * g[e]
    polish = True
    for v in range(n):
        ends = [e for e in range(m) if v in edges[e]]
        gn = float(np.linalg.norm(grad[v]))
        S = sum(gw[e] for e in ends if merged[e])
        T = gn + sum(gw[e] for e in ends)
        floor = (float(np.linalg.norm(resid[v])) - S
                 - 1e-12 * (len(ends) + 1) * T) / (1.0 + gn)
        polish = polish and not floor > 1e-4
    for r in sorted({root(v) for v in range(n)}):
        nodes = [v for v in range(n) if root(v) == r]
        group = [e for e in range(m) if merged[e] and root(edges[e, 0]) == r]
        if not group:
            continue
        A = np.zeros((len(nodes), len(group)))
        for c, e in enumerate(group):
            A[nodes.index(edges[e, 0]), c] = gw[e]
            A[nodes.index(edges[e, 1]), c] = -gw[e]
        b = -resid[nodes]
        u = np.linalg.lstsq(A, b, rcond=None)[0]
        if not polish:
            u /= np.maximum(np.linalg.norm(u, axis=1), 1.0)[:, None]
        elif np.any(np.linalg.norm(u, axis=1) > 1.0):
            step = 1.0 / max(np.linalg.norm(A, 2) ** 2, 1e-30)
            for _ in range(refine_iters):
                u -= step * (A.T @ (A @ u - b))
                norms = np.linalg.norm(u, axis=1)
                over = norms > 1.0
                u[over] /= norms[over][:, None]
        g[group] = u
    final = grad.copy()
    for e, (i, j) in enumerate(edges):
        final[i] += gw[e] * g[e]
        final[j] -= gw[e] * g[e]
    rel = np.linalg.norm(final, axis=1) / (1.0 + np.linalg.norm(grad, axis=1))
    max_norm = float(np.linalg.norm(g, axis=1).max()) if m else 0.0
    return float(rel.max()), max_norm, int(sum(merged))


def _step_small_reference(config, graph, x, x_new, y, rho, dx):
    """Trimmed stopping test: the step ||x_t - x_{t-1}|| is small."""
    n, p = x.shape
    return dx <= math.sqrt(p * n) * config.eps_abs \
        + config.eps_rel * np.linalg.norm(x_new)


def _dual_small_reference(config, graph, x, x_new, y, rho, dx):
    """Convex stopping test: the scaled dual residual
    rho ||D (x_t - x_{t-1})|| is small against ||y||."""
    m, p = y.shape
    dual = rho * float(np.linalg.norm(incidence_apply(graph, x_new - x)))
    return dual <= math.sqrt(p * m) * config.eps_abs \
        + config.eps_rel * np.linalg.norm(y)


def admm_reference(losses, graph, config, x0, y0, prox, penalty,
                   small_step, balance=False):
    """The splitting iteration with every history recorded on every
    iteration, ``np.linalg.norm`` for every norm and E @ x for every
    edge difference.  Returns (x, z, y, rho, iterations, stop_reason,
    histories), the histories as a dict of lists named as the fields
    of ``SolverState``.

    The x-step is the library's ``_x_system``, built anew whenever
    rho changes.  ``config.rho_schedule`` raises rho at the start of
    every period's first iteration.  With ``balance``, after the
    stopping test of every 30th iteration but the last, the relative
    primal residual ||z - E x|| / max(||z||, ||E x||) and the relative
    dual residual rho ||E (x_t - x_{t-1})|| / ||y|| are divided, the
    larger by the smaller, into r.  When r > 2, rho = config.rho * 2^j
    moves to j + k when the primal one is the larger and to j - k
    otherwise, k = floor(log2(r) / 2 + 1/2) within [1, 2] (k = 1 for
    r = inf, a zero residual), and then back towards j until it lies in
    |j| <= 30 among the finite floats at least min(config.rho, the
    smallest normal float).  A zero denominator makes its ratio inf
    (NaN for 0 / 0), and a NaN ratio moves nothing.
    """
    from netlasso.graph import DifferenceOperator
    from netlasso.solver import _resolve_mode, _x_system

    p, m = losses.dim, graph.num_edges
    x = (losses.all_minimizers() if x0 is None
         else np.array(x0, dtype=np.float64))
    y = np.zeros((m, p)) if y0 is None else np.array(y0, dtype=np.float64)
    op = DifferenceOperator(graph, p)
    gamma, rho, schedule = config.gamma, config.rho, config.rho_schedule
    mode = _resolve_mode(losses, config.x_update)

    def xstep_at(rho):  # the system built and factorized anew
        return _x_system(mode, losses, op)(rho, config.smoothness)

    xstep = xstep_at(rho)
    hist = {name: [] for name in ("objectives", "aug_lagrangians",
                                  "primal_residuals", "x_changes",
                                  "lyapunov", "rhos")}

    Dx = incidence_apply(graph, x)
    z = Dx
    obj0 = losses.total_value(x) + gamma * penalty(Dx)
    guard = config.divergence_factor * max(1.0, abs(obj0))
    reason = "max-iters"
    iterations = 0
    for t in range(1, config.max_iters + 1):
        if (schedule is not None and t > 1
                and (t - 1) % schedule.period == 0):
            new_rho = schedule.apply(rho)
            if new_rho != rho:
                rho = new_rho
                xstep = xstep_at(rho)
        z = prox(Dx - y / rho, rho)
        x_new = xstep(x, z, y)
        Dx_new = incidence_apply(graph, x_new)
        gap = z - Dx_new
        y = y + rho * gap

        dx = float(np.linalg.norm(x_new - x))
        primal = float(np.linalg.norm(gap))
        f = losses.total_value(x_new)
        obj = f + gamma * penalty(Dx_new)
        aug = (f + gamma * penalty(z) + float((y * gap).sum())
               + 0.5 * rho * float((gap * gap).sum()))
        hist["objectives"].append(obj)
        hist["aug_lagrangians"].append(aug)
        hist["primal_residuals"].append(primal)
        hist["x_changes"].append(dx)
        hist["lyapunov"].append(aug + config.lyapunov_coeff * dx * dx)
        hist["rhos"].append(rho)

        x_old, x, Dx = x, x_new, Dx_new
        iterations = t
        if not np.isfinite(obj) or obj > guard:
            reason = "diverged"
            break
        primal_ok = primal <= math.sqrt(p * m) * config.eps_abs \
            + config.eps_rel * max(np.linalg.norm(z), np.linalg.norm(Dx))
        if primal_ok and small_step(config, graph, x_old, x, y, rho, dx):
            reason = "converged"
            break
        if balance and t % 30 == 0 and t < config.max_iters:
            dual = rho * float(np.linalg.norm(incidence_apply(graph,
                                                              x - x_old)))
            with np.errstate(divide="ignore", invalid="ignore"):
                rel_primal = np.float64(primal) / max(np.linalg.norm(z),
                                                      np.linalg.norm(Dx))
                rel_dual = np.float64(dual) / np.linalg.norm(y)
                sign = 1 if rel_primal > rel_dual else -1
                r = max(rel_primal, rel_dual) / min(rel_primal, rel_dual)
            if r > 2.0:
                k = 1 if r == np.inf else min(max(
                    math.floor(0.5 * math.log2(r) + 0.5), 1), 2)
                j = math.frexp(rho / config.rho)[1] - 1
                lo = min(config.rho, sys.float_info.min)
                new_j = max(-30, min(30, j + sign * k))
                while not (new_j == j or lo <= config.rho * 2.0 ** new_j
                           <= sys.float_info.max):
                    new_j -= sign
                if new_j != j:
                    rho = config.rho * 2.0 ** new_j
                    xstep = xstep_at(rho)
    return x, z, y, rho, iterations, reason, hist


def _trimmed_norm_reference(d, K):
    norms = np.linalg.norm(d, axis=1)
    m = len(norms)
    K = min(int(K), m)
    if K == 0:
        return float(norms.sum())
    if K >= m:
        return 0.0
    return float(np.sort(norms)[: m - K].sum())


def solve_ntl_reference(losses, graph, config, x0=None, y0=None):
    """``admm_reference`` with the trimmed problem's pieces."""
    K = config.cardinality
    return admm_reference(
        losses, graph, config, x0, y0,
        lambda a, rho: prox_trimmed_reference(a, K, config.gamma / rho)[0],
        lambda d: _trimmed_norm_reference(d, K), _step_small_reference)


def solve_nl_reference(losses, graph, config, x0=None, y0=None):
    """``admm_reference`` with the convex problem's pieces and residual
    balancing; ``config`` carries gamma, the starting rho, x-step and
    stopping settings."""
    w = graph.weights
    return admm_reference(
        losses, graph, config, x0, y0,
        lambda a, rho: group_shrink_reference(a, config.gamma * w / rho),
        lambda d: float(w @ np.linalg.norm(d, axis=1)),
        _dual_small_reference, balance=True)


def exact_x_step_kron(losses, op, rho, z, y):
    """The exact x-step solved as one (n p) x (n p) system,
    (blockdiag(H) + rho * Laplacian kron I_p) x = g + D^T (y + rho z),
    assembled and factorized as the solver does for non-scalar blocks."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    H, g = losses.quadratic_terms()
    n, p = g.shape
    blocks = sp.bsr_matrix((H, np.arange(n), np.arange(n + 1)),
                           shape=(n * p, n * p))
    lu = splu(blocks.tocsc()
              + rho * sp.kron(op.laplacian(), sp.eye(p), format="csc"))
    return lu.solve(
        (g + op.apply_adjoint(y + rho * z)).reshape(-1)).reshape(g.shape)


def polish_reference(A, u, b, step, iters):
    """The certificate's projected-gradient polish with (m, 1) x (m, p)
    broadcasts and einsum row norms: ``iters`` steps of length
    ``step[e]`` on ||A u - b||^2 / 2, each projected onto the unit
    balls.  Returns the polished copy of u."""
    u = u.copy()
    At = A.T.tocsr()
    for _ in range(iters):
        u -= step[:, None] * (At @ (A @ u - b))
        u /= np.maximum(np.sqrt(np.einsum("ij,ij->i", u, u)), 1.0)[:, None]
    return u


# ---------------------------------------------------------------------------
# exact weighted 1-D total variation denoising


def tv1d_exact(a, lam):
    """Exact minimizer of 0.5 ||x - a||^2 + sum_e lam_e |x_{e+1} - x_e|.

    Johnson's dynamic program ("A dynamic programming algorithm for the
    fused lasso and L0-segmentation", JCGS 2013), with a weight per
    edge.  The derivative g_k of the cost-to-go of the first k nodes is
    piecewise linear and increasing; the message across edge k is g_k
    clipped to [-lam_k, lam_k], which equals it between the points b-_k
    and b+_k where g_k crosses -lam_k and lam_k, and node k+1 adds
    b - a_{k+1}.  Knots hold (position, change of slope, change of
    offset), and only the two end pieces hold absolute coefficients, so
    adding the same linear term to every piece touches only them.  The
    last node's value is the zero of g_n, and each earlier one its
    successor clipped to [b-_k, b+_k].  Every step pushes two knots, so
    the scans pop O(n) knots in all.
    """
    from collections import deque

    a = np.asarray(a, dtype=np.float64).reshape(-1)
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    n = len(a)
    if len(lam) != max(n - 1, 0) or np.any(lam < 0):
        raise ValueError("need n - 1 non-negative edge weights")
    knots = deque()
    left = right = (1.0, -float(a[0]))  # g_1(b) = b - a_1
    lo, hi = np.empty(n - 1), np.empty(n - 1)

    def zero_from_left(level):
        """Pop the knots where g <= level; return the piece crossing
        ``level`` and the crossing."""
        A, B = left
        while knots and A * knots[0][0] + B <= level:
            _, dA, dB = knots.popleft()
            A, B = A + dA, B + dB
        return A, B, (level - B) / A

    for k in range(n - 1):
        l_k = float(lam[k])
        A_l, B_l, lo[k] = zero_from_left(-l_k)
        A_r, B_r = right
        while knots and A_r * knots[-1][0] + B_r >= l_k:
            _, dA, dB = knots.pop()
            A_r, B_r = A_r - dA, B_r - dB
        if not knots:  # both scans end in the same piece
            A_r, B_r = A_l, B_l
        hi[k] = (l_k - B_r) / A_r
        knots.appendleft((lo[k], A_l, B_l + l_k))
        knots.append((hi[k], -A_r, l_k - B_r))
        left = (1.0, -l_k - float(a[k + 1]))
        right = (1.0, l_k - float(a[k + 1]))

    x = np.empty(n)
    x[-1] = zero_from_left(0.0)[2]
    for k in range(n - 2, -1, -1):
        x[k] = min(max(x[k + 1], lo[k]), hi[k])
    return x


def tv1d_bvls(a, lam):
    """Weighted 1-D total variation denoising through its dual,
    min 0.5 ||a - D^T u||^2 subject to |u_e| <= lam_e, solved by
    ``scipy.optimize.lsq_linear(method="bvls")``; x = a - D^T u with
    (D x)_e = x_e - x_{e+1}.  Dense: for small n only."""
    from scipy.optimize import lsq_linear

    a = np.asarray(a, dtype=np.float64).reshape(-1)
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    n = len(a)
    D = np.eye(n - 1, n) - np.eye(n - 1, n, k=1)
    u = lsq_linear(D.T, a, bounds=(-lam, lam), method="bvls",
                   tol=1e-15).x
    return a - D.T @ u


def tv1d_brute_force(a, lam, tol=1e-9):
    """Weighted 1-D total variation denoising by trying every pattern.

    Each edge e is fused, a jump up (x_{e+1} > x_e) or a jump down.  The
    stationarity condition x - a + D^T u = 0 fixes u_e = lam_e sign of
    the drop at every jump, and the fused runs between jumps then take
    the mean of a_i less the boundary flows.  Inside a run u follows
    from the cumulative sums of a - x.  The pattern whose jumps have
    their signs and whose fused edges have |u_e| <= lam_e satisfies the
    KKT conditions, and the problem is strictly convex, so it is the
    unique minimizer.  Takes 3^(n-1) patterns: for n up to about 8.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    n = len(a)
    found = []
    for pattern in itertools.product((0, 1, -1), repeat=n - 1):
        # u_e = lam_e s for x_e - x_{e+1} of sign s at a jump
        x = np.empty(n)
        start = 0
        u_in = 0.0  # flow into the run from its left edge
        for end in range(n):
            if end < n - 1 and pattern[end] == 0:
                continue
            u_out = 0.0 if end == n - 1 else lam[end] * -pattern[end]
            # sum over the run of x_i - a_i + u_i - u_{i-1} = 0
            x[start:end + 1] = (a[start:end + 1].sum() - u_out + u_in) \
                / (end + 1 - start)
            start, u_in = end + 1, u_out
        jumps = x[1:] - x[:-1]
        u = np.cumsum(a - x)[:-1]
        ok = True
        for e, s in enumerate(pattern):
            if s == 0:
                ok &= abs(u[e]) <= lam[e] + tol
            else:
                ok &= s * jumps[e] > 0 and abs(u[e] - lam[e] * -s) <= tol
        if ok:
            found.append(x)
    if len(found) != 1:
        raise AssertionError(f"{len(found)} KKT points found")
    return found[0]
