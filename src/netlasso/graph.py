"""Weighted undirected graphs and the edge-difference operator.

A graph here is a plain container: ``num_nodes``, a lexicographically
sorted edge array with each edge stored as ``(i, j)`` with ``i < j``, and
one non-negative weight per edge.  Edge weights only enter the convex
fusion penalty; the difference operator itself is unweighted.

Builders
--------
complete_graph      all pairs, uniform or Gaussian-kernel weights
knn_gaussian_graph  symmetrized k-nearest-neighbour graph, Gaussian weights
path_graph          chain 0-1-2-...-(n-1)

The :class:`DifferenceOperator` maps stacked node vectors ``x`` (shape
``(n, p)``) to stacked edge differences ``x_i - x_j`` (shape ``(m, p)``)
without ever materializing a dense matrix; ``to_dense`` exists for small
test problems only.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools  # the kernels behind E @ z
from scipy.sparse.csgraph import connected_components as _cc
from scipy.sparse.linalg import LinearOperator, eigsh, factorized

from .penalty import _as_blocks, row_norms

__all__ = [
    "WeightedGraph",
    "DifferenceOperator",
    "complete_graph",
    "knn_gaussian_graph",
    "path_graph",
    "merged_components",
    "sigma_min_DDt",
    "save_edge_list",
    "load_edge_list",
]

# Rows of the distance matrix that knn_gaussian_graph holds at once.
_KNN_BLOCK = 32


class WeightedGraph:
    """Undirected graph with non-negative edge weights.

    Parameters
    ----------
    num_nodes : int
        Number of nodes; nodes are ``0 .. num_nodes - 1``.
    edges : array_like of shape (m, 2)
        Node pairs.  Orientation is normalized to ``i < j`` and the edge
        list is sorted lexicographically; weights follow their edges.
    weights : array_like of shape (m,), optional
        Non-negative edge weights, default all ones.  Zero weights are
        kept, not dropped.

    Raises
    ------
    ValueError
        On self-loops, duplicate edges, out-of-range indices, or
        negative / non-finite weights.
    """

    def __init__(self, num_nodes, edges, weights=None):
        num_nodes = int(num_nodes)
        if num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            weights = np.ones(len(edges))
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if len(weights) != len(edges):
            raise ValueError("weights and edges disagree in length")
        if len(edges):
            if edges.min() < 0 or edges.max() >= num_nodes:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
            lo = edges.min(axis=1)
            hi = edges.max(axis=1)
            edges = np.column_stack((lo, hi))
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            weights = weights[order]
            if np.any((edges[1:] == edges[:-1]).all(axis=1)):
                raise ValueError("duplicate edges are not allowed")
        if np.any(~np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and non-negative")
        self.num_nodes = num_nodes
        self.edges = edges
        self.weights = weights

    @property
    def num_edges(self):
        return len(self.edges)

    def incidence(self):
        """Signed edge-node incidence matrix as CSR, shape (m, n).

        Row k of the result has +1 at column i and -1 at column j for the
        k-th edge (i, j); applying it to a node vector yields the edge
        differences x_i - x_j.
        """
        m, n = self.num_edges, self.num_nodes
        data = np.tile([1.0, -1.0], m)
        indices = self.edges.reshape(-1)
        indptr = np.arange(0, 2 * m + 1, 2)
        return sp.csr_matrix((data, indices, indptr), shape=(m, n))

    def __repr__(self):
        return (f"WeightedGraph(num_nodes={self.num_nodes}, "
                f"num_edges={self.num_edges})")


def _points(points):
    """``points`` as an (n, p) float array, (n,) read as p = 1; a point
    with a non-finite coordinate is a ValueError naming it."""
    points = _as_blocks(points, "points")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise ValueError(f"non-finite points at nodes {bad.tolist()}")
    return points


def _gaussian_weights(points, n, edges, alpha):
    """Kernel weight ``exp(-alpha * ||a_i - a_j||^2)`` of each edge (i, j)
    of the (m, 2) array ``edges``, for ``points`` of n nodes; None (unit
    weights) when ``points`` is None."""
    if points is None:
        return None
    points = _points(points)
    if len(points) != n:
        raise ValueError("points and num_nodes disagree")
    diff = points[edges[:, 0]] - points[edges[:, 1]]
    return np.exp(-alpha * np.einsum("ij,ij->i", diff, diff))


def complete_graph(num_nodes, points=None, alpha=0.5):
    """Complete graph on ``num_nodes`` nodes.

    With ``points`` omitted every weight is 1.  With ``points`` given
    (shape ``(n, p)``), edge {i, j} gets the Gaussian kernel weight
    ``exp(-alpha * ||a_i - a_j||^2)``.
    """
    n = int(num_nodes)
    edges = np.column_stack(np.triu_indices(n, k=1))
    return WeightedGraph(n, edges, _gaussian_weights(points, n, edges, alpha))


def knn_gaussian_graph(points, k, alpha=0.5):
    """Symmetrized k-nearest-neighbour graph with Gaussian weights.

    Edge {i, j} is present when i is among the k nearest neighbours of j
    or j is among the k nearest neighbours of i (the "or" rule).  Distance
    ties are broken toward the smaller node index.  Weights are
    ``exp(-alpha * ||a_i - a_j||^2)``.  ``k >= n - 1`` degenerates to the
    complete graph with the same weights.
    """
    points = _points(points)
    n = len(points)
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2:
        return WeightedGraph(n, np.empty((0, 2), dtype=np.int64))
    if k >= n - 1:
        return complete_graph(n, points=points, alpha=alpha)
    picks = []
    for lo in range(0, n, _KNN_BLOCK):
        rows = np.arange(lo, min(lo + _KNN_BLOCK, n))
        diff = points[None, :, :] - points[rows, None, :]
        d2 = np.einsum("bij,bij->bi", diff, diff)
        d2[np.arange(len(rows)), rows] = np.inf
        # every node strictly nearer than the k-th distance, then the
        # lowest-index ties at that distance up to k
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        near, tie = d2 < kth, d2 == kth
        need = k - near.sum(axis=1, keepdims=True)
        r, j = np.nonzero(near | (tie & (np.cumsum(tie, axis=1) <= need)))
        picks.append(np.column_stack((rows[r], j)))
    picks = np.sort(np.concatenate(picks), axis=1)
    key = np.unique(picks[:, 0] * n + picks[:, 1])
    edges = np.column_stack((key // n, key % n))
    return WeightedGraph(n, edges, _gaussian_weights(points, n, edges, alpha))


def path_graph(num_nodes, points=None, alpha=0.5):
    """Chain graph 0-1-...-(n-1); unit weights, or Gaussian from points.

    With ``points`` given, consecutive nodes get the kernel weight
    ``exp(-alpha * ||a_i - a_{i+1}||^2)``, which is the usual choice when
    the nodes carry a one-dimensional signal.
    """
    n = int(num_nodes)
    idx = np.arange(n - 1)
    edges = np.column_stack((idx, idx + 1))
    return WeightedGraph(n, edges, _gaussian_weights(points, n, edges, alpha))


class DifferenceOperator:
    """Edge-difference operator D for a graph, acting on (n, p) arrays.

    ``apply`` maps node variables to per-edge differences ``x_i - x_j``
    (edges oriented small-to-large index); ``apply_adjoint`` is the exact
    transpose.  Both are matrix-free in the sense that only the edge
    endpoints and a sparse incidence matrix are kept.
    """

    def __init__(self, graph, block_dim):
        self.graph = graph
        self.block_dim = int(block_dim)
        if self.block_dim < 1:
            raise ValueError("block_dim must be at least 1")
        self._i = np.ascontiguousarray(graph.edges[:, 0])
        self._j = np.ascontiguousarray(graph.edges[:, 1])
        self._E = graph.incidence()
        # kept as CSR: ``self._E.T`` would build a new matrix every call
        self._Et = self._E.T.tocsr()

    def apply(self, x):
        """Edge differences of node array ``x``; (n, p) -> (m, p)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.graph.num_nodes, self.block_dim):
            raise ValueError("x has wrong shape for this operator")
        # two gathers beat the CSR product E @ x and give its bits: the
        # "+ 0.0" turns the -0.0 of (-0.0) - (+0.0) into the +0.0 that
        # E @ x, which starts each row sum from +0.0, returns
        d = x.take(self._i, axis=0)
        d -= x.take(self._j, axis=0)
        d += 0.0
        return d

    def apply_adjoint(self, z, start=None):
        """Adjoint map; (m, p) -> (n, p).  With ``start`` (n, p) given,
        returns ``start + D^T z``, each node's edge terms added onto its
        start one at a time in edge order, as a loop over the edges
        would add them; ``start`` itself is left as it is."""
        z = np.asarray(z, dtype=np.float64)
        shape = (self.graph.num_nodes, self.block_dim)
        if z.shape != (self.graph.num_edges, self.block_dim):
            raise ValueError("z has wrong shape for this operator")
        if start is None:
            out = np.zeros(shape)
        else:
            out = np.array(start, dtype=np.float64, order="C")
            if out.shape != shape:
                raise ValueError("start has wrong shape for this operator")
        # ``E^T @ z`` reaches scipy's csr_matvec (p = 1) or csr_matvecs
        # after a dispatch that costs more than the product on small
        # graphs; calling the same kernel here gives the same bits.  The
        # kernels add each row's terms onto the output in column order,
        # which is edge order.  Scatter-adds by np.bincount or np.add.at
        # are several times slower.
        Et, p = self._Et, self.block_dim
        kernel = _sparsetools.csr_matvecs if p > 1 else _sparsetools.csr_matvec
        dims = Et.shape + (p,) if p > 1 else Et.shape
        kernel(*dims, Et.indptr, Et.indices, Et.data,
               np.ascontiguousarray(z).ravel(), out.ravel())
        return out

    def laplacian(self):
        """Unweighted graph Laplacian E^T E as CSR, shape (n, n)."""
        E = self._E
        return (E.T @ E).tocsr()

    def to_dense(self):
        """Dense matrix of D acting on node-major stacked vectors.

        Only intended for small test problems; refuses graphs with more
        than 64 nodes.
        """
        if self.graph.num_nodes > 64:
            raise ValueError("dense materialization is restricted to "
                             "graphs with at most 64 nodes")
        E = self._E.toarray()
        return np.kron(E, np.eye(self.block_dim))


def _check_merge_tol(merge_tol):
    if not 0 <= merge_tol < math.inf:  # NaN fails every comparison
        raise ValueError("merge_tol must be finite and non-negative")


def merged_components(graph, x, merge_tol, blocks=None):
    """Merged edges of node centroids ``x`` (n, p) and their clusters.

    Edge e = (i, j) is merged when its block, ``blocks[e]`` or by default
    ``x_i - x_j``, has norm at most ``merge_tol * (1 + max_v ||x_v||)``.
    Returns the boolean mask over edges and, per node, the id of its
    connected component in the merged subgraph.
    """
    _check_merge_tol(merge_tol)
    n = graph.num_nodes
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    scale = 1.0 + float(row_norms(x).max())
    if blocks is None:
        blocks = DifferenceOperator(graph, x.shape[1]).apply(x)
    merged = row_norms(blocks) <= merge_tol * scale
    adj = sp.csr_matrix((np.ones(int(merged.sum())), (i[merged], j[merged])),
                        shape=(n, n))
    return merged, _cc(adj, directed=False)[1]


def sigma_min_DDt(graph):
    """Smallest eigenvalue of D D^T for the graph's difference operator.

    The value does not depend on the block dimension.  Returns 0.0 when D
    is not surjective, which happens exactly when the graph contains a
    cycle.  Chain graphs use the closed form ``2 (1 - cos(pi / n))``;
    every other forest a sparse shift-invert eigensolve of its n-by-n
    Laplacian (:func:`_smallest_forest_eigenvalue`).
    """
    n, m = graph.num_nodes, graph.num_edges
    if m == 0:
        raise ValueError("graph has no edges")
    idx = np.arange(n - 1)
    if m == n - 1 and np.array_equal(graph.edges,
                                     np.column_stack((idx, idx + 1))):
        return 2.0 * (1.0 - math.cos(math.pi / n))
    adj = sp.csr_matrix(
        (np.ones(m), (graph.edges[:, 0], graph.edges[:, 1])), shape=(n, n))
    ncomp, comp = _cc(adj, directed=False)
    if m > n - ncomp:
        return 0.0
    return max(_smallest_forest_eigenvalue(graph.incidence(), comp), 0.0)


def _smallest_forest_eigenvalue(E, comp):
    """Smallest eigenvalue of E E^T for the incidence E of a forest.

    It is the smallest nonzero eigenvalue of the sparse Laplacian
    L = E^T E, whose null space holds the constants on each component
    ``comp``.  The Gram matrix E E^T is dense on a high-degree node, L
    never is.  Shift-invert about zero runs on L's pseudo-inverse: the
    solve of L grounded at one node per component, with each
    component's mean removed before and after it.
    """
    n = E.shape[1]
    lap = (E.T @ E).tocsc()
    sizes = np.bincount(comp)
    ground = np.zeros(n)
    ground[np.unique(comp, return_index=True)[1]] = 1.0
    solve = factorized((lap + sp.diags(ground)).tocsc())

    def center(v):
        v = np.ravel(v)
        return v - (np.bincount(comp, weights=v) / sizes)[comp]

    pinv = LinearOperator((n, n), matvec=lambda v: center(solve(center(v))),
                          dtype=np.float64)
    v0 = center(np.random.default_rng(0).standard_normal(n))
    return float(eigsh(lap, k=1, sigma=0.0, which="LM", OPinv=pinv, v0=v0,
                       return_eigenvectors=False)[0])


def save_edge_list(graph, path):
    """Write the graph as text lines ``i j weight``."""
    with open(path, "w") as fh:
        fh.write(f"# nodes {graph.num_nodes}\n")
        for (i, j), w in zip(graph.edges, graph.weights):
            fh.write(f"{i} {j} {float(w)!r}\n")


def load_edge_list(path):
    """Read a graph written by :func:`save_edge_list`.

    The first line must be ``# nodes N``; every other non-empty line is
    ``i j weight``.  All graph invariants are re-validated on load.
    """
    edges = []
    weights = []
    num_nodes = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "nodes":
                    num_nodes = int(parts[1])
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed edge line: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
            weights.append(float(parts[2]))
    if num_nodes is None:
        raise ValueError("edge-list file is missing the '# nodes N' header")
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return WeightedGraph(num_nodes, edges, np.array(weights))
