"""Per-node convex losses with explicit curvature information.

Every node ``i`` of the graph carries a convex loss ``f_i`` on R^p.  The
solvers and the threshold calculators need more than point evaluation:
each loss exposes its gradient, a smoothness constant ``L_i`` (gradient
Lipschitz constant), a strong-convexity constant ``alpha_i`` (0 when the
loss is merely convex, reported honestly), and the minimizer when one
exists.

Three concrete families cover the built-in experiments:

``SquaredDistance``   f_i(x) = 0.5 ||x - a_i||^2
``RidgeRegression``   f_i(x) = 0.5 (b_i - x_1 - a_i x_2)^2 + eps/2 x_2^2
``Quadratic``         f_i(x) = 0.5 x^T A_i x - B_i^T x

``CustomLoss`` wraps user callables and can finite-difference check the
supplied gradient before it is trusted.

A family supplies only its formulas: ``_value(i, x)``, ``_gradient(i, x)``
and ``_minimizer(i)`` (None when f_i has no minimizer), and the per-node
arrays ``_L`` and ``_alpha``.  ``_gradient`` is its one gradient formula:
with ``i = slice(None)`` and ``x`` of shape (n, p) it is
``total_gradient``.  A family overrides ``total_value`` and
``quadratic_terms`` where it has a vectorized or quadratic form.  The
public per-node methods of :class:`Loss` check the node index and take
``x`` as a float64 array before calling them; the solvers and the
threshold calculators read a family whole, through the aggregates and
the arrays.
"""

from __future__ import annotations

import numpy as np

from .penalty import _as_blocks

__all__ = [
    "Loss",
    "SquaredDistance",
    "RidgeRegression",
    "Quadratic",
    "CustomLoss",
    "sum_loss_minimizer",
]


class Loss:
    """Base class; concrete losses fill in the per-node formulas.

    Attributes
    ----------
    num_nodes : int
    dim : int
        Dimension p of each node variable.
    """

    num_nodes = 0
    dim = 0
    is_convex = True

    def value(self, i, x):
        self._check_node(i)
        return self._value(i, np.asarray(x, dtype=np.float64))

    def gradient(self, i, x):
        self._check_node(i)
        return self._gradient(i, np.asarray(x, dtype=np.float64))

    def smoothness(self, i):
        self._check_node(i)
        return float(self._L[i])

    def strong_convexity(self, i):
        self._check_node(i)
        return float(self._alpha[i])

    def minimizer(self, i):
        """Minimizer of f_i, or None when it does not exist."""
        self._check_node(i)
        return self._minimizer(i)

    def quadratic_terms(self):
        """Per-node (H, g) with f_i(x) = 0.5 x^T H_i x - g_i^T x + const.

        Returns None for losses that are not quadratic; the solver then
        falls back to the linearized update.
        """
        return None

    # -- aggregates over all nodes -------------------------------------

    def total_value(self, X):
        X = np.asarray(X, dtype=np.float64)
        return float(sum(self.value(i, X[i]) for i in range(self.num_nodes)))

    def total_gradient(self, X):
        return self._gradient(slice(None), np.asarray(X, dtype=np.float64))

    def max_smoothness(self):
        return float(self._L.max())

    def min_strong_convexity(self):
        return float(self._alpha.min())

    def all_minimizers(self):
        """Stacked per-node minimizers, the solver's default start."""
        mins = [self.minimizer(i) for i in range(self.num_nodes)]
        if any(m is None for m in mins):
            raise ValueError("some node losses have no minimizer")
        return np.stack(mins)

    def _check_node(self, i):
        if not 0 <= i < self.num_nodes:
            raise IndexError(f"node index {i} out of range")


class SquaredDistance(Loss):
    """f_i(x) = 0.5 ||x - a_i||^2 for anchor points a_i.

    This is the loss of convex clustering; every node has L = alpha = 1
    and the minimizer is the anchor itself.
    """

    def __init__(self, points):
        points = _as_blocks(_finite(points, "points"), "points")
        if len(points) == 0:
            raise ValueError("points must be a non-empty (n, p) array")
        self.points = points
        self.num_nodes, self.dim = points.shape
        self._L = self._alpha = np.ones(self.num_nodes)

    def _value(self, i, x):
        d = x - self.points[i]
        return 0.5 * float(d @ d)

    def _gradient(self, i, x):
        return x - self.points[i]

    def _minimizer(self, i):
        return self.points[i].copy()

    def quadratic_terms(self):
        n, p = self.num_nodes, self.dim
        H = np.broadcast_to(np.eye(p), (n, p, p)).copy()
        return H, self.points.copy()

    def total_value(self, X):
        d = np.asarray(X, dtype=np.float64) - self.points
        return 0.5 * float((d * d).sum())


class RidgeRegression(Loss):
    """Per-node scalar regression with a ridge term on the slope.

    Node i holds one observation (a_i, b_i) and fits the line
    b ~ x_1 + a x_2, so

        f_i(x) = 0.5 (b_i - x_1 - a_i x_2)^2 + eps/2 * x_2^2.

    ``eps = 0`` gives plain least squares; its Hessian is singular and
    the per-node strong convexity is honestly reported as 0.
    """

    dim = 2

    def __init__(self, inputs, responses, epsilon=1e-2):
        inputs = _finite(inputs, "inputs").reshape(-1)
        responses = _finite(responses, "responses").reshape(-1)
        if len(inputs) != len(responses) or len(inputs) == 0:
            raise ValueError("inputs and responses must be equal, non-empty")
        if not 0 <= epsilon < np.inf:  # NaN fails every comparison
            raise ValueError("epsilon must be non-negative and finite")
        self.inputs = inputs
        self.responses = responses
        self.epsilon = float(epsilon)
        self.num_nodes = len(inputs)
        # per-node 2x2 Hessian [[1, a], [a, a^2 + eps]]
        a = inputs
        self._H = np.stack((np.ones_like(a), a, a, a * a + self.epsilon),
                           axis=1).reshape(-1, 2, 2)
        eigs = np.linalg.eigvalsh(self._H)
        self._L, self._alpha = eigs[:, 1], np.maximum(0.0, eigs[:, 0])

    def _value(self, i, x):
        r = self.responses[i] - x[0] - self.inputs[i] * x[1]
        return 0.5 * r * r + 0.5 * self.epsilon * x[1] ** 2

    def _gradient(self, i, x):
        r = self.responses[i] - x[..., 0] - self.inputs[i] * x[..., 1]
        return np.stack((-r, -self.inputs[i] * r + self.epsilon * x[..., 1]),
                        axis=-1)

    def _minimizer(self, i):
        if self.epsilon == 0.0:
            return None
        # (b_i, 0) zeroes both gradient components for any a_i
        return np.array([self.responses[i], 0.0])

    def quadratic_terms(self):
        g = np.column_stack((self.responses, self.inputs * self.responses))
        return self._H.copy(), g

    def total_value(self, X):
        X = np.asarray(X, dtype=np.float64)
        r = self.responses - X[:, 0] - self.inputs * X[:, 1]
        return 0.5 * float(r @ r) + 0.5 * self.epsilon * float(X[:, 1] @ X[:, 1])


class Quadratic(Loss):
    """General quadratic node losses f_i(x) = 0.5 x^T A_i x - B_i^T x.

    Parameters
    ----------
    A : array_like, shape (n, p, p)
        Symmetric positive semidefinite matrices.
    B : array_like, shape (n, p)
    """

    def __init__(self, A, B):
        A = _finite(A, "A")
        B = _finite(B, "B")
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError("A must have shape (n, p, p)")
        if B.shape != A.shape[:2]:
            raise ValueError("B must have shape (n, p)")
        if not np.allclose(A, np.swapaxes(A, 1, 2), atol=1e-12):
            raise ValueError("A matrices must be symmetric")
        self.A = A
        self.B = B
        self.num_nodes, self.dim = B.shape
        eigs = np.linalg.eigvalsh(A)
        if eigs[:, 0].min() < -1e-10:
            raise ValueError("A matrices must be positive semidefinite")
        self._L, self._alpha = eigs[:, -1], np.maximum(0.0, eigs[:, 0])

    def _value(self, i, x):
        return 0.5 * float(x @ self.A[i] @ x) - float(self.B[i] @ x)

    def _gradient(self, i, x):
        # a matrix-vector product per node; an einsum contraction would
        # round differently at p > 1
        return (self.A[i] @ x[..., None])[..., 0] - self.B[i]

    def _minimizer(self, i):
        if self._alpha[i] <= 1e-12 * max(1.0, self._L[i]):
            return None
        return np.linalg.solve(self.A[i], self.B[i])

    def quadratic_terms(self):
        return self.A.copy(), self.B.copy()

    def total_value(self, X):
        X = np.asarray(X, dtype=np.float64)
        quad = np.einsum("ij,ijk,ik->", X, self.A, X)
        return 0.5 * float(quad) - float((self.B * X).sum())


class CustomLoss(Loss):
    """User-supplied loss callbacks with declared curvature constants.

    Parameters
    ----------
    num_nodes, dim : int
    value_fn, gradient_fn : callable
        Called as ``fn(i, x)`` with ``x`` of shape (dim,).
    smoothness, strong_convexity : float or array_like
        Declared constants, scalar or per node.
    minimizer_fn : callable, optional
        ``fn(i) -> ndarray`` when per-node minimizers are known.
    convex : bool
        Declared convexity; the solvers only have guarantees when True.
    """

    def __init__(self, num_nodes, dim, value_fn, gradient_fn,
                 smoothness, strong_convexity=0.0, minimizer_fn=None,
                 convex=True):
        self.num_nodes = int(num_nodes)
        self.dim = int(dim)
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self._L = self._constants(smoothness, "smoothness")
        self._alpha = self._constants(strong_convexity, "strong_convexity")
        self._minimizer_fn = minimizer_fn
        self.is_convex = bool(convex)

    def _constants(self, value, name):
        """One non-negative value per node; +inf passes, NaN does not."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape not in ((), (1,), (self.num_nodes,)):
            raise ValueError(f"{name} must be a scalar or hold one value "
                             f"per node ({self.num_nodes})")
        if not (value >= 0).all():  # NaN fails every comparison
            raise ValueError(f"{name} must be non-negative")
        return np.broadcast_to(value, (self.num_nodes,))

    def _value(self, i, x):
        return float(self._value_fn(i, x))

    def _gradient(self, i, x):
        g = np.asarray(self._gradient_fn(i, x), dtype=np.float64)
        return g.reshape(self.dim)

    def total_gradient(self, X):
        # the callbacks take one node at a time
        X = np.asarray(X, dtype=np.float64)
        return np.stack([self.gradient(i, X[i])
                         for i in range(self.num_nodes)])

    def _minimizer(self, i):
        if self._minimizer_fn is None:
            return None
        return np.asarray(self._minimizer_fn(i), dtype=np.float64)

    def check_gradient(self, seed=0, num_points=5, step=1e-6, tol=1e-4):
        """Finite-difference check of the supplied gradient.

        Raises ValueError when the central-difference gradient disagrees
        with ``gradient_fn`` beyond ``tol`` (relative to gradient scale)
        at any of ``num_points`` random points per node.
        """
        rng = np.random.default_rng(seed)
        for i in range(self.num_nodes):
            for _ in range(num_points):
                x = rng.normal(size=self.dim)
                g = self.gradient(i, x)
                fd = np.array([self.value(i, x + e) - self.value(i, x - e)
                               for e in step * np.eye(self.dim)]) / (2 * step)
                err = np.linalg.norm(fd - g)
                if err > tol * (1.0 + float(np.linalg.norm(g))):
                    raise ValueError(
                        f"gradient of node {i} fails the finite-difference "
                        f"check (|fd - grad| = {err:.3e})")
        return True


def _finite(a, name):
    """``a`` as a float64 array, every entry finite, or a ValueError."""
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def sum_loss_minimizer(loss, nodes):
    """Minimizer of sum_{i in nodes} f_i over a single shared variable.

    For the quadratic families this solves the aggregated normal
    equations exactly; other losses are minimized numerically (BFGS on
    the aggregate, started from zero).  Raises ValueError when the
    aggregate is not strictly convex or ``nodes`` is empty.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if len(nodes) == 0:
        raise ValueError("nodes must be non-empty")
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("nodes must be distinct")
    outside = nodes[(nodes < 0) | (nodes >= loss.num_nodes)]
    if len(outside):
        raise IndexError(f"node index {outside[0]} out of range")
    terms = loss.quadratic_terms()
    if terms is not None:
        H, g = terms
        Hsum = H[nodes].sum(axis=0)
        gsum = g[nodes].sum(axis=0)
        eigs = np.linalg.eigvalsh(Hsum)
        if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
            raise ValueError("aggregate loss is not strictly convex "
                             "on this node set")
        return np.linalg.solve(Hsum, gsum)

    from scipy.optimize import minimize

    res = minimize(lambda x: sum(loss.value(i, x) for i in nodes),
                   np.zeros(loss.dim),
                   jac=lambda x: sum(loss.gradient(i, x) for i in nodes),
                   method="BFGS", options={"gtol": 1e-12, "maxiter": 1000})
    if not res.success and np.linalg.norm(res.jac) > 1e-6:
        raise ValueError(f"numeric aggregate minimization failed: "
                         f"{res.message}")
    return np.asarray(res.x, dtype=np.float64)
