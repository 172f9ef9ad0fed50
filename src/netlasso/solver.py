"""Operator-splitting solvers for graph-fused model fitting.

Both problems share the same structure: per-node losses f_i coupled by a
penalty on edge differences.  With D the edge-difference operator,

  trimmed problem   min  sum_i f_i(x_i) + gamma * trimmed_norm(D x, K)
  convex problem    min  sum_i f_i(x_i) + gamma * sum_e w_e ||(D x)_e||

Both are solved by the same alternating scheme on the split z = D x:
a z-step (exact prox of the penalty, closed-form in both cases), an
x-step, and a dual ascent step.  The x-step is either the exact solve of
the quadratic subproblem (when the losses expose Hessian data) or a
single linearized step that only needs gradients; the linearized variant
corresponds to adding the Bregman distance of (L/2)||.||^2 - f to the
x-subproblem, so one validated step size L covers all nodes.

``validate_convergence_params`` checks the sufficient conditions under
which the trimmed iteration provably descends a Lyapunov function (the
augmented Lagrangian plus a multiple of the squared x-step), and reports
the smallest admissible penalty parameter rho.

``nl_certificate`` builds an explicit subgradient certificate of
optimality for the convex problem.  ``stationarity_check`` decides
directional stationarity of a trimmed-problem solution exactly: where
the trimmed blocks are unique near the point, it is ``nl_certificate``
on their subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, factorized, splu

from .graph import (DifferenceOperator, WeightedGraph, merged_components,
                    sigma_min_DDt)
from .penalty import (_check_k, _is_int, _keep_mask, _scale_rows,
                      group_shrink, prox_trimmed, row_norms, trimmed_norm)

__all__ = [
    "SolverConfig",
    "RhoSchedule",
    "SingularSystemError",
    "SolverState",
    "ConvergenceParams",
    "StationarityReport",
    "CertificateReport",
    "CONVERGED",
    "MAX_ITERS",
    "DIVERGED",
    "objective_trimmed",
    "objective_convex",
    "solve_ntl",
    "solve_nl",
    "validate_convergence_params",
    "stationarity_check",
    "nl_certificate",
]

CONVERGED = "converged"
MAX_ITERS = "max-iters"
DIVERGED = "diverged"


@dataclass
class RhoSchedule:
    """Geometric increase of rho: ``rho <- min(multiplier * rho, cap)``
    applied every ``period`` iterations.  The schedule never lowers rho,
    even when the cap starts below the current value."""

    multiplier: float = 10.0
    cap: float = math.inf
    period: int = 100

    def __post_init__(self):
        if not self.multiplier > 0:
            raise ValueError("multiplier must be positive")
        if not self.cap > 0:
            raise ValueError("cap must be positive")
        if not _is_int(self.period) or self.period < 1:
            raise ValueError("period must be a positive integer")

    def apply(self, rho):
        return max(rho, min(self.multiplier * rho, self.cap))

    def next(self, rho, primal, primal_scale, dual):
        """The rho after a check: the schedule reads no residual."""
        return self.apply(rho)


# Residual balancing, the convex solver's penalty rule, on the relative
# residuals its stopping test reads (Wohlberg 2017, "ADMM penalty
# parameter selection by residual balancing", arXiv:1704.06209; Boyd et
# al. 2011, section 3.4.1, balance the absolute ones): every
# _BALANCE_PERIOD iterations, when the relative primal and dual
# residuals are more than _BALANCE_RATIO apart, rho rises (the primal
# one the larger) or falls by 2^k, k the nearest integer to (1/2) log2
# of their ratio r, clamped to [1, 2].  sqrt(r) is Wohlberg's adaptive
# multiplier; the spectral rule of Xu, Figueiredo & Goldstein (AISTATS
# 2017) sizes its step the same way.  rho stays on the grid
# rho0 * 2^j, |j| <= _BALANCE_STEPS, of normal floats, clamped to its
# ends.  Powers of two keep a path's rho values few, and each is
# factorized once.
_BALANCE_PERIOD = 30
_BALANCE_RATIO = 2.0
_BALANCE_STEPS = 30


class _Balance:
    """Residual balancing from the starting value ``rho0``; ``next`` has
    the interface of :meth:`RhoSchedule.next`: ``primal`` is ||z - D x||
    and ``primal_scale`` max(||z||, ||D x||), and ``dual`` a function
    that returns rho ||D (x_t - x_{t-1})|| and its scale ||y||."""

    period = _BALANCE_PERIOD

    def __init__(self, rho0):
        # the grid's ends among the normal floats (rho0 itself when it
        # is subnormal): scaling by powers of two is exact between them,
        # so rho / rho0 stays exactly a power of two
        e = math.frexp(rho0)[1]  # 2^(e-1) <= rho0 < 2^e
        self.lo = math.ldexp(rho0, min(0, max(-_BALANCE_STEPS, -1021 - e)))
        self.hi = math.ldexp(rho0, min(_BALANCE_STEPS, 1024 - e))

    def next(self, rho, primal, primal_scale, dual):
        s, s_scale = dual()
        # primal / primal_scale against s / s_scale, cross-multiplied so
        # that a zero scale divides nothing; NaN fails every test
        a, b = primal * s_scale, s * primal_scale
        if a > _BALANCE_RATIO * b:
            move = 2.0
        elif b > _BALANCE_RATIO * a:
            a, b, move = b, a, 0.5
        else:
            return rho
        # k is 1 below r = 8 = 2^(2 * 1.5) and when a residual is zero,
        # and 2 from there on
        if b > 0 and a >= 8.0 * b:
            move *= move
        # a product past the top is inf, which the clamp takes to hi
        return min(max(move * rho, self.lo), self.hi)


@dataclass
class SolverConfig:
    """Settings for both solvers.

    :func:`solve_ntl` takes a config directly.  :func:`solve_nl` builds
    one from its keywords with ``cardinality=0``; it uses ``gamma``,
    ``rho``, ``x_update``, ``smoothness``, ``max_iters``, ``eps_abs``,
    ``eps_rel`` and ``divergence_factor``, and leaves ``rho_schedule``
    and ``lyapunov_coeff`` at their defaults (no schedule, c = 0); its
    rho is the starting value of residual balancing.

    Parameters
    ----------
    gamma : float
        Penalty weight.
    cardinality : int
        Number K of edge differences left unpenalized.
    rho : float
        Augmented-Lagrangian parameter (default 1e4, which suits the
        bundled experiment scales).  :func:`solve_ntl` keeps it fixed, or
        raises it by ``rho_schedule``; :func:`solve_nl` starts from it
        and balances the residuals (see :func:`solve_nl`).
    x_update : {"auto", "exact", "linearized"}
        "exact" solves the x-subproblem by a cached sparse factorization
        and requires quadratic losses; "linearized" takes one gradient
        step majorized by ``smoothness``; "auto" picks "exact" whenever
        the losses expose Hessian data.
    smoothness : float, optional
        Step constant L for the linearized update; defaults to the
        largest per-node smoothness constant.
    max_iters, eps_abs, eps_rel :
        Stopping controls; the defaults match the reference protocol
        (1000 iterations, 1e-5 absolute and relative).
    rho_schedule : RhoSchedule, optional
    lyapunov_coeff : float
        Coefficient c of the recorded sequence L_rho + c ||x_t - x_{t-1}||^2.
    divergence_factor : float
        Abort when the objective exceeds this multiple of its initial
        value.
    """

    gamma: float
    cardinality: int
    rho: float = 1e4
    x_update: str = "auto"
    smoothness: float | None = None
    max_iters: int = 1000
    eps_abs: float = 1e-5
    eps_rel: float = 1e-5
    rho_schedule: RhoSchedule | None = None
    lyapunov_coeff: float = 0.0
    divergence_factor: float = 1e12

    def __post_init__(self):
        # every comparison with NaN is false, so these reject NaN too
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and non-negative")
        if not _is_int(self.cardinality) or self.cardinality < 0:
            raise ValueError("cardinality must be a non-negative integer")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be finite and positive")
        if self.x_update not in ("auto", "exact", "linearized"):
            raise ValueError(f"unknown x_update {self.x_update!r}")
        if not _is_int(self.max_iters) or self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        if not (self.eps_abs >= 0 and self.eps_rel >= 0):
            raise ValueError("eps_abs and eps_rel must be non-negative")
        if not math.isfinite(self.lyapunov_coeff):
            raise ValueError("lyapunov_coeff must be finite")
        if not self.divergence_factor > 0:
            raise ValueError("divergence_factor must be positive")


@dataclass
class SolverState:
    """Iterates and per-iteration histories of one solver run.

    Histories are aligned: entry t describes the state after iteration
    t+1 (objective, augmented Lagrangian, primal residual ||z - D x||,
    step length ||x_t - x_{t-1}||, rho in force, and the Lyapunov value
    L_rho + c ||x_t - x_{t-1}||^2).

    Direct :func:`solve_ntl` and :func:`solve_nl` calls fill all six,
    one entry per iteration.  The solves of :func:`netlasso.path.k_path`
    and :func:`netlasso.path.gamma_path` record one entry each in
    ``objectives`` and ``primal_residuals``, the final objective and the
    final primal residual, which are the two values a path step reads;
    ``aug_lagrangians``, ``x_changes``, ``lyapunov`` and ``rhos`` stay
    empty.  Both recorded values are the last entries a direct solve
    from the same start records.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    rho: float
    iterations: int = 0
    stop_reason: str = MAX_ITERS
    objectives: list = field(default_factory=list)
    aug_lagrangians: list = field(default_factory=list)
    primal_residuals: list = field(default_factory=list)
    x_changes: list = field(default_factory=list)
    lyapunov: list = field(default_factory=list)
    rhos: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# objectives and the x-step


def objective_trimmed(losses, op, x, gamma, K):
    """f(x) + gamma * trimmed_norm(D x, K)."""
    return losses.total_value(x) + gamma * trimmed_norm(op.apply(x), K)


def objective_convex(losses, op, x, gamma, weights):
    """f(x) + gamma * sum_e w_e ||x_i - x_j||."""
    d = row_norms(op.apply(x))
    return losses.total_value(x) + gamma * float(weights @ d)


class SingularSystemError(ArithmeticError):
    """The x-step's system is singular in floating point: rho is so large
    that the loss curvature (for the linearized step, the identity)
    vanishes against rho * Laplacian.  A smaller rho avoids it; the CLI
    reports it as a numerical failure (exit code 3)."""


# the largest relative residual the probe solve of a factor may leave
_PROBE_TOL = math.sqrt(np.finfo(np.float64).eps)


def _factorize(matrix, rho):
    """``splu`` of an x-system, checked by one probe solve.

    The probe solves ``matrix @ x = b`` for ``b = matrix @ cos(0, 1, ...)``.
    A factor that SuperLU finds exactly singular, or whose solution
    misses ``b`` by more than ``_PROBE_TOL`` relative (in the max norm),
    is reported as :class:`SingularSystemError` naming rho.  The second
    case is a system that rounding made singular without a zero pivot,
    such as the ridge ``kron`` system at rho = 1e100.
    """
    try:
        lu = splu(matrix)
        with np.errstate(all="ignore"):  # a bad factor overflows here
            b = matrix @ np.cos(np.arange(matrix.shape[0]))
            miss = np.abs(matrix @ lu.solve(b) - b).max() / np.abs(b).max()
        if not miss <= _PROBE_TOL:
            raise RuntimeError(f"a probe solve misses by {miss:.2g} relative")
        return lu
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise SingularSystemError(  # or the probe's miss
            f"the x-step system is singular at rho={rho!r} ({exc});"
            " lower rho") from exc


def _x_system(mode, losses, op):
    """Build the rho-independent pieces of the x-subproblem of ``mode``
    once, and return ``step(rho, smoothness)``, which factorizes the
    system at rho and returns the x-step as a function of (x, z, y).

    "exact" solves (blockdiag(H) + rho * Laplacian kron I_p) x
    = g + D^T (y + rho z); its pieces are blockdiag(H) and
    Laplacian kron I_p in CSC.  When every block is H_i = h_i I_p
    (always for ``SquaredDistance``, and for a ``Quadratic`` with scalar
    A_i) that system is p copies of one n x n system, so it factorizes
    diag(h) + rho * Laplacian and solves the (n, p) right-hand side in
    one call; for p = 1 this is the same matrix as the general form.
    "linearized" solves (I + (rho/L) Laplacian) x
    = x - grad f(x)/L + D^T (y + rho z)/L with L = ``smoothness``, by
    default the largest per-node smoothness constant; its pieces are I
    and the Laplacian.  ``step`` raises :class:`SingularSystemError`
    when the system is singular in floating point, which a very large
    rho causes.
    """
    n, p = losses.num_nodes, losses.dim
    if mode == "exact":
        terms = losses.quadratic_terms()
        if terms is None:
            raise ValueError("exact x-update needs quadratic losses")
        H, g = terms
        h = H[:, :1, :1]
        if np.array_equal(H, h * np.eye(p)):  # every H_i = h_i I_p
            H, p = h, 1
        # block row i holds H[i] at block column i: no per-node loop
        blocks = sp.bsr_matrix((H, np.arange(n), np.arange(n + 1)),
                               shape=(n * p, n * p)).tocsc()
        coupling = sp.kron(op.laplacian(), sp.eye(p), format="csc")
        # a vector where the system is not split: SuperLU solves a
        # one-column 2-D right-hand side more slowly
        shape = (n * p,) if p == g.shape[1] else g.shape

        def step(rho, smoothness=None):
            lu = _factorize(blocks + rho * coupling, rho)
            return lambda x, z, y: lu.solve(
                (g + op.apply_adjoint(y + rho * z)).reshape(shape)
            ).reshape(g.shape)
        return step
    eye, lap = sp.eye(n, format="csc"), op.laplacian().tocsc()

    def step(rho, smoothness=None):
        L = smoothness if smoothness is not None else losses.max_smoothness()
        if L <= 0:
            raise ValueError("smoothness constant must be positive")
        lu = _factorize(eye + (rho / L) * lap, rho)
        return lambda x, z, y: lu.solve(
            x - losses.total_gradient(x) / L
            + op.apply_adjoint(y + rho * z) / L)
    return step


class _Factors:
    """The difference operator and the x-steps of one (losses, graph)
    pair, kept across the solves of a path so that each x-system is
    built once per mode and factorized once per rho.

    x-steps are keyed by (mode, rho, smoothness): a new rho, as a rho
    schedule or residual balancing makes, or another step constant
    factorizes anew from the pieces of its mode; another mode builds
    its pieces first.
    """

    def __init__(self, losses, graph):
        self.losses, self.graph = losses, graph
        self.op = DifferenceOperator(graph, losses.dim)
        self._systems, self._steps = {}, {}

    def x_step(self, mode, rho, smoothness):
        key = (mode, rho, smoothness)
        if key not in self._steps:
            if mode not in self._systems:
                self._systems[mode] = _x_system(mode, self.losses, self.op)
            self._steps[key] = self._systems[mode](rho, smoothness)
        return self._steps[key]


# ---------------------------------------------------------------------------
# the splitting iteration


def _resolve_mode(losses, x_update):
    if x_update == "auto":
        return "exact" if losses.quadratic_terms() is not None else "linearized"
    if x_update == "exact" and losses.quadratic_terms() is None:
        raise ValueError("exact x-update requires quadratic losses")
    return x_update


def _init_state(losses, graph, x0, y0):
    if graph.num_nodes != losses.num_nodes:
        raise ValueError("graph and losses disagree on the node count")
    if x0 is None:
        x = losses.all_minimizers()
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (losses.num_nodes, losses.dim):
            raise ValueError("x0 has the wrong shape")
    m = graph.num_edges
    if y0 is None:
        y = np.zeros((m, losses.dim))
    else:
        y = np.array(y0, dtype=np.float64)
        if y.shape != (m, losses.dim):
            raise ValueError("y0 has the wrong shape")
    return x, y


def _norm(a):
    """``np.linalg.norm(a)`` of a whole float64 array, bit for bit: numpy
    computes sqrt(v . v) of ``v = a.ravel(order="K")``, and so does this,
    without numpy's dispatch.  The order must stay "K": ``SuperLU.solve``
    returns F-ordered arrays for 2-D right-hand sides, and a C-order
    ravel sums those in another order.  ``np.vdot`` is the same BLAS dot
    without the overflow warning; a sum of squares that overflows is
    taken again from ``v`` scaled by its largest magnitude."""
    v = a.ravel(order="K")
    s = np.vdot(v, v)
    if s == math.inf:
        big = float(np.abs(v).max())
        if big < math.inf:
            v = v / big
            return big * math.sqrt(v.dot(v))
    return math.sqrt(s)


def _step_small(config, op, x_new, x, y, rho):
    """Trimmed stopping test: the step ||x_t - x_{t-1}|| is small."""
    n, p = x_new.shape
    return _norm(x_new - x) <= math.sqrt(p * n) * config.eps_abs \
        + config.eps_rel * _norm(x_new)


def _dual_small(config, op, x_new, x, y, rho):
    """Convex stopping test: the scaled dual residual
    rho ||D (x_t - x_{t-1})|| is small against ||y||."""
    m, p = y.shape
    dual = rho * _norm(op.apply(x_new - x))
    return dual <= math.sqrt(p * m) * config.eps_abs \
        + config.eps_rel * _norm(y)


# Relative slack on the penalty bound of the divergence guard.  The
# computed penalty and ||D x||_F are sums of at most N = m p rounded
# non-negative terms, each within a relative N 2^-53 of its exact value;
# 1e-6 covers both errors together for N up to about 1e9.
_BOUND_SLACK = 1.0 + 1e-6


def _admm(losses, graph, config, x0, y0, zstep_at, penalty, bound_coeff,
          small_step, rule=None, factors=None, histories=True):
    """The splitting iteration both solvers run.

    Five pieces are problem-specific: ``zstep_at(rho)`` returns the
    exact z-step at rho as a function of a = D x - y / rho,
    ``penalty(d)`` is the penalty of an edge-difference array before the
    factor gamma, ``bound_coeff`` a constant c with
    penalty(d) <= c ||d||_F, ``small_step`` is the stopping test that
    joins the shared primal-residual test (it gets the new and the
    previous iterate), and ``rule``, if given, moves rho: every
    ``rule.period`` iterations, after the stopping test and before the
    last iteration, rho becomes ``rule.next(rho, primal, primal_scale,
    dual)``, with ``primal_scale`` = max(||z||, ||D x||) and ``dual()``
    the scaled dual residual rho ||D (x_t - x_{t-1})|| and ||y||.  A new
    rho gets its x-step from ``factors`` and a new z-step; y is the
    unscaled multiplier and carries over as it is.  D x_new is computed
    once per iteration and serves the dual update, the primal residual,
    the objective, the augmented Lagrangian, the stopping test and the
    next z-step.  ``factors``, a :class:`_Factors` of this losses and
    graph, carries x-steps over from earlier solves.

    With ``histories`` false only the final objective and primal
    residual are recorded, and the objective is taken only where the
    divergence guard needs it: while f + gamma c ||D x||_F (with slack
    for rounding) is finite and within the guard, so is the objective,
    whose computed value can only be smaller.  Rounding is monotone, so
    the guard decides as it would on the objective itself.
    """
    x, y = _init_state(losses, graph, x0, y0)
    if factors is None:
        factors = _Factors(losses, graph)
    elif factors.losses is not losses or factors.graph is not graph:
        raise ValueError("factors belong to another problem")
    op = factors.op
    gamma, rho = config.gamma, config.rho
    mode = _resolve_mode(losses, config.x_update)
    xstep = factors.x_step(mode, rho, config.smoothness)
    zstep = zstep_at(rho)
    primal_abs = math.sqrt(losses.dim * graph.num_edges) * config.eps_abs
    eps_rel = config.eps_rel
    bound_coeff *= _BOUND_SLACK
    period = rule.period if rule is not None else 0
    last = config.max_iters

    Dx = op.apply(x)
    state = SolverState(x=x, z=Dx, y=y, rho=rho)
    obj0 = losses.total_value(x) + gamma * penalty(Dx)
    guard = config.divergence_factor * max(1.0, abs(obj0))
    reason = MAX_ITERS

    for t in range(1, last + 1):
        z = zstep(Dx - y / rho)
        x_new = xstep(x, z, y)
        Dx_new = op.apply(x_new)
        gap = z - Dx_new
        y = y + rho * gap

        primal = _norm(gap)
        norm_Dx = _norm(Dx_new)
        f = losses.total_value(x_new)
        obj = None
        if histories:
            obj = f + gamma * penalty(Dx_new)
            dx = _norm(x_new - x)
            # L_rho = f + penalty(z) + <y, gap> + (rho/2) ||gap||^2
            aug = (f + gamma * penalty(z) + float((y * gap).sum())
                   + 0.5 * rho * float((gap * gap).sum()))
            state.objectives.append(obj)
            state.aug_lagrangians.append(aug)
            state.primal_residuals.append(primal)
            state.x_changes.append(dx)
            state.lyapunov.append(aug + config.lyapunov_coeff * dx * dx)
            state.rhos.append(rho)
        else:
            bound = f + gamma * (bound_coeff * norm_Dx)
            if not (math.isfinite(bound) and bound <= guard):
                obj = f + gamma * penalty(Dx_new)

        x, x_old, Dx = x_new, x, Dx_new
        if obj is not None and (not math.isfinite(obj) or obj > guard):
            reason = DIVERGED
            break
        scale = max(_norm(z), norm_Dx)
        if (primal <= primal_abs + eps_rel * scale
                and small_step(config, op, x, x_old, y, rho)):
            reason = CONVERGED
            break
        if period and t % period == 0 and t < last:
            new_rho = rule.next(rho, primal, scale, lambda: (
                rho * _norm(op.apply(x - x_old)), _norm(y)))
            if new_rho != rho:
                rho = new_rho
                xstep = factors.x_step(mode, rho, config.smoothness)
                zstep = zstep_at(rho)

    if not histories:
        if obj is None:
            obj = f + gamma * penalty(Dx)
        state.objectives.append(obj)
        state.primal_residuals.append(primal)
    state.iterations = t
    state.x, state.z, state.y, state.rho = x, z, y, rho
    state.stop_reason = reason
    return state, reason


def solve_ntl(losses, graph, config, x0=None, y0=None, _factors=None,
              _histories=True):
    """Run the splitting iteration on the trimmed problem.

    Parameters
    ----------
    losses : Loss
    graph : WeightedGraph
        Edge weights are ignored by the trimmed penalty; only the edge
        set matters.
    config : SolverConfig
        rho stays fixed, or follows ``config.rho_schedule``, which only
        raises it: the descent conditions of
        :func:`validate_convergence_params` hold for every rho above
        their threshold, and lowering rho could leave them.
    x0 : ndarray (n, p), optional
        Warm start; defaults to the per-node minimizers.
    y0 : ndarray (m, p), optional
        Dual warm start, default zero.

    Returns
    -------
    (SolverState, str)
        Final state and stop reason: "converged" when both the primal
        residual ||z - Dx|| and the step ||x_t - x_{t-1}|| pass their
        mixed absolute/relative tests, "max-iters", or "diverged" when
        the objective exceeds ``divergence_factor`` times its initial
        value (or stops being finite).

    ``_factors`` and ``_histories`` are private: the paths pass one
    :class:`_Factors` to all their solves, and ``_histories=False`` to
    keep only the final values they read (see :class:`SolverState`).
    """
    K, gamma = config.cardinality, config.gamma
    # the m - K smallest of m block norms sum to at most
    # sqrt(m - K) ||D x||_F (Cauchy-Schwarz); none are left for K >= m
    bound_coeff = math.sqrt(max(graph.num_edges - K, 0))

    def zstep_at(rho):
        lam = gamma / rho
        return lambda a: prox_trimmed(a, K, lam)[0]

    return _admm(losses, graph, config, x0, y0, zstep_at,
                 lambda d: trimmed_norm(d, K), bound_coeff, _step_small,
                 config.rho_schedule, _factors, _histories)


def solve_nl(losses, graph, gamma, x0=None, y0=None, rho=1.0,
             x_update="auto", smoothness=None, max_iters=1000,
             eps_abs=1e-5, eps_rel=1e-5, divergence_factor=1e12,
             _factors=None, _histories=True):
    """Run the splitting iteration on the convex (weighted) problem.

    The same iteration as :func:`solve_ntl` with the per-edge weighted
    soft-threshold z-step, default rho 1.0, and the convex stopping rule
    (primal residual plus the scaled dual residual
    rho ||D (x_t - x_{t-1})|| tested against ||y||).  The keywords are
    validated as a :class:`SolverConfig` with cardinality 0, and
    ``_factors`` and ``_histories`` are private, as in :func:`solve_ntl`.

    ``rho`` is the starting penalty, which residual balancing (Boyd et
    al. 2011, section 3.4.1) moves on the relative residuals that the
    stopping test reads (Wohlberg 2017): every 30 iterations that do not
    stop the solve, when ||z - D x|| / max(||z||, ||D x||) and
    rho ||D (x_t - x_{t-1})|| / ||y|| differ by more than a factor 2,
    rho rises (the first the larger) or falls by 2^k, k the nearest
    integer to (1/2) log2 of their ratio within [1, 2] (1 when either is
    zero).  rho therefore stays on the grid ``rho * 2^j``, |j| <= 30,
    clamped to its ends, and ``state.rhos`` records it.  ``y0``
    warm-starts the dual: a dual of the solve at a smaller gamma is a
    good start at a larger one.
    :func:`netlasso.path.gamma_path` chains its steps so, and starts
    each at the previous step's final rho, ``state.rho``.

    Returns (SolverState, str).
    """
    config = SolverConfig(gamma=gamma, cardinality=0, rho=rho,
                          x_update=x_update, smoothness=smoothness,
                          max_iters=max_iters, eps_abs=eps_abs,
                          eps_rel=eps_rel,
                          divergence_factor=divergence_factor)
    w = graph.weights

    def zstep_at(rho):
        lam = gamma * w / rho
        return lambda a: group_shrink(a, lam)

    # sum_e w_e ||d_e|| <= ||w|| ||d||_F (Cauchy-Schwarz)
    return _admm(losses, graph, config, x0, y0, zstep_at,
                 lambda d: float(w @ row_norms(d)), _norm(w), _dual_small,
                 _Balance(rho), _factors, _histories)


# ---------------------------------------------------------------------------
# convergence-theory validation


@dataclass
class ConvergenceParams:
    """Constants entering the descent guarantee, and their verdicts.

    ``sigma`` is the smallest eigenvalue of D D^T (zero when the graph
    has a cycle, which makes the guarantee inapplicable).  L1/alpha1
    bound the curvature of f + phi (phi = 0 for the exact x-step,
    phi = (L/2)||.||^2 - f for the linearized one), L2/alpha2 that of
    phi.  ``rho_min`` is the infimum over r in (0, 1) of the admissible
    threshold 2 (L1^2/r + L2^2/(1-r)) / (sigma (alpha1 + alpha2));
    validation passes when the configured rho exceeds it.  ``zeta`` and
    ``f_inf`` feed the iterate-boundedness condition (zeta < sigma rho r
    for some admissible r, with f bounded below), reported read-only.
    """

    sigma: float
    L1: float
    L2: float
    alpha1: float
    alpha2: float
    rho: float
    rho_min: float
    r_star: float | None
    applicable: bool
    convex_ok: bool
    curvature_ok: bool
    rho_ok: bool
    zeta: float
    f_inf: float | None
    boundedness_ok: bool
    mode: str

    def rho_lower_bound(self, r):
        """Admissible-rho threshold at a given split parameter r."""
        if not 0.0 < r < 1.0:
            raise ValueError("r must lie strictly between 0 and 1")
        if self.sigma <= 0 or self.alpha1 + self.alpha2 <= 0:
            return math.inf
        return (2.0 / (self.sigma * (self.alpha1 + self.alpha2))) \
            * (self.L1 ** 2 / r + self.L2 ** 2 / (1.0 - r))

    @property
    def passed(self):
        return (self.applicable and self.convex_ok and self.curvature_ok
                and self.rho_ok)


def validate_convergence_params(losses, graph, config):
    """Check the sufficient descent conditions for the configured run.

    Evaluates the curvature constants for the configured x-step, the
    surjectivity constant sigma of the difference operator, the minimal
    admissible rho (optimized over the split parameter r), and the
    boundedness condition.  Nothing is enforced: the report says whether
    the guarantee applies, and the solver may still be run outside it.
    """
    sigma = sigma_min_DDt(graph)
    mode = _resolve_mode(losses, config.x_update)
    L_f = losses.max_smoothness()
    if mode == "exact":
        L1, L2 = L_f, 0.0
        alpha1, alpha2 = losses.min_strong_convexity(), 0.0
    else:
        L = config.smoothness if config.smoothness is not None else L_f
        L1 = L2 = alpha1 = L
        alpha2 = 0.0
    applicable = sigma > 0
    convex_ok = bool(getattr(losses, "is_convex", True))
    curvature_ok = alpha1 + alpha2 > 0
    if applicable and curvature_ok:
        rho_min = 2.0 * (L1 + L2) ** 2 / (sigma * (alpha1 + alpha2))
    else:
        rho_min = math.inf
    r_star = L1 / (L1 + L2) if L2 > 0 else None
    rho_ok = config.rho > rho_min

    mins = [losses.minimizer(i) for i in range(losses.num_nodes)]
    if all(mv is not None for mv in mins):
        f_inf = float(sum(losses.value(i, mv) for i, mv in enumerate(mins)))
    else:
        f_inf = None
    zeta = L_f
    params = ConvergenceParams(
        sigma=sigma, L1=L1, L2=L2, alpha1=alpha1, alpha2=alpha2,
        rho=config.rho, rho_min=rho_min, r_star=r_star,
        applicable=applicable, convex_ok=convex_ok,
        curvature_ok=curvature_ok, rho_ok=rho_ok, zeta=zeta, f_inf=f_inf,
        boundedness_ok=False, mode=mode)
    if applicable and curvature_ok and f_inf is not None:
        # need some r in (r_lo, 1) with rho > B(r) = rho_lower_bound(r),
        # that is, rho above the infimum of B over (r_lo, 1).  B is convex
        # on (0, 1) with its minimum rho_min at r_star (its limit at 1
        # when L2 = 0), so that infimum is rho_min when r_lo < r_star and
        # B(r_lo) otherwise
        r_lo = zeta / (sigma * config.rho)
        if r_lo < 1.0:
            top = 1.0 if r_star is None else r_star
            params.boundedness_ok = config.rho > (
                rho_min if r_lo < top else params.rho_lower_bound(r_lo))
    return params


# ---------------------------------------------------------------------------
# optimality certification


@dataclass
class CertificateReport:
    """Subgradient certificate for a convex-problem solution.

    ``max_rel_residual`` is the largest per-node stationarity residual
    ||grad f_i + gamma * sum_e (+/-) w_e g_e|| / (1 + ||grad f_i||);
    ``max_subgrad_norm`` the largest ||g_e|| over merged edges (unmerged
    edges carry the exact unit vector).
    """

    max_rel_residual: float
    max_subgrad_norm: float
    merged_edges: int
    residual_tol: float
    norm_slack: float

    @property
    def passed(self):
        return (self.max_rel_residual <= self.residual_tol
                and self.max_subgrad_norm <= 1.0 + self.norm_slack)


def _lambda_max(lap):
    """Largest eigenvalue of a symmetric sparse matrix, bit-reproducible."""
    if lap.shape[0] <= 64:  # cheaper dense; ARPACK also needs n > 1
        return float(np.linalg.eigvalsh(lap.toarray())[-1])
    v0 = np.random.default_rng(0).random(lap.shape[0])
    return float(eigsh(lap, k=1, which="LA", v0=v0,
                       return_eigenvectors=False)[0])


def _members(labels):
    """Sparse (labels.max() + 1, len(labels)) 0/1 matrix of the labels."""
    return sp.csr_matrix((np.ones(len(labels)),
                          (labels, np.arange(len(labels)))))


def _polish(A, u, b, step, iters):
    """``iters`` projected-gradient steps on ||A u - b||^2 / 2 over the
    unit balls ||u_e|| <= 1, row e with step length ``step[e]``; u is
    updated in place and returned."""
    At = A.T.tocsr()
    for _ in range(iters):
        g = At @ (A @ u - b)
        u -= _scale_rows(g, step, out=g)
        if u.shape[1] <= 2:
            norms = row_norms(u)
        else:  # einsum pairs its sums from 3 columns on: kept for its bits
            norms = np.sqrt(np.einsum("ij,ij->i", u, u))
        _scale_rows(u, np.maximum(norms, 1.0), np.divide, out=u)
    return u


def _residual_floor(edges, gw, eids, b, grad):
    """Per node, a lower bound on the relative residual that the
    certificate computes for any u on the unit balls.

    Node v's residual is -b_v plus +/- gamma w_e u_e over its merged
    edges ``eids``, so its norm is at least ||b_v|| - S_v, S_v the sum
    of those gamma w_e.  Rounding margin: every term of the node's sums
    has norm at most T_v = ||grad_v|| + the gamma w_e of all its edges,
    so each computed sum is within (deg_v + 1) 2^-53 sqrt(p) T_v of its
    exact value, and the projected ||u_e||, the norms and the division
    add a few ulp of T_v.  1e-12 (deg_v + 1) T_v covers all of it for p
    up to 10^6.
    """
    n = len(b)
    S = np.bincount(edges[eids].reshape(-1), np.repeat(gw[eids], 2), n)
    gnorm = row_norms(grad)
    T = gnorm + np.bincount(edges.reshape(-1), np.repeat(gw, 2), n)
    deg = np.bincount(edges.reshape(-1), minlength=n)
    return (row_norms(b) - S - 1e-12 * (deg + 1) * T) / (1.0 + gnorm)


def nl_certificate(x, losses, graph, gamma, merge_tol=1e-6,
                   residual_tol=1e-4, norm_slack=1e-6, refine_iters=2000):
    """Construct an optimality certificate for the convex problem at x.

    Edges left unmerged by :func:`netlasso.graph.merged_components` get
    the exact subgradient (x_i - x_j)/||x_i - x_j||.  The merged edges'
    u minimize ||A u - b||, A (n, k) sparse with ``gamma w_e`` at node i
    and ``-gamma w_e`` at node j of merged edge e, b minus the residual
    of the unmerged edges.  The start is the minimum-norm solution
    u = A^T v, v from sparse solves of grounded Laplacians A A^T, one per
    band of weights.  Merged components where some ||u_e|| > 1 are then
    polished together by projected-gradient steps of 1/||A_c||_2^2 onto
    the unit balls, ``refine_iters`` of them counting the projection of
    the start.

    No polish runs when some node's relative residual exceeds
    ``residual_tol`` for every u on the unit balls (the bound is
    ||b_v|| less the gamma w_e of its merged edges, over
    1 + ||grad f_v||, less a rounding margin): the certificate is then
    rejected whatever the polish does, and the report holds the
    projected start.
    """
    if not 0 <= gamma < math.inf:  # NaN fails every comparison
        raise ValueError("gamma must be finite and non-negative")
    op = DifferenceOperator(graph, losses.dim)
    x = np.asarray(x, dtype=np.float64)
    n, p, m = losses.num_nodes, losses.dim, graph.num_edges
    d = op.apply(x)  # checks the shape of x
    grad = losses.total_gradient(x)
    merged, labels = merged_components(graph, x, merge_tol, d)
    free = ~merged
    g_edges = np.zeros((m, p))
    g_edges[free] = d[free] / row_norms(d[free])[:, None]
    gw = gamma * graph.weights

    # residual contribution of the fixed (unmerged) edges; merged rows
    # stay zero rather than gw * 0, which is NaN where gw overflowed
    c = np.zeros((m, p))
    c[free] = gw[free][:, None] * g_edges[free]
    b = -op.apply_adjoint(c, start=grad)

    eids = np.flatnonzero(merged)
    ecomp = labels[graph.edges[eids, 0]]
    w = gw[eids]
    inc = op._E[eids].T.tocsr()  # (n, k)
    A = (inc @ sp.diags(w)).tocsr()
    # Positive merged edges fall in bands 2^20 (about 1e6) apart below
    # their component's strongest.  Weakest band first, each band's u is
    # the minimum-norm least-squares start over the groups of nodes that
    # the stronger bands join, for b less the weaker bands' flows; the
    # stronger bands then spread those flows in the groups.
    top = np.zeros(n)
    np.maximum.at(top, ecomp, w)
    band = (np.frexp(top[ecomp])[1] - np.frexp(w)[1]) // 20
    pos, rest = w > 0, b.copy()
    u, over = np.zeros((len(eids), p)), np.zeros(len(eids), dtype=bool)
    for level in np.unique(band[pos])[::-1]:
        joined = inc[:, pos & (band < level)]
        group = sp.csgraph.connected_components(joined @ joined.T,
                                                directed=False)[1]
        P, cols = _members(group), np.flatnonzero(pos & (band == level))
        # w / s is in (2^-21, 2), so A_s A_s^T holds no square below 2^-42
        s = np.ldexp(top[ecomp[cols]], -20 * band[cols])
        A_s = P @ inc[:, cols] @ sp.diags(w[cols] / s)
        lap = (A_s @ A_s.T).tocsr()
        piece = sp.csgraph.connected_components(lap, directed=False)[1]
        # rest less its node mean over each piece sums to 0 over each, so
        # a unit added to the diagonal at one group of each piece grounds
        # it there: v = 0 at that group
        M = _members(piece[group])
        r = P @ (rest - M.T @ ((M @ rest) / M.sum(axis=1).A))
        ground = np.zeros(len(piece))
        ground[np.unique(piece, return_index=True)[1]] = 1.0
        solve = factorized((lap + sp.diags(ground)).tocsc())
        u_s = np.zeros((len(cols), p))
        for _ in range(3):  # the solve, then two refinement steps
            u_s += A_s.T @ solve(r - A_s @ u_s)
        norm_s = np.sqrt(np.einsum("ij,ij->i", u_s, u_s))
        over[cols] = norm_s > s
        u[cols] = u_s / np.maximum(norm_s, s)[:, None]  # u_s / s on the balls
        rest -= A[:, cols] @ u[cols]

    hot = np.isin(ecomp, ecomp[over])
    if hot.any() and not (_residual_floor(graph.edges, gw, eids, b, grad)
                          .max() > residual_tol):
        # each component scaled by a power of two near its top, which
        # keeps A A^T finite and leaves every lambda_max bit for bit
        e = np.frexp(top)[1]
        A_e = inc @ sp.diags(np.ldexp(w, -e[ecomp]))
        gram = (A_e @ A_e.T).tocsr()
        lam = {c: np.ldexp(_lambda_max(gram[labels == c][:, labels == c]),
                           2 * e[c]) for c in np.unique(ecomp[hot])}
        step = np.array([1.0 / max(lam[c], 1e-30) for c in ecomp[hot]])
        # The start is on the balls already: from a least-squares start,
        # where A^T (A u - b) = 0, the first step only projects.
        u[hot] = _polish(A[:, hot], u[hot], b, step, refine_iters - 1)
    g_edges[eids] = u

    # final residuals with every edge contribution in place
    final = op.apply_adjoint(gw[:, None] * g_edges, start=grad)
    rel = row_norms(final) / (1.0 + row_norms(grad))
    max_norm = float(row_norms(g_edges).max()) if m else 0.0
    return CertificateReport(
        max_rel_residual=float(rel.max()) if n else 0.0,
        max_subgrad_norm=max_norm,
        merged_edges=int(merged.sum()),
        residual_tol=residual_tol,
        norm_slack=norm_slack)


@dataclass
class StationarityReport(CertificateReport):
    """:func:`nl_certificate` on the subgraph of the trimmed blocks, and
    how those blocks were selected: ``unique``, ``slack`` or ``tie`` (see
    :func:`stationarity_check`).  Only a unique selection with a passing
    certificate passes."""

    selection: str

    @property
    def passed(self):
        return self.selection == "unique" and super().passed


def stationarity_check(x, losses, graph, gamma, cardinality, merge_tol=1e-6):
    """Exact directional-stationarity test for the trimmed problem at x.

    Blocks of D x merged by the rule of
    :func:`netlasso.graph.merged_components` count as zero.  When the
    K-th and (K+1)-th largest block norms differ (``unique``; always for
    K = 0 and K >= m), the set S of the m - K smallest blocks is the same
    at every point near x, where the objective is the convex one
    f + gamma * sum_{e in S} ||(D x)_e|| of the subgraph S with unit
    weights.  x is then d-stationary exactly when :func:`nl_certificate`
    passes on that subgraph (Pang, Razaviyayn & Alvarado 2017, Math.
    Oper. Res.).

    Otherwise the convex objective of S lies above the trimmed one near
    x and equals it at x, so a failing certificate still proves that x
    is not stationary, and a passing one proves nothing.  With fewer than
    K nonzero blocks (``slack``) S is every zero block.  Otherwise S is
    the complement of the keep mask of
    :func:`netlasso.penalty.prox_trimmed`, which at a tie of positive
    norms (``tie``) keeps the tied blocks of lowest index.
    """
    x = np.asarray(x, dtype=np.float64)
    m = graph.num_edges
    K = _check_k(cardinality, m)
    blocks = DifferenceOperator(graph, losses.dim).apply(x)
    norms = row_norms(blocks)
    norms[merged_components(graph, x, merge_tol, blocks)[0]] = 0.0
    keep = _keep_mask(norms, K)
    S = ~keep
    selection = "unique"
    if 0 < K < m and norms[keep].min() == norms[S].max():
        selection = "tie" if norms[S].max() > 0 else "slack"
    if selection == "slack":
        S = norms == 0
    report = nl_certificate(x, losses, WeightedGraph(graph.num_nodes,
                                                     graph.edges[S]),
                            gamma, merge_tol=merge_tol)
    return StationarityReport(**vars(report), selection=selection)
