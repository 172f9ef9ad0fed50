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

``stationarity_check`` certifies directional stationarity of a candidate
trimmed-problem solution, and ``nl_certificate`` builds an explicit
subgradient certificate of optimality for the convex problem.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, factorized, splu

from .graph import DifferenceOperator, merged_components, sigma_min_DDt
from .penalty import (_derivative_at, _scale_rows, group_shrink, prox_trimmed,
                      row_norms, trimmed_norm)

__all__ = [
    "SolverConfig",
    "RhoSchedule",
    "SolverState",
    "ConvergenceParams",
    "StationarityReport",
    "CertificateReport",
    "CONVERGED",
    "MAX_ITERS",
    "DIVERGED",
    "objective_trimmed",
    "objective_convex",
    "augmented_lagrangian",
    "z_update",
    "z_update_convex",
    "x_update_exact",
    "x_update_linearized",
    "y_update",
    "solve_ntl",
    "solve_nl",
    "validate_convergence_params",
    "stationarity_check",
    "nl_certificate",
]

CONVERGED = "converged"
MAX_ITERS = "max-iters"
DIVERGED = "diverged"


def _is_int(value):
    """An integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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

    def next(self, rho, primal, dual):
        """The rho after a check: the schedule reads no residual."""
        return self.apply(rho)


# Residual balancing, the convex solver's penalty rule (Boyd et al. 2011,
# "Distributed optimization and statistical learning via ADMM",
# section 3.4.1): every _BALANCE_PERIOD iterations rho doubles when the
# primal residual exceeds _BALANCE_RATIO times the dual residual, and
# halves in the opposite case, within rho0 * 2^[-_BALANCE_STEPS,
# _BALANCE_STEPS].  Powers of two keep a path's rho values few, and
# each is factorized once.
_BALANCE_PERIOD = 50
_BALANCE_RATIO = 10.0
_BALANCE_STEPS = 30


class _Balance:
    """Residual balancing from the starting value ``rho0``; ``next`` has
    the interface of :meth:`RhoSchedule.next`, with ``dual`` a function
    that returns rho ||D (x_t - x_{t-1})||."""

    period = _BALANCE_PERIOD

    def __init__(self, rho0):
        # normal floats only: doubling and halving them is exact, so
        # rho / rho0 stays exactly a power of two
        self.lo = max(rho0 / 2.0 ** _BALANCE_STEPS, sys.float_info.min)
        self.hi = min(rho0 * 2.0 ** _BALANCE_STEPS, sys.float_info.max)

    def next(self, rho, primal, dual):
        s = dual()
        if primal > _BALANCE_RATIO * s:
            new = 2.0 * rho
        elif s > _BALANCE_RATIO * primal:
            new = 0.5 * rho
        else:
            return rho
        return new if self.lo <= new <= self.hi else rho


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
# objectives and single update steps


def _lagrangian(f, penalty_z, y, gap, rho):
    """f + penalty(z) + <y, gap> + (rho/2) ||gap||^2 with gap = z - D x."""
    return (f + penalty_z + float((y * gap).sum())
            + 0.5 * rho * float((gap * gap).sum()))


def objective_trimmed(losses, op, x, gamma, K):
    """f(x) + gamma * trimmed_norm(D x, K)."""
    return losses.total_value(x) + gamma * trimmed_norm(op.apply(x), K)


def objective_convex(losses, op, x, gamma, weights):
    """f(x) + gamma * sum_e w_e ||x_i - x_j||."""
    d = row_norms(op.apply(x))
    return losses.total_value(x) + gamma * float(weights @ d)


def augmented_lagrangian(x, z, y, losses, op, gamma, K, rho):
    """L_rho(x, z, y) for the trimmed problem with split z = D x."""
    return _lagrangian(losses.total_value(x), gamma * trimmed_norm(z, K),
                       y, z - op.apply(x), rho)


def z_update(x, y, rho, gamma, K, op):
    """Exact z-step: prox of (gamma/rho) * trimmed_norm at D x - y / rho."""
    a = op.apply(x) - y / rho
    z, _ = prox_trimmed(a, K, gamma / rho)
    return z


def z_update_convex(x, y, rho, gamma, weights, op):
    """Exact z-step of the convex problem: per-edge group soft threshold."""
    a = op.apply(x) - y / rho
    lam = gamma * np.asarray(weights, dtype=np.float64) / rho
    return group_shrink(a, lam)


def _x_step(mode, losses, op, rho, smoothness=None):
    """Factorize the x-subproblem of ``mode`` once and return the step
    as a function of (x, z, y).

    "exact" solves (blockdiag(H) + rho * Laplacian kron I_p) x
    = g + D^T (y + rho z); "linearized" solves (I + (rho/L) Laplacian) x
    = x - grad f(x)/L + D^T (y + rho z)/L with L = ``smoothness``, by
    default the largest per-node smoothness constant.
    """
    n, p = losses.num_nodes, losses.dim
    if mode == "exact":
        terms = losses.quadratic_terms()
        if terms is None:
            raise ValueError("exact x-update needs quadratic losses")
        H, g = terms
        # block row i holds H[i] at block column i: no per-node loop
        blocks = sp.bsr_matrix((H, np.arange(n), np.arange(n + 1)),
                               shape=(n * p, n * p))
        lu = splu(blocks.tocsc()
                  + rho * sp.kron(op.laplacian(), sp.eye(p), format="csc"))
        return lambda x, z, y: lu.solve(
            (g + op.apply_adjoint(y + rho * z)).reshape(-1)).reshape(g.shape)
    L = smoothness if smoothness is not None else losses.max_smoothness()
    if L <= 0:
        raise ValueError("smoothness constant must be positive")
    lu = splu(sp.eye(n, format="csc") + (rho / L) * op.laplacian().tocsc())
    return lambda x, z, y: lu.solve(
        x - losses.total_gradient(x) / L + op.apply_adjoint(y + rho * z) / L)


class _Factors:
    """The difference operator and the x-steps of one (losses, graph)
    pair, kept across the solves of a path so that each x-system is
    factorized once.

    x-steps are keyed by (mode, rho, smoothness): a new rho, as a rho
    schedule makes, or another mode or step constant builds a new one.
    """

    def __init__(self, losses, graph):
        self.losses, self.graph = losses, graph
        self.op = DifferenceOperator(graph, losses.dim)
        self._steps = {}

    def x_step(self, mode, rho, smoothness):
        key = (mode, rho, smoothness)
        if key not in self._steps:
            self._steps[key] = _x_step(mode, self.losses, self.op, rho,
                                       smoothness)
        return self._steps[key]


def x_update_exact(z, y, rho, losses, op):
    """Exact x-step: solve (H + rho D^T D) x = g + D^T (y + rho z).

    With no edges this reduces to the per-node minimizers.
    """
    return _x_step("exact", losses, op, rho)(None, z, y)


def x_update_linearized(x, z, y, rho, losses, op, smoothness=None):
    """Linearized x-step (Bregman variant with phi = (L/2)||.||^2 - f):

        x+ = (I + (rho/L) D^T D)^{-1} (x - grad f(x)/L + D^T(y + rho z)/L)

    Only gradients of the losses are needed.
    """
    return _x_step("linearized", losses, op, rho, smoothness)(x, z, y)


def y_update(y, z, x_new, rho, op):
    """Dual ascent: y + rho * (z - D x_new)."""
    return y + rho * (z - op.apply(x_new))


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
    ravel sums those in another order."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def _step_small(config, op, x_new, x, y, rho):
    """Trimmed stopping test: the step ||x_t - x_{t-1}|| is small."""
    n, p = x_new.shape
    return _norm(x_new - x) <= math.sqrt(p * n) * config.eps_abs \
        + config.eps_rel * _norm(x_new)


def _dual_small(config, op, x_new, x, y, rho):
    """Convex stopping test: the scaled dual residual
    rho ||D (x_t - x_{t-1})|| is small against ||y||."""
    m, p = y.shape
    dual = rho * _norm(op._diff(x_new - x))
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
    last iteration, rho becomes ``rule.next(rho, primal, dual)``, with
    ``dual()`` the scaled dual residual rho ||D (x_t - x_{t-1})||.  A new
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
    diff = op._diff
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
        Dx_new = diff(x_new)
        gap = z - Dx_new
        y = y + rho * gap

        primal = _norm(gap)
        norm_Dx = _norm(Dx_new)
        f = losses.total_value(x_new)
        obj = None
        if histories:
            obj = f + gamma * penalty(Dx_new)
            dx = _norm(x_new - x)
            aug = _lagrangian(f, gamma * penalty(z), y, gap, rho)
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
        if (primal <= primal_abs + eps_rel * max(_norm(z), norm_Dx)
                and small_step(config, op, x, x_old, y, rho)):
            reason = CONVERGED
            break
        if period and t % period == 0 and t < last:
            new_rho = rule.next(rho, primal,
                                lambda: rho * _norm(diff(x - x_old)))
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

    ``rho`` is the starting penalty.  Every 50 iterations that do not
    stop the solve, rho doubles when the primal residual ||z - D x|| is
    more than 10 times the dual residual, and halves in the opposite
    case (residual balancing, Boyd et al. 2011, section 3.4.1).  rho
    therefore stays on the grid ``rho * 2^j``, |j| <= 30, and
    ``state.rhos`` records it.  ``y0`` warm-starts the dual: a dual of
    the solve at a smaller gamma is a good start at a larger one, which
    is how :func:`netlasso.path.gamma_path` chains its steps.

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
    boundedness_ok = False
    if applicable and curvature_ok and f_inf is not None:
        # need some r in (0,1) with rho above the threshold and
        # sigma * rho * r > zeta
        r_lo = zeta / (sigma * config.rho)
        if r_lo < 1.0:
            grid = np.linspace(max(r_lo, 1e-6), 1.0 - 1e-9, 2001)[1:]
            coeff = 2.0 / (sigma * (alpha1 + alpha2))
            bounds = coeff * (L1 ** 2 / grid + L2 ** 2 / (1.0 - grid))
            boundedness_ok = bool(np.any(config.rho > bounds))

    return ConvergenceParams(
        sigma=sigma, L1=L1, L2=L2, alpha1=alpha1, alpha2=alpha2,
        rho=config.rho, rho_min=rho_min, r_star=r_star,
        applicable=applicable, convex_ok=convex_ok,
        curvature_ok=curvature_ok, rho_ok=rho_ok, zeta=zeta, f_inf=f_inf,
        boundedness_ok=boundedness_ok, mode=mode)


# ---------------------------------------------------------------------------
# optimality certification


@dataclass
class StationarityReport:
    """Result of sampling directional derivatives at a candidate point."""

    min_value: float
    worst_kind: str
    num_directions: int
    tolerance: float

    @property
    def passed(self):
        return self.min_value >= -self.tolerance


def stationarity_check(x, losses, graph, gamma, cardinality,
                       num_random=50, tolerance=1e-6, seed=0, tie_tol=0.0,
                       zero_tol=1e-8):
    """Directional-stationarity test for the trimmed problem.

    Samples unit directions v (random, coordinate, edge-aligned, and the
    negative gradient) and evaluates

        grad f(x)^T v + gamma * d trimmed_norm(D x; D v)

    reporting the minimum.  A non-negative minimum (within tolerance) is
    consistent with local optimality; any clearly negative value
    certifies a descent direction.

    Difference blocks with norm below ``zero_tol * (1 + max block norm)``
    are treated as exactly merged before the slope is evaluated.  Solver
    iterates carry residuals at roundoff scale on merged edges, and the
    slope of a block norm flips sign discontinuously there; the snapped
    point is the limit the iterate approximates.
    """
    op = DifferenceOperator(graph, losses.dim)
    x = np.asarray(x, dtype=np.float64)
    n, p = losses.num_nodes, losses.dim
    K = cardinality
    g = losses.total_gradient(x)
    dx = op.apply(x)
    if dx.size:
        norms = row_norms(dx)
        dx = dx.copy()
        dx[norms <= zero_tol * (1.0 + norms.max())] = 0.0
    rng = np.random.default_rng(seed)

    directions = []
    gn = float(np.linalg.norm(g))
    if gn > 0:
        directions.append(("neg-gradient", -g / gn))
    for _ in range(num_random):
        v = rng.normal(size=(n, p))
        directions.append(("random", v / np.linalg.norm(v)))
    coords = [(i, c) for i in range(n) for c in range(p)]
    if len(coords) > 60:
        pick = rng.choice(len(coords), size=60, replace=False)
        coords = [coords[int(t)] for t in pick]
    for i, c in coords:
        v = np.zeros((n, p))
        v[i, c] = 1.0
        directions.append(("coordinate", v))
        directions.append(("coordinate", -v))
    edge_ids = range(graph.num_edges)
    if graph.num_edges > 60:
        edge_ids = sorted(
            int(t) for t in rng.choice(graph.num_edges, size=60,
                                       replace=False))
    for k in edge_ids:
        i, j = graph.edges[k]
        d = dx[k]
        dn = float(np.linalg.norm(d))
        u = d / dn if dn > 0 else np.eye(p)[0]
        v = np.zeros((n, p))
        v[i] = u
        v[j] = -u
        v /= np.linalg.norm(v)
        directions.append(("edge", v))
        directions.append(("edge", -v))

    # the norms of D x, the K-th largest and the ties are fixed: taken
    # once, so that each direction costs one D v and its slopes
    derivative = _derivative_at(dx, K, tie_tol)
    best = math.inf
    worst_kind = "none"
    for kind, v in directions:
        val = float((g * v).sum()) + gamma * derivative(op.apply(v))
        if val < best:
            best = val
            worst_kind = kind
    return StationarityReport(min_value=best, worst_kind=worst_kind,
                              num_directions=len(directions),
                              tolerance=tolerance)


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


def _add_edge_terms(node_sums, edges, c):
    """Add ``c[e]`` to node i and subtract it from node j of edge e.

    Edges apply in the given order, i before j, as in a loop over them;
    a sparse incidence product would regroup the sums.
    """
    p = node_sums.shape[1]
    np.add.at(node_sums, edges.reshape(-1),
              np.stack((c, -c), axis=1).reshape(-1, p))
    return node_sums


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
    """
    op = DifferenceOperator(graph, losses.dim)
    x = np.asarray(x, dtype=np.float64)
    n, p, m = losses.num_nodes, losses.dim, graph.num_edges
    grad = losses.total_gradient(x)
    merged, labels = merged_components(graph, x, merge_tol)
    free = ~merged
    d = op.apply(x)[free]
    g_edges = np.zeros((m, p))
    g_edges[free] = d / row_norms(d)[:, None]
    gw = gamma * graph.weights

    # residual contribution of the fixed (unmerged) edges
    b = -_add_edge_terms(grad.copy(), graph.edges[free],
                         gw[free][:, None] * g_edges[free])

    eids = np.flatnonzero(merged)
    ecomp = labels[graph.edges[eids, 0]]
    w = gw[eids]
    inc = graph.incidence()[eids].T.tocsr()  # (n, k)
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
    if hot.any():
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
    final = _add_edge_terms(grad.copy(), graph.edges, gw[:, None] * g_edges)
    rel = row_norms(final) / (1.0 + row_norms(grad))
    max_norm = float(row_norms(g_edges).max()) if m else 0.0
    return CertificateReport(
        max_rel_residual=float(rel.max()) if n else 0.0,
        max_subgrad_norm=max_norm,
        merged_edges=int(merged.sum()),
        residual_tol=residual_tol,
        norm_slack=norm_slack)
