"""Warm-start regularization paths, cluster extraction, and partition scores.

The solvers return one centroid per node; clusters are read off the
merge pattern of the solution.  This module extracts that pattern,
compares partitions, scores them, and drives full paths: a decreasing
cardinality sweep for the trimmed solver, and an increasing strength
sweep for the convex one, both with warm starts.

Clusters are connected components of the merged-edge subgraph.  Two
nodes with equal centroids but no merged path between them stay in
separate clusters; with the usual connected graphs the distinction
never shows up, but it is the rule used everywhere here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import _write_rows
from .graph import merged_components
from .solver import SolverConfig, _Factors, _is_int, solve_nl, solve_ntl

__all__ = [
    "Partition",
    "PathStep",
    "PathResult",
    "extract_partition",
    "partition_relation",
    "adjusted_rand_index",
    "k_path",
    "gamma_path",
    "midpoint_init",
    "save_path_json",
    "save_centroids_csv",
]


def canonical_labels(labels):
    """Relabel cluster ids in order of first occurrence."""
    _, first, inverse = np.unique(np.asarray(labels, dtype=np.int64),
                                  return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first)).astype(np.int64)[inverse]


@dataclass(frozen=True)
class Partition:
    """Dense per-node cluster labels, canonicalized by first occurrence."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        counts = np.bincount(labels)
        if np.any(counts == 0):
            raise ValueError("cluster ids must be dense")
        object.__setattr__(self, "labels", canonical_labels(labels))

    @property
    def num_nodes(self):
        return len(self.labels)

    @property
    def num_clusters(self):
        return int(self.labels.max()) + 1

    def clusters(self):
        return [np.flatnonzero(self.labels == k)
                for k in range(self.num_clusters)]

    def same_as(self, other):
        return self.num_nodes == other.num_nodes \
            and bool(np.array_equal(self.labels, other.labels))


def _check_merge_tol(merge_tol):
    if not 0 <= merge_tol < math.inf:  # NaN fails every comparison
        raise ValueError("merge_tol must be finite and non-negative")


def extract_partition(x, graph, merge_tol=1e-6):
    """Clusters = connected components over edges with merged endpoints.

    Which edges count as merged is decided by
    :func:`netlasso.graph.merged_components`.
    """
    _check_merge_tol(merge_tol)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) != graph.num_nodes:
        raise ValueError("centroid count does not match the graph")
    return Partition(merged_components(graph, x, merge_tol)[1])


def partition_relation(p_hat, p_true):
    """How a computed partition relates to a reference one.

    Returns one of "perfect", "nontrivial-coarsening",
    "trivial-coarsening" (the single-cluster partition, unless the
    reference itself is that, which is perfect recovery), or "other".
    """
    if p_hat.num_nodes != p_true.num_nodes:
        raise ValueError("partitions cover different node counts")
    if p_hat.same_as(p_true):
        return "perfect"
    if p_hat.num_clusters == 1:
        return "trivial-coarsening"
    # coarsening iff no reference cluster is split across two clusters
    for nodes in p_true.clusters():
        if len(set(p_hat.labels[nodes].tolist())) > 1:
            return "other"
    return "nontrivial-coarsening"


def adjusted_rand_index(p1, p2):
    """Chance-corrected pair-counting agreement between two partitions.

    1 for identical partitions, about 0 for independent ones; defined
    as 1 when the correction leaves nothing to normalize (e.g. both
    partitions all-singletons).
    """
    if p1.num_nodes != p2.num_nodes:
        raise ValueError("partitions cover different node counts")
    n = p1.num_nodes

    def comb2(counts):
        # integer-valued terms, so the sum is exact in any order
        v = counts.astype(np.float64)
        return float((v * (v - 1.0) / 2.0).sum())

    total = n * (n - 1.0) / 2.0
    if total == 0.0:
        return 1.0
    # the non-empty cells of the contingency table, without the table
    cells = np.unique(np.column_stack((p1.labels, p2.labels)), axis=0,
                      return_counts=True)[1]
    index = comb2(cells)
    a = comb2(np.bincount(p1.labels))
    b = comb2(np.bincount(p2.labels))
    expected = a * b / total
    max_index = (a + b) / 2.0
    if max_index == expected:
        return 1.0
    return (index - expected) / (max_index - expected)


@dataclass
class PathStep:
    """One solved point on a regularization path."""

    parameter: float
    centroids: np.ndarray
    partition: Partition
    objective: float
    iterations: int
    stop_reason: str
    primal_residual: float

    def to_json_dict(self):
        return {
            "parameter": self.parameter,
            "objective": self.objective,
            "num_clusters": self.partition.num_clusters,
            "labels": self.partition.labels.tolist(),
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "primal_residual": self.primal_residual,
        }


@dataclass
class PathResult:
    """Ordered steps of a cardinality or strength sweep."""

    kind: str
    steps: list = field(default_factory=list)
    merge_tol: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("cardinality", "strength"):
            raise ValueError("kind must be 'cardinality' or 'strength'")
        diffs = np.diff(self.parameters())
        if self.kind == "cardinality" and np.any(diffs >= 0):
            raise ValueError("cardinality sequence must strictly decrease")
        if self.kind == "strength" and np.any(diffs <= 0):
            raise ValueError("strength sequence must strictly increase")

    def parameters(self):
        return [s.parameter for s in self.steps]

    def to_json_dict(self):
        return {"kind": self.kind, "merge_tol": self.merge_tol,
                "steps": [s.to_json_dict() for s in self.steps]}


def _path_step(parameter, state, graph, merge_tol, blocks):
    """The step at ``parameter`` of a path solve's final state, its
    partition read from the edge ``blocks``."""
    return PathStep(
        parameter=parameter,
        centroids=state.x,
        partition=Partition(
            merged_components(graph, state.x, merge_tol, blocks)[1]),
        objective=state.objectives[-1],
        iterations=state.iterations,
        stop_reason=state.stop_reason,
        primal_residual=state.primal_residuals[-1])


def k_path(losses, graph, gamma, k_sequence, x0=None, merge_tol=1e-6,
           **solver_options):
    """Decreasing-cardinality sweep of the trimmed solver.

    Each step starts from the previous step's centroids with the dual
    variable reset to zero.  The first step starts from ``x0`` (or the
    per-node minimizers when omitted).  The steps share one difference
    operator and factorize each x-system once.
    """
    ks = list(k_sequence)
    if not ks:
        raise ValueError("empty cardinality sequence")
    if not all(_is_int(k) for k in ks):
        raise ValueError("cardinalities must be integers")
    ks = [int(k) for k in ks]
    if any(b >= a for a, b in zip(ks, ks[1:])):
        raise ValueError("cardinality sequence must strictly decrease")
    if ks[0] > graph.num_edges or ks[-1] < 0:
        raise ValueError("cardinalities must lie in [0, num_edges]")
    _check_merge_tol(merge_tol)

    steps = []
    x = None if x0 is None else np.asarray(x0, dtype=np.float64)
    factors = _Factors(losses, graph)
    for K in ks:
        config = SolverConfig(gamma=gamma, cardinality=K, **solver_options)
        state, _ = solve_ntl(losses, graph, config, x0=x, _factors=factors,
                             _histories=False)
        x = state.x
        steps.append(_path_step(K, state, graph, merge_tol,
                                factors.op.apply(x)))
    return PathResult(kind="cardinality", steps=steps, merge_tol=merge_tol)


# Largest ratio of strength steps at which gamma_path extrapolates its
# warm start.  The path is piecewise linear in gamma between merges,
# but a long step crosses merges the secant cannot see: on the
# README's two-line gamma-path (grid 0.01, 3, 5, ratio about 4.2) an
# unguarded secant sends the third step to max_iters at eps 1e-8 (940
# path iterations become 1,485).
_SECANT_MAX_RATIO = 2.0


def gamma_path(losses, graph, gamma_sequence, x0=None, warm_start=True,
               stop_on_full_merge=False, merge_tol=1e-6, **solver_options):
    """Increasing-strength sweep of the convex solver.

    With ``warm_start`` each step starts from the previous step's
    centroids, dual variable and final rho; a dual feasible at a smaller
    strength stays feasible at a larger one.  From the third step on,
    the start is the secant through the last two steps instead,
    ``x_{k-1} + t (x_{k-1} - x_{k-2})`` and ``y`` likewise, with
    ``t = (g_k - g_{k-1}) / (g_{k-1} - g_{k-2})``: between merge events
    the solution and its dual are linear in the strength for squared
    distances on a chain (Hoefling 2010; Tibshirani & Taylor 2011), so
    the secant lands on the next solution until a merge.  It is taken
    only when ``t <= 2``; a longer step crosses merges the secant cannot
    see and can start farther off than the previous step itself.  rho
    is carried either way, and every step still passes the solver's own
    stopping test.  Without ``warm_start`` every step starts from ``x0``
    (or the per-node minimizers), a zero dual and the configured rho.
    Each step's partition is read from the solver's final z, whose
    merged blocks the z-step sets to exactly zero, by the rule of
    :func:`netlasso.graph.merged_components`.  With
    ``stop_on_full_merge`` the sweep ends at the first step whose
    partition is a single cluster (that step is kept).  As in
    :func:`k_path`, each x-system is factorized once: once per distinct
    rho the balancing visits.
    """
    gammas = [float(g) for g in gamma_sequence]
    if not gammas:
        raise ValueError("empty strength sequence")
    if not all(0 < g < math.inf for g in gammas):
        raise ValueError("strengths must be finite and positive")
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("strength sequence must strictly increase")
    _check_merge_tol(merge_tol)

    steps = []
    x = None if x0 is None else np.asarray(x0, dtype=np.float64)
    y = None
    options = solver_options
    factors = _Factors(losses, graph)
    last = None  # the previous step's state, once warm starts chain
    for k, gamma in enumerate(gammas):
        state, _ = solve_nl(losses, graph, gamma, x0=x, y0=y,
                            _factors=factors, _histories=False, **options)
        if warm_start:
            x, y = state.x, state.y
            options = {**solver_options, "rho": state.rho}
            if last is not None and k + 1 < len(gammas):
                t = (gammas[k + 1] - gamma) / (gamma - gammas[k - 1])
                if t <= _SECANT_MAX_RATIO:
                    x = state.x + t * (state.x - last.x)
                    y = state.y + t * (state.y - last.y)
            last = state
        steps.append(_path_step(gamma, state, graph, merge_tol, state.z))
        if stop_on_full_merge and steps[-1].partition.num_clusters == 1:
            break
    return PathResult(kind="strength", steps=steps, merge_tol=merge_tol)


def midpoint_init(path):
    """Centroids at the middle step that still has unmerged clusters.

    Useful as a warm start for the trimmed solver after a convex sweep:
    late steps are over-merged, early steps barely differ from the
    unpenalized fit, the middle carries structure.
    """
    eligible = [s for s in path.steps if s.partition.num_clusters > 1]
    if not eligible:
        raise ValueError("every path step is fully merged")
    return eligible[len(eligible) // 2].centroids


def save_path_json(path, stream):
    """Write a PathResult as deterministic JSON (sorted keys)."""
    import json

    json.dump(path.to_json_dict(), stream, sort_keys=True, indent=2)
    stream.write("\n")


def save_centroids_csv(path, stream):
    """Wide CSV of centroid trajectories: one row per step.

    Columns are the step parameter followed by every centroid
    coordinate, node-major.  Floats are written with full precision via
    repr, so reading the file back reproduces the exact values.
    """
    if not path.steps:
        raise ValueError("empty path")
    n, p = path.steps[0].centroids.shape
    _write_rows(stream, ",".join(
        ["parameter"] + [f"node{i}_dim{c}" for i in range(n)
                         for c in range(p)]),
        ([step.parameter, *step.centroids.reshape(-1)]
         for step in path.steps))
