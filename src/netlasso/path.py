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

from dataclasses import dataclass, field

import numpy as np

from .graph import merged_components
from .solver import SolverConfig, solve_nl, solve_ntl

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
    labels = np.asarray(labels, dtype=np.int64)
    out = np.empty_like(labels)
    seen = {}
    for idx, lab in enumerate(labels):
        lab = int(lab)
        if lab not in seen:
            seen[lab] = len(seen)
        out[idx] = seen[lab]
    return out


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


def extract_partition(x, graph, merge_tol=1e-6):
    """Clusters = connected components over edges with merged endpoints.

    Which edges count as merged is decided by
    :func:`netlasso.graph.merged_components`.
    """
    if merge_tol < 0:
        raise ValueError("merge_tol must be non-negative")
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
    table = np.zeros((p1.num_clusters, p2.num_clusters))
    np.add.at(table, (p1.labels, p2.labels), 1.0)

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
        params = [s.parameter for s in self.steps]
        diffs = np.diff(params)
        if self.kind == "cardinality" and np.any(diffs >= 0):
            raise ValueError("cardinality sequence must strictly decrease")
        if self.kind == "strength" and np.any(diffs <= 0):
            raise ValueError("strength sequence must strictly increase")

    def parameters(self):
        return [s.parameter for s in self.steps]

    def to_json_dict(self):
        return {"kind": self.kind, "merge_tol": self.merge_tol,
                "steps": [s.to_json_dict() for s in self.steps]}


def k_path(losses, graph, gamma, k_sequence, x0=None, merge_tol=1e-6,
           **solver_options):
    """Decreasing-cardinality sweep of the trimmed solver.

    Each step starts from the previous step's centroids with the dual
    variable reset to zero.  The first step starts from ``x0`` (or the
    per-node minimizers when omitted).
    """
    ks = [int(k) for k in k_sequence]
    if not ks:
        raise ValueError("empty cardinality sequence")
    if any(b >= a for a, b in zip(ks, ks[1:])):
        raise ValueError("cardinality sequence must strictly decrease")
    if ks[0] > graph.num_edges or ks[-1] < 0:
        raise ValueError("cardinalities must lie in [0, num_edges]")

    steps = []
    x = None if x0 is None else np.asarray(x0, dtype=np.float64)
    for K in ks:
        config = SolverConfig(gamma=gamma, cardinality=K, **solver_options)
        state, reason = solve_ntl(losses, graph, config, x0=x)
        x = state.x
        steps.append(PathStep(
            parameter=K,
            centroids=x,
            partition=extract_partition(x, graph, merge_tol),
            objective=state.objectives[-1],
            iterations=state.iterations,
            stop_reason=reason,
            primal_residual=state.primal_residuals[-1]))
    return PathResult(kind="cardinality", steps=steps, merge_tol=merge_tol)


def gamma_path(losses, graph, gamma_sequence, x0=None, warm_start=True,
               stop_on_full_merge=False, merge_tol=1e-6, **solver_options):
    """Increasing-strength sweep of the convex solver.

    With ``stop_on_full_merge`` the sweep ends at the first step whose
    partition is a single cluster (that step is kept).
    """
    gammas = [float(g) for g in gamma_sequence]
    if not gammas:
        raise ValueError("empty strength sequence")
    if any(g <= 0 for g in gammas):
        raise ValueError("strengths must be positive")
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("strength sequence must strictly increase")

    steps = []
    x = None if x0 is None else np.asarray(x0, dtype=np.float64)
    for gamma in gammas:
        state, reason = solve_nl(losses, graph, gamma, x0=x,
                                 **solver_options)
        if warm_start:
            x = state.x
        part = extract_partition(state.x, graph, merge_tol)
        steps.append(PathStep(
            parameter=gamma,
            centroids=state.x,
            partition=part,
            objective=state.objectives[-1],
            iterations=state.iterations,
            stop_reason=reason,
            primal_residual=state.primal_residuals[-1]))
        if stop_on_full_merge and part.num_clusters == 1:
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
    header = ["parameter"] + [f"node{i}_dim{c}"
                              for i in range(n) for c in range(p)]
    stream.write(",".join(header) + "\n")
    for step in path.steps:
        cells = [repr(float(step.parameter))]
        cells.extend(repr(float(v)) for v in step.centroids.reshape(-1))
        stream.write(",".join(cells) + "\n")
