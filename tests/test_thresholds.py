import json
import math
import tracemalloc

import numpy as np
import pytest
from oracles import (cc_thresholds_slow, dense_recovery_interval,
                     dense_recovery_interval_cc, recovery_thresholds_slow)

from netlasso.datasets import gen_half_moons
from netlasso.graph import (WeightedGraph, complete_graph, knn_gaussian_graph,
                            path_graph)
from netlasso.losses import CustomLoss, Quadratic, RidgeRegression, SquaredDistance
from netlasso.thresholds import (
    bound_C_clustering,
    bound_C_quadratic,
    bound_C_strongly_convex,
    clustering_threshold,
    exact_penalty_threshold,
    recovery_interval,
    recovery_interval_cc,
)


def two_pair_instance(inter_weight):
    """Two clusters of two points each, unit intra weight."""
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    w = inter_weight
    triples = [(0, 1, 1.0), (2, 3, 1.0),
               (0, 2, w), (0, 3, w), (1, 2, w), (1, 3, w)]
    graph = WeightedGraph(4, [(i, j) for i, j, _ in triples],
                          [wt for _, _, wt in triples])
    labels = [0, 0, 1, 1]
    weight_dict = {(i, j): wt for i, j, wt in triples}
    return SquaredDistance(pts), graph, labels, weight_dict


class TestRecoveryInterval:
    def test_hand_values_small_inter_weight(self):
        losses, graph, labels, _ = two_pair_instance(0.1)
        report = recovery_interval(losses, graph, labels)
        # cluster curvature 2, cross sum 4w, mu = 4w for every intra pair
        assert report.aggregate_curvatures == [2.0, 2.0]
        assert report.cross_weights[0, 1] == pytest.approx(0.4)
        for k in range(report.num_clusters):
            assert report.mu_matrix(k)[0, 1] == pytest.approx(0.4)
        assert report.gamma_max == pytest.approx(10.0 / 0.4)
        assert report.gamma_min == pytest.approx(1.0 / (2.0 - 0.4))
        assert report.coarsening_bound == pytest.approx(10.0 / 0.4)
        assert report.premise_ok
        assert report.gamma_min < report.gamma_max

    def test_matches_slow_oracle(self):
        losses, graph, labels, wd = two_pair_instance(0.17)
        report = recovery_interval(losses, graph, labels)
        oracle = recovery_thresholds_slow(
            losses, wd, [[0, 1], [2, 3]])
        assert report.gamma_min == pytest.approx(oracle["gamma_min"],
                                                 rel=1e-9)
        assert report.gamma_max == pytest.approx(oracle["gamma_max"],
                                                 rel=1e-9)
        assert report.coarsening_bound == pytest.approx(
            oracle["coarsening_bound"], rel=1e-9)
        for k, mem in enumerate([[0, 1], [2, 3]]):
            for a, i in enumerate(mem):
                for b, j in enumerate(mem):
                    if i == j:
                        continue
                    assert report.mu_matrix(k)[a, b] == pytest.approx(
                        oracle["mu"][(k, i, j)], rel=1e-9)

    def test_slow_oracle_on_uneven_ridge_instance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=5)
        b = np.array([0.0, 0.1, -0.1, 2.0, 2.1])
        losses = RidgeRegression(a, b, epsilon=0.5)
        triples = [(0, 1, 1.0), (0, 2, 0.9), (1, 2, 1.1), (3, 4, 1.3),
                   (0, 3, 0.02), (2, 4, 0.05)]
        graph = WeightedGraph(5, [(i, j) for i, j, _ in triples],
                              [w for _, _, w in triples])
        labels = [0, 0, 0, 1, 1]
        report = recovery_interval(losses, graph, labels)
        oracle = recovery_thresholds_slow(
            losses, {(i, j): w for i, j, w in triples}, [[0, 1, 2], [3, 4]])
        assert report.gamma_min == pytest.approx(oracle["gamma_min"],
                                                 rel=1e-7)
        assert report.gamma_max == pytest.approx(oracle["gamma_max"],
                                                 rel=1e-7)
        np.testing.assert_allclose(report.cluster_minimizers,
                                   np.stack(oracle["xbar"]), atol=1e-7)

    def test_slow_oracle_on_four_cluster_knn_instance(self):
        rng = np.random.default_rng(2)
        sizes = [4, 5, 6, 7]
        centers = 4.0 * rng.normal(size=(4, 3))
        pts = np.vstack([c + 0.5 * rng.normal(size=(s, 3))
                         for c, s in zip(centers, sizes)])
        labels = np.repeat(np.arange(4), sizes)
        graph = knn_gaussian_graph(pts, 6, alpha=0.1)
        clusters = [np.flatnonzero(labels == k).tolist() for k in range(4)]
        wd = {(int(i), int(j)): float(w)
              for (i, j), w in zip(graph.edges, graph.weights)}
        losses = SquaredDistance(pts)
        report = recovery_interval(losses, graph, labels)
        oracle = recovery_thresholds_slow(losses, wd, clusters)
        assert report.premise_ok
        for key in ("gamma_min", "gamma_max", "coarsening_bound"):
            assert math.isfinite(oracle[key])
            assert getattr(report, key) == pytest.approx(oracle[key],
                                                         rel=1e-9)
        for k, mem in enumerate(clusters):
            for a, i in enumerate(mem):
                for b, j in enumerate(mem):
                    if i != j:
                        assert report.mu_matrix(k)[a, b] == pytest.approx(
                            oracle["mu"][(k, i, j)], rel=1e-9)
        lo, hi = recovery_interval_cc(losses, graph, labels)
        lo_o, hi_o = cc_thresholds_slow(pts, wd, clusters)
        assert lo == pytest.approx(lo_o, rel=1e-9)
        assert hi == pytest.approx(hi_o, rel=1e-9)

    def test_no_dense_node_by_node_memory(self):
        # 300 clusters of 10 on a 3,000-node chain: a dense n x n weight
        # matrix alone would take n^2 * 8 bytes
        n = 3000
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(n, 2))
        labels = np.repeat(np.arange(300), 10)
        graph = path_graph(n)
        for run in (lambda: recovery_interval(SquaredDistance(pts), graph,
                                              labels),
                    lambda: recovery_interval_cc(pts, graph, labels)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8 / 2

    def test_zero_inter_weight_gives_infinite_upper_end(self):
        losses, graph, labels, _ = two_pair_instance(0.0)
        report = recovery_interval(losses, graph, labels)
        assert report.gamma_max == math.inf
        for k in range(report.num_clusters):
            np.testing.assert_allclose(report.mu_matrix(k), 0.0)
        assert report.gamma_min == pytest.approx(0.5)
        assert report.premise_ok

    def test_small_weight_limit(self):
        losses, graph, labels, _ = two_pair_instance(1e-8)
        report = recovery_interval(losses, graph, labels)
        # intra-pair gradient gap over cluster size, in the vanishing
        # inter-weight limit
        assert report.gamma_min == pytest.approx(0.5, rel=1e-6)
        assert report.gamma_max > 1e8

    def test_heavy_inter_weight_breaks_premise(self):
        losses, graph, labels, _ = two_pair_instance(0.6)
        report = recovery_interval(losses, graph, labels)
        # n_k w_ij = 2 while mu = 2.4
        assert not report.premise_ok
        assert report.gamma_min == math.inf
        assert report.failing_pairs[0] == 1

    def test_coincident_minimizers_flagged(self):
        pts = np.array([[0.0], [1.0], [0.0], [1.0]])
        losses = SquaredDistance(pts)
        graph = complete_graph(4)
        report = recovery_interval(losses, graph, [0, 0, 1, 1])
        assert not report.separated_ok[0, 1]
        assert not report.premise_ok

    def test_rejects_non_strictly_convex(self):
        losses = RidgeRegression([1.0, 1.0], [0.0, 1.0], epsilon=0.0)
        with pytest.raises(ValueError):
            recovery_interval(losses, complete_graph(2), [0, 1])

    def test_rejects_sparse_labels(self):
        losses = SquaredDistance(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            recovery_interval(losses, complete_graph(3), [0, 0, 2])

    def test_rejects_wrong_label_count(self):
        losses = SquaredDistance(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            recovery_interval(losses, complete_graph(3), [0, 1])

    def test_rejects_node_count_mismatch(self):
        losses = SquaredDistance(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="node count"):
            recovery_interval(losses, complete_graph(4), [0, 0, 1, 1])

    def test_rejects_bad_supplied_curvature(self):
        losses, graph, labels, _ = two_pair_instance(0.1)
        with pytest.raises(ValueError, match="one aggregate curvature per"):
            recovery_interval(losses, graph, labels, aggregate_curvature=[2.0])
        with pytest.raises(ValueError, match="must be positive"):
            recovery_interval(losses, graph, labels,
                              aggregate_curvature=[2.0, 0.0])

    def test_supplied_curvature_for_custom_loss(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])

        def val(i, x):
            return 0.5 * float((x - pts[i]) @ (x - pts[i]))

        def grad(i, x):
            return x - pts[i]

        custom = CustomLoss(4, 2, val, grad, smoothness=1.0,
                            strong_convexity=0.0,
                            minimizer_fn=lambda i: pts[i])
        _, graph, labels, _ = two_pair_instance(0.1)
        with pytest.raises(ValueError):
            recovery_interval(custom, graph, labels)
        report = recovery_interval(custom, graph, labels,
                                   aggregate_curvature=[2.0, 2.0])
        assert report.curvature_assumed
        assert report.gamma_max == pytest.approx(25.0, rel=1e-6)
        assert report.gamma_min == pytest.approx(1.0 / 1.6, rel=1e-6)

    def test_json_round_trip(self):
        losses, graph, labels, _ = two_pair_instance(0.0)
        report = recovery_interval(losses, graph, labels)
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["gamma_max"] == "inf"
        assert back["gamma_min"] == pytest.approx(0.5)
        assert back["premise_ok"] is True
        assert back["cluster_sizes"] == [2, 2]
        assert back["failing_pairs"] == [0, 0]
        assert "mu" not in back and "pair_ok" not in back


def random_interval_instance(rng, t):
    """Points, labels, a graph and a loss for the edge-only interval:
    N = 1-4 clusters, p = 1-3, kNN, uniform complete, kernel complete and
    kernel complete graphs with zeroed intra-cluster weights, some rows
    duplicated or rounded, and squared-distance or scalar quadratic
    losses."""
    N, p = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    sizes = rng.integers(1, 9, size=N)
    labels = np.repeat(np.arange(N), sizes)
    n = len(labels)
    spread = [0.5, 4.0, 20.0][t % 3]
    pts = spread * rng.normal(size=(N, p))[labels] \
        + 0.3 * rng.normal(size=(n, p))
    if rng.random() < 0.4:
        src = rng.integers(0, n, size=n // 2 + 1)
        dst = rng.integers(0, n, size=n // 2 + 1)
        pts[dst] = pts[src]
    if rng.random() < 0.3:
        pts = np.round(pts)
    kind = (t // 3) % 4
    if kind == 0 and n > 1:
        graph = knn_gaussian_graph(pts, int(rng.integers(1, min(6, n))),
                                   alpha=float(rng.uniform(0.05, 2.0)))
    elif kind == 1:
        graph = complete_graph(n)
    else:
        graph = complete_graph(n, pts, alpha=float(rng.uniform(0.01, 1.0)))
        if kind == 3:
            w = graph.weights.copy()
            intra = labels[graph.edges[:, 0]] == labels[graph.edges[:, 1]]
            w[intra & (rng.random(len(w)) < 0.4)] = 0.0
            graph = WeightedGraph(n, graph.edges, w)
    if rng.random() < 0.3:
        h = rng.uniform(0.5, 2.0, size=n)
        loss = Quadratic(h[:, None, None] * np.eye(p), pts)
    else:
        loss = SquaredDistance(pts)
    return pts, labels, graph, loss


class TestEdgeOnlyInterval:
    def test_matches_dense_reference_bitwise(self):
        rng = np.random.default_rng(15)
        seen = {"premise": 0, "no_premise": 0, "inf": 0, "finite": 0,
                "duplicates": 0}
        for t in range(150):
            pts, labels, graph, loss = random_interval_instance(rng, t)
            report = recovery_interval(loss, graph, labels)
            dense = dense_recovery_interval(loss, graph, labels)
            for key in ("gamma_min", "gamma_max", "coarsening_bound",
                        "premise_ok"):
                assert getattr(report, key) == dense[key], (t, key)
            for k, (mu, ok) in enumerate(zip(dense["mu"], dense["pair_ok"])):
                upper = np.triu_indices(len(ok), k=1)
                assert report.failing_pairs[k] == \
                    np.count_nonzero(~ok[upper]), (t, k)
                assert report.mu_matrix(k).tobytes() == mu.tobytes(), (t, k)
            assert recovery_interval_cc(pts, graph, labels) == \
                dense_recovery_interval_cc(pts, graph, labels), t
            seen["premise" if report.premise_ok else "no_premise"] += 1
            seen["inf" if math.isinf(report.gamma_min) else "finite"] += 1
            seen["duplicates"] += len(np.unique(pts, axis=0)) < len(pts)
        assert min(seen.values()) >= 10, seen

    def test_missing_edge_between_equal_rows_gives_zero(self):
        # nodes 0 and 1 share a point and have no edge: a ratio of 0, so
        # the end comes from the edges alone; the pair still fails
        pts = np.array([[0.0], [0.0], [1.0]])
        graph = WeightedGraph(3, [(0, 2), (1, 2)], [1.0, 1.0])
        report = recovery_interval(SquaredDistance(pts), graph, [0, 0, 0])
        assert report.gamma_min == pytest.approx(1.0 / 3.0)
        assert report.failing_pairs == [1]
        assert not report.premise_ok
        assert recovery_interval_cc(pts, graph, [0, 0, 0])[0] == \
            pytest.approx(1.0 / 3.0)
        pts[1] = 0.5
        assert recovery_interval_cc(pts, graph, [0, 0, 0])[0] == math.inf

    def test_intervals_take_no_cluster_by_cluster_memory(self):
        # two clusters of 1,500 on a kNN graph: one dense n_k x n_k
        # float matrix would take n_k^2 * 8 bytes
        data = gen_half_moons(3000, noise_sd=0.08, seed=7)
        graph = knn_gaussian_graph(data.points, 10, alpha=15.0)
        n_k = 1500
        for run in (lambda: recovery_interval(SquaredDistance(data.points),
                                              graph, data.labels),
                    lambda: recovery_interval_cc(data.points, graph,
                                                 data.labels)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n_k * n_k * 8 / 4


class TestRecoveryIntervalCC:
    def test_zero_inter_weight_formulas(self):
        losses, graph, labels, _ = two_pair_instance(0.0)
        lo, hi = recovery_interval_cc(losses, graph, labels)
        assert hi == math.inf
        assert lo == pytest.approx(1.0 / 2.0)

    def test_specialized_interval_is_wider(self):
        losses, graph, labels, wd = two_pair_instance(0.2)
        report = recovery_interval(losses, graph, labels)
        lo, hi = recovery_interval_cc(losses, graph, labels)
        assert lo <= report.gamma_min
        assert hi == pytest.approx(report.gamma_max, rel=1e-9)
        lo_o, hi_o = cc_thresholds_slow(losses.points, wd,
                                                 [[0, 1], [2, 3]])
        assert lo == pytest.approx(lo_o, rel=1e-9)
        assert hi == pytest.approx(hi_o, rel=1e-9)

    def test_symmetric_weights_cancel(self):
        # both nodes of each cluster see identical cross weights, so the
        # lower threshold denominator is exactly n_k * w_ij
        losses, graph, labels, _ = two_pair_instance(0.3)
        lo, _ = recovery_interval_cc(losses, graph, labels)
        assert lo == pytest.approx(1.0 / 2.0, rel=1e-12)

    def test_rejects_other_loss_family(self):
        losses = RidgeRegression([1.0, 1.0], [0.0, 1.0], epsilon=0.1)
        with pytest.raises(TypeError):
            recovery_interval_cc(losses, complete_graph(2), [0, 1])

    def test_rejects_node_count_mismatch(self):
        with pytest.raises(ValueError, match="node count"):
            recovery_interval_cc(np.zeros((3, 1)), complete_graph(4),
                                 [0, 0, 1, 1])

    def test_accepts_raw_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        _, graph, labels, _ = two_pair_instance(0.1)
        lo_a, hi_a = recovery_interval_cc(pts, graph, labels)
        lo_b, hi_b = recovery_interval_cc(SquaredDistance(pts), graph, labels)
        assert (lo_a, hi_a) == (lo_b, hi_b)


class TestAnchorForms:
    """A 1-D anchor array is one column, as SquaredDistance reads it."""

    FORMS = pytest.mark.parametrize(
        "form", [lambda a: a, lambda a: a[:, None], SquaredDistance],
        ids=["vector", "column", "loss"])

    @FORMS
    def test_bounds(self, form):
        a = np.array([3.0, -4.0, 1.0])
        assert bound_C_clustering(form(a)) == 4.0
        assert clustering_threshold(form(a)) == 36.0

    @FORMS
    def test_cc_interval(self, form):
        a = np.array([0.0, 0.1, 5.0, 5.1])
        lo, hi = recovery_interval_cc(form(a), complete_graph(4),
                                      [0, 0, 1, 1])
        assert lo == pytest.approx(0.05, rel=1e-12)
        assert hi == pytest.approx(1.25, rel=1e-12)


class TestExactPenaltyThreshold:
    def test_two_point_hand_value(self):
        losses = SquaredDistance(np.array([[1.0, 0.0], [0.0, 1.0]]))
        C = bound_C_clustering(losses)
        assert C == 1.0
        th = exact_penalty_threshold(losses, C, method="clustering-C")
        assert th.gamma_star == pytest.approx(6.0)
        assert th.method == "clustering-C"
        assert not th.degenerate

    def test_clustering_never_exceeds_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(2, 9)), 2))
            losses = SquaredDistance(pts)
            th = exact_penalty_threshold(losses, bound_C_clustering(pts))
            assert th.gamma_star <= clustering_threshold(pts) + 1e-12

    def test_closed_form_tight_on_sphere(self):
        # every anchor at the same radius makes the bound exact
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(5, 3))
        pts = 2.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        losses = SquaredDistance(pts)
        th = exact_penalty_threshold(losses, bound_C_clustering(pts))
        assert th.gamma_star == pytest.approx(clustering_threshold(pts),
                                              rel=1e-12)

    def test_centered_quadratic(self):
        A = np.stack([np.diag([2.0, 5.0]), np.diag([1.0, 3.0])])
        B = np.zeros((2, 2))
        losses = Quadratic(A, B)
        th = exact_penalty_threshold(losses, 0.7)
        assert th.gamma_star == pytest.approx(2 * 0.7 * (5.0 + 3.0))

    def test_monotone_in_bound(self):
        rng = np.random.default_rng(9)
        losses = SquaredDistance(rng.normal(size=(4, 2)))
        values = [exact_penalty_threshold(losses, c).gamma_star
                  for c in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_rejects_negative_bound(self):
        losses = SquaredDistance(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            exact_penalty_threshold(losses, -1.0)

    def test_json_dict(self):
        losses = SquaredDistance(np.array([[3.0, 4.0]]))
        th = exact_penalty_threshold(losses, 5.0, method="clustering-C")
        d = json.loads(json.dumps(th.to_json_dict()))
        assert d["bound_C"] == 5.0
        assert d["gamma_star"] == pytest.approx(15.0)
        assert d["degenerate"] is False


class TestSolutionBounds:
    def test_clustering_bound_hand_values(self):
        assert bound_C_clustering(np.array([[3.0, 4.0]])) == 5.0
        assert bound_C_clustering(np.zeros((4, 2))) == 0.0

    def test_clustering_bound_of_no_anchors(self):
        assert bound_C_clustering(np.zeros((0, 2))) == 0.0

    def test_strongly_convex_bound_on_clustering(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(6, 2))
        losses = SquaredDistance(pts)
        expect = math.sqrt(float((pts ** 2).sum())) \
            + float(np.linalg.norm(pts, axis=1).max())
        assert bound_C_strongly_convex(losses) == pytest.approx(expect,
                                                                rel=1e-12)
        # looser than the clustering-specific bound, but still a bound
        assert bound_C_strongly_convex(losses) >= bound_C_clustering(pts)

    def test_strongly_convex_bound_zero_at_origin(self):
        losses = SquaredDistance(np.zeros((3, 2)))
        assert bound_C_strongly_convex(losses) == 0.0

    def test_strongly_convex_rejects_flat_loss(self):
        losses = RidgeRegression([1.0, 1.0], [0.0, 1.0], epsilon=0.0)
        with pytest.raises(ValueError):
            bound_C_strongly_convex(losses)

    def test_custom_loss_node_checks(self):
        # a node without a finite smoothness constant has no exact-penalty
        # threshold, one without a minimizer no strong-convexity bound
        def custom(**kwargs):
            return CustomLoss(2, 1, lambda i, x: float(x @ x),
                              lambda i, x: 2 * x, **kwargs)
        with pytest.raises(ValueError, match="node 1 has no finite"):
            exact_penalty_threshold(custom(smoothness=[2.0, math.inf]), 1.0)
        with pytest.raises(ValueError, match="node 0 exposes no minimizer"):
            bound_C_strongly_convex(custom(smoothness=2.0,
                                           strong_convexity=2.0))

    def test_quadratic_identity_terms(self):
        rng = np.random.default_rng(11)
        B = rng.normal(size=(4, 2))
        A = np.stack([np.eye(2)] * 4)
        losses = Quadratic(A, B)
        expect = math.sqrt(float((B ** 2).sum())) \
            + float(np.linalg.norm(B, axis=1).max())
        assert bound_C_quadratic(losses) == pytest.approx(expect, rel=1e-12)

    def test_quadratic_matches_strongly_convex_route(self):
        rng = np.random.default_rng(12)
        A = []
        for _ in range(3):
            M = rng.normal(size=(2, 2))
            A.append(M @ M.T + 0.5 * np.eye(2))
        A = np.stack(A)
        B = rng.normal(size=(3, 2))
        losses = Quadratic(A, B)
        got = bound_C_quadratic(losses)
        # the same bound assembled by hand
        alpha = min(np.linalg.eigvalsh(A[i])[0] for i in range(3))
        quad = sum(B[i] @ np.linalg.solve(A[i], B[i]) for i in range(3))
        sols = [np.linalg.solve(A[i], B[i]) for i in range(3)]
        expect = math.sqrt(quad / alpha) + max(np.linalg.norm(s)
                                               for s in sols)
        assert got == pytest.approx(expect, rel=1e-12)
        # the strongly-convex route on the same losses agrees
        assert bound_C_strongly_convex(losses) == pytest.approx(got,
                                                                rel=1e-9)

    def test_quadratic_degenerate_and_errors(self):
        A = np.stack([np.eye(2)] * 2)
        losses = Quadratic(A, np.zeros((2, 2)))
        assert bound_C_quadratic(losses) == 0.0
        th = exact_penalty_threshold(losses, bound_C_quadratic(losses))
        assert th.degenerate
        bad = Quadratic(np.stack([np.diag([1.0, 0.0])] * 2),
                        np.zeros((2, 2)))
        with pytest.raises(ValueError):
            bound_C_quadratic(bad)
        opaque = CustomLoss(2, 1, lambda i, x: float(x @ x),
                            lambda i, x: 2 * x, smoothness=2.0)
        with pytest.raises(ValueError):
            bound_C_quadratic(opaque)


class TestClusteringThreshold:
    def test_value(self):
        pts = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert clustering_threshold(pts) == pytest.approx(3 * 2 * 5.0)

    def test_accepts_loss_object(self):
        pts = np.array([[1.0, 0.0]])
        assert clustering_threshold(SquaredDistance(pts)) == 3.0
