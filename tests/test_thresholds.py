import json
import math
import tracemalloc

import numpy as np
import pytest
from oracles import cc_thresholds_slow, recovery_thresholds_slow

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
        for mu_k in report.mu:
            assert mu_k[0, 1] == pytest.approx(0.4)
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
                    assert report.mu[k][a, b] == pytest.approx(
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
                        assert report.mu[k][a, b] == pytest.approx(
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
        for mu_k in report.mu:
            np.testing.assert_allclose(mu_k, 0.0)
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
        assert not report.pair_ok[0][0, 1]

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

    def test_accepts_raw_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        _, graph, labels, _ = two_pair_instance(0.1)
        lo_a, hi_a = recovery_interval_cc(pts, graph, labels)
        lo_b, hi_b = recovery_interval_cc(SquaredDistance(pts), graph, labels)
        assert (lo_a, hi_a) == (lo_b, hi_b)


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
