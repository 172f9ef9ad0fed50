import math
import time

import numpy as np
import pytest
import scipy.linalg
from oracles import brute_force_prox_trimmed, enumerate_set_partitions

from netlasso.graph import (
    DifferenceOperator,
    WeightedGraph,
    complete_graph,
    knn_gaussian_graph,
    path_graph,
)
from netlasso.losses import (CustomLoss, Quadratic, RidgeRegression,
                             SquaredDistance)
from netlasso.penalty import prox_group_l2, trimmed_norm
from netlasso.solver import (
    CONVERGED,
    DIVERGED,
    RhoSchedule,
    SolverConfig,
    augmented_lagrangian,
    nl_certificate,
    objective_convex,
    objective_trimmed,
    solve_nl,
    solve_ntl,
    stationarity_check,
    validate_convergence_params,
    x_update_exact,
    x_update_linearized,
    y_update,
    z_update,
    z_update_convex,
)


def brute_force_cardinality_optimum(points, graph, K):
    """Best objective over all merge patterns with <= K unmerged edges.

    Enumerates every set partition of the nodes, counts the edges that
    cross between parts, and for feasible patterns sums the exact
    within-part clustering costs (each part sits at its mean).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    best = np.inf
    for parts in enumerate_set_partitions(range(n)):
        label = {}
        for t, part in enumerate(parts):
            for v in part:
                label[v] = t
        crossing = sum(1 for i, j in graph.edges if label[i] != label[j])
        if crossing > K:
            continue
        cost = 0.0
        for part in parts:
            mean = points[part].mean(axis=0)
            cost += 0.5 * float(((points[part] - mean) ** 2).sum())
        best = min(best, cost)
    return best


def four_node_split_instance():
    """Two tight pairs on a path; K = 1 admits exactly one crossing."""
    pts = np.array([0.0, 0.1, 5.0, 5.1])
    return SquaredDistance(pts), path_graph(4)


class TestAugmentedLagrangian:
    def test_feasible_split_recovers_objective(self):
        rng = np.random.default_rng(0)
        losses = SquaredDistance(rng.normal(size=(5, 2)))
        g = complete_graph(5)
        op = DifferenceOperator(g, 2)
        x = rng.normal(size=(5, 2))
        z = op.apply(x)
        y = rng.normal(size=(g.num_edges, 2))
        val = augmented_lagrangian(x, z, y, losses, op, 0.7, 2, 3.0)
        assert val == pytest.approx(
            objective_trimmed(losses, op, x, 0.7, 2), rel=1e-12)

    def test_zero_state_value(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(4, 3))
        losses = SquaredDistance(pts)
        g = complete_graph(4)
        op = DifferenceOperator(g, 3)
        val = augmented_lagrangian(np.zeros((4, 3)),
                                   np.zeros((g.num_edges, 3)),
                                   np.zeros((g.num_edges, 3)),
                                   losses, op, 1.0, 1, 2.0)
        assert val == pytest.approx(0.5 * float((pts ** 2).sum()), rel=1e-12)

    def test_matches_slow_reassembly(self):
        rng = np.random.default_rng(2)
        losses = SquaredDistance(rng.normal(size=(4, 2)))
        g = path_graph(4)
        op = DifferenceOperator(g, 2)
        x = rng.normal(size=(4, 2))
        z = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 2))
        gamma, K, rho = 0.9, 1, 2.5
        gap = z - op.apply(x)
        expect = losses.total_value(x) + gamma * trimmed_norm(z, K) \
            + float((y * gap).sum()) + rho / 2 * float((gap * gap).sum())
        got = augmented_lagrangian(x, z, y, losses, op, gamma, K, rho)
        assert got == pytest.approx(expect, rel=1e-12)


class TestZUpdate:
    def test_k_equal_m_passes_through(self):
        rng = np.random.default_rng(3)
        g = complete_graph(4)
        op = DifferenceOperator(g, 2)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(6, 2))
        z = z_update(x, y, 2.0, 5.0, 6, op)
        np.testing.assert_allclose(z, op.apply(x) - y / 2.0)

    def test_k_zero_is_soft_threshold(self):
        rng = np.random.default_rng(4)
        g = path_graph(5)
        op = DifferenceOperator(g, 1)
        x = rng.normal(size=(5, 1))
        y = rng.normal(size=(4, 1))
        rho, gamma = 3.0, 0.6
        z = z_update(x, y, rho, gamma, 0, op)
        a = op.apply(x) - y / rho
        for k in range(4):
            np.testing.assert_allclose(z[k], prox_group_l2(a[k], gamma / rho))

    def test_minimizes_partial_lagrangian(self):
        rng = np.random.default_rng(5)
        g = complete_graph(4)
        op = DifferenceOperator(g, 1)
        losses = SquaredDistance(rng.normal(size=(4, 1)))
        x = rng.normal(size=(4, 1))
        y = rng.normal(size=(6, 1))
        rho, gamma, K = 2.0, 1.3, 2
        z = z_update(x, y, rho, gamma, K, op)
        ours = augmented_lagrangian(x, z, y, losses, op, gamma, K, rho)
        a = op.apply(x) - y / rho
        zb, _ = brute_force_prox_trimmed(a, K, gamma / rho)
        best = augmented_lagrangian(x, zb, y, losses, op, gamma, K, rho)
        assert ours <= best + 1e-10


class TestXUpdates:
    def test_exact_edgeless_gives_minimizers(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(3, 2))
        losses = SquaredDistance(pts)
        g = WeightedGraph(3, np.empty((0, 2)))
        op = DifferenceOperator(g, 2)
        x = x_update_exact(np.zeros((0, 2)), np.zeros((0, 2)), 2.0, losses, op)
        np.testing.assert_allclose(x, pts, atol=1e-12)

    def test_exact_two_node_hand_value(self):
        losses = SquaredDistance(np.array([0.0, 2.0]))
        g = path_graph(2)
        op = DifferenceOperator(g, 1)
        x = x_update_exact(np.zeros((1, 1)), np.zeros((1, 1)), 1.0, losses, op)
        np.testing.assert_allclose(x, [[2.0 / 3.0], [4.0 / 3.0]], rtol=1e-12)

    def test_exact_zeroes_lagrangian_gradient(self):
        rng = np.random.default_rng(7)
        losses = SquaredDistance(rng.normal(size=(6, 2)))
        g = complete_graph(6)
        op = DifferenceOperator(g, 2)
        z = rng.normal(size=(g.num_edges, 2))
        y = rng.normal(size=(g.num_edges, 2))
        rho = 2.7
        x = x_update_exact(z, y, rho, losses, op)
        grad = losses.total_gradient(x) \
            - op.apply_adjoint(y + rho * (z - op.apply(x)))
        assert np.abs(grad).max() <= 1e-9

    @pytest.mark.parametrize("case", ["ridge-zero-input", "quadratic-knn"])
    def test_exact_non_identity_blocks_match_dense_solve(self, case):
        rng = np.random.default_rng(13)
        if case == "ridge-zero-input":
            a = rng.normal(size=7)
            a[2] = 0.0  # its Hessian block has exact zeros off the diagonal
            losses = RidgeRegression(a, rng.normal(size=7), epsilon=0.3)
            graph = complete_graph(7)
        else:
            A = rng.normal(size=(20, 3, 3))
            A = A @ A.transpose(0, 2, 1) + 0.5 * np.eye(3)
            losses = Quadratic(A, rng.normal(size=(20, 3)))
            graph = knn_gaussian_graph(rng.normal(size=(20, 2)), k=4)
        p = losses.dim
        op = DifferenceOperator(graph, p)
        z = rng.normal(size=(graph.num_edges, p))
        y = rng.normal(size=(graph.num_edges, p))
        rho = 1.9
        x = x_update_exact(z, y, rho, losses, op)
        H, g = losses.quadratic_terms()
        D = op.to_dense()
        M = scipy.linalg.block_diag(*H) + rho * D.T @ D
        rhs = g.reshape(-1) + D.T @ (y + rho * z).reshape(-1)
        expected = np.linalg.solve(M, rhs).reshape(g.shape)
        assert np.linalg.norm(x - expected) \
            <= 1e-10 * np.linalg.norm(expected)

    def test_exact_requires_quadratic(self):
        losses = CustomLoss(2, 1, lambda i, x: float(x @ x),
                            lambda i, x: 2 * x, smoothness=2.0)
        op = DifferenceOperator(path_graph(2), 1)
        with pytest.raises(ValueError):
            x_update_exact(np.zeros((1, 1)), np.zeros((1, 1)), 1.0,
                           losses, op)

    def test_linearized_edgeless_is_gradient_step(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(3, 2))
        losses = SquaredDistance(pts)
        g = WeightedGraph(3, np.empty((0, 2)))
        op = DifferenceOperator(g, 2)
        x = rng.normal(size=(3, 2))
        out = x_update_linearized(x, np.zeros((0, 2)), np.zeros((0, 2)),
                                  5.0, losses, op, smoothness=2.0)
        np.testing.assert_allclose(out, x - losses.total_gradient(x) / 2.0,
                                   atol=1e-12)

    def test_linearized_fixed_point(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(5, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(5)
        op = DifferenceOperator(g, 2)
        z = op.apply(pts)
        out = x_update_linearized(pts, z, np.zeros_like(z), 3.0, losses, op)
        np.testing.assert_allclose(out, pts, atol=1e-10)

    def test_linearized_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        losses = SquaredDistance(rng.normal(size=(5, 2)))
        g = complete_graph(5)
        op = DifferenceOperator(g, 2)
        x = rng.normal(size=(5, 2))
        z = rng.normal(size=(g.num_edges, 2))
        y = rng.normal(size=(g.num_edges, 2))
        rho, L = 2.0, 1.0
        out = x_update_linearized(x, z, y, rho, losses, op, smoothness=L)
        D = op.to_dense()
        M = L * np.eye(10) + rho * D.T @ D
        rhs = L * x.reshape(-1) - losses.total_gradient(x).reshape(-1) \
            + D.T @ (y + rho * z).reshape(-1)
        np.testing.assert_allclose(out.reshape(-1),
                                   np.linalg.solve(M, rhs), atol=1e-10)

    def test_y_update_identity_bitwise(self):
        rng = np.random.default_rng(11)
        g = path_graph(4)
        op = DifferenceOperator(g, 2)
        y = rng.normal(size=(3, 2))
        z = rng.normal(size=(3, 2))
        x_new = rng.normal(size=(4, 2))
        rho = 1.7
        y_new = y_update(y, z, x_new, rho, op)
        assert np.array_equal(y_new, y + rho * (z - op.apply(x_new)))


class TestSolveNtl:
    def test_k_equals_m_decouples(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(5, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(5)
        cfg = SolverConfig(gamma=2.0, cardinality=g.num_edges, rho=10.0,
                           eps_abs=1e-10, eps_rel=1e-10, max_iters=2000)
        state, reason = solve_ntl(losses, g, cfg)
        assert reason == CONVERGED
        np.testing.assert_allclose(state.x, pts, atol=1e-6)

    def test_gamma_zero_decouples(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(4, 1))
        losses = SquaredDistance(pts)
        cfg = SolverConfig(gamma=0.0, cardinality=0, rho=5.0,
                           eps_abs=1e-10, eps_rel=1e-10, max_iters=2000)
        state, reason = solve_ntl(losses, path_graph(4), cfg)
        assert reason == CONVERGED
        np.testing.assert_allclose(state.x, pts, atol=1e-6)

    def test_split_instance_matches_partition_oracle(self):
        losses, g = four_node_split_instance()
        n, C = 4, 5.1
        gamma = 3 * n * C * 1.001
        cfg = SolverConfig(gamma=gamma, cardinality=1, rho=100.0,
                           eps_abs=1e-12, eps_rel=1e-12, max_iters=5000)
        state, reason = solve_ntl(losses, g, cfg)
        assert reason == CONVERGED
        tau = trimmed_norm(DifferenceOperator(g, 1).apply(state.x), 1)
        assert tau <= 1e-6
        obj = objective_trimmed(losses, DifferenceOperator(g, 1), state.x,
                                gamma, 1)
        best = brute_force_cardinality_optimum(losses.points, g, 1)
        assert obj == pytest.approx(best, abs=1e-6)
        # the two tight pairs collapse onto their means
        np.testing.assert_allclose(state.x.reshape(-1),
                                   [0.05, 0.05, 5.05, 5.05], atol=1e-4)

    def test_k_zero_matches_convex_solver(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(5, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(5)  # unit weights
        gamma = 0.3
        cfg = SolverConfig(gamma=gamma, cardinality=0, rho=50.0,
                           eps_abs=1e-11, eps_rel=1e-11, max_iters=20000)
        state_t, _ = solve_ntl(losses, g, cfg)
        state_c, _ = solve_nl(losses, g, gamma, rho=1.0,
                              eps_abs=1e-11, eps_rel=1e-11, max_iters=20000)
        op = DifferenceOperator(g, 2)
        obj_t = objective_trimmed(losses, op, state_t.x, gamma, 0)
        obj_c = objective_convex(losses, op, state_c.x, gamma, g.weights)
        assert obj_t == pytest.approx(obj_c, abs=1e-6)

    def test_divergence_guard_trips_on_bad_step_size(self):
        rng = np.random.default_rng(15)
        losses = SquaredDistance(rng.normal(size=(4, 1)))
        cfg = SolverConfig(gamma=1.0, cardinality=1, rho=1.0,
                           x_update="linearized", smoothness=0.01,
                           max_iters=200)
        state, reason = solve_ntl(losses, path_graph(4), cfg)
        assert reason == DIVERGED
        assert state.iterations < 200

    def test_histories_align_with_iterations(self):
        rng = np.random.default_rng(16)
        losses = SquaredDistance(rng.normal(size=(4, 2)))
        cfg = SolverConfig(gamma=0.5, cardinality=2, rho=10.0, max_iters=50,
                           eps_abs=0.0, eps_rel=0.0)
        state, reason = solve_ntl(losses, complete_graph(4), cfg)
        assert state.iterations == 50
        for hist in (state.objectives, state.aug_lagrangians,
                     state.primal_residuals, state.x_changes,
                     state.lyapunov, state.rhos):
            assert len(hist) == 50

    def test_rho_schedule_steps_and_caps(self):
        rng = np.random.default_rng(17)
        losses = SquaredDistance(rng.normal(size=(4, 1)))
        cfg = SolverConfig(gamma=0.5, cardinality=1, rho=1.0,
                           max_iters=16, eps_abs=0.0, eps_rel=0.0,
                           rho_schedule=RhoSchedule(multiplier=10.0,
                                                    cap=50.0, period=5))
        state, _ = solve_ntl(losses, path_graph(4), cfg)
        assert state.rhos[:5] == [1.0] * 5
        assert state.rhos[5:10] == [10.0] * 5
        assert state.rhos[10:] == [50.0] * 6
        diffs = np.diff(state.rhos)
        assert np.all(diffs >= 0)

    def test_lyapunov_descends_under_validated_rho(self):
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(12, 1))
        losses = SquaredDistance(pts)
        g = path_graph(12)
        sigma = 2.0 * (1.0 - math.cos(math.pi / 12))
        rho = 2.0 / (sigma * 0.9) * 1.01  # exact-step bound at r = 0.9
        cfg = SolverConfig(gamma=0.8, cardinality=3, rho=rho,
                           max_iters=200, eps_abs=0.0, eps_rel=0.0)
        params = validate_convergence_params(losses, g, cfg)
        assert params.passed
        state, _ = solve_ntl(losses, g, cfg)
        seq = np.array(state.lyapunov)
        assert np.all(np.diff(seq) <= 1e-8)

    def test_node_count_mismatch(self):
        losses = SquaredDistance(np.zeros((3, 1)))
        cfg = SolverConfig(gamma=1.0, cardinality=0)
        with pytest.raises(ValueError):
            solve_ntl(losses, path_graph(4), cfg)


class TestSolveNl:
    def test_gamma_zero_decouples(self):
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(5, 2))
        losses = SquaredDistance(pts)
        state, reason = solve_nl(losses, complete_graph(5), 0.0,
                                 eps_abs=1e-10, eps_rel=1e-10,
                                 max_iters=5000)
        assert reason == CONVERGED
        np.testing.assert_allclose(state.x, pts, atol=1e-6)

    def test_two_node_partial_pull(self):
        losses = SquaredDistance(np.array([0.0, 2.0]))
        g = path_graph(2)
        state, _ = solve_nl(losses, g, 0.5, eps_abs=1e-11, eps_rel=1e-11,
                            max_iters=20000)
        np.testing.assert_allclose(state.x.reshape(-1), [0.5, 1.5],
                                   atol=1e-6)

    def test_two_node_merges_at_threshold(self):
        losses = SquaredDistance(np.array([0.0, 2.0]))
        g = path_graph(2)
        state, _ = solve_nl(losses, g, 1.5, eps_abs=1e-11, eps_rel=1e-11,
                            max_iters=20000)
        np.testing.assert_allclose(state.x.reshape(-1), [1.0, 1.0],
                                   atol=1e-6)

    def test_large_gamma_collapses_to_mean(self):
        rng = np.random.default_rng(20)
        pts = rng.normal(size=(8, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(8)
        gamma = 10.0 * 8 * float(np.linalg.norm(pts, axis=1).max())
        state, _ = solve_nl(losses, g, gamma, eps_abs=1e-9, eps_rel=1e-9,
                            max_iters=5000)
        mean = pts.mean(axis=0)
        assert np.linalg.norm(state.x - mean, axis=1).max() <= 1e-4

    def test_ridge_losses_supported(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=6)
        b = 1.5 * a + 0.3 + 0.05 * rng.normal(size=6)
        losses = RidgeRegression(a, b, epsilon=1e-2)
        state, reason = solve_nl(losses, complete_graph(6), 0.05,
                                 max_iters=2000, eps_abs=1e-8, eps_rel=1e-8)
        assert reason == CONVERGED
        assert np.isfinite(state.objectives[-1])


    def test_exact_set_up_scales_to_many_nodes(self):
        # the x-step system is assembled without a per-node loop
        rng = np.random.default_rng(22)
        losses = SquaredDistance(rng.normal(size=(20000, 1)))
        graph = path_graph(20000)
        start = time.perf_counter()
        solve_nl(losses, graph, 0.5, max_iters=1)
        assert time.perf_counter() - start < 1.5

    @pytest.mark.parametrize("bad", [{"x_update": "bogus"}, {"rho": 0.0},
                                     {"max_iters": 0}])
    def test_bad_settings_rejected(self, bad):
        losses = SquaredDistance(np.array([0.0, 1.0, 3.0]))
        with pytest.raises(ValueError):
            solve_nl(losses, path_graph(3), 0.5, **bad)


class TestOperatorProducts:
    """Each iteration applies D to the new iterate once and its adjoint
    once; the convex stopping test adds D (x_t - x_{t-1})."""

    ITERS = 40

    def count_products(self, monkeypatch, run):
        counts = {"apply": 0, "apply_adjoint": 0}
        for name in counts:
            orig = getattr(DifferenceOperator, name)

            def counted(op, arr, _orig=orig, _name=name):
                counts[_name] += 1
                return _orig(op, arr)

            monkeypatch.setattr(DifferenceOperator, name, counted)
        state, _ = run()
        assert state.iterations == self.ITERS
        return counts

    def instance(self):
        rng = np.random.default_rng(23)
        return SquaredDistance(rng.normal(size=(8, 2))), complete_graph(8)

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_trimmed_solver(self, monkeypatch, x_update):
        losses, g = self.instance()
        config = SolverConfig(gamma=0.3, cardinality=5, rho=10.0,
                              x_update=x_update, max_iters=self.ITERS,
                              eps_abs=0.0, eps_rel=0.0)
        counts = self.count_products(
            monkeypatch, lambda: solve_ntl(losses, g, config))
        assert counts["apply"] <= self.ITERS + 2
        assert counts["apply_adjoint"] <= self.ITERS + 2

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_convex_solver(self, monkeypatch, x_update):
        losses, g = self.instance()
        counts = self.count_products(
            monkeypatch, lambda: solve_nl(
                losses, g, 0.3, rho=10.0, x_update=x_update,
                max_iters=self.ITERS, eps_abs=0.0, eps_rel=0.0))
        assert counts["apply"] <= 2 * self.ITERS + 2
        assert counts["apply_adjoint"] <= self.ITERS + 2


class TestConvergenceValidation:
    def test_path_exact_mode_constants(self):
        losses = SquaredDistance(np.zeros((4, 1)))
        g = path_graph(4)
        sigma = 2.0 * (1.0 - math.cos(math.pi / 4))
        cfg = SolverConfig(gamma=1.0, cardinality=1, rho=100.0,
                           x_update="exact")
        params = validate_convergence_params(losses, g, cfg)
        assert params.sigma == pytest.approx(sigma, rel=1e-12)
        assert params.L1 == 1.0 and params.L2 == 0.0
        assert params.alpha1 == 1.0 and params.alpha2 == 0.0
        # hand formula for the threshold at r = 0.9
        assert params.rho_lower_bound(0.9) == pytest.approx(
            2.0 / (sigma * 0.9), rel=1e-12)
        assert params.rho_min == pytest.approx(2.0 / sigma, rel=1e-12)
        assert params.passed

    def test_linearized_mode_constants(self):
        losses = SquaredDistance(np.zeros((4, 1)))
        cfg = SolverConfig(gamma=1.0, cardinality=1, rho=1e6,
                           x_update="linearized")
        params = validate_convergence_params(losses, path_graph(4), cfg)
        L = 1.0
        assert params.L1 == L and params.L2 == L and params.alpha1 == L
        assert params.alpha2 == 0.0
        sigma = params.sigma
        # threshold (2L/sigma)(1/r + 1/(1-r)) is minimized at r = 1/2
        assert params.rho_min == pytest.approx(8.0 * L / sigma, rel=1e-12)
        assert params.r_star == pytest.approx(0.5)

    def test_cyclic_graph_is_inapplicable(self):
        losses = SquaredDistance(np.zeros((4, 1)))
        cfg = SolverConfig(gamma=1.0, cardinality=1, rho=1e9)
        params = validate_convergence_params(losses, complete_graph(4), cfg)
        assert params.sigma == 0.0
        assert not params.applicable
        assert params.rho_min == math.inf
        assert not params.passed

    def test_zero_curvature_fails(self):
        losses = RidgeRegression([1.0, 1.0, 1.0], [0.0, 1.0, 2.0],
                                 epsilon=0.0)
        cfg = SolverConfig(gamma=1.0, cardinality=1, rho=1e9,
                           x_update="exact")
        params = validate_convergence_params(losses, path_graph(3), cfg)
        assert params.alpha1 == 0.0
        assert not params.curvature_ok
        assert not params.passed

    def test_rho_below_threshold_fails(self):
        losses = SquaredDistance(np.zeros((4, 1)))
        g = path_graph(4)
        sigma = 2.0 * (1.0 - math.cos(math.pi / 4))
        cfg = SolverConfig(gamma=1.0, cardinality=1, rho=1.0 / sigma)
        params = validate_convergence_params(losses, g, cfg)
        assert not params.rho_ok and not params.passed

    def test_boundedness_condition(self):
        losses = SquaredDistance(np.zeros((6, 1)))
        g = path_graph(6)
        sigma = 2.0 * (1.0 - math.cos(math.pi / 6))
        good = SolverConfig(gamma=1.0, cardinality=1, rho=3.0 / sigma)
        params = validate_convergence_params(losses, g, good)
        assert params.zeta == 1.0
        assert params.f_inf == pytest.approx(0.0, abs=1e-12)
        assert params.boundedness_ok

    def test_f_inf_is_sum_of_node_minima(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(5, 2))
        losses = SquaredDistance(pts)
        cfg = SolverConfig(gamma=1.0, cardinality=0, rho=1e4)
        params = validate_convergence_params(losses, path_graph(5), cfg)
        assert params.f_inf == pytest.approx(0.0, abs=1e-12)


class TestStationarity:
    def test_unpenalized_minimum_is_stationary(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(4, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(4)
        report = stationarity_check(pts, losses, g, gamma=2.0,
                                    cardinality=g.num_edges)
        assert report.min_value >= -1e-9
        assert report.passed

    def test_descent_direction_detected(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(4, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(4)
        x_bad = pts + 1.0
        report = stationarity_check(x_bad, losses, g, gamma=0.1,
                                    cardinality=g.num_edges)
        assert report.min_value < -1e-3
        assert not report.passed

    def test_solver_output_is_stationary(self):
        losses, g = four_node_split_instance()
        gamma = 3 * 4 * 5.1 * 1.001
        cfg = SolverConfig(gamma=gamma, cardinality=1, rho=100.0,
                           eps_abs=1e-12, eps_rel=1e-12, max_iters=5000)
        state, _ = solve_ntl(losses, g, cfg)
        report = stationarity_check(state.x, losses, g, gamma=gamma,
                                    cardinality=1, tolerance=1e-6)
        assert report.passed

    def test_values_match_objective_finite_differences(self):
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(5, 1))
        losses = SquaredDistance(pts)
        g = path_graph(5)
        op = DifferenceOperator(g, 1)
        x = rng.normal(size=(5, 1))
        gamma, K = 0.7, 2
        from netlasso.penalty import directional_derivative
        eta = 1e-8
        for _ in range(5):
            v = rng.normal(size=(5, 1))
            v /= np.linalg.norm(v)
            dd = float((losses.total_gradient(x) * v).sum()) \
                + gamma * directional_derivative(op.apply(x), op.apply(v), K)
            fd = (objective_trimmed(losses, op, x + eta * v, gamma, K)
                  - objective_trimmed(losses, op, x, gamma, K)) / eta
            assert dd == pytest.approx(fd, abs=1e-5)


class TestCertificate:
    def test_random_clustering_instances(self):
        rng = np.random.default_rng(26)
        for trial in range(5):
            n = int(rng.integers(4, 9))
            pts = rng.normal(size=(n, 2))
            losses = SquaredDistance(pts)
            g = complete_graph(n, points=pts, alpha=0.3)
            gamma = float(rng.uniform(0.05, 0.6))
            state, _ = solve_nl(losses, g, gamma, eps_abs=1e-11,
                                eps_rel=1e-11, max_iters=30000)
            report = nl_certificate(state.x, losses, g, gamma)
            assert report.max_subgrad_norm <= 1.0 + 1e-6
            assert report.max_rel_residual <= 1e-4
            assert report.passed

    def test_fully_merged_certificate(self):
        rng = np.random.default_rng(27)
        pts = rng.normal(size=(6, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(6)
        gamma = 50.0
        state, _ = solve_nl(losses, g, gamma, eps_abs=1e-11, eps_rel=1e-11,
                            max_iters=30000)
        report = nl_certificate(state.x, losses, g, gamma)
        assert report.merged_edges == g.num_edges
        assert report.passed
