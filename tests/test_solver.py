import math
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from oracles import (brute_force_prox_trimmed, dense_certificate_slow,
                     enumerate_set_partitions, polish_reference,
                     solve_nl_reference, solve_ntl_reference)

from netlasso import solver
from netlasso.datasets import gen_half_moons
from netlasso.graph import (
    DifferenceOperator,
    WeightedGraph,
    complete_graph,
    knn_gaussian_graph,
    merged_components,
    path_graph,
)
from netlasso.losses import (CustomLoss, Quadratic, RidgeRegression,
                             SquaredDistance)
from netlasso.path import gamma_path, k_path
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
        # ``apply`` checks its input and calls ``_diff``, which the loop
        # calls directly: counting ``_diff`` counts every D product
        counts = {"_diff": 0, "apply_adjoint": 0}
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
        assert counts["_diff"] <= self.ITERS + 2
        assert counts["apply_adjoint"] <= self.ITERS + 2

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_convex_solver(self, monkeypatch, x_update):
        losses, g = self.instance()
        counts = self.count_products(
            monkeypatch, lambda: solve_nl(
                losses, g, 0.3, rho=10.0, x_update=x_update,
                max_iters=self.ITERS, eps_abs=0.0, eps_rel=0.0))
        assert counts["_diff"] <= 2 * self.ITERS + 2
        assert counts["apply_adjoint"] <= self.ITERS + 2


def assert_same_bits(a, b):
    """Equal shapes and bit patterns (NaN and signed zeros included)."""
    a, b = (np.ascontiguousarray(v, dtype=np.float64) for v in (a, b))
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


HISTORIES = ("objectives", "aug_lagrangians", "primal_residuals",
             "x_changes", "lyapunov", "rhos")


def assert_matches_reference(result, ref):
    state, reason = result
    x, z, y, rho, iterations, ref_reason, hist = ref
    assert (state.iterations, reason, state.stop_reason) \
        == (iterations, ref_reason, ref_reason)
    for got, want in ((state.x, x), (state.z, z), (state.y, y),
                      (state.rho, rho)):
        assert_same_bits(got, want)
    for name in HISTORIES:
        assert_same_bits(getattr(state, name), hist[name])


class TestReferenceLoop:
    """The loop against the reference in ``oracles.admm_reference``:
    every iterate, stop reason and history bit for bit."""

    # (settings, expected stop reason)
    STOPS = [({"max_iters": 60, "eps_abs": 0.0, "eps_rel": 0.0},
              "max-iters"),
             ({"max_iters": 2000, "eps_abs": 1e-7, "eps_rel": 1e-7},
              "converged")]

    def instance(self, p, seed):
        rng = np.random.default_rng(seed)
        pts = np.concatenate([rng.normal(size=(6, p)),
                              rng.normal(size=(5, p)) + 3.0])
        return SquaredDistance(pts), complete_graph(11, points=pts,
                                                    alpha=0.3)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    @pytest.mark.parametrize("stop", range(len(STOPS)))
    def test_trimmed(self, p, x_update, stop):
        settings, expected = self.STOPS[stop]
        losses, g = self.instance(p, 60 + p)
        # 30 of the 55 edges join the two groups
        config = SolverConfig(gamma=0.4, cardinality=30, rho=5.0,
                              x_update=x_update, lyapunov_coeff=0.3,
                              **settings)
        ref = solve_ntl_reference(losses, g, config)
        assert ref[5] == expected
        assert_matches_reference(solve_ntl(losses, g, config), ref)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    @pytest.mark.parametrize("stop", range(len(STOPS)))
    def test_convex(self, p, x_update, stop):
        settings, expected = self.STOPS[stop]
        losses, g = self.instance(p, 70 + p)
        config = SolverConfig(gamma=0.2, cardinality=0, rho=2.0,
                              x_update=x_update, **settings)
        ref = solve_nl_reference(losses, g, config)
        assert ref[5] == expected
        assert_matches_reference(
            solve_nl(losses, g, 0.2, rho=2.0, x_update=x_update,
                     **settings), ref)

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_rho_schedule_and_warm_starts(self, x_update):
        losses, g = self.instance(2, 80)
        rng = np.random.default_rng(81)
        x0 = losses.points + 0.1 * rng.normal(size=losses.points.shape)
        y0 = rng.normal(size=(g.num_edges, 2))
        config = SolverConfig(gamma=0.4, cardinality=4, rho=0.5,
                              x_update=x_update, max_iters=400,
                              eps_abs=1e-9, eps_rel=1e-9,
                              rho_schedule=RhoSchedule(3.0, 60.0, 30))
        ref = solve_ntl_reference(losses, g, config, x0=x0, y0=y0)
        assert len(set(ref[6]["rhos"])) > 2
        assert_matches_reference(solve_ntl(losses, g, config, x0=x0, y0=y0),
                                 ref)

    def test_divergence(self):
        rng = np.random.default_rng(15)
        losses = SquaredDistance(rng.normal(size=(4, 1)))
        config = SolverConfig(gamma=1.0, cardinality=1, rho=1.0,
                              x_update="linearized", smoothness=0.01,
                              max_iters=200)
        ref = solve_ntl_reference(losses, path_graph(4), config)
        assert ref[5] == DIVERGED
        assert_matches_reference(solve_ntl(losses, path_graph(4), config),
                                 ref)

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_path_steps_match_reference_solves(self, x_update):
        losses, g = self.instance(2, 90)
        options = {"rho": 5.0, "x_update": x_update, "max_iters": 300,
                   "eps_abs": 1e-7, "eps_rel": 1e-7}
        ks = [30, 12, 4, 1, 0]
        x = None
        for K, step in zip(ks, k_path(losses, g, 0.4, ks, **options).steps):
            config = SolverConfig(gamma=0.4, cardinality=K, **options)
            x, _, _, _, iterations, reason, hist = solve_ntl_reference(
                losses, g, config, x0=x)
            self.assert_step(step, x, iterations, reason, hist)
        gammas = [0.01, 0.1, 0.5, 2.0]
        x = y = None
        for gamma, step in zip(gammas,
                               gamma_path(losses, g, gammas,
                                          **options).steps):
            config = SolverConfig(gamma=gamma, cardinality=0, **options)
            x, _, y, _, iterations, reason, hist = solve_nl_reference(
                losses, g, config, x0=x, y0=y)
            self.assert_step(step, x, iterations, reason, hist)

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    @pytest.mark.parametrize("factor", [math.inf, 1e12, 1.0 + 1e-9])
    def test_path_guard_matches_reference_solves(self, monkeypatch, x_update,
                                                 factor):
        # path solves take the objective only where its bound does not
        # clear the guard; a guard just above 1 leaves the exact
        # objective to decide on most iterations
        calls = [0]
        trimmed_norm = solver.trimmed_norm

        def counted(*args):
            calls[0] += 1
            return trimmed_norm(*args)

        monkeypatch.setattr(solver, "trimmed_norm", counted)
        losses, g = self.instance(2, 91)
        ks, gammas = [30, 12, 4, 1, 0], [0.01, 0.1, 0.5, 2.0]
        self.assert_paths_match(losses, g, 0.4, ks, gammas, {
            "rho": 5.0, "x_update": x_update, "max_iters": 300,
            "eps_abs": 1e-7, "eps_rel": 1e-7, "divergence_factor": factor})
        if factor > 2.0:
            assert calls[0] == 2 * len(ks)
        else:
            assert calls[0] > 500

    def test_diverging_path_steps_match_reference_solves(self):
        rng = np.random.default_rng(15)
        losses = SquaredDistance(rng.normal(size=(4, 1)))
        reasons = self.assert_paths_match(
            losses, path_graph(4), 1.0, [2, 1], [0.5, 1.0],
            {"rho": 1.0, "x_update": "linearized", "smoothness": 0.01,
             "max_iters": 200})
        assert reasons[0] == reasons[2] == DIVERGED

    def assert_paths_match(self, losses, g, gamma, ks, gammas, options):
        """k_path and gamma_path steps against reference solves chained
        as the paths chain them (x for k_path, x and y for gamma_path);
        returns the stop reasons."""
        reasons = []
        x = None
        for K, step in zip(ks, k_path(losses, g, gamma, ks,
                                      **options).steps):
            config = SolverConfig(gamma=gamma, cardinality=K, **options)
            x, _, _, _, iterations, reason, hist = solve_ntl_reference(
                losses, g, config, x0=x)
            self.assert_step(step, x, iterations, reason, hist)
            reasons.append(reason)
        x = y = None
        for gamma, step in zip(gammas, gamma_path(losses, g, gammas,
                                                  **options).steps):
            config = SolverConfig(gamma=gamma, cardinality=0, **options)
            x, _, y, _, iterations, reason, hist = solve_nl_reference(
                losses, g, config, x0=x, y0=y)
            self.assert_step(step, x, iterations, reason, hist)
            reasons.append(reason)
        assert len(reasons) == len(ks) + len(gammas)
        return reasons

    @staticmethod
    def assert_step(step, x, iterations, reason, hist):
        assert_same_bits(step.centroids, x)
        assert (step.iterations, step.stop_reason) == (iterations, reason)
        assert_same_bits(step.objective, hist["objectives"][-1])
        assert_same_bits(step.primal_residual, hist["primal_residuals"][-1])


class TestResidualBalancing:
    """solve_nl balances rho on the grid rho0 * 2^j, |j| <= 30; solve_ntl
    keeps its fixed rho or its schedule."""

    def instance(self):
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.normal(size=(6, 2)),
                              rng.normal(size=(5, 2)) + 3.0])
        return SquaredDistance(pts), complete_graph(11, points=pts,
                                                    alpha=0.3)

    @staticmethod
    def grid_steps(rhos, rho0):
        """j with rho = rho0 * 2^j exactly, for each recorded rho."""
        steps = []
        for rho in rhos:
            mantissa, exponent = math.frexp(rho / rho0)
            assert mantissa == 0.5 and rho == math.ldexp(rho0, exponent - 1)
            steps.append(exponent - 1)
        return steps

    @pytest.mark.parametrize("rho0, extreme", [(1e-12, 30), (1.0, None),
                                               (1e12, -30)])
    def test_rho_stays_on_the_clamped_grid(self, rho0, extreme):
        losses, g = self.instance()
        state, _ = solve_nl(losses, g, 0.2, rho=rho0, max_iters=3000,
                            eps_abs=0.0, eps_rel=0.0)
        steps = self.grid_steps(state.rhos, rho0)
        assert steps[0] == 0 and max(abs(j) for j in steps) <= 30
        # rho moves only on the iteration after a check, by one step
        moves = np.flatnonzero(np.diff(steps)) + 1
        assert len(moves) > 3
        assert all(t % 50 == 0 for t in moves)
        assert set(np.abs(np.diff(steps))) <= {0, 1}
        assert state.rho == state.rhos[-1]
        if extreme is not None:
            # the residuals keep asking for the next step, the clamp
            # holds rho at the end of the grid
            assert steps[-1] == extreme
            assert steps.count(extreme) > 500

    def test_clamp_keeps_rho_finite_and_normal(self):
        top = solver._Balance(1e300)
        assert top.next(1e300 * 2.0 ** 27, 1.0, lambda: 0.0) \
            == 1e300 * 2.0 ** 27
        bottom = solver._Balance(1e-300)
        assert bottom.next(1e-300 / 2.0 ** 25, 0.0, lambda: 1.0) \
            == 1e-300 / 2.0 ** 25
        rule = solver._Balance(3.0)
        assert rule.next(3.0 * 2.0 ** 30, 1.0, lambda: 0.0) == 3.0 * 2 ** 30
        assert rule.next(3.0 / 2.0 ** 30, 0.0, lambda: 1.0) == 3.0 / 2 ** 30
        assert rule.next(3.0, 1.0, lambda: 0.05) == 6.0
        assert rule.next(3.0, 0.05, lambda: 1.0) == 1.5
        # within a factor of 10 either way, and NaN residuals: no move
        assert rule.next(3.0, 1.0, lambda: 0.1) == 3.0
        assert rule.next(3.0, 0.1, lambda: 1.0) == 3.0
        assert rule.next(3.0, math.nan, lambda: 1.0) == 3.0

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_trimmed_solver_keeps_its_rho(self, x_update):
        losses, g = self.instance()
        settings = {"max_iters": 400, "eps_abs": 0.0, "eps_rel": 0.0}
        convex, _ = solve_nl(losses, g, 0.2, rho=2.0, x_update=x_update,
                             **settings)
        assert len(set(convex.rhos)) > 1
        config = SolverConfig(gamma=0.2, cardinality=0, rho=2.0,
                              x_update=x_update, **settings)
        trimmed = solve_ntl(losses, g, config)
        assert set(trimmed[0].rhos) == {2.0}
        # and every history as the reference loop, which never balances
        # the trimmed problem
        assert_matches_reference(trimmed,
                                 solve_ntl_reference(losses, g, config))


class TestLeanPathLoop:
    """Path solves skip the work whose results no path reads: the
    histories, the objective while its bound clears the divergence
    guard, and scipy's dispatch around the adjoint.  These counts repeat
    exactly, so a later change that brings the work back fails here."""

    def counted(self, monkeypatch, module, name, when=None):
        """Count the calls of ``module.name`` made inside ``_admm``, or
        those of them whose arguments satisfy ``when``."""
        calls = [0]
        depth = [0]
        orig_admm, orig = solver._admm, getattr(module, name)

        def admm(*args, **kwargs):
            depth[0] += 1
            try:
                return orig_admm(*args, **kwargs)
            finally:
                depth[0] -= 1

        def counter(*args, **kwargs):
            if depth[0] and (when is None or when(*args, **kwargs)):
                calls[0] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(solver, "_admm", admm)
        monkeypatch.setattr(module, name, counter)
        return calls

    def instance(self):
        rng = np.random.default_rng(95)
        pts = np.concatenate([rng.normal(size=(6, 2)),
                              rng.normal(size=(6, 2)) + 3.0])
        return SquaredDistance(pts), complete_graph(12)

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_no_whole_array_numpy_norm(self, monkeypatch, x_update):
        losses, g = self.instance()
        calls = self.counted(monkeypatch, np.linalg, "norm")
        options = {"rho": 5.0, "x_update": x_update, "max_iters": 200}
        kp = k_path(losses, g, 0.5, [40, 10, 2, 0], **options)
        gp = gamma_path(losses, g, [0.01, 0.1, 1.0], **options)
        assert sum(s.iterations for s in kp.steps + gp.steps) > 100
        assert calls[0] == 0

    def test_two_trimmed_norms_per_path_solve(self, monkeypatch):
        losses, g = self.instance()
        calls = self.counted(monkeypatch, solver, "trimmed_norm")
        result = k_path(losses, g, 0.5, [40, 10, 2, 0], rho=5.0,
                        max_iters=200)
        assert sum(s.iterations for s in result.steps) > 100
        # the guard's starting objective and the final objective: the
        # bound clears the guard on every iteration in between
        assert calls[0] == 2 * len(result.steps)
        calls[0] = 0
        config = SolverConfig(gamma=0.5, cardinality=10, rho=5.0,
                              max_iters=50, eps_abs=0.0, eps_rel=0.0)
        solve_ntl(losses, g, config)
        # a direct solve takes the objective and the penalty of z on
        # every iteration for its histories
        assert calls[0] == 2 * 50 + 1

    def test_path_states_keep_final_values(self, monkeypatch):
        losses, g = self.instance()
        states = []
        orig = solver._admm

        def keep(*args, **kwargs):
            states.append(orig(*args, **kwargs)[0])
            return states[-1], states[-1].stop_reason

        monkeypatch.setattr(solver, "_admm", keep)
        k_path(losses, g, 0.5, [10, 0], rho=5.0, max_iters=40)
        gamma_path(losses, g, [0.1, 1.0], rho=5.0, max_iters=40)
        assert len(states) == 4
        for state in states:
            assert state.iterations > 1
            assert len(state.objectives) == len(state.primal_residuals) == 1
            assert state.aug_lagrangians == state.x_changes \
                == state.lyapunov == state.rhos == []

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_no_sparse_product_on_the_difference_operator(self, monkeypatch,
                                                          x_update):
        ops = []
        orig_init = DifferenceOperator.__init__

        def init(op, *args, **kwargs):
            orig_init(op, *args, **kwargs)
            ops.append(op)

        monkeypatch.setattr(DifferenceOperator, "__init__", init)
        calls = self.counted(
            monkeypatch, sp.csr_matrix, "__matmul__",
            lambda mat, other: any(mat is op._E or mat is op._Et
                                   for op in ops))
        losses, g = self.instance()
        options = {"rho": 5.0, "x_update": x_update, "max_iters": 50}
        kp = k_path(losses, g, 0.5, [10, 0], **options)
        gp = gamma_path(losses, g, [0.1, 1.0], **options)
        assert len(ops) == 2
        assert sum(s.iterations for s in kp.steps + gp.steps) > 50
        assert calls[0] == 0


class TestSettingsValidation:
    @pytest.mark.parametrize("bad", [
        {"gamma": math.nan}, {"gamma": math.inf}, {"gamma": -1.0},
        {"rho": math.nan}, {"rho": math.inf}, {"rho": -2.0},
        {"eps_abs": -1e-9}, {"eps_rel": -1.0}, {"eps_abs": math.nan},
        {"eps_rel": math.nan}, {"divergence_factor": 0.0},
        {"divergence_factor": -1.0}, {"divergence_factor": math.nan},
        {"max_iters": 10.5}, {"max_iters": True}, {"max_iters": 10.0},
        {"cardinality": 1.5}, {"cardinality": math.nan},
        {"cardinality": True}, {"cardinality": -1},
        {"lyapunov_coeff": math.nan}, {"lyapunov_coeff": math.inf}])
    def test_bad_solver_config_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**{"gamma": 1.0, "cardinality": 1, **bad})

    def test_bad_solve_nl_keywords_rejected(self):
        losses = SquaredDistance(np.array([0.0, 1.0, 3.0]))
        for bad in ({"gamma": math.nan}, {"divergence_factor": 0.0},
                    {"eps_rel": -1.0}, {"rho": math.inf}):
            with pytest.raises(ValueError):
                solve_nl(losses, path_graph(3), **{"gamma": 0.5, **bad})

    @pytest.mark.parametrize("bad", [
        {"period": 0}, {"period": -3}, {"period": 2.5},
        {"multiplier": 0.0}, {"multiplier": math.nan}, {"cap": 0.0},
        {"cap": math.nan}])
    def test_bad_rho_schedule_rejected(self, bad):
        with pytest.raises(ValueError):
            RhoSchedule(**bad)

    def test_boundary_values_accepted(self):
        config = SolverConfig(gamma=0.0, cardinality=0, eps_abs=0.0,
                              eps_rel=0.0, divergence_factor=math.inf,
                              rho_schedule=RhoSchedule(cap=1e3,
                                                       period=1))
        state, _ = solve_ntl(SquaredDistance(np.array([0.0, 1.0])),
                             path_graph(2), config)
        assert state.iterations > 0
        # numpy integers are integers
        config = SolverConfig(gamma=0.5, cardinality=np.int64(1),
                              max_iters=np.int32(5))
        assert solve_ntl(SquaredDistance(np.array([0.0, 1.0, 3.0])),
                         path_graph(3), config)[0].iterations <= 5
        losses, g = SquaredDistance(np.array([0.0, 1.0, 3.0])), path_graph(3)
        assert len(k_path(losses, g, 0.5, np.array([2, 1, 0])).steps) == 3


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

    def test_sparse_certificate_matches_dense_oracle(self):
        rng = np.random.default_rng(28)
        seen = set()
        for trial in range(60):
            x, losses, g, gamma = random_certificate_instance(rng, trial)
            assert_certificate_matches_oracle(x, losses, g, gamma)
            merged, labels = merged_components(g, x, 1e-6)
            per_comp = np.bincount(labels[g.edges[merged, 0]],
                                   minlength=g.num_nodes)
            seen |= {f"p={losses.dim}"}
            seen |= {name for name, hit in [
                ("several components", (per_comp > 0).sum() > 1),
                ("single-edge component", (per_comp == 1).any()),
                ("isolated node",
                 len(np.unique(g.edges)) < g.num_nodes),
                ("nothing merged", g.num_edges and not merged.any()),
                ("all merged", g.num_edges and merged.all())] if hit}
        assert seen == {"p=1", "p=2", "p=3", "several components",
                        "single-edge component", "isolated node",
                        "nothing merged", "all merged"}

    @pytest.mark.parametrize("case", ["zero-weight bridge", "weak bridge",
                                      "gamma zero", "underflowing weights"])
    def test_zero_weights_match_dense_oracle(self, case):
        rng = np.random.default_rng(29)
        if case == "zero-weight bridge":
            # one merged component held together only by a weight-0 edge
            pts = np.array([[0.0], [1.0], [2.0], [3.0]])
            g = WeightedGraph(4, [[0, 1], [1, 2], [2, 3]], [1.0, 0.0, 1.0])
            x, gamma = np.full((4, 1), 1.5), 10.0
        elif case == "weak bridge":
            # two pieces joined by an edge 1e-7 of the others, whose
            # squared weight is lost against 1 in a single Laplacian
            pts = np.array([[0.0], [0.0], [0.1], [0.1]])
            g = WeightedGraph(4, [[0, 1], [1, 2], [2, 3]], [1.0, 1e-7, 1.0])
            x, gamma = np.full((4, 1), 0.05), 2e6
        elif case == "gamma zero":
            pts = rng.normal(size=(8, 2))
            g = complete_graph(8, points=pts, alpha=0.5)
            x, gamma = np.tile(pts.mean(axis=0), (8, 1)), 0.0
        elif case == "underflowing weights":
            # two tight groups far apart: every cross weight is exactly 0
            pts = np.concatenate([rng.normal(size=(5, 2)) * 0.05,
                                  rng.normal(size=(6, 2)) * 0.05 + 3.0])
            g = complete_graph(11, points=pts, alpha=200.0)
            assert (g.weights == 0).sum() == 30
            x, gamma = np.tile(pts.mean(axis=0), (11, 1)), 10.0
        assert_certificate_matches_oracle(x, SquaredDistance(pts), g, gamma)

    @pytest.mark.parametrize("n", [12, 30])
    def test_weights_across_300_decades_match_the_oracle(self, n):
        # the squared weights of one Laplacian over all of them would
        # underflow: NaN at n=12 and an exactly singular factor at n=30
        pts = np.random.default_rng(29).normal(size=(n, 2))
        g = complete_graph(n, points=pts, alpha=200.0)
        assert g.weights[g.weights > 0].min() < 1e-300
        x, gamma = np.tile(pts.mean(axis=0), (n, 1)), 1000.0
        assert_certificate_matches_oracle(x, SquaredDistance(pts), g, gamma)

    @pytest.mark.parametrize("ratio", [1e-7, 1e-12, 1e-20])
    def test_weak_bridge_carries_its_flow(self, ratio):
        # The mean of [0, 0, 0.1, 0.1] is optimal once the bridge can carry
        # the flow 0.1, i.e. gamma * ratio >= 0.2.  lstsq drops singular
        # values below about 1e-15 of the largest, so it misses this at 1e-20.
        g = WeightedGraph(4, [[0, 1], [1, 2], [2, 3]], [1.0, ratio, 1.0])
        losses = SquaredDistance(np.array([[0.0], [0.0], [0.1], [0.1]]))
        report = nl_certificate(np.full((4, 1), 0.05), losses, g,
                                0.4 / ratio)
        assert report.passed
        assert report.max_rel_residual <= 1e-12

    def test_huge_weights_do_not_overflow_the_polish(self):
        # gamma w_e = 1e300 squares to inf in an unscaled A A^T
        g = WeightedGraph(4, [[0, 1], [1, 2], [2, 3]],
                          [1e300, 1e-300, 1e300])
        losses = SquaredDistance(np.array([[0.0], [0.0], [0.1], [0.1]]))
        with np.errstate(over="ignore"):
            report = nl_certificate(np.full((4, 1), 0.05), losses, g, 1.0)
        # the bridge carries at most 1e-300 of the 0.1 the pieces need
        assert report.max_rel_residual == pytest.approx(0.05 / 1.05)
        assert report.max_subgrad_norm <= 1.0

    def test_repeat_calls_are_bitwise_equal(self, monkeypatch):
        # ARPACK without a fixed start vector differs in the last bits from
        # call to call within one process, never between fresh processes
        arpack_calls = []
        eigsh = solver.eigsh

        def counted_eigsh(*args, **kwargs):
            arpack_calls.append(eigsh(*args, **kwargs))
            return arpack_calls[-1]

        monkeypatch.setattr(solver, "eigsh", counted_eigsh)
        data = gen_half_moons(300, noise_sd=0.08, seed=7)
        losses = SquaredDistance(data.points)
        g = knn_gaussian_graph(data.points, 10, alpha=15.0)
        state, _ = solve_nl(losses, g, 5.0, rho=1.0, max_iters=300,
                            eps_abs=1e-6, eps_rel=1e-6)
        first = nl_certificate(state.x, losses, g, 5.0)
        half = len(arpack_calls)
        second = nl_certificate(state.x, losses, g, 5.0)
        assert half  # the polish ran on a large component
        assert repr(first) == repr(second)
        np.testing.assert_array_equal(arpack_calls[:half],
                                      arpack_calls[half:])

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_polish_matches_the_old_polish(self, monkeypatch, p):
        # per-column steps and divisions and row_norms give the bits of
        # the broadcasts and einsum norms they replace
        calls = []
        polish = solver._polish

        def recorded(A, u, b, step, iters):
            start = u.copy()
            calls.append((A, start, b, step, iters, polish(A, u, b, step,
                                                          iters)))
            return calls[-1][-1]

        monkeypatch.setattr(solver, "_polish", recorded)
        rng = np.random.default_rng(40 + p)
        pts = rng.normal(size=(12, p))
        g = complete_graph(12, points=pts, alpha=0.5)
        x = np.tile(pts.mean(axis=0), (12, 1))
        report = nl_certificate(x, SquaredDistance(pts), g, 0.2,
                                refine_iters=300)
        assert len(calls) == 1
        A, start, b, step, iters, got = calls[0]
        assert iters == 299 and len(start) == g.num_edges
        assert_same_bits(got, polish_reference(A, start, b, step, iters))
        monkeypatch.setattr(solver, "_polish", polish_reference)
        assert repr(report) == repr(nl_certificate(
            x, SquaredDistance(pts), g, 0.2, refine_iters=300))

    def test_twenty_thousand_node_chain_needs_no_dense_memory(self):
        # the dense per-component A would take 20,000 x 19,999 doubles
        rng = np.random.default_rng(30)
        n = 20000
        pts = rng.normal(size=(n, 2))
        losses = SquaredDistance(pts)
        g = path_graph(n)
        # on a chain, the mean is optimal once gamma bounds every prefix
        # sum of the anchors' deviations from it
        dev = np.cumsum(pts - pts.mean(axis=0), axis=0)
        gamma = 1.01 * float(np.linalg.norm(dev, axis=1).max())
        start = time.perf_counter()
        report = nl_certificate(np.tile(pts.mean(axis=0), (n, 1)), losses,
                                g, gamma)
        assert time.perf_counter() - start < 10.0
        assert report.merged_edges == n - 1
        assert report.passed


def assert_certificate_matches_oracle(x, losses, g, gamma):
    report = nl_certificate(x, losses, g, gamma)
    rel, norm, merged = dense_certificate_slow(x, losses, g, gamma)
    assert report.merged_edges == merged
    assert abs(report.max_rel_residual - rel) <= 1e-10
    assert abs(report.max_subgrad_norm - norm) <= 1e-10
    assert report.passed == (rel <= report.residual_tol
                             and norm <= 1.0 + report.norm_slack)


def random_certificate_instance(rng, trial):
    """Trial t has p = t % 3 + 1, graph kind t // 3 % 4 and x kind
    t // 12 % 5, so 60 trials meet every combination."""
    n = int(rng.integers(2, 13))
    p = trial % 3 + 1
    pts = rng.normal(size=(n, p))
    losses = SquaredDistance(pts)
    gamma = float(rng.uniform(0.05, 3.0))
    kind = trial // 3 % 4
    if kind == 0:
        g = path_graph(n)
    elif kind == 1:
        g = complete_graph(n, points=pts, alpha=float(rng.uniform(0.1, 3)))
    elif kind == 2 and n > 3:
        g = knn_gaussian_graph(pts, 2, alpha=0.5)
    else:  # random edges among all but the last node, which is isolated
        pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)
                 if rng.random() < 0.6]
        g = WeightedGraph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                          rng.uniform(0.2, 2.0, size=len(pairs)))
    kind = trial // 12 % 5
    if kind < 2:  # converged, or stopped after 20 iterations
        x = solve_nl(losses, g, gamma, eps_abs=1e-10, eps_rel=1e-10,
                     max_iters=(5000, 20)[kind])[0].x
    elif kind == 2:  # piecewise constant over up to 3 random clusters
        labels = rng.integers(0, 3, size=n)
        x = np.array([pts[labels == labels[i]].mean(axis=0)
                      for i in range(n)])
    elif kind == 3:
        x = pts.copy()
    else:
        x = np.tile(pts.mean(axis=0), (n, 1))
    return x, losses, g, gamma
