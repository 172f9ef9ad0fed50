import math

import numpy as np
import pytest

from netlasso.graph import knn_gaussian_graph
from netlasso.losses import (
    CustomLoss,
    Loss,
    Quadratic,
    RidgeRegression,
    SquaredDistance,
    sum_loss_minimizer,
)
from netlasso.thresholds import (bound_C_quadratic, exact_penalty_threshold,
                                 recovery_interval)


def fd_gradient(loss, i, x, step=1e-6):
    """Central-difference gradient oracle."""
    g = np.empty(loss.dim)
    for c in range(loss.dim):
        e = np.zeros(loss.dim)
        e[c] = step
        g[c] = (loss.value(i, x + e) - loss.value(i, x - e)) / (2 * step)
    return g


def random_quadratic(rng, n, p, alpha_min=0.3):
    """Random strictly convex quadratic losses."""
    A = np.empty((n, p, p))
    for i in range(n):
        M = rng.normal(size=(p, p))
        A[i] = M @ M.T + alpha_min * np.eye(p)
    B = rng.normal(size=(n, p))
    return Quadratic(A, B)


class TestValues:
    def test_squared_distance_zero_at_anchor(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        loss = SquaredDistance(pts)
        for i in range(6):
            assert loss.value(i, pts[i]) == 0.0

    def test_ridge_value(self):
        loss = RidgeRegression([0.0], [0.0], epsilon=1e-2)
        assert loss.value(0, np.array([0.0, 1.0])) == pytest.approx(0.005)

    def test_quadratic_value(self):
        loss = Quadratic(np.eye(2)[None], np.zeros((1, 2)))
        assert loss.value(0, np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_total_value_matches_per_node_sum(self):
        rng = np.random.default_rng(1)
        for loss in [SquaredDistance(rng.normal(size=(5, 2))),
                     RidgeRegression(rng.normal(size=5), rng.normal(size=5)),
                     random_quadratic(rng, 5, 2)]:
            X = rng.normal(size=(5, loss.dim))
            per_node = sum(loss.value(i, X[i]) for i in range(5))
            assert loss.total_value(X) == pytest.approx(per_node, rel=1e-12)


class TestGradients:
    def test_squared_distance_gradient_at_anchor(self):
        pts = np.random.default_rng(2).normal(size=(4, 2))
        loss = SquaredDistance(pts)
        np.testing.assert_allclose(loss.gradient(1, pts[1]), 0.0)

    def test_all_families_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for loss in [SquaredDistance(rng.normal(size=(4, 3))),
                     RidgeRegression(rng.normal(size=4), rng.normal(size=4)),
                     random_quadratic(rng, 4, 3)]:
            for i in range(4):
                x = rng.normal(size=loss.dim)
                np.testing.assert_allclose(loss.gradient(i, x),
                                           fd_gradient(loss, i, x),
                                           atol=1e-6)

    def test_total_gradient_matches_stacked(self):
        rng = np.random.default_rng(4)
        loss = RidgeRegression(rng.normal(size=6), rng.normal(size=6))
        X = rng.normal(size=(6, 2))
        stacked = np.stack([loss.gradient(i, X[i]) for i in range(6)])
        np.testing.assert_allclose(loss.total_gradient(X), stacked)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_total_gradient_is_the_per_node_formula_bitwise(self, p):
        # one gradient formula per family: the einsum this replaced
        # rounded differently from A_i @ x_i in most cases at p >= 2
        rng = np.random.default_rng(p)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            for loss in [SquaredDistance(rng.normal(size=(n, p))),
                         RidgeRegression(rng.normal(size=n),
                                         rng.normal(size=n)),
                         random_quadratic(rng, n, p)]:
                X = rng.normal(size=(n, loss.dim)) * 10.0
                stacked = np.stack([loss.gradient(i, X[i])
                                    for i in range(n)])
                assert loss.total_gradient(X).tobytes() == stacked.tobytes()


class TestCurvature:
    def test_squared_distance_constants(self):
        loss = SquaredDistance(np.zeros((3, 2)))
        assert loss.smoothness(0) == 1.0
        assert loss.strong_convexity(0) == 1.0

    def test_quadratic_diag(self):
        loss = Quadratic(np.diag([2.0, 5.0])[None], np.zeros((1, 2)))
        assert loss.smoothness(0) == pytest.approx(5.0)
        assert loss.strong_convexity(0) == pytest.approx(2.0)

    def test_ridge_constants_match_eig_oracle(self):
        loss = RidgeRegression([0.0], [1.0], epsilon=1e-2)
        H = np.array([[1.0, 0.0], [0.0, 0.01]])
        lo, hi = np.linalg.eigvalsh(H)
        assert loss.smoothness(0) == pytest.approx(hi, rel=1e-12)
        assert loss.strong_convexity(0) == pytest.approx(lo, rel=1e-12)

    def test_ridge_alpha_small_but_positive(self):
        loss = RidgeRegression([1.0], [0.0], epsilon=1e-2)
        alpha = loss.strong_convexity(0)
        oracle = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 1.01]]))[0]
        assert alpha == pytest.approx(oracle, rel=1e-12)
        assert 0.0 < alpha < 1e-2

    def test_plain_least_squares_reports_zero_alpha(self):
        loss = RidgeRegression([1.0, 2.0], [0.5, 0.5], epsilon=0.0)
        assert loss.strong_convexity(0) == 0.0
        assert loss.minimizer(0) is None

    def test_smoothness_upper_bound_property(self):
        # |f(y) - f(x) - grad(x).(y - x)| <= L/2 ||y - x||^2
        rng = np.random.default_rng(5)
        for loss in [SquaredDistance(rng.normal(size=(4, 2))),
                     RidgeRegression(rng.normal(size=4), rng.normal(size=4)),
                     random_quadratic(rng, 4, 2)]:
            for i in range(4):
                L = loss.smoothness(i)
                for _ in range(20):
                    x = rng.normal(size=loss.dim)
                    y = rng.normal(size=loss.dim)
                    gap = loss.value(i, y) - loss.value(i, x) \
                        - float(loss.gradient(i, x) @ (y - x))
                    assert abs(gap) <= 0.5 * L * float((y - x) @ (y - x)) + 1e-9

    def test_strong_convexity_lower_bound_property(self):
        rng = np.random.default_rng(6)
        for loss in [SquaredDistance(rng.normal(size=(4, 2))),
                     RidgeRegression(rng.normal(size=4), rng.normal(size=4)),
                     random_quadratic(rng, 4, 2)]:
            for i in range(4):
                a = loss.strong_convexity(i)
                for _ in range(20):
                    x = rng.normal(size=loss.dim)
                    y = rng.normal(size=loss.dim)
                    gap = loss.value(i, y) - loss.value(i, x) \
                        - float(loss.gradient(i, x) @ (y - x))
                    assert gap >= 0.5 * a * float((y - x) @ (y - x)) - 1e-9


class TestMinimizers:
    def test_squared_distance(self):
        pts = np.random.default_rng(7).normal(size=(3, 2))
        loss = SquaredDistance(pts)
        np.testing.assert_allclose(loss.minimizer(2), pts[2])

    def test_quadratic_closed_form(self):
        loss = Quadratic(2 * np.eye(2)[None], np.array([[2.0, 4.0]]))
        np.testing.assert_allclose(loss.minimizer(0), [1.0, 2.0])

    def test_ridge_minimizer_is_intercept_only(self):
        rng = np.random.default_rng(8)
        loss = RidgeRegression(rng.normal(size=5), rng.normal(size=5),
                               epsilon=1e-2)
        for i in range(5):
            m = loss.minimizer(i)
            np.testing.assert_allclose(m, [loss.responses[i], 0.0])
            assert np.linalg.norm(loss.gradient(i, m)) <= 1e-12

    def test_minimizer_gradient_is_zero(self):
        rng = np.random.default_rng(9)
        loss = random_quadratic(rng, 5, 3)
        for i in range(5):
            g = loss.gradient(i, loss.minimizer(i))
            assert np.linalg.norm(g) <= 1e-10


class TestSumLossMinimizer:
    def test_squared_distance_gives_mean(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(7, 2))
        loss = SquaredDistance(pts)
        sub = [1, 3, 4]
        np.testing.assert_allclose(sum_loss_minimizer(loss, sub),
                                   pts[sub].mean(axis=0), rtol=1e-12)

    def test_singleton_equals_minimizer(self):
        rng = np.random.default_rng(11)
        loss = random_quadratic(rng, 4, 2)
        np.testing.assert_allclose(sum_loss_minimizer(loss, [2]),
                                   loss.minimizer(2), rtol=1e-10)

    def test_quadratic_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(12)
        loss = random_quadratic(rng, 6, 3)
        sub = [0, 2, 5]
        oracle = np.linalg.solve(loss.A[sub].sum(axis=0),
                                 loss.B[sub].sum(axis=0))
        np.testing.assert_allclose(sum_loss_minimizer(loss, sub), oracle,
                                   rtol=1e-10)

    def test_rejects_non_strictly_convex_aggregate(self):
        loss = RidgeRegression([1.0, 1.0], [0.0, 1.0], epsilon=0.0)
        # identical inputs keep the aggregate Hessian singular
        with pytest.raises(ValueError):
            sum_loss_minimizer(loss, [0, 1])

    def test_least_squares_aggregate_becomes_solvable(self):
        # distinct inputs make the summed least-squares Hessian invertible
        loss = RidgeRegression([0.0, 1.0], [1.0, 3.0], epsilon=0.0)
        m = sum_loss_minimizer(loss, [0, 1])
        np.testing.assert_allclose(m, [1.0, 2.0], atol=1e-10)

    def test_rejects_empty_and_duplicate(self):
        loss = SquaredDistance(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            sum_loss_minimizer(loss, [])
        with pytest.raises(ValueError):
            sum_loss_minimizer(loss, [1, 1])
        for outside in (3, -1):
            with pytest.raises(IndexError, match=f"node index {outside} "):
                sum_loss_minimizer(loss, [0, outside])

    def test_failed_numeric_minimization_is_reported(self):
        # BFGS stalls at the kink of a sum of absolute values without a
        # warning, its gradient still of norm 1
        loss = CustomLoss(2, 1, lambda i, x: float(np.abs(x - 1.0).sum()),
                          lambda i, x: np.sign(x - 1.0), smoothness=math.inf)
        with pytest.raises(ValueError,
                           match="numeric aggregate minimization failed"):
            sum_loss_minimizer(loss, [0, 1])

    def test_custom_loss_numeric_path(self):
        pts = np.array([[1.0, 0.0], [3.0, 2.0]])
        loss = CustomLoss(
            2, 2,
            value_fn=lambda i, x: 0.5 * float((x - pts[i]) @ (x - pts[i])),
            gradient_fn=lambda i, x: x - pts[i],
            smoothness=1.0, strong_convexity=1.0)
        np.testing.assert_allclose(sum_loss_minimizer(loss, [0, 1]),
                                   pts.mean(axis=0), atol=1e-8)


class TestCustomLoss:
    def test_gradient_check_passes_for_consistent_callbacks(self):
        loss = CustomLoss(
            3, 2,
            value_fn=lambda i, x: float(np.cosh(x).sum()) + i,
            gradient_fn=lambda i, x: np.sinh(x),
            smoothness=10.0)
        assert loss.check_gradient(seed=0)

    def test_gradient_check_catches_wrong_gradient(self):
        loss = CustomLoss(
            1, 2,
            value_fn=lambda i, x: float(x @ x),
            gradient_fn=lambda i, x: x,  # off by a factor of 2
            smoothness=2.0)
        with pytest.raises(ValueError):
            loss.check_gradient(seed=0)


class TestValidation:
    def test_quadratic_requires_symmetry(self):
        A = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError):
            Quadratic(A, np.zeros((1, 2)))

    def test_quadratic_requires_psd(self):
        A = np.array([[[1.0, 0.0], [0.0, -1.0]]])
        with pytest.raises(ValueError):
            Quadratic(A, np.zeros((1, 2)))

    def test_ridge_shape_mismatch(self):
        with pytest.raises(ValueError):
            RidgeRegression([1.0, 2.0], [1.0])

    def test_ridge_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be non-negative"):
            RidgeRegression([1.0, 2.0], [1.0, 0.0], epsilon=-1)

    def test_quadratic_shapes(self):
        with pytest.raises(ValueError, match="A must have shape"):
            Quadratic(np.eye(2), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="B must have shape"):
            Quadratic(np.eye(2)[None], np.zeros((1, 3)))

    def test_squared_distance_points(self):
        with pytest.raises(ValueError, match="non-empty"):
            SquaredDistance(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="^points must be a 1-D or 2-D"):
            SquaredDistance(np.zeros((2, 1, 1)))
        assert SquaredDistance([3.0, -4.0]).points.shape == (2, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        row = np.array([[0.0, 1.0], [bad, 2.0]])
        A = np.stack([np.eye(2)] * 2)
        A_bad = A.copy()
        A_bad[1, 0, 0] = bad
        for build, name in [
                (lambda: SquaredDistance(row), "points"),
                (lambda: RidgeRegression(row[:, 0], [1.0, 2.0]), "inputs"),
                (lambda: RidgeRegression([1.0, 2.0], row[:, 0]), "responses"),
                (lambda: Quadratic(A_bad, np.zeros((2, 2))), "A"),
                (lambda: Quadratic(A, row), "B")]:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                build()

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_ridge_rejects_non_finite_epsilon(self, epsilon):
        # a NaN epsilon used to give _L = [-0.0, 1.41] and _alpha = [0, 0]
        with pytest.raises(ValueError, match="^epsilon must be"):
            RidgeRegression([1.0, 2.0], [1.0, 0.0], epsilon=epsilon)

    @pytest.mark.parametrize("name", ["smoothness", "strong_convexity"])
    def test_custom_loss_constants(self, name):
        def custom(value):
            return CustomLoss(3, 1, lambda i, x: float(x @ x),
                              lambda i, x: 2 * x,
                              **{"smoothness": 2.0, name: value})

        for bad in (-1.0, np.nan, [2.0, -1.0, 2.0]):
            with pytest.raises(ValueError, match=f"^{name} must be "
                                                 "non-negative"):
                custom(bad)
        for bad in ([2.0, 2.0], [[2.0, 2.0, 2.0]]):
            with pytest.raises(ValueError, match=f"^{name} must be a scalar"
                                                 r" or hold one value per "
                                                 r"node \(3\)"):
                custom(bad)
        for good in (2.0, [2.0], [1.0, 2.0, np.inf]):
            constants = getattr(custom(good), "_L" if name == "smoothness"
                                else "_alpha")
            assert constants.shape == (3,)

    def test_missing_minimizers(self):
        with pytest.raises(ValueError, match="no minimizer"):
            RidgeRegression([1.0, 2.0], [1.0, 0.0],
                            epsilon=0).all_minimizers()
        assert Quadratic(np.zeros((1, 1, 1)), np.zeros((1, 1))) \
            .minimizer(0) is None
        assert CustomLoss(1, 1, lambda i, x: 0.0, lambda i, x: 0 * x,
                          smoothness=1.0).minimizer(0) is None

    def test_node_index_range(self):
        loss = SquaredDistance(np.zeros((3, 1)))
        with pytest.raises(IndexError):
            loss.value(3, np.zeros(1))

    @pytest.mark.parametrize("method", ["value", "gradient", "smoothness",
                                        "strong_convexity", "minimizer"])
    @pytest.mark.parametrize("family", ["squared", "ridge", "quadratic",
                                        "custom"])
    def test_per_node_protocol(self, family, method):
        rng = np.random.default_rng(0)
        loss = {
            "squared": lambda: SquaredDistance(rng.normal(size=(4, 2))),
            "ridge": lambda: RidgeRegression(rng.normal(size=4),
                                             rng.normal(size=4)),
            "quadratic": lambda: random_quadratic(rng, 4, 2),
            "custom": lambda: CustomLoss(
                4, 2, lambda i, x: float(x @ x) + i, lambda i, x: 2 * x,
                2.0, 2.0, minimizer_fn=lambda i: [0.0, 0.0]),
        }[family]()
        call = getattr(loss, method)
        x = rng.normal(size=2)
        args = (x,) if method in ("value", "gradient") else ()
        for bad in (loss.num_nodes, -1):
            with pytest.raises(IndexError):
                call(bad, *args)
        for i in range(loss.num_nodes):
            want = np.asarray(call(i, *args))
            assert want.dtype == np.float64
            if args:
                got = np.asarray(call(i, list(x)))
                assert got.tobytes() == want.tobytes()


class TestReadWhole:
    """The threshold calculators and the curvature aggregates read a
    built-in family through its arrays, never node by node."""

    @pytest.mark.parametrize("family", ["squared", "ridge", "quadratic"])
    def test_no_per_node_calls(self, family, monkeypatch):
        calls = []
        for name in ("gradient", "smoothness", "strong_convexity"):
            def counted(self, i, *args, _name=name, _method=getattr(Loss,
                                                                     name)):
                calls.append(_name)
                return _method(self, i, *args)
            monkeypatch.setattr(Loss, name, counted)
        rng = np.random.default_rng(0)
        n = 30
        loss = {"squared": lambda: SquaredDistance(rng.normal(size=(n, 2))),
                "ridge": lambda: RidgeRegression(rng.normal(size=n),
                                                 rng.normal(size=n)),
                "quadratic": lambda: random_quadratic(rng, n, 3)}[family]()
        graph = knn_gaussian_graph(rng.normal(size=(n, 2)), 5, 1.0)
        recovery_interval(loss, graph, np.arange(n) % 3)
        exact_penalty_threshold(loss, bound_C_quadratic(loss))
        loss.max_smoothness()
        loss.min_strong_convexity()
        assert calls == []
        loss.gradient(0, np.zeros(loss.dim))
        assert calls == ["gradient"]  # the counter is live
