import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from oracles import dense_table_ari, pair_count_ari, tv1d_exact

from netlasso.datasets import gen_piecewise_signal
from netlasso.graph import (WeightedGraph, complete_graph, merged_components,
                            path_graph)
from netlasso.losses import SquaredDistance
from netlasso.path import (
    Partition,
    PathResult,
    PathStep,
    adjusted_rand_index,
    extract_partition,
    gamma_path,
    k_path,
    midpoint_init,
    save_centroids_csv,
    save_path_json,
)
from netlasso import path as path_module
from netlasso import solver
from netlasso.solver import (RhoSchedule, SolverConfig, _Factors, solve_nl,
                             solve_ntl)


class TestPartition:
    def test_canonical_first_occurrence(self):
        p = Partition(np.array([2, 2, 0, 1]))
        assert p.labels.tolist() == [0, 0, 1, 2]
        assert p.num_clusters == 3

    def test_canonical_labels_match_a_first_occurrence_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            labels = canonize(rng.integers(0, int(rng.integers(1, 9)),
                                           size=int(rng.integers(1, 40))))
            seen = {}
            expected = [seen.setdefault(int(v), len(seen)) for v in labels]
            got = Partition(labels).labels
            assert got.dtype == np.int64 and got.tolist() == expected

    def test_rejects_sparse_ids(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2]))

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, -1]))
        with pytest.raises(ValueError):
            Partition(np.array([], dtype=int))

    def test_clusters_listing(self):
        p = Partition(np.array([0, 1, 0, 1]))
        groups = [g.tolist() for g in p.clusters()]
        assert groups == [[0, 2], [1, 3]]


class TestExtractPartition:
    def test_all_equal_single_cluster(self):
        x = np.ones((5, 2))
        p = extract_partition(x, complete_graph(5))
        assert p.num_clusters == 1

    def test_all_distinct_singletons(self):
        x = np.arange(10, dtype=float).reshape(5, 2)
        p = extract_partition(x, complete_graph(5))
        assert p.num_clusters == 5

    def test_path_with_gap_splits_in_two(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        p = extract_partition(x, path_graph(4), merge_tol=1e-6)
        assert p.labels.tolist() == [0, 0, 1, 1]

    def test_tolerance_is_relative(self):
        x = np.array([[1000.0], [1000.0 + 1e-4], [2000.0]])
        p = extract_partition(x, path_graph(3), merge_tol=1e-6)
        # 1e-4 <= 1e-6 * (1 + 2000): edge (0,1) counts as merged
        assert p.labels.tolist() == [0, 0, 1]

    def test_equal_but_unconnected_stay_apart(self):
        # the middle node blocks the merge chain, so equal endpoint
        # centroids do not end up in the same cluster
        x = np.array([[0.0], [5.0], [0.0]])
        p = extract_partition(x, path_graph(3))
        assert p.num_clusters == 3

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = 8
            x = rng.normal(size=(n, 2))
            x[3] = x[0]  # force one merge candidate
            g = complete_graph(n)
            perm = rng.permutation(n)
            p_orig = extract_partition(x, g)
            p_perm = extract_partition(x[perm], g)
            for a in range(n):
                for b in range(n):
                    same_orig = p_orig.labels[perm[a]] == p_orig.labels[perm[b]]
                    same_perm = p_perm.labels[a] == p_perm.labels[b]
                    assert same_orig == same_perm


class TestPartitionRelation:
    def test_perfect(self):
        from netlasso.path import partition_relation
        p = Partition(np.array([0, 0, 1, 1]))
        q = Partition(np.array([1, 1, 0, 0]))  # same partition, new names
        assert partition_relation(p, q) == "perfect"

    def test_nontrivial_coarsening(self):
        from netlasso.path import partition_relation
        p_hat = Partition(np.array([0, 0, 1, 1]))
        p_true = Partition(np.array([0, 1, 2, 2]))
        assert partition_relation(p_hat, p_true) == "nontrivial-coarsening"

    def test_trivial_coarsening(self):
        from netlasso.path import partition_relation
        p_hat = Partition(np.zeros(4, dtype=int))
        p_true = Partition(np.array([0, 0, 1, 1]))
        assert partition_relation(p_hat, p_true) == "trivial-coarsening"

    def test_crossing_is_other(self):
        from netlasso.path import partition_relation
        p_hat = Partition(np.array([0, 1, 0, 1]))
        p_true = Partition(np.array([0, 0, 1, 1]))
        assert partition_relation(p_hat, p_true) == "other"

    def test_size_mismatch(self):
        from netlasso.path import partition_relation
        with pytest.raises(ValueError):
            partition_relation(Partition(np.zeros(3, dtype=int)),
                               Partition(np.zeros(4, dtype=int)))

    def test_self_relation_and_one_cluster_relation(self):
        from netlasso.path import partition_relation
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            labels = rng.integers(0, 3, size=n)
            labels[0] = 0  # keep ids dense after canonicalization
            p = Partition(canonize(labels))
            assert partition_relation(p, p) == "perfect"
            one = Partition(np.zeros(n, dtype=int))
            assert partition_relation(one, p) in ("perfect",
                                                  "trivial-coarsening")


def canonize(labels):
    # densify arbitrary ids for test construction
    _, dense = np.unique(np.asarray(labels), return_inverse=True)
    return dense


class TestAdjustedRandIndex:
    def test_identical_is_one(self):
        p = Partition(np.array([0, 0, 1, 2]))
        assert adjusted_rand_index(p, p) == 1.0

    def test_singletons_vs_one_cluster(self):
        p1 = Partition(np.arange(4))
        p2 = Partition(np.zeros(4, dtype=int))
        assert adjusted_rand_index(p1, p2) == pytest.approx(0.0)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            a = Partition(canonize(rng.integers(0, 4, size=n)))
            b = Partition(canonize(rng.integers(0, 3, size=n)))
            got = adjusted_rand_index(a, b)
            assert got == pytest.approx(pair_count_ari(a.labels, b.labels),
                                        abs=1e-12)
            assert adjusted_rand_index(b, a) == pytest.approx(got, abs=1e-12)

    def test_equals_dense_table_bitwise(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            a = Partition(canonize(rng.integers(0, int(rng.integers(1, 12)),
                                                size=n)))
            b = Partition(canonize(rng.integers(0, int(rng.integers(1, 12)),
                                                size=n)))
            assert adjusted_rand_index(a, b) == \
                dense_table_ari(a.labels, b.labels)

    def test_no_dense_contingency_table(self):
        # 5,000 clusters on each side: the dense table alone would take
        # 5,000^2 * 8 bytes = 200 MB
        n, c = 10_000, 5_000
        rng = np.random.default_rng(3)
        p1 = Partition(np.arange(n) % c)
        p2 = Partition(canonize(rng.permutation(n) % c))
        tracemalloc.start()
        try:
            adjusted_rand_index(p1, p2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < c * c * 8 / 100

    def test_zero_denominator_cases(self):
        p1 = Partition(np.arange(3))
        assert adjusted_rand_index(p1, p1) == 1.0
        single = Partition(np.zeros(1, dtype=int))
        assert adjusted_rand_index(single, single) == 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index(Partition(np.zeros(2, dtype=int)),
                                Partition(np.zeros(3, dtype=int)))


def split_instance():
    pts = np.array([0.0, 0.1, 5.0, 5.1])
    return SquaredDistance(pts), path_graph(4)


class TestKPath:
    def test_single_full_cardinality_step(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(4, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(4)
        result = k_path(losses, g, gamma=1.0, k_sequence=[g.num_edges],
                        rho=10.0, eps_abs=1e-10, eps_rel=1e-10,
                        max_iters=3000)
        assert len(result.steps) == 1
        np.testing.assert_allclose(result.steps[0].centroids, pts,
                                   atol=1e-6)
        assert result.steps[0].partition.num_clusters == 4

    def test_sweep_records_monotone_parameters(self):
        losses, g = split_instance()
        result = k_path(losses, g, gamma=2.0, k_sequence=[3, 1, 0],
                        rho=100.0, eps_abs=1e-10, eps_rel=1e-10,
                        max_iters=4000)
        assert result.parameters() == [3, 1, 0]
        assert result.kind == "cardinality"

    def test_terminal_zero_matches_convex_solver(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(5, 2))
        losses = SquaredDistance(pts)
        g = complete_graph(5)  # unit weights
        gamma = 0.25
        result = k_path(losses, g, gamma=gamma,
                        k_sequence=[g.num_edges, 4, 0], rho=50.0,
                        eps_abs=1e-11, eps_rel=1e-11, max_iters=20000)
        state, _ = solve_nl(losses, g, gamma, eps_abs=1e-11, eps_rel=1e-11,
                            max_iters=20000)
        from netlasso.graph import DifferenceOperator
        from netlasso.solver import objective_convex
        op = DifferenceOperator(g, 2)
        convex_obj = objective_convex(losses, op, state.x, gamma, g.weights)
        assert result.steps[-1].objective == pytest.approx(convex_obj,
                                                           abs=1e-6)

    def test_rejects_bad_sequences(self):
        losses, g = split_instance()
        with pytest.raises(ValueError):
            k_path(losses, g, 1.0, [])
        with pytest.raises(ValueError):
            k_path(losses, g, 1.0, [1, 1])
        with pytest.raises(ValueError):
            k_path(losses, g, 1.0, [0, 1])
        with pytest.raises(ValueError):
            k_path(losses, g, 1.0, [99, 1])
        # non-integral budgets used to be truncated to [2, 1, 0]
        with pytest.raises(ValueError):
            k_path(losses, g, 1.0, [2.5, 1.2, 0])
        with pytest.raises(ValueError):
            k_path(losses, g, 1.0, [True, 0])
        with pytest.raises(TypeError):
            k_path(losses, g, 1.0, [1], bogus_option=1)

    def test_split_found_along_sweep(self):
        losses, g = split_instance()
        gamma = 3 * 4 * 5.1 * 1.001
        result = k_path(losses, g, gamma=gamma, k_sequence=[2, 1],
                        rho=100.0, eps_abs=1e-11, eps_rel=1e-11,
                        max_iters=5000)
        final = result.steps[-1]
        assert final.partition.labels.tolist() == [0, 0, 1, 1]


class TestGammaPath:
    def test_tiny_strength_stays_near_minimizers(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(5, 2))
        losses = SquaredDistance(pts)
        result = gamma_path(losses, complete_graph(5), [1e-8],
                            eps_abs=1e-10, eps_rel=1e-10, max_iters=5000)
        np.testing.assert_allclose(result.steps[0].centroids, pts,
                                   atol=1e-5)
        assert result.steps[0].partition.num_clusters == 5

    def test_geometric_schedule_merges_symmetric_data(self):
        pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        losses = SquaredDistance(pts)
        g = complete_graph(4)
        gammas = [1e-3 * 1.2 ** t for t in range(50)]
        result = gamma_path(losses, g, gammas, stop_on_full_merge=True,
                            eps_abs=1e-9, eps_rel=1e-9, max_iters=5000)
        final = result.steps[-1]
        assert final.partition.num_clusters == 1
        assert len(result.steps) < 50
        np.testing.assert_allclose(final.centroids,
                                   np.tile(pts.mean(axis=0), (4, 1)),
                                   atol=1e-4)

    def test_cold_start_matches_warm_start_solutions(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(4, 1))
        losses = SquaredDistance(pts)
        g = complete_graph(4)
        gammas = [0.01, 0.05, 0.2]
        warm = gamma_path(losses, g, gammas, warm_start=True,
                          eps_abs=1e-10, eps_rel=1e-10, max_iters=20000)
        cold = gamma_path(losses, g, gammas, warm_start=False,
                          eps_abs=1e-10, eps_rel=1e-10, max_iters=20000)
        for s_w, s_c in zip(warm.steps, cold.steps):
            np.testing.assert_allclose(s_w.centroids, s_c.centroids,
                                       atol=1e-6)

    def test_rejects_bad_sequences(self):
        losses, g = split_instance()
        with pytest.raises(ValueError):
            gamma_path(losses, g, [])
        with pytest.raises(ValueError):
            gamma_path(losses, g, [0.2, 0.1])
        with pytest.raises(ValueError):
            gamma_path(losses, g, [-0.1, 0.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_strength_rejected_before_any_solve(self, monkeypatch,
                                                           bad):
        # NaN and inf used to pass the positivity check, and the sweep
        # failed inside SolverConfig only after solving the earlier steps
        calls = []
        monkeypatch.setattr(path_module, "solve_nl",
                            lambda *args, **kwargs: calls.append(args))
        losses, g = split_instance()
        with pytest.raises(ValueError, match="finite"):
            gamma_path(losses, g, [0.1, bad])
        with pytest.raises(ValueError, match="finite"):
            gamma_path(losses, g, [bad])
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
    def test_bad_merge_tol_rejected_before_any_solve(self, monkeypatch, bad):
        # a NaN tolerance used to pass the sign check and leave every
        # node a singleton
        calls = []
        for name in ("solve_nl", "solve_ntl"):
            monkeypatch.setattr(path_module, name,
                                lambda *args, **kwargs: calls.append(args))
        losses, g = split_instance()
        with pytest.raises(ValueError, match="merge_tol"):
            extract_partition(losses.points, g, merge_tol=bad)
        with pytest.raises(ValueError, match="merge_tol"):
            k_path(losses, g, 1.0, [1, 0], merge_tol=bad)
        with pytest.raises(ValueError, match="merge_tol"):
            gamma_path(losses, g, [0.1, 1.0], merge_tol=bad)
        assert calls == []

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_dual_carried_only_with_warm_start(self, monkeypatch,
                                               warm_start):
        starts, states = [], []

        def recorded(*args, **kwargs):
            starts.append((kwargs["x0"], kwargs["y0"]))
            states.append(solve_nl(*args, **kwargs)[0])
            return states[-1], states[-1].stop_reason

        monkeypatch.setattr(path_module, "solve_nl", recorded)
        losses, g = split_instance()
        x0 = losses.points + 0.01
        for gammas, secant_steps in [
                ([0.01, 0.1, 1.0], ()),
                # step ratios 1, 1.5, then 10: secant starts at 2 and 3
                ([0.01, 0.02, 0.03, 0.045, 0.45], (2, 3))]:
            starts.clear()
            states.clear()
            gamma_path(losses, g, gammas, x0=x0, warm_start=warm_start,
                       max_iters=60)
            assert len(starts) == len(gammas)
            assert starts[0][0] is not None and starts[0][1] is None
            for k in range(1, len(gammas)):
                (x, y), prev = starts[k], states[k - 1]
                if not warm_start:
                    np.testing.assert_array_equal(x, x0)
                    assert y is None
                elif k in secant_steps:
                    before = states[k - 2]
                    t = (gammas[k] - gammas[k - 1]) \
                        / (gammas[k - 1] - gammas[k - 2])
                    assert same_bits(x, prev.x + t * (prev.x - before.x))
                    assert same_bits(y, prev.y + t * (prev.y - before.y))
                else:
                    assert x is prev.x and y is prev.y

    def test_secant_start_is_exact_inside_one_linear_piece(self):
        # 1-D total variation on a chain: between merges the solution
        # and its dual are linear in gamma, so the secant through two
        # converged steps starts the third at its own solution
        a = gen_piecewise_signal(40, [(20, 0.0), (20, 2.0)], noise_sd=0.2,
                                 seed=0).noisy
        g = path_graph(40)
        gammas = [0.01, 0.012, 0.0144]
        exact = [tv1d_exact(a, gamma * g.weights) for gamma in gammas]
        jumps = [np.abs(np.diff(e)) > 1e-12 for e in exact]
        assert all(np.array_equal(j, jumps[0]) for j in jumps)
        result = gamma_path(SquaredDistance(a.reshape(-1, 1)), g, gammas,
                            rho=1.0, eps_abs=1e-10, eps_rel=1e-10)
        assert [s.stop_reason for s in result.steps] == ["converged"] * 3
        # started at the second step's state instead, it takes 39
        assert result.steps[2].iterations <= 2
        assert np.abs(result.steps[2].centroids[:, 0]
                      - exact[2]).max() < 1e-8


def count_factorizations(monkeypatch):
    """Record the shape of every matrix ``netlasso.solver`` factorizes."""
    calls = []
    orig = solver.splu

    def counted(A, *args, **kwargs):
        calls.append(A.shape)
        return orig(A, *args, **kwargs)

    monkeypatch.setattr(solver, "splu", counted)
    return calls


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def assert_step_equals_solve(step, state, reason):
    assert same_bits(step.centroids, state.x)
    assert step.iterations == state.iterations
    assert step.stop_reason == reason
    assert same_bits(step.objective, state.objectives[-1])
    assert same_bits(step.primal_residual, state.primal_residuals[-1])


def cache_instance():
    rng = np.random.default_rng(41)
    pts = np.concatenate([rng.normal(size=(5, 2)),
                          rng.normal(size=(5, 2)) + 4.0])
    return SquaredDistance(pts), complete_graph(10)


class TestSharedFactorization:
    """Paths factorize each x-system once and give the same bits as
    independent solves, step for step."""

    PATH_OPTIONS = [
        {"rho": 20.0, "max_iters": 300},
        {"rho": 20.0, "max_iters": 300, "x_update": "linearized"},
        {"rho": 20.0, "max_iters": 300, "x_update": "linearized",
         "smoothness": 3.0},
        {"rho": 0.5, "max_iters": 400,
         "rho_schedule": RhoSchedule(4.0, 200.0, 25)},
    ]

    @pytest.mark.parametrize("options", PATH_OPTIONS)
    def test_k_path_steps_equal_independent_solves(self, options):
        losses, g = cache_instance()
        ks = [40, 20, 8, 3, 1, 0]
        result = k_path(losses, g, 1.5, ks, **options)
        x = None
        for K, step in zip(ks, result.steps):
            config = SolverConfig(gamma=1.5, cardinality=K, **options)
            state, reason = solve_ntl(losses, g, config, x0=x)
            assert_step_equals_solve(step, state, reason)
            x = state.x

    @pytest.mark.parametrize("warm_start", [True, False])
    @pytest.mark.parametrize("options", [
        {"rho": 2.0, "max_iters": 300},
        {"rho": 2.0, "max_iters": 300, "x_update": "linearized"}])
    def test_gamma_path_steps_equal_independent_solves(self, options,
                                                       warm_start):
        losses, g = cache_instance()
        # step ratios of at least 3.75, then of about 1 (secant starts)
        for gammas in ([0.01, 0.05, 0.2, 0.8, 3.0],
                       [0.01, 0.02, 0.03, 0.04, 0.05, 0.2]):
            result = gamma_path(losses, g, gammas, warm_start=warm_start,
                                **options)
            x = y = last = None
            rho = options["rho"]
            for k, (gamma, step) in enumerate(zip(gammas, result.steps)):
                state, reason = solve_nl(losses, g, gamma, x0=x, y0=y,
                                         **{**options, "rho": rho})
                assert_step_equals_solve(step, state, reason)
                # the partition comes from the final z, by the rule of x's
                assert step.partition.same_as(Partition(
                    merged_components(g, state.x, 1e-6, state.z)[1]))
                if warm_start:
                    x, y, rho = state.x, state.y, state.rho
                    if last is not None and k + 1 < len(gammas):
                        t = (gammas[k + 1] - gamma) \
                            / (gamma - gammas[k - 1])
                        if t <= 2:
                            x = state.x + t * (state.x - last.x)
                            y = state.y + t * (state.y - last.y)
                    last = state

    @pytest.mark.parametrize("x_update", ["exact", "linearized"])
    def test_constant_rho_path_factorizes_once(self, monkeypatch, x_update):
        # once per distinct rho: k_path keeps the configured rho, and
        # gamma_path starts each step at the last step's rho and balances
        # it
        losses, g = cache_instance()
        calls = count_factorizations(monkeypatch)
        k_path(losses, g, 1.5, [40, 20, 8, 3, 1, 0], rho=20.0,
               max_iters=100, x_update=x_update)
        assert len(calls) == 1
        gammas = [0.01, 0.1, 1.0]
        visited = set()
        x = y = None
        rho = 2.0
        for gamma in gammas:
            state, _ = solve_nl(losses, g, gamma, x0=x, y0=y, rho=rho,
                                max_iters=100, x_update=x_update)
            visited.update(state.rhos)
            x, y, rho = state.x, state.y, state.rho
        assert len(visited) > 1
        calls.clear()
        gamma_path(losses, g, gammas, rho=2.0, max_iters=100,
                   x_update=x_update)
        assert len(calls) == len(visited)

    def test_rho_schedule_factorizes_once_per_distinct_rho(self,
                                                          monkeypatch):
        losses, g = cache_instance()
        schedule = RhoSchedule(4.0, 200.0, 25)
        calls = count_factorizations(monkeypatch)
        config = SolverConfig(gamma=1.5, cardinality=3, rho=0.5,
                              rho_schedule=schedule, max_iters=400,
                              eps_abs=0.0, eps_rel=0.0)
        state, _ = solve_ntl(losses, g, config)
        assert len(set(state.rhos)) == 6  # 0.5, 2, 8, 32, 128, 200
        assert len(calls) == 6
        calls.clear()
        # along a path every step climbs the same ladder of rho values
        k_path(losses, g, 1.5, [20, 3, 0], rho=0.5, rho_schedule=schedule,
               max_iters=400, eps_abs=0.0, eps_rel=0.0)
        assert len(calls) == 6

    def test_changed_settings_never_reuse_a_factor(self, monkeypatch):
        losses, g = cache_instance()
        factors = _Factors(losses, g)
        calls = count_factorizations(monkeypatch)
        runs = [{"x_update": "linearized"},
                {"x_update": "linearized", "smoothness": 3.0},
                {"x_update": "linearized", "smoothness": 5.0},
                {"x_update": "exact"},
                {"x_update": "exact", "rho": 30.0}]
        for options in runs:
            config = SolverConfig(**{"gamma": 1.5, "cardinality": 3,
                                     "rho": 20.0, "max_iters": 60,
                                     **options})
            before = len(calls)
            shared = solve_ntl(losses, g, config, _factors=factors)[0]
            assert len(calls) == before + 1
            fresh = solve_ntl(losses, g, config)[0]
            assert same_bits(shared.x, fresh.x)
            assert same_bits(shared.objectives, fresh.objectives)
        # a repeated setting reuses its factor
        config = SolverConfig(gamma=0.7, cardinality=5, rho=20.0,
                              max_iters=60, x_update="linearized")
        before = len(calls)
        solve_ntl(losses, g, config, _factors=factors)
        assert len(calls) == before

    def test_factors_of_another_problem_rejected(self):
        losses, g = cache_instance()
        factors = _Factors(losses, g)
        other = SquaredDistance(np.zeros((10, 2)))
        config = SolverConfig(gamma=1.0, cardinality=2, max_iters=5)
        with pytest.raises(ValueError):
            solve_ntl(other, g, config, _factors=factors)
        with pytest.raises(ValueError):
            solve_nl(losses, complete_graph(10), 1.0, max_iters=5,
                     _factors=factors)


class TestMidpointInit:
    def make_path(self, cluster_counts):
        steps = []
        for t, c in enumerate(cluster_counts):
            labels = np.zeros(4, dtype=int)
            if c > 1:
                labels[-1] = 1
            x = np.full((4, 1), float(t))
            steps.append(PathStep(parameter=float(t + 1), centroids=x,
                                  partition=Partition(labels),
                                  objective=0.0, iterations=1,
                                  stop_reason="converged",
                                  primal_residual=0.0))
        return PathResult(kind="strength", steps=steps)

    def test_middle_of_all_unmerged(self):
        path = self.make_path([2, 2, 2, 2, 2])
        mid = midpoint_init(path)
        assert mid[0, 0] == 2.0

    def test_merged_steps_excluded(self):
        path = self.make_path([2, 2, 2, 1, 1])
        mid = midpoint_init(path)
        assert mid[0, 0] == 1.0

    def test_fully_merged_path_errors(self):
        path = self.make_path([1, 1, 1])
        with pytest.raises(ValueError):
            midpoint_init(path)

    def test_pipeline_feeds_trimmed_solver(self):
        losses, g = split_instance()
        gammas = [0.05 * 2.0 ** t for t in range(8)]
        sweep = gamma_path(losses, g, gammas, eps_abs=1e-9, eps_rel=1e-9,
                           max_iters=5000)
        x_init = midpoint_init(sweep)
        from netlasso.solver import SolverConfig, solve_ntl
        cfg = SolverConfig(gamma=3 * 4 * 5.1 * 1.001, cardinality=1,
                           rho=100.0, eps_abs=1e-10, eps_rel=1e-10,
                           max_iters=5000)
        state, reason = solve_ntl(losses, g, cfg, x0=x_init)
        assert reason == "converged"
        part = extract_partition(state.x, g)
        assert part.labels.tolist() == [0, 0, 1, 1]


class TestPathResultValidationAndExport:
    def test_monotonicity_enforced(self):
        losses, g = split_instance()
        result = k_path(losses, g, 1.0, [2, 0], rho=50.0, max_iters=500)
        with pytest.raises(ValueError):
            PathResult(kind="cardinality",
                       steps=list(reversed(result.steps)))
        with pytest.raises(ValueError):
            PathResult(kind="bogus", steps=[])

    def test_json_export(self):
        losses, g = split_instance()
        result = k_path(losses, g, 1.0, [3, 1], rho=100.0,
                        eps_abs=1e-9, eps_rel=1e-9, max_iters=3000)
        buf = io.StringIO()
        save_path_json(result, buf)
        data = json.loads(buf.getvalue())
        assert data["kind"] == "cardinality"
        assert [s["parameter"] for s in data["steps"]] == [3, 1]
        assert all(len(s["labels"]) == 4 for s in data["steps"])
        assert all(s["num_clusters"] >= 1 for s in data["steps"])

    def test_csv_export_round_trips_floats(self):
        losses, g = split_instance()
        result = k_path(losses, g, 1.0, [2], rho=100.0, eps_abs=1e-9,
                        eps_rel=1e-9, max_iters=3000)
        buf = io.StringIO()
        save_centroids_csv(result, buf)
        lines = buf.getvalue().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "parameter"
        assert len(header) == 1 + 4  # 4 nodes, 1 dim
        cells = lines[1].split(",")
        back = np.array([float(c) for c in cells[1:]])
        np.testing.assert_array_equal(
            back, result.steps[0].centroids.reshape(-1))

    def test_csv_rejects_empty_path(self):
        with pytest.raises(ValueError):
            save_centroids_csv(PathResult(kind="strength", steps=[]),
                               io.StringIO())
