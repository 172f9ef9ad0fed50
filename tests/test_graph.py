import itertools
import math

import numpy as np
import pytest
from oracles import incidence_apply, knn_pairs_slow

from netlasso.datasets import gen_half_moons
from netlasso.graph import (
    DifferenceOperator,
    WeightedGraph,
    complete_graph,
    knn_gaussian_graph,
    load_edge_list,
    path_graph,
    save_edge_list,
    sigma_min_DDt,
)


def dense_difference_matrix(graph, p):
    """Loop-built dense difference operator, used as the oracle."""
    m, n = graph.num_edges, graph.num_nodes
    D = np.zeros((m * p, n * p))
    for k, (i, j) in enumerate(graph.edges):
        for c in range(p):
            D[k * p + c, i * p + c] = 1.0
            D[k * p + c, j * p + c] = -1.0
    return D


def random_forest(rng, n):
    """Random spanning tree on n nodes (so D is surjective)."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    return WeightedGraph(n, np.array(edges))


class TestWeightedGraph:
    def test_normalizes_orientation_and_order(self):
        g = WeightedGraph(4, [(2, 0), (3, 1), (0, 1)], [5.0, 6.0, 7.0])
        np.testing.assert_array_equal(g.edges, [[0, 1], [0, 2], [1, 3]])
        np.testing.assert_array_equal(g.weights, [7.0, 5.0, 6.0])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, [(0, 1), (1, 0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, [(0, 1)], [-0.5])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, [(0, 3)])

    def test_zero_weight_edges_are_kept(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [0.0, 1.0])
        assert g.num_edges == 2
        assert g.weights[0] == 0.0

    def test_rejects_no_nodes(self):
        with pytest.raises(ValueError, match="num_nodes must be at least 1"):
            WeightedGraph(0, [])

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="disagree in length"):
            WeightedGraph(3, [(0, 1)], [1.0, 2.0])

    def test_repr(self):
        assert repr(path_graph(3)) == "WeightedGraph(num_nodes=3, num_edges=2)"


class TestBuilders:
    def test_complete_uniform_n3(self):
        g = complete_graph(3)
        np.testing.assert_array_equal(g.edges, [[0, 1], [0, 2], [1, 2]])
        np.testing.assert_array_equal(g.weights, [1.0, 1.0, 1.0])

    def test_complete_single_node(self):
        g = complete_graph(1)
        assert g.num_edges == 0

    def test_complete_gaussian_weights(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 0.0]])
        g = complete_graph(3, points=pts, alpha=0.5)
        # ||a0 - a1||^2 = 5, so w_01 = exp(-2.5)
        assert g.weights[0] == pytest.approx(math.exp(-2.5), rel=1e-15)
        assert g.weights[1] == pytest.approx(math.exp(-4.5), rel=1e-15)

    def test_points_must_match_the_node_count(self):
        with pytest.raises(ValueError, match="points and num_nodes disagree"):
            complete_graph(3, points=np.zeros((4, 2)))

    def test_points_of_another_rank_rejected(self):
        with pytest.raises(ValueError, match="^points must be a 1-D or 2-D"):
            complete_graph(2, points=np.zeros((2, 1, 1)))

    def test_knn_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            knn_gaussian_graph(np.zeros((3, 2)), k=0)

    def test_knn_on_one_point_is_edgeless(self):
        g = knn_gaussian_graph([[1.0, 2.0]], k=3)
        assert (g.num_nodes, g.num_edges) == (1, 0)

    def test_knn_collinear_k1(self):
        pts = np.array([0.0, 1.0, 10.0])
        g = knn_gaussian_graph(pts, k=1, alpha=0.5)
        # nearest neighbour of 0 is 1, of 1 is 0, of 2 is 1;
        # the "or" rule yields exactly {0,1} and {1,2}
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])

    def test_knn_tie_prefers_smaller_index(self):
        # nodes 1 and 2 are equidistant from node 0
        pts = np.array([[0.0], [1.0], [-1.0], [5.0]])
        g = knn_gaussian_graph(pts, k=1, alpha=0.5)
        assert (0, 1) in {tuple(e) for e in g.edges}

    def test_knn_large_k_is_complete(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 2))
        g = knn_gaussian_graph(pts, k=10, alpha=0.5)
        ref = complete_graph(6, points=pts, alpha=0.5)
        np.testing.assert_array_equal(g.edges, ref.edges)
        np.testing.assert_allclose(g.weights, ref.weights, rtol=1e-15)

    def test_knn_or_rule_symmetry(self):
        # membership of an edge does not depend on point ordering games:
        # every stored edge is justified by at least one direction of the
        # neighbour relation
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(20, 2))
        k = 3
        g = knn_gaussian_graph(pts, k=k, alpha=0.5)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        nn = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for i, j in g.edges:
            assert j in nn[i] or i in nn[j]

    def test_knn_gaussian_weight_values(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(15, 2))
        g = knn_gaussian_graph(pts, k=4, alpha=0.5)
        for (i, j), w in zip(g.edges, g.weights):
            d2 = float(((pts[i] - pts[j]) ** 2).sum())
            assert w == pytest.approx(math.exp(-0.5 * d2), rel=1e-14)

    @pytest.mark.parametrize("k", [1, 3, 4, 7])
    def test_knn_tie_heavy_grid_matches_sorted_loop(self, k):
        # a permuted integer grid: nearly every distance is tied
        axis = np.arange(20.0)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        pts = grid[np.random.default_rng(k).permutation(len(grid))]
        g = knn_gaussian_graph(pts, k=k, alpha=0.1)
        edges, weights = knn_pairs_slow(pts, k, 0.1)
        np.testing.assert_array_equal(g.edges, edges)
        np.testing.assert_array_equal(g.weights, weights)

    @pytest.mark.parametrize("points", [
        gen_half_moons(1500, noise_sd=0.08, seed=7).points,
        np.round(np.random.default_rng(4).normal(size=(700, 3)) * 2),
        np.random.default_rng(5).normal(size=(600, 12))])
    def test_knn_matches_sorted_loop(self, points):
        for k in (1, 5, 10):
            g = knn_gaussian_graph(points, k=k, alpha=15.0)
            edges, weights = knn_pairs_slow(points, k, 15.0)
            np.testing.assert_array_equal(g.edges, edges)
            np.testing.assert_array_equal(g.weights, weights)

    def test_path_graph(self):
        g = path_graph(4)
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2], [2, 3]])
        assert path_graph(1000).num_edges == 999
        assert path_graph(1).num_edges == 0

    def test_path_graph_signal_weights(self):
        sig = np.array([0.0, 1.0, 1.0])
        g = path_graph(3, points=sig, alpha=0.5)
        np.testing.assert_allclose(g.weights,
                                   [math.exp(-0.5), 1.0], rtol=1e-15)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_builders_name_non_finite_points(self, value):
        # a NaN point used to get no kNN edges and no error
        points = np.random.default_rng(0).normal(size=(30, 2))
        points[7, 1] = value
        for build in (lambda: knn_gaussian_graph(points, k=3),
                      lambda: complete_graph(30, points=points),
                      lambda: path_graph(30, points=points)):
            with pytest.raises(ValueError, match=r"non-finite points at"
                                                 r" nodes \[7\]"):
                build()
        with pytest.raises(ValueError, match=r"nodes \[1\]"):
            path_graph(3, points=[0.0, value, 1.0])


class TestDifferenceOperator:
    def test_apply_path_n3(self):
        op = DifferenceOperator(path_graph(3), 1)
        z = op.apply(np.array([[1.0], [4.0], [9.0]]))
        np.testing.assert_allclose(z, [[-3.0], [-5.0]])

    def test_constant_vector_maps_to_zero(self):
        op = DifferenceOperator(complete_graph(5), 3)
        x = np.tile([2.0, -1.0, 0.5], (5, 1))
        np.testing.assert_allclose(op.apply(x), 0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for n, p in [(2, 1), (5, 2), (8, 3)]:
            g = complete_graph(n)
            op = DifferenceOperator(g, p)
            D = dense_difference_matrix(g, p)
            x = rng.normal(size=(n, p))
            np.testing.assert_allclose(op.apply(x).reshape(-1),
                                       D @ x.reshape(-1), atol=1e-14)
            np.testing.assert_allclose(op.to_dense(), D)

    def test_apply_bitwise_equals_incidence_product(self):
        rng = np.random.default_rng(12)
        graphs = [path_graph(1), path_graph(2), path_graph(50),
                  complete_graph(12), random_forest(rng, 30),
                  knn_gaussian_graph(rng.normal(size=(40, 2)), k=3)]
        for g in graphs:
            for p in (1, 2, 3, 5):
                op = DifferenceOperator(g, p)
                x = rng.normal(size=(g.num_nodes, p)) \
                    * rng.lognormal(0.0, 10.0, size=(g.num_nodes, 1))
                pick = rng.random(x.shape)
                x[pick < 0.15] = 0.0
                x[(pick >= 0.15) & (pick < 0.3)] = -0.0
                x[(pick >= 0.3) & (pick < 0.35)] = 5e-320
                x[(pick >= 0.35) & (pick < 0.4)] = -1.7e308
                x[(pick >= 0.4) & (pick < 0.45)] = 1.7e308
                for arr in (x, np.asfortranarray(x)):
                    with np.errstate(over="ignore"):
                        got = op.apply(arr)
                    want = incidence_apply(g, arr)
                    assert got.shape == want.shape
                    np.testing.assert_array_equal(got.view(np.int64),
                                                  want.view(np.int64))

    @staticmethod
    def adjoint_cases(rng):
        """(graph, p, z) triples with signed zeros, subnormals, huge
        values, infinities and NaN, on graphs with isolated nodes and
        without edges."""
        graphs = [path_graph(1), WeightedGraph(4, np.empty((0, 2))),
                  WeightedGraph(7, [(0, 1), (1, 4), (2, 4)]),
                  path_graph(50), complete_graph(12),
                  random_forest(rng, 30)]
        for g in graphs:
            for p in (1, 2, 3):
                z = rng.normal(size=(g.num_edges, p)) \
                    * rng.lognormal(0.0, 10.0, size=(g.num_edges, 1))
                pick = rng.random(z.shape)
                z[pick < 0.15] = 0.0
                z[(pick >= 0.15) & (pick < 0.3)] = -0.0
                z[(pick >= 0.3) & (pick < 0.35)] = 5e-320
                z[(pick >= 0.35) & (pick < 0.4)] = 1.7e308
                z[(pick >= 0.4) & (pick < 0.45)] = np.inf
                z[(pick >= 0.45) & (pick < 0.5)] = -np.inf
                z[(pick >= 0.5) & (pick < 0.55)] = np.nan
                yield g, p, z

    def test_adjoint_bitwise_equals_incidence_product(self):
        rng = np.random.default_rng(13)
        for g, p, z in self.adjoint_cases(rng):
            op = DifferenceOperator(g, p)
            want = g.incidence().T @ z
            wide = np.repeat(z, 2, axis=1)
            for arr in (z, np.asfortranarray(z), wide[:, ::2]):
                got = op.apply_adjoint(arr)
                assert got.shape == want.shape == (g.num_nodes, p)
                np.testing.assert_array_equal(got.view(np.int64),
                                              want.view(np.int64))

    def test_adjoint_from_start_adds_terms_in_edge_order(self):
        # the bits of a loop over the edges that adds z_e onto node i and
        # -z_e onto node j, which np.add.at is; a NaN's sign bit is the
        # one difference (np.add.at negates a NaN, the kernel's product
        # with -1 keeps its sign)
        rng = np.random.default_rng(15)
        for g, p, z in self.adjoint_cases(rng):
            start = rng.normal(size=(g.num_nodes, p))
            start[rng.random(start.shape) < 0.2] = -0.0
            want = start.copy()
            with np.errstate(invalid="ignore", over="ignore"):
                np.add.at(want, g.edges.reshape(-1),
                          np.stack((z, -z), axis=1).reshape(-1, p))
            kept = start.copy()
            op = DifferenceOperator(g, p)
            for first in (start, np.asfortranarray(start)):
                got = op.apply_adjoint(z, start=first)
                np.testing.assert_array_equal(
                    np.where(np.isnan(got), np.nan, got).view(np.int64),
                    np.where(np.isnan(want), np.nan, want).view(np.int64))
                np.testing.assert_array_equal(first.view(np.int64),
                                              kept.view(np.int64))
        with pytest.raises(ValueError):
            DifferenceOperator(path_graph(3), 2).apply_adjoint(
                np.zeros((2, 2)), start=np.zeros((3, 1)))

    def test_apply_signed_zero_difference_is_positive_zero(self):
        # (-0.0) - (+0.0) is -0.0 in plain arithmetic; E @ x gives +0.0
        g = path_graph(3)
        x = np.array([[-0.0], [0.0], [-0.0]])
        got = DifferenceOperator(g, 1).apply(x)
        want = incidence_apply(g, x)
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))
        assert not np.signbit(got).any()

    def test_apply_propagates_nan_and_inf_like_incidence_product(self):
        g = complete_graph(4)
        x = np.array([[np.nan], [np.inf], [np.inf], [-np.inf]])
        with np.errstate(invalid="ignore"):
            got = DifferenceOperator(g, 1).apply(x)
        np.testing.assert_array_equal(got, incidence_apply(g, x))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            n = int(rng.integers(3, 12))
            p = int(rng.integers(1, 4))
            g = knn_gaussian_graph(rng.normal(size=(n, 2)), k=2)
            if g.num_edges == 0:
                continue
            op = DifferenceOperator(g, p)
            x = rng.normal(size=(n, p))
            z = rng.normal(size=(g.num_edges, p))
            lhs = float((op.apply(x) * z).sum())
            rhs = float((x * op.apply_adjoint(z)).sum())
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_laplacian_is_gram_of_dense(self):
        g = complete_graph(6)
        op = DifferenceOperator(g, 1)
        D = dense_difference_matrix(g, 1)
        np.testing.assert_allclose(op.laplacian().toarray(), D.T @ D)

    def test_dense_guard(self):
        op = DifferenceOperator(path_graph(65), 1)
        with pytest.raises(ValueError):
            op.to_dense()

    def test_rejects_block_dim_below_one(self):
        with pytest.raises(ValueError, match="block_dim must be at least 1"):
            DifferenceOperator(path_graph(3), 0)

    def test_shape_validation(self):
        op = DifferenceOperator(path_graph(3), 2)
        with pytest.raises(ValueError):
            op.apply(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            op.apply_adjoint(np.zeros((3, 2)))


class TestSigmaMin:
    def test_path_closed_form_n1000(self):
        s = sigma_min_DDt(path_graph(1000))
        assert s == pytest.approx(2.0 * (1.0 - math.cos(math.pi / 1000)),
                                  rel=1e-14)
        assert s == pytest.approx(9.87e-6, rel=1e-3)

    def test_path_n2(self):
        assert sigma_min_DDt(path_graph(2)) == pytest.approx(2.0, rel=1e-12)

    def test_closed_form_agrees_with_dense_eig(self):
        for n in [2, 3, 7, 17, 64]:
            g = path_graph(n)
            D = dense_difference_matrix(g, 1)
            oracle = float(np.linalg.eigvalsh(D @ D.T)[0])
            assert sigma_min_DDt(g) == pytest.approx(oracle, rel=1e-10)

    def test_cyclic_graph_returns_zero(self):
        assert sigma_min_DDt(complete_graph(3)) == 0.0
        assert sigma_min_DDt(complete_graph(10)) == 0.0

    def test_star_graph_matches_dense_eig(self):
        g = WeightedGraph(5, [(0, i) for i in range(1, 5)])
        D = dense_difference_matrix(g, 1)
        oracle = float(np.linalg.eigvalsh(D @ D.T)[0])
        assert oracle > 0
        assert sigma_min_DDt(g) == pytest.approx(oracle, rel=1e-10)

    def test_star_above_the_dense_limit_uses_shift_invert(self):
        # K_{1,1600}: D D^T = I + J, whose smallest eigenvalue is 1
        m = 1600
        g = WeightedGraph(m + 1, [(0, i) for i in range(1, m + 1)])
        assert sigma_min_DDt(g) == pytest.approx(1.0, rel=1e-10)

    def test_forest_above_the_dense_limit(self):
        # a 1,199-leaf star (nonzero eigenvalues 1 and 1,200), a 601-node
        # chain, one lone edge (2) and three isolated nodes, 1,800 edges
        # with the node ids shuffled: the chain's value is the smallest
        edges = [(0, i) for i in range(1, 1200)]
        edges += [(i, i + 1) for i in range(1200, 1800)]
        edges += [(1801, 1802)]
        perm = np.random.default_rng(5).permutation(1806)
        g = WeightedGraph(1806, perm[np.array(edges)])
        assert sigma_min_DDt(g) == pytest.approx(
            2.0 * (1.0 - math.cos(math.pi / 601)), rel=1e-10)

    def test_random_forests_match_dense_eig(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_forest(rng, int(rng.integers(3, 30)))
            D = dense_difference_matrix(g, 1)
            oracle = float(np.linalg.eigvalsh(D @ D.T)[0])
            assert sigma_min_DDt(g) == pytest.approx(oracle, rel=1e-9)

    def test_every_small_forest_matches_dense_eig(self):
        # each forest on 3 or 4 nodes (chains in node order take the
        # closed form, every other one the shift-invert solve)
        for n in (3, 4):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1, 2 ** len(pairs)):
                edges = [e for b, e in enumerate(pairs) if mask >> b & 1]
                g = WeightedGraph(n, edges)
                D = dense_difference_matrix(g, 1)
                if np.linalg.matrix_rank(D) < len(edges):
                    continue  # a cycle
                oracle = float(np.linalg.eigvalsh(D @ D.T)[0])
                assert sigma_min_DDt(g) == pytest.approx(oracle, rel=1e-9)

    def test_edgeless_graph_raises(self):
        with pytest.raises(ValueError):
            sigma_min_DDt(path_graph(1))


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = knn_gaussian_graph(rng.normal(size=(9, 2)), k=3)
        f = tmp_path / "g.txt"
        save_edge_list(g, f)
        h = load_edge_list(f)
        assert h.num_nodes == g.num_nodes
        np.testing.assert_array_equal(h.edges, g.edges)
        np.testing.assert_array_equal(h.weights, g.weights)

    def test_loader_validates(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("# nodes 3\n0 0 1.0\n")
        with pytest.raises(ValueError):
            load_edge_list(f)

    def test_loader_rejects_malformed_line(self, tmp_path):
        # blank lines and comments other than the header are skipped
        f = tmp_path / "bad.txt"
        f.write_text("# nodes 3\n\n# written by hand\n0 1\n")
        with pytest.raises(ValueError, match="malformed edge line: '0 1'"):
            load_edge_list(f)

    def test_loader_requires_header(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 1 1.0\n")
        with pytest.raises(ValueError):
            load_edge_list(f)
