"""The convex path against exact solutions of the 1-D problem.

Criterion 07's convex problem is weighted 1-D total variation
denoising, 0.5 ||x - a||^2 + gamma sum_e w_e |x_{e+1} - x_e| on a chain,
which ``oracles.tv1d_exact`` solves exactly in O(n).  The oracle is
checked first against two independent solvers (the BVLS dual and a
KKT check of every fusion pattern); then every step of the criterion's
``gamma_path`` is measured against it.
"""

import numpy as np
import pytest
from oracles import tv1d_brute_force, tv1d_bvls, tv1d_exact

from netlasso.datasets import gen_piecewise_signal
from netlasso.graph import path_graph
from netlasso.losses import SquaredDistance
from netlasso.path import extract_partition, gamma_path

LEVELS = [(35, 0.0), (35, 2.0), (30, 0.8), (35, 2.2), (30, 1.0), (35, 2.6)]


def random_instance(rng, n):
    a = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
    lam = rng.uniform(0.0, 2.0, size=n - 1) * rng.choice([0.01, 0.3, 1, 5])
    return a, lam


class TestOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bvls_and_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            a, lam = random_instance(rng, int(rng.integers(1, 8)))
            x = tv1d_exact(a, lam)
            np.testing.assert_allclose(x, tv1d_brute_force(a, lam),
                                       rtol=0, atol=1e-12)
            if len(a) > 1:
                np.testing.assert_allclose(x, tv1d_bvls(a, lam), rtol=0,
                                           atol=1e-12)

    def test_matches_bvls_on_a_long_chain(self):
        rng = np.random.default_rng(11)
        a = np.repeat(rng.normal(size=8) * 3.0, 25) + rng.normal(size=200)
        for scale in (1e-3, 0.1, 1.0, 10.0, 1e3):
            lam = scale * rng.uniform(0.1, 1.0, size=199)
            np.testing.assert_allclose(tv1d_exact(a, lam),
                                       tv1d_bvls(a, lam), rtol=0, atol=1e-9)

    def test_limits(self):
        a = np.array([3.0, -1.0, 2.0, 0.5])
        np.testing.assert_array_equal(tv1d_exact(a, np.zeros(3)), a)
        np.testing.assert_allclose(tv1d_exact(a, np.full(3, 1e6)),
                                   np.full(4, a.mean()), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(tv1d_exact([2.5], []), [2.5])


def test_gamma_path_reaches_the_exact_solutions():
    # criterion 07's convex path, seed 0: every step within 1e-3 of the
    # exact solution (about 9e-5 today) and with the exact jump count
    sig = gen_piecewise_signal(200, LEVELS, noise_sd=0.2, seed=0)
    xhat = sig.noisy.reshape(-1, 1)
    graph = path_graph(200, points=xhat, alpha=0.5)
    gammas = [1e-3 * 1.2 ** t for t in range(100)]
    result = gamma_path(SquaredDistance(xhat), graph, gammas, x0=xhat,
                        warm_start=True, rho=200.0, max_iters=500,
                        eps_abs=1e-6, eps_rel=1e-6)
    assert len(result.steps) == 100
    for gamma, step in zip(gammas, result.steps):
        exact = tv1d_exact(xhat[:, 0], gamma * graph.weights)
        assert np.abs(step.centroids[:, 0] - exact).max() < 1e-3
        assert step.partition.num_clusters \
            == extract_partition(exact, graph).num_clusters
