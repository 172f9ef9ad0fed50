import numpy as np
import pytest
from oracles import (
    brute_force_prox_trimmed,
    prox_trimmed_objective,
    trimmed_norm_slow,
)

from netlasso.penalty import (
    directional_derivative,
    phi_envelope,
    prox_group_l2,
    prox_trimmed,
    trimmed_norm,
)


class TestTrimmedNorm:
    def test_hand_values(self):
        z = np.array([[3.0], [1.0], [2.0]])
        assert trimmed_norm(z, 1) == pytest.approx(3.0)
        assert trimmed_norm(z, 0) == pytest.approx(6.0)
        assert trimmed_norm(z, 3) == 0.0
        assert trimmed_norm(z, 7) == 0.0  # K beyond m acts like m

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            trimmed_norm(np.ones((2, 1)), -1)

    def test_matches_slow_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            p = int(rng.integers(1, 4))
            z = rng.normal(size=(m, p))
            K = int(rng.integers(0, m + 1))
            assert trimmed_norm(z, K) == pytest.approx(
                trimmed_norm_slow(z, K), rel=1e-12)

    def test_zero_iff_sparse_enough(self):
        # exhaustive over all 0/1 support patterns for m <= 4
        for m in range(1, 5):
            for bits in range(2 ** m):
                z = np.zeros((m, 2))
                nnz = 0
                for k in range(m):
                    if bits >> k & 1:
                        z[k] = [1.0 + k, -0.5]
                        nnz += 1
                for K in range(m + 1):
                    assert (trimmed_norm(z, K) == 0.0) == (nnz <= K)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(6, 3))
        vals = [trimmed_norm(z, K) for K in range(7)]
        assert all(vals[i] >= vals[i + 1] for i in range(6))


class TestProxGroupL2:
    def test_shrinks_along_ray(self):
        np.testing.assert_allclose(prox_group_l2(np.array([2.0, 0.0]), 1.0),
                                   [1.0, 0.0])

    def test_zero_at_threshold(self):
        a = np.array([0.6, 0.8])  # norm exactly 1
        np.testing.assert_allclose(prox_group_l2(a, 1.0), [0.0, 0.0])

    def test_grid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=2) * 2
            lam = float(rng.uniform(0.2, 1.5))
            z = prox_group_l2(a, lam)
            ours = lam * np.linalg.norm(z) + 0.5 * float((z - a) @ (z - a))
            grid = np.linspace(-4, 4, 161)
            best = np.inf
            for u in grid:
                for v in grid:
                    cand = np.array([u, v])
                    val = lam * np.linalg.norm(cand) \
                        + 0.5 * float((cand - a) @ (cand - a))
                    best = min(best, val)
            assert ours <= best + 1e-4

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            lam = float(rng.uniform(0, 2))
            pa = prox_group_l2(a, lam)
            pb = prox_group_l2(b, lam)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestPhiEnvelope:
    def test_branches(self):
        assert phi_envelope(0.0, 1.0) == 0.0
        assert phi_envelope(0.5, 1.0) == pytest.approx(0.125)
        assert phi_envelope(3.0, 1.0) == pytest.approx(2.5)

    def test_continuous_at_kink(self):
        lam = 0.7
        assert phi_envelope(lam, lam) == pytest.approx(0.5 * lam * lam,
                                                       rel=1e-14)

    def test_matches_scalar_minimization_oracle(self):
        lam = 0.8
        s_grid = np.linspace(0, 10, 20001)
        for t in [0.0, 0.3, 0.8, 1.5, 4.0]:
            oracle = np.min(lam * s_grid + 0.5 * (s_grid - t) ** 2)
            assert phi_envelope(t, lam) == pytest.approx(oracle, abs=1e-6)

    def test_nondecreasing(self):
        t = np.linspace(0, 5, 200)
        vals = phi_envelope(t, 1.3)
        assert np.all(np.diff(vals) >= -1e-15)


class TestProxTrimmed:
    def test_hand_example(self):
        a = np.array([[3.0], [1.0], [0.5]])
        z, sel = prox_trimmed(a, K=1, lam=1.0)
        np.testing.assert_allclose(z, [[3.0], [0.0], [0.0]])
        np.testing.assert_array_equal(sel.kept, [0])
        np.testing.assert_array_equal(sel.trimmed, [1, 2])

    def test_k_equal_m_is_identity(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 2))
        z, sel = prox_trimmed(a, K=4, lam=5.0)
        np.testing.assert_array_equal(z, a)
        assert len(sel.trimmed) == 0
        z2, _ = prox_trimmed(a, K=9, lam=5.0)
        np.testing.assert_array_equal(z2, a)

    def test_k_zero_is_blockwise_shrinkage(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 3))
        z, sel = prox_trimmed(a, K=0, lam=0.4)
        for k in range(5):
            np.testing.assert_allclose(z[k], prox_group_l2(a[k], 0.4))
        assert len(sel.kept) == 0

    def test_tie_breaks_to_lowest_index(self):
        a = np.array([[1.0], [1.0]])
        z, sel = prox_trimmed(a, K=1, lam=0.5)
        np.testing.assert_allclose(z, [[1.0], [0.5]])
        np.testing.assert_array_equal(sel.kept, [0])
        # both selections attain the same objective value
        alt = np.array([[0.5], [1.0]])
        ours = prox_trimmed_objective(z, a, 1, 0.5)
        other = prox_trimmed_objective(alt, a, 1, 0.5)
        assert ours == pytest.approx(other, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            m = int(rng.integers(1, 6))
            p = int(rng.integers(1, 4))
            a = rng.normal(size=(m, p)) * float(rng.uniform(0.5, 3))
            K = int(rng.integers(0, m + 1))
            lam = float(rng.choice([0.1, 1.0, 10.0]))
            z, _ = prox_trimmed(a, K, lam)
            ours = prox_trimmed_objective(z, a, K, lam)
            _, best = brute_force_prox_trimmed(a, K, lam)
            assert ours <= best + 1e-10

    def test_selection_partitions_indices(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(7, 2))
        z, sel = prox_trimmed(a, K=3, lam=0.2)
        merged = np.sort(np.concatenate([sel.kept, sel.trimmed]))
        np.testing.assert_array_equal(merged, np.arange(7))
        kept_norms = np.linalg.norm(a[sel.kept], axis=1)
        trimmed_norms = np.linalg.norm(a[sel.trimmed], axis=1)
        assert kept_norms.min() >= trimmed_norms.max() - 1e-12

    def test_tie_group_straddling_k_goes_to_lowest_indices(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(100):
            m = int(rng.integers(6, 15))
            a = make_tied_instance(rng, m, int(rng.integers(1, 4)), 0)
            norms = np.linalg.norm(a, axis=1)
            order = sorted(range(m), key=lambda k: (-norms[k], k))
            for K in range(1, m):
                if norms[order[K - 1]] != norms[order[K]]:
                    continue  # no tie group straddles position K
                _, sel = prox_trimmed(a, K, 0.3)
                assert sel.kept.tolist() == sorted(order[:K])
                assert sel.trimmed.tolist() == sorted(order[K:])
                checked += 1
        assert checked >= 100

    def test_lam_zero_is_identity(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 2))
        z, _ = prox_trimmed(a, K=2, lam=0.0)
        np.testing.assert_array_equal(z, a)


def make_tied_instance(rng, m, p, K):
    """Random blocks with several norms exactly equal at the K-th value.

    Ties are engineered by elementwise sign flips of a source block:
    the squared coordinates are then summed in the same order, so the
    norms agree bit for bit (coordinate permutations would not, because
    float addition rounds differently per order).
    """
    z = rng.normal(size=(m, p))
    if m >= 2:
        src = int(rng.integers(0, m))
        for dst in range(m):
            if dst != src and rng.uniform() < 0.5:
                signs = rng.choice([-1.0, 1.0], size=p)
                z[dst] = z[src] * signs
    if rng.uniform() < 0.3:
        z[int(rng.integers(0, m))] = 0.0
    return z


class TestDirectionalDerivative:
    def test_zero_base_k0_gives_sum_of_norms(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(5, 2))
        dd = directional_derivative(np.zeros((5, 2)), v, K=0)
        assert dd == pytest.approx(np.linalg.norm(v, axis=1).sum(), rel=1e-12)

    def test_k_at_least_m_gives_zero(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(3, 2))
        v = rng.normal(size=(3, 2))
        assert directional_derivative(z, v, K=3) == 0.0
        assert directional_derivative(z, v, K=5) == 0.0

    def test_no_ties_reduces_to_smooth_part(self):
        # distinct norms: derivative is just the slope sum over the m-K
        # smallest blocks
        z = np.array([[4.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        v = np.array([[1.0, 1.0], [0.5, -0.5], [-1.0, 2.0]])
        K = 1
        expect = (z[1] @ v[1]) / 2.0 + (z[2] @ v[2]) / 1.0
        assert directional_derivative(z, v, K) == pytest.approx(expect,
                                                                rel=1e-12)

    def test_finite_difference_random_and_tied(self):
        rng = np.random.default_rng(11)
        eta = 1e-7
        for trial in range(120):
            m = int(rng.integers(2, 7))
            p = int(rng.integers(1, 4))
            if trial % 3 == 0:
                z = make_tied_instance(rng, m, p, 0)
            else:
                z = rng.normal(size=(m, p))
                z[np.linalg.norm(z, axis=1) < 1e-3] += 1.0
            v = rng.normal(size=(m, p))
            K = int(rng.integers(0, m + 1))
            fd = (trimmed_norm(z + eta * v, K) - trimmed_norm(z, K)) / eta
            dd = directional_derivative(z, v, K)
            assert dd == pytest.approx(fd, abs=1e-5)

    def test_positive_homogeneity_in_direction(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(4, 2))
        v = rng.normal(size=(4, 2))
        d1 = directional_derivative(z, v, K=2)
        d3 = directional_derivative(z, 3.0 * v, K=2)
        assert d3 == pytest.approx(3.0 * d1, rel=1e-12)

    def test_tie_takes_smallest_slopes(self):
        # two blocks tied at the top; K = 1 must penalize whichever has
        # the smaller slope
        z = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        v = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
        # slopes: block0 +1, block1 -1, block2 0; threshold norm 2 ties
        # blocks 0 and 1, one of them must join the penalized sum
        dd = directional_derivative(z, v, K=1)
        assert dd == pytest.approx(0.0 + (-1.0))

    def test_tie_tol_groups_near_ties(self):
        # norms 1 and 1 + 1e-12 should act as a tie under tie_tol=1e-9;
        # without the tolerance the larger block is never penalized
        z = np.array([[1.0, 0.0], [1.0 + 1e-12, 0.0], [0.2, 0.0]])
        v = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        loose = directional_derivative(z, v, K=1, tie_tol=1e-9)
        strict = directional_derivative(z, v, K=1, tie_tol=0.0)
        assert loose == pytest.approx(-1.0)
        assert strict == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            directional_derivative(np.zeros((2, 2)), np.zeros((3, 2)), 1)
