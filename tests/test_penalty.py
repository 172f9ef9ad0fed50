import ast
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    brute_force_prox_trimmed,
    directional_derivative_reference,
    group_shrink_reference,
    prox_trimmed_objective,
    prox_trimmed_reference,
    shrink_factors_reference,
    trimmed_norm_slow,
)

from netlasso.penalty import (
    _as_blocks,
    _keep_mask,
    _shrink_factors,
    directional_derivative,
    group_shrink,
    phi_envelope,
    prox_trimmed,
    row_norms,
    trimmed_norm,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "netlasso"


def bits(a):
    """The bit patterns of a float64 array, for exact comparison."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    np.testing.assert_array_equal(bits(a), bits(b))


def awkward_rows(rng, m, p):
    """Rows that stress a norm kernel: random and lognormal-scaled
    values, zero rows, signed zeros, subnormals, overflow and NaN."""
    a = rng.normal(size=(m, p)) * rng.lognormal(0.0, 20.0, size=(m, 1))
    pick = rng.random((m, p))
    # -1e200 squares to inf; 3e-320 is subnormal and squares to 0
    bands = [(0.08, 0.0), (0.14, -0.0), (0.16, 3e-320), (0.18, -3e-320),
             (0.21, -1e200), (0.23, np.nan), (0.24, np.inf)]
    lo = 0.0
    for hi, value in bands:
        a[(pick >= lo) & (pick < hi)] = value
        lo = hi
    if m > 2:
        a[1] = 0.0
        a[2] = -0.0
    return a


class TestRowNorms:
    @pytest.mark.parametrize("p", range(1, 11))
    def test_bitwise_equal_to_numpy_norm(self, p):
        rng = np.random.default_rng(100 + p)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in (0, 1, 2, 7, 64, 1000):
                a = awkward_rows(rng, m, p)
                for view in (a, np.asfortranarray(a), a[::2],
                             np.repeat(a, 2, axis=1)[:, ::2]):
                    assert_bitwise_equal(row_norms(view),
                                         np.linalg.norm(view, axis=1))
                plain = rng.normal(size=(m, p))
                assert_bitwise_equal(row_norms(plain),
                                     np.linalg.norm(plain, axis=1))

    def test_last_axis_of_any_shape(self):
        rng = np.random.default_rng(99)
        for shape in [(5,), (3,), (4, 3, 2), (2, 0)]:
            a = rng.normal(size=shape)
            assert_bitwise_equal(row_norms(a), np.linalg.norm(a, axis=-1))

    def test_no_axis_norm_outside_row_norms(self):
        # np.linalg.norm(..., axis=...) is several times slower than
        # row_norms and gives the same bits; it belongs in row_norms only
        offenders = []
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) \
                        and node.name == "row_norms":
                    allowed.update(id(n) for n in ast.walk(node))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in allowed:
                    continue
                name = ast.unparse(node.func)
                if not name.endswith("linalg.norm"):
                    continue
                if len(node.args) >= 3 \
                        or any(k.arg == "axis" for k in node.keywords):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


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

    @pytest.mark.parametrize("K", [2.5, 2.0, True, "2"])
    def test_non_integer_k_rejected(self, K):
        # int(K) would keep 2 blocks at K = 2.5 and count True as 1
        z = np.arange(4.0)[:, None]
        for call in (lambda: trimmed_norm(z, K),
                     lambda: prox_trimmed(z, K, 1.0),
                     lambda: directional_derivative(z, z, K)):
            with pytest.raises(ValueError, match="integer"):
                call()

    def test_numpy_integer_k_accepted(self):
        z = np.arange(4.0)[:, None]
        assert trimmed_norm(z, np.int64(2)) == trimmed_norm(z, 2) == 1.0
        _, keep = prox_trimmed(z, np.int32(2), 1.0)
        assert np.flatnonzero(keep).tolist() == [2, 3]

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
    """``group_shrink`` on one block: the prox of lam * ||.||_2."""

    def test_shrinks_along_ray(self):
        a = np.array([2.0, 0.0])
        np.testing.assert_allclose(group_shrink(a[None], 1.0)[0], [1.0, 0.0])

    def test_zero_at_threshold(self):
        a = np.array([0.6, 0.8])  # norm exactly 1
        np.testing.assert_allclose(group_shrink(a[None], 1.0)[0], [0.0, 0.0])

    def test_grid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=2) * 2
            lam = float(rng.uniform(0.2, 1.5))
            z = group_shrink(a[None], lam)[0]
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
            pa = group_shrink(a[None], lam)[0]
            pb = group_shrink(b[None], lam)[0]
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

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError, match="lam must be non-negative"):
            phi_envelope(1.0, -0.5)


class TestAsBlocks:
    def test_one_dimensional_array_is_one_column(self):
        z = _as_blocks([3, -4, 1], "z")
        assert z.dtype == np.float64 and z.shape == (3, 1)
        np.testing.assert_array_equal(z[:, 0], [3.0, -4.0, 1.0])

    @pytest.mark.parametrize("shape", [(), (2, 2, 1)])
    def test_other_ranks_name_the_argument(self, shape):
        with pytest.raises(ValueError, match="^z must be a 1-D or 2-D array"):
            _as_blocks(np.zeros(shape), "z")
        with pytest.raises(ValueError, match="^a must be a 1-D or 2-D array"):
            prox_trimmed(np.zeros(shape), 1, 0.5)


class TestProxTrimmed:
    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError, match="lam must be non-negative"):
            prox_trimmed(np.ones((2, 1)), 1, -0.5)

    def test_hand_example(self):
        a = np.array([[3.0], [1.0], [0.5]])
        z, keep = prox_trimmed(a, K=1, lam=1.0)
        np.testing.assert_allclose(z, [[3.0], [0.0], [0.0]])
        np.testing.assert_array_equal(np.flatnonzero(keep), [0])
        np.testing.assert_array_equal(np.flatnonzero(~keep), [1, 2])

    def test_k_equal_m_is_identity(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 2))
        z, keep = prox_trimmed(a, K=4, lam=5.0)
        np.testing.assert_array_equal(z, a)
        assert len(np.flatnonzero(~keep)) == 0
        z2, _ = prox_trimmed(a, K=9, lam=5.0)
        np.testing.assert_array_equal(z2, a)

    def test_k_zero_is_blockwise_shrinkage(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 3))
        z, keep = prox_trimmed(a, K=0, lam=0.4)
        for k in range(5):
            np.testing.assert_allclose(z[k], group_shrink(a[k][None], 0.4)[0])
        assert len(np.flatnonzero(keep)) == 0

    def test_tie_breaks_to_lowest_index(self):
        a = np.array([[1.0], [1.0]])
        z, keep = prox_trimmed(a, K=1, lam=0.5)
        np.testing.assert_allclose(z, [[1.0], [0.5]])
        np.testing.assert_array_equal(np.flatnonzero(keep), [0])
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
        z, keep = prox_trimmed(a, K=3, lam=0.2)
        merged = np.sort(np.concatenate([np.flatnonzero(keep),
                                         np.flatnonzero(~keep)]))
        np.testing.assert_array_equal(merged, np.arange(7))
        kept_norms = np.linalg.norm(a[np.flatnonzero(keep)], axis=1)
        trimmed_norms = np.linalg.norm(a[np.flatnonzero(~keep)], axis=1)
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
                _, keep = prox_trimmed(a, K, 0.3)
                assert np.flatnonzero(keep).tolist() == sorted(order[:K])
                assert np.flatnonzero(~keep).tolist() == sorted(order[K:])
                checked += 1
        assert checked >= 100

    def test_keep_mask_is_the_stable_argsort_rule(self):
        # the same selection stated independently: the first K entries
        # of a stable descending argsort of the norms
        rng = np.random.default_rng(22)
        for _ in range(100):
            m = int(rng.integers(1, 15))
            a = make_tied_instance(rng, m, int(rng.integers(1, 4)), 0)
            norms = row_norms(a)
            order = np.argsort(-norms, kind="stable")
            for K in range(m + 1):
                want = np.zeros(m, dtype=bool)
                want[order[:K]] = True
                np.testing.assert_array_equal(_keep_mask(norms, K), want)
                np.testing.assert_array_equal(prox_trimmed(a, K, 0.3)[1],
                                              want)

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


class TestKernelOracles:
    """prox_trimmed and group_shrink against the copy-gather-scatter
    versions they replaced, bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 10])
    def test_prox_trimmed_matches_reference(self, p):
        rng = np.random.default_rng(200 + p)
        for trial in range(60):
            m = int(rng.integers(1, 40))
            if trial % 2:
                a = make_tied_instance(rng, m, p, 0)
            else:
                a = rng.normal(size=(m, p)) * rng.lognormal(
                    0.0, 2.0, size=(m, 1))
                a[rng.random((m, p)) < 0.1] = -0.0
            lam = float(rng.choice([0.0, 0.05, 0.5, 3.0]))
            # every K from 0 past m, so tie groups straddle the K-th norm
            for K in range(m + 2):
                z, keep = prox_trimmed(a, K, lam)
                z_ref, kept, trimmed = prox_trimmed_reference(a, K, lam)
                assert_bitwise_equal(z, z_ref)
                np.testing.assert_array_equal(np.flatnonzero(keep), kept)
                np.testing.assert_array_equal(np.flatnonzero(~keep), trimmed)

    @pytest.mark.parametrize("p", [1, 2, 3, 9])
    def test_group_shrink_matches_reference(self, p):
        rng = np.random.default_rng(300 + p)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in (0, 1, 5, 200):
                a = awkward_rows(rng, m, p)
                for lam in (0.0, 0.7, rng.lognormal(0.0, 1.0, size=m),
                            np.zeros(m)):
                    assert_bitwise_equal(group_shrink(a, lam),
                                         group_shrink_reference(a, lam))

    def test_shrink_factors_match_reference(self):
        # zero rows, signed zeros, infinite and NaN norms; lam zero,
        # scalar or per row, and ties norms == lam, against the
        # zero-fill, gather and scatter form
        rng = np.random.default_rng(33)
        norms = np.concatenate([[0.0, -0.0, 0.5, 0.5, np.inf, np.nan,
                                 1e-300, 3e-320], rng.lognormal(size=40)])
        m = len(norms)
        per_row = rng.lognormal(size=m)
        per_row[2], per_row[5] = 0.5, 0.0      # a tie and a NaN row
        tied = norms.copy()                   # norms == lam everywhere
        tied[5] = 1.0
        for lam in (0.0, 0, 0.5, 2.0, np.float64(0.5), per_row, tied,
                    np.zeros(m), np.full(m, np.inf)):
            assert_bitwise_equal(_shrink_factors(norms, lam),
                                 shrink_factors_reference(norms, lam))
        assert_bitwise_equal(_shrink_factors(np.zeros(0), 0.3),
                             shrink_factors_reference(np.zeros(0), 0.3))

    def test_derivative_at_reused_matches_reference(self):
        # several directions at each base point, with ties and near ties
        rng = np.random.default_rng(32)
        for trial in range(40):
            m = int(rng.integers(2, 12))
            p = int(rng.integers(1, 4))
            z = make_tied_instance(rng, m, p, 0)
            z[rng.random(m) < 0.2] = 0.0
            # near ties, which only tie_tol groups with the exact ones
            near = rng.random(m) < 0.3
            z[near] *= 1.0 + rng.choice([-1e-12, 1e-12],
                                        size=(int(near.sum()), 1))
            for K in range(m + 2):
                for tie_tol in (0.0, 1e-9):
                    for _ in range(5):
                        v = rng.normal(size=(m, p))
                        v[rng.random(m) < 0.2] = 0.0
                        assert directional_derivative(z, v, K, tie_tol) == \
                            directional_derivative_reference(z, v, K,
                                                             tie_tol)


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
