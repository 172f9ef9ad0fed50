import io

import numpy as np
import pytest

from netlasso.datasets import (
    LabeledPoints,
    SignalInstance,
    gen_half_moons,
    gen_piecewise_signal,
    gen_two_line_regression,
    load_csv,
    load_signal_csv,
    resample,
    save_csv,
    save_signal_csv,
)


class TestTwoLineRegression:
    def test_noiseless_points_lie_on_their_lines(self):
        data = gen_two_line_regression(60, slopes=(2.0, -0.5),
                                       intercepts=(1.0, -1.0),
                                       noise_sd=0.0, seed=1)
        a = data.points[:, 0]
        for c, (slope, intercept) in enumerate([(2.0, 1.0), (-0.5, -1.0)]):
            mask = data.labels == c
            np.testing.assert_allclose(data.responses[mask],
                                       intercept + slope * a[mask],
                                       atol=1e-12)

    def test_odd_count_splits_ceil_floor(self):
        data = gen_two_line_regression(7, noise_sd=0.0, seed=0)
        assert int((data.labels == 0).sum()) == 4
        assert int((data.labels == 1).sum()) == 3

    def test_inputs_respect_range(self):
        data = gen_two_line_regression(500, x_range=(2.0, 3.0), seed=2)
        assert data.points.min() >= 2.0
        assert data.points.max() <= 3.0

    def test_deterministic_under_seed(self):
        d1 = gen_two_line_regression(40, noise_sd=0.3, seed=7)
        d2 = gen_two_line_regression(40, noise_sd=0.3, seed=7)
        d3 = gen_two_line_regression(40, noise_sd=0.3, seed=8)
        np.testing.assert_array_equal(d1.responses, d2.responses)
        assert not np.array_equal(d1.responses, d3.responses)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_two_line_regression(1)
        with pytest.raises(ValueError):
            gen_two_line_regression(10, x_range=(1.0, 1.0))
        with pytest.raises(ValueError):
            gen_two_line_regression(10, slopes=(1.0,))


class TestHalfMoons:
    def test_noiseless_points_sit_on_unit_arcs(self):
        data = gen_half_moons(100, noise_sd=0.0, seed=0)
        top = data.points[data.labels == 0]
        bot = data.points[data.labels == 1]
        np.testing.assert_allclose(np.linalg.norm(top, axis=1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(bot - np.array([1.0, 0.5]), axis=1), 1.0,
            atol=1e-12)
        assert np.all(top[:, 1] >= -1e-12)
        assert np.all(bot[:, 1] <= 0.5 + 1e-12)

    def test_shapes_and_split(self):
        data = gen_half_moons(101, seed=0)
        assert data.points.shape == (101, 2)
        assert int((data.labels == 0).sum()) == 51

    def test_deterministic_under_seed(self):
        d1 = gen_half_moons(30, noise_sd=0.1, seed=3)
        d2 = gen_half_moons(30, noise_sd=0.1, seed=3)
        np.testing.assert_array_equal(d1.points, d2.points)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            gen_half_moons(1)


class TestPiecewiseSignal:
    def test_noiseless_equals_original(self):
        sig = gen_piecewise_signal(10, [(4, 1.0), (6, -2.0)], noise_sd=0.0)
        np.testing.assert_array_equal(sig.noisy, sig.original)
        np.testing.assert_array_equal(sig.original,
                                      [1.0] * 4 + [-2.0] * 6)
        assert sig.jumps.tolist() == [4]

    def test_jumps_skip_repeated_levels(self):
        sig = gen_piecewise_signal(9, [(3, 1.0), (3, 1.0), (3, 0.0)],
                                   noise_sd=0.0)
        assert sig.jumps.tolist() == [6]
        assert sig.num_jumps == 1

    def test_paper_scale_instance(self):
        levels = [(200, 0.0), (160, 2.0), (140, -1.0), (260, 1.5),
                  (120, -0.5), (120, 3.0)]
        sig = gen_piecewise_signal(1000, levels, noise_sd=0.2, seed=5)
        assert len(sig.original) == 1000
        assert sig.num_jumps == 5
        noise = sig.noisy - sig.original
        assert abs(noise.mean()) <= 5 * 0.2 / np.sqrt(1000)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gen_piecewise_signal(10, [(4, 1.0), (4, 2.0)])
        with pytest.raises(ValueError):
            gen_piecewise_signal(4, [(4, 1.0), (0, 2.0)])

    def test_instance_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="lengths differ"):
            SignalInstance(original=[0.0, 1.0], noisy=[0.0], noise_sd=0.0)

    def test_jumps_follow_the_clean_signal(self):
        sig = SignalInstance(original=[1.0, 1.0, 2.0, 2.0, 0.5],
                             noisy=np.zeros(5), noise_sd=0.0)
        assert sig.jumps.tolist() == [2, 4]
        sig.original = np.zeros(5)
        assert sig.num_jumps == 0


class TestLabeledPoints:
    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="one label per point"):
            LabeledPoints(points=np.zeros((3, 2)), labels=[0, 1])
        with pytest.raises(ValueError, match="one response per point"):
            LabeledPoints(points=np.zeros((3, 2)), responses=[0.0])

    def test_labels_must_be_integers(self):
        # a cast to int64 alone would truncate 0.5 to 0
        with pytest.raises(ValueError, match="integral"):
            LabeledPoints(points=np.zeros((2, 1)), labels=[0.5, 1.0])

    def test_points_read_as_one_column_or_rejected(self):
        assert LabeledPoints(points=[1.0, 2.0]).points.shape == (2, 1)
        with pytest.raises(ValueError, match="^points must be a 1-D or 2-D"):
            LabeledPoints(points=np.zeros((2, 1, 1)))


class TestCsvIO:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        data = LabeledPoints(points=rng.normal(size=(7, 3)) * 1e-7,
                             labels=rng.integers(0, 3, size=7))
        buf = io.StringIO()
        save_csv(data, buf)
        buf.seek(0)
        back = load_csv(buf, has_labels=True)
        np.testing.assert_array_equal(back.points, data.points)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_round_trip_with_responses(self):
        data = gen_two_line_regression(9, noise_sd=0.2, seed=4)
        buf = io.StringIO()
        save_csv(data, buf)
        buf.seek(0)
        back = load_csv(buf, has_labels=True, has_responses=True)
        np.testing.assert_array_equal(back.points, data.points)
        np.testing.assert_array_equal(back.responses, data.responses)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_file_path_round_trip(self, tmp_path):
        data = gen_half_moons(12, noise_sd=0.05, seed=9)
        target = tmp_path / "moons.csv"
        save_csv(data, target)
        back = load_csv(target, has_labels=True)
        np.testing.assert_array_equal(back.points, data.points)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            load_csv(io.StringIO("1,2\n3\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(io.StringIO("1,2\n3,abc\n"))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, cell):
        with pytest.raises(ValueError, match="non-finite cell in row 1"):
            load_csv(io.StringIO(f"1,2\n3,{cell}\n"))
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(io.StringIO(f"1,2\n3,{cell}\n"), has_responses=True)

    @pytest.mark.parametrize("cell", ["1e20", "-1e19", "9.3e18"])
    def test_labels_beyond_int64_rejected(self, cell):
        # the int64 cast would wrap them, with a RuntimeWarning
        with pytest.raises(ValueError, match=r"below 2\*\*63 in magnitude"):
            load_csv(io.StringIO(f"1,0\n2,{cell}\n"), has_labels=True)

    def test_largest_label_below_int64_range_is_exact(self):
        data = load_csv(io.StringIO("1,0\n2,9223372036854774784\n"),
                        has_labels=True)
        assert data.labels.tolist() == [0, 2**63 - 1024]

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            load_csv(io.StringIO("1,0.5\n2,1.5\n"), has_labels=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_csv(io.StringIO(""))
        with pytest.raises(ValueError):
            load_csv(io.StringIO("1\n2\n"), has_labels=True)


class TestResample:
    def test_subset_without_replacement(self):
        data = gen_half_moons(50, seed=0)
        sub = resample(data, 20, seed=1)
        assert sub.num_points == 20
        # every drawn row exists in the source, and rows are distinct
        seen = {tuple(p) for p in data.points}
        drawn = [tuple(p) for p in sub.points]
        assert all(p in seen for p in drawn)
        assert len(set(drawn)) == 20

    def test_deterministic_and_bounded(self):
        data = gen_half_moons(30, seed=0)
        s1 = resample(data, 10, seed=5)
        s2 = resample(data, 10, seed=5)
        np.testing.assert_array_equal(s1.points, s2.points)
        with pytest.raises(ValueError):
            resample(data, 31)

    def test_labels_follow_rows(self):
        data = gen_half_moons(40, noise_sd=0.0, seed=0)
        sub = resample(data, 15, seed=2)
        for pt, lab in zip(sub.points, sub.labels):
            if lab == 0:
                assert abs(np.linalg.norm(pt) - 1.0) <= 1e-12
            else:
                assert abs(np.linalg.norm(pt - [1.0, 0.5]) - 1.0) <= 1e-12


class TestSignalCsv:
    def test_round_trip(self):
        sig = gen_piecewise_signal(20, [(10, 0.0), (10, 1.0)],
                                   noise_sd=0.3, seed=6)
        buf = io.StringIO()
        save_signal_csv(sig, buf)
        buf.seek(0)
        back = load_signal_csv(buf, noise_sd=0.3)
        np.testing.assert_array_equal(back.original, sig.original)
        np.testing.assert_array_equal(back.noisy, sig.noisy)
        np.testing.assert_array_equal(back.jumps, sig.jumps)

    def test_column_count_enforced(self):
        with pytest.raises(ValueError):
            load_signal_csv(io.StringIO("1,2,3\n"))

    def test_ragged_row_named(self):
        with pytest.raises(ValueError,
                           match="ragged row 1: 1 cells, expected 2"):
            load_signal_csv(io.StringIO("0,1\n2\n0,1\n"))

    @pytest.mark.parametrize("text", ["0,1\nnan,1\n", "0,1\n0,inf\n"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="non-finite cell in row 1"):
            load_signal_csv(io.StringIO(text))
