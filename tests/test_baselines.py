"""Random and trend-regression baselines against hand oracles."""

import numpy as np
import pytest

from tgsim.baselines import _tsr_score, baseline_report
from tgsim.data import TemporalGraphSignal, node_bounds
from tgsim.errors import ContractError
from tgsim.noise import NoiseSpec, bucketize, inject_noise
from tgsim.training import load_report, write_report


def make_signal(n=4, s=16, f=1, seed=5, name="toy", features=None):
    if features is None:
        features = np.random.default_rng(seed).random((s, n, f))
    edges = tuple((i, i + 1) for i in range(n - 1))
    return TemporalGraphSignal(
        name=name, num_nodes=n, edges=edges, weights=None, features=features,
    )


def make_labeled(signal, length, seed=5, p=0.5):
    buckets = bucketize(signal, length)
    return inject_noise(buckets, node_bounds(signal), NoiseSpec(corrupt_probability=p, seed=seed))


def series_score(series):
    """_tsr_score of the one-node, one-channel window holding `series`."""
    return _tsr_score(np.asarray(series, dtype=np.float64).reshape(-1, 1, 1))


def predictions(labeled, method, seed=0):
    return baseline_report(labeled, method, seed=seed).folds[0].predictions


class TestRandomBaseline:
    def test_scores_in_unit_interval(self):
        labeled = make_labeled(make_signal(s=40), length=4)
        fold = baseline_report(labeled, "random", seed=1).folds[0]
        assert fold.sample_count == len(labeled)
        assert all(0.0 <= p <= 1.0 for p in fold.predictions)
        assert list(fold.starts) == [b.bucket.start for b in labeled]

    def test_same_seed_same_draws(self):
        labeled = make_labeled(make_signal(s=20), length=4)
        a = predictions(labeled, "random", seed=9)
        assert a == predictions(labeled, "random", seed=9)
        assert a != predictions(labeled, "random", seed=10)
        # one draw of the seed's stream per bucket, in bucket order
        rng = np.random.default_rng(9)
        assert a == tuple(float(rng.random()) for _ in labeled)

    def test_mse_matches_monte_carlo_expectation(self):
        # empirical MSE against half-corrupted labels should sit near
        # E[(U - Y)^2] under the same label law
        n = 5
        labeled = make_labeled(make_signal(n=n, s=403), length=4, seed=31, p=0.5)
        assert len(labeled) == 400
        mse = baseline_report(labeled, "random", seed=32).folds[0].mse
        rng = np.random.default_rng(33)
        draws = 200_000
        u = rng.random(draws)
        corrupt = rng.random(draws) < 0.5
        k = rng.integers(1, n + 1, size=draws)
        y = np.where(corrupt, (n - k) / n, 1.0)
        oracle = float(np.mean((u - y) ** 2))
        assert abs(mse - oracle) < 0.05


class TestSeriesScores:
    def test_scaled_ramp_with_low_candidate(self):
        # already spans [0, 1], so scaling keeps it; the ramp predicts 1.25
        assert series_score([0.0, 0.25, 0.5, 0.75, 1.0, 0.6]) == pytest.approx(0.35, abs=1e-12)

    def test_perfect_ramp(self):
        assert series_score([0.0, 0.25, 0.5, 0.75, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_clamps_large_misses_to_zero(self):
        # the fit extrapolates to 4/3 while the candidate sits at the minimum
        assert series_score([0.0, 10.0, 20.0, 30.0, 0.0]) == 0.0

    def test_constant_series_scores_one(self):
        assert series_score([5.0, 5.0, 5.0, 5.0]) == 1.0

    def test_constant_history_with_jump_scores_zero(self):
        assert series_score([5.0, 5.0, 5.0, 8.0]) == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        series = rng.random(8)
        assert abs(series_score(series) - series_score(3.7 * series - 12.0)) < 1e-9

    def test_too_short(self):
        with pytest.raises(ContractError, match="length >= 3"):
            series_score([0.1, 0.2])


class TestTsrBaseline:
    def test_exact_linear_clean_bucket_scores_one(self):
        t = np.arange(24, dtype=np.float64)
        features = np.stack(
            [0.3 * (node + 1) * t + node for node in range(4)], axis=1,
        )[:, :, None]
        signal = make_signal(n=4, s=24, features=features)
        labeled = make_labeled(signal, length=5, p=0.0)
        for bucket in labeled:
            assert bucket.label == 1.0
            assert abs(_tsr_score(bucket.snapshots) - 1.0) < 1e-9

    def test_matches_node_by_node_polyfit(self):
        labeled = make_labeled(make_signal(n=4, s=12, f=2, seed=41), length=6, seed=41)
        bucket = labeled[0]
        window = bucket.snapshots
        expected = []
        for node in range(4):
            for channel in range(2):
                series = window[:, node, channel]
                scaled = (series - series.min()) / (series.max() - series.min())
                coeffs = np.polyfit(np.arange(5.0), scaled[:-1], 1)
                miss = abs(scaled[-1] - np.polyval(coeffs, 5.0))
                expected.append(np.clip(1.0 - miss, 0.0, 1.0))
        assert abs(_tsr_score(window) - np.mean(expected)) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_series_by_series_loop(self, seed):
        # the per-series form, one 1-D fit per node and channel
        def series_score(series):
            low, high = series.min(), series.max()
            scaled = np.zeros_like(series) if high == low else (series - low) / (high - low)
            t = np.arange(scaled.size - 1, dtype=np.float64)
            v = scaled[:-1]
            slope = np.mean((t - t.mean()) * (v - v.mean())) / np.mean((t - t.mean()) ** 2)
            predicted = slope * (scaled.size - 1) + v.mean() - slope * t.mean()
            return min(1.0, max(0.0, 1.0 - abs(scaled[-1] - predicted)))

        rng = np.random.default_rng(seed)
        features = rng.normal(size=(40, 9, 3)) * 10.0 ** rng.integers(-3, 4, size=(1, 9, 3))
        features[:, 2, 1] = 4.0
        labeled = make_labeled(make_signal(n=9, s=40, f=3, features=features),
                               length=int(rng.integers(3, 13)), seed=seed)
        for bucket in labeled[:8]:
            window = bucket.snapshots
            expected = np.mean([series_score(window[:, node, channel])
                                for node in range(9) for channel in range(3)])
            assert abs(_tsr_score(window) - expected) <= 1e-12

    def test_score_stays_in_unit_interval(self):
        labeled = make_labeled(make_signal(n=3, s=30, seed=44), length=5, seed=44)
        assert all(0.0 <= p <= 1.0 for p in predictions(labeled, "tsr"))

    def test_beats_random_on_clean_linear_data(self):
        t = np.arange(104, dtype=np.float64)
        features = np.stack(
            [(0.1 + 0.05 * node) * t + 2 * node for node in range(3)], axis=1,
        )[:, :, None]
        signal = make_signal(n=3, s=104, features=features)
        labeled = make_labeled(signal, length=5, p=0.0)
        assert len(labeled) == 100
        tsr_mse = baseline_report(labeled, "tsr").folds[0].mse
        assert tsr_mse < baseline_report(labeled, "random", seed=3).folds[0].mse

    def test_short_bucket_rejected(self):
        labeled = make_labeled(make_signal(s=10), length=2)
        with pytest.raises(ContractError, match="length >= 3"):
            baseline_report(labeled, "tsr")

    def test_prediction_list_matches_pointwise_calls(self):
        # the report scores each window with its corrupted candidate swapped in
        labeled = make_labeled(make_signal(s=12), length=4, seed=2, p=1.0)
        assert predictions(labeled, "tsr") == tuple(_tsr_score(b.snapshots) for b in labeled)
        assert predictions(labeled, "tsr") != tuple(_tsr_score(b.bucket.snapshots)
                                                    for b in labeled)


class TestBaselineReport:
    def test_report_shape(self):
        labeled = make_labeled(make_signal(s=20), length=4, seed=7)
        report = baseline_report(labeled, "tsr")
        assert report.model == "tsr"
        assert report.dataset == "toy"
        assert len(report.folds) == 1
        assert report.folds[0].sample_count == len(labeled)
        assert report.folds[0].starts == tuple(b.bucket.start for b in labeled)

    def test_random_report_round_trips(self, tmp_path):
        labeled = make_labeled(make_signal(s=20), length=4, seed=7)
        report = baseline_report(labeled, "random", seed=5)
        again = baseline_report(labeled, "random", seed=5)
        write_report(report, tmp_path / "a.json")
        write_report(again, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert load_report(tmp_path / "a.json") == report

    def test_unknown_method(self):
        labeled = make_labeled(make_signal(s=12), length=4)
        with pytest.raises(ContractError, match="unknown baseline method"):
            baseline_report(labeled, "arima")

    def test_empty_buckets(self):
        with pytest.raises(ContractError, match="at least one bucket"):
            baseline_report([], "tsr")
