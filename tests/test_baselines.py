"""Random and trend-regression baselines against hand oracles."""

import numpy as np
import pytest

from tgsim.baselines import (
    BaselinePrediction,
    baseline_report,
    extrapolation_score,
    ols_fit,
    random_baseline,
    tsr_baseline,
    tsr_predictions,
    tsr_series_score,
)
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


class TestBaselinePrediction:
    def test_valid(self):
        p = BaselinePrediction(method="tsr", score=0.4, start=7)
        assert (p.method, p.score, p.start) == ("tsr", 0.4, 7)

    def test_rejects_unknown_method(self):
        with pytest.raises(ContractError, match="unknown baseline method"):
            BaselinePrediction(method="oracle", score=0.4, start=0)

    @pytest.mark.parametrize("score", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_out_of_range_scores(self, score):
        with pytest.raises(ContractError, match="lie in"):
            BaselinePrediction(method="random", score=score, start=0)


class TestRandomBaseline:
    def test_scores_in_unit_interval(self):
        labeled = make_labeled(make_signal(s=40), length=4)
        preds = random_baseline(labeled, seed=1)
        assert len(preds) == len(labeled)
        assert all(0.0 <= p.score <= 1.0 for p in preds)
        assert all(p.method == "random" for p in preds)
        assert [p.start for p in preds] == [b.bucket.start for b in labeled]

    def test_same_seed_same_draws(self):
        labeled = make_labeled(make_signal(s=20), length=4)
        a = random_baseline(labeled, seed=9)
        b = random_baseline(labeled, seed=9)
        c = random_baseline(labeled, seed=10)
        assert [p.score for p in a] == [p.score for p in b]
        assert [p.score for p in a] != [p.score for p in c]

    def test_mse_matches_monte_carlo_expectation(self):
        # empirical MSE against half-corrupted labels should sit near
        # E[(U - Y)^2] under the same label law
        n = 5
        labeled = make_labeled(make_signal(n=n, s=403), length=4, seed=31, p=0.5)
        assert len(labeled) == 400
        preds = random_baseline(labeled, seed=32)
        mse = float(np.mean([(p.score - b.label) ** 2 for p, b in zip(preds, labeled)]))
        rng = np.random.default_rng(33)
        draws = 200_000
        u = rng.random(draws)
        corrupt = rng.random(draws) < 0.5
        k = rng.integers(1, n + 1, size=draws)
        y = np.where(corrupt, (n - k) / n, 1.0)
        oracle = float(np.mean((u - y) ** 2))
        assert abs(mse - oracle) < 0.05


class TestOlsFit:
    def test_exact_line(self):
        times = [0.0, 1.0, 2.0, 3.0]
        assert ols_fit(times, [2 * t + 1 for t in times]) == (2.0, 1.0)

    def test_constant_values(self):
        assert ols_fit([0.0, 1.0, 2.0], [5.0, 5.0, 5.0]) == (0.0, 5.0)

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(12)
        times = rng.normal(size=9)
        values = rng.normal(size=9)
        slope, intercept = ols_fit(times, values)
        residuals = values - (slope * times + intercept)
        assert abs(residuals.sum()) < 1e-9
        assert abs((residuals * times).sum()) < 1e-9

    def test_all_equal_times(self):
        with pytest.raises(ContractError, match="every time is equal"):
            ols_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(ContractError, match="at least 2"):
            ols_fit([1.0], [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ContractError, match="equal-length"):
            ols_fit([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSeriesScores:
    def test_scaled_ramp_with_low_candidate(self):
        # slope 0.25 through the first four points predicts 1.0 at the end
        assert extrapolation_score([0.0, 0.25, 0.5, 0.75, 0.2]) == pytest.approx(0.2, abs=1e-12)

    def test_perfect_ramp(self):
        assert extrapolation_score([0.0, 0.25, 0.5, 0.75, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_clamps_large_misses_to_zero(self):
        # the fit extrapolates to 4/3 while the candidate sits at the minimum
        assert tsr_series_score([0.0, 10.0, 20.0, 30.0, 0.0]) == 0.0

    def test_constant_series_scores_one(self):
        assert tsr_series_score([5.0, 5.0, 5.0, 5.0]) == 1.0

    def test_constant_history_with_jump_scores_zero(self):
        assert tsr_series_score([5.0, 5.0, 5.0, 8.0]) == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        series = rng.random(8)
        assert abs(tsr_series_score(series) - tsr_series_score(3.7 * series - 12.0)) < 1e-9

    def test_too_short(self):
        with pytest.raises(ContractError, match="at least 3"):
            extrapolation_score([0.1, 0.2])


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
            assert abs(tsr_baseline(bucket) - 1.0) < 1e-9

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
        assert abs(tsr_baseline(bucket) - np.mean(expected)) < 1e-9

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
            assert abs(tsr_baseline(bucket) - expected) <= 1e-12

    def test_score_stays_in_unit_interval(self):
        labeled = make_labeled(make_signal(n=3, s=30, seed=44), length=5, seed=44)
        for bucket in labeled:
            assert 0.0 <= tsr_baseline(bucket) <= 1.0

    def test_beats_random_on_clean_linear_data(self):
        t = np.arange(104, dtype=np.float64)
        features = np.stack(
            [(0.1 + 0.05 * node) * t + 2 * node for node in range(3)], axis=1,
        )[:, :, None]
        signal = make_signal(n=3, s=104, features=features)
        labeled = make_labeled(signal, length=5, p=0.0)
        assert len(labeled) == 100
        tsr_mse = np.mean([(tsr_baseline(b) - b.label) ** 2 for b in labeled])
        rand = random_baseline(labeled, seed=3)
        random_mse = np.mean([(p.score - b.label) ** 2 for p, b in zip(rand, labeled)])
        assert tsr_mse < random_mse

    def test_short_bucket_rejected(self):
        labeled = make_labeled(make_signal(s=10), length=2)
        with pytest.raises(ContractError, match="length >= 3"):
            tsr_baseline(labeled[0])

    def test_prediction_list_matches_pointwise_calls(self):
        labeled = make_labeled(make_signal(s=12), length=4, seed=2)
        preds = tsr_predictions(labeled)
        assert [p.score for p in preds] == [tsr_baseline(b) for b in labeled]
        assert all(p.method == "tsr" for p in preds)


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
