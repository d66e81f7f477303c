"""Stream scoring and alarm policies, checked against replay oracles."""

import json
import math

import numpy as np
import pytest

from tgsim import anomaly
from tgsim.anomaly import (
    MIN_STD,
    AlarmPolicy,
    AnomalyEvent,
    detect_with_thresholds,
    score_stream,
    write_events,
    write_scores_csv,
)
from tgsim.data import (NodeBounds, TemporalGraphSignal, adjacency_operator, node_bounds,
                        normalize_features)
from tgsim.errors import ConfigError, ContractError
from tgsim.model import Checkpoint, ModelConfig, ModelParams, Provenance, forward_pass
from tgsim.noise import NoiseSpec, bucketize, inject_noise
from tgsim.training import TrainConfig, train


def make_signal(n=3, s=12, f=2, seed=5, name="toy", features=None):
    if features is None:
        features = np.random.default_rng(seed).random((s, n, f))
    edges = tuple((i, i + 1) for i in range(n - 1))
    return TemporalGraphSignal(
        name=name, num_nodes=n, edges=edges, weights=None, features=features,
    )


def seeded_checkpoint(signal, length, seed=7, embed_dim=4):
    config = ModelConfig("tgcn", input_channels=signal.num_channels,
                         embed_dim=embed_dim, attention_dim=3)
    return Checkpoint(
        params=ModelParams.initialize(config, seed),
        feature_bounds=node_bounds(signal),
        provenance=Provenance(recipe=TrainConfig(bucket_length=length)),
    )


class TestAlarmPolicy:
    def test_defaults(self):
        policy = AlarmPolicy()
        assert policy.mode == "fixed"
        assert (policy.threshold, policy.window, policy.multiplier) == (0.7, 20, 3.0)

    @pytest.mark.parametrize("spelling", ["z-score", "Z_SCORE", "ZScore", "Fixed"])
    def test_other_mode_spellings_refused(self, spelling):
        with pytest.raises(ConfigError, match=r"expected one of \('fixed', 'zscore'\)"):
            AlarmPolicy(mode=spelling)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "percentile"},
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"window": 2},
            {"window": 2.5},
            {"multiplier": 0.0},
            {"multiplier": -1.0},
            {"multiplier": math.inf},
            {"threshold": "0.5"},
            {"threshold": None},
            {"multiplier": None},
            {"multiplier": "3"},
            {"multiplier": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            AlarmPolicy(**kwargs)


class TestScoreStream:
    def test_matches_per_bucket_forward(self):
        signal = make_signal(s=12)
        checkpoint = seeded_checkpoint(signal, 5)
        scores = score_stream(signal, checkpoint)
        buckets = bucketize(signal, 5)
        assert len(scores) == len(buckets) == 8
        a_hat = adjacency_operator(signal)
        for bucket, score in zip(buckets, scores):
            window = normalize_features(bucket.snapshots, checkpoint.feature_bounds)
            want = forward_pass(window, a_hat, checkpoint.params).item()
            assert score == pytest.approx(want, abs=1e-15)

    def test_exact_fit_gives_single_score(self):
        signal = make_signal(s=5)
        scores = score_stream(signal, seeded_checkpoint(signal, 5))
        assert len(scores) == 1

    def test_constant_signal_scores_are_constant(self):
        signal = make_signal(s=15, features=np.full((15, 3, 2), 0.37))
        scores = score_stream(signal, seeded_checkpoint(signal, 4))
        assert max(scores) - min(scores) <= 1e-12

    def test_scores_are_probabilities(self):
        signal = make_signal(s=20, seed=9)
        scores = score_stream(signal, seeded_checkpoint(signal, 6))
        assert all(0.0 < s < 1.0 for s in scores)

    def test_channel_mismatch(self):
        signal = make_signal(f=2)
        other = seeded_checkpoint(make_signal(f=3, seed=8), 4)
        with pytest.raises(ConfigError, match="channels"):
            score_stream(signal, other)

    def test_bounds_shape_mismatch(self):
        signal = make_signal(n=3, f=2)
        config = ModelConfig("tgcn", input_channels=2, embed_dim=4, attention_dim=3)
        checkpoint = Checkpoint(
            params=ModelParams.initialize(config, 1),
            feature_bounds=NodeBounds(mins=np.zeros((4, 2)), maxs=np.ones((4, 2))),
            provenance=Provenance(recipe=TrainConfig(bucket_length=4)),
        )
        with pytest.raises(ConfigError, match="bounds cover"):
            score_stream(signal, checkpoint)

    def test_signal_shorter_than_window(self):
        signal = make_signal(s=4)
        with pytest.raises(ContractError, match="4 snapshots"):
            score_stream(signal, seeded_checkpoint(signal, 5))


def smooth_features(s, n, rng, noise=0.005):
    t = np.arange(s, dtype=np.float64)
    per_node = [
        0.5 + 0.35 * np.sin(2 * np.pi * (t / 12.0 + node / n))
        for node in range(n)
    ]
    base = np.stack(per_node, axis=1)[:, :, None]
    return base + rng.normal(scale=noise, size=base.shape)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(60)
    signal = make_signal(n=5, s=60, f=1, features=smooth_features(60, 5, rng))
    labeled = inject_noise(
        bucketize(signal, 6), node_bounds(signal), NoiseSpec(seed=14),
    )
    model_config = ModelConfig("tgcn", input_channels=1, embed_dim=8, attention_dim=4)
    checkpoint, history = train(
        labeled, TrainConfig(epochs=25, bucket_length=6, seed=15), model_config,
    )
    assert history[-1] < history[0]
    return signal, checkpoint


class TestCorruptionDip:
    def test_corrupted_step_scores_lowest(self, trained):
        signal, checkpoint = trained
        rng = np.random.default_rng(61)
        fresh = smooth_features(60, 5, rng)
        hit = 40
        bounds = node_bounds(signal)
        for node in rng.choice(5, size=3, replace=False):
            fresh[hit, node, 0] = rng.uniform(bounds.mins[node, 0], bounds.maxs[node, 0])
        stream = make_signal(n=5, s=60, f=1, features=fresh)
        scores = score_stream(stream, checkpoint)
        # entry i ends at snapshot i + 5, so the corrupted candidate is entry 35
        assert int(np.argmin(scores)) == hit - 5


class TestDetectFixed:
    def test_quiet_stream(self):
        events, thresholds = detect_with_thresholds([0.95] * 30, AlarmPolicy(threshold=0.7))
        assert events == []
        assert thresholds == [0.7] * 30

    def test_fires_below_threshold(self):
        events, _ = detect_with_thresholds([0.8, 0.6, 0.9, 0.2], AlarmPolicy(threshold=0.7))
        assert [e.index for e in events] == [1, 3]
        assert [e.score for e in events] == [0.6, 0.2]
        assert all("threshold" in e.rule for e in events)
        assert all(e.trailing_mean is None for e in events)

    def test_index_offset(self):
        # the dip at 8 lies in the mute after the fire at 6
        events, _ = detect_with_thresholds([0.8, 0.6, 0.9, 0.2], AlarmPolicy(threshold=0.7),
                                           index_offset=5)
        assert [(e.index, e.echo_indices) for e in events] == [(6, (7, 8))]

    def test_index_offset_mutes_echoes(self):
        scores = [0.9] * 5 + [0.1] * 4 + [0.9] * 3
        events, thresholds = detect_with_thresholds(
            scores, AlarmPolicy(threshold=0.7), index_offset=3)
        assert [(e.index, e.echo_indices) for e in events] == [(8, (9, 10, 11))]
        assert thresholds == [0.7] * len(scores)

    def test_short_streams_are_fine(self):
        events, _ = detect_with_thresholds([0.5], AlarmPolicy(threshold=0.7))
        assert events[0].index == 0


class TestDetectZscore:
    def test_single_deep_dip(self):
        scores = [0.9] * 19 + [0.1]
        events, _ = detect_with_thresholds(
            scores, AlarmPolicy(mode="zscore", window=10, multiplier=3.0))
        assert len(events) == 1
        event = events[0]
        assert event.index == 19
        assert event.score == 0.1
        assert event.trailing_mean == pytest.approx(0.9)
        assert event.trailing_std == pytest.approx(0.0, abs=1e-12)

    def test_round_off_dips_stay_below_the_std_floor(self, monkeypatch):
        # a saturated model: every score within 1e-12 of 1.0
        scores = [1.0 - 1e-13 * (i % 3) for i in range(60)]
        scores[40] = 1.0 - 1e-12
        assert detect_with_thresholds(scores, AlarmPolicy(mode="zscore"))[0] == []
        monkeypatch.setattr(anomaly, "MIN_STD", 0.0)
        events, _ = detect_with_thresholds(scores, AlarmPolicy(mode="zscore"))
        assert [e.index for e in events] == [40]

    def test_std_floor_sets_the_threshold_and_is_named_in_the_rule(self, monkeypatch):
        assert MIN_STD == 1e-4
        scores = [0.9] * 19 + [0.89985, 0.5]
        policy = AlarmPolicy(mode="zscore", window=10)
        events, thresholds = detect_with_thresholds(scores, policy)
        assert thresholds[10:20] == [pytest.approx(0.8997, abs=1e-12)] * 10
        assert [e.index for e in events] == [20]
        event = events[0]
        assert event.trailing_std == pytest.approx(np.std([0.9] * 9 + [0.89985]), abs=1e-15)
        assert thresholds[20] == pytest.approx(event.trailing_mean - 3e-4, abs=1e-12)
        assert "min_std 0.0001 (std " in event.rule
        monkeypatch.setattr(anomaly, "MIN_STD", 0.0)
        assert [e.index for e in detect_with_thresholds(scores, policy)[0]] == [19, 20]

    def test_adjacent_dip_is_not_suppressed(self):
        scores = [0.9] * 25 + [0.05, 0.07] + [0.9] * 5
        events, _ = detect_with_thresholds(
            scores, AlarmPolicy(mode="zscore", window=10, multiplier=3.0))
        assert [e.index for e in events] == [25, 26]

    def test_matches_brute_force_rescan(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(0.7, 0.95, size=300)
        dips = rng.choice(np.arange(25, 300), size=12, replace=False)
        scores[dips] = rng.uniform(0.0, 0.2, size=12)
        policy = AlarmPolicy(mode="zscore", window=20, multiplier=2.0)
        events, _ = detect_with_thresholds(list(scores), policy)

        accepted, expected = [], []
        for i, s in enumerate(scores):
            if len(accepted) < policy.window:
                accepted.append(s)
                continue
            tail = accepted[-policy.window:]
            mean = sum(tail) / policy.window
            std = math.sqrt(sum((x - mean) ** 2 for x in tail) / policy.window)
            if s < mean - policy.multiplier * std:
                expected.append(i)
            else:
                accepted.append(s)
        assert [e.index for e in events] == expected
        assert len(events) > 0

    def test_dip_echoes_are_muted_onto_the_event(self):
        length = 6
        scores = [0.9] * 25 + [0.05] * length + [0.9] * 5
        policy = AlarmPolicy(mode="zscore", window=10, multiplier=3.0)
        events, _ = detect_with_thresholds(scores, policy, index_offset=length - 1)
        assert [e.index for e in events] == [30]
        assert events[0].echo_indices == (31, 32, 33, 34, 35)

    def test_dip_after_the_mute_fires_again(self):
        length = 4
        scores = [0.9] * 20 + [0.1] * length + [0.9] * 6 + [0.1] + [0.9] * 4
        policy = AlarmPolicy(mode="zscore", window=10, multiplier=3.0)
        events, _ = detect_with_thresholds(scores, policy, index_offset=length - 1)
        assert [e.index - (length - 1) for e in events] == [20, 30]
        assert events[0].echo_indices == (24, 25, 26)
        assert events[1].echo_indices == (34, 35, 36)

    def test_mute_ends_at_the_stream_end(self):
        scores = [0.9] * 20 + [0.1, 0.1]
        policy = AlarmPolicy(mode="zscore", window=10, multiplier=3.0)
        events, _ = detect_with_thresholds(scores, policy, index_offset=5)
        assert [(e.index, e.echo_indices) for e in events] == [(25, (26,))]

    @pytest.mark.parametrize("offset", [0, 1, 3, 9])
    def test_muted_scores_stay_out_of_the_trail(self, offset):
        # offset 0 mutes nothing: the rescan is then test_matches_brute_force_rescan's
        rng = np.random.default_rng(13)
        scores = rng.uniform(0.7, 0.95, size=300)
        dips = rng.choice(np.arange(25, 300), size=12, replace=False)
        scores[dips] = rng.uniform(0.0, 0.2, size=12)
        policy = AlarmPolicy(mode="zscore", window=20, multiplier=2.0)
        events, thresholds = detect_with_thresholds(list(scores), policy, index_offset=offset)

        accepted, expected, bounds = [], [], []
        muted_through = -1
        for i, s in enumerate(scores):
            if len(accepted) < policy.window:
                accepted.append(s)
                bounds.append(None)
                continue
            tail = accepted[-policy.window:]
            mean = sum(tail) / policy.window
            std = math.sqrt(sum((x - mean) ** 2 for x in tail) / policy.window)
            bounds.append(mean - policy.multiplier * std)
            if i <= muted_through:
                expected[-1][1].append(offset + i)
            elif s < bounds[-1]:
                expected.append((offset + i, []))
                muted_through = i + offset
            else:
                accepted.append(s)
        assert [(e.index, list(e.echo_indices)) for e in events] == expected
        assert any(e.echo_indices for e in events) == (offset > 0)
        assert thresholds[:policy.window] == [None] * policy.window
        assert thresholds[policy.window:] == pytest.approx(bounds[policy.window:], abs=1e-12)

    @pytest.mark.parametrize("stream", ["random", "saturated", "rounded", "floored"])
    @pytest.mark.parametrize("min_std", [MIN_STD, 0.0])
    def test_trailing_statistics_are_numpys_mean_and_std_bitwise(self, monkeypatch, stream,
                                                                min_std):
        rng = np.random.default_rng(17)
        scores = {
            "random": rng.uniform(0.7, 0.95, size=400),
            "saturated": 1.0 - 1e-12 * rng.random(400),
            "rounded": np.round(rng.uniform(0.8, 0.9, size=400), 3),
            "floored": 0.9 + 1e-7 * rng.standard_normal(400),
        }[stream]
        scores[rng.choice(np.arange(30, 400), size=8, replace=False)] -= 0.3
        policy, offset = AlarmPolicy(mode="zscore", window=20, multiplier=2.0), 3
        monkeypatch.setattr(anomaly, "MIN_STD", min_std)
        events, thresholds = detect_with_thresholds(list(scores), policy, index_offset=offset)

        # the detector's loop with np.mean and np.std themselves
        expected_events, expected_bounds, trail = [], [], []
        muted_through = -1
        for i, s in enumerate(scores):
            if len(trail) < policy.window:
                trail.append(s)
                expected_bounds.append(None)
                continue
            values = np.array(trail[-policy.window:])
            mean, std = float(np.mean(values)), float(np.std(values))
            expected_bounds.append(mean - policy.multiplier * max(std, min_std))
            if i <= muted_through:
                continue
            if s < expected_bounds[-1]:
                expected_events.append((offset + i, mean, std))
                muted_through = min(i + offset, len(scores) - 1)
            else:
                trail.append(s)
        assert [(e.index, e.trailing_mean, e.trailing_std) for e in events] == expected_events
        assert thresholds == expected_bounds
        assert len(expected_events) >= 8

    def test_indices_strictly_increase(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(0.0, 1.0, size=120)
        events, _ = detect_with_thresholds(
            list(scores), AlarmPolicy(mode="zscore", window=10, multiplier=1.0))
        indices = [e.index for e in events]
        assert indices == sorted(set(indices))

    def test_warmup_thresholds_are_none(self):
        scores = [0.9] * 15
        _, thresholds = detect_with_thresholds(
            scores, AlarmPolicy(mode="zscore", window=10, multiplier=3.0),
        )
        assert thresholds[:10] == [None] * 10
        assert all(isinstance(t, float) for t in thresholds[10:])

    def test_stream_shorter_than_window(self):
        with pytest.raises(ContractError, match="at least 10"):
            detect_with_thresholds([0.9] * 9, AlarmPolicy(mode="zscore", window=10))

    def test_non_finite_score(self):
        with pytest.raises(ContractError, match="position 2"):
            detect_with_thresholds([0.9, 0.8, float("nan")], AlarmPolicy())


class TestEventSerialization:
    def test_events_json(self, tmp_path):
        events = [
            AnomalyEvent(index=4, score=0.1, rule="score 0.1 < threshold 0.7"),
            AnomalyEvent(index=9, score=0.2, rule="dip", trailing_mean=0.9, trailing_std=0.01,
                         echo_indices=(10, 11, 12)),
        ]
        path = tmp_path / "events.json"
        write_events(events, path)
        doc = json.loads(path.read_text())
        assert [e["index"] for e in doc] == [4, 9]
        assert doc[0]["trailing_mean"] is None
        assert doc[1]["trailing_std"] == 0.01
        assert doc[0]["echo_indices"] == []
        assert doc[1]["echo_indices"] == [10, 11, 12]

    def test_scores_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv([0.9, 0.8, 0.2], [None, 0.7, 0.7], path, index_offset=4)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,score,threshold"
        assert lines[1] == "4,0.9,"
        assert lines[3] == "6,0.2,0.7"

    def test_scores_csv_length_mismatch(self, tmp_path):
        with pytest.raises(ContractError, match="2 scores vs 1"):
            write_scores_csv([0.9, 0.8], [None], tmp_path / "scores.csv")
