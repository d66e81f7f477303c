"""Trainer, fold protocol, metrics, and report serialization."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tgsim import training
from tgsim.autodiff import Tensor
from tgsim.data import TemporalGraphSignal, adjacency_operator, node_bounds, normalize_features
from tgsim.errors import ConfigError, ContractError, ParseError, TrainingError
from tgsim.model import (CELL_KINDS, Checkpoint, ModelConfig, ModelParams, Provenance,
                         forward_pass, parameter_shapes)
from tgsim.noise import LabeledBucket, NoiseSpec, bucketize, inject_noise
from tgsim.training import (
    Adam,
    FoldResult,
    MetricsReport,
    TrainConfig,
    bounds_from_buckets,
    compute_metrics,
    cross_validate,
    evaluate,
    kfold_split,
    load_report,
    train,
    write_report,
    write_report_csv,
)


def zero_params(config):
    return ModelParams(config, {name: np.zeros(shape)
                                for name, shape in parameter_shapes(config).items()})


def make_signal(n=4, s=16, f=2, seed=5, name="toy"):
    rng = np.random.default_rng(seed)
    edges = tuple((i, i + 1) for i in range(n - 1))
    return TemporalGraphSignal(
        name=name, num_nodes=n, edges=edges, weights=None,
        features=rng.random((s, n, f)),
    )


# the provenance of a hand-built checkpoint that scores windows of 5 snapshots
FIVE = Provenance(recipe=TrainConfig(bucket_length=5))


def make_labeled(n=4, s=16, f=2, length=5, seed=5, p=0.5):
    signal = make_signal(n, s, f, seed)
    buckets = bucketize(signal, length)
    return inject_noise(buckets, node_bounds(signal), NoiseSpec(corrupt_probability=p, seed=seed))


def hand_bucket(signal, start, length, perturbed):
    """A labeled bucket with a chosen perturbed-node set and exact label."""
    bucket = bucketize(signal, length)[start]
    candidate = bucket.candidate.copy()
    for node in perturbed:
        candidate[node] += 0.25
    return LabeledBucket(bucket=bucket, candidate=candidate, perturbed=frozenset(perturbed))


def tiny_model(kind="tgcn", f=2):
    return ModelConfig(kind, input_channels=f, embed_dim=4, attention_dim=3)


def start_from(monkeypatch, params):
    """Make train start from `params` instead of a seeded initialization."""
    monkeypatch.setattr(ModelParams, "initialize", classmethod(lambda cls, config, seed: params))


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.epochs == 30
        assert config.learning_rate == 0.003
        assert config.bucket_length == 10
        assert config.folds == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"epochs": 2.5},
            {"learning_rate": 0.0},
            {"learning_rate": -0.1},
            {"bucket_length": 1},
            {"folds": 1},
            {"seed": -1},
            {"seed": True},
            {"learning_rate": math.inf},
            {"learning_rate": True},
            {"learning_rate": 10 ** 400},
            {"epochs": 10 ** 400},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"shuffle_folds": 1}, "shuffle_folds must be a bool"),
        ({"shuffle_folds": None}, "shuffle_folds must be a bool"),
        ({"shuffle_folds": "no"}, "shuffle_folds must be a bool"),
        ({"redraw_probability": True}, "redraw probability"),
        ({"redraw_probability": -0.1}, "redraw probability"),
        ({"redraw_probability": 1.5}, "redraw probability"),
        ({"redraw_probability": math.nan}, "redraw probability"),
        ({"redraw_probability": "0.5"}, "redraw probability"),
    ])
    def test_rejects_a_bad_split_or_redraw(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**kwargs)

    def test_split_and_redraw_defaults(self):
        config = TrainConfig(redraw_probability=0)
        assert (config.shuffle_folds, config.redraw_probability) == (True, 0)
        assert TrainConfig().redraw_probability is None


class TestComputeMetrics:
    def test_half_off_example(self):
        assert compute_metrics([0.5, 0.5], [1.0, 0.0]) == (0.25, 0.5, 0.5)

    def test_perfect_predictions(self):
        assert compute_metrics([0.2, 0.9, 0.4], [0.2, 0.9, 0.4]) == (0.0, 0.0, 0.0)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(7)
        preds = [float(x) for x in rng.random(1000)]
        labels = [float(x) for x in rng.random(1000)]
        mse, mae, rmse = compute_metrics(preds, labels)
        diffs = [p - y for p, y in zip(preds, labels)]
        assert abs(mse - sum(d * d for d in diffs) / 1000) < 1e-12
        assert abs(mae - sum(abs(d) for d in diffs) / 1000) < 1e-12
        assert abs(rmse - math.sqrt(mse)) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ContractError, match="3 predictions vs 2 labels"):
            compute_metrics([0.1, 0.2, 0.3], [0.1, 0.2])

    def test_empty(self):
        with pytest.raises(ContractError, match="zero samples"):
            compute_metrics([], [])

    def test_rejects_matrices(self):
        with pytest.raises(ContractError, match="flat"):
            compute_metrics([[0.1, 0.2]], [[0.1, 0.2]])


class TestKfoldSplit:
    def test_even_sizes(self):
        pairs = kfold_split(list(range(21)), 3, seed=0)
        assert [len(test) for _, test in pairs] == [7, 7, 7]
        assert [len(tr) for tr, _ in pairs] == [14, 14, 14]

    def test_near_equal_sizes(self):
        pairs = kfold_split(list(range(20)), 3, seed=0)
        assert [len(test) for _, test in pairs] == [7, 7, 6]

    @pytest.mark.parametrize("n,folds", [(5, 2), (9, 3), (12, 5), (21, 3), (7, 7)])
    def test_partition(self, n, folds):
        items = list(range(n))
        pairs = kfold_split(items, folds, seed=3)
        seen = [x for _, test in pairs for x in test]
        assert sorted(seen) == items
        for tr, test in pairs:
            assert sorted(tr + test) == items
            assert not set(tr) & set(test)

    def test_seeded_shuffle(self):
        a = kfold_split(list(range(20)), 3, seed=0)
        b = kfold_split(list(range(20)), 3, seed=0)
        c = kfold_split(list(range(20)), 3, seed=1)
        assert [t for _, t in a] == [t for _, t in b]
        assert [t for _, t in a] != [t for _, t in c]

    def test_unshuffled_blocks_keep_order(self):
        items = list(range(10))
        pairs = kfold_split(items, 2, seed=9, shuffle=False)
        assert pairs[0][1] == items[:5]
        assert pairs[1][1] == items[5:]

    def test_too_many_folds(self):
        with pytest.raises(ContractError, match="4 buckets into 5 folds"):
            kfold_split(list(range(4)), 5, seed=0)

    def test_single_fold_rejected(self):
        with pytest.raises(ContractError, match="at least 2"):
            kfold_split(list(range(4)), 1, seed=0)


def flat(t):
    """A one-tensor optimizer's flat vectors: views of the tensor's value and gradient."""
    return t.value.reshape(-1), t.grad.reshape(-1)


class TestOptimizers:
    def test_adam_matches_scalar_recomputation(self):
        t = Tensor([[1.0]], requires_grad=True)
        opt = Adam(*flat(t), 0.05)
        grads = [0.3, -0.2, 0.7, 0.1]
        w, m, v = 1.0, 0.0, 0.0
        for step, g in enumerate(grads, start=1):
            t.grad[...] = g
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w -= 0.05 * (m / (1 - 0.9 ** step)) / (math.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
            assert abs(t.value[0, 0] - w) < 1e-15

    def test_adam_matches_per_tensor_updates_bitwise(self):
        rng = np.random.default_rng(4)
        shapes = [(3, 5), (1, 5), (5, 1), (1, 1)]
        # the tensors are views of one flat value and one flat gradient, as in ModelParams
        sizes = [rows * cols for rows, cols in shapes]
        flat_values, flat_grads = rng.normal(size=sum(sizes)), np.zeros(sum(sizes))
        tensors, at = [], 0
        for shape, size in zip(shapes, sizes):
            t = Tensor(flat_values[at:at + size].reshape(shape), requires_grad=True)
            t.grad = flat_grads[at:at + size].reshape(shape)
            tensors.append(t)
            at += size
        values = [t.value.copy() for t in tensors]
        first = [np.zeros(shape) for shape in shapes]
        second = [np.zeros(shape) for shape in shapes]
        opt = Adam(flat_values, flat_grads, 0.02)
        for step in range(1, 30):
            for t, w, m, v in zip(tensors, values, first, second):
                g = rng.normal(size=w.shape) * 10.0 ** rng.integers(-6, 3)
                t.grad[...] = g
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g ** 2
                w -= 0.02 * (m / (1.0 - 0.9 ** step)) / (
                    np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8
                )
            opt.step()
            for t, w in zip(tensors, values):
                assert np.array_equal(t.value, w)

    def test_adam_first_step_is_signed_unit(self):
        # bias correction makes the first update ~lr regardless of grad scale
        for g in (0.5, 200.0, -0.003):
            t = Tensor([[1.0]], requires_grad=True)
            t.grad[...] = g
            Adam(*flat(t), 0.01).step()
            assert abs((1.0 - t.value[0, 0]) - math.copysign(0.01, g)) < 1e-6


class TestFoldResult:
    def test_from_metrics(self):
        fold = FoldResult([0.5, 0.5], [1.0, 0.0], [0, 1])
        assert (fold.mse, fold.mae, fold.rmse) == (0.25, 0.5, 0.5)
        assert fold.sample_count == 2
        assert fold.starts == (0, 1)

    @pytest.mark.parametrize("name", ["mse", "mae", "rmse", "sample_count"])
    def test_metrics_are_derived_not_given(self, name):
        # no caller can give or set a figure apart from the samples it comes from
        with pytest.raises(TypeError):
            FoldResult(predictions=(0.5,), labels=(1.0,), starts=(0,), **{name: 0.25})
        fold = FoldResult((0.5,), (1.0,), (0,))
        with pytest.raises(AttributeError):
            setattr(fold, name, 0.25)
        assert (fold.mse, fold.mae, fold.rmse, fold.sample_count) == (
            *compute_metrics([0.5], [1.0]), 1)

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ContractError, match="disagree"):
            FoldResult(predictions=(0.5,), labels=(1.0,), starts=(0, 1))

    @pytest.mark.parametrize("starts", [[0.5], [1.0], [True], [np.True_], ["0"]])
    def test_start_that_is_no_integer_rejected(self, starts):
        # int() once truncated 0.5 to window 0 and read True as window 1
        with pytest.raises(ContractError, match="fold starts: .* is a bool or not Integral"):
            FoldResult([1.0], [0.9], starts)

    @pytest.mark.parametrize("name", ["predictions", "labels"])
    @pytest.mark.parametrize("value", [True, np.False_, "0.5", None])
    def test_prediction_or_label_that_is_no_number_rejected(self, name, value):
        # float() once read True as 1.0
        samples = {"predictions": [0.5], "labels": [1.0], "starts": [0], name: [value]}
        with pytest.raises(ContractError, match=f"fold {name}: .* is a bool or not Real"):
            FoldResult(**samples)

    def test_python_and_numpy_numbers_accepted(self):
        fold = FoldResult([np.float32(0.5), 1], np.array([1.0, 0.0]), [np.int64(3), np.uint8(4)])
        assert fold.predictions == (0.5, 1.0) and fold.labels == (1.0, 0.0)
        assert fold.starts == (3, 4) and type(fold.starts[0]) is int
        assert fold.mse == 0.625


class TestBoundsFromBuckets:
    @pytest.mark.parametrize("stride", [1, 3, 7])
    def test_bytes_equal_every_window_stacked(self, stride):
        # stride 3 overlaps windows of 5, stride 7 leaves snapshots out; the
        # candidates lie outside their histories' range, and come in no order
        signal = make_signal(n=4, s=40, seed=30)
        rng = np.random.default_rng(31)
        buckets = bucketize(signal, 5, stride)
        labeled = [LabeledBucket(buckets[i], buckets[i].candidate + rng.normal(0, 1.0, (4, 2)), ())
                   for i in rng.permutation(len(buckets))]
        stacked = np.concatenate([b.snapshots for b in labeled])
        bounds = bounds_from_buckets(labeled)
        assert bounds.mins.tobytes() == stacked.min(axis=0).tobytes()
        assert bounds.maxs.tobytes() == stacked.max(axis=0).tobytes()


class TestTrain:
    def test_zero_init_on_half_labels_is_stationary(self, monkeypatch):
        # logistic(0) = 0.5 exactly, so loss and gradients are zero throughout
        signal = make_signal(n=2, s=12, f=2, seed=11)
        buckets = [hand_bucket(signal, i, 5, perturbed=[0]) for i in range(4)]
        assert all(b.label == 0.5 for b in buckets)
        model_config = tiny_model()
        config = TrainConfig(epochs=4, bucket_length=5, seed=1)
        start_from(monkeypatch, zero_params(model_config))
        checkpoint, history = train(buckets, config, model_config)
        assert history == [0.0, 0.0, 0.0, 0.0]
        for name in checkpoint.params:
            assert np.all(checkpoint.params[name].value == 0.0)

    def test_loss_improves_over_epochs(self):
        labeled = make_labeled(n=4, s=54, f=2, length=5, seed=2)
        assert len(labeled) == 50
        model_config = ModelConfig("a3tgcn", input_channels=2, embed_dim=6, attention_dim=4)
        config = TrainConfig(epochs=30, bucket_length=5, seed=3)
        checkpoint, history = train(labeled, config, model_config)
        assert len(history) == 30
        assert all(math.isfinite(x) for x in history)
        assert history[-1] <= history[0]
        assert checkpoint.provenance.final_loss == history[-1]

    def test_same_seed_gives_identical_runs(self):
        labeled = make_labeled(s=14, length=5, seed=4)
        model_config = tiny_model("gconv_gru")
        config = TrainConfig(epochs=3, bucket_length=5, seed=8)
        first, history_a = train(labeled, config, model_config)
        second, history_b = train(labeled, config, model_config)
        assert history_a == history_b
        for name in first.params:
            assert np.array_equal(first.params[name].value, second.params[name].value)

    def test_seed_changes_the_run(self):
        labeled = make_labeled(s=14, length=5, seed=4)
        model_config = tiny_model()
        _, history_a = train(labeled, TrainConfig(epochs=2, bucket_length=5, seed=0),
                             model_config)
        _, history_b = train(labeled, TrainConfig(epochs=2, bucket_length=5, seed=1),
                             model_config)
        assert history_a != history_b

    def test_divergence_names_epoch_and_bucket(self, monkeypatch):
        labeled = make_labeled(s=14, length=5)
        model_config = tiny_model()
        poisoned = zero_params(model_config)
        poisoned["w_in"].value[0, 0] = np.nan
        start_from(monkeypatch, poisoned)
        config = TrainConfig(epochs=1, bucket_length=5)
        # every loss is NaN; the first in the epoch's shuffle is named by its index in the list
        first = np.random.default_rng([config.seed, 1, 0]).permutation(len(labeled))[0]
        with pytest.raises(TrainingError, match=rf"epoch 0, bucket {first} "):
            train(labeled, config, model_config)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_names_the_window_inside_its_batch(self, monkeypatch):
        # an infinite candidate spoils its own window's score, not its batch neighbours'
        labeled = make_labeled(s=14, length=5)
        config = TrainConfig(epochs=1, bucket_length=5, seed=2, redraw_probability=0.5)
        order = np.random.default_rng([config.seed, 1, 0]).permutation(len(labeled))
        bad = labeled[order[5]]
        poisoned = [LabeledBucket(b.bucket, np.full(b.candidate.shape, np.inf), b.perturbed)
                    if b is bad else b for b in labeled]
        # the error names the bucket's index in the list, not its place in the shuffle
        assert order[5] != 5
        message = rf"epoch 0, bucket {order[5]} \(window start {bad.bucket.start}\)"
        # the epoch's redraw hands train the poisoned set
        monkeypatch.setattr(training, "inject_noise", lambda *args: poisoned)
        with pytest.raises(TrainingError, match=message):
            train(labeled, config, tiny_model())

    def test_redraw_supplies_each_epoch(self, monkeypatch):
        signal = make_signal(n=2, s=12, f=2, seed=11)
        half = [hand_bucket(signal, 0, 5, perturbed=[0])]
        model_config = tiny_model()
        config = TrainConfig(epochs=1, bucket_length=5, redraw_probability=0.0)
        start_from(monkeypatch, zero_params(model_config))
        _, history = train(half, config, model_config)
        # redrawn at p = 0 the bucket is clean, label 1.0: the zero model starts at (0.5-1)^2
        assert history == [0.25]

    def test_redraw_draws_once_per_epoch_from_the_seed(self, monkeypatch):
        labeled = make_labeled(s=14, length=5)
        calls = []

        def recorded(buckets, bounds, spec):
            calls.append((spec.corrupt_probability, spec.seed))
            # the given set's clean windows, within the signal's node bounds
            assert list(map(id, buckets)) == [id(b.bucket) for b in labeled]
            signal_bounds = node_bounds(labeled[0].bucket.signal)
            assert np.array_equal(bounds.mins, signal_bounds.mins)
            assert np.array_equal(bounds.maxs, signal_bounds.maxs)
            return inject_noise(buckets, bounds, spec)

        monkeypatch.setattr(training, "inject_noise", recorded)
        config = TrainConfig(epochs=3, bucket_length=5, seed=6, redraw_probability=0.3)
        train(labeled, config, tiny_model())
        assert calls == [(0.3, int(np.random.SeedSequence([6, 4, epoch]).generate_state(1)[0]))
                         for epoch in range(3)]

    def test_redraw_at_zero_trains_on_the_clean_windows(self):
        features = np.random.default_rng(12).random((20, 4, 2))
        features[-1] = 0.5  # an interior last snapshot: corrupted and clean windows share bounds
        signal = TemporalGraphSignal("toy", 4, ((0, 1), (1, 2), (2, 3)), None, features)
        buckets, bounds = bucketize(signal, 5), node_bounds(signal)
        corrupted = inject_noise(buckets, bounds, NoiseSpec(0.9, 4))
        clean = inject_noise(buckets, bounds, NoiseSpec(0.0, 4))
        assert any(b.label < 1.0 for b in corrupted) and all(b.label == 1.0 for b in clean)
        ours, theirs = bounds_from_buckets(corrupted), bounds_from_buckets(clean)
        assert ours.mins.tobytes() == theirs.mins.tobytes()
        assert ours.maxs.tobytes() == theirs.maxs.tobytes()
        config = TrainConfig(epochs=3, bucket_length=5, seed=2)
        _, redrawn = train(corrupted, replace(config, redraw_probability=0.0), tiny_model())
        _, fixed = train(corrupted, config, tiny_model())
        _, on_clean = train(clean, config, tiny_model())
        assert redrawn == on_clean
        assert redrawn != fixed

    def test_stores_training_bounds_and_provenance(self):
        labeled = make_labeled(s=14, length=5, seed=6)
        config = TrainConfig(epochs=2, bucket_length=5, seed=9)
        checkpoint, history = train(labeled, config, tiny_model())
        expected = bounds_from_buckets(labeled)
        assert np.array_equal(checkpoint.feature_bounds.mins, expected.mins)
        assert np.array_equal(checkpoint.feature_bounds.maxs, expected.maxs)
        assert checkpoint.provenance.dataset == "toy"
        assert checkpoint.provenance.recipe == config
        assert checkpoint.provenance.fold is None  # a lone train is no fold of a run

    def test_checkpoint_keeps_no_backward_buffers(self):
        # callers keep checkpoints (a benchmark round keeps every one), so
        # the window backward's buffers must not stay with them
        checkpoint, _ = train(make_labeled(s=14, length=5), TrainConfig(epochs=1, bucket_length=5),
                              tiny_model())
        assert checkpoint.params.scratch == {}
        assert checkpoint.params.grads is None

    def test_empty_train_set(self):
        with pytest.raises(ContractError, match="at least one bucket"):
            train([], TrainConfig(), tiny_model())

    def test_bucket_length_mismatch(self):
        labeled = make_labeled(s=14, length=5)
        with pytest.raises(ContractError, match="length 5, expected 10"):
            train(labeled, TrainConfig(bucket_length=10), tiny_model())

    def test_mixed_node_counts(self):
        a = make_labeled(n=2, s=14, length=5)
        b = make_labeled(n=3, s=14, length=5)
        with pytest.raises(ContractError, match="shape"):
            train(a + b, TrainConfig(epochs=1, bucket_length=5), tiny_model())

    def test_windows_of_two_signals_rejected(self):
        # same shape, other features: train would read them from the first signal
        a = make_labeled(s=14, length=5, seed=5)
        b = make_labeled(s=14, length=5, seed=6)
        config = TrainConfig(epochs=1, bucket_length=5)
        with pytest.raises(ContractError, match="another signal"):
            train(a + b, config, tiny_model())

    def test_channel_mismatch(self):
        labeled = make_labeled(f=2, s=14, length=5)
        with pytest.raises(ConfigError, match="2 channels.*expects 3"):
            train(labeled, TrainConfig(bucket_length=5), tiny_model(f=3))


class TestEvaluate:
    def test_constant_half_model_on_clean_buckets(self):
        signal = make_signal(n=3, s=20, f=2, seed=13)
        clean = [hand_bucket(signal, i, 5, perturbed=[]) for i in range(6)]
        model_config = tiny_model()
        checkpoint = Checkpoint(zero_params(model_config), node_bounds(signal), FIVE)
        report = evaluate(checkpoint, clean)
        fold = report.folds[0]
        assert fold.predictions == (0.5,) * 6
        assert (fold.mse, fold.mae, fold.rmse) == (0.25, 0.5, 0.5)
        assert report.mean_mse == 0.25

    def test_single_bucket_metrics_are_pointwise(self):
        labeled = make_labeled(s=14, length=5, seed=21)
        model_config = tiny_model()
        checkpoint, _ = train(labeled[:6], TrainConfig(epochs=1, bucket_length=5),
                              model_config)
        report = evaluate(checkpoint, labeled[6:7])
        fold = report.folds[0]
        err = fold.predictions[0] - labeled[6].label
        assert abs(fold.mse - err * err) < 1e-15
        assert abs(fold.mae - abs(err)) < 1e-15
        assert abs(fold.rmse - abs(err)) < 1e-15

    def test_report_invariants_hold(self):
        labeled = make_labeled(s=20, length=5, seed=22)
        checkpoint, _ = train(labeled[:10], TrainConfig(epochs=2, bucket_length=5),
                              tiny_model())
        report = evaluate(checkpoint, labeled[10:])
        for fold in report.folds:
            assert abs(fold.rmse - math.sqrt(fold.mse)) <= 1e-12
            assert fold.mae <= fold.rmse + 1e-12

    def test_channel_mismatch(self):
        labeled = make_labeled(f=2, s=14, length=5)
        wrong = tiny_model(f=3)
        checkpoint = Checkpoint(zero_params(wrong), bounds_from_buckets(labeled), FIVE)
        with pytest.raises(ConfigError, match="channels"):
            evaluate(checkpoint, labeled)

    def test_empty_test_set(self):
        labeled = make_labeled(s=14, length=5)
        checkpoint, _ = train(labeled, TrainConfig(epochs=1, bucket_length=5), tiny_model())
        with pytest.raises(ContractError, match="at least one bucket"):
            evaluate(checkpoint, [])

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_shuffled_buckets_match_forward_in_input_order(self, kind):
        labeled = make_labeled(n=4, s=30, length=5, seed=23)
        model_config = tiny_model(kind)
        checkpoint = Checkpoint(ModelParams.initialize(model_config, 24),
                                bounds_from_buckets(labeled), FIVE)
        order = np.random.default_rng(25).permutation(len(labeled))
        shuffled = [labeled[i] for i in order]
        fold = evaluate(checkpoint, shuffled).folds[0]
        assert list(fold.starts) == [b.bucket.start for b in shuffled]
        assert list(fold.labels) == [b.label for b in shuffled]
        a_hat = adjacency_operator(shuffled[0].bucket.signal)
        want = [forward_pass(normalize_features(b.snapshots, checkpoint.feature_bounds), a_hat,
                             checkpoint.params).item() for b in shuffled]
        assert np.max(np.abs(np.array(fold.predictions) - want)) <= 1e-15

    def test_bucket_from_another_signal_rejected(self):
        # same node count and channels, other features: one graph would
        # silently score the other signal's windows
        ours = make_labeled(n=4, s=14, length=5, seed=26)
        theirs = make_labeled(n=4, s=14, length=5, seed=27)
        checkpoint = Checkpoint(zero_params(tiny_model()), bounds_from_buckets(ours), FIVE)
        with pytest.raises(ContractError, match=r"bucket 3 \(start 7\).*signal"):
            evaluate(checkpoint, ours[:3] + [theirs[7]] + ours[3:])

    def test_mixed_lengths_rejected(self):
        signal = make_signal(n=4, s=14)
        short = inject_noise(bucketize(signal, 4), node_bounds(signal), NoiseSpec(seed=28))
        long = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(seed=28))
        checkpoint = Checkpoint(zero_params(tiny_model()), node_bounds(signal), FIVE)
        with pytest.raises(ContractError, match=r"bucket 2 \(start 6\) has length 4"):
            evaluate(checkpoint, long[:2] + [short[6]])

    def test_windows_of_another_length_than_the_checkpoints_rejected(self):
        # scored at their own length, L = 3 windows once ran through an L = 10 model
        signal = make_signal(n=4, s=14)
        short = inject_noise(bucketize(signal, 3), node_bounds(signal), NoiseSpec(seed=29))
        checkpoint = Checkpoint(zero_params(tiny_model()), node_bounds(signal))
        with pytest.raises(ContractError, match=r"bucket 0 \(start 0\) has length 3, expected 10"):
            evaluate(checkpoint, short)


class TestCrossValidate:
    def setup_method(self):
        self.labeled = make_labeled(n=3, s=16, f=2, length=5, seed=17)
        self.model_config = tiny_model()
        self.config = TrainConfig(epochs=2, bucket_length=5, seed=5)

    def test_fold_structure(self):
        report, checkpoints = cross_validate(self.labeled, self.config, self.model_config)
        assert len(report.folds) == 3
        assert len(checkpoints) == 3
        tested = sorted(s for fold in report.folds for s in fold.starts)
        assert tested == sorted(b.bucket.start for b in self.labeled)
        assert report.total_samples == len(self.labeled)

    def test_mean_is_mean_of_folds(self):
        report, _ = cross_validate(self.labeled, self.config, self.model_config)
        assert abs(report.mean_mse - np.mean([f.mse for f in report.folds])) < 1e-15
        assert abs(report.mean_rmse - np.mean([f.rmse for f in report.folds])) < 1e-15

    def test_config_echo(self):
        report, _ = cross_validate(self.labeled, self.config, self.model_config)
        assert report.config["epochs"] == 2
        assert report.config["folds"] == 3
        assert report.config["cell_kind"] == "tgcn"
        assert report.config["embed_dim"] == 4
        assert report.model == "tgcn"
        assert report.dataset == "toy"

    def test_checkpoints_record_their_fold(self):
        # the run's recipe, though fold i trained from fold_seed(5, i)
        report, checkpoints = cross_validate(self.labeled, self.config, self.model_config)
        for index, (fold, checkpoint) in enumerate(zip(report.folds, checkpoints)):
            assert checkpoint.provenance.recipe == self.config
            assert checkpoint.provenance.fold == index
            test = kfold_split(self.labeled, self.config.folds, self.config.seed)[index][1]
            assert fold.starts == tuple(b.bucket.start for b in test)
            assert checkpoint.provenance.buckets_sha256 == ""

    def test_unshuffled_split_tests_contiguous_blocks(self):
        # 12 windows in 3 folds: blocks in bucket order, as kfold_split(shuffle=False) cuts
        config = replace(self.config, shuffle_folds=False)
        report, checkpoints = cross_validate(self.labeled, config, self.model_config)
        starts = [b.bucket.start for b in self.labeled]
        assert [fold.starts for fold in report.folds] == [
            tuple(starts[0:4]), tuple(starts[4:8]), tuple(starts[8:12])]
        assert report.config["shuffle_folds"] is False
        assert {c.provenance.recipe for c in checkpoints} == {config}

    def test_fold_models_differ(self):
        _, checkpoints = cross_validate(self.labeled, self.config, self.model_config)
        a, b = checkpoints[0], checkpoints[1]
        assert not np.array_equal(a.params["w_in"].value, b.params["w_in"].value)

    def test_byte_identical_reports(self, tmp_path):
        report_a, _ = cross_validate(self.labeled, self.config, self.model_config)
        report_b, _ = cross_validate(self.labeled, self.config, self.model_config)
        write_report(report_a, tmp_path / "a.json")
        write_report(report_b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestReportIO:
    def make_report(self):
        labeled = make_labeled(n=3, s=16, f=2, length=5, seed=17)
        report, _ = cross_validate(
            labeled, TrainConfig(epochs=1, bucket_length=5, seed=5), tiny_model(),
        )
        return report

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        assert load_report(path) == report

    def test_tampered_mean_is_rejected(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        doc["mean"]["mse"] = 0.01
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="mean mse"):
            load_report(path)

    def test_missing_mean_entry_is_rejected(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        del doc["mean"]["rmse"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="malformed"):
            load_report(path)

    def test_inconsistent_fold_is_rejected(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        doc["folds"][0]["rmse"] = doc["folds"][0]["rmse"] + 0.2
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"folds\[0\]\.rmse"):
            load_report(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_report(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"dataset": "x", "model": "tgcn"}))
        with pytest.raises(ParseError, match="malformed"):
            load_report(path)

    def test_csv_layout(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fold,sample_count,mse,mae,rmse"
        assert len(lines) == len(report.folds) + 2
        mean_row = lines[-1].split(",")
        assert mean_row[0] == "mean"
        assert int(mean_row[1]) == report.total_samples
        assert float(mean_row[2]) == report.mean_mse
        assert float(mean_row[4]) == report.mean_rmse
        for i, fold in enumerate(report.folds):
            row = lines[1 + i].split(",")
            assert row[0] == str(i)
            assert float(row[2]) == fold.mse
