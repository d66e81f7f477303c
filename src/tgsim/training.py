"""Training loop, cross-validation protocol, and metrics reporting.

The model module stays purely functional; everything stateful about a run
(optimizer moments, epoch shuffles, fold assignment) lives here.  Every
source of randomness is seeded, so a (buckets, config) pair pins the
resulting report down to the byte.

The folds are independent jobs: run_folds, which serves cross_validate and
the CLI's train, runs them in the fork pool of `_pool`, one BLAS thread
per worker.  Each fold gets a worker of its own while there are at most
twice as many folds as CPUs: 3 folds on 2 CPUs then share both CPUs for
1.5 fold-times, where one worker per CPU would run them in two waves, the
third fold alone.  The results are bitwise those of a serial loop under
one BLAS thread.

Called from the top level, train and evaluate use the pool themselves on
large graphs: train runs the window chunks of a batch of at least
`_BATCH_POOL_FLOOR` windows x nodes as jobs, the data-parallel minibatch
of Goyal et al. (arXiv:1706.02677), and evaluate's `score_windows` call
splits its windows across workers from `model._POOL_FLOOR`.  Inside a
fold worker both run serially, since nested pool calls do.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import _pool
from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .data import NodeBounds, adjacency_operator, normalize_features, read_json
from .errors import ConfigError, ContractError, ParseError, TrainingError
from .model import (Checkpoint, ModelConfig, ModelParams, Provenance, forward_pass, score_windows,
                    window_chunks)

OPTIMIZER_KINDS = ("adam", "sgd")

# windows per optimizer step; with lr 0.003 no worse than one window per
# step at lr 0.001 over the seed sweep (scripts/seed_sweep.py)
BATCH_SIZE = 8

# batch windows x nodes from which train runs a batch's chunks as jobs of
# the fork pool. A batch forks fresh workers, and a fresh worker's first
# window op takes about 7,600 minor faults (30 MB) and 50-130 ms more than
# a later one at N = 1068. scripts/pool_breakeven.py, a3tgcn, one epoch over
# 16 windows, serial (two BLAS threads) -> pooled (two workers), 2-CPU VM:
# batches of 8 x 207 = 1656 took 0.20 -> 0.30 s, 8 x 678 = 5424 0.60 ->
# 0.53 s and 8 x 1068 = 8544 0.96 -> 0.84 s
_BATCH_POOL_FLOOR = 5_000


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    `bucket_length` is recorded here even though the buckets are built
    elsewhere; train() checks the two agree so a report's config echo can
    be trusted.
    """

    epochs: int = 30
    learning_rate: float = 0.003
    bucket_length: int = 10
    folds: int = 3
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if not isinstance(self.epochs, int) or isinstance(self.epochs, bool) or self.epochs < 1:
            raise ConfigError(f"epochs must be a positive integer, got {self.epochs!r}")
        if not (self.learning_rate > 0):
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate!r}")
        if not isinstance(self.bucket_length, int) or self.bucket_length < 2:
            raise ConfigError(f"bucket length must be an integer >= 2, got {self.bucket_length!r}")
        if not isinstance(self.folds, int) or self.folds < 2:
            raise ConfigError(f"need at least 2 folds, got {self.folds!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        kind = self.optimizer.lower() if isinstance(self.optimizer, str) else self.optimizer
        if kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZER_KINDS}")
        object.__setattr__(self, "optimizer", kind)


class Sgd:
    """Plain gradient descent on a flat parameter vector, in place."""

    def __init__(self, values: np.ndarray, grads: np.ndarray, learning_rate: float):
        self.values, self.grads = values, grads
        self.learning_rate = float(learning_rate)

    def step(self) -> None:
        self.values -= self.learning_rate * self.grads


class Adam:
    """Moment-corrected gradient steps with the usual constants.

    `values` and `grads` are flat vectors (a ModelParams' `values` and
    `grads`), so a step does its arithmetic once over every parameter and
    updates them with one subtraction; `steps` counts completed updates and
    drives the bias correction.
    """

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, values: np.ndarray, grads: np.ndarray, learning_rate: float):
        self.values, self.grads = values, grads
        self.learning_rate = float(learning_rate)
        self.first = np.zeros_like(values)
        self.second = np.zeros_like(values)
        self.steps = 0

    def step(self) -> None:
        self.steps += 1
        first_correction = 1.0 - self.beta1 ** self.steps
        second_correction = 1.0 - self.beta2 ** self.steps
        grad, m, v = self.grads, self.first, self.second
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad ** 2
        self.values -= self.learning_rate * (m / first_correction) / (
            np.sqrt(v / second_correction) + self.epsilon
        )


def make_optimizer(params: ModelParams, config: TrainConfig):
    kind = Sgd if config.optimizer == "sgd" else Adam
    return kind(params.values, params.grads, config.learning_rate)


def compute_metrics(preds, labels) -> tuple[float, float, float]:
    """Mean squared error, mean absolute error, and root MSE as plain floats."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.ndim != 1 or y.ndim != 1:
        raise ContractError(f"expected flat sequences, got shapes {p.shape} and {y.shape}")
    if p.shape != y.shape:
        raise ContractError(f"{p.size} predictions vs {y.size} labels")
    if p.size == 0:
        raise ContractError("cannot compute metrics over zero samples")
    err = p - y
    mse = float(np.mean(err * err))
    mae = float(np.mean(np.abs(err)))
    return mse, mae, math.sqrt(mse)


def kfold_split(buckets, folds: int, seed: int, shuffle: bool = True):
    """Partition buckets into (train, test) pairs, one per fold.

    A seeded shuffle precedes the split, then the shuffled order is cut
    into near-equal contiguous chunks (the first n mod K chunks take the
    extra element).  With shuffle=False the chunks are contiguous in the
    original order, which keeps overlapping windows out of each other's
    folds at the cost of a temporal-distribution mismatch.
    """
    buckets = list(buckets)
    n = len(buckets)
    if folds < 2:
        raise ContractError(f"need at least 2 folds, got {folds}")
    if folds > n:
        raise ContractError(f"cannot split {n} buckets into {folds} folds")
    order = np.random.default_rng(seed).permutation(n) if shuffle else np.arange(n)
    base, extra = divmod(n, folds)
    chunks = []
    at = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        chunks.append([int(j) for j in order[at:at + size]])
        at += size
    pairs = []
    for i in range(folds):
        test = [buckets[j] for j in chunks[i]]
        train = [buckets[j] for k, chunk in enumerate(chunks) if k != i for j in chunk]
        pairs.append((train, test))
    return pairs


@dataclass(frozen=True)
class FoldResult:
    """Metrics plus the raw predictions behind them for one test fold."""

    mse: float
    mae: float
    rmse: float
    sample_count: int
    predictions: tuple[float, ...]
    labels: tuple[float, ...]
    starts: tuple[int, ...]

    def __post_init__(self):
        if self.sample_count < 1:
            raise ContractError("a fold must hold at least one sample")
        lengths = {len(self.predictions), len(self.labels), len(self.starts), self.sample_count}
        if len(lengths) != 1:
            raise ContractError(f"fold arrays disagree on sample count: {sorted(lengths)}")
        if abs(self.rmse - math.sqrt(self.mse)) > 1e-12:
            raise ContractError(f"rmse {self.rmse!r} is not the square root of mse {self.mse!r}")
        if self.mae > self.rmse + 1e-12:
            raise ContractError(f"mae {self.mae!r} exceeds rmse {self.rmse!r}")


@dataclass(frozen=True)
class MetricsReport:
    """Per-fold metrics with their mean, plus enough config to rerun."""

    dataset: str
    model: str
    folds: tuple[FoldResult, ...]
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.folds:
            raise ContractError("a report needs at least one fold")
        object.__setattr__(self, "folds", tuple(self.folds))

    @property
    def mean_mse(self) -> float:
        return float(np.mean([f.mse for f in self.folds]))

    @property
    def mean_mae(self) -> float:
        return float(np.mean([f.mae for f in self.folds]))

    @property
    def mean_rmse(self) -> float:
        return float(np.mean([f.rmse for f in self.folds]))

    @property
    def total_samples(self) -> int:
        return sum(f.sample_count for f in self.folds)


def bounds_from_buckets(buckets) -> NodeBounds:
    """Per node-and-channel min and max over every snapshot in the buckets."""
    buckets = list(buckets)
    if not buckets:
        raise ContractError("cannot derive bounds from zero buckets")
    stacked = np.concatenate([b.snapshots for b in buckets], axis=0)
    return NodeBounds(mins=stacked.min(axis=0), maxs=stacked.max(axis=0))


def _check_buckets(buckets, config: TrainConfig, model_config: ModelConfig, signal=None):
    """The one signal all buckets are windows of: `signal` when given, else the first bucket's."""
    if not buckets:
        raise ContractError("need at least one bucket")
    if signal is None:
        signal = buckets[0].bucket.signal
    channels = signal.num_channels
    if channels != model_config.input_channels:
        raise ConfigError(
            f"buckets carry {channels} channels, model expects {model_config.input_channels}"
        )
    for b in buckets:
        other = b.bucket.signal
        if other is not signal:
            raise ContractError(
                f"bucket at start {b.bucket.start} is a window of another signal than "
                f"{signal.name!r} (shape ({other.num_nodes}, {other.num_channels}) against "
                f"({signal.num_nodes}, {channels})); train fits the windows of one signal"
            )
        if b.bucket.length != config.bucket_length:
            raise ContractError(
                f"bucket at start {b.bucket.start} has length {b.bucket.length}, "
                f"config says {config.bucket_length}"
            )
    return signal


def train(train_set, config: TrainConfig, model_config: ModelConfig, *, resample=None):
    """Fit a model on labeled buckets; returns (checkpoint, loss history).

    The parameters start from ModelParams.initialize(model_config,
    config.seed).  Buckets are visited in a fresh seeded shuffle each epoch,
    BATCH_SIZE at a time (the last batch may be smaller), with one optimizer
    step per batch on the batch's mean squared error against the bucket
    labels.  A batch runs as one window op, or in chunks of windows where
    its rows do not fit the model's float budget (`window_chunks`): one
    chunk at N = 20, one window a chunk from N = 207.  Each chunk is a job
    that zeroes the gradient, runs its forward and backward and returns
    the gradient vector and its windows' squared errors; the batch's
    gradient is the sum of the chunks' vectors in chunk order, so at
    N = 20 a batch steps on exactly its one window op's gradient.  The
    jobs run on the fork pool (`_pool`) for a batch of at least
    `_BATCH_POOL_FLOOR` windows x nodes and in this process below it, by
    the same code, so the bytes do not depend on how many workers ran; the
    loss check and the optimizer step run here once every chunk has
    returned.  The min and max of the training windows themselves
    normalize the features and are stored in the checkpoint so later
    scoring normalizes identically; the signal's snapshots are normalized
    once per call, a window's candidate once per epoch.
    `resample`, when given, is called with the epoch index before each
    epoch and must return the bucket list to use for that epoch (fresh
    corruption draws, typically).  All buckets are windows of one signal.
    The loss history holds one mean per epoch, over every window.
    """
    train_set = list(train_set)
    signal = _check_buckets(train_set, config, model_config)
    bounds = bounds_from_buckets(train_set)
    a_hat = adjacency_operator(signal)
    features = normalize_features(signal.features, bounds)
    history_length = config.bucket_length - 1
    params = ModelParams.initialize(model_config, config.seed)
    optimizer = make_optimizer(params, config)

    history = []
    for epoch in range(config.epochs):
        epoch_set = train_set
        if resample is not None:
            epoch_set = list(resample(epoch))
            _check_buckets(epoch_set, config, model_config, signal)
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(len(epoch_set))
        candidates = normalize_features(np.stack([b.candidate for b in epoch_set]), bounds)
        epoch_losses = []
        for at in range(0, len(order), BATCH_SIZE):
            batch = order[at:at + BATCH_SIZE]
            starts = [epoch_set[i].bucket.start for i in batch]
            windows = np.stack([np.concatenate((features[start:start + history_length],
                                                candidates[i, None]))
                                for start, i in zip(starts, batch)])
            labels = np.array([[epoch_set[i].label] for i in batch])
            # each window's squared error weighs 1 / B, whichever chunk holds it
            weights = np.full((1, len(batch)), 1.0 / len(batch))

            def chunk(part):
                params.grads.fill(0.0)
                with Tape():
                    out = forward_pass(windows[part], a_hat, params, model_config)
                    squared = ad.square(ad.subtract(out, Tensor(labels[part])))
                    backward(ad.matmul(Tensor(weights[:, part]), squared))
                return params.grads.copy(), squared.value[:, 0]

            jobs = [partial(chunk, part) for part in window_chunks(
                len(batch), config.bucket_length, signal.num_nodes, model_config.embed_dim)]
            if len(batch) * signal.num_nodes < _BATCH_POOL_FLOOR:
                parts = [job() for job in jobs]
            else:
                parts = _pool.run_jobs(jobs)
            params.grads[:] = parts[0][0]
            for grads, _ in parts[1:]:
                params.grads += grads
            losses = np.concatenate([part_losses for _, part_losses in parts])
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                first = int(bad[0])
                raise TrainingError(
                    f"loss became non-finite ({losses[first]}) at epoch {epoch}, "
                    f"bucket {batch[first]} (window start {starts[first]})"
                )
            optimizer.step()
            epoch_losses.append(losses)
        history.append(float(np.mean(np.concatenate(epoch_losses))))
    params.drop_gradients()  # a checkpoint needs neither gradients nor backward buffers

    checkpoint = Checkpoint(
        config=model_config,
        params=params,
        feature_bounds=bounds,
        provenance=Provenance(
            dataset=signal.name,
            seed=config.seed,
            epochs=config.epochs,
            final_loss=history[-1],
        ),
    )
    return checkpoint, history


def evaluate(checkpoint: Checkpoint, test_set) -> MetricsReport:
    """Score every bucket with the checkpoint: a report of one fold.

    All buckets must be windows of one length over one signal; they are
    scored in one `score_windows` call, and the fold keeps their order.
    The report's config is empty: callers that write a report build its
    echo with config_echo.
    """
    test_set = list(test_set)
    if not test_set:
        raise ContractError("need at least one bucket")
    first = test_set[0].bucket
    for i, b in enumerate(test_set):
        if b.bucket.signal is not first.signal:
            raise ContractError(
                f"bucket {i} (start {b.bucket.start}) is a window of another signal than "
                f"bucket 0; evaluate scores the windows of one signal"
            )
        if b.bucket.length != first.length:
            raise ContractError(
                f"bucket {i} (start {b.bucket.start}) has length {b.bucket.length}, "
                f"bucket 0 has length {first.length}"
            )
    signal = first.signal
    preds = score_windows(signal, checkpoint, [b.bucket.start for b in test_set], first.length,
                          candidates=np.stack([b.candidate for b in test_set])).tolist()
    labels = [b.label for b in test_set]
    fold = fold_result(preds, labels, [b.bucket.start for b in test_set])
    return MetricsReport(dataset=signal.name, model=checkpoint.config.cell_kind, folds=(fold,))


def fold_result(preds, labels, starts) -> FoldResult:
    mse, mae, rmse = compute_metrics(preds, labels)
    return FoldResult(
        mse=mse, mae=mae, rmse=rmse, sample_count=len(list(preds)),
        predictions=tuple(float(p) for p in preds),
        labels=tuple(float(y) for y in labels),
        starts=tuple(int(s) for s in starts),
    )


def fold_seed(seed: int, index: int) -> int:
    # distinct but reproducible stream per fold
    return int(np.random.SeedSequence([seed, 2, index]).generate_state(1)[0])


def run_folds(pairs, config: TrainConfig, model_config: ModelConfig, *,
              resample_for=None, score: bool = True) -> list:
    """Train, and with `score` evaluate, every fold of kfold_split `pairs`.

    Returns one (checkpoint, loss history, FoldResult or None) per fold.
    Fold i trains from fold_seed(config.seed, i); `resample_for(i,
    train_buckets)`, when given, returns that fold's per-epoch `resample`
    for train.  The folds are independent jobs of the fork pool
    (`_pool.run_jobs`), and a forked fold starts from the parent's state,
    not from the state an earlier fold left: `resample_for` must derive
    everything a fold draws from the fold index, as the CLI's resampler
    seeds from (seed, fold, epoch).  Then the results are bitwise those of
    a serial loop run under one BLAS thread.
    """
    def fold(index):
        train_buckets, test_buckets = pairs[index]
        resample = None if resample_for is None else resample_for(index, train_buckets)
        fold_config = replace(config, seed=fold_seed(config.seed, index))
        checkpoint, history = train(train_buckets, fold_config, model_config,
                                    resample=resample)
        result = evaluate(checkpoint, test_buckets).folds[0] if score else None
        return checkpoint, history, result

    # built here, the one A_hat every forked fold inherits
    adjacency_operator(pairs[0][0][0].bucket.signal)
    return _pool.run_jobs(partial(fold, index) for index in range(len(pairs)))


def cross_validate(labeled, config: TrainConfig, model_config: ModelConfig):
    """K-fold protocol on a shuffled split: train on K-1 chunks, test on the held-out one.

    Returns (report, checkpoints) with one checkpoint per fold.  Each fold
    trains from its own derived seed so fold models are independent draws;
    the folds run through run_folds, so in parallel where the fork pool can.
    """
    labeled = list(labeled)
    pairs = kfold_split(labeled, config.folds, config.seed)
    runs = run_folds(pairs, config, model_config)
    report = MetricsReport(
        dataset=labeled[0].bucket.signal.name, model=model_config.cell_kind,
        folds=tuple(result for _, _, result in runs), config=config_echo(config, model_config),
    )
    return report, [checkpoint for checkpoint, _, _ in runs]


def config_echo(config: TrainConfig, model_config: ModelConfig) -> dict:
    """The report's config block: the train config plus the model's shape."""
    echo = dict(asdict(config))
    echo.update(
        cell_kind=model_config.cell_kind,
        input_channels=model_config.input_channels,
        embed_dim=model_config.embed_dim,
        attention_dim=model_config.attention_dim,
    )
    return echo


def write_report(report: MetricsReport, path) -> None:
    """Stable JSON form: sorted keys, two-space indent, trailing newline."""
    doc = {
        "dataset": report.dataset,
        "model": report.model,
        "config": report.config,
        "folds": [
            {
                "mse": f.mse,
                "mae": f.mae,
                "rmse": f.rmse,
                "sample_count": f.sample_count,
                "predictions": list(f.predictions),
                "labels": list(f.labels),
                "starts": list(f.starts),
            }
            for f in report.folds
        ],
        "mean": {
            "mse": report.mean_mse,
            "mae": report.mean_mae,
            "rmse": report.mean_rmse,
            "sample_count": report.total_samples,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> MetricsReport:
    doc = read_json(path)
    try:
        folds = tuple(
            FoldResult(
                mse=float(f["mse"]),
                mae=float(f["mae"]),
                rmse=float(f["rmse"]),
                sample_count=int(f["sample_count"]),
                predictions=tuple(float(p) for p in f["predictions"]),
                labels=tuple(float(y) for y in f["labels"]),
                starts=tuple(int(s) for s in f["starts"]),
            )
            for f in doc["folds"]
        )
        report = MetricsReport(
            dataset=doc["dataset"], model=doc["model"], folds=folds,
            config=dict(doc["config"]),
        )
        stored_mean = {name: float(doc["mean"][name]) for name in ("mse", "mae", "rmse")}
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed report ({exc})") from None
    for name, value in (("mse", report.mean_mse), ("mae", report.mean_mae),
                        ("rmse", report.mean_rmse)):
        if abs(stored_mean[name] - value) > 1e-12:
            raise ParseError(
                f"{path}: stored mean {name} {stored_mean[name]!r} does not match folds"
            )
    return report


def write_report_csv(report: MetricsReport, path) -> None:
    """One row per fold plus a mean row, ready for bar charts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fold", "sample_count", "mse", "mae", "rmse"])
        for i, f in enumerate(report.folds):
            writer.writerow([i, f.sample_count, f.mse, f.mae, f.rmse])
        writer.writerow(
            ["mean", report.total_samples, report.mean_mse, report.mean_mae, report.mean_rmse]
        )
