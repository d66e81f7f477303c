"""Training loop, cross-validation protocol, and metrics reporting.

The model module stays purely functional; everything stateful about a run
(optimizer moments, epoch shuffles, fold assignment) lives here.  There is
one optimizer, Adam (Kingma & Ba, arXiv:1412.6980), stepped at
TrainConfig's learning rate once per batch of BATCH_SIZE windows.  Every
source of randomness is seeded, so a (buckets, config) pair pins the
resulting report down to the byte.  A fold's metrics are never given:
`FoldResult` derives them from its predictions and labels, and
`load_report` refuses a stored figure that differs.

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
from numbers import Integral, Real

import numpy as np

from . import _pool
from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .data import (NodeBounds, adjacency_operator, json_floats, node_bounds, normalize_features,
                   read_json, write_json)
from .errors import ConfigError, ContractError, ParseError, TrainingError
from .model import (Checkpoint, ModelConfig, ModelParams, Provenance, TrainConfig, forward_pass,
                    score_windows, window_chunks)
from .noise import NoiseSpec, inject_noise

# windows per optimizer step; with lr 0.003 no worse than one window per
# step at lr 0.001 over the seed sweep (scripts/seed_sweep.py)
BATCH_SIZE = 8

# batch windows x nodes from which train runs a batch's chunks as jobs of
# the fork pool. A batch forks fresh workers, and a fresh worker's first
# window op takes about 7,600 minor faults (30 MB) and 10-30 ms more than
# a later one at N = 1068. scripts/pool_breakeven.py --repeats 5, a3tgcn,
# one epoch over 16 windows, serial (two BLAS threads) -> pooled (two
# workers), 2-CPU VM: batches of 8 x 207 = 1656 took 0.139 -> 0.106 s,
# 8 x 678 = 5424 0.409 -> 0.266 s and 8 x 1068 = 8544 0.896 -> 0.492 s.
# Pooling pays at N = 207 too; the floor stays above its batches because
# moving it changes which path, and so which bytes, they take (ROADMAP
# item 8).
_BATCH_POOL_FLOOR = 5_000


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
    extra element).  With shuffle=False the chunks are contiguous blocks of
    the original order, at the cost of a temporal-distribution mismatch.
    That does not keep overlapping windows apart: with stride-1 windows of
    L snapshots, the L - 1 windows on each side of a block boundary still
    share snapshots with the other fold.
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
    """One test fold: its predictions, labels and window starts, and their metrics.

    Predictions and labels are real numbers, starts integers, none a bool.
    `mse`, `mae`, `rmse` (`compute_metrics`) and `sample_count` are derived
    from them, never given, so they cannot disagree with the samples.
    """

    predictions: tuple[float, ...]
    labels: tuple[float, ...]
    starts: tuple[int, ...]
    mse: float = field(init=False)
    mae: float = field(init=False)
    rmse: float = field(init=False)
    sample_count: int = field(init=False)

    def __post_init__(self):
        samples = {name: tuple(getattr(self, name)) for name in ("predictions", "labels", "starts")}
        for name, values in samples.items():
            kind = Integral if name == "starts" else Real
            wrong = [v for v in values if isinstance(v, bool) or not isinstance(v, kind)]
            if wrong:
                raise ContractError(f"fold {name}: {wrong[0]!r} is a bool or not {kind.__name__}")
            samples[name] = tuple(map(int if kind is Integral else float, values))
        lengths = set(map(len, samples.values()))
        if len(lengths) != 1:
            raise ContractError(f"fold arrays disagree on sample count: {sorted(lengths)}")
        mse, mae, rmse = compute_metrics(samples["predictions"], samples["labels"])
        derived = dict(samples, mse=mse, mae=mae, rmse=rmse, sample_count=lengths.pop())
        for name, value in derived.items():
            object.__setattr__(self, name, value)


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
    """Per node-and-channel min and max over every snapshot of `buckets`, windows of one signal."""
    buckets = list(buckets)
    if not buckets:
        raise ContractError("cannot derive bounds from zero buckets")
    held = {t for b in buckets for t in range(b.bucket.start, b.bucket.start + b.bucket.length - 1)}
    history = buckets[0].bucket.signal.features[sorted(held)]
    candidates = np.stack([b.candidate for b in buckets])
    return NodeBounds(mins=np.minimum(history.min(axis=0), candidates.min(axis=0)),
                      maxs=np.maximum(history.max(axis=0), candidates.max(axis=0)))


def _check_buckets(buckets, length: int):
    """The one signal all buckets are windows of, each `length` snapshots long.

    A fault names the bucket's index in `buckets` and its start.
    """
    if not buckets:
        raise ContractError("need at least one bucket")
    signal = buckets[0].bucket.signal
    for i, b in enumerate(buckets):
        other = b.bucket.signal
        if other is not signal:
            raise ContractError(
                f"bucket {i} (start {b.bucket.start}) is a window of another signal than "
                f"{signal.name!r} (shape ({other.num_nodes}, {other.num_channels}) against "
                f"({signal.num_nodes}, {signal.num_channels})); the buckets must be windows "
                f"of one signal"
            )
        if b.bucket.length != length:
            raise ContractError(
                f"bucket {i} (start {b.bucket.start}) has length {b.bucket.length}, "
                f"expected {length}"
            )
    return signal


def train(train_set, config: TrainConfig, model_config: ModelConfig):
    """Fit a model on labeled buckets; returns (checkpoint, loss history).

    The parameters start from ModelParams.initialize(model_config,
    config.seed).  Buckets are visited in a fresh seeded shuffle each epoch,
    BATCH_SIZE at a time (the last batch may be smaller), with one Adam
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
    loss check and the Adam step run here once every chunk has
    returned.  The min and max of the training windows themselves
    normalize the features and are stored in the checkpoint so later
    scoring normalizes identically; the signal's snapshots are normalized
    once per call, a window's candidate once per epoch.  With
    `config.redraw_probability` set, epoch e trains on the set's clean
    windows corrupted afresh (`inject_noise` within the signal's node
    bounds, seeded from (config.seed, 4, e)); the bounds stay the given
    set's.  All buckets are windows of one signal.  The loss history holds
    one mean per epoch, over every window.
    """
    train_set = list(train_set)
    signal = _check_buckets(train_set, config.bucket_length)
    if signal.num_channels != model_config.input_channels:
        raise ConfigError(f"buckets carry {signal.num_channels} channels, "
                          f"model expects {model_config.input_channels}")
    bounds = bounds_from_buckets(train_set)
    a_hat = adjacency_operator(signal)
    features = normalize_features(signal.features, bounds)
    history_length = config.bucket_length - 1
    params = ModelParams.initialize(model_config, config.seed)
    optimizer = Adam(params.values, params.grads, config.learning_rate)

    if config.redraw_probability is not None:
        clean, signal_bounds = [b.bucket for b in train_set], node_bounds(signal)

    history = []
    for epoch in range(config.epochs):
        epoch_set = train_set
        if config.redraw_probability is not None:
            draw = int(np.random.SeedSequence([config.seed, 4, epoch]).generate_state(1)[0])
            epoch_set = inject_noise(clean, signal_bounds,
                                     NoiseSpec(config.redraw_probability, draw))
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
                    out = forward_pass(windows[part], a_hat, params)
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

    provenance = Provenance(dataset=signal.name, recipe=config, final_loss=history[-1])
    return Checkpoint(params, bounds, provenance), history


def evaluate(checkpoint: Checkpoint, test_set) -> MetricsReport:
    """Score every bucket with the checkpoint: a report of one fold.

    All buckets must be windows of one signal, of the length the checkpoint
    was trained on; one `score_windows` call scores them, in their order.
    The report's config is empty: callers that write a report build its
    echo with config_echo.
    """
    test_set = list(test_set)
    signal = _check_buckets(test_set, checkpoint.provenance.recipe.bucket_length)
    preds = score_windows(signal, checkpoint, [b.bucket.start for b in test_set],
                          candidates=np.stack([b.candidate for b in test_set])).tolist()
    fold = FoldResult(preds, [b.label for b in test_set], [b.bucket.start for b in test_set])
    return MetricsReport(dataset=signal.name, model=checkpoint.config.cell_kind, folds=(fold,))


def fold_seed(seed: int, index: int) -> int:
    # distinct but reproducible stream per fold
    return int(np.random.SeedSequence([seed, 2, index]).generate_state(1)[0])


def run_folds(labeled, config: TrainConfig, model_config: ModelConfig, *,
              score: bool = True) -> list:
    """Train, and with `score` evaluate, every fold of `labeled` under `config`'s split.

    The folds are `kfold_split(labeled, config.folds, config.seed,
    shuffle=config.shuffle_folds)`.  Returns one (checkpoint, loss history,
    FoldResult or None) per fold.  Fold i trains from fold_seed(config.seed,
    i), which seeds everything it draws, and its checkpoint's provenance
    records `config` and i, from which CLI `eval` re-derives its test
    windows.  The folds are independent jobs of the fork pool
    (`_pool.run_jobs`); the results are bitwise those of a serial loop run
    under one BLAS thread.
    """
    pairs = kfold_split(labeled, config.folds, config.seed, shuffle=config.shuffle_folds)

    def fold(index):
        train_buckets, test_buckets = pairs[index]
        fold_config = replace(config, seed=fold_seed(config.seed, index))
        checkpoint, history = train(train_buckets, fold_config, model_config)
        checkpoint = replace(checkpoint, provenance=replace(
            checkpoint.provenance, recipe=config, fold=index))
        result = evaluate(checkpoint, test_buckets).folds[0] if score else None
        return checkpoint, history, result

    # built here, the one A_hat every forked fold inherits
    adjacency_operator(pairs[0][0][0].bucket.signal)
    return _pool.run_jobs(partial(fold, index) for index in range(len(pairs)))


def cross_validate(labeled, config: TrainConfig, model_config: ModelConfig):
    """K-fold protocol: train on K-1 chunks, test on the held-out one (`run_folds`).

    Returns (report, checkpoints) with one checkpoint per fold.  Each fold
    trains from its own derived seed so fold models are independent draws;
    the folds run in parallel where the fork pool can.
    """
    runs = run_folds(labeled, config, model_config)
    report = MetricsReport(
        dataset=runs[0][0].provenance.dataset, model=model_config.cell_kind,
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
    write_json(doc, path)


def _json_int(value, where: str) -> int:
    if type(value) is not int:
        raise ContractError(f"{where}: expected an integer, got {json.dumps(value)}")
    return value


def load_report(path) -> MetricsReport:
    """The report `write_report` wrote to `path`; malformed content is a `ParseError`.

    Metrics, predictions and labels go through `json_floats`; sample counts
    and starts must be JSON integers.  `FoldResult` derives each fold's
    metrics and sample count from its predictions and labels, and a stored
    one more than 1e-12 from its derived value is refused, named as
    `folds[0].mse`; so is a stored mean that does not match the folds.
    """
    doc = read_json(path)
    try:
        folds = []
        for i, f in enumerate(doc["folds"]):
            where = f"folds[{i}]"
            stored = {name: float(json_floats(f[name], f"{where}.{name}"))
                      for name in ("mse", "mae", "rmse")}
            stored["sample_count"] = _json_int(f["sample_count"], f"{where}.sample_count")
            # FoldResult refuses a nested array's rows; a 0-d array is a TypeError
            folds.append(FoldResult(
                json_floats(f["predictions"], f"{where}.predictions"),
                json_floats(f["labels"], f"{where}.labels"),
                [_json_int(s, f"{where}.starts[{j}]") for j, s in enumerate(f["starts"])]))
            for name, value in stored.items():
                if abs(value - getattr(folds[-1], name)) > 1e-12:
                    raise ParseError(f"{path}: stored {where}.{name} {value!r} does not match "
                                     f"its predictions' {getattr(folds[-1], name)!r}")
        report = MetricsReport(dataset=doc["dataset"], model=doc["model"], folds=folds,
                               config=dict(doc["config"]))
        for name in ("mse", "mae", "rmse"):
            value = float(json_floats(doc["mean"][name], f"mean.{name}"))
            if abs(value - getattr(report, f"mean_{name}")) > 1e-12:
                raise ParseError(f"{path}: stored mean {name} {value!r} does not match folds")
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed report ({exc})") from None
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
