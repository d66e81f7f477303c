"""The benchmark's three workloads: set-up, one timed round, and output checks.

Each workload is a closed loop with one caller: a round calls into `tgsim`
and returns only when the work is done. `setup` builds the inputs from the
run's seed, `run_round` does the timed work once, and `check` compares the
outputs of a round with values computed here, apart from `tgsim`.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from inputs import (
    BUCKET_LENGTH,
    chickenpox_corpus,
    derived_seed,
    metrala_corpus,
    wikimath_corpus,
    write_metrala_raw,
)
from reference import TOLERANCE, ReferenceModel, renormalized_adjacency

# relative tolerance for metrics the benchmark recomputes from predictions
METRIC_RTOL = 1e-12


@dataclass
class Round:
    """What one timed round did and produced."""

    wall_s: float
    attempted: int
    failed: int = 0
    train_windows: int = 0
    train_s: float = 0.0
    score_windows: int = 0
    score_s: float = 0.0
    outputs: object = None
    digest: str = ""
    notes: dict = field(default_factory=dict)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _signal(corpus):
    from tgsim.data import TemporalGraphSignal

    return TemporalGraphSignal(corpus.name, corpus.num_nodes, corpus.edges, corpus.weights,
                               corpus.features, corpus.frequency)


def _labeled_buckets(signal, seed: int):
    """Stride-1 windows with p = 0.5 candidate corruption, made by the program."""
    import tgsim.data
    import tgsim.noise

    spec = tgsim.noise.NoiseSpec(corrupt_probability=0.5, seed=derived_seed(seed, 11))
    buckets = tgsim.noise.bucketize(signal, BUCKET_LENGTH)
    return tgsim.noise.inject_noise(buckets, tgsim.data.node_bounds(signal), spec)


def label_failures(clean: np.ndarray, records, where: str) -> list[str]:
    """Each (start, candidate, label) must carry label 1 - k/N, where k counts
    the candidate rows that differ from the clean signal."""
    failures = []
    n = clean.shape[1]
    for start, candidate, label in records:
        truth = clean[start + BUCKET_LENGTH - 1]
        changed = int(np.any(np.asarray(candidate) != truth, axis=1).sum())
        if label != (n - changed) / n:
            failures.append(f"{where}: window {start} has label {label!r}, "
                            f"{changed} of {n} candidate rows differ")
    return failures


def metric_failures(where: str, predictions, labels, mse, mae, rmse) -> list[str]:
    """Stored MSE, MAE and RMSE must match values recomputed from the predictions."""
    err = np.asarray(predictions, dtype=np.float64) - np.asarray(labels, dtype=np.float64)
    want = {"mse": float(np.mean(err * err)), "mae": float(np.mean(np.abs(err)))}
    want["rmse"] = math.sqrt(want["mse"])
    got = {"mse": mse, "mae": mae, "rmse": rmse}
    return [f"{where}: stored {k} {got[k]!r}, recomputed {want[k]!r}"
            for k in want if not math.isclose(got[k], want[k], rel_tol=METRIC_RTOL, abs_tol=0.0)]


def reference_failures(where: str, program, reference) -> list[str]:
    program = np.asarray(program, dtype=np.float64)
    if program.shape != reference.shape:
        return [f"{where}: {program.shape} program scores vs {reference.shape} reference scores"]
    worst = float(np.max(np.abs(program - reference))) if program.size else 0.0
    if not worst <= TOLERANCE:
        return [f"{where}: scores differ from the reference forward pass by {worst:.3g} "
                f"(tolerance {TOLERANCE:g})"]
    return []


def inside_unit_interval(values) -> bool:
    return all(0.0 < v < 1.0 for v in values)


def _model_config():
    from tgsim.model import ModelConfig

    return ModelConfig("a3tgcn", input_channels=1)


class CrossValidateChickenpox:
    """The paper's headline experiment: 3-fold A3T-GCN cross-validation, N = 20."""

    name = "cv-chickenpox"
    setup_repeats = 7
    folds = 3
    epochs = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self):
        corpus = chickenpox_corpus(self.seed)
        labeled = _labeled_buckets(_signal(corpus), self.seed)
        return SimpleNamespace(corpus=corpus, labeled=labeled)

    def windows_per_round(self, inputs) -> int:
        # every window is trained on in folds - 1 folds and scored in one
        n = len(inputs.labeled)
        return n * (self.folds - 1) * self.epochs + n

    attempts_per_round = windows_per_round

    def run_round(self, inputs, tracer=None) -> Round:
        import tgsim.training

        config = tgsim.training.TrainConfig(
            epochs=self.epochs, learning_rate=0.01, bucket_length=BUCKET_LENGTH,
            folds=self.folds, seed=derived_seed(self.seed, 12))
        n = len(inputs.labeled)
        trained = n * (self.folds - 1) * self.epochs
        start = time.perf_counter()
        report, checkpoints = tgsim.training.cross_validate(inputs.labeled, config, _model_config())
        wall = time.perf_counter() - start
        payload = [[f.predictions, f.labels, f.starts, f.mse, f.mae, f.rmse] for f in report.folds]
        return Round(wall_s=wall, attempted=trained + n, train_windows=trained, train_s=wall,
                     score_windows=n, score_s=wall, outputs=(report, checkpoints),
                     digest=_digest(payload))

    def check(self, inputs, outputs) -> tuple[list[str], dict]:
        report, checkpoints = outputs
        clean = inputs.corpus.features
        by_start = {b.bucket.start: b for b in inputs.labeled}
        failures = label_failures(
            clean, ((b.bucket.start, b.candidate, b.label) for b in inputs.labeled), "buckets")

        held_out = [s for f in report.folds for s in f.starts]
        if sorted(held_out) != sorted(by_start):
            failures.append(f"held-out folds cover {len(set(held_out))} distinct windows "
                            f"in {len(held_out)} slots, expected each of {len(by_start)} once")
        a_hat = renormalized_adjacency(inputs.corpus.num_nodes, inputs.corpus.edges)
        fold_mse, mean_label_mse = [], []
        for i, (fold, checkpoint) in enumerate(zip(report.folds, checkpoints)):
            where = f"fold {i}"
            failures += metric_failures(where, fold.predictions, fold.labels,
                                        fold.mse, fold.mae, fold.rmse)
            labels = [by_start[s].label for s in fold.starts]
            if list(fold.labels) != labels:
                failures.append(f"{where}: report labels differ from the bucket labels")
            candidates = np.stack([by_start[s].candidate for s in fold.starts])
            expected = ReferenceModel.from_checkpoint(checkpoint).scores(
                clean, a_hat, fold.starts, BUCKET_LENGTH, candidates)
            failures += reference_failures(where, fold.predictions, expected)
            test = set(fold.starts)
            mean_label = float(np.mean([b.label for s, b in by_start.items() if s not in test]))
            fold_mse.append(fold.mse)
            mean_label_mse.append(float(np.mean((np.asarray(labels) - mean_label) ** 2)))
        quality = {
            "fold_mse": fold_mse,
            "mean_label_mse": mean_label_mse,
            "prediction_std": [float(np.std(f.predictions)) for f in report.folds],
            "beats_mean_label": float(np.mean(fold_mse)) < float(np.mean(mean_label_mse)),
            "predictions_inside_0_1": all(inside_unit_interval(f.predictions)
                                          for f in report.folds),
        }
        return failures, quality


class TrainWikimath:
    """`train` then `evaluate` at N = 1068, where dense propagation dominates."""

    name = "train-wikimath"
    setup_repeats = 7
    train_windows = 8
    score_windows = 24

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self):
        snapshots = BUCKET_LENGTH - 1 + self.train_windows + self.score_windows
        corpus = wikimath_corpus(self.seed, snapshots)
        labeled = _labeled_buckets(_signal(corpus), self.seed)
        return SimpleNamespace(corpus=corpus, train=labeled[:self.train_windows],
                               test=labeled[self.train_windows:])

    def windows_per_round(self, inputs) -> int:
        return len(inputs.train) + len(inputs.test)

    attempts_per_round = windows_per_round

    def run_round(self, inputs, tracer=None) -> Round:
        import tgsim.training

        config = tgsim.training.TrainConfig(
            epochs=1, learning_rate=0.01, bucket_length=BUCKET_LENGTH,
            seed=derived_seed(self.seed, 12))
        start = time.perf_counter()
        checkpoint, history = tgsim.training.train(inputs.train, config, _model_config())
        trained = time.perf_counter()
        report = tgsim.training.evaluate(checkpoint, inputs.test)
        done = time.perf_counter()
        fold = report.folds[0]
        payload = [history, fold.predictions, fold.labels, fold.starts]
        return Round(wall_s=done - start, attempted=len(inputs.train) + len(inputs.test),
                     train_windows=len(inputs.train), train_s=trained - start,
                     score_windows=len(inputs.test), score_s=done - trained,
                     outputs=(checkpoint, history, report), digest=_digest(payload))

    def check(self, inputs, outputs) -> tuple[list[str], dict]:
        checkpoint, history, report = outputs
        clean = inputs.corpus.features
        failures = label_failures(
            clean, ((b.bucket.start, b.candidate, b.label) for b in inputs.train + inputs.test),
            "buckets")
        if not history or not all(math.isfinite(v) for v in history):
            failures.append(f"loss history {history!r} is not finite")
        fold = report.folds[0]
        starts = [b.bucket.start for b in inputs.test]
        if list(fold.starts) != starts:
            failures.append("evaluate reports other windows than it was given")
        failures += metric_failures("evaluate", fold.predictions, fold.labels,
                                    fold.mse, fold.mae, fold.rmse)
        a_hat = renormalized_adjacency(inputs.corpus.num_nodes, inputs.corpus.edges,
                                       inputs.corpus.weights)
        expected = ReferenceModel.from_checkpoint(checkpoint).scores(
            clean, a_hat, starts, BUCKET_LENGTH, np.stack([b.candidate for b in inputs.test]))
        failures += reference_failures("evaluate", fold.predictions, expected)
        return failures, {"loss_history": history, "mse": fold.mse}


CLI_STRIDE = 32
CLI_FOLDS = 2
# the reference rescoring of the detect stream covers every 7th window; 7 is
# coprime with any power-of-two block size a batched scorer might use
REFERENCE_STRIDE = 7


class CliMetrala:
    """The user pipeline through `tgsim.cli.main`, on a metrala-shaped stream."""

    name = "cli-metrala"
    setup_repeats = 3

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.raw = work / "inputs" / "metrala_raw.json"
        self.out = work / "runs" / "cli-metrala"

    def setup(self):
        corpus, dropouts = metrala_corpus(self.seed)
        self.raw.parent.mkdir(parents=True, exist_ok=True)
        write_metrala_raw(corpus, self.raw)
        return SimpleNamespace(corpus=corpus, dropouts=dropouts)

    def _commands(self) -> list[tuple[str, list[str]]]:
        out = self.out
        canonical = str(out / "convert" / "metrala.json")
        buckets = str(out / "prepare" / "buckets.json")
        seed = str(derived_seed(self.seed, 13))
        length = ["-L", str(BUCKET_LENGTH)]
        return [
            ("convert", ["--input", str(self.raw), "--kind", "metrala"]),
            ("prepare", ["--dataset", canonical, *length, "--stride", str(CLI_STRIDE),
                         "-p", "0.5", "--seed", seed]),
            ("train", ["--dataset", canonical, "--buckets", buckets, *length,
                       "--epochs", "1", "--folds", str(CLI_FOLDS), "--seed", seed]),
            ("eval", ["--run-dir", str(out / "train")]),
            ("baseline", ["--dataset", canonical, "--buckets", buckets, "--seed", seed]),
            ("detect", ["--dataset", canonical, "--checkpoint",
                        str(out / "train" / "checkpoint_fold_0.json"), *length,
                        "--mode", "zscore"]),
            ("report", ["--inputs", str(out / "train" / "eval" / "metrics.json"),
                        str(out / "baseline" / "baseline_random.json"),
                        str(out / "baseline" / "baseline_tsr.json")]),
        ]

    def attempts_per_round(self, inputs) -> int:
        return len(self._commands())

    def windows_per_round(self, inputs) -> int:
        s = inputs.corpus.features.shape[0]
        prepared = len(range(0, s - BUCKET_LENGTH + 1, CLI_STRIDE))
        # train (each window in one fold's training set), eval, detect
        return prepared * (CLI_FOLDS - 1) + prepared + (s - BUCKET_LENGTH + 1)

    def run_round(self, inputs, tracer=None) -> Round:
        import tgsim.cli

        shutil.rmtree(self.out, ignore_errors=True)
        commands = self._commands()
        results = {}
        failed = 0
        for command, args in commands:
            # each command would start in a fresh process; keep the previous
            # command's garbage out of its memory and time
            gc.collect()
            argv = [command, *args]
            if command != "eval":  # eval writes under the train run
                argv += ["--out-dir", str(self.out / command)]
            stdout, stderr = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
            began = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = tgsim.cli.main(argv)
            except Exception:  # an escape from main is a failed command, not a crash
                code = None
                stderr.write(traceback.format_exc())
            results[command] = (code, stdout.getvalue(), stderr.getvalue(),
                                time.perf_counter() - began)
            if code != 0:
                failed = len(commands) - len(results) + 1
                break
        wall = sum(r[3] for r in results.values())
        s = inputs.corpus.features.shape[0]
        prepared = len(range(0, s - BUCKET_LENGTH + 1, CLI_STRIDE))
        files = sorted(p for p in self.out.rglob("*") if p.is_file())
        payload = [[str(p.relative_to(self.out)), hashlib.sha256(p.read_bytes()).hexdigest()]
                   for p in files]
        train = results.get("train", (None, "", "", 0.0))
        detect = results.get("detect", (None, "", "", 0.0))
        return Round(
            wall_s=wall, attempted=len(commands), failed=failed,
            train_windows=prepared * (CLI_FOLDS - 1), train_s=train[3],
            score_windows=s - BUCKET_LENGTH + 1, score_s=detect[3],
            outputs=results, digest=_digest(payload) if not failed else "",
            notes={"command_s": {c: r[3] for c, r in results.items()}})

    def check(self, inputs, outputs) -> tuple[list[str], dict]:
        failures = []
        for command, (code, _, err, _) in outputs.items():
            if code != 0 or err:
                failures.append(f"{command}: exit {code}, stderr {err.strip()[:300]!r}")
        if failures:
            return failures, {}
        corpus, out = inputs.corpus, self.out
        clean = corpus.features
        s, n = clean.shape[0], clean.shape[1]

        doc = json.loads((out / "convert" / "metrala.json").read_text(encoding="utf-8"))
        if doc["edges"] != [list(e) for e in corpus.edges]:
            failures.append("canonical file: edges differ from the generated ones")
        if doc["weights"] != corpus.weights.tolist():
            failures.append("canonical file: weights differ from the generated ones")
        if doc["features"] != clean.tolist():
            failures.append("canonical file: features differ from the generated ones")
        if (doc["name"], doc["num_nodes"]) != ("metrala", n):
            failures.append(f"canonical file: name/num_nodes {doc['name']!r}/{doc['num_nodes']!r}")

        prepared = json.loads((out / "prepare" / "buckets.json").read_text(encoding="utf-8"))
        records = prepared["buckets"]
        starts = [r["start"] for r in records]
        if starts != list(range(0, s - BUCKET_LENGTH + 1, CLI_STRIDE)):
            failures.append(f"prepare: {len(starts)} windows at unexpected starts")
        failures += label_failures(
            clean, ((r["start"], r["candidate"], r["label"]) for r in records), "prepare")
        label_at = {r["start"]: r["label"] for r in records}

        reports = {
            "metrics": out / "train" / "eval" / "metrics.json",
            "random": out / "baseline" / "baseline_random.json",
            "tsr": out / "baseline" / "baseline_tsr.json",
        }
        loaded = {}
        for key, path in reports.items():
            rep = loaded[key] = json.loads(path.read_text(encoding="utf-8"))
            for i, fold in enumerate(rep["folds"]):
                where = f"{path.name} fold {i}"
                failures += metric_failures(where, fold["predictions"], fold["labels"],
                                            fold["mse"], fold["mae"], fold["rmse"])
                if fold["labels"] != [label_at.get(x) for x in fold["starts"]]:
                    failures.append(f"{where}: labels differ from the prepared buckets")
            for name in ("mse", "mae", "rmse"):
                mean = float(np.mean([f[name] for f in rep["folds"]]))
                if not math.isclose(rep["mean"][name], mean, rel_tol=METRIC_RTOL):
                    failures.append(f"{path.name}: mean {name} {rep['mean'][name]!r} vs {mean!r}")
        held_out = sorted(x for f in loaded["metrics"]["folds"] for x in f["starts"])
        if held_out != starts:
            failures.append("eval: held-out folds do not cover every prepared window once")

        with open(out / "report" / "comparison.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        expected_rows = [["dataset", "model", "mse", "mae", "rmse", "sample_count"]] + [
            [rep["dataset"], rep["model"], repr(rep["mean"]["mse"]), repr(rep["mean"]["mae"]),
             repr(rep["mean"]["rmse"]), str(rep["mean"]["sample_count"])]
            for rep in loaded.values()
        ]
        if rows != expected_rows:
            failures.append("comparison.csv does not match the three reports")

        preds = np.array([p for f in loaded["metrics"]["folds"] for p in f["predictions"]])
        labels = np.array([y for f in loaded["metrics"]["folds"] for y in f["labels"]])
        model_mse = float(np.mean((preds - labels) ** 2))
        random_mse = float(np.mean(labels ** 2 - labels + 1.0 / 3.0))
        if not model_mse < random_mse:
            failures.append(f"model MSE {model_mse:.4g} is not below the uniform-guess "
                            f"MSE {random_mse:.4g}")

        with open(out / "detect" / "scores.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        inside = False
        windows = s - BUCKET_LENGTH + 1
        index = [int(r["index"]) for r in rows]
        scores = np.array([float(r["score"]) for r in rows])
        if index != list(range(BUCKET_LENGTH - 1, s)):
            failures.append(f"scores.csv: {len(rows)} rows, expected one per window ({windows})")
        else:
            inside = inside_unit_interval(scores.tolist())
            a_hat = renormalized_adjacency(n, corpus.edges, corpus.weights)
            model = ReferenceModel.from_file(out / "train" / "checkpoint_fold_0.json")
            sample = range(self.seed % REFERENCE_STRIDE, windows, REFERENCE_STRIDE)
            failures += reference_failures(
                "scores.csv", scores[sample], model.scores(clean, a_hat, sample, BUCKET_LENGTH))
        events = json.loads((out / "detect" / "events.json").read_text(encoding="utf-8"))
        row_at = {int(r["index"]): r for r in rows}
        for event in events:
            row = row_at.get(event["index"])
            if row is None or float(row["score"]) != event["score"]:
                failures.append(f"event at {event['index']}: score differs from scores.csv")
            elif not row["threshold"] or not event["score"] < float(row["threshold"]):
                failures.append(f"event at {event['index']}: score is not below its threshold")
        flagged = {e["index"] for e in events}
        echoes = sum(any(0 < i - t < BUCKET_LENGTH for t in inputs.dropouts) for i in flagged)
        quality = {
            "model_mse": model_mse, "uniform_guess_mse": random_mse,
            "baseline_mse": {k: loaded[k]["mean"]["mse"] for k in ("random", "tsr")},
            "events": len(events),
            "dropouts_flagged": sum(t in flagged for t in inputs.dropouts),
            "dropouts": len(inputs.dropouts),
            "events_echoing_a_dropout": echoes,
            "scores_inside_0_1": inside,
        }
        return failures, quality


WORKLOADS = {w.name: w for w in (CrossValidateChickenpox, TrainWikimath, CliMetrala)}
