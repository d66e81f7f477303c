"""Spans around the calls into `tgsim`'s public functions, taken from outside.

A `Tracer` wraps each function named in PATCHES where its caller looks it
up (the module attribute the caller resolves at call time), so the program
itself is not edited. Spans are kept in memory as flat arrays: name, start,
end and the index of the enclosing span. Self time is a span's duration
minus the durations of its direct children. Nothing here runs unless the
benchmark is started with `--trace 1`.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np

AUTODIFF_OPS = ("matmul", "add", "subtract", "multiply", "sigmoid", "tanh", "relu",
                "concat_columns", "softmax_rows", "mean_rows", "square")

# (module, attribute, span name): every place a caller resolves the function.
PATCHES = (
    [("tgsim.autodiff", op, f"autodiff.{op}") for op in AUTODIFF_OPS]
    + [
        ("tgsim.autodiff", "zero_grads", "autodiff.zero_grads"),
        ("tgsim.autodiff", "backward", "autodiff.backward"),
        ("tgsim.training", "backward", "autodiff.backward"),
        ("tgsim.model", "gcn_embed", "model.gcn_embed"),
        ("tgsim.model", "cell_step", "model.cell_step"),
        ("tgsim.model", "temporal_attention", "model.temporal_attention"),
        ("tgsim.model", "forward_pass", "model.forward_pass"),
        ("tgsim.training", "forward_pass", "model.forward_pass"),
        ("tgsim.anomaly", "forward_pass", "model.forward_pass"),
        ("tgsim.model", "forward", "model.forward"),
        ("tgsim.training", "forward", "model.forward"),
        ("tgsim.cli", "save_checkpoint", "model.save_checkpoint"),
        ("tgsim.cli", "load_checkpoint", "model.load_checkpoint"),
        ("tgsim.training", "cross_validate", "training.cross_validate"),
        ("tgsim.training", "train", "training.train"),
        ("tgsim.cli", "train", "training.train"),
        ("tgsim.training", "evaluate", "training.evaluate"),
        ("tgsim.cli", "evaluate", "training.evaluate"),
        ("tgsim.training.Adam", "step", "training.optimizer_step"),
        ("tgsim.training.Sgd", "step", "training.optimizer_step"),
        ("tgsim.training", "normalized_adjacency", "data.normalized_adjacency"),
        ("tgsim.model", "normalized_adjacency", "data.normalized_adjacency"),
        ("tgsim.anomaly", "normalized_adjacency", "data.normalized_adjacency"),
        ("tgsim.training", "normalize_features", "data.normalize_features"),
        ("tgsim.model", "normalize_features", "data.normalize_features"),
        ("tgsim.anomaly", "normalize_features", "data.normalize_features"),
        ("tgsim.cli", "load_canonical", "data.load_canonical"),
        ("tgsim.adapters", "write_canonical", "data.write_canonical"),
        ("tgsim.noise", "bucketize", "noise.bucketize"),
        ("tgsim.cli", "bucketize", "noise.bucketize"),
        ("tgsim.noise", "inject_noise", "noise.inject_noise"),
        ("tgsim.cli", "inject_noise", "noise.inject_noise"),
        ("tgsim.cli", "write_labeled_buckets", "noise.write_labeled_buckets"),
        ("tgsim.cli", "load_labeled_buckets", "noise.load_labeled_buckets"),
        ("tgsim.cli", "score_stream", "anomaly.score_stream"),
        ("tgsim.cli", "detect_with_thresholds", "anomaly.detect_with_thresholds"),
        ("tgsim.cli", "write_events", "anomaly.write_outputs"),
        ("tgsim.cli", "write_scores_csv", "anomaly.write_outputs"),
        ("tgsim.cli", "adapt_dataset", "adapters.adapt_dataset"),
    ]
)

# baseline_report runs one method per call; its span is named after the method
BASELINE_PATCH = ("tgsim.cli", "baseline_report", "baselines")
BASELINE_METHODS = ("random", "tsr")
CLI_COMMANDS = ("convert", "prepare", "train", "eval", "baseline", "detect", "report")

TIMED = (
    [f"autodiff.{op}" for op in ("backward",) + AUTODIFF_OPS]
    + ["model.gcn_embed", "model.cell_step", "model.temporal_attention",
       "model.forward_pass", "model.forward", "training.optimizer_step",
       "data.normalized_adjacency", "data.normalize_features"]
)
SELF_ONLY = (
    ["autodiff.zero_grads", "model.save_checkpoint", "model.load_checkpoint",
     "training.cross_validate", "training.train", "training.evaluate",
     "data.load_canonical", "data.write_canonical", "noise.bucketize",
     "noise.inject_noise", "noise.write_labeled_buckets", "noise.load_labeled_buckets",
     "anomaly.score_stream", "anomaly.detect_with_thresholds", "anomaly.write_outputs",
     "adapters.adapt_dataset"]
    + [f"baselines.{m}" for m in BASELINE_METHODS]
    + [f"cli.{c}" for c in CLI_COMMANDS]
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for name in TIMED:
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    out += [(f"{name}.s", "s") for name in SELF_ONLY]
    out += [("autodiff.tape_entries_per_step", "count"),
            ("model.gcn_embed.calls_per_window", "calls/window"),
            ("trace.overhead_s", "s")]
    return out


def _resolve(path: str):
    """A module, or a class inside one, from its dotted name."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory spans: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.tape_lengths: list[int] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(self._id(name))
        self.start[index] = perf_counter()
        try:
            yield
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        opened, start, end, stack = self._open, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            index = opened(nid)
            start[index] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def _wrap_backward(self, fn):
        traced = self.wrap("autodiff.backward", fn)
        lengths = self.tape_lengths

        def backward(output, *args, **kwargs):
            tape = getattr(output, "tape", None)
            if tape is not None:
                lengths.append(len(tape))
            return traced(output, *args, **kwargs)

        return backward

    def _wrap_baseline(self, fn):
        by_method = {m: self.wrap(f"baselines.{m}", fn) for m in BASELINE_METHODS}

        def baseline_report(labeled, method, *args, **kwargs):
            return by_method.get(method, fn)(labeled, method, *args, **kwargs)

        return baseline_report

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block, then restore it."""
        saved = []
        for path, attr, name in PATCHES + [BASELINE_PATCH]:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                owner = None
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            if name == "autodiff.backward":
                replacement = self._wrap_backward(original)
            elif name == "baselines":
                replacement = self._wrap_baseline(original)
            else:
                replacement = self.wrap(name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self time in seconds and call count per span name."""
        count = len(self.start)
        if count == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=count)
        own = duration - children
        self_time = np.bincount(names, weights=own, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {name: (float(self_time[i]), int(calls[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the raw spans (names, start, end, parent) as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def layer_metrics(phases: list[tuple[Tracer, int]], windows_per_round: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from traced phases, each given with how many rounds it ran.

    A phase's totals are divided by its round count, so every value is per
    round of the workload (the traced set-up counts as one round of its own).
    """
    merged: dict[str, list[float]] = {}
    lengths: list[int] = []
    for tracer, rounds in phases:
        for name, (seconds, calls) in tracer.totals().items():
            acc = merged.setdefault(name, [0.0, 0.0])
            acc[0] += seconds / rounds
            acc[1] += calls / rounds
        lengths += tracer.tape_lengths
    values = {}
    for metric, _ in per_layer_names():
        base, _, kind = metric.rpartition(".")
        if kind == "s":
            values[metric] = merged.get(base, [0.0, 0.0])[0]
        elif kind == "calls":
            calls = merged.get(base, [0.0, 0.0])[1]
            values[metric] = int(calls) if calls == int(calls) else calls
    values["autodiff.tape_entries_per_step"] = float(statistics.median(lengths)) if lengths else 0.0
    embeds = merged.get("model.gcn_embed", [0.0, 0.0])[1]
    values["model.gcn_embed.calls_per_window"] = embeds / windows_per_round
    values["trace.overhead_s"] = overhead_s
    return values
