"""Labeled training buckets via synthetic candidate-snapshot corruption.

A bucket is a window of L consecutive snapshots: the first L-1 are history,
the last is the candidate under evaluation.  Corruption redraws every feature
channel of a few randomly chosen nodes of the candidate, uniformly within
that node-channel's observed range, and labels the bucket with the surviving
fraction of nodes: Y = 1 - k/N for k changed nodes.  A node counts as changed
when selected, even if its redrawn value happens to coincide with the
original.  The label is the one division (N - k) / N, the double nearest
the exact fraction; for every N < 3000, Y*N + k == N holds without
rounding.

A bucket file freezes a labeled set together with the `NoiseSpec` that
drew it, and its loader returns both from one parse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import NodeBounds, TemporalGraphSignal, read_json
from .errors import ContractError, ParseError


@dataclass(frozen=True, eq=False)
class Bucket:
    """A view over snapshots [start, start + length) of one signal."""

    signal: TemporalGraphSignal
    start: int
    length: int

    def __post_init__(self):
        for name in ("start", "length"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ContractError(f"bucket {name} must be an integer, got {value!r}")
        if self.length < 2:
            raise ContractError(f"bucket length must be >= 2, got {self.length}")
        if self.start < 0 or self.start + self.length > self.signal.num_snapshots:
            raise ContractError(
                f"bucket [{self.start}, {self.start + self.length}) does not fit in "
                f"{self.signal.num_snapshots} snapshots"
            )

    @property
    def history(self) -> np.ndarray:
        """The first length - 1 snapshots, (length-1) x N x F, read-only."""
        return self.signal.features[self.start : self.start + self.length - 1]

    @property
    def candidate(self) -> np.ndarray:
        """The last snapshot of the window, N x F, read-only."""
        return self.signal.features[self.start + self.length - 1]

    @property
    def snapshots(self) -> np.ndarray:
        """All length snapshots, length x N x F, read-only."""
        return self.signal.features[self.start : self.start + self.length]


@dataclass(frozen=True, eq=False)
class LabeledBucket:
    """A bucket whose candidate snapshot was materialized, possibly corrupted.

    `perturbed` holds the redrawn node indices, and `label` is 1 - k/N for
    those k nodes.  History snapshots always come straight from the source
    signal and are never modified.
    """

    bucket: Bucket
    candidate: np.ndarray
    perturbed: frozenset[int]

    def __post_init__(self):
        n = self.bucket.signal.num_nodes
        candidate = np.array(self.candidate, dtype=np.float64)
        if candidate.shape != self.bucket.candidate.shape:
            raise ContractError(
                f"candidate shape {candidate.shape} does not match "
                f"the bucket's {self.bucket.candidate.shape}"
            )
        perturbed = frozenset(int(i) for i in self.perturbed)
        if any(not 0 <= i < n for i in perturbed):
            raise ContractError(f"perturbed node indices out of range for {n} nodes")
        candidate.setflags(write=False)
        object.__setattr__(self, "candidate", candidate)
        object.__setattr__(self, "perturbed", perturbed)

    @property
    def label(self) -> float:
        n = self.bucket.signal.num_nodes
        return (n - len(self.perturbed)) / n

    @property
    def snapshots(self) -> np.ndarray:
        """All length snapshots with the materialized candidate swapped in."""
        return np.concatenate([self.bucket.history, self.candidate[None]], axis=0)


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption parameters: per-bucket probability and the rng seed."""

    corrupt_probability: float = 0.5
    seed: int = 0

    def __post_init__(self):
        p = self.corrupt_probability
        if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
            raise ContractError(f"corrupt probability must be in [0, 1], got {p!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ContractError(f"seed must be a nonnegative integer, got {self.seed!r}")


def bucketize(signal: TemporalGraphSignal, length: int, stride: int = 1) -> list[Bucket]:
    """Windows of `length` snapshots at starts 0, stride, 2*stride, ...

    Every start with start + length <= num_snapshots is included, in order.
    """
    total = signal.num_snapshots
    if not isinstance(length, int) or isinstance(length, bool) or length < 2:
        raise ContractError(f"bucket length must be an integer >= 2, got {length!r}")
    if length > total:
        raise ContractError(
            f"bucket length {length} exceeds the signal's {total} snapshots"
        )
    if not isinstance(stride, int) or isinstance(stride, bool) or stride < 1:
        raise ContractError(f"stride must be a positive integer, got {stride!r}")
    return [Bucket(signal, start, length) for start in range(0, total - length + 1, stride)]


def inject_noise(buckets, bounds: NodeBounds, spec: NoiseSpec) -> list[LabeledBucket]:
    """Independently corrupt each bucket's candidate with the spec's probability.

    A corrupted bucket draws k uniform over {1..N}, picks k distinct nodes,
    and redraws all their candidate channels uniformly within that
    node-channel's bounds.  Bucket i consumes the random stream derived from
    (seed, i) and nothing else, so generation order cannot change the output.
    """
    labeled = []
    for index, bucket in enumerate(buckets):
        n = bucket.signal.num_nodes
        if bounds.mins.shape != (n, bucket.signal.num_channels):
            raise ContractError(
                f"bounds shape {bounds.mins.shape} does not cover the signal's "
                f"({n}, {bucket.signal.num_channels})"
            )
        rng = np.random.default_rng([spec.seed, index])
        candidate = bucket.candidate.copy()
        perturbed = frozenset()
        if rng.random() < spec.corrupt_probability:
            k = int(rng.integers(1, n + 1))
            nodes = rng.choice(n, size=k, replace=False)
            candidate[nodes] = rng.uniform(bounds.mins[nodes], bounds.maxs[nodes])
            perturbed = frozenset(int(i) for i in nodes)
        labeled.append(LabeledBucket(bucket, candidate, perturbed))
    return labeled


def write_labeled_buckets(labeled, path, spec: NoiseSpec) -> None:
    """Serialize a frozen training set: one record per bucket, and its spec.

    The generating `spec` is recorded alongside the buckets, so downstream
    reports can refuse to compare sets drawn under different corruption
    settings.
    """
    labeled = list(labeled)
    if not labeled:
        raise ContractError("refusing to write an empty training set")
    lengths = {item.bucket.length for item in labeled}
    names = {item.bucket.signal.name for item in labeled}
    if len(lengths) != 1 or len(names) != 1:
        raise ContractError(
            f"training set mixes bucket lengths {sorted(lengths)} or datasets {sorted(names)}"
        )
    doc = {
        "dataset": labeled[0].bucket.signal.name,
        "length": labeled[0].bucket.length,
        "buckets": [
            {
                "start": item.bucket.start,
                "label": item.label,
                "perturbed_nodes": sorted(item.perturbed),
                "candidate": item.candidate.tolist(),
            }
            for item in labeled
        ],
        "noise": {"corrupt_probability": spec.corrupt_probability, "seed": spec.seed},
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def load_labeled_buckets(path, signal: TemporalGraphSignal) -> tuple[list[LabeledBucket], NoiseSpec]:
    """Rebuild a frozen training set against its source signal, and its spec.

    A file without a valid `noise` record is refused with `ParseError`, and
    so is a bucket record that lacks a field, holds a non-finite candidate,
    or stores a label other than the one recomputed from its perturbed-node
    list, so a tampered file cannot smuggle in an inconsistent pair.
    """
    doc = read_json(path)
    if not (isinstance(doc, dict) and isinstance(doc.get("buckets"), list) and "length" in doc):
        raise ParseError(f"{path}: expected an object with 'dataset', 'length', 'buckets'")
    if doc.get("dataset") != signal.name:
        raise ParseError(
            f"{path}: training set is for dataset {doc.get('dataset')!r}, "
            f"signal is {signal.name!r}"
        )
    stored = doc.get("noise", {})
    try:
        spec = NoiseSpec(corrupt_probability=stored["corrupt_probability"], seed=stored["seed"])
    except (KeyError, TypeError, ContractError) as exc:
        raise ParseError(f"{path}: bad or missing noise record: {exc}") from exc

    length = doc["length"]
    labeled = []
    for i, record in enumerate(doc["buckets"]):
        try:
            bucket = Bucket(signal, record["start"], length)
            candidate = np.asarray(record["candidate"], dtype=np.float64)
            if not np.isfinite(candidate).all():
                raise ContractError("candidate contains non-finite values")
            item = LabeledBucket(bucket, candidate, frozenset(record["perturbed_nodes"]))
            mismatch = abs(item.label - record["label"]) > 1e-12
        except (KeyError, TypeError, ValueError, ContractError) as exc:
            raise ParseError(f"{path}: buckets[{i}]: {exc}") from exc
        if mismatch:
            raise ParseError(
                f"{path}: buckets[{i}]: stored label {record['label']!r} does not match "
                f"the perturbed-node count"
            )
        labeled.append(item)
    return labeled, spec
