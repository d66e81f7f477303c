"""Static-topology temporal graph signals.

A signal is one fixed graph plus an S x N x F feature tensor: S snapshots,
N nodes, F feature channels per node.  The topology never changes across
snapshots.  This module owns the canonical JSON format for such signals,
the degree-normalized adjacency used by the graph convolutions,
per-node-channel feature bounds with min-max normalization, and
`read_json`, the one reader of the JSON files the toolkit writes and
loads back.

The JSON file is the only source of truth.  `write_canonical` also leaves a
binary sidecar next to it (`<file>.npy`): the decoded arrays plus the
SHA-256 of the exact JSON bytes.  `load_canonical` builds the signal from
the sidecar only when that hash matches the file it just read, so a missing,
stale or damaged sidecar costs nothing but the JSON parse it would have done
anyway.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib.format import read_array

from .errors import ContractError, ParseError

REQUIRED_FIELDS = ("name", "num_nodes", "edges", "frequency", "features")
OPTIONAL_FIELDS = ("weights",)


@dataclass(frozen=True, eq=False)
class TemporalGraphSignal:
    """A fixed weighted graph observed over S snapshots of node features.

    Arrays are copied in and locked read-only, so a loaded signal can be
    shared across threads without defensive copies.
    """

    name: str
    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray | None
    features: np.ndarray
    frequency: str = "unknown"

    def __post_init__(self):
        n = self.num_nodes
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ContractError(f"num_nodes must be a positive integer, got {n!r}")

        edges = tuple((int(s), int(d)) for s, d in self.edges)
        for s, d in edges:
            if not (0 <= s < n and 0 <= d < n):
                raise ContractError(f"edge ({s}, {d}) out of range for {n} nodes")

        weights = self.weights
        if weights is None:
            weights = np.ones(len(edges))
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != (len(edges),):
            raise ContractError(
                f"expected {len(edges)} edge weights, got shape {weights.shape}"
            )
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ContractError("edge weights must be finite and nonnegative")

        features = np.array(self.features, dtype=np.float64)
        if features.ndim != 3:
            raise ContractError(
                f"features must be an S x N x F array, got shape {features.shape}"
            )
        if features.shape[1] != n:
            raise ContractError(
                f"features have {features.shape[1]} node rows, signal has {n} nodes"
            )
        if features.shape[0] < 1 or features.shape[2] < 1:
            raise ContractError(
                f"need at least one snapshot and one channel, got shape {features.shape}"
            )
        if not np.isfinite(features).all():
            raise ContractError("features contain non-finite values")

        weights.setflags(write=False)
        features.setflags(write=False)
        # frozen dataclass, so assign the validated copies through object
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "features", features)

    @property
    def num_snapshots(self) -> int:
        return self.features.shape[0]

    @property
    def num_channels(self) -> int:
        return self.features.shape[2]

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class NodeBounds:
    """Per (node, channel) feature minima and maxima, both N x F arrays."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.array(self.mins, dtype=np.float64)
        maxs = np.array(self.maxs, dtype=np.float64)
        if mins.ndim != 2 or mins.shape != maxs.shape:
            raise ContractError(
                f"bounds must be matching N x F arrays, got {mins.shape} and {maxs.shape}"
            )
        if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
            raise ContractError("bounds must be finite")
        if (mins > maxs).any():
            raise ContractError("every minimum must be <= its maximum")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def num_nodes(self) -> int:
        return self.mins.shape[0]

    @property
    def num_channels(self) -> int:
        return self.mins.shape[1]


def _fail(path, where, what):
    raise ParseError(f"{path}: {where}: {what}")


def read_json(path, data: bytes | None = None):
    """The JSON document in `path`, or in `data`, that file's bytes if already read.

    Decoded as UTF-8 with the newline handling of text mode.  Bytes that
    are not UTF-8 and text that is not JSON raise `ParseError` naming the
    file; the caller checks the document's shape.  Not part of `tgsim`'s
    public API: the loaders of the other modules share it.
    """
    try:
        if data is None:  # text mode: the file's bytes are freed before the parse
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None


def _parse_index(value, n, where, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, where, f"expected an integer node index, got {value!r}")
    if not 0 <= value < n:
        _fail(path, where, f"node index {value} out of range for {n} nodes")
    return value


def _parse_number(value, where, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, where, f"expected a number, got {value!r}")
    return float(value)


def _locate_ragged(raw, n, path):
    # slow scan used only after the vectorized conversion failed
    width = None
    for i, snap in enumerate(raw):
        if not isinstance(snap, list):
            _fail(path, f"features[{i}]", "expected an array of node rows")
        if len(snap) != n:
            _fail(path, f"features[{i}]", f"expected {n} node rows, found {len(snap)}")
        for j, row in enumerate(snap):
            if not isinstance(row, list):
                _fail(path, f"features[{i}][{j}]", "expected an array of channel values")
            if width is None:
                width = len(row)
            elif len(row) != width:
                _fail(
                    path,
                    f"features[{i}][{j}]",
                    f"expected {width} channel values, found {len(row)}",
                )
            for k, value in enumerate(row):
                _parse_number(value, f"features[{i}][{j}][{k}]", path)


_SIDECAR_FORMAT = "tgsim-canonical-sidecar/1"


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".npy")


def _write_sidecar(signal: TemporalGraphSignal, digest: bytes, path: Path) -> None:
    """Consecutive `np.save` arrays: digest, metadata, edges, weights, features.

    Written to a temporary file in the same directory and renamed over the
    old sidecar, so a reader never sees a partial one.  `np.save` stamps no
    time, so one signal always gives the same bytes.
    """
    meta = json.dumps([_SIDECAR_FORMAT, signal.name, signal.frequency, signal.num_nodes])
    arrays = (
        np.frombuffer(digest, dtype=np.uint8),
        np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
        np.array(signal.edges, dtype=np.int64).reshape(-1, 2),
        signal.weights,
        signal.features,
    )
    sidecar = _sidecar_path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{sidecar.name}.", dir=sidecar.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            for array in arrays:
                np.save(handle, array, allow_pickle=False)
        shutil.copymode(path, tmp)  # mkstemp makes it owner-only
        os.replace(tmp, sidecar)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_sidecar(path: Path, digest: bytes) -> TemporalGraphSignal | None:
    """The signal stored in `path`'s sidecar, or None unless it matches `digest`.

    A missing, truncated, foreign or stale sidecar, or one that does not
    describe a valid signal, gives None.
    """
    try:
        with open(_sidecar_path(path), "rb") as handle:
            # read_array, unlike np.load, reads only .npy arrays (no zip, no pickle)
            stored = read_array(handle, allow_pickle=False)
            if stored.dtype != np.uint8 or stored.tobytes() != digest:
                return None
            meta, edges, weights, features = (
                read_array(handle, allow_pickle=False) for _ in range(4)
            )
        if (meta.dtype, edges.dtype, weights.dtype, features.dtype) != (
            np.uint8, np.int64, np.float64, np.float64
        ):
            return None
        fmt, name, frequency, n = json.loads(meta.tobytes())
        # TemporalGraphSignal leaves these two unchecked; the JSON path does not
        if fmt != _SIDECAR_FORMAT or type(name) is not str or type(frequency) is not str:
            return None
        return TemporalGraphSignal(name, n, edges.tolist(), weights, features, frequency)
    except (OSError, ValueError, TypeError, MemoryError, ContractError):
        return None


def load_canonical(path) -> TemporalGraphSignal:
    """Load and validate a canonical-format signal file.

    Malformed input, unknown top-level fields included, is rejected with a
    `ParseError` naming the offending location, never repaired.

    The file's bytes are always read and hashed.  When the sidecar that
    `write_canonical` left carries the same SHA-256, the signal is built
    from its arrays (still through `TemporalGraphSignal` validation), which
    gives the same signal as parsing, bit for bit; otherwise the JSON is
    parsed.  Nothing is ever written here.
    """
    path = Path(path)
    data = path.read_bytes()
    signal = _load_sidecar(path, hashlib.sha256(data).digest())
    if signal is not None:
        return signal
    doc = read_json(path, data)

    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    for name in REQUIRED_FIELDS:
        if name not in doc:
            raise ParseError(f"{path}: missing required field '{name}'")
    for name in doc:
        if name not in REQUIRED_FIELDS and name not in OPTIONAL_FIELDS:
            raise ParseError(f"{path}: unknown field '{name}'")

    if not isinstance(doc["name"], str):
        _fail(path, "name", f"expected a string, got {doc['name']!r}")
    if not isinstance(doc["frequency"], str):
        _fail(path, "frequency", f"expected a string, got {doc['frequency']!r}")
    n = doc["num_nodes"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        _fail(path, "num_nodes", f"expected a positive integer, got {n!r}")

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        _fail(path, "edges", "expected an array of [src, dst] pairs")
    edges = []
    for i, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(path, f"edges[{i}]", f"expected a [src, dst] pair, got {pair!r}")
        src = _parse_index(pair[0], n, f"edges[{i}]", path)
        dst = _parse_index(pair[1], n, f"edges[{i}]", path)
        edges.append((src, dst))

    weights = None
    if "weights" in doc:
        raw_weights = doc["weights"]
        if not isinstance(raw_weights, list):
            _fail(path, "weights", "expected an array of numbers")
        if len(raw_weights) != len(edges):
            _fail(
                path,
                "weights",
                f"expected {len(edges)} entries to match edges, found {len(raw_weights)}",
            )
        weights = []
        for i, value in enumerate(raw_weights):
            value = _parse_number(value, f"weights[{i}]", path)
            if not np.isfinite(value):
                _fail(path, f"weights[{i}]", f"non-finite value {value!r}")
            if value < 0:
                _fail(path, f"weights[{i}]", f"negative weight {value!r}")
            weights.append(value)

    raw_features = doc["features"]
    if not isinstance(raw_features, list) or not raw_features:
        _fail(path, "features", "expected a non-empty array of snapshots")
    try:
        features = np.asarray(raw_features, dtype=np.float64)
    except (TypeError, ValueError):
        features = None
    if features is None or features.ndim != 3:
        _locate_ragged(raw_features, n, path)
        _fail(path, "features", "expected an S x N x F array")
    if features.shape[1] != n:
        _fail(
            path, "features[0]", f"expected {n} node rows, found {features.shape[1]}"
        )
    if features.shape[2] < 1:
        _fail(path, "features[0][0]", "expected at least one channel value")
    bad = ~np.isfinite(features)
    if bad.any():
        i, j, k = np.argwhere(bad)[0]
        _fail(
            path,
            f"features[{i}][{j}][{k}]",
            f"non-finite value {features[i, j, k]!r}",
        )

    return TemporalGraphSignal(
        name=doc["name"],
        num_nodes=n,
        edges=tuple(edges),
        weights=weights,
        features=features,
        frequency=doc["frequency"],
    )


def write_canonical(signal: TemporalGraphSignal, path) -> None:
    """Write a signal in the canonical format; inverse of `load_canonical`.

    After the JSON file, writes its binary sidecar `<path>.npy`: the same
    name, frequency, node count, edges, weights and features, plus the
    SHA-256 of the JSON bytes, so a later `load_canonical` of this exact
    file can skip the parse.  Editing the JSON afterwards leaves the
    sidecar unused, not wrong.  A sidecar that cannot be written is left
    out: the JSON alone is complete.
    """
    head = json.dumps({
        "name": signal.name,
        "num_nodes": signal.num_nodes,
        "frequency": signal.frequency,
        "edges": [[s, d] for s, d in signal.edges],
        "weights": signal.weights.tolist(),
    }, separators=(",", ":"))
    path = Path(path)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        # the bytes of one json.dumps of the whole document, with the features
        # formatted a snapshot at a time: in one call every float and its
        # text are held at once, about 90 MB at the metrala shape and the
        # largest allocation of the whole CLI pipeline
        put(head[:-1] + ',"features":[')
        for t, snapshot in enumerate(signal.features):
            put(("," if t else "") + json.dumps(snapshot.tolist(), separators=(",", ":")))
        put("]}")
    try:
        _write_sidecar(signal, digest.digest(), path)
    except OSError:
        pass


def normalized_adjacency(signal: TemporalGraphSignal) -> np.ndarray:
    """Degree-normalized adjacency D^(-1/2) (A + I) D^(-1/2) as a dense N x N array.

    Each edge counts in both directions (by maximum weight), the reading
    of every bundled dataset.  Nodes that already carry a self-loop keep
    its weight: the +I fills in only the missing diagonal entries, so an
    isolated node never divides by zero.  Built once per signal (14.9 ms at
    N = 1068) and kept on it, read-only like the signal's own arrays.
    """
    cached = signal.__dict__.get("_normalized_adjacency")
    if cached is not None:
        return cached
    n = signal.num_nodes
    adj = np.zeros((n, n))
    if signal.num_edges:
        # one pass over the flattened pairs: faster than np.asarray on a tuple of pairs
        arcs = np.fromiter(chain.from_iterable(signal.edges), dtype=np.intp,
                           count=2 * signal.num_edges).reshape(-1, 2)
        np.add.at(adj, (arcs[:, 0], arcs[:, 1]), signal.weights)
    adj = np.maximum(adj, adj.T)
    diag = np.arange(n)
    adj[diag, diag] = np.where(adj[diag, diag] == 0.0, 1.0, adj[diag, diag])
    inv_sqrt_degree = 1.0 / np.sqrt(adj.sum(axis=1))
    adj *= inv_sqrt_degree[:, None]
    adj *= inv_sqrt_degree[None, :]
    adj.setflags(write=False)
    object.__setattr__(signal, "_normalized_adjacency", adj)
    return adj


def node_bounds(signal: TemporalGraphSignal) -> NodeBounds:
    """Per-(node, channel) min and max of the features over every snapshot."""
    return NodeBounds(mins=signal.features.min(axis=0), maxs=signal.features.max(axis=0))


def normalize_features(values: np.ndarray, bounds: NodeBounds) -> np.ndarray:
    """Map values to (x - min) / (max - min) per node-channel.

    Accepts any array whose trailing axes are (N, F).  A degenerate
    node-channel with max = min maps to 0.0.  Out-of-range inputs are
    allowed and land outside [0, 1].
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-2:] != bounds.mins.shape:
        raise ContractError(
            f"bounds cover {bounds.mins.shape[0]} nodes x {bounds.mins.shape[1]} channels, "
            f"features have shape {values.shape}"
        )
    span = bounds.maxs - bounds.mins
    shifted = values - bounds.mins
    out = np.zeros_like(shifted)
    np.divide(shifted, span, out=out, where=span > 0)
    return out
