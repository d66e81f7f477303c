"""Static-topology temporal graph signals.

A signal is one fixed graph plus an S x N x F feature tensor: S snapshots,
N nodes, F feature channels per node.  The topology never changes across
snapshots.  This module owns the canonical JSON format for such signals,
the degree-normalized adjacency used by the graph convolutions,
per-node-channel feature bounds with min-max normalization, and
`read_json` and `write_json`, the one reader and the one pretty writer of
the JSON files the toolkit writes and loads back.

One rule covers what every loader reads from JSON: numbers become floats
only through `json_floats`, and a signal is validated only by
`TemporalGraphSignal`.  Both name the first bad location.

`adjacency_operator` is the one builder of A_hat: the dense matrix below
`_SPARSE_NODES` nodes, a `scipy.sparse` CSR array from there on, one form
cached per signal.  That path alone imports scipy, so smaller graphs
never load it.  Both forms hold the nonzeros that `_adjacency_entries`
computes from the signal's arc arrays: the CSR form never passes through
a dense N x N array, and the dense form is those nonzeros scattered into
one.

The JSON file is the only source of truth.  `write_canonical` writes it a
snapshot at a time in this process, then leaves a binary sidecar next to it
(`<file>.npy`): the decoded arrays plus the SHA-256 of the exact JSON bytes.
`load_canonical` builds the signal from the sidecar only when that hash
matches the file it just read, so a missing, stale or damaged sidecar costs
nothing but the JSON parse it would have done anyway.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib.format import read_array

from .errors import ContractError, ParseError

REQUIRED_FIELDS = ("name", "num_nodes", "edges", "frequency", "features")
OPTIONAL_FIELDS = ("weights",)

# node count from which the model applies A_hat as CSR (adjacency_operator).
# At one BLAS thread CSR A_hat X (k = 32) already wins at N = 207 (0.065
# against 0.088 ms), but importing scipy costs 0.24 s and +15.7 MB once per
# process; from N = 512 CSR is twice as fast or more at one and two
# threads (0.18 against 0.63 and 0.35 ms), and about 20 training windows
# repay the import (a3tgcn, one thread: 8 windows in 352 against 442 ms).
_SPARSE_NODES = 512

# bytes `file_sha256` hashes at a time
_HASH_BLOCK = 1 << 20


def file_sha256(path) -> bytes:
    """The SHA-256 of the bytes in `path`, read a block at a time, so no copy of the file is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(_HASH_BLOCK):
            digest.update(block)
    return digest.digest()


def index_pairs(edges) -> tuple[tuple[int, int], ...]:
    """`edges` as (src, dst) pairs of Python ints, never coerced.

    An element that is no pair, or an endpoint that is no Python or numpy
    integer (a float, a bool, a string), is a `ContractError` naming its
    edge.  Shared with the adapters.
    """
    try:
        pairs = tuple((s, d) for s, d in edges)
    except (TypeError, ValueError):
        where = "edges"  # then the first element that does not unpack, looked up only now
        with suppress(TypeError, ValueError):
            for i, pair in enumerate(edges):
                where, (_, _) = f"edges[{i}]", pair
        raise ContractError(f"{where}: expected (src, dst) pairs") from None
    if set(map(type, chain.from_iterable(pairs))) <= {int}:
        return pairs  # the common case, checked without a loop of Python bytecode
    for i, value in enumerate(chain.from_iterable(pairs)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ContractError(f"edges[{i // 2}]: expected an integer node index, got {value!r}")
    return tuple((int(s), int(d)) for s, d in pairs)


@dataclass(frozen=True, eq=False)
class TemporalGraphSignal:
    """A fixed weighted graph observed over S snapshots of node features.

    Arrays are copied in and locked read-only, so a loaded signal can be
    shared across threads without defensive copies.  A `ContractError`
    names the first bad edge, weight or feature, looked up only after a
    whole-array check has failed.
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

        edges = index_pairs(self.edges)
        for s, d in edges:
            if not (0 <= s < n and 0 <= d < n):
                raise ContractError(
                    f"edges[{edges.index((s, d))}]: ({s}, {d}) out of range for {n} nodes")

        weights = self.weights
        if weights is None:
            weights = np.ones(len(edges))
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != (len(edges),):
            raise ContractError(
                f"expected {len(edges)} edge weights, got shape {weights.shape}"
            )
        if not np.isfinite(weights).all() or (weights < 0).any():
            i = int(np.flatnonzero(~np.isfinite(weights) | (weights < 0))[0])
            what = "negative weight" if np.isfinite(weights[i]) else "non-finite value"
            raise ContractError(f"weights[{i}]: {what} {float(weights[i])!r}")

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
            i, j, k = np.argwhere(~np.isfinite(features))[0]
            raise ContractError(
                f"features[{i}][{j}][{k}]: non-finite value {float(features[i, j, k])!r}")

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


def read_json(path):
    """The JSON document in `path`.

    Decoded as UTF-8 with the newline handling of text mode.  Bytes that
    are not UTF-8, text that is not JSON and arrays or objects nested past
    the parser's recursion limit raise `ParseError` naming the file; the
    caller checks the document's shape.  Not part of `tgsim`'s
    public API: the loaders of the other modules share it.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to read") from None


def json_floats(value, where: str) -> np.ndarray:
    """`value`, a JSON number or nested JSON arrays of them, as a float64 array.

    A bool, a string, null, a ragged array, an integer past float64 range
    or a non-finite value is a `ContractError` naming the first one in
    reading order, as `where` plus its indices (`features[1][1][0]`).  A
    valid value costs `np.asarray` and one scan of its values' types; a
    float64 array `read_json_rows` built needs no scan.  Shares
    `read_json`'s standing outside the public API.
    """
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is not None and np.isfinite(array).all():
        if isinstance(value, np.ndarray):
            return array
        leaves = [value]
        for _ in range(array.ndim):
            leaves = chain.from_iterable(leaves)
        if set(map(type, leaves)) <= {int, float}:
            return array
    # the expected shape is the first element's at each depth, as numpy reads it
    shape, first = [], value
    while isinstance(first, list):
        shape.append(len(first))
        first = first[0] if first else None
    at, what = next(_faults(value, where, shape), (where, "expected an array of numbers"))
    raise ContractError(f"{at}: {what}")


def _spelled(value) -> str:
    if isinstance(value, list):
        return f"an array of length {len(value)}"
    return "an object" if isinstance(value, dict) else json.dumps(value)


def _faults(node, at: str, shape):
    """(location, problem) of each value under `node` that `json_floats` refuses, in reading order."""
    if not shape:
        # null is how JSON writers such as JavaScript's spell NaN and the infinities
        if node is None or type(node) is float and not math.isfinite(node):
            yield at, f"non-finite value {_spelled(node)}"
        elif type(node) not in (int, float):
            yield at, f"expected a number, got {_spelled(node)}"
        else:
            try:
                float(node)
            except OverflowError:
                yield at, "integer too large, out of float64 range"
    elif not isinstance(node, list) or len(node) != shape[0]:
        yield at, f"expected an array of length {shape[0]}, got {_spelled(node)}"
    else:
        for i, item in enumerate(node):
            yield from _faults(item, f"{at}[{i}]", shape[1:])


# characters of the file `read_json_rows` reads at a time: a block, its bytes
# and the unread text before it are all of the file it holds
_READ_BLOCK = 1 << 18
_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match  # the whitespace json skips between tokens


class _Unread(Exception):
    """The document is one `read_json_rows` leaves to `read_json`."""


class _Stream:
    """A text file read a block at a time and decoded left to right, as `json` decodes it."""

    def __init__(self, handle):
        self.handle, self.text, self.pos = handle, "", 0

    def _more(self) -> bool:
        """Append at least as much again as is unread; False, changing nothing, at the end."""
        block = self.handle.read(max(_READ_BLOCK, len(self.text) - self.pos))
        if not block:
            return False
        self.text, self.pos = self.text[self.pos:] + block, 0
        return True

    def peek(self) -> str:
        """The next character after whitespace, or "" at the end of the file."""
        while True:
            self.pos = _SPACE(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos:self.pos + 1]

    def take(self, char: str) -> None:
        """Consume `char`, the next character after whitespace; anything else is no JSON."""
        if self.peek() != char:
            raise _Unread
        self.pos += 1

    def value(self, decode=_DECODER.raw_decode):
        """The value `decode(text, pos) -> (value, end)` reads at the next character.

        A value is taken once the two characters after it are read too,
        or the file has ended: a number cut at the end of a block, as
        "1e+" of "1e+5", would otherwise decode as its head.
        """
        self.peek()
        while True:
            try:
                value, end = decode(self.text, self.pos)
            except json.JSONDecodeError:
                if self._more():
                    continue
                raise _Unread from None
            if end + 2 < len(self.text) or not self._more():
                self.pos = end
                return value

    def rows(self):
        """The next value; an array becomes one float64 array, each element through `json_floats`."""
        if self.peek() != "[":
            return self.value()
        self.pos += 1
        rows = []
        if self.peek() == "]":
            self.pos += 1
            return np.asarray(rows)
        while True:
            try:
                row = json_floats(self.value(), "")
            except ContractError:
                raise _Unread from None
            if rows and row.shape != rows[0].shape:
                raise _Unread
            rows.append(row)
            if self.peek() == "]":
                self.pos += 1
                return np.asarray(rows)
            self.take(",")


def _scan_key(text, pos):
    return json.decoder.scanstring(text, pos + 1)


def read_json_rows(path, field: str):
    """The JSON document in `path`, with its top-level `field` read a row at a time.

    When the document is an object and `field` is an array whose elements
    `json_floats` accepts, each with one shape, `field` is `json_floats` of
    the field `read_json` gives, converted as each element is read: neither
    the file's whole text nor the field's Python floats are ever held.
    Every other member is what `read_json` gives.  Any other document,
    including one that is not UTF-8 JSON, is `read_json(path)` itself, so
    it parses or fails exactly as there.  Shares `read_json`'s standing
    outside the public API.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            stream = _Stream(handle)
            stream.take("{")
            doc = {}
            if stream.peek() == "}":
                stream.pos += 1
            else:
                while True:
                    if stream.peek() != '"':
                        raise _Unread
                    key = stream.value(_scan_key)
                    stream.take(":")
                    doc[key] = stream.rows() if key == field else stream.value()
                    if stream.peek() == "}":
                        stream.pos += 1
                        break
                    stream.take(",")
            if stream.peek() != "":
                raise _Unread
            return doc
    except (_Unread, UnicodeDecodeError, RecursionError):
        return read_json(path)


def write_json(doc, path) -> None:
    """Write `doc` to `path` as stable JSON: sorted keys, two-space indent, final newline.

    The one writer of the toolkit's JSON reports and records; not part of
    `tgsim`'s public API either.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    `ParseError` naming the file and the offending location, never
    repaired: `json_floats` and `TemporalGraphSignal` check the fields.

    The file's bytes are always hashed, a block at a time (`file_sha256`),
    so no copy of the whole file is held.  When the sidecar that
    `write_canonical` left carries the same SHA-256, the signal is built
    from its arrays (still through `TemporalGraphSignal` validation), which
    gives the same signal as parsing, bit for bit; otherwise the JSON is
    parsed.  Nothing is ever written here.
    """
    path = Path(path)
    signal = _load_sidecar(path, file_sha256(path))
    if signal is not None:
        return signal
    doc = read_json(path)

    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    for name in REQUIRED_FIELDS:
        if name not in doc:
            raise ParseError(f"{path}: missing required field '{name}'")
    for name in doc:
        if name not in REQUIRED_FIELDS and name not in OPTIONAL_FIELDS:
            raise ParseError(f"{path}: unknown field '{name}'")
    # the signal type leaves these unchecked, and would iterate an object's keys as edges
    for name, kind, expected in (("name", str, "a string"), ("frequency", str, "a string"),
                                 ("edges", list, "an array of [src, dst] pairs")):
        if not isinstance(doc[name], kind):
            raise ParseError(f"{path}: {name}: expected {expected}, got {_spelled(doc[name])}")

    try:
        return TemporalGraphSignal(
            name=doc["name"],
            num_nodes=doc["num_nodes"],
            edges=doc["edges"],
            weights=json_floats(doc["weights"], "weights") if "weights" in doc else None,
            features=json_floats(doc["features"], "features"),
            frequency=doc["frequency"],
        )
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _snapshot_text(snapshot: np.ndarray) -> str:
    """One N x F snapshot as `json.dumps` spells it.

    `json.dumps` spells a finite float as its repr; spelling a one-channel
    snapshot's floats from one flat list skips the N one-channel lists of
    `tolist()` (at the metrala shape, median of 8 alternations: 0.75 s
    against 0.90 s a snapshot at a time through `json.dumps`).
    """
    if snapshot.shape[1] == 1:
        rows = map(float.__repr__, snapshot.ravel().tolist())
    else:
        rows = (",".join(map(float.__repr__, row)) for row in snapshot.tolist())
    return "[[" + "],[".join(rows) + "]]"


def write_canonical(signal: TemporalGraphSignal, path) -> None:
    """Write a signal in the canonical format; inverse of `load_canonical`.

    The file is the bytes of one `json.dumps` of the whole document,
    written in this process a snapshot at a time (`_snapshot_text`) and
    hashed as it is written, so no more than one snapshot's text is held.

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

        put(head[:-1] + ',"features":[')
        for i, snapshot in enumerate(signal.features):
            put(("," if i else "") + _snapshot_text(snapshot))
        put("]}")
    try:
        _write_sidecar(signal, digest.digest(), path)
    except OSError:
        pass


# floats in `_adjacency_entries`' row-block buffer (512 KiB): its degree sums
# see whole dense rows without the whole dense matrix
_DEGREE_BLOCK_FLOATS = 1 << 16


def _adjacency_entries(signal: TemporalGraphSignal):
    """The nonzeros of D^(-1/2) (A + I) D^(-1/2) as row-major (rows, cols, values).

    Built from the arc arrays alone, with the bytes of the dense recipe:
    sum the arcs of one ordered pair in arc order from 0.0 (as `np.add.at`
    does), take the max of each entry and its reverse, set a missing or
    zero diagonal entry to 1.0, sum each row's degree as the pairwise sum
    of its dense row, then scale each entry as (a_ij inv_i) inv_j.  The
    degrees come from row blocks scattered into a small B x N buffer: a sum
    over the nonzeros alone would group the additions differently.
    """
    n = signal.num_nodes
    # one pass over the flattened pairs: faster than np.asarray on a tuple of pairs
    arcs = np.fromiter(chain.from_iterable(signal.edges), dtype=np.intp,
                       count=2 * signal.num_edges).reshape(-1, 2)
    pairs, pair_of_arc = np.unique(arcs[:, 0] * n + arcs[:, 1], return_inverse=True)
    summed = np.bincount(pair_of_arc, weights=signal.weights, minlength=len(pairs))
    # every pair, its reverse and the diagonal, each entry the max of what lands on it
    keys, slot = np.unique(
        np.concatenate([pairs, pairs % n * n + pairs // n, np.arange(n) * (n + 1)]),
        return_inverse=True,
    )
    values = np.zeros(len(keys))
    np.maximum.at(values, slot, np.concatenate([summed, summed, np.zeros(n)]))
    rows, cols = np.divmod(keys, n)
    values[(rows == cols) & (values == 0.0)] = 1.0

    degree = np.empty(n)
    block = max(1, _DEGREE_BLOCK_FLOATS // n)
    dense_rows = np.empty((min(block, n), n))
    bounds = np.searchsorted(rows, range(0, n + block, block))
    for first, lo, hi in zip(range(0, n, block), bounds, bounds[1:]):
        part = dense_rows[: min(block, n - first)]
        part.fill(0.0)
        part[rows[lo:hi] - first, cols[lo:hi]] = values[lo:hi]
        degree[first:first + len(part)] = part.sum(axis=1)
    inv_sqrt_degree = 1.0 / np.sqrt(degree)
    values = values * inv_sqrt_degree[rows] * inv_sqrt_degree[cols]
    # zero-weight pairs, and entries whose scaling underflows, are no nonzeros
    kept = values != 0.0
    return rows[kept], cols[kept], values[kept]


def adjacency_operator(signal: TemporalGraphSignal):
    """A_hat = D^(-1/2) (A + I) D^(-1/2), as the model applies it.

    Each edge counts in both directions (by maximum weight), the reading
    of every bundled dataset.  Nodes that already carry a self-loop keep
    its weight: the +I fills in only the missing diagonal entries, so an
    isolated node never divides by zero.

    Below `_SPARSE_NODES` nodes a dense N x N array, the nonzeros scattered
    into one (0.8 ms at N = 207, one BLAS thread).  From the cutoff on a
    `scipy.sparse.csr_array` of the same nonzeros, built straight from the
    arc arrays with no dense N x N array at any point: int32 `indices` and
    `indptr`, as `csr_array` gives for the dense matrix; scipy is imported
    on this path only.  Built once per signal and kept on it, read-only
    like the signal's own arrays.
    """
    cached = signal.__dict__.get("_adjacency_operator")
    if cached is None:
        n = signal.num_nodes
        rows, cols, values = _adjacency_entries(signal)
        if n < _SPARSE_NODES:
            cached = np.zeros((n, n))
            cached[rows, cols] = values
            arrays = (cached,)
        else:
            from scipy.sparse import csr_array

            indptr = np.searchsorted(rows, range(n + 1)).astype(np.int32)
            cached = csr_array((values, cols.astype(np.int32), indptr), shape=(n, n))
            arrays = (cached.data, cached.indices, cached.indptr)
        for array in arrays:
            array.setflags(write=False)
        object.__setattr__(signal, "_adjacency_operator", cached)
    return cached


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
