"""Adapters from the published dataset files to the canonical format.

Each supported dataset ships in its own ad-hoc JSON layout; the adapters here
are thin translators into `TemporalGraphSignal`, with weights and features
converted by `data.json_floats` (a refused value is named as `'X'[3][17]`).
Each kind's result must also have its published (nodes, edges, snapshots)
shape, a check that can be switched off to run the same code paths on small
test fixtures.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

from .data import (TemporalGraphSignal, index_pairs, json_floats, read_json, read_json_rows,
                   write_canonical)
from .errors import AdapterError, ContractError, ParseError

# published (num_nodes, num_edges, num_snapshots) per dataset kind
DATASET_SHAPES = {
    "wikimath": (1068, 27079, 731),
    "chickenpox": (20, 102, 520),
    "pedalme": (15, 225, 30),
    "metrala": (207, 1722, 3224),
    "montevideobus": (678, 690, 734),
}

DATASET_FREQUENCIES = {
    "wikimath": "daily",
    "chickenpox": "weekly",
    "pedalme": "weekly",
    "metrala": "5min",
    "montevideobus": "hourly",
}

BINARY_SUFFIXES = (".zip", ".h5", ".hdf5", ".npz")

METRALA_RECIPE = (
    "this dataset is published as a compressed binary archive; extract the "
    "HDF5 speed matrix and write a flat JSON file with fields 'edges' "
    "(sensor-index pairs), 'weights' (edge weights) and 'X' (one row of "
    "per-sensor speeds per 5-minute step), then convert that file"
)


def _found_fields(doc):
    if isinstance(doc, dict):
        names = ", ".join(sorted(doc)) or "(none)"
        return f"found fields: {names}"
    return f"found a top-level {type(doc).__name__}"


def _require(doc, keys, kind):
    if not isinstance(doc, dict) or any(k not in doc for k in keys):
        raise AdapterError(f"unrecognized {kind} layout; {_found_fields(doc)}")


def _pairs(raw, kind):
    if not isinstance(raw, list):
        raise AdapterError(f"{kind}: 'edges' must be an array of [src, dst] pairs")
    try:
        return index_pairs(raw)
    except ContractError as exc:
        raise AdapterError(f"{kind}: {exc}") from None


def _floats(raw, kind, field):
    try:
        return json_floats(raw, f"'{field}'")
    except ContractError as exc:
        raise AdapterError(f"{kind}: {exc}") from None


def _time_major_features(raw, kind, field):
    # raw is the field's JSON value, or the array read_json_rows built of it
    features = _floats(raw, kind, field)
    if features.ndim == 2:
        features = features[:, :, None]
    if features.ndim != 3:
        raise AdapterError(
            f"{kind}: '{field}' must have one row per snapshot, got shape {features.shape}"
        )
    return features


# the flat layouts: the fields each file must carry, its time-major features last
_FLAT_FIELDS = {
    "chickenpox": ("edges", "FX"),
    "pedalme": ("edges", "weights", "X"),
    "metrala": ("edges", "weights", "X"),
}


def _adapt_flat(doc, kind):
    fields = _FLAT_FIELDS[kind]
    _require(doc, fields, kind)
    return (
        _pairs(doc["edges"], kind),
        _floats(doc["weights"], kind, "weights") if "weights" in fields else None,
        _time_major_features(doc[fields[-1]], kind, fields[-1]),
    )


def _adapt_wikimath(doc):
    _require(doc, ("edges", "weights", "time_periods"), "wikimath")
    periods = doc["time_periods"]
    if type(periods) is not int:
        raise AdapterError(f"wikimath: 'time_periods' must be a JSON integer, "
                           f"got {json.dumps(periods)}")
    rows = []
    for t in range(periods):
        snap = doc.get(str(t))
        if not isinstance(snap, dict) or "y" not in snap:
            raise AdapterError(
                f"wikimath: missing per-period entry '{t}' with a 'y' series"
            )
        rows.append(snap["y"])
    return (
        _pairs(doc["edges"], "wikimath"),
        _floats(doc["weights"], "wikimath", "weights"),
        _time_major_features(rows, "wikimath", "y"),
    )


def _node_series(node):
    # the per-node series lives under "y", sometimes nested one level down
    if "y" in node:
        return node["y"]
    nested = node.get("X")
    if isinstance(nested, dict) and "y" in nested:
        return nested["y"]
    return None


def _adapt_montevideobus(doc):
    _require(doc, ("nodes", "links"), "montevideobus")
    for member in ("nodes", "links"):
        if not isinstance(doc[member], list):
            raise AdapterError(f"montevideobus: '{member}' must be an array, "
                               f"not {type(doc[member]).__name__}")
    nodes = doc["nodes"]
    series = []
    for i, node in enumerate(nodes):
        values = _node_series(node) if isinstance(node, dict) else None
        if values is None:
            raise AdapterError(f"montevideobus: node {i} has no 'y' series")
        series.append(values)

    links = doc["links"]
    raw_edges = []
    weights = []
    for i, link in enumerate(links):
        if not isinstance(link, dict) or "source" not in link or "target" not in link:
            raise AdapterError(f"montevideobus: link {i} has no source/target")
        raw_edges.append((link["source"], link["target"]))
        weights.append(link.get("weight", 1.0))

    if any(isinstance(e, bool) or not isinstance(e, int) for pair in raw_edges for e in pair):
        # endpoints given as stop labels, map them through the node list
        index = {node.get("bus_stop"): i for i, node in enumerate(nodes)}
        try:
            raw_edges = [(index[s], index[d]) for s, d in raw_edges]
        except KeyError as exc:
            raise AdapterError(
                f"montevideobus: link endpoint {exc.args[0]!r} matches no node's bus_stop"
            ) from exc

    features = _time_major_features(series, "montevideobus", "y")
    return (_pairs(raw_edges, "montevideobus"), _floats(weights, "montevideobus", "weight"),
            features.transpose(1, 0, 2))


_ADAPTERS = {kind: partial(_adapt_flat, kind=kind) for kind in _FLAT_FIELDS} | {
    "wikimath": _adapt_wikimath,
    "montevideobus": _adapt_montevideobus,
}

DATASET_KINDS = tuple(sorted(_ADAPTERS))


def adapt_dataset(raw, kind: str, out=None, check_counts: bool = True) -> TemporalGraphSignal:
    """Convert a published dataset file into a canonical signal.

    Writes the canonical file to `out` when given and returns the signal.
    A file that does not fit its kind's layout is an `AdapterError` naming it.
    With `check_counts` the result must match the published
    (nodes, edges, snapshots) shape for that kind; disable it to convert
    trimmed fixtures through the same code path.
    """
    if kind not in DATASET_KINDS:
        raise ContractError(
            f"unknown dataset kind {kind!r}; expected one of {', '.join(DATASET_KINDS)}"
        )

    raw = Path(raw)
    if kind == "metrala" and raw.suffix.lower() in BINARY_SUFFIXES:
        raise AdapterError(f"metrala: {METRALA_RECIPE}")
    if raw.suffix.lower() in BINARY_SUFFIXES:
        raise AdapterError(f"{kind}: expected a JSON file, got {raw.suffix!r}")
    try:
        # a flat layout's features are read a row at a time (read_json_rows)
        doc = read_json_rows(raw, _FLAT_FIELDS[kind][-1]) if kind in _FLAT_FIELDS else read_json(raw)
    except ParseError as exc:
        recipe = f"; {METRALA_RECIPE}" if kind == "metrala" else ""
        raise AdapterError(f"{kind}: {exc}{recipe}") from exc

    try:
        edges, weights, features = _ADAPTERS[kind](doc)
    except AdapterError as exc:
        raise AdapterError(f"{raw}: {exc}") from None
    del doc  # as large as the signal itself; free it before the canonical write
    signal = TemporalGraphSignal(
        name=kind,
        num_nodes=features.shape[1],
        edges=edges,
        weights=weights,
        features=features,
        frequency=DATASET_FREQUENCIES[kind],
    )
    del features  # the signal holds its own copy

    if check_counts:
        expected = DATASET_SHAPES[kind]
        actual = (signal.num_nodes, signal.num_edges, signal.num_snapshots)
        if actual != expected:
            raise AdapterError(
                f"{kind}: converted shape (nodes, edges, snapshots) = {actual} "
                f"does not match the published {expected}"
            )

    if out is not None:
        write_canonical(signal, out)
    return signal
