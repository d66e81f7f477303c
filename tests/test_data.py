import json

import numpy as np
import pytest

from synth import DATASET_SHAPES, published_arcs, published_signal
from tgsim.data import (
    NodeBounds,
    TemporalGraphSignal,
    load_canonical,
    node_bounds,
    normalize_features,
    normalized_adjacency,
    write_canonical,
)
from tgsim.errors import ContractError, ParseError


def minimal_doc():
    return {
        "name": "mini",
        "num_nodes": 2,
        "frequency": "weekly",
        "edges": [[0, 1]],
        "features": [[[1.0], [2.0]], [[3.0], [4.0]], [[5.0], [6.0]]],
    }


def write_doc(tmp_path, doc, name="signal.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def random_signal(rng, n=6, s=40, f=2, name="random"):
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    features = rng.normal(size=(s, n, f))
    return TemporalGraphSignal(name, n, tuple(edges), None, features)


class TestCanonicalFormat:
    def test_minimal_document_round_trips(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc())
        signal = load_canonical(path)
        assert signal.num_nodes == 2
        assert signal.num_snapshots == 3
        assert signal.num_channels == 1
        assert signal.edges == ((0, 1),)
        assert signal.weights.tolist() == [1.0]
        assert signal.frequency == "weekly"

        out = tmp_path / "copy.json"
        write_canonical(signal, out)
        again = load_canonical(out)
        assert again.name == signal.name
        assert again.num_nodes == signal.num_nodes
        assert again.edges == signal.edges
        assert again.frequency == signal.frequency
        assert np.array_equal(again.weights, signal.weights)
        assert np.array_equal(again.features, signal.features)

    def test_round_trip_preserves_random_floats_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        signal = random_signal(rng)
        path = tmp_path / "random.json"
        write_canonical(signal, path)
        again = load_canonical(path)
        assert np.array_equal(again.features, signal.features)

    def test_edge_index_out_of_range(self, tmp_path):
        doc = minimal_doc()
        doc["edges"] = [[5, 0]]
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match=r"edges\[0\].*out of range"):
            load_canonical(path)

    @pytest.mark.parametrize("missing", ["name", "num_nodes", "edges", "frequency", "features"])
    def test_missing_required_field(self, tmp_path, missing):
        doc = minimal_doc()
        del doc[missing]
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match=missing):
            load_canonical(path)

    def test_ragged_snapshot_is_located(self, tmp_path):
        doc = minimal_doc()
        doc["features"] = [[[1.0], [2.0]], [[3.0]]]
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match=r"features\[1\]"):
            load_canonical(path)

    def test_ragged_channel_row_is_located(self, tmp_path):
        doc = minimal_doc()
        doc["features"] = [[[1.0], [2.0]], [[3.0], [4.0, 5.0]]]
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match=r"features\[1\]\[1\]"):
            load_canonical(path)

    def test_non_finite_value_is_located(self, tmp_path):
        doc = minimal_doc()
        text = json.dumps(doc).replace("4.0", "NaN")
        path = tmp_path / "nan.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=r"features\[1\]\[1\]\[0\].*non-finite"):
            load_canonical(path)

    def test_weight_length_mismatch(self, tmp_path):
        doc = minimal_doc()
        doc["weights"] = [1.0, 2.0]
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match="weights"):
            load_canonical(path)

    def test_negative_weight_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["weights"] = [-1.0]
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match=r"weights\[0\].*negative"):
            load_canonical(path)

    def test_unknown_field_rejected_when_strict(self, tmp_path):
        doc = minimal_doc()
        doc["extra"] = 1
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match="extra"):
            load_canonical(path)

    def test_invalid_json_reports_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="broken.json"):
            load_canonical(path)

    def test_boolean_is_not_an_index(self, tmp_path):
        doc = minimal_doc()
        doc["edges"] = [[True, 0]]
        path = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match=r"edges\[0\]"):
            load_canonical(path)


def sidecar_of(path):
    return path.with_name(path.name + ".npy")


def assert_same_signal(a, b):
    assert (a.name, a.num_nodes, a.frequency, a.edges) == (b.name, b.num_nodes, b.frequency, b.edges)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.features.shape == b.features.shape
    assert a.features.tobytes() == b.features.tobytes()


def awkward_signal(seed=3, n=5, s=7, f=2, name="awkward"):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(s, n, f)) * 10.0 ** rng.integers(-300, 300, size=(s, n, f))
    features[0, 0, 0] = -0.0
    features[0, 1, 0] = 5e-324
    features[1, 0, 1] = -2.2250738585072e-310
    weights = rng.random(4)
    weights[0] = -0.0
    weights[1] = 1e-320
    return TemporalGraphSignal(
        name, n, ((0, 1), (1, 2), (3, 3), (4, 0)), weights, features, "irregular"
    )


class TestCanonicalSidecar:
    @pytest.mark.parametrize("make", [
        lambda: awkward_signal(),
        lambda: random_signal(np.random.default_rng(11)),
        lambda: TemporalGraphSignal("no edges \u00e9\ud800", 3, (), None, np.ones((2, 3, 1))),
    ])
    def test_sidecar_and_json_give_the_same_signal(self, tmp_path, monkeypatch, make):
        signal = make()
        path = tmp_path / "signal.json"
        write_canonical(signal, path)
        assert sidecar_of(path).is_file()
        with monkeypatch.context() as patched:
            # with a matching sidecar the JSON is hashed, never parsed
            patched.setattr(json, "load", None)
            from_sidecar = load_canonical(path)
        sidecar_of(path).unlink()
        from_json = load_canonical(path)
        assert_same_signal(from_sidecar, from_json)
        assert_same_signal(from_sidecar, signal)
        assert not from_sidecar.features.flags.writeable
        assert not from_sidecar.weights.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: awkward_signal(),
        lambda: random_signal(np.random.default_rng(12)),
        lambda: TemporalGraphSignal("no edges \u00e9\ud800", 3, (), None, np.ones((2, 3, 1))),
    ])
    def test_json_is_one_dumps_of_the_document(self, tmp_path, make):
        signal = make()
        path = tmp_path / "signal.json"
        write_canonical(signal, path)
        doc = {
            "name": signal.name, "num_nodes": signal.num_nodes, "frequency": signal.frequency,
            "edges": [[s, d] for s, d in signal.edges], "weights": signal.weights.tolist(),
            "features": signal.features.tolist(),
        }
        assert path.read_bytes() == json.dumps(doc, separators=(",", ":")).encode("utf-8")

    def test_writes_are_byte_identical(self, tmp_path):
        signal = awkward_signal()
        first, second = tmp_path / "a" / "s.json", tmp_path / "b" / "s.json"
        for path in (first, second, first):
            path.parent.mkdir(exist_ok=True)
            write_canonical(signal, path)
        assert sidecar_of(first).read_bytes() == sidecar_of(second).read_bytes()
        assert sorted(p.name for p in first.parent.iterdir()) == ["s.json", "s.json.npy"]

    def test_unwritable_sidecar_leaves_the_json_alone(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError("read-only directory")

        path = tmp_path / "signal.json"
        signal = awkward_signal()
        write_canonical(signal, path)
        stale = sidecar_of(path).read_bytes()
        edited = TemporalGraphSignal("edited", 2, ((0, 1),), None, np.ones((2, 2, 1)))
        monkeypatch.setattr("tgsim.data.tempfile.mkstemp", refuse)
        write_canonical(edited, path)
        assert sidecar_of(path).read_bytes() == stale
        assert_same_signal(load_canonical(path), edited)

    def test_json_edited_after_writing_wins(self, tmp_path):
        path = tmp_path / "signal.json"
        write_canonical(awkward_signal(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["features"][2][3][1] = 42.0
        doc["name"] = "edited"
        path.write_text(json.dumps(doc), encoding="utf-8")
        signal = load_canonical(path)
        assert signal.name == "edited"
        assert signal.features[2, 3, 1] == 42.0
        sidecar_of(path).unlink()
        assert_same_signal(signal, load_canonical(path))

    def test_damaged_sidecar_is_ignored(self, tmp_path):
        path = tmp_path / "signal.json"
        write_canonical(awkward_signal(), path)
        whole = sidecar_of(path).read_bytes()
        sidecar_of(path).unlink()
        expected = load_canonical(path)
        at = whole.rindex(b"<f8")  # the features' dtype in their .npy header
        for damaged in (b"", whole[:10], whole[:200], whole[:-1], whole + b"\0",
                        b"PK\x03\x04" + whole[4:], whole[:at] + b"<f4" + whole[at + 3:]):
            sidecar_of(path).write_bytes(damaged)
            assert_same_signal(load_canonical(path), expected)

    def test_sidecar_of_another_signal_is_ignored(self, tmp_path):
        path, other = tmp_path / "signal.json", tmp_path / "other.json"
        write_canonical(awkward_signal(seed=3), path)
        write_canonical(awkward_signal(seed=4), other)
        sidecar_of(path).write_bytes(sidecar_of(other).read_bytes())
        signal = load_canonical(path)
        sidecar_of(path).unlink()
        assert_same_signal(signal, load_canonical(path))
        assert not np.array_equal(signal.features, load_canonical(other).features)

    def test_parse_errors_still_raise_beside_a_sidecar(self, tmp_path):
        path = tmp_path / "broken.json"
        write_canonical(awkward_signal(), path)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="broken.json"):
            load_canonical(path)
        doc = minimal_doc()
        doc["edges"] = [[5, 0]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match=r"edges\[0\].*out of range"):
            load_canonical(path)

    @pytest.mark.parametrize("field", ["name", "frequency"])
    def test_non_string_metadata_is_rejected_despite_the_sidecar(self, tmp_path, field):
        # the signal type accepts these, the canonical format does not
        values = {"name": "ok", "frequency": "ok", field: 7}
        signal = TemporalGraphSignal(
            values["name"], 2, ((0, 1),), None, np.ones((2, 2, 1)), values["frequency"]
        )
        path = tmp_path / "signal.json"
        write_canonical(signal, path)
        with pytest.raises(ParseError, match=field):
            load_canonical(path)

    def test_loading_writes_nothing(self, tmp_path):
        fresh, stale = tmp_path / "fresh.json", tmp_path / "stale.json"
        write_canonical(awkward_signal(), fresh)
        write_canonical(awkward_signal(), stale)
        stale.write_text(stale.read_text(encoding="utf-8").replace("irregular", "daily"),
                         encoding="utf-8")
        plain = write_doc(tmp_path, minimal_doc(), name="plain.json")

        def listing():
            return sorted((p.name, p.stat().st_mtime_ns) for p in tmp_path.iterdir())

        before = listing()
        tmp_path.chmod(0o555)
        try:
            for path in (fresh, stale, plain):
                load_canonical(path)
        finally:
            tmp_path.chmod(0o755)
        assert listing() == before


class TestSignalType:
    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc())
        signal = load_canonical(path)
        with pytest.raises(ValueError):
            signal.features[0, 0, 0] = 9.0
        with pytest.raises(ValueError):
            signal.weights[0] = 9.0

    def test_constructor_copies_caller_arrays(self):
        features = np.ones((2, 2, 1))
        signal = TemporalGraphSignal("s", 2, ((0, 1),), None, features)
        features[0, 0, 0] = 5.0
        assert signal.features[0, 0, 0] == 1.0
        features[1, 1, 0] = 7.0  # caller's array stays writeable

    def test_constructor_rejects_bad_edges(self):
        with pytest.raises(ContractError, match=r"\(3, 0\)"):
            TemporalGraphSignal("s", 2, ((3, 0),), None, np.ones((1, 2, 1)))

    def test_constructor_rejects_non_finite_features(self):
        features = np.ones((1, 2, 1))
        features[0, 0, 0] = np.inf
        with pytest.raises(ContractError, match="non-finite"):
            TemporalGraphSignal("s", 2, (), None, features)


class TestNormalizedAdjacency:
    def test_single_node_no_edges(self):
        signal = TemporalGraphSignal("s", 1, (), None, np.ones((1, 1, 1)))
        assert np.array_equal(normalized_adjacency(signal), [[1.0]])

    def test_two_nodes_one_unit_edge(self):
        signal = TemporalGraphSignal("s", 2, ((0, 1),), None, np.ones((1, 2, 1)))
        a_hat = normalized_adjacency(signal)
        assert np.allclose(a_hat, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_three_node_path_matches_explicit_product(self):
        # oracle: build A + I and D by hand, multiply the three matrices
        signal = TemporalGraphSignal("s", 3, ((0, 1), (1, 2)), None, np.ones((1, 3, 1)))
        a_tilde = np.array([
            [1.0, 1.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ])
        d_inv_sqrt = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
        oracle = d_inv_sqrt @ a_tilde @ d_inv_sqrt
        assert np.allclose(normalized_adjacency(signal), oracle, atol=1e-15)

    def test_symmetric_nonnegative_and_descales_exactly(self):
        rng = np.random.default_rng(3)
        signal = random_signal(rng, n=8)
        a_hat = normalized_adjacency(signal)
        assert np.array_equal(a_hat, a_hat.T)
        assert (a_hat >= 0).all()

        a_tilde = np.zeros((8, 8))
        for s, d in signal.edges:
            a_tilde[s, d] = 1.0
        np.fill_diagonal(a_tilde, 1.0)
        degree = a_tilde.sum(axis=1)
        descaled = np.sqrt(degree)[:, None] * a_hat * np.sqrt(degree)[None, :]
        assert np.abs(descaled - a_tilde).max() < 1e-12

    def test_input_self_loop_replaces_identity_entry(self):
        signal = TemporalGraphSignal(
            "s", 2, ((0, 0), (0, 1)), np.array([2.0, 1.0]), np.ones((1, 2, 1))
        )
        a_hat = normalized_adjacency(signal)
        degree = np.array([3.0, 2.0])  # row sums of [[2,1],[1,1]]
        oracle = np.array([[2.0, 1.0], [1.0, 1.0]]) / np.sqrt(np.outer(degree, degree))
        assert np.allclose(a_hat, oracle, atol=1e-15)

    def test_one_way_edge_counts_both_ways(self):
        signal = TemporalGraphSignal("s", 2, ((0, 1),), np.array([3.0]), np.ones((1, 2, 1)))
        a_hat = normalized_adjacency(signal)
        # [[1, 3], [3, 1]] has both degrees 4
        assert np.array_equal(a_hat, np.array([[1.0, 3.0], [3.0, 1.0]]) / 4.0)

    def test_zero_weight_edge_never_divides_by_zero(self):
        signal = TemporalGraphSignal(
            "s", 2, ((0, 1),), np.array([0.0]), np.ones((1, 2, 1))
        )
        a_hat = normalized_adjacency(signal)
        assert np.isfinite(a_hat).all()
        assert np.array_equal(a_hat, np.eye(2))

    def test_duplicate_edges_accumulate(self):
        signal = TemporalGraphSignal(
            "s", 2, ((0, 1), (0, 1)), np.array([1.0, 2.0]), np.ones((1, 2, 1))
        )
        a_hat = normalized_adjacency(signal)
        degree = np.array([4.0, 4.0])  # row sums of [[1,3],[3,1]]
        assert np.allclose(a_hat[0, 1], 3.0 / np.sqrt(degree[0] * degree[1]), atol=1e-15)

    def test_built_once_per_signal_and_read_only(self):
        signal = random_signal(np.random.default_rng(4), n=5)
        a_hat = normalized_adjacency(signal)
        assert normalized_adjacency(signal) is a_hat
        assert not a_hat.flags.writeable

    @pytest.mark.parametrize("name", sorted(DATASET_SHAPES))
    def test_published_shapes_match_the_formula_byte_for_byte(self, name):
        # built apart from the edge tuples: the generator's arc arrays, set
        # once each (they are distinct), then the documented formula
        signal = published_signal(name, snapshots=1)
        src, dst, weights = published_arcs(name)
        n = DATASET_SHAPES[name][0]
        assert (signal.num_nodes, signal.num_edges) == DATASET_SHAPES[name]
        adj = np.zeros((n, n))
        adj[src, dst] = weights
        adj = np.maximum(adj, adj.T)
        adj[np.diag_indices(n)] = 1.0  # no self-loops
        inv_sqrt_degree = 1.0 / np.sqrt(adj.sum(axis=1))
        expected = inv_sqrt_degree[:, None] * adj * inv_sqrt_degree[None, :]
        assert normalized_adjacency(signal).tobytes() == expected.tobytes()

class TestNodeBounds:
    def test_constant_features(self):
        signal = TemporalGraphSignal("s", 2, (), None, np.full((4, 2, 3), 2.5))
        bounds = node_bounds(signal)
        assert np.array_equal(bounds.mins, np.full((2, 3), 2.5))
        assert np.array_equal(bounds.maxs, np.full((2, 3), 2.5))

    def test_single_node_series(self):
        features = np.array([1.0, 5.0, 3.0]).reshape(3, 1, 1)
        signal = TemporalGraphSignal("s", 1, (), None, features)
        bounds = node_bounds(signal)
        assert bounds.mins[0, 0] == 1.0
        assert bounds.maxs[0, 0] == 5.0

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(11)
        features = rng.normal(size=(520, 20, 2))
        signal = TemporalGraphSignal("s", 20, (), None, features)
        bounds = node_bounds(signal)
        for node in range(20):
            for channel in range(2):
                lo = min(features[t, node, channel] for t in range(520))
                hi = max(features[t, node, channel] for t in range(520))
                assert bounds.mins[node, channel] == lo
                assert bounds.maxs[node, channel] == hi

    @pytest.mark.parametrize("seed", range(5))
    def test_enlarging_the_range_is_monotone(self, seed):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, n=4, s=30, f=2)
        start = int(rng.integers(0, 10))
        stop = int(rng.integers(start + 1, 31))
        inner = node_bounds(TemporalGraphSignal(
            signal.name, signal.num_nodes, signal.edges, signal.weights,
            signal.features[start:stop]))
        outer = node_bounds(signal)
        assert (outer.mins <= inner.mins).all()
        assert (outer.maxs >= inner.maxs).all()

    def test_bounds_type_validates(self):
        with pytest.raises(ContractError, match="minimum"):
            NodeBounds(mins=np.ones((2, 1)), maxs=np.zeros((2, 1)))
        with pytest.raises(ContractError, match="finite"):
            NodeBounds(mins=np.array([[np.nan]]), maxs=np.array([[1.0]]))
        with pytest.raises(ContractError, match="matching"):
            NodeBounds(mins=np.zeros((2, 1)), maxs=np.zeros((3, 1)))


class TestMinMaxNormalize:
    def test_simple_series(self):
        features = np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1)
        signal = TemporalGraphSignal("s", 1, (), None, features)
        normalized = normalize_features(signal.features, node_bounds(signal))
        assert normalized.reshape(-1).tolist() == [0.0, 0.5, 1.0]

    def test_degenerate_range_maps_to_zero(self):
        features = np.full((3, 1, 1), 7.0)
        signal = TemporalGraphSignal("s", 1, (), None, features)
        normalized = normalize_features(signal.features, node_bounds(signal))
        assert np.array_equal(normalized, np.zeros((3, 1, 1)))

    def test_out_of_range_input_is_allowed(self):
        bounds = NodeBounds(mins=np.zeros((1, 1)), maxs=np.ones((1, 1)))
        out = normalize_features(np.full((1, 1), 2.0), bounds)
        assert out[0, 0] == 2.0

    def test_matches_direct_formula_on_random_signal(self):
        rng = np.random.default_rng(23)
        signal = random_signal(rng, n=5, s=50, f=2)
        bounds = node_bounds(signal)
        normalized = normalize_features(signal.features, bounds)
        node, channel = 0, 1
        lo = bounds.mins[node, channel]
        hi = bounds.maxs[node, channel]
        oracle = (signal.features[:, node, channel] - lo) / (hi - lo)
        assert np.allclose(normalized[:, node, channel], oracle, atol=1e-15)
        assert normalized.min() >= 0.0
        assert normalized.max() <= 1.0

    def test_shape_mismatch_rejected(self):
        bounds = NodeBounds(mins=np.zeros((2, 1)), maxs=np.ones((2, 1)))
        with pytest.raises(ContractError, match="bounds cover"):
            normalize_features(np.zeros((3, 1)), bounds)
