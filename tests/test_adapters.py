import json
import random

import numpy as np
import pytest

import tgsim.cli
from mutate import mutate_tree
from tgsim import data as data_module
from tgsim.adapters import DATASET_FREQUENCIES, DATASET_KINDS, DATASET_SHAPES, adapt_dataset
from tgsim.data import TemporalGraphSignal, load_canonical
from tgsim.errors import AdapterError, ContractError, TgsimError


def dump(tmp_path, doc, name="raw.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def ring_edges(n):
    pairs = []
    for i in range(n):
        pairs.append([i, (i + 1) % n])
        pairs.append([(i + 1) % n, i])
    return pairs


class TestChickenpoxLayout:
    def test_mini_fixture_converts(self, tmp_path):
        fx = [[float(t * 10 + n) for n in range(3)] for t in range(5)]
        path = dump(tmp_path, {"edges": ring_edges(3), "FX": fx})
        out = tmp_path / "canonical.json"
        signal = adapt_dataset(path, "chickenpox", out, check_counts=False)
        assert signal.num_nodes == 3
        assert signal.num_snapshots == 5
        assert signal.num_channels == 1
        assert signal.features[2, 1, 0] == 21.0
        assert signal.frequency == "weekly"

        loaded = load_canonical(out)
        assert np.array_equal(loaded.features, signal.features)
        assert loaded.edges == signal.edges

    def test_count_check_rejects_mini_fixture(self, tmp_path):
        fx = [[0.0, 1.0, 2.0]]
        path = dump(tmp_path, {"edges": ring_edges(3), "FX": fx})
        with pytest.raises(AdapterError, match="published"):
            adapt_dataset(path, "chickenpox", check_counts=True)

    def test_count_check_accepts_published_shape(self, tmp_path):
        n, e, s = DATASET_SHAPES["chickenpox"]
        edges = []
        i = 0
        while len(edges) < e:
            a, b = i % n, (i + 1 + i // n) % n
            edges.append([a, b])
            edges.append([b, a])
            i += 1
        fx = np.zeros((s, n)).tolist()
        path = dump(tmp_path, {"edges": edges[:e], "FX": fx})
        signal = adapt_dataset(path, "chickenpox")
        assert (signal.num_nodes, signal.num_edges, signal.num_snapshots) == (n, e, s)


class TestPedalmeLayout:
    def test_mini_fixture_converts(self, tmp_path):
        doc = {
            "edges": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "weights": [1.0, 2.0, 2.0, 1.0],
            "X": [[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]],
        }
        path = dump(tmp_path, doc)
        signal = adapt_dataset(path, "pedalme", check_counts=False)
        assert signal.num_nodes == 2
        assert signal.num_snapshots == 3
        assert signal.weights.tolist() == [1.0, 2.0, 2.0, 1.0]
        assert signal.features[1, 1, 0] == 3.5

    def test_full_shape_passes_count_check(self, tmp_path):
        n, e, s = DATASET_SHAPES["pedalme"]
        # all ordered pairs including self-loops, matching the published count
        edges = [[a, b] for a in range(n) for b in range(n)]
        assert len(edges) == e
        doc = {
            "edges": edges,
            "weights": [1.0] * e,
            "X": np.zeros((s, n)).tolist(),
        }
        signal = adapt_dataset(dump(tmp_path, doc), "pedalme")
        assert signal.num_snapshots == s


class TestWikimathLayout:
    def test_mini_fixture_converts(self, tmp_path):
        doc = {
            "edges": [[0, 1], [2, 1]],
            "weights": [3.0, 4.0],
            "time_periods": 4,
        }
        for t in range(4):
            doc[str(t)] = {"y": [float(t), float(t) + 0.5, float(t) + 0.25]}
        signal = adapt_dataset(dump(tmp_path, doc), "wikimath", check_counts=False)
        assert signal.num_nodes == 3
        assert signal.num_snapshots == 4
        assert signal.features[3, 1, 0] == 3.5
        assert signal.frequency == "daily"

    def test_missing_period_entry(self, tmp_path):
        doc = {"edges": [[0, 1]], "weights": [1.0], "time_periods": 3, "0": {"y": [1.0, 2.0]}}
        with pytest.raises(AdapterError, match="'1'"):
            adapt_dataset(dump(tmp_path, doc), "wikimath", check_counts=False)


class TestMontevideobusLayout:
    def test_node_link_fixture_converts(self, tmp_path):
        doc = {
            "nodes": [
                {"bus_stop": "a", "y": [1.0, 2.0]},
                {"bus_stop": "b", "y": [3.0, 4.0]},
            ],
            "links": [{"source": 0, "target": 1, "weight": 2.5}],
        }
        signal = adapt_dataset(dump(tmp_path, doc), "montevideobus", check_counts=False)
        assert signal.num_nodes == 2
        assert signal.num_snapshots == 2
        assert signal.features[0, 1, 0] == 3.0
        assert signal.features[1, 0, 0] == 2.0
        assert signal.weights.tolist() == [2.5]

    def test_stop_labels_map_to_indices(self, tmp_path):
        doc = {
            "nodes": [
                {"bus_stop": "a", "y": [1.0]},
                {"bus_stop": "b", "y": [2.0]},
            ],
            "links": [{"source": "b", "target": "a", "weight": 1.0}],
        }
        signal = adapt_dataset(dump(tmp_path, doc), "montevideobus", check_counts=False)
        assert signal.edges == ((1, 0),)

    def test_node_without_series(self, tmp_path):
        doc = {"nodes": [{"bus_stop": "a"}], "links": []}
        with pytest.raises(AdapterError, match="node 0"):
            adapt_dataset(dump(tmp_path, doc), "montevideobus", check_counts=False)


class TestMetralaLayout:
    def test_flat_json_converts(self, tmp_path):
        doc = {
            "edges": [[0, 1], [1, 2]],
            "weights": [0.5, 0.5],
            "X": [[60.0, 61.0, 62.0], [58.0, 59.0, 60.0]],
        }
        signal = adapt_dataset(dump(tmp_path, doc), "metrala", check_counts=False)
        assert signal.num_nodes == 3
        assert signal.num_snapshots == 2
        assert signal.frequency == "5min"

    def test_archive_input_points_at_recipe(self, tmp_path):
        path = tmp_path / "raw.zip"
        path.write_bytes(b"PK\x03\x04junk")
        with pytest.raises(AdapterError, match="binary archive"):
            adapt_dataset(path, "metrala")

    def test_binary_content_points_at_recipe(self, tmp_path):
        path = tmp_path / "raw.json"
        path.write_bytes(bytes(range(256)))
        with pytest.raises(AdapterError, match="binary archive"):
            adapt_dataset(path, "metrala")


class TestAdapterErrors:
    def test_unknown_kind_lists_valid_ones(self, tmp_path):
        path = dump(tmp_path, {})
        with pytest.raises(ContractError, match="chickenpox"):
            adapt_dataset(path, "nosuch")

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_empty_document_lists_found_fields(self, tmp_path, kind):
        path = dump(tmp_path, {"stray": 1})
        with pytest.raises(AdapterError, match="stray"):
            adapt_dataset(path, kind, check_counts=False)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(AdapterError, match="not valid JSON"):
            adapt_dataset(path, "chickenpox")

    @pytest.mark.parametrize("field", ["X", "weights"])
    def test_integer_past_float_range_refused(self, tmp_path, field):
        doc = {"edges": [[0, 1], [1, 0]], "weights": [1.0, 1.0], "X": [[0.5, 0.5], [0.5, 0.5]]}
        if field == "X":
            doc["X"][1][0] = 10 ** 400
        else:
            doc["weights"][1] = 10 ** 400
        with pytest.raises(AdapterError, match=f"'{field}'.*too large"):
            adapt_dataset(dump(tmp_path, doc), "metrala", check_counts=False)

    def test_edges_object_refused(self, tmp_path):
        doc = {"edges": {}, "FX": [[0.5, 0.5]]}
        with pytest.raises(AdapterError, match="'edges' must be an array"):
            adapt_dataset(dump(tmp_path, doc), "chickenpox", check_counts=False)

    @pytest.mark.parametrize("endpoint", [0.5, 1.0, "2", True, None])
    def test_non_integer_endpoint_refused(self, tmp_path, endpoint):
        doc = {"edges": [[0, 1], [endpoint, 2]], "weights": [1.0, 1.0],
               "X": [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]}
        with pytest.raises(AdapterError,
                           match=r"metrala: edges\[1\]: expected an integer node index"):
            adapt_dataset(dump(tmp_path, doc), "metrala", check_counts=False)

    @pytest.mark.parametrize("spelling", ["ChickenPox", "CHICKENPOX", "MetrLA"])
    def test_other_kind_spellings_refused(self, tmp_path, spelling):
        path = dump(tmp_path, {"edges": [[0, 1]], "FX": [[0.0, 1.0]]})
        with pytest.raises(ContractError, match=f"expected one of {', '.join(DATASET_KINDS)}"):
            adapt_dataset(path, spelling, check_counts=False)


class TestFlatReaderMemory:
    def test_convert_holds_less_than_twice_the_file(self, tmp_path):
        import tracemalloc

        # json.load's tree alone (a float object and a list slot per value)
        # is larger than the file; a converting reader holds 2.7 times the file
        n, s = 100, 2000
        x = np.random.default_rng(5).normal(50.0, 10.0, size=(s, n))
        path = dump(tmp_path, {"edges": ring_edges(n), "weights": [1.0] * (2 * n),
                               "X": x.tolist()})
        tracemalloc.start()
        try:
            signal = adapt_dataset(path, "metrala", tmp_path / "canonical.json",
                                   check_counts=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert signal.features[:, :, 0].tobytes() == x.tobytes()
        assert peak < 2 * path.stat().st_size


# structural mutations set one JSON path to one of these, or delete it
FLAT_FIELDS = {"chickenpox": ("edges", "FX"), "pedalme": ("edges", "weights", "X"),
               "metrala": ("edges", "weights", "X")}


def flat_doc(kind, rng, n=3, s=5):
    doc = {"edges": ring_edges(n)}
    if "weights" in FLAT_FIELDS[kind]:
        doc["weights"] = [0.5] * (2 * n)
    doc[FLAT_FIELDS[kind][-1]] = [[round(rng.uniform(-100.0, 100.0), rng.randrange(17))
                                   for _ in range(n)] for _ in range(s)]
    return doc


def mutate_text(text, field, rng) -> bytes:
    """One textual change: cut, prefixed, extended, a character in or out, and so on."""
    at = rng.randrange(len(text) + 1)
    choice = rng.randrange(9)
    if choice == 0:
        text = text[:at]
    elif choice == 1:
        text = "\ufeff" + text
    elif choice == 2:
        text += rng.choice([" x", "{}", " 1", "\n\n", "]", ","])
    elif choice == 3:
        text = text[:at] + rng.choice('{}[],:"0 -.eE\nx') + text[at:]
    elif choice == 4:
        text = text[:at] + text[at + 1:]
    elif choice == 5:
        text = text.replace("\n", "\r\n").replace(",", ",\r")
    elif choice == 6:  # a second feature field: json keeps the last
        text = text.rstrip()[:-1] + f', "{field}": ' + json.dumps(
            rng.choice([[[1.0, 2.0, 3.0]], [[1.0], [2.0, 3.0]], [], "x"])) + "}"
    elif choice == 7:
        text = "[" + text + "]"
    else:
        data = text.encode("utf-8")
        return data[:at] + b"\xff" + data[at:]
    return text.encode("utf-8")


def numbers(value, what):
    """`value` as a float64 array when every value in it is a finite JSON int or float."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AdapterError(what) from exc
    values = [value]
    for _ in range(array.ndim):
        values = [item for node in values for item in node]
    # a bool, a string or null is never coerced, nor is NaN or an infinity let through
    if any(type(item) not in (int, float) for item in values) or not np.isfinite(array).all():
        raise AdapterError(what)
    return array


def oracle(path, kind):
    """The signal json.load and a whole-array conversion of JSON numbers give, or their exception."""
    fields = FLAT_FIELDS[kind]
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise AdapterError("not JSON") from exc
    if not isinstance(doc, dict) or any(k not in doc for k in fields):
        raise AdapterError("layout")
    if not isinstance(doc["edges"], list):
        raise AdapterError("edges")
    try:
        edges = [(s, d) for s, d in doc["edges"]]
    except (TypeError, ValueError) as exc:
        raise AdapterError("edges") from exc
    if any(type(value) is not int for pair in edges for value in pair):
        raise AdapterError("edges")  # a float, bool or string endpoint is never coerced
    weights = numbers(doc["weights"], "weights") if "weights" in fields else None
    features = numbers(doc[fields[-1]], "features")
    if features.ndim == 2:
        features = features[:, :, None]
    if features.ndim != 3:
        raise AdapterError("features")
    return TemporalGraphSignal(kind, features.shape[1], tuple(edges), weights, features,
                               DATASET_FREQUENCIES[kind])


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # the type is compared, whatever it is
        return exc


class TestFlatReaderEquivalence:
    @pytest.mark.parametrize("kind", sorted(FLAT_FIELDS))
    def test_mutated_files_give_the_oracles_signal_or_error(self, tmp_path, monkeypatch,
                                                             capsys, kind):
        rng = random.Random(f"flat-{kind}")
        field = FLAT_FIELDS[kind][-1]
        path = tmp_path / "raw.json"
        outcomes = set()
        for case in range(120):
            doc = flat_doc(kind, rng)
            for _ in range(rng.randrange(3)):
                mutate_tree(doc, rng)
            text = json.dumps(doc, indent=rng.choice([None, 0, 2]))
            data = mutate_text(text, field, rng) if rng.random() < 0.5 else text.encode()
            path.write_bytes(data)
            # small blocks put block boundaries inside numbers, keys and rows
            monkeypatch.setattr(data_module, "_READ_BLOCK", rng.choice([1, 3, 7, 64, 1 << 18]))
            expected = outcome(oracle, path, kind)
            got = outcome(adapt_dataset, path, kind, check_counts=False)
            where = f"case {case}: {data[:300]!r}"
            if isinstance(expected, Exception):
                assert type(got) is type(expected), where
                code = 2 if isinstance(expected, (TgsimError, OSError)) else type(expected)
            else:
                assert isinstance(got, TemporalGraphSignal), where
                assert (got.num_nodes, got.edges) == (expected.num_nodes, expected.edges), where
                assert got.weights.tobytes() == expected.weights.tobytes(), where
                assert got.features.shape == expected.features.shape, where
                assert got.features.tobytes() == expected.features.tobytes(), where
                code = 0
            argv = ["convert", "--input", str(path), "--kind", kind, "--lenient-counts",
                    "--out-dir", str(tmp_path / "out")]
            exit_code = outcome(tgsim.cli.main, argv)
            assert (exit_code if isinstance(exit_code, int) else type(exit_code)) == code, where
            outcomes.add(code if isinstance(code, int) else code.__name__)
        capsys.readouterr()
        # converted and refused files both occur, and nothing escapes untyped
        assert outcomes == {0, 2}, outcomes
