import json
from fractions import Fraction

import numpy as np
import pytest

from tgsim._seeds import generators, seed_words
from tgsim.data import TemporalGraphSignal, node_bounds
from tgsim.errors import ContractError, ParseError
from tgsim.noise import (
    Bucket,
    LabeledBucket,
    NoiseSpec,
    bucketize,
    inject_noise,
    load_labeled_buckets,
    write_labeled_buckets,
)


def make_signal(rng, n=6, s=40, f=2, name="noise-test"):
    features = rng.normal(size=(s, n, f))
    return TemporalGraphSignal(name, n, ((0, 1), (1, 0)), None, features)


@pytest.fixture
def signal():
    return make_signal(np.random.default_rng(0))


class TestBucketize:
    def test_sliding_window_count(self):
        signal = TemporalGraphSignal("s", 6, (), None, np.zeros((30, 6, 2)))
        buckets = bucketize(signal, 10, 1)
        assert len(buckets) == 21
        assert [b.start for b in buckets[:3]] == [0, 1, 2]

    def test_non_overlapping_count(self):
        signal = TemporalGraphSignal("s", 2, (), None, np.zeros((520, 2, 1)))
        buckets = bucketize(signal, 10, 10)
        # last window starts at 510 and still fits: 510 + 10 <= 520
        assert len(buckets) == 52
        assert buckets[-1].start == 510
        assert all(b.start % 10 == 0 for b in buckets)

    def test_exact_fit_single_bucket(self):
        signal = TemporalGraphSignal("s", 2, (), None, np.zeros((10, 2, 1)))
        buckets = bucketize(signal, 10)
        assert len(buckets) == 1
        assert buckets[0].start == 0

    def test_length_exceeding_snapshots_names_both(self, signal):
        assert signal.num_snapshots == 40
        with pytest.raises(ContractError, match=r"41.*40|40.*41"):
            bucketize(signal, 41)

    @pytest.mark.parametrize("bad_length", [0, 1, -3])
    def test_short_lengths_rejected(self, signal, bad_length):
        with pytest.raises(ContractError):
            bucketize(signal, bad_length)

    @pytest.mark.parametrize("bad_stride", [0, -1])
    def test_bad_strides_rejected(self, signal, bad_stride):
        with pytest.raises(ContractError):
            bucketize(signal, 5, bad_stride)

    def test_views_alias_the_signal(self, signal):
        bucket = bucketize(signal, 5)[3]
        assert np.array_equal(bucket.history, signal.features[3:7])
        assert np.array_equal(bucket.candidate, signal.features[7])
        assert bucket.history.base is not None  # view, not a copy


class TestBucket:
    @pytest.mark.parametrize("start, length", [(0.0, 4), (0, 4.0), (True, 4), (0, True),
                                               ("0", 4)])
    def test_non_integer_start_or_length_refused(self, signal, start, length):
        with pytest.raises(ContractError, match="must be an integer"):
            Bucket(signal, start, length)


class TestLabels:
    def test_three_of_twenty_nodes(self):
        signal = TemporalGraphSignal("s", 20, (), None, np.zeros((5, 20, 1)))
        bucket = Bucket(signal, 0, 5)
        item = LabeledBucket(bucket, bucket.candidate.copy(), frozenset({0, 5, 9}))
        assert item.label == 0.85
        assert item.label == float(Fraction(17, 20))

    def test_all_fifteen_nodes(self):
        signal = TemporalGraphSignal("s", 15, (), None, np.zeros((3, 15, 1)))
        bucket = Bucket(signal, 0, 3)
        item = LabeledBucket(bucket, bucket.candidate.copy(), frozenset(range(15)))
        assert item.label == 0.0

    def test_untouched_bucket(self):
        signal = TemporalGraphSignal("s", 4, (), None, np.zeros((3, 4, 1)))
        bucket = Bucket(signal, 0, 3)
        item = LabeledBucket(bucket, bucket.candidate.copy(), frozenset())
        assert item.label == 1.0

    def test_rational_identity(self):
        # the label is the double nearest 1 - k/N, and Y*N + k == N holds
        # in floating point, without rounding
        signal = TemporalGraphSignal("s", 7, (), None, np.zeros((3, 7, 1)))
        bucket = Bucket(signal, 0, 3)
        for k in range(8):
            item = LabeledBucket(bucket, bucket.candidate.copy(), frozenset(range(k)))
            assert item.label == float(Fraction(7 - k, 7))
            assert item.label * 7 + len(item.perturbed) == 7

    def test_out_of_range_node_rejected(self):
        signal = TemporalGraphSignal("s", 4, (), None, np.zeros((3, 4, 1)))
        bucket = Bucket(signal, 0, 3)
        with pytest.raises(ContractError, match="out of range"):
            LabeledBucket(bucket, bucket.candidate.copy(), frozenset({4}))

    @pytest.mark.parametrize("nodes", [[1.0], ["2"], [None], 3])
    def test_node_that_is_not_an_integer_rejected(self, nodes):
        signal = TemporalGraphSignal("s", 4, (), None, np.zeros((3, 4, 1)))
        bucket = Bucket(signal, 0, 3)
        with pytest.raises(ContractError, match="must be integers"):
            LabeledBucket(bucket, bucket.candidate.copy(), nodes)

    def test_numpy_and_python_indices_make_one_set(self):
        signal = TemporalGraphSignal("s", 4, (), None, np.zeros((3, 4, 1)))
        bucket = Bucket(signal, 0, 3)
        item = LabeledBucket(bucket, bucket.candidate.copy(), np.array([3, 1, 3]))
        assert item.perturbed == {1, 3}
        assert all(type(i) is int for i in item.perturbed)


class TestInjectNoise:
    def test_zero_probability_is_identity(self, signal):
        buckets = bucketize(signal, 5)
        labeled = inject_noise(buckets, node_bounds(signal), NoiseSpec(0.0, seed=3))
        assert len(labeled) == len(buckets)
        for bucket, item in zip(buckets, labeled):
            assert item.label == 1.0
            assert item.perturbed == frozenset()
            assert np.array_equal(item.candidate, bucket.candidate)

    def test_full_probability_corrupts_every_bucket(self, signal):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(1.0, seed=3))
        for item in labeled:
            assert 1 <= len(item.perturbed) <= 6
            assert item.label < 1.0

    def test_deterministic_across_runs(self, signal):
        buckets = bucketize(signal, 5)
        bounds = node_bounds(signal)
        first = inject_noise(buckets, bounds, NoiseSpec(0.5, seed=11))
        second = inject_noise(buckets, bounds, NoiseSpec(0.5, seed=11))
        for a, b in zip(first, second):
            assert a.perturbed == b.perturbed
            assert np.array_equal(a.candidate, b.candidate)
            assert a.label == b.label

    def test_bucket_streams_do_not_interact(self, signal):
        # corrupting a prefix of the list must reproduce the full run's prefix
        buckets = bucketize(signal, 5)
        bounds = node_bounds(signal)
        full = inject_noise(buckets, bounds, NoiseSpec(0.5, seed=11))
        prefix = inject_noise(buckets[:4], bounds, NoiseSpec(0.5, seed=11))
        for a, b in zip(prefix, full):
            assert a.perturbed == b.perturbed
            assert np.array_equal(a.candidate, b.candidate)

    def test_seed_changes_output(self, signal):
        buckets = bucketize(signal, 5)
        bounds = node_bounds(signal)
        first = inject_noise(buckets, bounds, NoiseSpec(1.0, seed=1))
        second = inject_noise(buckets, bounds, NoiseSpec(1.0, seed=2))
        assert any(
            a.perturbed != b.perturbed or not np.array_equal(a.candidate, b.candidate)
            for a, b in zip(first, second)
        )

    def test_only_perturbed_rows_change(self, signal):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(1.0, seed=7))
        for item in labeled:
            source = item.bucket.candidate
            for node in range(6):
                if node in item.perturbed:
                    continue
                assert np.array_equal(item.candidate[node], source[node])
            assert np.array_equal(item.snapshots[:-1], item.bucket.history)

    def test_history_of_window_is_untouched(self, signal):
        before = signal.features.copy()
        inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(1.0, seed=7))
        assert np.array_equal(signal.features, before)

    def test_bounds_shape_mismatch(self, signal):
        from tgsim.data import NodeBounds

        bad = NodeBounds(mins=np.zeros((3, 2)), maxs=np.ones((3, 2)))
        with pytest.raises(ContractError, match="bounds shape"):
            inject_noise(bucketize(signal, 5), bad, NoiseSpec(0.5, seed=0))

    @pytest.mark.parametrize("n, f, seeds", [(6, 2, 20), (20, 1, 4), (207, 1, 2)],
                             ids=["N6-F2", "N20-F1", "N207-F1"])
    def test_matches_per_node_redraw_loop(self, n, f, seeds):
        # the one-call redraw consumes default_rng([seed, i]) in the same
        # node-major order as drawing each node's channels in turn, at the
        # test signal's shape and the benchmark's N = 20 and N = 207
        signal = make_signal(np.random.default_rng(n), n=n, s=40, f=f)
        buckets = bucketize(signal, 5)
        bounds = node_bounds(signal)
        for seed in range(seeds):
            spec = NoiseSpec(0.5, seed=seed)
            for index, (bucket, item) in enumerate(zip(buckets, inject_noise(buckets, bounds, spec))):
                rng = np.random.default_rng([seed, index])
                candidate = bucket.candidate.copy()
                nodes = []
                if rng.random() < spec.corrupt_probability:
                    nodes = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                    for node in nodes:
                        candidate[node] = rng.uniform(bounds.mins[node], bounds.maxs[node])
                assert np.array_equal(item.candidate, candidate)
                assert item.perturbed == frozenset(int(i) for i in nodes)
                assert item.label == float(Fraction(n - len(nodes), n))

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
    def test_generators_are_default_rngs(self, seed):
        # one-, two-, three- and five-word seeds: more entropy words than
        # the pool's four goes through the SeedSequence's last mixing loop
        words = seed_words(seed, 300)
        rngs = list(generators(seed, 300))
        for index in (0, 1, 255, 256, 299):
            want = np.random.SeedSequence([seed, index]).generate_state(4, np.uint64)
            assert np.array_equal(words[index], want)
            reference = np.random.default_rng([seed, index])
            assert rngs[index].bit_generator.state == reference.bit_generator.state
            assert np.array_equal(rngs[index].random(5), reference.random(5))

    def test_overflowing_range_refused(self):
        features = np.zeros((6, 2, 1))
        features[0, 1, 0], features[1, 1, 0] = -1e308, 1e308
        signal = TemporalGraphSignal("wide", 2, (), None, features)
        with pytest.raises(ContractError, match="node 1's feature range overflows"):
            inject_noise(bucketize(signal, 3), node_bounds(signal), NoiseSpec(0.5, seed=0))

    def test_snapshots_property_swaps_in_candidate(self, signal):
        item = inject_noise(bucketize(signal, 5)[:1], node_bounds(signal), NoiseSpec(1.0, seed=2))[0]
        stack = item.snapshots
        assert stack.shape == (5, 6, 2)
        assert np.array_equal(stack[:4], item.bucket.history)
        assert np.array_equal(stack[4], item.candidate)


class TestNoiseSpec:
    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan"), True])
    def test_bad_probability(self, p):
        with pytest.raises(ContractError):
            NoiseSpec(p, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed(self, seed):
        with pytest.raises(ContractError):
            NoiseSpec(0.5, seed=seed)


class TestBulkValidation:
    def test_ten_thousand_buckets_stay_within_bounds(self):
        rng = np.random.default_rng(99)
        n, length = 6, 10
        signal = make_signal(rng, n=n, s=length + 9999, f=2)
        bounds = node_bounds(signal)
        labeled = inject_noise(bucketize(signal, length), bounds, NoiseSpec(0.5, seed=5))
        assert len(labeled) == 10000

        corrupted = [item for item in labeled if item.perturbed]
        # p = 0.5, so roughly half; 5 sigma of binomial(10000, 0.5) is 250
        assert abs(len(corrupted) - 5000) < 300

        counts = np.zeros(n + 1, dtype=int)
        for item in labeled:
            k = len(item.perturbed)
            counts[k] += 1
            assert item.label * n + k == n
            for node in item.perturbed:
                values = item.candidate[node]
                assert (values >= bounds.mins[node]).all()
                assert (values <= bounds.maxs[node]).all()

        # k is uniform over 1..n among corrupted buckets
        expected = len(corrupted) / n
        for k in range(1, n + 1):
            assert abs(counts[k] - expected) < 160


class TestSerialization:
    def test_round_trip(self, signal, tmp_path):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(0.5, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(0.5, seed=13))
        again, _ = load_labeled_buckets(path, signal)
        assert len(again) == len(labeled)
        for a, b in zip(labeled, again):
            assert a.bucket.start == b.bucket.start
            assert a.perturbed == b.perturbed
            assert a.label == b.label
            assert np.array_equal(a.candidate, b.candidate)

    def test_wrong_dataset_rejected(self, signal, tmp_path):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(0.5, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(0.5, seed=13))
        other = TemporalGraphSignal("other", 6, (), None, np.zeros((40, 6, 2)))
        with pytest.raises(ParseError, match="other"):
            load_labeled_buckets(path, other)

    def test_bucket_list_must_be_a_list(self, signal, tmp_path):
        path = tmp_path / "buckets.json"
        path.write_text(json.dumps({"dataset": signal.name, "length": 5, "buckets": 3}))
        with pytest.raises(ParseError, match="expected an object"):
            load_labeled_buckets(path, signal)

    def test_tampered_label_rejected(self, signal, tmp_path):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(1.0, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(1.0, seed=13))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["buckets"][0]["label"] = 0.97
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match="label"):
            load_labeled_buckets(path, signal)

    @pytest.mark.parametrize("field", ["candidate", "label"])
    def test_integer_past_float_range_refused(self, signal, tmp_path, field):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(1.0, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(1.0, seed=13))
        doc = json.loads(path.read_text(encoding="utf-8"))
        if field == "candidate":
            doc["buckets"][2]["candidate"][1][0] = 10 ** 400
        else:
            doc["buckets"][2]["label"] = 10 ** 400
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match=r"buckets\[2\].*too large"):
            load_labeled_buckets(path, signal)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_label_rejected(self, signal, tmp_path, value):
        # abs(label - nan) > 1e-12 is False: a NaN label once passed the check
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(1.0, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(1.0, seed=13))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["buckets"][0]["label"] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match=r"buckets\[0\].*label"):
            load_labeled_buckets(path, signal)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_candidate_rejected(self, signal, tmp_path, value):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(0.5, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(0.5, seed=13))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["buckets"][3]["candidate"][2][1] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match=r"buckets\[3\].*non-finite"):
            load_labeled_buckets(path, signal)

    def test_empty_set_rejected_on_write(self, tmp_path):
        with pytest.raises(ContractError, match="empty"):
            write_labeled_buckets([], tmp_path / "x.json", NoiseSpec())

    def test_recorded_noise_spec_round_trips(self, signal, tmp_path):
        spec = NoiseSpec(0.25, seed=13)
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), spec)
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, spec)
        again, recorded = load_labeled_buckets(path, signal)
        assert recorded == spec
        assert again[0].bucket.start == 0

    def test_unrecorded_noise_spec_is_refused(self, signal, tmp_path):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(0.5, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(0.5, seed=13))
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["noise"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match="noise record"):
            load_labeled_buckets(path, signal)

    def test_record_without_label_is_refused(self, signal, tmp_path):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(0.5, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(0.5, seed=13))
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["buckets"][2]["label"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match=r"buckets\[2\].*label"):
            load_labeled_buckets(path, signal)

    def test_bad_noise_record_rejected(self, signal, tmp_path):
        labeled = inject_noise(bucketize(signal, 5), node_bounds(signal), NoiseSpec(0.5, seed=13))
        path = tmp_path / "buckets.json"
        write_labeled_buckets(labeled, path, NoiseSpec(0.5, seed=13))
        doc = json.loads(path.read_text(encoding="utf-8"))
        for record in ({"corrupt_probability": 1.7, "seed": 0}, None, [], {"seed": 13},
                       {"corrupt_probability": 0.5}, {"corrupt_probability": True, "seed": 0}):
            doc["noise"] = record
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ParseError, match="noise record"):
                load_labeled_buckets(path, signal)
