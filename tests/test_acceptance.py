"""End-to-end acceptance checks, one verdict line per check.

Numbered tests run in file order; the three-fold training run and its
checkpoints come from session fixtures so later checks reuse them.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import BUCKET_LENGTH, NOISE, TRAIN, record
from synth import chickenpox_like
from tgsim import autodiff as ad
from tgsim import cli
from tgsim.autodiff import Tensor, grad_check
from tgsim.baselines import _tsr_score, baseline_report
from tgsim.data import (
    TemporalGraphSignal,
    adjacency_operator,
    node_bounds,
    normalize_features,
    write_canonical,
)
from tgsim.model import ModelConfig, ModelParams, forward_pass, score_windows
from tgsim.noise import NoiseSpec, bucketize, inject_noise
from tgsim.training import compute_metrics, cross_validate
from tgsim.anomaly import AlarmPolicy, detect_with_thresholds, score_stream


def _tiny_signal(n=3, s=6, seed=5):
    rng = np.random.default_rng(seed)
    edges = tuple((i, (i + 1) % n) for i in range(n)) + tuple(((i + 1) % n, i) for i in range(n))
    feats = rng.uniform(0.1, 0.9, (s, n, 1))
    return TemporalGraphSignal(name="tiny", num_nodes=n, edges=edges, weights=None, features=feats)


def test_01_gradients_match_central_differences():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0

    def check(f, point):
        nonlocal worst
        worst = max(worst, grad_check(f, point, eps=1e-5))

    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    check(lambda x, y: ad.mean_all(ad.matmul(x, y)), [a, b])
    c = Tensor(rng.normal(size=(3, 4)))
    bias = Tensor(rng.normal(size=(1, 4)))
    check(lambda x, y: ad.mean_all(ad.add(x, y)), [c, Tensor(rng.normal(size=(3, 4)))])
    check(lambda x, y: ad.mean_all(ad.add(x, y)), [c, bias])
    check(lambda x, y: ad.mean_all(ad.subtract(x, y)), [c, Tensor(rng.normal(size=(3, 4)))])
    check(lambda x, y: ad.mean_all(ad.multiply(x, y)), [c, Tensor(rng.normal(size=(3, 4)))])
    check(lambda x: ad.mean_all(ad.sigmoid(x)), [Tensor(rng.normal(size=(3, 4)))])
    check(lambda x: ad.mean_all(ad.tanh(x)), [Tensor(rng.normal(size=(3, 4)))])
    # keep relu inputs away from the kink where central differences lie
    off = rng.uniform(0.3, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    check(lambda x: ad.mean_all(ad.relu(x)), [Tensor(off)])
    check(lambda x, y: ad.mean_all(ad.concat_columns(x, y)),
          [Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=(3, 3)))])
    check(lambda x: ad.mean_all(ad.mean_rows(x)), [Tensor(rng.normal(size=(3, 4)))])
    check(lambda x: ad.mean_all(x), [Tensor(rng.normal(size=(3, 4)))])
    mixer = Tensor(rng.normal(size=(3, 4)))
    check(lambda x, m: ad.mean_all(ad.multiply(ad.softmax_rows(x), m)),
          [Tensor(rng.normal(size=(3, 4))), mixer])
    check(lambda x: ad.mean_all(ad.scalar_multiply(x, 1.7)), [Tensor(rng.normal(size=(3, 4)))])
    check(lambda x: ad.mean_all(ad.square(x)), [Tensor(rng.normal(size=(3, 4)))])

    sig = _tiny_signal()
    bucket = bucketize(sig, 4)[0]
    snaps = normalize_features(bucket.snapshots, node_bounds(sig))
    a_hat = adjacency_operator(sig)
    cfg = ModelConfig("a3tgcn", input_channels=1)
    params = ModelParams.initialize(cfg, seed=3)
    target = Tensor([[0.7]])

    def full(*_):
        out = forward_pass(snaps, a_hat, params, cfg)
        return ad.square(ad.subtract(out, target))

    model_err = grad_check(full, list(params.tensors()), eps=1e-5)
    worst = max(worst, model_err)
    elapsed = time.time() - start

    ok = worst < 1e-4 and elapsed < 30
    record("1 gradients", ok,
           f"max rel err {worst:.2e} (full model {model_err:.2e}), {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30


def test_02_noise_injection_exactness():
    start = time.time()
    n, s = 20, 1009
    rng = np.random.default_rng(11)
    scale = rng.uniform(0.5, 4.0, n)
    feats = rng.uniform(0.0, 1.0, (s, n, 1)) * scale[None, :, None] + rng.normal(0, 0.1, (s, n, 1))
    sig = TemporalGraphSignal(name="dense", num_nodes=n,
                              edges=((0, 1), (1, 0)), weights=None, features=feats)
    buckets = bucketize(sig, 10)
    bounds = node_bounds(sig)
    assert len(buckets) == 1000

    total = 0
    for seed in range(10):
        for lb in inject_noise(buckets, bounds, NoiseSpec(0.5, seed=seed)):
            k = len(lb.perturbed)
            assert lb.label * n + k == n  # exact, without rounding
            assert lb.label == float(Fraction(n - k, n))
            clean = lb.bucket.candidate
            for node in lb.perturbed:
                assert np.all(lb.candidate[node] >= bounds.mins[node])
                assert np.all(lb.candidate[node] <= bounds.maxs[node])
            keep = [i for i in range(n) if i not in lb.perturbed]
            assert np.array_equal(lb.candidate[keep], clean[keep])
            assert np.array_equal(lb.snapshots[:-1], lb.bucket.history)
            total += 1
    elapsed = time.time() - start
    ok = total == 10000 and elapsed < 10
    record("2 noise exactness", ok, f"{total} buckets exact, {elapsed:.1f}s")
    assert total == 10000
    assert elapsed < 10


def _oracle_tsr(window):
    length, nodes, channels = window.shape
    scores = []
    for node in range(nodes):
        for channel in range(channels):
            series = window[:, node, channel].astype(np.float64)
            low, high = series.min(), series.max()
            scaled = np.zeros_like(series) if high == low else (series - low) / (high - low)
            t = np.arange(length - 1, dtype=np.float64)
            v = scaled[:-1]
            var = ((t - t.mean()) ** 2).mean()
            slope = 0.0 if var == 0 else (((t - t.mean()) * (v - v.mean())).mean()) / var
            pred = v.mean() + slope * ((length - 1) - t.mean())
            scores.append(min(1.0, max(0.0, 1.0 - abs(scaled[-1] - pred))))
    return float(np.mean(scores))


def test_03_trend_baseline_oracle():
    n, s = 6, 48
    slopes = np.array([2.0, -1.5, 0.0, 0.7, -0.2, 3.0])
    intercepts = np.array([5.0, 80.0, 1.25, -3.0, 0.0, 12.0])
    t = np.arange(s, dtype=np.float64)
    feats = (intercepts[None, :] + t[:, None] * slopes[None, :])[:, :, None]
    sig = TemporalGraphSignal(name="linear", num_nodes=n,
                              edges=((0, 1), (1, 0)), weights=None, features=feats)
    worst_linear = 0.0
    for length in (5, 10):
        for bucket in bucketize(sig, length):
            worst_linear = max(worst_linear, abs(_tsr_score(bucket.snapshots) - 1.0))
    assert worst_linear <= 1e-9

    rng = np.random.default_rng(23)
    feats = rng.uniform(-2.0, 5.0, (1009, 20, 1))
    noisy = TemporalGraphSignal(name="noisy", num_nodes=20,
                                edges=((0, 1), (1, 0)), weights=None, features=feats)
    buckets = bucketize(noisy, 10)
    assert len(buckets) == 1000
    worst_random = max(abs(_tsr_score(b.snapshots) - _oracle_tsr(np.asarray(b.snapshots)))
                       for b in buckets)
    ok = worst_linear <= 1e-9 and worst_random <= 1e-9
    record("3 trend baseline", ok,
           f"linear dev {worst_linear:.1e}, recompute dev {worst_random:.1e}")
    assert worst_random <= 1e-9


def test_04_metric_identities():
    rng = np.random.default_rng(31)
    worst_rmse = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 60))
        preds = rng.uniform(0, 1, size)
        labels = rng.uniform(0, 1, size)
        mse, mae, rmse = compute_metrics(preds, labels)
        worst_rmse = max(worst_rmse, abs(rmse - math.sqrt(mse)))
        assert mae <= rmse + 1e-15
    ok = worst_rmse <= 1e-12
    record("4 metric identities", ok, f"max |rmse - sqrt(mse)| = {worst_rmse:.1e}")
    assert worst_rmse <= 1e-12


def test_05_model_beats_baselines(chickenpox_corpus, chickenpox_run):
    run = chickenpox_run
    model_mse = run["report"].mean_mse
    rand_mses, tsr_mses = [], []
    for _, test_buckets in run["folds"]:
        rand_mses.append(baseline_report(test_buckets, "random", seed=0).folds[0].mse)
        tsr_mses.append(baseline_report(test_buckets, "tsr").folds[0].mse)
    rand_mse = float(np.mean(rand_mses))
    tsr_mse = float(np.mean(tsr_mses))

    ok = model_mse < 0.15 and model_mse < rand_mse and model_mse < tsr_mse \
        and run["elapsed"] < 600
    run["ordering_ok"] = ok
    record("5 score ordering", ok,
           f"model {model_mse:.4f} < trend {tsr_mse:.4f} < random {rand_mse:.4f}, "
           f"train {run['elapsed']:.0f}s")
    assert model_mse < 0.15
    assert model_mse < rand_mse
    assert model_mse < tsr_mse
    assert run["elapsed"] < 600


def test_06_attention_cell_leads(chickenpox_corpus, chickenpox_run):
    labeled = chickenpox_corpus["labeled"]
    a3_mse = chickenpox_run["report"].mean_mse
    others = {}
    for kind in ("tgcn", "gconvgru"):
        report, _ = cross_validate(labeled, TRAIN, ModelConfig(kind, input_channels=1))
        others[kind] = report.mean_mse
    slack = 0.02
    ok = all(a3_mse <= mse + slack for mse in others.values())
    record("6 cell ordering (soft)", ok,
           f"a3tgcn {a3_mse:.4f} vs tgcn {others['tgcn']:.4f}, "
           f"gconvgru {others['gconvgru']:.4f}")
    if chickenpox_run["ordering_ok"] and not ok:
        return  # reported above; only binding when the ordering check failed
    assert a3_mse <= others["tgcn"] + slack
    assert a3_mse <= others["gconvgru"] + slack


def test_07_delivery_smoke_pipeline(pedalme_raw_path, tmp_path):
    start = time.time()
    d = tmp_path
    assert cli.main(["convert", "--input", str(pedalme_raw_path), "--kind", "pedalme",
                     "--out-dir", str(d / "convert")]) == 0
    dataset = d / "convert" / "pedalme.json"
    assert cli.main(["prepare", "--dataset", str(dataset),
                     "--out-dir", str(d / "prep")]) == 0
    buckets = d / "prep" / "buckets.json"
    assert cli.main(["train", "--dataset", str(dataset), "--buckets", str(buckets),
                     "--out-dir", str(d / "train")]) == 0
    assert cli.main(["eval", "--run-dir", str(d / "train")]) == 0
    assert cli.main(["baseline", "--dataset", str(dataset), "--buckets", str(buckets),
                     "--out-dir", str(d / "base")]) == 0
    assert cli.main(["report", "--inputs",
                     str(d / "train" / "eval" / "metrics.json"),
                     str(d / "base" / "baseline_random.json"),
                     str(d / "base" / "baseline_tsr.json"),
                     "--out-dir", str(d / "rep")]) == 0
    elapsed = time.time() - start

    model_mse = json.loads((d / "train" / "eval" / "metrics.json").read_text())["mean"]["mse"]
    rand_mse = json.loads((d / "base" / "baseline_random.json").read_text())["mean"]["mse"]
    ok = model_mse < rand_mse and elapsed < 60
    record("7 delivery pipeline", ok,
           f"model {model_mse:.4f} < random {rand_mse:.4f}, {elapsed:.1f}s")
    assert model_mse < rand_mse
    assert elapsed < 60


def test_08_clean_outranks_corrupted(chickenpox_corpus, chickenpox_run):
    bounds = chickenpox_corpus["bounds"]
    n = chickenpox_corpus["signal"].num_nodes
    corrupt = int(round(0.9 * n))
    wins = trials = 0
    for (_, test_buckets), checkpoint in zip(chickenpox_run["folds"],
                                             chickenpox_run["checkpoints"]):
        buckets = [lb.bucket for lb in test_buckets]
        clean, bad = [], []
        for bucket in buckets:
            prng = np.random.default_rng([77, bucket.start])
            nodes = prng.choice(n, size=corrupt, replace=False)
            cand = bucket.candidate.copy()
            for node in nodes:
                cand[node] = prng.uniform(bounds.mins[node], bounds.maxs[node])
            clean.append(bucket.candidate)
            bad.append(cand)
        scores = [score_windows(buckets[0].signal, checkpoint, [b.start for b in buckets],
                                buckets[0].length, np.array(candidates))
                  for candidates in (clean, bad)]
        wins += int(np.sum(scores[0] > scores[1]))
        trials += len(buckets)
    rate = wins / trials
    ok = rate >= 0.90
    record("8 ranking", ok, f"clean beat corrupted in {wins}/{trials} pairs ({rate:.1%})")
    assert rate >= 0.90


def test_09_planted_corruption_flagged(chickenpox_corpus, chickenpox_run):
    signal = chickenpox_corpus["signal"]
    bounds = chickenpox_corpus["bounds"]
    checkpoint = chickenpox_run["checkpoints"][0]
    n, steps, planted = signal.num_nodes, 120, 60
    hits = fps = 0
    for stream_seed in range(20):
        rng = np.random.default_rng([1234, stream_seed])
        delta = np.zeros(n)
        rows = []
        for _ in range(steps):
            delta = 0.3 * delta + rng.normal(0, 0.006, n)
            rows.append(0.15 + delta)  # the corpus resting band, surge-free
        feats = np.array(rows)[:, :, None]
        for node in rng.choice(n, size=n // 2, replace=False):
            feats[planted, node, 0] = rng.uniform(bounds.mins[node], bounds.maxs[node]).item()
        stream = TemporalGraphSignal(name="stream", num_nodes=n, edges=signal.edges,
                                     weights=None, features=feats)
        scores = score_stream(stream, checkpoint, BUCKET_LENGTH)
        events, _ = detect_with_thresholds(scores, AlarmPolicy(mode="zscore"),
                                           index_offset=BUCKET_LENGTH - 1)
        indices = [e.index for e in events]
        hits += planted in indices
        fps += sum(1 for i in indices if i != planted)
    fp_rate = 100.0 * fps / (20 * steps)
    ok = hits >= 18 and fp_rate <= 1.0
    record("9 anomaly flagging", ok,
           f"planted hit {hits}/20, {fp_rate:.2f} false alarms per 100 steps")
    assert hits >= 18
    assert fp_rate <= 1.0


def test_10_pipeline_byte_determinism(tmp_path):
    rng = np.random.default_rng(7)
    n, s = 5, 16
    edges = tuple((i, (i + 1) % n) for i in range(n)) + tuple(((i + 1) % n, i) for i in range(n))
    t = np.arange(s)[:, None]
    feats = (0.5 + 0.3 * np.sin(2 * np.pi * (t / 8 + np.arange(n)[None, :] / n))
             + rng.normal(0, 0.01, (s, n)))[:, :, None]
    sig = TemporalGraphSignal(name="toy", num_nodes=n, edges=edges, weights=None, features=feats)
    dataset = tmp_path / "toy.json"
    write_canonical(sig, dataset)

    def pipeline(root):
        root.mkdir()
        assert cli.main(["prepare", "--dataset", str(dataset), "-L", "4", "--seed", "3",
                         "--out-dir", str(root / "prep")]) == 0
        buckets = root / "prep" / "buckets.json"
        assert cli.main(["train", "--dataset", str(dataset), "--buckets", str(buckets),
                         "--cell", "tgcn", "--embed-dim", "6", "--attention-dim", "4",
                         "-L", "4", "--epochs", "3", "--folds", "3", "--seed", "1",
                         "--out-dir", str(root / "train")]) == 0
        assert cli.main(["eval", "--run-dir", str(root / "train")]) == 0
        assert cli.main(["baseline", "--dataset", str(dataset), "--buckets", str(buckets),
                         "--out-dir", str(root / "base")]) == 0
        assert cli.main(["report", "--inputs",
                         str(root / "train" / "eval" / "metrics.json"),
                         str(root / "base" / "baseline_random.json"),
                         str(root / "base" / "baseline_tsr.json"),
                         "--out-dir", str(root / "rep")]) == 0

    pipeline(tmp_path / "a")
    pipeline(tmp_path / "b")
    compared = []
    for rel in ("prep/buckets.json", "train/folds.json", "train/losses.json",
                "train/checkpoint_fold_0.json", "train/checkpoint_fold_1.json",
                "train/checkpoint_fold_2.json", "train/eval/metrics.json",
                "train/eval/metrics.csv", "base/baseline_random.json",
                "base/baseline_random.csv", "base/baseline_tsr.json",
                "base/baseline_tsr.csv", "rep/comparison.csv"):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared.append(rel)
    record("10 determinism", True,
           f"{len(compared)} artifacts byte-identical across repeat runs")
