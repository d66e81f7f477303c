"""Command-line pipeline: artifacts, replay, exit codes, stderr contract."""

import copy
import csv
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mutate import mutate_tree
from tgsim import cli
from tgsim.data import TemporalGraphSignal, load_canonical, write_canonical
from tgsim.model import ModelConfig, load_checkpoint
from tgsim.noise import load_labeled_buckets
from tgsim.training import TrainConfig, config_echo, kfold_split, load_report


def toy_signal(n=5, s=16, f=2, name="toy", seed=7):
    rng = np.random.default_rng(seed)
    edges = tuple((i, (i + 1) % n) for i in range(n)) + tuple(((i + 1) % n, i) for i in range(n))
    t = np.arange(s)[:, None, None]
    node = np.arange(n)[None, :, None]
    chan = np.arange(f)[None, None, :]
    features = (
        0.5
        + 0.3 * np.sin(2 * np.pi * (t / 8 + node / n + chan / 3))
        + rng.normal(0.0, 0.01, (s, n, f))
    )
    return TemporalGraphSignal(
        name=name, num_nodes=n, edges=edges,
        weights=np.ones(len(edges)), features=features,
    )


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stderr_line(capsys):
    """The captured stderr, asserted to be exactly one parseable JSON line."""
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1, f"expected one diagnostic line, got: {err!r}"
    return json.loads(lines[0])


def clone_run(run_dir, dest):
    """A copy of a run directory's files, to damage without touching the original."""
    dest.mkdir()
    for path in run_dir.iterdir():
        if path.is_file():
            (dest / path.name).write_bytes(path.read_bytes())
    return dest


TRAIN_FLAGS = [
    "--cell", "tgcn", "--embed-dim", "6", "--attention-dim", "4",
    "-L", "4", "--epochs", "3", "--folds", "3", "--seed", "1",
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A toy dataset taken through prepare and train once, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "toy.json"
    write_canonical(toy_signal(), dataset)
    assert cli.main([
        "prepare", "--dataset", str(dataset), "-L", "4", "--seed", "3",
        "--out-dir", str(root / "prep"),
    ]) == 0
    buckets = root / "prep" / "buckets.json"
    assert cli.main([
        "train", "--dataset", str(dataset), "--buckets", str(buckets),
        *TRAIN_FLAGS, "--out-dir", str(root / "train"),
    ]) == 0
    return SimpleNamespace(
        root=root, dataset=dataset, buckets=buckets, train_dir=root / "train",
    )


class TestConvert:
    def raw_doc(self):
        rng = np.random.default_rng(0)
        return {
            "edges": [[0, 1], [1, 2], [2, 0]],
            "FX": rng.random((6, 3)).tolist(),
        }

    def test_writes_canonical_signal_and_run_config(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(self.raw_doc()))
        out = tmp_path / "out"
        assert cli.main([
            "convert", "--input", str(raw), "--kind", "chickenpox",
            "--lenient-counts", "--out-dir", str(out),
        ]) == 0
        signal = load_canonical(out / "chickenpox.json")
        assert signal.num_nodes == 3
        assert signal.num_snapshots == 6
        config = json.loads((out / "run_config.json").read_text())
        assert config["command"] == "convert"
        assert config["arguments"]["kind"] == "chickenpox"
        assert "wrote chickenpox" in capsys.readouterr().out

    def test_count_check_rejects_trimmed_data(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(self.raw_doc()))
        code = cli.main(["convert", "--input", str(raw), "--kind", "chickenpox",
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert stderr_line(capsys)["error"] == "AdapterError"


    def test_integer_past_float_range_is_a_data_error(self, tmp_path, capsys):
        doc = self.raw_doc()
        doc["FX"][2][1] = 10 ** 400
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(doc))
        code = cli.main(["convert", "--input", str(raw), "--kind", "chickenpox",
                         "--lenient-counts", "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert stderr_line(capsys)["error"] == "AdapterError"

class TestPrepare:
    def test_bucket_count_and_noise_record(self, ws):
        doc = json.loads(ws.buckets.read_text())
        assert len(doc["buckets"]) == 13
        assert doc["noise"] == {"corrupt_probability": 0.5, "seed": 3}

    def test_stride_one_window_count_matches_snapshot_count(self, tmp_path, capsys):
        dataset = tmp_path / "month.json"
        write_canonical(toy_signal(n=4, s=30, name="month"), dataset)
        out = tmp_path / "out"
        assert cli.main(["prepare", "--dataset", str(dataset), "-L", "10",
                         "--out-dir", str(out)]) == 0
        assert "wrote 21 labeled buckets" in capsys.readouterr().out
        doc = json.loads((out / "buckets.json").read_text())
        assert len(doc["buckets"]) == 21

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        assert cli.main([
            "prepare", "--dataset", str(ws.dataset), "-L", "4", "--seed", "3",
            "--out-dir", str(tmp_path / "again"),
        ]) == 0
        assert digest(tmp_path / "again" / "buckets.json") == digest(ws.buckets)

    def test_output_root_env_var_sets_default_directory(self, ws, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_ROOT_VAR, str(tmp_path / "envroot"))
        assert cli.main(["prepare", "--dataset", str(ws.dataset), "-L", "4"]) == 0
        assert (tmp_path / "envroot" / "prepare" / "buckets.json").exists()
        capsys.readouterr()

    def test_bad_probability_is_a_data_error(self, ws, tmp_path, capsys):
        code = cli.main(["prepare", "--dataset", str(ws.dataset), "-p", "1.5",
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert stderr_line(capsys)["error"] == "ContractError"


    def test_overflowing_feature_range_is_a_data_error(self, tmp_path, capsys):
        features = np.zeros((8, 2, 1))
        features[0, 1, 0], features[1, 1, 0] = -1e308, 1e308
        dataset = tmp_path / "wide.json"
        write_canonical(TemporalGraphSignal("wide", 2, (), None, features), dataset)
        code = cli.main(["prepare", "--dataset", str(dataset), "-L", "4",
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        report = stderr_line(capsys)
        assert report["error"] == "ContractError"
        assert "feature range overflows" in report["message"]

class TestTrain:
    def test_artifacts(self, ws):
        names = {p.name for p in ws.train_dir.iterdir()}
        assert {"checkpoint_fold_0.json", "checkpoint_fold_1.json",
                "checkpoint_fold_2.json", "losses.json", "run_config.json"} <= names
        assert "folds.json" not in names  # each checkpoint records its own fold
        losses = json.loads((ws.train_dir / "losses.json").read_text())
        assert [len(h) for h in losses["per_fold"]] == [3, 3, 3]

    def test_checkpoints_record_their_fold_and_recipe(self, ws):
        provenances = [load_checkpoint(ws.train_dir / f"checkpoint_fold_{i}.json").provenance
                       for i in range(3)]
        assert [p.fold for p in provenances] == [0, 1, 2]
        assert {p.recipe for p in provenances} == {
            TrainConfig(epochs=3, bucket_length=4, folds=3, seed=1)}
        assert {p.buckets_sha256 for p in provenances} == {digest(ws.buckets)}
        labeled, _ = load_labeled_buckets(ws.buckets, load_canonical(ws.dataset))
        recipe = provenances[0].recipe
        starts = [b.bucket.start for _, test in kfold_split(
            labeled, recipe.folds, recipe.seed, shuffle=recipe.shuffle_folds) for b in test]
        assert sorted(starts) == list(range(13))
        # shuffled: not the contiguous blocks of --no-shuffle-folds
        assert starts != sorted(starts)

    def test_checkpoints_reload_and_carry_bounds(self, ws):
        checkpoint = load_checkpoint(ws.train_dir / "checkpoint_fold_0.json")
        assert checkpoint.config.cell_kind == "tgcn"
        assert checkpoint.feature_bounds.mins.shape == (5, 2)
        assert checkpoint.provenance.dataset == "toy"

    def test_rerun_reproduces_checkpoints_exactly(self, ws, tmp_path):
        assert cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            *TRAIN_FLAGS, "--out-dir", str(tmp_path / "rerun"),
        ]) == 0
        for i in range(3):
            name = f"checkpoint_fold_{i}.json"
            assert digest(tmp_path / "rerun" / name) == digest(ws.train_dir / name)
        assert digest(tmp_path / "rerun" / "losses.json") == digest(ws.train_dir / "losses.json")

    def test_replay_from_stored_config(self, ws, tmp_path):
        assert cli.main([
            "train", "--config", str(ws.train_dir / "run_config.json"),
            "--out-dir", str(tmp_path / "replay"),
        ]) == 0
        assert digest(tmp_path / "replay" / "losses.json") == digest(ws.train_dir / "losses.json")

    def test_explicit_flag_beats_stored_config(self, ws, tmp_path):
        assert cli.main([
            "train", "--config", str(ws.train_dir / "run_config.json"),
            "--epochs", "1", "--out-dir", str(tmp_path / "short"),
        ]) == 0
        losses = json.loads((tmp_path / "short" / "losses.json").read_text())
        assert [len(h) for h in losses["per_fold"]] == [1, 1, 1]

    def test_replay_refuses_an_argument_train_no_longer_takes(self, ws, tmp_path, capsys):
        config = json.loads((ws.train_dir / "run_config.json").read_text())
        config["arguments"]["optimizer"] = "sgd"
        (tmp_path / "old.json").write_text(json.dumps(config))
        code = cli.main(["train", "--config", str(tmp_path / "old.json"),
                         "--out-dir", str(tmp_path / "replay")])
        assert code == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "'optimizer'" in report["message"]
        assert not (tmp_path / "replay" / "losses.json").exists()

    def test_window_length_is_the_bucket_files(self, ws, tmp_path):
        # without -L, train once took 10 and refused this file of 4-snapshot windows
        flags = TRAIN_FLAGS[:6] + TRAIN_FLAGS[8:]
        assert "-L" not in flags
        out = tmp_path / "derived"
        assert cli.main(["train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
                         *flags, "--out-dir", str(out)]) == 0
        for name in ("checkpoint_fold_0.json", "checkpoint_fold_1.json",
                     "checkpoint_fold_2.json", "losses.json"):
            assert digest(out / name) == digest(ws.train_dir / name)
        arguments = json.loads((out / "run_config.json").read_text())["arguments"]
        assert arguments["bucket_length"] == 4
        assert cli.main(["train", "--config", str(out / "run_config.json"),
                         "--out-dir", str(tmp_path / "replay")]) == 0
        assert digest(tmp_path / "replay" / "losses.json") == digest(out / "losses.json")

    def test_config_for_wrong_subcommand(self, ws, capsys):
        code = cli.main(["eval", "--config", str(ws.train_dir / "run_config.json")])
        assert code == 1
        assert stderr_line(capsys)["error"] == "UsageError"

    def test_noise_redraw_changes_the_fit(self, ws, tmp_path):
        assert cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            *TRAIN_FLAGS, "--redraw-noise", "--out-dir", str(tmp_path / "redraw"),
        ]) == 0
        assert digest(tmp_path / "redraw" / "checkpoint_fold_0.json") != digest(
            ws.train_dir / "checkpoint_fold_0.json")

    def test_redraw_probability_is_the_recorded_one(self, ws, tmp_path, capsys):
        # a set drawn at p = 0 redraws at p = 0: every epoch sees the clean set
        prep = tmp_path / "clean"
        assert cli.main(["prepare", "--dataset", str(ws.dataset), "-L", "4", "-p", "0",
                         "--out-dir", str(prep)]) == 0
        for name, extra in (("fixed", []), ("redraw", ["--redraw-noise"])):
            assert cli.main([
                "train", "--dataset", str(ws.dataset), "--buckets", str(prep / "buckets.json"),
                *TRAIN_FLAGS, "--epochs", "1", *extra, "--out-dir", str(tmp_path / name),
            ]) == 0
        assert digest(tmp_path / "redraw" / "losses.json") == digest(
            tmp_path / "fixed" / "losses.json")
        capsys.readouterr()

    def test_probability_is_not_a_train_flag(self, ws, tmp_path, capsys):
        code = cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            *TRAIN_FLAGS, "--redraw-noise", "--corrupt-probability", "0.3",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "--corrupt-probability" in stderr_line(capsys)["message"]

    def test_too_many_folds_is_a_data_error(self, ws, tmp_path, capsys):
        code = cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            "-L", "4", "--folds", "99", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "13 buckets" in stderr_line(capsys)["message"]

    def test_repeated_window_start_is_a_data_error(self, ws, tmp_path, capsys):
        # two copies of one window could land on both sides of a fold
        doc = json.loads(ws.buckets.read_text())
        doc["buckets"].append(doc["buckets"][0])
        path = tmp_path / "buckets.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["train", "--dataset", str(ws.dataset), "--buckets", str(path),
                         *TRAIN_FLAGS, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "buckets[13]: repeats the window start 0 of buckets[0]" in report["message"]
        assert not (tmp_path / "out" / "checkpoint_fold_0.json").exists()

    def test_diverging_run_exits_three(self, ws, tmp_path, capsys):
        # an absurd learning rate: Adam moves the weights by about 1e300 a step,
        # and their products overflow into nan within a few batches
        code = cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            *TRAIN_FLAGS, "--learning-rate", "1e300",
            "--out-dir", str(tmp_path / "boom"),
        ])
        assert code == 3
        report = stderr_line(capsys)
        assert report["error"] == "TrainingError"
        assert "non-finite" in report["message"]


@pytest.fixture(scope="module")
def evaluated(ws):
    assert cli.main(["eval", "--run-dir", str(ws.train_dir)]) == 0
    return ws.train_dir / "eval"


@pytest.fixture(scope="module")
def base_dir(ws):
    out = ws.root / "base"
    assert cli.main(["baseline", "--dataset", str(ws.dataset),
                     "--buckets", str(ws.buckets), "--out-dir", str(out)]) == 0
    return out


class TestEval:
    def test_report_files(self, evaluated):
        report = load_report(evaluated / "metrics.json")
        assert report.model == "tgcn"
        assert len(report.folds) == 3
        assert report.total_samples == 13
        assert (evaluated / "metrics.csv").exists()

    def test_config_echo_carries_noise_protocol(self, evaluated):
        report = load_report(evaluated / "metrics.json")
        assert report.config["noise_probability"] == 0.5
        assert report.config["noise_seed"] == 3
        assert report.config["bucket_length"] == 4
        assert report.config["cell_kind"] == "tgcn"

    def test_config_echo_is_the_train_configs_echo(self, evaluated):
        config = json.loads((evaluated / "metrics.json").read_text())["config"]
        # TRAIN_FLAGS, the toy signal's 2 channels and the bucket file's noise
        expected = config_echo(TrainConfig(epochs=3, bucket_length=4, folds=3, seed=1),
                               ModelConfig("tgcn", input_channels=2, embed_dim=6,
                                           attention_dim=4))
        expected.update(noise_probability=0.5, noise_seed=3)
        assert config == expected
        assert set(config) == {
            "epochs", "learning_rate", "bucket_length", "folds", "seed",
            "shuffle_folds", "redraw_probability",
            "cell_kind", "input_channels", "embed_dim", "attention_dim",
            "noise_probability", "noise_seed",
        }

    def test_run_stored_with_an_unused_argument_still_evaluates(self, ws, evaluated, tmp_path):
        # run configs written while train took --optimizer carry "optimizer": "adam"
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        config = json.loads((clone / "run_config.json").read_text())
        config["arguments"]["optimizer"] = "adam"
        (clone / "run_config.json").write_text(json.dumps(config))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 0
        assert digest(clone / "eval" / "metrics.json") == digest(evaluated / "metrics.json")

    def test_rerun_is_byte_identical(self, ws, evaluated, tmp_path):
        assert cli.main(["eval", "--run-dir", str(ws.train_dir),
                         "--out-dir", str(tmp_path / "again")]) == 0
        assert digest(tmp_path / "again" / "metrics.json") == digest(evaluated / "metrics.json")
        assert digest(tmp_path / "again" / "metrics.csv") == digest(evaluated / "metrics.csv")

    def test_non_train_directory_is_rejected(self, ws, evaluated, capsys):
        code = cli.main(["eval", "--run-dir", str(evaluated)])
        assert code == 2
        assert "expected a train run" in stderr_line(capsys)["message"]

    @pytest.mark.parametrize("damage, message", [
        ("swapped files", "out of order"), ("lone train", "out of order"),
    ])
    def test_tampered_fold_record_is_detected(self, ws, tmp_path, capsys, damage, message):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        paths = [clone / f"checkpoint_fold_{i}.json" for i in range(2)]
        docs = [json.loads(path.read_text()) for path in paths]
        if damage == "swapped files":
            docs.reverse()
        else:
            docs[0]["provenance"]["fold"] = None
        for path, doc in zip(paths, docs):
            path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert message in report["message"]
        assert not (clone / "eval" / "metrics.json").exists()

    def test_another_bucket_file_is_refused(self, ws, tmp_path, capsys):
        # the same windows under other noise: only the digest tells them apart
        assert cli.main(["prepare", "--dataset", str(ws.dataset), "-L", "4", "--seed", "4",
                         "--out-dir", str(tmp_path / "prep")]) == 0
        capsys.readouterr()
        other = tmp_path / "prep" / "buckets.json"
        code = cli.main(["eval", "--run-dir", str(ws.train_dir), "--buckets", str(other),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert f"another bucket file than {other}" in report["message"]

    @pytest.mark.parametrize("field", ["dataset", "buckets"])
    def test_run_config_missing_a_field(self, ws, tmp_path, capsys, field):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        config = json.loads((clone / "run_config.json").read_text())
        del config["arguments"][field]
        (clone / "run_config.json").write_text(json.dumps(config))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "missing a field" in report["message"] and field in report["message"]

    @pytest.mark.parametrize("field, value", [
        ("arguments", [[1, 2]]),  # dict() takes a list of pairs, Namespace no int keys
        ("dataset", 7), ("buckets", ["b.json"]), ("dataset", None), ("epochs", "3"),
        ("no_shuffle_folds", 0), ("learning_rate", True), ("command", "nosuch"),
    ])
    def test_run_config_of_the_wrong_type(self, ws, tmp_path, capsys, field, value):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        config = json.loads((clone / "run_config.json").read_text())
        if field in config:
            config[field] = value
        else:
            config["arguments"][field] = value
        (clone / "run_config.json").write_text(json.dumps(config))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "run_config.json" in report["message"]

    def test_echo_is_the_checkpoints_model(self, ws, evaluated, tmp_path):
        # the stored model flags name another model; the checkpoints hold tgcn, d = 6
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        config = json.loads((clone / "run_config.json").read_text())
        config["arguments"].update(cell="a3tgcn", embed_dim=2 ** 40, attention_dim=9)
        (clone / "run_config.json").write_text(json.dumps(config))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 0
        assert digest(clone / "eval" / "metrics.json") == digest(evaluated / "metrics.json")
        report = load_report(clone / "eval" / "metrics.json")
        assert report.model == "tgcn"
        assert (report.config["embed_dim"], report.config["attention_dim"]) == (6, 4)

    @pytest.mark.parametrize("edit", [
        {"learning_rate": 0.5},
        {"bucket_length": 9, "epochs": 500, "folds": 7, "seed": 99},
        {"no_shuffle_folds": True, "redraw_noise": True},
    ])
    def test_echo_is_the_checkpoints_recipe(self, ws, evaluated, tmp_path, edit):
        # the toy run trained at the default 0.003; the checkpoints say so, not run_config.json
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        config = json.loads((clone / "run_config.json").read_text())
        config["arguments"].update(edit)
        (clone / "run_config.json").write_text(json.dumps(config))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 0
        assert digest(clone / "eval" / "metrics.json") == digest(evaluated / "metrics.json")
        echo = load_report(clone / "eval" / "metrics.json").config
        assert (echo["learning_rate"], echo["epochs"], echo["folds"]) == (0.003, 3, 3)

    def test_run_config_needs_only_the_input_paths(self, ws, evaluated, tmp_path):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        config = json.loads((clone / "run_config.json").read_text())
        config["arguments"] = {key: config["arguments"][key] for key in ("dataset", "buckets")}
        (clone / "run_config.json").write_text(json.dumps(config))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 0
        assert digest(clone / "eval" / "metrics.json") == digest(evaluated / "metrics.json")

    def test_folds_trained_for_different_epochs_are_refused(self, ws, tmp_path, capsys):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        doc = json.loads((clone / "checkpoint_fold_2.json").read_text())
        doc["provenance"]["recipe"]["epochs"] = 4
        (clone / "checkpoint_fold_2.json").write_text(json.dumps(doc))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "different recipes" in report["message"]
        assert "epochs=3" in report["message"] and "epochs=4" in report["message"]

    def test_folds_of_different_models_are_refused(self, ws, tmp_path, capsys):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        doc = json.loads((clone / "checkpoint_fold_1.json").read_text())
        doc["config"]["attention_dim"] = 5  # tgcn has no attention weights to disagree
        (clone / "checkpoint_fold_1.json").write_text(json.dumps(doc))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "different models" in report["message"]


def leaves(value):
    """Every value under a JSON value that is not an array, in reading order."""
    if isinstance(value, list):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def finite_numbers(doc) -> bool:
    """Whether every number in a JSON document is finite."""
    if isinstance(doc, dict):
        return all(finite_numbers(value) for value in doc.values())
    if isinstance(doc, list):
        return all(finite_numbers(value) for value in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


class TestRunFileFuzz:
    """Seeded structural mutations of the files `convert`, `eval`, `report`,
    `baseline`, `train` and `detect` read.

    Every mutated file ends in exit 1-3 with one JSON line on stderr, or in
    exit 0 with finite outputs; a traceback fails the case.
    """

    def mutated(self, original, rng):
        doc = copy.deepcopy(original)
        for _ in range(1 + rng.randrange(2)):
            if doc:
                mutate_tree(doc, rng)
        return doc

    def check(self, argv, capsys, outputs, where):
        code = cli.main(argv)
        err = capsys.readouterr().err
        if code:
            assert code in (1, 2, 3), where
            lines = err.strip().splitlines()
            assert len(lines) == 1, where
            assert set(json.loads(lines[0])) == {"error", "message"}, where
        else:
            assert outputs(), where
        return code

    def test_convert_input(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        original = {"edges": [[0, 1], [1, 2], [2, 0], [1, 0]], "weights": [1.0, 0.5, 2.0, 1.5],
                    "X": rng.random((6, 3)).tolist()}
        rng = random.Random("convert-metrala")
        path = tmp_path / "raw.json"

        def outputs():
            # the input goes through as given: no endpoint is coerced to an integer, and no
            # weight or feature value to a float unless it is a JSON int or float already
            written = json.loads((out / "metrala.json").read_text())
            given = doc["edges"]
            numbers = [*leaves(doc["weights"]), *leaves(doc["X"])]
            return (isinstance(given, list) and written["edges"] == given
                    and all(type(value) is int for pair in given for value in pair)
                    and all(type(value) in (int, float) for value in numbers)
                    and written["weights"] == [float(w) for w in doc["weights"]]
                    and list(leaves(written["features"])) == [float(x) for x in leaves(doc["X"])]
                    and np.shape(written["features"])[:2] == np.shape(doc["X"])[:2]
                    and finite_numbers(written))

        codes = set()
        for case in range(300):
            doc = self.mutated(original, rng)
            path.write_text(json.dumps(doc))
            out = tmp_path / f"out{case}"
            codes.add(self.check(
                ["convert", "--input", str(path), "--kind", "metrala", "--lenient-counts",
                 "--out-dir", str(out)], capsys, outputs, f"case {case}: {doc}"))
        assert codes >= {0, 2}

    @pytest.mark.parametrize("name, cases", [("run_config.json", 120),
                                             ("checkpoint_fold_0.json", 60)])
    def test_eval_run_files(self, ws, tmp_path, capsys, name, cases):
        rng = random.Random(f"eval-{name}")
        run = clone_run(ws.train_dir, tmp_path / "run")
        original = json.loads((run / name).read_text())
        codes = set()
        for case in range(cases):
            doc = self.mutated(original, rng)
            (run / name).write_text(json.dumps(doc))
            out = tmp_path / f"out{case}"
            codes.add(self.check(
                ["eval", "--run-dir", str(run), "--out-dir", str(out)], capsys,
                lambda: finite_numbers(json.loads((out / "metrics.json").read_text())),
                f"case {case}: {doc}"))
        assert 2 in codes

    def test_report_metrics(self, evaluated, tmp_path, capsys):
        rng = random.Random("report-metrics")
        original = json.loads((evaluated / "metrics.json").read_text())
        path, out = tmp_path / "metrics.json", tmp_path / "out"

        def outputs():
            with open(out / "comparison.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            return all(math.isfinite(float(row[key])) for row in rows
                       for key in ("mse", "mae", "rmse", "sample_count"))

        codes = set()
        for case in range(300):
            doc = self.mutated(original, rng)
            path.write_text(json.dumps(doc))
            codes.add(self.check(["report", "--inputs", str(path), "--out-dir", str(out)],
                                 capsys, outputs, f"case {case}: {doc}"))
        assert codes >= {0, 2}


    @pytest.mark.parametrize("command, cases", [("baseline", 150), ("train", 100)])
    def test_bucket_file(self, ws, tmp_path, capsys, command, cases):
        rng = random.Random(f"{command}-buckets")
        original = json.loads(ws.buckets.read_text())
        path = tmp_path / "buckets.json"
        names = ["losses.json"] if command == "train" else [
            "baseline_random.json", "baseline_tsr.json"]
        flags = ["--cell", "tgcn", "--embed-dim", "4", "-L", "4", "--epochs", "1",
                 "--folds", "2"] if command == "train" else []
        codes = set()
        for case in range(cases):
            doc = self.mutated(original, rng)
            path.write_text(json.dumps(doc))
            out = tmp_path / f"out{case}"
            codes.add(self.check(
                [command, "--dataset", str(ws.dataset), "--buckets", str(path), *flags,
                 "--out-dir", str(out)], capsys,
                lambda: all(finite_numbers(json.loads((out / name).read_text()))
                            for name in names),
                f"case {case}: {doc}"))
        assert codes >= {0, 2}

    def test_canonical_signal(self, ws, tmp_path, capsys):
        rng = random.Random("prepare-canonical")
        original = json.loads(ws.dataset.read_text())
        path = tmp_path / "toy.json"  # without the sidecar, so the JSON is parsed
        codes = set()
        for case in range(150):
            doc = self.mutated(original, rng)
            path.write_text(json.dumps(doc))
            out = tmp_path / f"out{case}"
            codes.add(self.check(
                ["prepare", "--dataset", str(path), "-L", "4", "--out-dir", str(out)], capsys,
                lambda: finite_numbers(json.loads((out / "buckets.json").read_text())),
                f"case {case}: {doc}"))
        assert codes >= {0, 2}

    def test_detect_checkpoint(self, ws, tmp_path, capsys):
        rng = random.Random("detect-checkpoint")
        original = json.loads((ws.train_dir / "checkpoint_fold_0.json").read_text())
        path = tmp_path / "checkpoint.json"

        def outputs():
            with open(out / "scores.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            return rows and all(math.isfinite(float(row[key])) for row in rows
                                for key in ("score", "threshold") if row[key])

        codes = set()
        for case in range(200):
            doc = self.mutated(original, rng)
            path.write_text(json.dumps(doc))
            out = tmp_path / f"out{case}"
            codes.add(self.check(
                ["detect", "--dataset", str(ws.dataset), "--checkpoint", str(path), "-L", "4",
                 "--threshold", "0.5", "--out-dir", str(out)],
                capsys, outputs, f"case {case}: {doc}"))
        assert codes >= {0, 2}

class TestUnshuffledFolds:
    def test_blocks_in_bucket_order_evaluate_reproducibly(self, ws, tmp_path, capsys):
        run = tmp_path / "blocks"
        assert cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            *TRAIN_FLAGS, "--epochs", "1", "--no-shuffle-folds", "--out-dir", str(run),
        ]) == 0
        assert cli.main(["eval", "--run-dir", str(run)]) == 0
        starts = [fold.starts for fold in load_report(run / "eval" / "metrics.json").folds]
        # 13 buckets in 3 folds: contiguous blocks that concatenate to bucket order
        assert [len(fold) for fold in starts] == [5, 4, 4]
        assert [s for fold in starts for s in fold] == list(range(13))
        assert cli.main(["eval", "--run-dir", str(run), "--out-dir", str(tmp_path / "again")]) == 0
        assert digest(tmp_path / "again" / "metrics.json") == digest(run / "eval" / "metrics.json")
        capsys.readouterr()

    @pytest.mark.parametrize("flag, key, shuffled, redrawn", [
        ("--no-shuffle-folds", "no_shuffle_folds", False, False),
        ("--redraw-noise", "redraw_noise", True, True),
    ])
    def test_eval_echoes_the_split_and_redraw_from_the_checkpoints(
            self, ws, tmp_path, capsys, flag, key, shuffled, redrawn):
        run = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            *TRAIN_FLAGS, "--epochs", "1", flag, "--out-dir", str(run),
        ]) == 0
        # the flag is gone from run_config.json; the checkpoints' recipe still says it
        config = json.loads((run / "run_config.json").read_text())
        assert config["arguments"].pop(key) is True
        (run / "run_config.json").write_text(json.dumps(config))
        assert cli.main(["eval", "--run-dir", str(run)]) == 0
        echo = load_report(run / "eval" / "metrics.json").config
        assert echo["shuffle_folds"] is shuffled
        # a redraw runs at the bucket file's probability, echoed as noise_probability
        assert echo["redraw_probability"] == (echo["noise_probability"] if redrawn else None)
        assert echo["noise_probability"] == 0.5
        capsys.readouterr()


class TestBaseline:
    def test_both_methods_reported(self, base_dir):
        for method in ("random", "tsr"):
            report = load_report(base_dir / f"baseline_{method}.json")
            assert report.model == method
            assert report.total_samples == 13
            assert report.config["noise_seed"] == 3
            assert (base_dir / f"baseline_{method}.csv").exists()

    def test_rerun_is_byte_identical(self, ws, base_dir, tmp_path):
        assert cli.main(["baseline", "--dataset", str(ws.dataset),
                         "--buckets", str(ws.buckets), "--out-dir", str(tmp_path / "b2")]) == 0
        for method in ("random", "tsr"):
            name = f"baseline_{method}.json"
            assert digest(tmp_path / "b2" / name) == digest(base_dir / name)


    def test_a_refused_method_leaves_no_report(self, ws, tmp_path, capsys):
        # random scores windows of 2; trend regression refuses them after it
        assert cli.main(["prepare", "--dataset", str(ws.dataset), "-L", "2",
                         "--out-dir", str(tmp_path / "prep")]) == 0
        out = tmp_path / "out"
        assert cli.main(["baseline", "--dataset", str(ws.dataset),
                         "--buckets", str(tmp_path / "prep" / "buckets.json"),
                         "--out-dir", str(out)]) == 2
        assert "length >= 3" in stderr_line(capsys)["message"]
        assert sorted(p.name for p in out.iterdir()) == []

    def test_negative_seed_is_a_data_error(self, ws, tmp_path, capsys):
        assert cli.main(["baseline", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
                         "--seed", "-1", "--out-dir", str(tmp_path / "out")]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ContractError"
        assert "seed must be a nonnegative integer" in report["message"]


class TestDetect:
    def test_scores_and_events_with_snapshot_indexing(self, ws, tmp_path):
        out = tmp_path / "det"
        assert cli.main([
            "detect", "--dataset", str(ws.dataset),
            "--checkpoint", str(ws.train_dir / "checkpoint_fold_0.json"),
            "-L", "4", "--threshold", "0.01", "--out-dir", str(out),
        ]) == 0
        rows = (out / "scores.csv").read_text().strip().splitlines()
        assert rows[0] == "index,score,threshold"
        assert len(rows) == 1 + 13
        # window i covers snapshots [i, i+4); the first scored snapshot is 3
        assert rows[1].split(",")[0] == "3"
        assert json.loads((out / "events.json").read_text()) == []

    def test_window_length_is_the_checkpoints(self, ws, tmp_path):
        # the checkpoint was trained on 4-snapshot windows; without -L, detect
        # once scored 10-snapshot ones
        checkpoint = str(ws.train_dir / "checkpoint_fold_0.json")
        for name, length in (("given", ["-L", "4"]), ("derived", [])):
            assert cli.main(["detect", "--dataset", str(ws.dataset), "--checkpoint", checkpoint,
                             *length, "--threshold", "0.6", "--out-dir",
                             str(tmp_path / name)]) == 0
        rows = (tmp_path / "derived" / "scores.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 13 and rows[1].split(",")[0] == "3"
        for name in ("events.json", "scores.csv"):
            assert digest(tmp_path / "derived" / name) == digest(tmp_path / "given" / name)
        arguments = json.loads((tmp_path / "derived" / "run_config.json").read_text())["arguments"]
        assert arguments["bucket_length"] == 4

    @pytest.mark.parametrize("length", ["3", "10"])
    def test_another_window_length_is_refused(self, ws, tmp_path, capsys, length):
        # once exit 0, scoring windows the model was not trained on
        out = tmp_path / "det"
        code = cli.main(["detect", "--dataset", str(ws.dataset),
                         "--checkpoint", str(ws.train_dir / "checkpoint_fold_0.json"),
                         "-L", length, "--out-dir", str(out)])
        assert code == 2
        report = stderr_line(capsys)
        assert report["error"] == "ConfigError"
        assert report["message"] == f"-L {length}: the checkpoint's windows are 4 long"
        assert not (out / "scores.csv").exists()

    def test_oversized_trail_window_is_a_data_error(self, ws, tmp_path, capsys):
        code = cli.main([
            "detect", "--dataset", str(ws.dataset),
            "--checkpoint", str(ws.train_dir / "checkpoint_fold_0.json"),
            "-L", "4", "--mode", "zscore", "--window", "50",
            "--out-dir", str(tmp_path / "det"),
        ])
        assert code == 2
        assert "needs at least" in stderr_line(capsys)["message"]


    @pytest.mark.parametrize("damage", ["shape", "value", "count"])
    def test_malformed_checkpoint_is_a_parse_error(self, ws, tmp_path, capsys, damage):
        doc = json.loads((ws.train_dir / "checkpoint_fold_0.json").read_text(encoding="utf-8"))
        entry = doc["params"]["w_in"]
        if damage == "shape":  # once an IndexError traceback out of main
            entry["shape"] = [2]
        elif damage == "value":
            entry["data"][0] = float("nan")
        else:
            entry["data"].append(0.5)
        checkpoint = tmp_path / "damaged.json"
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main([
            "detect", "--dataset", str(ws.dataset), "--checkpoint", str(checkpoint),
            "-L", "4", "--out-dir", str(tmp_path / "det"),
        ])
        assert code == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "w_in" in report["message"]


class TestReport:
    def test_comparison_table_keeps_input_order(self, ws, evaluated, base_dir, tmp_path):
        out = tmp_path / "rep"
        assert cli.main([
            "report", "--inputs", str(evaluated / "metrics.json"),
            str(base_dir / "baseline_random.json"), str(base_dir / "baseline_tsr.json"),
            "--out-dir", str(out),
        ]) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()
        assert rows[0] == "dataset,model,mse,mae,rmse,sample_count"
        assert [r.split(",")[1] for r in rows[1:]] == ["tgcn", "random", "tsr"]
        assert all(r.split(",")[0] == "toy" for r in rows[1:])

    @pytest.mark.parametrize("damage", ["nan fold mse", "huge mean"])
    def test_metrics_that_are_not_finite_are_refused(self, evaluated, tmp_path, capsys, damage):
        doc = json.loads((evaluated / "metrics.json").read_text())
        if damage == "nan fold mse":  # its rmse and mae checks pass NaN
            doc["folds"][0]["mse"] = float("nan")
        else:
            doc["mean"]["mae"] = 10 ** 400
        (tmp_path / "metrics.json").write_text(json.dumps(doc))
        assert cli.main(["report", "--inputs", str(tmp_path / "metrics.json"),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert stderr_line(capsys)["error"] == "ParseError"

    def test_fold_metrics_that_disagree_with_predictions_are_refused(self, evaluated, tmp_path,
                                                                     capsys):
        # predictions equal to their labels give MSE 0, not the 0.25 stored
        doc = json.loads((evaluated / "metrics.json").read_text())
        fold = doc["folds"][0]
        fold.update(predictions=fold["labels"], mse=0.25, mae=0.5, rmse=0.5)
        doc["folds"] = [fold]
        doc["mean"] = {"mse": 0.25, "mae": 0.5, "rmse": 0.5, "sample_count": fold["sample_count"]}
        (tmp_path / "metrics.json").write_text(json.dumps(doc))
        assert cli.main(["report", "--inputs", str(tmp_path / "metrics.json"),
                         "--out-dir", str(tmp_path / "out")]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert re.search(r"folds\[0\]\.mse 0\.25 ", report["message"]), report["message"]
        assert not (tmp_path / "out" / "comparison.csv").exists()

    def test_mixed_protocols_are_refused_without_override(self, ws, base_dir, tmp_path, capsys):
        other_prep = tmp_path / "prep9"
        assert cli.main(["prepare", "--dataset", str(ws.dataset), "-L", "4",
                         "--seed", "9", "--out-dir", str(other_prep)]) == 0
        other_base = tmp_path / "base9"
        assert cli.main(["baseline", "--dataset", str(ws.dataset),
                         "--buckets", str(other_prep / "buckets.json"),
                         "--out-dir", str(other_base)]) == 0
        capsys.readouterr()

        inputs = [str(base_dir / "baseline_tsr.json"), str(other_base / "baseline_tsr.json")]
        code = cli.main(["report", "--inputs", *inputs, "--out-dir", str(tmp_path / "r1")])
        assert code == 2
        assert "noise_seed" in stderr_line(capsys)["message"]

        assert cli.main(["report", "--inputs", *inputs, "--allow-mixed",
                         "--out-dir", str(tmp_path / "r2")]) == 0
        rows = (tmp_path / "r2" / "comparison.csv").read_text().strip().splitlines()
        assert len(rows) == 3


BAD_JSON = {
    "non_utf8": b'{"name": "caf\xe9"}',
    "truncated": b'{"name": "toy", "edges": [[0, 1], [1',
    "nested_too_deep": b"[" * 100_000 + b"]" * 100_000,
}

# (command, file argument); a bare file name is that file in a copy of the
# train run that eval reads
FILE_ARGUMENTS = [
    ("convert", "--input"), ("convert", "--config"),
    ("prepare", "--dataset"), ("prepare", "--config"),
    ("train", "--dataset"), ("train", "--buckets"), ("train", "--config"),
    ("eval", "run_config.json"), ("eval", "checkpoint_fold_0.json"),
    ("eval", "checkpoint_fold_2.json"),
    ("eval", "--dataset"), ("eval", "--buckets"), ("eval", "--config"),
    ("baseline", "--dataset"), ("baseline", "--buckets"), ("baseline", "--config"),
    ("detect", "--dataset"), ("detect", "--checkpoint"), ("detect", "--config"),
    ("report", "--inputs"), ("report", "--config"),
]


# a value no JSON number loader may coerce: (command, the keys leading to it
# in the file the command reads, the location the message names)
REFUSED_NUMBERS = {
    "raw weights": ("convert", ("weights", 1), r"metrala: 'weights'\[1\]"),
    "raw features": ("convert", ("X", 2, 1), r"metrala: 'X'\[2\]\[1\]"),
    "canonical weights": ("prepare", ("weights", 3), r"weights\[3\]"),
    "canonical features": ("prepare", ("features", 1, 2, 0), r"features\[1\]\[2\]\[0\]"),
    "candidate": ("baseline", ("buckets", 1, "candidate", 0, 1),
                  r"buckets\[1\]: candidate\[0\]\[1\]"),
    "label": ("baseline", ("buckets", 1, "label"), r"buckets\[1\]: label"),
    "parameter": ("detect", ("params", "w_u", "data", 3),
                  r"malformed checkpoint: parameter 'w_u'\[3\]"),
    "bounds": ("detect", ("feature_bounds", "maxs", 1, 0),
               r"malformed checkpoint: feature_bounds\.maxs\[1\]\[0\]"),
    "metric": ("report", ("folds", 0, "mse"), r"folds\[0\]\.mse"),
    "prediction": ("report", ("folds", 0, "predictions", 1), r"folds\[0\]\.predictions\[1\]"),
    "sample count": ("report", ("folds", 0, "sample_count"), r"folds\[0\]\.sample_count"),
    "start": ("report", ("folds", 0, "starts", 1), r"folds\[0\]\.starts\[1\]"),
}
INTEGER_FIELDS = ("sample count", "start")


class TestErrorSurface:
    @pytest.mark.parametrize("case, value", [
        (case, value) for case in REFUSED_NUMBERS
        for value in [True, "1.5", None] + ([0.9] if case in INTEGER_FIELDS else [])])
    def test_value_that_is_no_json_number_is_a_data_error(self, ws, evaluated, tmp_path,
                                                          capsys, case, value):
        command, keys, where = REFUSED_NUMBERS[case]
        bad = tmp_path / "bad.json"
        arguments = {
            "convert": ["--input", bad, "--kind", "metrala", "--lenient-counts"],
            "prepare": ["--dataset", bad, "-L", "4"],
            "baseline": ["--dataset", ws.dataset, "--buckets", bad],
            "detect": ["--dataset", ws.dataset, "--checkpoint", bad, "-L", "4",
                       "--threshold", "0.5"],
            "report": ["--inputs", bad],
        }[command]
        source = {"prepare": ws.dataset, "baseline": ws.buckets,
                  "detect": ws.train_dir / "checkpoint_fold_0.json",
                  "report": evaluated / "metrics.json"}.get(command)
        doc = json.loads(source.read_text()) if source else {
            "edges": [[0, 1], [1, 2], [2, 0]], "weights": [1.0, 0.5, 2.0],
            "X": [[0.25, 0.5, 0.75] for _ in range(4)]}
        if case == "label":
            doc["buckets"][1]["perturbed_nodes"] = []  # label 1.0, which a `true` once matched
        owner = doc
        for key in keys[:-1]:
            owner = owner[key]
        owner[keys[-1]] = value
        bad.write_text(json.dumps(doc))

        argv = [command, *map(str, arguments), "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        report = stderr_line(capsys)
        assert report["error"] == ("AdapterError" if command == "convert" else "ParseError")
        # the file, the location, and the value as the file spells it
        pattern = rf"bad\.json: (.*: )?{where}: .*{re.escape(json.dumps(value))}$"
        assert re.search(pattern, report["message"]), report["message"]


    @pytest.mark.parametrize("content", sorted(BAD_JSON))
    @pytest.mark.parametrize("command, argument", FILE_ARGUMENTS)
    def test_unreadable_file_is_a_data_error(self, ws, tmp_path, capsys,
                                             command, argument, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(BAD_JSON[content])
        run = clone_run(ws.train_dir, tmp_path / "run")
        arguments = {
            "convert": {"--input": ws.dataset, "--kind": "chickenpox"},
            "prepare": {"--dataset": ws.dataset, "-L": "4"},
            "train": {"--dataset": ws.dataset, "--buckets": ws.buckets, "-L": "4"},
            "eval": {"--run-dir": run},
            "baseline": {"--dataset": ws.dataset, "--buckets": ws.buckets},
            "detect": {"--dataset": ws.dataset, "--checkpoint": run / "checkpoint_fold_0.json",
                       "-L": "4"},
            "report": {"--inputs": bad},
        }[command]
        if argument.startswith("--"):
            arguments[argument] = bad
        else:
            (run / argument).write_bytes(BAD_JSON[content])
        argv = [command, "--out-dir", str(tmp_path / "out")]
        for flag, value in arguments.items():
            argv += [flag, str(value)]

        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1, f"expected one diagnostic line, got: {err!r}"
        report = json.loads(lines[0])
        expected = "AdapterError" if argument == "--input" else "ParseError"
        assert report["error"] == expected
        assert (bad.name if argument.startswith("--") else argument) in report["message"]

    @pytest.mark.parametrize("command", ["train", "baseline"])
    @pytest.mark.parametrize("field, value", [("length", 4.0), ("start", 0.0), ("start", True)])
    def test_non_integer_bucket_position_is_a_data_error(self, ws, tmp_path, capsys,
                                                         command, field, value):
        doc = json.loads(ws.buckets.read_text())
        if field == "length":
            doc["length"] = value
        else:
            doc["buckets"][0]["start"] = value
        bad = tmp_path / "buckets.json"
        bad.write_text(json.dumps(doc))
        argv = [command, "--dataset", str(ws.dataset), "--buckets", str(bad),
                "--out-dir", str(tmp_path / "out")]
        if command == "train":
            argv += ["-L", "4", "--epochs", "1"]
        assert cli.main(argv) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert f"bucket {field} must be an integer" in report["message"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_candidate_is_a_data_error(self, ws, tmp_path, capsys, value):
        # a trend score over it would be nan, and the report would carry it
        doc = json.loads(ws.buckets.read_text())
        doc["buckets"][1]["candidate"][0][0] = value
        bad = tmp_path / "buckets.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["baseline", "--dataset", str(ws.dataset), "--buckets", str(bad),
                         "--out-dir", str(tmp_path / "out")]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "buckets[1]" in report["message"] and "non-finite" in report["message"]
        assert not (tmp_path / "out" / "baseline_tsr.json").exists()

    @pytest.mark.parametrize("kind, member, value", [
        ("wikimath", "time_periods", "2"), ("wikimath", "time_periods", True),
        ("montevideobus", "links", 5), ("montevideobus", "nodes", 5)])
    def test_wrong_typed_adapter_member_is_a_data_error(self, tmp_path, capsys,
                                                        kind, member, value):
        doc = {"wikimath": {"edges": [[0, 1]], "weights": [1.0], "time_periods": 2,
                            "0": {"y": [1.0, 2.0]}, "1": {"y": [3.0, 4.0]}},
               "montevideobus": {"nodes": [{"y": [1.0, 2.0]}, {"y": [3.0, 4.0]}],
                                 "links": [{"source": 0, "target": 1}]}}[kind]
        doc[member] = value
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(doc))
        assert cli.main(["convert", "--input", str(raw), "--kind", kind, "--lenient-counts",
                         "--out-dir", str(tmp_path / "out")]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "AdapterError"
        assert "raw.json" in report["message"] and f"'{member}'" in report["message"]

    def test_bool_perturbed_node_is_a_data_error(self, ws, tmp_path, capsys):
        # with the label (N-1)/N a `true` once loaded as node 1
        doc = json.loads(ws.buckets.read_text())
        n = len(doc["buckets"][1]["candidate"])
        doc["buckets"][1].update(perturbed_nodes=[True], label=(n - 1) / n)
        bad = tmp_path / "buckets.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["baseline", "--dataset", str(ws.dataset), "--buckets", str(bad),
                         "--out-dir", str(tmp_path / "out")]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert re.search(r"buckets\[1\]: perturbed_nodes .*true$", report["message"]), (
            report["message"])

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert stderr_line(capsys)["error"] == "UsageError"

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1
        assert "subcommand" in stderr_line(capsys)["message"]

    def test_unknown_flag(self, ws, capsys):
        assert cli.main(["prepare", "--dataset", str(ws.dataset), "--bogus"]) == 1
        assert "--bogus" in stderr_line(capsys)["message"]

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["prepare", "--dataset", str(tmp_path / "gone.json"),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        report = stderr_line(capsys)
        assert report["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_bucket_file_without_buckets_is_a_data_error(self, ws, tmp_path, capsys, command):
        doc = json.loads(ws.buckets.read_text())
        doc["buckets"] = []
        bad = tmp_path / "buckets.json"
        bad.write_text(json.dumps(doc))
        assert cli.main([command, "--dataset", str(ws.dataset), "--buckets", str(bad),
                         "--out-dir", str(tmp_path / "out")]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "buckets.json" in report["message"] and "'buckets'" in report["message"]

    def test_wrong_bucket_length_for_file(self, ws, tmp_path, capsys):
        code = cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            "-L", "10", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert stderr_line(capsys)["error"] == "ContractError"


class TestEntryPoints:
    def test_module_invocation_reports_version(self):
        # the child imports tgsim from where this process did, with or
        # without PYTHONPATH (pytest's own `pythonpath` setting stays in-process)
        path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "tgsim", "--version"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "tgsim 0.1.0"

    def test_run_config_names_the_toolkit_version(self, ws):
        config = json.loads((ws.train_dir / "run_config.json").read_text())
        assert config["version"] == "0.1.0"
        assert config["command"] == "train"
        assert config["arguments"]["epochs"] == 3
        assert "config" not in config["arguments"]
