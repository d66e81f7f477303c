"""Command-line pipeline: artifacts, replay, exit codes, stderr contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tgsim import cli
from tgsim.data import TemporalGraphSignal, load_canonical, write_canonical
from tgsim.model import ModelConfig, load_checkpoint
from tgsim.training import TrainConfig, config_echo, load_report


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


class TestTrain:
    def test_artifacts(self, ws):
        names = {p.name for p in ws.train_dir.iterdir()}
        assert {"checkpoint_fold_0.json", "checkpoint_fold_1.json",
                "checkpoint_fold_2.json", "losses.json", "folds.json",
                "run_config.json"} <= names
        losses = json.loads((ws.train_dir / "losses.json").read_text())
        assert [len(h) for h in losses["per_fold"]] == [3, 3, 3]

    def test_fold_record_partitions_the_bucket_starts(self, ws):
        folds = json.loads((ws.train_dir / "folds.json").read_text())
        seen = sorted(start for fold in folds["test_starts"] for start in fold)
        assert seen == list(range(13))
        assert list(folds) == ["test_starts"]
        # shuffled: not the contiguous blocks of --no-shuffle-folds
        assert [s for fold in folds["test_starts"] for s in fold] != seen

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

    def test_tampered_fold_record_is_detected(self, ws, tmp_path, capsys):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        folds = json.loads((clone / "folds.json").read_text())
        folds["test_starts"][0], folds["test_starts"][1] = (
            folds["test_starts"][1], folds["test_starts"][0])
        (clone / "folds.json").write_text(json.dumps(folds))
        code = cli.main(["eval", "--run-dir", str(clone)])
        assert code == 2
        assert "fold assignment" in stderr_line(capsys)["message"]

    def test_fold_record_must_be_an_object(self, ws, tmp_path, capsys):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        (clone / "folds.json").write_text("[]")
        assert cli.main(["eval", "--run-dir", str(clone)]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "folds.json" in report["message"]

    @pytest.mark.parametrize("field", ["dataset", "buckets", "no_shuffle_folds", "epochs"])
    def test_run_config_missing_a_field(self, ws, tmp_path, capsys, field):
        clone = clone_run(ws.train_dir, tmp_path / "clone")
        config = json.loads((clone / "run_config.json").read_text())
        del config["arguments"][field]
        (clone / "run_config.json").write_text(json.dumps(config))
        assert cli.main(["eval", "--run-dir", str(clone)]) == 2
        report = stderr_line(capsys)
        assert report["error"] == "ParseError"
        assert "missing a field" in report["message"] and field in report["message"]


class TestUnshuffledFolds:
    def test_blocks_in_bucket_order_evaluate_reproducibly(self, ws, tmp_path, capsys):
        run = tmp_path / "blocks"
        assert cli.main([
            "train", "--dataset", str(ws.dataset), "--buckets", str(ws.buckets),
            *TRAIN_FLAGS, "--epochs", "1", "--no-shuffle-folds", "--out-dir", str(run),
        ]) == 0
        starts = json.loads((run / "folds.json").read_text())["test_starts"]
        # 13 buckets in 3 folds: contiguous blocks that concatenate to bucket order
        assert [len(fold) for fold in starts] == [5, 4, 4]
        assert [s for fold in starts for s in fold] == list(range(13))
        assert cli.main(["eval", "--run-dir", str(run)]) == 0
        assert cli.main(["eval", "--run-dir", str(run), "--out-dir", str(tmp_path / "again")]) == 0
        assert digest(tmp_path / "again" / "metrics.json") == digest(run / "eval" / "metrics.json")
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

    def test_oversized_trail_window_is_a_data_error(self, ws, tmp_path, capsys):
        code = cli.main([
            "detect", "--dataset", str(ws.dataset),
            "--checkpoint", str(ws.train_dir / "checkpoint_fold_0.json"),
            "-L", "4", "--mode", "zscore", "--window", "50",
            "--out-dir", str(tmp_path / "det"),
        ])
        assert code == 2
        assert "needs at least" in stderr_line(capsys)["message"]


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
}

# (command, file argument); a bare file name is that file in a copy of the
# train run that eval reads
FILE_ARGUMENTS = [
    ("convert", "--input"), ("convert", "--config"),
    ("prepare", "--dataset"), ("prepare", "--config"),
    ("train", "--dataset"), ("train", "--buckets"), ("train", "--config"),
    ("eval", "run_config.json"), ("eval", "folds.json"), ("eval", "checkpoint_fold_0.json"),
    ("eval", "--dataset"), ("eval", "--buckets"), ("eval", "--config"),
    ("baseline", "--dataset"), ("baseline", "--buckets"), ("baseline", "--config"),
    ("detect", "--dataset"), ("detect", "--checkpoint"), ("detect", "--config"),
    ("report", "--inputs"), ("report", "--config"),
]


class TestErrorSurface:
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
