"""Shared fixtures for the test suite.

The expensive piece is the three-fold training run on the synthetic
chickenpox-shaped corpus; it is session-scoped and shared by every
acceptance check that needs a trained model.  Its verdict lines are
collected in ACCEPTANCE_LINES and echoed in the terminal summary.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from synth import chickenpox_like, pedalme_like_raw
from tgsim.data import node_bounds
from tgsim.model import ModelConfig
from tgsim.noise import NoiseSpec, bucketize, inject_noise
from tgsim.training import TrainConfig, cross_validate, kfold_split

ACCEPTANCE_LINES: list[str] = []

BUCKET_LENGTH = 10
NOISE = NoiseSpec(corrupt_probability=0.5, seed=11)
TRAIN = TrainConfig(epochs=30, bucket_length=BUCKET_LENGTH, folds=3, seed=1)


def record(check: str, passed: bool, detail: str) -> None:
    line = f"acceptance {check}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail any test that leaves a live child process; the benchmark refuses such a run."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"the test left {len(left)} child process(es) running: {left}"


@pytest.fixture
def pool_in_process(monkeypatch):
    """The fork pool sees one CPU, so its jobs run in this process, where monkeypatches see them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture(scope="session")
def chickenpox_corpus():
    signal = chickenpox_like()
    bounds = node_bounds(signal)
    labeled = inject_noise(bucketize(signal, BUCKET_LENGTH), bounds, NOISE)
    return {"signal": signal, "bounds": bounds, "labeled": labeled}


@pytest.fixture(scope="session")
def chickenpox_run(chickenpox_corpus):
    """The headline three-fold run; timed, with per-fold checkpoints."""
    labeled = chickenpox_corpus["labeled"]
    start = time.time()
    report, checkpoints = cross_validate(
        labeled, TRAIN, ModelConfig("a3tgcn", input_channels=1))
    elapsed = time.time() - start
    folds = kfold_split(labeled, TRAIN.folds, TRAIN.seed)
    return {
        "report": report,
        "checkpoints": checkpoints,
        "elapsed": elapsed,
        "folds": folds,
        "ordering_ok": None,  # set by the ordering check, read by the soft one
    }


@pytest.fixture(scope="session")
def pedalme_raw_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pedalme") / "raw.json"
    path.write_text(json.dumps(pedalme_like_raw()))
    return path


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance checks")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
