"""Smoke test: every script under scripts/ imports and prints its usage.

`--help` runs each script's imports and argument parser and nothing more,
so a name a script imports or patches that the library no longer has
fails here instead of at the script's next use.
"""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(path):
    run = subprocess.run([sys.executable, str(path), "--help"], timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "usage:" in run.stdout


def test_seed_sweep_runs_the_metrala_shape():
    # one seed, one epoch, one cell: the sweep on bench/inputs.metrala_corpus
    script = SCRIPTS[0].parent / "seed_sweep.py"
    run = subprocess.run([sys.executable, str(script), "--shape", "metrala", "--cells", "tgcn",
                          "--seeds", "1", "--epochs", "1"], timeout=300,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("tgcn seed 1: mean MSE ")
    assert "\n| tgcn | 0/2 | " in run.stdout


def test_seed_sweep_redraws_noise():
    # one seed, one epoch, one cell, each fold's corruption redrawn every epoch, and not
    script = SCRIPTS[0].parent / "seed_sweep.py"
    runs = [subprocess.run([sys.executable, str(script), "--cells", "tgcn", "--seeds", "1",
                            "--epochs", "1", *extra], timeout=300, capture_output=True, text=True)
            for extra in (["--redraw-noise"], [])]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("tgcn seed 1: mean MSE ")
        assert "\n| tgcn | " in run.stdout
    assert "\nchickenpox, lr 0.003, batch 8, 1 epochs, --redraw-noise, seeds 1\n" in runs[0].stdout
    # the seed's line without its timing: the redraw must reach the training
    redrawn, fixed = (run.stdout.splitlines()[0].rsplit(" [", 1)[0] for run in runs)
    assert redrawn != fixed


def test_window_memory_measures_every_shape():
    # the full run for one cell: a training step's memory at all five shapes
    script = SCRIPTS[0].parent / "window_memory.py"
    run = subprocess.run([sys.executable, str(script), "--cells", "gconv_gru"], timeout=300,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    row = run.stdout.strip().splitlines()[-1]
    assert row.startswith("| gconv_gru | ")
    assert row.count(" / ") == row.count(" + ") == 5


def load_script(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, SCRIPTS[0].parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarizes_synthetic_pairs():
    bench_pairs = load_script("bench_pairs")

    def run(mb, rate, convert):
        return {"metrics": {"peak_rss_mb": mb, "score_windows_per_s": rate},
                "command_s": {"convert": convert, "detect": 3.0}}

    # the change's memory is lower in 9 of 10 pairs and its rate never moves
    pairs = [{"parent": run(96.0 + i / 10, 900.0, 1.2), "change": run(78.0 + i / 10, 900.0, 1.0)}
             for i in range(9)]
    pairs.append({"parent": run(96.0, 900.0, 1.2), "change": run(97.0, 900.0, 0.8)})
    pairs.append({"parent": run(96.0, 900.0, 1.4), "change": {"correct": False}})
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
               {"name": "score_windows_per_s", "better": "higher", "bound": 0.25}]
    summary = bench_pairs.summarize(pairs, metrics)
    rss = summary["peak_rss_mb"]
    assert (rss["pairs"], rss["won"], rss["lost"]) == (11, 9, 1)
    assert rss["parent"]["median"] == pytest.approx(96.3)
    assert rss["change"]["median"] == pytest.approx(78.45)
    assert not rss["gain_rule_met"]  # 9 of 11 pairs is under nine tenths
    rate = summary["score_windows_per_s"]
    assert (rate["won"], rate["lost"], rate["change_over_parent"]) == (0, 0, 1.0)
    assert not rate["gain_rule_met"]
    assert bench_pairs.summarize(pairs[:10], metrics)["peak_rss_mb"]["gain_rule_met"]
    assert not rss["past_bound"] and not rate["past_bound"]

    # worse by more than the bound, a share of the parent's median, in either direction
    swapped = [{"parent": p["change"], "change": p["parent"]} for p in pairs[:10]]
    assert bench_pairs.summarize(swapped, metrics)["peak_rss_mb"]["past_bound"]  # 78.45 -> 96.3
    for rate, past in ((670.0, True), (675.0, False)):  # 675 is exactly 25 % worse
        slower = [{"parent": run(96.0, 900.0, 1.0), "change": run(96.0, rate, 1.0)}]
        assert bench_pairs.summarize(slower, metrics)["score_windows_per_s"]["past_bound"] is past

    commands = bench_pairs.command_medians(pairs)
    assert commands["convert"] == {"parent": 1.2, "change": 1.0,
                                   "change_over_parent": pytest.approx(1.0 / 1.2)}
    assert commands["detect"] == {"parent": 3.0, "change": 3.0, "change_over_parent": 1.0}
    assert bench_pairs.medians([{"convert": 1.0}, {"convert": 3.0, "train": 2.0}, {}]) == {
        "convert": 2.0, "train": 2.0}


def test_bench_pairs_counts_net_src_lines(tmp_path):
    bench_pairs = load_script("bench_pairs")
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__pycache__").mkdir()
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "sub" / "b.py").write_text("y = 2\nz = 3\n")
    (package / "notes.txt").write_text("not code\n")
    (package / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\n\n\n")
    (tmp_path / "setup.py").write_text("outside src\n")
    assert bench_pairs.src_lines(tmp_path) == 5  # a.py and b.py, as wc -l counts them


def test_pool_breakeven_alternates_which_side_runs_first():
    pool_breakeven = load_script("pool_breakeven")
    owner = SimpleNamespace(floor=7)
    seen = []
    serial, pooled = pool_breakeven.timed(lambda: seen.append(owner.floor), owner, "floor", 4)
    assert owner.floor == 7  # restored
    assert seen == [pool_breakeven.NEVER, 0, 0, pool_breakeven.NEVER,
                    pool_breakeven.NEVER, 0, 0, pool_breakeven.NEVER]
    firsts = seen[::2]
    assert firsts.count(pool_breakeven.NEVER) == firsts.count(0) == 2
    assert serial >= 0 and pooled >= 0
