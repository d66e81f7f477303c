"""Smoke test: every script under scripts/ imports and prints its usage.

`--help` runs each script's imports and argument parser and nothing more,
so a name a script imports or patches that the library no longer has
fails here instead of at the script's next use.
"""

import subprocess
import sys
from pathlib import Path

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
