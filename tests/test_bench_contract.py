"""The benchmark's use of `tgsim` still works: its workloads run, its CLI argv parse.

`bench/` is read here, never changed. A workload run writes its record
under `.bench_out/` of the checkout, as any benchmark run does, so do not
run this alongside a benchmark series on the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tgsim import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.mark.parametrize("workload", ["cv-chickenpox", "train-wikimath"])
def test_workload_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_cli_workload_argv_parse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import CliMetrala

    parser, _ = cli.build_parser()
    for command, args in CliMetrala(seed=1, work=tmp_path)._commands():
        assert parser.parse_args([command, *args]).command == command
