"""The names `tgsim` exports: `__all__` is the whole public surface, and all of it resolves."""

import os
import subprocess
import sys
import types
from pathlib import Path

import tgsim


def test_every_exported_name_resolves():
    assert [name for name in tgsim.__all__ if not hasattr(tgsim, name)] == []


def test_no_name_is_exported_twice():
    assert len(set(tgsim.__all__)) == len(tgsim.__all__)


def test_every_public_attribute_is_exported():
    public = {name for name, value in vars(tgsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(tgsim.__all__)) == []


def test_importing_the_package_leaves_numpy_random_unloaded():
    # labeling loads numpy.random on first use; CLI commands without it never do
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c", "import sys, tgsim, tgsim.cli; "
         "print('numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
