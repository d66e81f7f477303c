"""Seed sweep of the headline cross-validation: how often a fold collapses.

Runs `cross_validate` on the chickenpox-shaped test corpus
(`tests/synth.py`'s `chickenpox_like()`, corrupted with
`NoiseSpec(0.5, 11)`, windows of 10) for every given cell and seed, and
prints one line per run, then a table with, per cell, the folds that
collapsed to a near-constant prediction (standard deviation at most
0.002) and the median and range of the mean MSE over seeds.

    python scripts/seed_sweep.py --cells a3tgcn tgcn gconv_gru --seeds 1 2 3 4 5 --epochs 30

The learning rate defaults to `TrainConfig`'s.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from synth import chickenpox_like  # noqa: E402
from tgsim.data import node_bounds  # noqa: E402
from tgsim.model import CELL_KINDS, ModelConfig  # noqa: E402
from tgsim.noise import NoiseSpec, bucketize, inject_noise  # noqa: E402
from tgsim.training import TrainConfig, cross_validate  # noqa: E402

COLLAPSE_STD = 0.002
BUCKET_LENGTH = 10


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cells", nargs="+", default=list(CELL_KINDS), choices=CELL_KINDS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    args = parser.parse_args(argv)

    signal = chickenpox_like()
    labeled = inject_noise(bucketize(signal, BUCKET_LENGTH), node_bounds(signal),
                           NoiseSpec(0.5, 11))
    rows = []
    for cell in args.cells:
        means, collapsed, folds = [], 0, 0
        for seed in args.seeds:
            config = TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                                 bucket_length=BUCKET_LENGTH, folds=3, seed=seed)
            start = time.perf_counter()
            report, _ = cross_validate(labeled, config, ModelConfig(cell, input_channels=1))
            stds = [float(np.std(fold.predictions)) for fold in report.folds]
            flat = [std <= COLLAPSE_STD for std in stds]
            collapsed += sum(flat)
            folds += len(flat)
            means.append(report.mean_mse)
            print(f"{cell} seed {seed}: mean MSE {report.mean_mse:.4f}, folds "
                  + ", ".join(f"{f.mse:.4f}{' (collapsed)' if c else ''}"
                              for f, c in zip(report.folds, flat))
                  + f" [{time.perf_counter() - start:.0f} s]", flush=True)
        rows.append((cell, collapsed, folds, np.median(means), min(means), max(means)))

    seeds = ", ".join(map(str, args.seeds))
    print(f"\nlr {args.learning_rate:g}, {args.epochs} epochs, seeds {seeds}\n")
    print("| Cell | Collapsed folds | Mean MSE, median [range] |")
    print("|---|---|---|")
    for cell, collapsed, folds, median, low, high in rows:
        print(f"| {cell} | {collapsed}/{folds} | {median:.4f} [{low:.4f}, {high:.4f}] |")


if __name__ == "__main__":
    main()
