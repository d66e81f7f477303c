"""Seed sweep of the headline cross-validation: how often a fold collapses.

Runs the headline cross-validation (`training.run_folds`, the path
`cross_validate` takes, on a shuffled split) for every given
cell and seed on one of two shapes, and prints one line per run, then a
table with, per cell, the folds that collapsed to a near-constant
prediction (standard deviation at most 0.002) and the median and range of
the mean MSE over seeds.

- `--shape chickenpox` (the default): the chickenpox-shaped test corpus
  (`tests/synth.py`'s `chickenpox_like()`), corrupted with
  `NoiseSpec(0.5, 11)`, windows of 10, 3 folds.
- `--shape metrala`: the benchmark's metrala-shaped stream
  (`bench/inputs.metrala_corpus(seed)`, 207 nodes, 3224 snapshots), read
  as the `cli-metrala` pipeline reads it: windows of 10 at stride 32,
  `-p 0.5`, 2 folds, the noise and training seed derived from the seed as
  that workload derives them.

    python scripts/seed_sweep.py --cells a3tgcn tgcn gconv_gru --seeds 1 2 3 4 5 --epochs 30
    python scripts/seed_sweep.py --shape metrala --cells a3tgcn --seeds 1 2 3 --epochs 30
    python scripts/seed_sweep.py --shape metrala --cells a3tgcn --seeds 1 2 3 --redraw-noise

The learning rate defaults to `TrainConfig`'s and the batch size to
`training.BATCH_SIZE`; `--batch-size` overrides the constant for the runs.
`--redraw-noise` redraws each fold's training corruption every epoch, as
`tgsim train --redraw-noise` does (`TrainConfig.redraw_probability` at the
shape's probability of 0.5, seeded from each fold's seed); without it every
epoch trains on the one labeled set.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from inputs import derived_seed, metrala_corpus  # noqa: E402
from synth import chickenpox_like  # noqa: E402
from tgsim import training  # noqa: E402
from tgsim.data import TemporalGraphSignal, node_bounds  # noqa: E402
from tgsim.model import CELL_KINDS, ModelConfig  # noqa: E402
from tgsim.noise import NoiseSpec, bucketize, inject_noise  # noqa: E402
from tgsim.training import TrainConfig  # noqa: E402

COLLAPSE_STD = 0.002
BUCKET_LENGTH = 10
NOISE_PROBABILITY = 0.5  # both shapes' corruption probability
# the cli-metrala workload's protocol (bench/workloads.py): stride, folds
METRALA_STRIDE, METRALA_FOLDS = 32, 2


def labeled_windows(shape: str, seed: int):
    """The shape's labeled windows, its fold count and the training seed for `seed`."""
    if shape == "chickenpox":
        signal = chickenpox_like()
        buckets, folds = bucketize(signal, BUCKET_LENGTH), 3
        spec = NoiseSpec(NOISE_PROBABILITY, 11)
    else:
        corpus, _ = metrala_corpus(seed)
        signal = TemporalGraphSignal(corpus.name, corpus.num_nodes, corpus.edges,
                                     corpus.weights, corpus.features, corpus.frequency)
        seed = derived_seed(seed, 13)  # the workload's prepare and train --seed
        buckets = bucketize(signal, BUCKET_LENGTH, METRALA_STRIDE)
        spec, folds = NoiseSpec(NOISE_PROBABILITY, seed), METRALA_FOLDS
    return inject_noise(buckets, node_bounds(signal), spec), folds, seed


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shape", choices=("chickenpox", "metrala"), default="chickenpox")
    parser.add_argument("--cells", nargs="+", default=list(CELL_KINDS), choices=CELL_KINDS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    parser.add_argument("--batch-size", type=int, default=training.BATCH_SIZE)
    parser.add_argument("--redraw-noise", action="store_true",
                        help="redraw each fold's training corruption every epoch")
    args = parser.parse_args(argv)
    if args.batch_size < 1:
        parser.error("--batch-size must be a positive integer")
    training.BATCH_SIZE = args.batch_size  # read by train at each call, forked folds too

    rows = []
    for cell in args.cells:
        means, collapsed, folds = [], 0, 0
        for seed in args.seeds:
            labeled, fold_count, train_seed = labeled_windows(args.shape, seed)
            config = TrainConfig(
                epochs=args.epochs, learning_rate=args.learning_rate, bucket_length=BUCKET_LENGTH,
                folds=fold_count, seed=train_seed,
                redraw_probability=NOISE_PROBABILITY if args.redraw_noise else None)
            start = time.perf_counter()
            runs = training.run_folds(labeled, config, ModelConfig(cell, input_channels=1))
            results = [result for _, _, result in runs]
            flat = [float(np.std(fold.predictions)) <= COLLAPSE_STD for fold in results]
            collapsed += sum(flat)
            folds += len(flat)
            means.append(float(np.mean([fold.mse for fold in results])))
            print(f"{cell} seed {seed}: mean MSE {means[-1]:.4f}, folds "
                  + ", ".join(f"{f.mse:.4f}{' (collapsed)' if c else ''}"
                              for f, c in zip(results, flat))
                  + f" [{time.perf_counter() - start:.0f} s]", flush=True)
        rows.append((cell, collapsed, folds, np.median(means), min(means), max(means)))

    seeds = ", ".join(map(str, args.seeds))
    redraw = ", --redraw-noise" if args.redraw_noise else ""
    print(f"\n{args.shape}, lr {args.learning_rate:g}, batch {args.batch_size}, "
          f"{args.epochs} epochs{redraw}, seeds {seeds}\n")
    print("| Cell | Collapsed folds | Mean MSE, median [range] |")
    print("|---|---|---|")
    for cell, collapsed, folds, median, low, high in rows:
        print(f"| {cell} | {collapsed}/{folds} | {median:.4f} [{low:.4f}, {high:.4f}] |")


if __name__ == "__main__":
    main()
