"""Serial against pooled `train` batches and `score_windows` calls, per dataset shape.

For the metrala, montevideobus and wikimath shapes (`tests/synth.py`'s
`published_signal`), times one epoch of `training.train` over a few
labeled windows with every batch run in this process and with every batch
run on the fork pool (`training._BATCH_POOL_FLOOR` set past any batch,
then to 0), and likewise `model.score_windows` calls of a few sizes
(`model._POOL_FLOOR`). Each timing is the median of `--repeats` runs, the
serial and pooled runs alternated, and which of them goes first alternated
from one repeat to the next, so the process's one-time warm-up does not
land on one side only; serial runs use this process's BLAS
threads, pooled workers one each. Prints one line per shape, with each
call's windows x nodes beside it, the figure the two floors compare.

    python scripts/pool_breakeven.py --cell a3tgcn --train-windows 16 --score-windows 24 96
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from synth import DATASET_SHAPES, published_signal  # noqa: E402
from tgsim import _pool, model, training  # noqa: E402
from tgsim.data import node_bounds  # noqa: E402
from tgsim.model import (CELL_KINDS, Checkpoint, ModelConfig, ModelParams, Provenance,  # noqa: E402
                         score_windows)
from tgsim.noise import NoiseSpec, bucketize, inject_noise  # noqa: E402

LENGTH = 10
SHAPES = ("metrala", "montevideobus", "wikimath")
NEVER = float("inf")


def timed(run, floor_owner, name, repeats):
    """Median seconds of run() with the floor `name` of `floor_owner` past every call, and at 0.

    Even repeats run the serial side (past every call) first, odd ones the pooled side.
    """
    saved = getattr(floor_owner, name)
    seconds = {NEVER: [], 0: []}
    try:
        for repeat in range(repeats):
            for floor in (NEVER, 0) if repeat % 2 == 0 else (0, NEVER):
                setattr(floor_owner, name, floor)
                began = time.perf_counter()
                run()
                seconds[floor].append(time.perf_counter() - began)
    finally:
        setattr(floor_owner, name, saved)
    return statistics.median(seconds[NEVER]), statistics.median(seconds[0])


def shape_line(name, args):
    n = DATASET_SHAPES[name][0]
    most = max(args.train_windows, *args.score_windows)
    signal = published_signal(name, LENGTH - 1 + most)
    labeled = inject_noise(bucketize(signal, LENGTH), node_bounds(signal), NoiseSpec(0.5, 3))
    config = ModelConfig(args.cell, 1)
    train_config = training.TrainConfig(epochs=1, bucket_length=LENGTH, seed=4)
    checkpoint = Checkpoint(ModelParams.initialize(config, 5), node_bounds(signal),
                            Provenance(recipe=train_config))  # scores windows of LENGTH
    score_windows(signal, checkpoint, [0])  # builds A_hat before any timing

    batch = min(training.BATCH_SIZE, args.train_windows)
    serial, pooled = timed(lambda: training.train(labeled[:args.train_windows], train_config,
                                                  config),
                           training, "_BATCH_POOL_FLOOR", args.repeats)
    parts = [f"{name} N={n}: train {args.train_windows} windows (batch {batch} x {n} = "
             f"{batch * n}) {serial:.3f} -> {pooled:.3f} s (x{serial / pooled:.2f})"]
    for windows in args.score_windows:
        starts = range(windows)
        serial, pooled = timed(lambda: score_windows(signal, checkpoint, starts),
                               model, "_POOL_FLOOR", args.repeats)
        parts.append(f"score {windows} ({windows * n}) {serial:.3f} -> {pooled:.3f} s "
                     f"(x{serial / pooled:.2f})")
    return "; ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cell", choices=CELL_KINDS, default="a3tgcn")
    parser.add_argument("--train-windows", type=int, default=16)
    parser.add_argument("--score-windows", type=int, nargs="+", default=[24, 96])
    parser.add_argument("--shapes", nargs="+", choices=SHAPES, default=list(SHAPES))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    blas = _pool._openblas()
    print(f"{args.cell}, serial -> pooled seconds (serial/pooled); {_pool.workers()} pool workers, "
          f"{blas.get() if blas else '?'} BLAS threads in this process")
    for name in args.shapes:
        print(shape_line(name, args), flush=True)


if __name__ == "__main__":
    main()
