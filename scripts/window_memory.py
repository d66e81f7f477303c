"""Memory one training step holds at each published dataset shape, per cell.

For every cell and every shape of `adapters.DATASET_SHAPES`, runs one
training step on one 10-snapshot window: `forward_pass` under a tape, a
squared error, and its backward. The step traced is a model's second, as
every step of a `train` after its first: the backward's scratch buffers,
which persist across steps, and the A_hat operator exist before tracing
starts. Prints, in MiB as tracemalloc counts them, what the step holds
once the forward has run (the activations its backward reads), its peak
over forward and backward, and the size of the scratch buffers. Signals
come from `tests/synth.py`'s `published_signal`; pedalme, whose published
225 arcs are every ordered pair of its 15 nodes, gets that complete graph
with self-loops.

    python scripts/window_memory.py --cells a3tgcn tgcn gconv_gru
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from synth import DATASET_SHAPES as ARC_SHAPES  # noqa: E402
from synth import published_signal  # noqa: E402
from tgsim import autodiff as ad  # noqa: E402
from tgsim.adapters import DATASET_SHAPES  # noqa: E402
from tgsim.autodiff import Tape, Tensor, backward  # noqa: E402
from tgsim.data import TemporalGraphSignal, adjacency_operator  # noqa: E402
from tgsim.model import CELL_KINDS, ModelConfig, ModelParams, forward_pass  # noqa: E402

STEPS = 10
MIB = 1 << 20


def shape_signal(name):
    """A one-channel signal of STEPS snapshots at the named dataset's nodes and arcs."""
    if name in ARC_SHAPES:
        return published_signal(name, STEPS)
    n = DATASET_SHAPES[name][0]
    edges = tuple((i, j) for i in range(n) for j in range(n))
    features = np.random.default_rng([0, n, 1]).uniform(size=(STEPS, n, 1))
    return TemporalGraphSignal(name, n, edges, None, features)


def traced_step(kind, signal):
    """(held, peak, scratch) bytes of a model's second training step on `signal`'s window."""
    params = ModelParams.initialize(ModelConfig(kind, 1), 0)
    a_hat, window = adjacency_operator(signal), signal.features[:STEPS]

    def step():
        with Tape():
            out = forward_pass(window, a_hat, params)
            held = tracemalloc.get_traced_memory()[0]
            backward(ad.square(ad.subtract(out, Tensor([[0.5]]))))
        return held

    step()  # untraced: allocates the backward's scratch buffers
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = step() - base
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return held, peak, sum(buffer.nbytes for buffer in params.scratch.values())


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cells", nargs="+", default=list(CELL_KINDS), choices=CELL_KINDS)
    args = parser.parse_args(argv)
    names = sorted(DATASET_SHAPES, key=lambda name: DATASET_SHAPES[name][0])
    signals = {name: shape_signal(name) for name in names}
    print(f"One training step, one {STEPS}-snapshot window, MiB: held after the forward / "
          "peak over forward and backward + the backward's scratch buffers\n")
    print("| Cell | " + " | ".join(f"{name} (N = {DATASET_SHAPES[name][0]})" for name in names)
          + " |")
    print("|---|" + "---|" * len(names))
    for kind in args.cells:
        cells = []
        for name in names:
            held, peak, scratch = traced_step(kind, signals[name])
            cells.append(f"{held / MIB:.1f} / {peak / MIB:.1f} + {scratch / MIB:.1f}")
        print(f"| {kind} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
