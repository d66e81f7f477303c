"""Similarity model over snapshot windows.

The forward pass embeds every snapshot of a window through one graph
convolution, runs a recurrent cell across the sequence (with optional
temporal attention over the per-step states), mean-pools the final node
states, and maps the pooled vector through a fixed three-layer dense head
to a logistic similarity score in (0, 1).

One cell step serves training and scoring. `_snapshot_stages` computes
what a step takes from its snapshot alone, for a stack of snapshots at a
time and one BLAS call a snapshot: the embedding (`gcn_embed`), the step's
graph input and the snapshot's half of each pre-activation. `cell_step`
adds the state's half and runs the gates, the candidate and the state
update, node-major (rows x d), into a `_Cell`'s per-step arrays. The
gates' weights come negated, so each logistic is one exp, +1 and a
reciprocal, and step 0 skips the zero start state's products. A3T-GCN's
blend over the steps is `_attention`.

`forward_pass` scores a batch of B windows and is the one training uses.
It runs the batch as one window over B disjoint copies of the graph:
every per-node array holds B·N rows, A_hat multiplies each window's own
N rows (never a block-diagonal matrix), and the head pools each window's
N rows into its own score. Its steps run in blocks that fit their B·N x
2d arrays in `_BLOCK_FLOATS`, and a training batch in chunks of as many
windows as fit all their steps there (`window_chunks`): at N = 20 a
batch of 8 is one chunk of one block; from N = 207 a chunk is one
window, and at N = 1068 a block is one step. It records one `autodiff`
entry whose rule pulls the scores' gradients back to the first snapshot
(backpropagation through time), through one cell backward for every kind
(`_Cell.back`). A step at a time it pulls the gradient through the
recurrence and the state side alone: the candidate's state-side product
every step, the gates' from step 1 on, each through A_hat^T for
GConvGRU. A block at a time it pulls the graph input's gradient back in
one product per pre-activation, then through T-GCN's relu and W_g, then
A_hat^T, and takes every parameter-gradient product once
(`_add_products`, `_add_sums`, and a cell weight's over the 2d-column
rows [graph input, state side], half of it to each side's weight). A
block's products add the windows' and steps' terms in the order BLAS
chooses, within round-off of a composition of the elementary autodiff
operations. The op keeps, per step, only what the pullbacks read: the
gates, the candidate, the state and GConvGRU's A_hat products that a
weight gradient multiplies; the embedding keeps its relu mask, not its
output (`scripts/window_memory.py` measures it). A training step records
four entries per chunk: the windows, the labels' subtraction, the square
and the weighted sum.

Every row of a batch sees the same arithmetic as in a pass of its window
alone, so a batch's scores are byte-identical to its windows' one at a
time, for the same code, BLAS build and input. One exception: on a
one-node graph a lone window's products have one row, which BLAS may
route to gemv instead of gemm, so its bits can differ from the same
window's in a batch.

`score_windows` is the one way to score windows without a tape: one
window or many of one signal, normalized with the checkpoint's feature
bounds. It serves evaluation and stream scoring, and splits a call of at
least `_POOL_FLOOR` windows x nodes across the fork pool. A snapshot's
stages run once per call instead of once per window holding it; blocks of
windows then run `cell_step` and `_attention` in buffers the call
allocates once, keeping one step's gates (`_slots`), and the head scores
every pooled window at the end. Its scores agree with `forward_pass` to a
few 1e-16.

A_hat comes from `data.adjacency_operator`, its one builder, which keeps
one form on the signal: a dense N x N array on small graphs, a
`scipy.sparse` CSR array from `data._SPARSE_NODES` nodes on, where its
O(nnz·k) products beat the dense O(N²·k) ones. `_mix` applies either
form, and every A_hat product of the module goes through it. This module
never imports scipy itself. A CSR product sums each row's nonzeros in
order in one thread, so its results do not depend on the BLAS thread
count, and they agree with the dense product's to round-off.

Cell formulas: T-GCN (Zhao et al., arXiv:1811.05320), A3T-GCN (Bai et al.,
arXiv:2006.11583) and GConvGRU (Seo et al., arXiv:1612.07659).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import _pool
from . import autodiff as ad
from .autodiff import Tensor
from .data import NodeBounds, adjacency_operator, json_floats, normalize_features, read_json
from .errors import ConfigError, ContractError, ParseError

CELL_KINDS = ("gconv_gru", "tgcn", "a3tgcn")

# dense head is fixed: d -> 32 -> 64 -> 1, relu between, logistic output
HEAD_WIDTHS = (32, 64, 1)

# floats the window op's stacked arrays may hold: a block of steps takes as
# many as fit their B·N x 2d arrays, a training chunk as many windows as fit
# all their steps, a score_windows block as many windows' states. 1 << 17
# runs a batch of 8 windows at N = 20 as one chunk of one block, while
# N = 207 gives one-window chunks and N = 1068 one step per block: whole-
# window blocks there were no faster, and an a3tgcn training step's traced
# peak with its backward's scratch buffers was 64.5 MiB in them against 27.4
# in one-step blocks (scripts/window_memory.py's measure, budget 1 << 20).
# With CSR A_hat at N = 1068 one-step blocks are still the fastest: a train
# of 8 windows took 867 ms, against 1096 ms in blocks of 3 steps (1 << 19)
# and 1041 ms in blocks of 7 (1 << 20), at one BLAS thread.
_BLOCK_FLOATS = 1 << 17

# windows x nodes from which score_windows splits its windows across the
# fork pool. scripts/pool_breakeven.py --score-windows 16 32 64 128
# --repeats 5, a3tgcn, serial (two BLAS threads) -> pooled (two workers),
# 2-CPU VM, shared cell step: 16 x 207 = 3312 took 0.042 -> 0.045 s,
# 32 x 207 = 6624 0.072 -> 0.058 s, 64 x 207 = 13248 0.115 -> 0.086 s,
# 16 x 1068 = 17088 0.210 -> 0.176 s, 32 x 678 = 21696 0.190 -> 0.135 s and
# 32 x 1068 = 34176 0.433 -> 0.281 s. Pooling pays from about 6,600; the
# floor stays above that because moving it changes which path, and so which
# bytes, a call at N >= 207 takes (ROADMAP item 8).
_POOL_FLOOR = 20_000


@dataclass(frozen=True)
class ModelConfig:
    cell_kind: str
    input_channels: int
    embed_dim: int = 32
    attention_dim: int = 32

    def __post_init__(self):
        if self.cell_kind not in CELL_KINDS:
            raise ConfigError(f"unknown cell kind {self.cell_kind!r}; "
                              f"expected one of {', '.join(CELL_KINDS)}")
        for name in ("input_channels", "embed_dim", "attention_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every parameter's (rows, cols), in a fixed order shared by init,
    serialization, and the flat vectors Adam steps."""
    f, d, a = config.input_channels, config.embed_dim, config.attention_dim
    shapes = {"w_in": (f, d), "b_in": (1, d)}
    if config.cell_kind == "gconv_gru":
        for gate in ("z", "r", "h"):
            shapes[f"w_{gate}"] = (d, d)
            shapes[f"u_{gate}"] = (d, d)
            shapes[f"b_{gate}"] = (1, d)
    else:  # tgcn step, shared by a3tgcn
        shapes["w_g"] = (d, d)
        for gate in ("u", "r", "c"):
            shapes[f"w_{gate}"] = (2 * d, d)
            shapes[f"b_{gate}"] = (1, d)
    if config.cell_kind == "a3tgcn":
        shapes["w_a"] = (d, a)
        shapes["b_a"] = (1, a)
        shapes["v_a"] = (a, 1)
    widths = (d,) + HEAD_WIDTHS
    for i in range(len(HEAD_WIDTHS)):
        shapes[f"w_head{i + 1}"] = (widths[i], widths[i + 1])
        shapes[f"b_head{i + 1}"] = (1, widths[i + 1])
    return shapes


class ModelParams:
    """Named parameter tensors, tracked for gradients unless built with `grads=False`.

    Every value and every gradient is a view into one flat vector, `values`
    and `grads`, laid out in `parameter_shapes` order, so an Adam step updates
    all parameters in one go. `initialize` draws each weight matrix uniform in
    +-sqrt(6 / (fan_in + fan_out)) and zeros the biases, so two runs with
    the same config and seed start from identical parameters. Parameters
    without gradients (`grads` None: a trained checkpoint's, a copy's, a
    loaded one's) score windows but record nothing on a tape.
    """

    def __init__(self, config: ModelConfig, values: dict[str, np.ndarray], grads: bool = True):
        expected = parameter_shapes(config)
        if set(values) != set(expected):
            missing = sorted(set(expected) - set(values))
            extra = sorted(set(values) - set(expected))
            raise ConfigError(
                f"parameter set mismatch for {config.cell_kind}: missing {missing}, extra {extra}"
            )
        for name, shape in expected.items():  # all, before the config sizes the vectors
            if np.shape(values[name]) != shape:
                raise ConfigError(f"parameter {name!r} has shape {np.shape(values[name])}, "
                                  f"expected {shape}")
        self.config = config
        total = sum(rows * cols for rows, cols in expected.values())
        self.values = np.empty(total)
        self.grads = np.zeros(total) if grads else None
        self._tensors = {}
        self.scratch = {}  # the window backward's buffers (_scratch)
        at = 0
        for name, shape in expected.items():
            value = np.asarray(values[name], dtype=np.float64)
            span = slice(at, at + value.size)
            tensor = Tensor(self.values[span].reshape(shape))
            tensor.value[...] = value
            if grads:
                tensor.requires_grad, tensor.grad = True, self.grads[span].reshape(shape)
            self._tensors[name] = tensor
            at = span.stop

    def __reduce__(self):
        # rebuilt through __init__, so a copy (a checkpoint a pool worker
        # returns) holds views of its own value vector, not of a pickled
        # copy, and neither gradients nor scratch buffers
        return type(self), (self.config, {name: t.value for name, t in self.items()}, False)

    def drop_gradients(self) -> None:
        """Free the gradient vector and the backward's buffers; the tensors stop tracking.

        What training leaves in a checkpoint: callers keep checkpoints, and
        neither buffer serves scoring.
        """
        self.grads, self.scratch = None, {}
        for tensor in self.tensors():
            tensor.requires_grad, tensor.grad = False, None

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int) -> "ModelParams":
        rng = np.random.default_rng([seed, 0])
        values = {}
        for name, shape in parameter_shapes(config).items():
            if name.startswith("b_"):
                values[name] = np.zeros(shape)
            else:
                limit = np.sqrt(6.0 / (shape[0] + shape[1]))
                values[name] = rng.uniform(-limit, limit, size=shape)
        return cls(config, values)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return list(self._tensors.values())


def _whole(value, least: int) -> bool:
    """Whether `value` is an int, not a bool, from `least` to the largest float."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and least <= value <= sys.float_info.max)


def _real(value) -> bool:
    """Whether `value` is an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    """The recipe of one training run, kept in each checkpoint's provenance.

    `bucket_length` is the window length: train() and evaluate() refuse
    buckets of another, and scoring reads it from a checkpoint's recipe.
    `training.run_folds` splits its windows with `kfold_split(windows,
    folds, seed, shuffle=shuffle_folds)`.  With `redraw_probability` set,
    train corrupts its clean windows afresh each epoch at that probability;
    with None every epoch trains on the set it was given.
    """

    epochs: int = 30
    learning_rate: float = 0.003
    bucket_length: int = 10
    folds: int = 3
    seed: int = 0
    shuffle_folds: bool = True
    redraw_probability: float | None = None

    def __post_init__(self):
        for name, least in (("epochs", 1), ("bucket_length", 2), ("folds", 2), ("seed", 0)):
            value = getattr(self, name)
            if not _whole(value, least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        rate = self.learning_rate
        if not (_real(rate) and 0 < rate <= sys.float_info.max):
            raise ConfigError(f"learning rate must be positive and finite, got {rate!r}")
        if not isinstance(self.shuffle_folds, bool):
            raise ConfigError(f"shuffle_folds must be a bool, got {self.shuffle_folds!r}")
        p = self.redraw_probability
        if p is not None and not (_real(p) and 0 <= p <= 1):
            raise ConfigError(f"redraw probability must be None or in [0, 1], got {p!r}")


@dataclass(frozen=True)
class Provenance:
    """Where a checkpoint came from: the recipe, fold and bucket file that trained it.

    `recipe` is the run's TrainConfig. Fold `fold` of `training.run_folds`
    trained from `training.fold_seed(recipe.seed, fold)` and scores the
    test windows of fold `fold` of the recipe's split; a lone
    `training.train` has no fold, and its recipe is the config it was given.
    `buckets_sha256` is the SHA-256 of the bucket file `tgsim train` read,
    which pins its windows and noise spec too; it is empty where no file was
    read.
    """

    dataset: str = ""
    recipe: TrainConfig = field(default_factory=TrainConfig)
    fold: int | None = None
    buckets_sha256: str = ""
    final_loss: float | None = None

    def __post_init__(self):
        loss = 0.0 if self.final_loss is None else self.final_loss
        wrong = [name for name, ok in (
            ("dataset", isinstance(self.dataset, str)),
            ("recipe", isinstance(self.recipe, TrainConfig)),
            ("fold", self.fold is None or _whole(self.fold, 0)),
            ("buckets_sha256", isinstance(self.buckets_sha256, str)),
            ("final_loss", _real(loss) and abs(loss) <= sys.float_info.max),
        ) if not ok]
        if wrong:
            raise ContractError(f"provenance {', '.join(wrong)}: wrong type or out of range")


@dataclass(frozen=True)
class Checkpoint:
    """A trained model: its parameters, feature bounds and provenance.

    Its `config` is its parameters' own, so the two cannot disagree.
    `feature_bounds` are required: they are the training windows' per
    node-channel minima and maxima, which `train` always stores, and
    scoring normalizes every window with them.  It scores windows of its
    recipe's `bucket_length`, 10 for a hand-built `Provenance()`.
    """

    params: ModelParams
    feature_bounds: NodeBounds
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self):
        if not isinstance(self.feature_bounds, NodeBounds):
            raise ContractError(f"a checkpoint needs NodeBounds, got {self.feature_bounds!r}")

    @property
    def config(self) -> ModelConfig:
        return self.params.config


def _spans(count: int, floats: int) -> list:
    """Consecutive slices of `count` items of `floats` floats each that fit in `_BLOCK_FLOATS`.

    At least one item a slice, however large.
    """
    width = max(1, _BLOCK_FLOATS // floats)
    return [slice(start, min(start + width, count)) for start in range(0, count, width)]


def _blocks(steps: int, rows: int, d: int) -> list:
    """Consecutive blocks of a window op's steps whose rows x 2d arrays fit in `_BLOCK_FLOATS`."""
    return _spans(steps, 2 * rows * d)


def window_chunks(windows: int, steps: int, n: int, d: int) -> list:
    """Consecutive chunks of a batch's windows whose N x 2d arrays, all steps, fit `_BLOCK_FLOATS`.

    Training runs each chunk as one window op, forward then backward, and
    sums the chunks' gradients in chunk order: a batch of 8 is one chunk at
    N = 20 and 8 chunks of one window from N = 207. A large graph's chunks
    run on the fork pool (`training._BATCH_POOL_FLOOR`).
    """
    return _spans(windows, 2 * steps * n * d)


def _scratch(buffers: dict | None, key, shape) -> np.ndarray:
    """An uninitialized array of `shape`, from a buffer `buffers` keeps under `key`.

    A fresh array when `buffers` is None. The window's backward keeps its
    buffers in `params.scratch`, a `score_windows` part in a dict of its
    own: freeing an array of 64 KB or more lets glibc hand the top of the
    heap back, and the next window faults it in page by page (about 330
    faults a window at N = 20, costing as much time as the stacking saved).
    A key serves one array at a time; backward into one ModelParams runs in
    one thread at a time, as its gradients already require.
    """
    if buffers is None:
        return np.empty(shape)
    size = math.prod(shape)
    if key not in buffers or buffers[key].size < size:
        buffers[key] = np.empty(size)
    return buffers[key][:size].reshape(shape)


def _slots(buffers: dict | None, key, steps: int, shape) -> np.ndarray:
    """A steps x `shape` array; from `buffers` (`_scratch`), one slot that every step shares."""
    if buffers is None:
        return np.empty((steps,) + shape)
    one = _scratch(buffers, key, shape)
    return np.lib.stride_tricks.as_strided(one, (steps,) + shape, (0,) + one.strides)


def _add_products(params: ModelParams, name: str, left, right) -> None:
    """Add sum_t left_t^T right_t, over a stack of steps, to `name`'s gradient.

    One matmul over the stacked rows: `left` holds k columns and `right` m,
    for a k x m parameter.
    """
    grad = params[name].grad
    rows, cols = grad.shape
    grad += left.reshape(-1, rows).T @ right.reshape(-1, cols)


def _add_sums(params: ModelParams, name: str, grad) -> None:
    """Add the column sums of a stack of steps' gradients `grad` to bias `name`'s gradient."""
    bias = params[name].grad
    bias += grad.reshape(-1, bias.shape[1]).sum(axis=0)


def _mix(a_hat, x, out=None):
    """A_hat times each window's own N rows of `x`, A_hat dense or CSR, in one product.

    `x` holds B·N rows of k columns under any leading axes, window after
    window. Dense A_hat multiplies the stack of windows in one matmul; CSR
    A_hat takes every window's and leading index's N x k block side by
    side, as one N-row matrix. `out`, when given, must be contiguous, so
    that it reshapes to a view.
    """
    n, k = a_hat.shape[0], x.shape[-1]
    stacked = x.reshape(x.shape[:-2] + (-1, n, k))
    if isinstance(a_hat, np.ndarray):
        if out is None:
            return np.matmul(a_hat, stacked).reshape(x.shape)
        np.matmul(a_hat, stacked, out=out.reshape(stacked.shape))
        return out
    columns = np.moveaxis(stacked, -2, 0)  # N x ... x k
    product = a_hat @ columns.reshape(n, -1)
    if out is None:
        out = np.empty(x.shape)
    np.moveaxis(out.reshape(stacked.shape), -2, 0)[...] = product.reshape(columns.shape)
    return out


def _rows(x) -> np.ndarray:
    """A stack of rows as one matrix, for one product over all of them."""
    return x.reshape(-1, x.shape[-1])


# The layers below run their forwards in plain numpy and return the output
# with its pullback: a function of the output's gradient that adds the
# layer's parameter gradients and returns the gradients of its inputs.
# forward_pass chains them into one tape entry per batch.


def gcn_embed(x, a_hat, params: ModelParams):
    """Graph-convolution stage relu(A_hat x W_in + b_in), and its pullback.

    `x` is one N x F snapshot or a stack of them, ... x B·N x F: each
    window's N rows are mixed by A_hat alone, and W_in multiplies each
    leading index's rows in one BLAS call, so a snapshot's embedding has the
    bits it gets alone. The output keeps the leading shape, with d columns.
    The pullback takes the output's gradient and adds the gradients of W_in
    and b_in; the snapshots need none. It keeps A_hat x, which W_in's
    gradient multiplies, and the relu mask, a byte an entry, not the output:
    `_snapshot_stages` is its only other reader.
    """
    mixed = _mix(a_hat, x)
    out = np.matmul(mixed, params["w_in"].value)
    out += params["b_in"].value
    np.maximum(out, 0.0, out=out)
    mask = out > 0

    def pull(g):
        g_pre = g * mask
        _add_products(params, "w_in", mixed, g_pre)
        _add_sums(params, "b_in", g_pre)

    return out, pull


class _Cell:
    """The one recurrent cell: its weights as the forward reads them, per-step arrays, the backward.

    Each of the three pre-activations (update gate, reset gate, candidate:
    [u, r, c] for tgcn and a3tgcn, [z, r, h] for gconv_gru) adds a
    snapshot side, the step's graph input times a d x d weight, a state
    side, H_{t-1} (the candidate's R_t * H_{t-1}) times another, and a
    bias. The two sides differ by kind, and only in what `__init__` sets:
    T-GCN's graph input is relu(A_hat E_t W_g) (`w_g`) and its state side
    is H_{t-1} itself; GConvGRU's graph input is A_hat E_t, and A_hat mixes
    its state side too (`graph_state`). `weights` stacks each
    pre-activation's 2d x d weight over [snapshot side, state side]: T-GCN's
    W_u, W_r, W_c as they are, GConvGRU's W over U (`terms` names them).
    The forward reads the snapshot side, `w_snap`, 3 x d x d, and the
    biases, the state side, `w_gates`, 2 x d x d, and `w_cand`, with the
    gates' weights and biases negated, so their pre-activations come out as
    -x and 1 / (1 + exp(-x)) needs no negation pass; rounding is symmetric
    in sign, so this is exact. `start` sizes each step's gates, candidate
    and state, which `cell_step` writes and `back` reads, and with
    `graph_state` its A_hat H_{t-1} and A_hat (R_t * H_{t-1}), which the
    weight gradients multiply.
    """

    def __init__(self, params: ModelParams, a_hat):
        self.params, self.a_hat, self.a_hat_t = params, a_hat, a_hat.T
        d = self.d = params.config.embed_dim
        self.graph_state = params.config.cell_kind == "gconv_gru"
        # per pre-activation: the parameters whose rows, stacked, are its weight, and its bias
        if self.graph_state:
            self.terms = [((f"w_{g}", f"u_{g}"), f"b_{g}") for g in "zrh"]
        else:  # the attention variant runs the same per-step recurrence as tgcn
            self.terms = [((f"w_{g}",), f"b_{g}") for g in "urc"]
        self.w_g = None if self.graph_state else params["w_g"].value
        self.weights = np.stack([np.concatenate([params[name].value for name in names])
                                 for names, _ in self.terms])  # 3 x 2d x d
        self.w_snap, w_state = self.weights[:, :d].copy(), self.weights[:, d:].copy()
        self.bias = np.stack([params[bias].value for _, bias in self.terms])
        for stacked in (self.w_snap, w_state, self.bias):
            np.negative(stacked[:2], out=stacked[:2])
        self.w_gates, self.w_cand = w_state[:2], w_state[2]

    def start(self, steps: int, rows: int, buffers=None) -> "_Cell":
        """Size the arrays for `steps` steps of `rows` node rows, from `buffers` (`_scratch`)."""
        shape = (steps, rows, self.d)
        self.gates = _slots(buffers, "gates", steps, (2,) + shape[1:])
        self.states = _scratch(buffers, "states", shape)
        self.candidates = _slots(buffers, "candidates", steps, shape[1:])
        self.spare = _scratch(buffers, "spare", shape[1:])  # R_t * H_{t-1}, then 1 - U_t
        if self.graph_state:  # A_hat H_{t-1} and A_hat (R_t * H_{t-1})
            self.mixed_prev = _slots(buffers, "mixed_prev", steps, shape[1:])
            self.gated_prev = _slots(buffers, "gated_prev", steps, shape[1:])
        return self

    def previous(self, t: int):
        """H_{t-1}: the zero start state for t = 0."""
        return self.states[t - 1] if t else np.zeros(self.states.shape[1:])

    def back(self, block: slice, g, carries, mixed, graph_in):
        """Pull `g`, the gradient of the block's last state, back through the block.

        `carries` holds the gradient every state has from outside the
        recurrence (the attention's), or is None; `mixed` and `graph_in`
        are the block's A_hat E and graph input (`_snapshot_stages`). Adds
        the cell parameters' gradients; returns the gradient of the state
        before the block (None before the first step) and that of the
        block's embeddings.

        The recurrence runs a step at a time from the last, through the
        state side alone. Then, once for the block, the snapshot side's
        gradient, and one product per pre-activation over the operand
        [graph input, state side], 2d columns, for its weight's gradient.
        """
        count, params, d = block.stop - block.start, self.params, self.d
        w_gate, w_reset, w_cand = (weight[d:].T for weight in self.weights)
        gates = self.gates[block]
        rests = np.subtract(1.0, gates, out=_scratch(params.scratch, "rests", gates.shape))
        c = self.candidates[block]
        slopes = np.multiply(c, c, out=_scratch(params.scratch, "slopes", c.shape))
        np.subtract(1.0, slopes, out=slopes)
        # the pre-activation gradients of the update gate, the reset gate and the candidate
        grads = _scratch(params.scratch, "grads", (3, count) + g.shape)
        for t in reversed(range(block.start, block.stop)):
            i = t - block.start
            (gate, reset), (gate_rest, reset_rest) = gates[i], rests[i]
            h = self.previous(t)
            g_gate, g_reset, g_cand = grads[:, i]
            np.multiply(g, h, out=g_gate)
            g_gate -= g * c[i]
            g_gate *= gate
            g_gate *= gate_rest
            np.multiply(g, gate_rest, out=g_cand)
            g_cand *= slopes[i]
            # the state side's gradients, each through A_hat^T for GConvGRU: first
            # R_t * H_{t-1}'s, then, once that is read, the gates' share of H_{t-1}'s
            g_side = _scratch(params.scratch, "state_side", g.shape)
            g_gated = np.matmul(g_cand, w_cand, out=g_side)
            if self.graph_state:
                g_gated = _mix(self.a_hat_t, g_gated)
            np.multiply(g_gated, h, out=g_reset)
            g_reset *= reset
            g_reset *= reset_rest
            if t:  # the zero start state needs no gradient
                g = g * gate
                if carries is not None:
                    g += carries[t - 1]
                g += g_gated * reset
                np.matmul(g_gate, w_gate, out=g_side)
                g_side += g_reset @ w_reset
                g += _mix(self.a_hat_t, g_side) if self.graph_state else g_side

        # the graph input's gradient, in the order (u + r) + c
        g_u, g_r, g_c = (_rows(grad) for grad in grads)
        v_gate, v_reset, v_cand = (weight[:d].T for weight in self.weights)
        g_in = g_u @ v_gate
        g_in += g_r @ v_reset
        g_in += g_c @ v_cand
        if self.w_g is not None:  # through relu(A_hat E W_g)
            g_in *= _rows(graph_in) > 0
            _add_products(params, "w_g", mixed, g_in)
            g_in = g_in @ self.w_g.T
        # each weight's gradient: the block's [graph input, H_{t-1}] rows (A_hat H_{t-1} with
        # graph_state), then for the candidate [graph input, R_t * H_{t-1}] (A_hat (R_t * H_{t-1}))
        operand = _scratch(params.scratch, "operand", graph_in.shape[:-1] + (2 * d,))
        operand[..., :d] = graph_in
        if self.graph_state:
            operand[..., d:] = self.mixed_prev[block]
        else:
            operand[0, :, d:] = self.previous(block.start)
            operand[1:, :, d:] = self.states[block.start:block.stop - 1]
        for k, ((names, bias), grad) in enumerate(zip(self.terms, grads)):
            if k == 2:  # the candidate's state side
                if self.graph_state:
                    operand[..., d:] = self.gated_prev[block]
                else:  # R_t * H_{t-1}, by the forward's own multiply
                    np.multiply(gates[:, 1], operand[..., d:], out=operand[..., d:])
            product = _rows(operand).T @ _rows(grad)
            for name, part in zip(names, np.split(product, len(names))):
                params[name].grad += part
            _add_sums(params, bias, grad)
        return (g if block.start else None), _mix(self.a_hat_t, g_in.reshape(grads.shape[1:]))


def _snapshot_stages(x, a_hat, cell: _Cell):
    """The snapshot side of R steps, R x 3 x rows x d, from their rows `x`, R x rows x F.

    The embedding E (`gcn_embed`), the graph input (A_hat E for GConvGRU,
    G = relu(A_hat E W_g) for T-GCN) times the snapshot-side weights, plus
    the biases, each product one BLAS call a step, so a snapshot's stages
    have the bits it gets alone. Returns them and what the backward reads:
    (the embedding's pullback, A_hat E, the graph input).
    """
    embedded, embed_pull = gcn_embed(x, a_hat, cell.params)
    mixed = _mix(a_hat, embedded)
    graph_in = mixed if cell.w_g is None else np.maximum(np.matmul(mixed, cell.w_g), 0.0)
    stages = np.matmul(graph_in[:, None], cell.w_snap)
    stages += cell.bias
    return stages, (embed_pull, mixed, graph_in)


def cell_step(cell: _Cell, t: int, stages) -> None:
    """Step t of the recurrence, from H_{t-1} to H_t in `cell.states[t]`.

    `stages` is the step's snapshot side, 3 x rows x d. Adds the state
    side, H_{t-1} (A_hat H_{t-1} for GConvGRU) times the gates' weights and
    R_t * H_{t-1} (A_hat (R_t * H_{t-1})) the candidate's, and writes the
    gates, candidate, state and GConvGRU's graph products to step t's slots.
    Step 0 skips the zero start state's products, exactly 0 for finite
    weights. Run under np.errstate(over="ignore"): a gate pre-activation
    below -709 makes exp inf, and the gate 0.
    """
    gates, candidate, state, spare = cell.gates[t], cell.candidates[t], cell.states[t], cell.spare
    if t:
        h = cell.states[t - 1]
        side = _mix(cell.a_hat, h, out=cell.mixed_prev[t]) if cell.graph_state else h
        np.matmul(side, cell.w_gates, out=gates)
        gates += stages[:2]
        np.exp(gates, out=gates)
    else:
        np.exp(stages[:2], out=gates)
    gates += 1.0
    np.reciprocal(gates, out=gates)
    update = gates[0]
    if t:
        side = np.multiply(gates[1], h, out=spare)
        if cell.graph_state:
            side = _mix(cell.a_hat, side, out=cell.gated_prev[t])
        np.matmul(side, cell.w_cand, out=candidate)
        candidate += stages[2]
        np.tanh(candidate, out=candidate)
        # U * H + (1 - U) * C, in that order of operations
        np.multiply(update, h, out=state)
        rest = np.subtract(1.0, update, out=spare)
        rest *= candidate
        state += rest
    else:
        if cell.graph_state:
            cell.mixed_prev[0] = cell.gated_prev[0] = 0.0
        np.tanh(stages[2], out=candidate)
        rest = np.subtract(1.0, update, out=spare)
        np.multiply(rest, candidate, out=state)


def _attention(states, params: ModelParams, buffers=None):
    """The A3T-GCN blend of L x rows x d states: hidden scores, weights and context.

    Per row, step t's energy is tanh(H_t W_a + b_a) v_a, the weights are
    the softmax of the energies over the steps, and the context is the
    states' weighted sum, in step order. Returns the hidden scores,
    L x rows x a, the weights, L x rows x 1, and the rows x d context. With
    `buffers` (`_scratch`), the weighted states reuse the hidden scores'
    buffer, which the pullback alone reads, and no hidden scores return.
    """
    if not len(states):
        raise ContractError("temporal attention needs at least one state")
    w_a = params["w_a"].value
    hidden = _scratch(buffers, "hidden", states.shape[:2] + w_a.shape[1:])
    np.matmul(states, w_a, out=hidden)
    hidden += params["b_a"].value
    np.tanh(hidden, out=hidden)
    energies = hidden @ params["v_a"].value
    weights = np.exp(energies - energies.max(axis=0))
    weights /= weights.sum(axis=0)
    weighted = np.multiply(weights, states, out=_scratch(buffers, "hidden", states.shape))
    # a reduce over axis 0 adds the steps in order
    context = np.add.reduce(weighted, axis=0, out=_scratch(buffers, "context", states.shape[1:]))
    return (hidden if buffers is None else None), weights, context


def temporal_attention(states, params: ModelParams):
    """Blend the L x rows x d per-step states into one rows x d context, and its pullback.

    The blend is `_attention`'s. The pullback returns the gradient of the
    states, L x rows x d, and runs over the window op's blocks of steps.
    """
    states = np.asarray(states, dtype=np.float64)
    hidden, weights, context = _attention(states, params)
    blocks = _blocks(*states.shape)
    alpha = weights[:, :, 0]  # L x rows
    w_a, v_a = params["w_a"].value, params["v_a"].value

    def pull(g):
        g_alpha = np.empty(alpha.shape)
        for block in blocks:
            g_alpha[block] = (g * states[block]).sum(axis=2)
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=0))
        g_score = g_scores[:, :, None]  # L x rows x 1
        g_states = np.empty(states.shape)
        for block in blocks:
            g_pre = g_score[block] * v_a.T
            slope = hidden[block] * hidden[block]
            g_pre *= np.subtract(1.0, slope, out=slope)
            _add_products(params, "w_a", states[block], g_pre)
            _add_sums(params, "b_a", g_pre)
            _add_products(params, "v_a", hidden[block], g_score[block])
            np.multiply(g, weights[block], out=g_states[block])
            g_states[block] += (_rows(g_pre) @ w_a.T).reshape(g_pre.shape[:-1] + (-1,))
        return g_states

    return context, pull


def _head_layers(params: ModelParams):
    return [(params[f"w_head{i}"], params[f"b_head{i}"]) for i in range(1, len(HEAD_WIDTHS) + 1)]


def _row_products(x, w) -> np.ndarray:
    """x @ w, each row's sums taken in order by themselves.

    So a row's result does not depend on the rows beside it, which a BLAS
    product does not promise: numpy hands a one-row product to gemv, whose
    rounding differs from gemm's. Only the head's small products take it.
    """
    return (x[:, :, None] * w).sum(axis=1)


def _head_activations(pooled: np.ndarray, layers):
    """Activations (input first) and pre-activations of the head, one row per pooled vector."""
    acts, pres = [pooled], []
    for i, (w, b) in enumerate(layers):
        pres.append(_row_products(acts[-1], w.value) + b.value)
        last = i == len(layers) - 1
        acts.append(ad.stable_sigmoid(pres[-1]) if last else np.maximum(pres[-1], 0.0))
    return acts, pres


def dense_head(final, params: ModelParams):
    """Mean-pool each window's N x d node states, map them through the dense head; and its pullback.

    `final` is one window's N x d states or B windows' B x N x d. Layers of
    HEAD_WIDTHS with relu between them and a logistic output give a B x 1
    column of similarities in (0, 1). The pullback returns the gradient of
    `final`.
    """
    layers = _head_layers(params)
    windows = final.reshape((-1,) + final.shape[-2:])
    n = windows.shape[1]
    acts, pres = _head_activations(windows.mean(axis=1), layers)

    def pull(g):
        g = g * acts[-1] * (1.0 - acts[-1])
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            if i < len(layers) - 1:
                g = g * (pres[i] > 0)
            w.grad += acts[i].T @ g
            b.grad += g.sum(axis=0)
            g = g @ w.value.T
        # every node of a window gets its pooled mean's gradient over N
        return np.repeat(g / n, n, axis=0).reshape(final.shape)

    return acts[-1], pull


def forward_pass(snapshots, a_hat, params: ModelParams) -> Tensor:
    """Score a batch of windows with `params`' cell; returns a B x 1 tensor in (0, 1).

    `snapshots` is a B x L x N x F array of B windows, or one window's
    L x N x F (a batch of one), and `a_hat` the N x N normalized adjacency,
    a dense array or a CSR array (`data.adjacency_operator`), used as given.
    The batch runs as one window of B·N node rows a step, in blocks of
    steps: a block's stages at once, then its steps one at a time. Under an
    active tape the batch is one entry, whose rule adds every parameter's
    gradient, summed over the windows.
    """
    config = params.config
    snapshots = np.asarray(snapshots, dtype=np.float64)
    if snapshots.ndim == 3:
        snapshots = snapshots[None]
    if snapshots.ndim != 4 or snapshots.shape[3] != config.input_channels:
        raise ConfigError(
            f"snapshots must be L x N x {config.input_channels} or B x L x N x "
            f"{config.input_channels}, got shape {snapshots.shape}"
        )
    windows, steps, n = snapshots.shape[:3]
    if a_hat.shape != (n, n):
        raise ConfigError(f"adjacency is {a_hat.shape}, snapshots have {n} nodes")

    rows = windows * n
    x = snapshots.transpose(1, 0, 2, 3).reshape(steps, rows, -1)  # each step's B·N rows
    cell = _Cell(params, a_hat).start(steps, rows)
    blocks = []
    with np.errstate(over="ignore"):
        for block in _blocks(steps, rows, config.embed_dim):
            stages, kept = _snapshot_stages(x[block], a_hat, cell)
            for t in range(block.start, block.stop):
                cell_step(cell, t, stages[t - block.start])
            blocks.append((block, kept))
    final, attention_pull = cell.states[-1], None
    if config.cell_kind == "a3tgcn":
        final, attention_pull = temporal_attention(cell.states, params)
    scores, head_pull = dense_head(final.reshape(windows, n, -1), params)

    def rule(g):
        g = head_pull(g).reshape(rows, -1)
        carries = None
        if attention_pull is not None:
            carries = attention_pull(g)
            g = carries[-1]
        for block, (embed_pull, mixed, graph_in) in reversed(blocks):
            g, g_embedded = cell.back(block, g, carries, mixed, graph_in)
            embed_pull(g_embedded)

    return ad.record("window", tuple(params.tensors()), scores, rule)


def score_windows(signal, checkpoint: Checkpoint, starts, candidates=None) -> np.ndarray:
    """Scores of many windows of one signal, computed in one call without a tape.

    Window i covers the checkpoint's L snapshots [starts[i], starts[i] + L) of `signal`.
    `candidates`, when given, holds one raw N x F snapshot per window that
    replaces the window's last snapshot (a labeled bucket's candidate).
    Features are normalized with the checkpoint's stored bounds.  `starts`
    is one sequence of integers (a list, a `range` or a 1-D integer array);
    a bool, float or string start is refused, not truncated.  Returns one
    score per window, in the order of `starts`.

    Call it outside any tape. Windows are taken in start order, in blocks
    of as many as fit their states in `_BLOCK_FLOATS`. A signal snapshot's
    stages run once, in runs of as many as fit that budget, and are kept
    while a later window holds the snapshot; a block's candidates run as one
    run. From `_POOL_FLOOR` windows x nodes a call cuts the sorted windows
    into one part per worker of the fork pool (`_pool`, one BLAS thread
    each); a cut may fall inside a block, and the scores are still bitwise
    those of one serial call under one BLAS thread (tests/test_pool.py).
    """
    expects = checkpoint.config.input_channels
    if signal.num_channels != expects:
        raise ConfigError(f"signal has {signal.num_channels} channels, checkpoint expects {expects}")
    bounds = checkpoint.feature_bounds
    if bounds.mins.shape != (signal.num_nodes, signal.num_channels):
        raise ConfigError(
            f"checkpoint bounds cover {bounds.mins.shape}, "
            f"signal needs ({signal.num_nodes}, {signal.num_channels})"
        )
    # numpy would read a bool among ints as 0 or 1
    if isinstance(starts, (list, tuple)) and any(isinstance(s, (bool, np.bool_)) for s in starts):
        raise ContractError("window starts must be integers, got a bool")
    starts = np.asarray(starts)
    if starts.ndim != 1:
        raise ContractError(f"window starts must be one sequence, got shape {starts.shape}")
    if starts.size and starts.dtype.kind not in "iu":
        raise ContractError(f"window starts must be integers, got {starts.dtype} values")
    starts = starts.astype(np.intp)
    length = checkpoint.provenance.recipe.bucket_length
    last_start = signal.num_snapshots - length
    if starts.size and (starts.min() < 0 or starts.max() > last_start):
        raise ContractError(
            f"window starts must lie in [0, {last_start}] for {signal.num_snapshots} "
            f"snapshots and length {length}, got {starts.min()}..{starts.max()}"
        )
    n = signal.num_nodes
    if candidates is not None:
        candidates = np.asarray(candidates, dtype=np.float64)
        if candidates.shape != (len(starts), n, signal.num_channels):
            raise ContractError(
                f"expected {len(starts)} candidates of shape ({n}, {signal.num_channels}), "
                f"got {candidates.shape}"
            )
    scores = np.empty(len(starts))
    if not len(starts):
        return scores

    adjacency_operator(signal)  # built here, the one every forked worker inherits
    order = np.argsort(starts, kind="stable")
    count = 1 if len(order) * n < _POOL_FLOOR else _pool.workers()
    size = -(-len(order) // count)
    parts = [order[at:at + size] for at in range(0, len(order), size)]
    results = _pool.run_jobs(
        partial(_score_sorted, signal, checkpoint, bounds, starts[part],
                None if candidates is None else candidates[part])
        for part in parts
    )
    for part, result in zip(parts, results):
        scores[part] = result
    return scores


def _score_sorted(signal, checkpoint: Checkpoint, bounds, starts, candidates) -> np.ndarray:
    """score_windows' scores of windows whose `starts` are in order, checked, in this process.

    One loop over blocks of windows fills the stage cache a run of
    snapshots at a time, runs each block's steps and attention and pools
    its final states; the head scores the pooled rows at the end.
    """
    config, length = checkpoint.config, checkpoint.provenance.recipe.bucket_length
    n, d = signal.num_nodes, config.embed_dim
    first = int(starts[0])
    features = normalize_features(signal.features[first:int(starts[-1]) + length], bounds)
    if candidates is not None:
        candidates = normalize_features(candidates, bounds)
    a_hat = adjacency_operator(signal)
    params = checkpoint.params
    cell = _Cell(params, a_hat)

    shared = length if candidates is None else length - 1
    block = max(1, _BLOCK_FLOATS // (n * d * length))
    run = max(1, _BLOCK_FLOATS // (3 * d * n))
    # the signal snapshots the windows hold, in order, as offsets from `first`
    needed = np.unique(starts[:, None] - first + np.arange(shared)).tolist()
    cache, made, buffers = {}, 0, {}
    pooled = np.empty((len(starts), d))
    with np.errstate(over="ignore"):
        for at in range(0, len(starts), block):
            block_starts = (starts[at:at + block] - first).tolist()
            rows = len(block_starts) * n
            while made < len(needed) and needed[made] < block_starts[-1] + shared:
                ids = needed[made:made + run]
                cache.update(zip(ids, _snapshot_stages(features[ids], a_hat, cell)[0]))
                made += len(ids)
            # with starts in order, no later block holds a stage dropped here
            cache = {j: stage for j, stage in cache.items() if j >= block_starts[0]}
            if shared < length:
                extra = list(_snapshot_stages(candidates[at:at + block], a_hat, cell)[0])
            if not at or rows != cell.states.shape[1]:  # only the last block may be smaller
                cell.start(length, rows, buffers)
            for t in range(length):
                pieces = [cache[s + t] for s in block_starts] if t < shared else extra
                stages = pieces[0] if len(pieces) == 1 else np.concatenate(
                    pieces, axis=1, out=_scratch(buffers, "stages", (3, rows, d)))
                cell_step(cell, t, stages)
            final = cell.states[-1]
            if config.cell_kind == "a3tgcn":
                final = _attention(cell.states, params, buffers)[2]
            pooled[at:at + len(block_starts)] = final.reshape(-1, n, d).mean(axis=1)
    # the head's rows are independent (`_row_products`): score them in spans
    # whose widest product, rows x in x out, fits the float budget
    layers = _head_layers(params)
    scores = np.empty(len(starts))
    for rows in _spans(len(starts), max(w.value.size for w, _ in layers)):
        scores[rows] = _head_activations(pooled[rows], layers)[0][-1][:, 0]
    return scores


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Self-describing JSON: config, flat row-major parameters, provenance."""
    doc = {
        "config": asdict(checkpoint.config),
        "params": {
            name: {"shape": list(t.shape), "data": t.value.reshape(-1).tolist()}
            for name, t in checkpoint.params.items()
        },
        "feature_bounds": {
            "mins": checkpoint.feature_bounds.mins.tolist(),
            "maxs": checkpoint.feature_bounds.maxs.tolist(),
        },
        "provenance": asdict(checkpoint.provenance),
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint `save_checkpoint` wrote to `path`; malformed content is a `ParseError`.

    Parameters and bounds go through `json_floats`, so they are finite, as
    scoring's zero start state (W @ 0 is 0) needs.
    """
    doc = read_json(path)
    try:
        config = ModelConfig(**{f.name: doc["config"][f.name] for f in fields(ModelConfig)})
        values = {}
        for name, entry in doc["params"].items():
            shape = entry["shape"]
            if not (isinstance(shape, list) and len(shape) == 2 and all(
                    type(size) is int and size >= 0 for size in shape)):
                raise ParseError(f"{path}: parameter {name!r} has shape {shape!r}, "
                                 f"expected two non-negative integers")
            data = json_floats(entry["data"], f"parameter {name!r}")
            if data.shape != (shape[0] * shape[1],):
                raise ParseError(f"{path}: parameter {name!r} carries {data.size} values "
                                 f"for shape {shape}")
            values[name] = data.reshape(shape)
        params = ModelParams(config, values, grads=False)
        raw_bounds = doc["feature_bounds"]
        if raw_bounds is None:
            raise ParseError(f"{path}: checkpoint has no feature bounds")
        bounds = NodeBounds(**{f.name: json_floats(raw_bounds[f.name], f"feature_bounds.{f.name}")
                               for f in fields(NodeBounds)})
        stored = doc["provenance"]
        recipe = TrainConfig(**{f.name: stored["recipe"][f.name] for f in fields(TrainConfig)})
        provenance = Provenance(**{f.name: stored[f.name] for f in fields(Provenance)
                                   if f.name != "recipe"}, recipe=recipe)
    # AttributeError: a section that is not an object, such as a list of params
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, ConfigError,
            ContractError) as exc:
        raise ParseError(f"{path}: malformed checkpoint: {exc}") from exc
    return Checkpoint(params=params, feature_bounds=bounds, provenance=provenance)
