"""Similarity model over snapshot windows.

The forward pass embeds every snapshot of a window through one graph
convolution, runs a recurrent cell across the sequence (with optional
temporal attention over the per-step states), mean-pools the final node
states, and maps the pooled vector through a fixed three-layer dense head
to a logistic similarity score in (0, 1).

Two code paths compute it. `forward_pass` scores a batch of B windows and
is the one training uses. It runs the batch as one window over B disjoint
copies of the graph: every per-node array holds B·N rows, A_hat multiplies
each window's own N rows (one product over all the windows, never a
block-diagonal matrix), and the head pools each window's N rows into its
own score. It records a single `autodiff` entry whose rule pulls the B
scores' gradients back from the head to the first snapshot
(backpropagation through time). A training step records four entries per
chunk of its batch: the windows, the labels' subtraction, the square and
the weighted sum.

Only the recurrence runs once per step: the gates, the candidate and the
state update (`cell_step`), and in the backward their pullback, which
carries the state's gradient to the step before. Everything else runs
stacked, one numpy call over a block of steps: A_hat X and the embedding
(`gcn_embed`), the T-GCN graph convolution or GConvGRU's A_hat E and its
input-side gate products, every parameter-gradient product, and, over the
whole window, the A3T-GCN attention and its pullback. A block holds as
many steps as fit their B·N x 2d arrays in `_BLOCK_FLOATS`, and a
training batch runs in chunks of as many windows as fit all their steps
there (`window_chunks`): at N = 20 a batch of 8 is one chunk of one block;
from N = 207 a chunk is one window, and at N = 1068 a block is one step.

The op keeps, per step, only what its pullbacks read: the gates, the
candidate and the state, and each cell's graph products that a weight
gradient multiplies (see `_TgcnCell` and `_GConvGruCell`); the embedding
keeps its relu mask, not its output. What only the forward reads is held
for the current block or step, and the one product cheaper to redo than to
keep, T-GCN's R_t * H_{t-1}, is recomputed in the backward by the same
multiply, so the gradients are the bytes a pass keeping everything gives.
At N = 1068 this holds a third less: `scripts/window_memory.py` measures it.

Every row of a batch sees the same arithmetic as in a pass of its window
alone, so a batch's scores are byte-identical to its windows' one at a
time, for the same code, BLAS build and input. Gradients sum over the
batch's stacked rows: each parameter's gradient over a block is one
product over them (`_add_products`, `_add_sums`), which adds the windows'
and steps' terms in the order BLAS chooses, within round-off of a
composition of the elementary autodiff operations.

`score_windows` scores many windows of one signal without a tape; it
serves evaluation and stream scoring, and splits a call of at least
`_POOL_FLOOR` windows x nodes across the fork pool. Every part of a cell
step that depends on its snapshot alone (the embedding, the step's own
graph convolution and the snapshot's half of each gate pre-activation)
runs once per distinct snapshot instead of once per window holding it;
the state's half of each gate, the attention and the head then run over a
block of windows at once. Splitting each gate's product in two
reassociates its sums, so its scores agree with `forward_pass` to a few
1e-16, not bit for bit.

A_hat comes as `data.adjacency_operator` builds it for the signal: a
dense N x N array on small graphs, a `scipy.sparse` CSR array from
`data._SPARSE_NODES` nodes on, where its O(nnz·k) products beat the dense
O(N²·k) ones. `_mix` applies either form; only `_propagate`, the
scorer's feature-major product, keeps a dense matmul of its own. This
module never imports scipy itself. A CSR product
sums each row's nonzeros in order in one thread, so its results do not
depend on the BLAS thread count, and they agree with the dense product's
to round-off.

Cell formulas: T-GCN (Zhao et al., arXiv:1811.05320), A3T-GCN (Bai et al.,
arXiv:2006.11583) and GConvGRU (Seo et al., arXiv:1612.07659).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import _pool
from . import autodiff as ad
from .autodiff import Tensor
from .data import NodeBounds, adjacency_operator, normalize_features, read_json
from .errors import ConfigError, ContractError, ParseError

CELL_KINDS = ("gconv_gru", "tgcn", "a3tgcn")

# dense head is fixed: d -> 32 -> 64 -> 1, relu between, logistic output
HEAD_WIDTHS = (32, 64, 1)

# floats the window op's stacked arrays may hold: a block of steps takes as
# many as fit their B·N x 2d arrays, a training chunk as many windows as fit
# all their steps. 1 << 17 runs a batch of 8 windows at N = 20 as one chunk
# of one block, while N = 207 still gives one-window chunks and N = 1068
# one step per block, as a window alone ran before batches: whole-window
# blocks there were no faster, and an a3tgcn training step's traced peak
# with its backward's scratch buffers was 64.5 MiB in them against 27.4 in
# one-step blocks (scripts/window_memory.py's measure, budget 1 << 20). With
# CSR A_hat at N = 1068 one-step blocks are still the fastest: a train of 8
# windows took 867 ms, against 1096 ms in blocks of 3 steps (1 << 19) and
# 1041 ms in blocks of 7 (1 << 20), at one BLAS thread. score_windows holds
# as many windows' recurrent states in it.
_BLOCK_FLOATS = 1 << 17

# windows x nodes from which score_windows splits its windows across the
# fork pool. scripts/pool_breakeven.py, a3tgcn, serial (two BLAS threads)
# -> pooled (two workers), 2-CPU VM: 64 x 207 = 13248 took 0.14 -> 0.17 s,
# 16 x 1068 = 17088 0.19 -> 0.22 s, 32 x 678 = 21696 0.24 -> 0.23 s,
# 128 x 207 = 26496 0.25 -> 0.22 s and 32 x 1068 = 34176 0.39 -> 0.32 s
_POOL_FLOOR = 20_000


def _canonical_kind(kind: str) -> str:
    key = str(kind).lower().replace("-", "_")
    if key == "gconvgru":
        key = "gconv_gru"
    if key not in CELL_KINDS:
        raise ConfigError(f"unknown cell kind {kind!r}; expected one of {', '.join(CELL_KINDS)}")
    return key


@dataclass(frozen=True)
class ModelConfig:
    cell_kind: str
    input_channels: int
    embed_dim: int = 32
    attention_dim: int = 32

    def __post_init__(self):
        object.__setattr__(self, "cell_kind", _canonical_kind(self.cell_kind))
        for name in ("input_channels", "embed_dim", "attention_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every parameter's (rows, cols), in a fixed order shared by init,
    serialization, and the optimizers."""
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
    and `grads`, laid out in `parameter_shapes` order, so an optimizer steps
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
        self.config = config
        total = sum(rows * cols for rows, cols in expected.values())
        self.values = np.empty(total)
        self.grads = np.zeros(total) if grads else None
        self._tensors = {}
        self.scratch = {}  # the window backward's buffers (_scratch)
        at = 0
        for name, shape in expected.items():
            value = np.asarray(values[name], dtype=np.float64)
            if value.shape != shape:
                raise ConfigError(f"parameter {name!r} has shape {value.shape}, expected {shape}")
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

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        return cls(config, {name: np.zeros(shape) for name, shape in parameter_shapes(config).items()})

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return list(self._tensors.values())


@dataclass(frozen=True)
class Provenance:
    """Where a checkpoint came from: enough to reproduce the training run."""

    dataset: str = ""
    seed: int = 0
    epochs: int = 0
    final_loss: float | None = None


@dataclass(frozen=True)
class Checkpoint:
    config: ModelConfig
    params: ModelParams
    feature_bounds: NodeBounds | None = None
    provenance: Provenance = field(default_factory=Provenance)


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
    N = 20 and 8 chunks of one window from N = 207, which hold no more at
    once than one window did. A large graph's chunks run in parallel on
    the fork pool (`training._BATCH_POOL_FLOOR`).
    """
    return _spans(windows, 2 * steps * n * d)


def _scratch(params: ModelParams, key, shape) -> np.ndarray:
    """An uninitialized array of `shape`, from a buffer `params` keeps under `key`.

    The window's backward takes its stacked temporaries from here. Freeing
    an array of 64 KB or more lets glibc's malloc hand the top of the heap
    back to the system, and the next window faults it back in page by page:
    about 330 faults a window at N = 20 when these were allocated afresh,
    costing as much time as the stacking saved. A key serves one array at
    a time; backward into one ModelParams runs in one thread at a time, as
    its gradients already require.
    """
    buffers = params.scratch
    size = math.prod(shape)
    if key not in buffers or buffers[key].size < size:
        buffers[key] = np.empty(size)
    return buffers[key][:size].reshape(shape)


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
    window's N rows are mixed by A_hat alone, and each product is one call.
    The output keeps the leading shape, with d columns. The pullback takes
    the output's gradient and adds the gradients of W_in and b_in; the
    snapshots need none. It keeps A_hat x, which W_in's gradient multiplies,
    and the relu mask, a byte an entry, not the output: the cell's `inputs`
    is its only other reader, and it runs before the next block's embedding.
    """
    mixed = _mix(a_hat, x)
    out = (_rows(mixed) @ params["w_in"].value).reshape(x.shape[:-1] + (-1,))
    out += params["b_in"].value
    np.maximum(out, 0.0, out=out)

    mask = out > 0

    def pull(g):
        g_pre = g * mask
        _add_products(params, "w_in", mixed, g_pre)
        _add_sums(params, "b_in", g_pre)

    return out, pull


def _sigmoid_grad(g, y):
    return g * y * (1.0 - y)


def _blend(out, gate, h, candidate) -> None:
    """out = gate * h + (1 - gate) * candidate, in that order of operations."""
    np.multiply(gate, h, out=out)
    rest = 1.0 - gate
    rest *= candidate
    out += rest


class _Cell:
    """The recurrent cell of a window op, its per-step arrays stacked over the L steps.

    Each step's arrays hold the B·N rows of the op's windows. `inputs` runs
    the input-side work of a block of steps, one call per product; `step`
    runs one step of the recurrence (through `cell_step`); `back` pulls a
    gradient back through a block: the recurrence a step at a time from the
    last, then the input side and every parameter-gradient product once for
    the whole block (`_tail`).

    For its backward every cell keeps each step's update and reset gates,
    candidate and state: the recurrence's pullback reads them, and the
    states are also each next step's H_{t-1}. A subclass adds the graph
    products its weight gradients multiply, and holds what only its
    forward reads no longer than the block or step that reads it.
    """

    names: tuple = ()  # the cell's parameters

    def __init__(self, params: ModelParams, a_hat, steps: int, rows: int):
        self.params, self.a_hat, self.a_hat_t = params, a_hat, a_hat.T
        self.d = d = params.config.embed_dim
        self.w = {name: params[name].value for name in self.names}
        self.zeros = np.zeros((rows, d))
        self.gates = np.empty((steps, 2, rows, d))  # each step's update and reset gates
        self.states = np.empty((steps, rows, d))
        self.candidates = np.empty((steps, rows, d))

    def previous(self, t: int):
        """H_{t-1}: the zero start state for t = 0."""
        return self.states[t - 1] if t else self.zeros

    def back(self, block: slice, g, carries):
        """Pull `g`, the gradient of the block's last state, back through the block.

        `carries` holds the gradient every state has from outside the
        recurrence (the attention's), or is None. Adds the cell parameters'
        gradients; returns the gradient of the state before the block (None
        before the first step) and that of the block's embeddings.
        """
        count, params = block.stop - block.start, self.params
        gates = self.gates[block]
        rests = np.subtract(1.0, gates, out=_scratch(params, "rests", gates.shape))
        c = self.candidates[block]
        slopes = np.multiply(c, c, out=_scratch(params, "slopes", c.shape))
        np.subtract(1.0, slopes, out=slopes)
        # the pre-activation gradients of the update gate, the reset gate and the candidate
        grads = _scratch(params, "grads", (3, count) + g.shape)
        work = self._work(grads.shape[1:])
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
            g_gated = self._gated_grad(work, i, g_cand)
            np.multiply(g_gated, h, out=g_reset)
            g_reset *= reset
            g_reset *= reset_rest
            g_gates = self._gates_grad(work, i, g_gate, g_reset, t)
            if t:
                g = g * gate
                if carries is not None:
                    g += carries[t - 1]
                g += g_gated * reset
                g += g_gates
        return (g if block.start else None), self._tail(block, grads, work)


class _TgcnCell(_Cell):
    """T-GCN: G_t = relu(A_hat E_t W_g), then a GRU over [G_t, H_{t-1}].

    Keeps A_hat E_t for W_g's gradient and G_t once, for its relu mask and
    the gates' gradients. The gates' operand [G_t, H_{t-1}] and the
    candidate's [G_t, R_t * H_{t-1}] are built in turn in one rows x 2d
    buffer that every step reuses; `_tail` rebuilds them for a block from
    G_t, the states and the reset gates, with the step's own multiply, so
    the gradients are the bytes they would be had every step kept both.
    """

    names = ("w_g", "w_u", "b_u", "w_r", "b_r", "w_c", "b_c")

    def __init__(self, params, a_hat, steps, rows):
        super().__init__(params, a_hat, steps, rows)
        d = self.d
        self.mixed = np.empty((steps, rows, d))  # A_hat E_t
        self.conv = np.empty((steps, rows, d))  # G_t
        self.operand = np.empty((rows, 2 * d))  # [G_t, H_{t-1}], then [G_t, R_t * H_{t-1}]
        self.bias = np.stack((self.w["b_u"], self.w["b_r"]))

    def inputs(self, block: slice, embedded) -> None:
        mixed = _mix(self.a_hat, embedded, out=self.mixed[block])
        np.maximum((_rows(mixed) @ self.w["w_g"]).reshape(mixed.shape), 0.0,
                   out=self.conv[block])

    def step(self, t: int) -> None:
        d, w = self.d, self.w
        h = self.previous(t)
        operand = self.operand
        operand[:, :d] = self.conv[t]
        operand[:, d:] = h
        pre = np.empty((2,) + h.shape)
        np.matmul(operand, w["w_u"], out=pre[0])
        np.matmul(operand, w["w_r"], out=pre[1])
        pre += self.bias
        u, r = ad.stable_sigmoid(pre, out=self.gates[t])
        np.multiply(r, h, out=operand[:, d:])
        candidate = self.candidates[t]
        np.matmul(operand, w["w_c"], out=candidate)
        candidate += w["b_c"]
        np.tanh(candidate, out=candidate)
        _blend(self.states[t], u, h, candidate)

    def _work(self, shape):
        # the gradients of [G_t, R_t * H_{t-1}] and of [G_t, H_{t-1}]
        return _scratch(self.params, "work", (2,) + shape[:2] + (2 * self.d,))

    def _gated_grad(self, work, i, g_cand):
        np.matmul(g_cand, self.w["w_c"].T, out=work[0, i])
        return work[0, i, :, self.d:]

    def _gates_grad(self, work, i, g_gate, g_reset, t):
        g_joint = work[1, i]
        np.matmul(g_gate, self.w["w_u"].T, out=g_joint)
        g_joint += g_reset @ self.w["w_r"].T
        return g_joint[:, self.d:]

    def _tail(self, block, grads, work):
        d, params = self.d, self.params
        conv = self.conv[block]
        g_conv = (work[0, ..., :d] + work[1, ..., :d]) * (conv > 0)
        _add_products(params, "w_g", self.mixed[block], g_conv)
        # the block's [G_t, H_{t-1}] rows, then its [G_t, R_t * H_{t-1}] rows
        side = _scratch(params, "side", conv.shape[:-1] + (2 * d,))
        side[..., :d] = conv
        side[0, :, d:] = self.previous(block.start)
        side[1:, :, d:] = self.states[block.start:block.stop - 1]
        for gate, grad in zip("urc", grads):
            if gate == "c":
                np.multiply(self.gates[block, 1], side[..., d:], out=side[..., d:])
            _add_products(params, f"w_{gate}", side, grad)
            _add_sums(params, f"b_{gate}", grad)
        return _mix(self.a_hat_t, (_rows(g_conv) @ self.w["w_g"].T).reshape(g_conv.shape))


class _GConvGruCell(_Cell):
    """GConvGRU: GRU gates over A_hat E_t and A_hat H_{t-1}.

    Keeps A_hat E_t, A_hat H_{t-1} and A_hat (R_t * H_{t-1}) for the weight
    gradients. The input-side products A_hat E_t W_z, W_r and W_h only feed
    the forward, so they are held for the current block alone.
    """

    names = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")

    def __init__(self, params, a_hat, steps, rows):
        super().__init__(params, a_hat, steps, rows)
        d = self.d
        self.mixed_in = np.empty((steps, rows, d))  # A_hat E_t
        self.mixed_prev = np.empty((steps, rows, d))  # A_hat H_{t-1}
        self.gated_prev = np.empty((steps, rows, d))  # A_hat (R_t * H_{t-1})
        self.bias = np.stack((self.w["b_z"], self.w["b_r"]))
        self.block_start, self.input_side = 0, None

    def inputs(self, block: slice, embedded) -> None:
        mixed = _rows(_mix(self.a_hat, embedded, out=self.mixed_in[block]))
        # A_hat E_t times W_z, W_r and W_h for the block's steps, in a buffer
        # the later blocks, never longer than the first (`_spans`), reuse
        if self.input_side is None:
            self.input_side = np.empty((3,) + embedded.shape)
        self.block_start = block.start
        for i, name in enumerate(("w_z", "w_r", "w_h")):
            np.matmul(mixed, self.w[name], out=_rows(self.input_side[i, :len(embedded)]))

    def step(self, t: int) -> None:
        w = self.w
        h = self.previous(t)
        i = t - self.block_start
        mixed_prev = _mix(self.a_hat, h, out=self.mixed_prev[t])
        # each pre-activation adds its state half to its input half: the
        # same sum as input + state, addition being commutative
        pre = np.empty((2,) + h.shape)
        np.matmul(mixed_prev, w["u_z"], out=pre[0])
        np.matmul(mixed_prev, w["u_r"], out=pre[1])
        pre += self.input_side[:2, i]
        pre += self.bias
        z, r = ad.stable_sigmoid(pre, out=self.gates[t])
        gated_prev = _mix(self.a_hat, r * h, out=self.gated_prev[t])
        candidate = self.candidates[t]
        np.matmul(gated_prev, w["u_h"], out=candidate)
        candidate += self.input_side[2, i]
        candidate += w["b_h"]
        np.tanh(candidate, out=candidate)
        _blend(self.states[t], z, h, candidate)

    def _work(self, shape):
        return None

    def _gated_grad(self, work, i, g_cand):
        return _mix(self.a_hat_t, g_cand @ self.w["u_h"].T)

    def _gates_grad(self, work, i, g_gate, g_reset, t):
        if t:  # the zero start state needs no gradient
            return _mix(self.a_hat_t, g_reset @ self.w["u_r"].T + g_gate @ self.w["u_z"].T)

    def _tail(self, block, grads, work):
        params = self.params
        for gate, grad, side in zip("zrh", grads, (self.mixed_prev, self.mixed_prev,
                                                   self.gated_prev)):
            _add_products(params, f"w_{gate}", self.mixed_in[block], grad)
            _add_products(params, f"u_{gate}", side[block], grad)
            _add_sums(params, f"b_{gate}", grad)
        g_z, g_r, g_c = (_rows(grad) for grad in grads)
        g_embedded = g_c @ self.w["w_h"].T
        g_embedded += g_r @ self.w["w_r"].T
        g_embedded += g_z @ self.w["w_z"].T
        return _mix(self.a_hat_t, g_embedded.reshape(grads.shape[1:]))


def _window_cell(kind: str, params: ModelParams, a_hat, steps: int, rows: int) -> _Cell:
    """The recurrent cell of `kind` for a window op of `steps` snapshots of `rows` node rows."""
    # the attention variant runs the same per-step recurrence as tgcn
    cell = _GConvGruCell if _canonical_kind(kind) == "gconv_gru" else _TgcnCell
    return cell(params, a_hat, steps, rows)


def cell_step(cell: _Cell, t: int) -> None:
    """Step t of a window op's recurrence, from H_{t-1} to H_t in `cell.states[t]`.

    The only forward work that runs once per step: the gates, the candidate
    and the state update, from the input-side work `cell.inputs` ran for
    the step's whole block.
    """
    cell.step(t)


def _attention(states, params: ModelParams):
    """Per-step hidden scores tanh(H_t W_a + b_a), L x rows x a, and the rows x L softmax."""
    if not len(states):
        raise ContractError("temporal attention needs at least one state")
    hidden = states @ params["w_a"].value
    hidden += params["b_a"].value
    np.tanh(hidden, out=hidden)
    scores = (hidden @ params["v_a"].value)[:, :, 0].T
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return hidden, shifted / shifted.sum(axis=1, keepdims=True)


def temporal_attention(states, params: ModelParams):
    """Blend the L x rows x d per-step states into one rows x d context, and its pullback.

    Per node row, each step gets a scalar score tanh(H_t W_a + b_a) v_a;
    the scores are softmax-normalized over steps and the states combined
    as a weighted sum with those per-row weights. The pullback returns the
    gradient of the states, L x rows x d. The blend and the pullback run
    over the window op's blocks of steps.
    """
    states = np.asarray(states, dtype=np.float64)
    hidden, alpha = _attention(states, params)
    blocks = _blocks(*states.shape)
    weights = alpha.T[:, :, None]  # L x rows x 1
    context = np.zeros(states.shape[1:])
    for block in blocks:
        context += (weights[block] * states[block]).sum(axis=0)
    w_a, v_a = params["w_a"].value, params["v_a"].value

    def pull(g):
        g_alpha = np.empty(alpha.shape)
        for block in blocks:
            g_alpha[:, block] = (g * states[block]).sum(axis=2).T
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=1, keepdims=True))
        g_score = g_scores.T[:, :, None]  # L x rows x 1
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


def attention_weights(states, params: ModelParams) -> np.ndarray:
    """The N x L softmax weights the attention blend uses, as plain values.

    Diagnostic twin of `temporal_attention` that also takes tensors.
    """
    values = [s.value if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64) for s in states]
    return _attention(np.array(values), params)[1]


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
        g = _sigmoid_grad(g, acts[-1])
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


def forward_pass(snapshots, a_hat, params: ModelParams, config: ModelConfig) -> Tensor:
    """Score a batch of windows; returns a B x 1 tensor in (0, 1).

    `snapshots` is a B x L x N x F array of B windows, or one window's
    L x N x F (a batch of one), and `a_hat` the N x N normalized adjacency,
    a dense array or a CSR array (`data.adjacency_operator`), used as given.
    The batch runs as one window over B disjoint copies of the graph, B·N
    node rows a step. The steps run in blocks that fit a fixed float budget:
    a block's embedding and input-side work run once, stacked, then its
    steps' recurrence one at a time. Under an active tape the batch is one
    entry, whose rule runs the pullbacks from the head back to the first
    snapshot and adds every parameter's gradient, summed over the windows.
    """
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
    cell = _window_cell(config.cell_kind, params, a_hat, steps, rows)
    blocks = []
    for block in _blocks(steps, rows, config.embed_dim):
        embedded, embed_pull = gcn_embed(x[block], a_hat, params)
        cell.inputs(block, embedded)
        for t in range(block.start, block.stop):
            cell_step(cell, t)
        blocks.append((block, embed_pull))
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
        for block, embed_pull in reversed(blocks):
            g, g_embedded = cell.back(block, g, carries)
            embed_pull(g_embedded)

    return ad.record("window", tuple(params.tensors()), scores, rule)


def _checked_bounds(signal, checkpoint: Checkpoint) -> NodeBounds | None:
    """The checkpoint's feature bounds, once the model and the bounds are known to fit `signal`."""
    config = checkpoint.config
    if signal.num_channels != config.input_channels:
        raise ConfigError(
            f"signal has {signal.num_channels} channels, checkpoint expects {config.input_channels}"
        )
    bounds = checkpoint.feature_bounds
    if bounds is not None and bounds.mins.shape != (signal.num_nodes, signal.num_channels):
        raise ConfigError(
            f"checkpoint bounds cover {bounds.mins.shape}, "
            f"signal needs ({signal.num_nodes}, {signal.num_channels})"
        )
    return bounds


def forward(bucket, checkpoint: Checkpoint) -> float:
    """Similarity score for a bucket under a trained checkpoint.

    Normalizes the window with the checkpoint's stored feature bounds when
    present, then runs the forward pass without a tape.  To score many
    windows of one signal, `score_windows` does it in one call.
    """
    signal = bucket.bucket.signal if hasattr(bucket, "bucket") else bucket.signal
    bounds = _checked_bounds(signal, checkpoint)
    snapshots = bucket.snapshots
    if bounds is not None:
        snapshots = normalize_features(snapshots, bounds)
    a_hat = adjacency_operator(signal)
    return forward_pass(snapshots, a_hat, checkpoint.params, checkpoint.config).item()


def _split_cell(params: ModelParams, config: ModelConfig):
    """The cell's weights split by what they multiply, transposed for `score_windows`.

    The scorer keeps node states feature-major (d x rows), so every weight
    comes back transposed: the snapshot-side weights of the three
    pre-activations stacked (3d x d: [u; r; c] for tgcn and a3tgcn,
    [z; r; h] for gconv_gru) with their biases (3d x 1), and the state-side
    weights of the two gates (2d x d) and of the candidate (d x d).
    """
    d = config.embed_dim
    if config.cell_kind == "gconv_gru":
        parts = [(params[f"w_{g}"].value, params[f"u_{g}"].value, params[f"b_{g}"].value)
                 for g in "zrh"]
    else:  # the stacked weight [W; U] of each gate multiplies [G_t, state]
        parts = [(params[f"w_{g}"].value[:d], params[f"w_{g}"].value[d:], params[f"b_{g}"].value)
                 for g in "urc"]
    w_snap, w_state, bias = (np.vstack([col.T for col in cols]) for cols in zip(*parts))
    return w_snap, bias, w_state[:2 * d], w_state[2 * d:]


def _snapshot_stage(x, a_hat, params: ModelParams, config: ModelConfig, w_snap, bias):
    """Every part of a cell step that depends on its snapshot alone: 3d x N.

    The embedding E = gcn_embed(x), then the step's graph input (A_hat E for
    gconv_gru, G = relu(A_hat E W_g) for the T-GCN step) times the
    snapshot-side weights of the three pre-activations, plus their biases.
    """
    mixed = _mix(a_hat, gcn_embed(x, a_hat, params)[0])
    if config.cell_kind != "gconv_gru":
        mixed = np.maximum(mixed @ params["w_g"].value, 0.0)
    out = w_snap @ mixed.T
    out += bias
    return out


def _side_by_side(stages):
    """A block's snapshot stages side by side as 3d x (B N); a lone stage is not copied."""
    return stages[0] if len(stages) == 1 else np.concatenate(stages, axis=1)


def _propagate(a_hat, states, n):
    """A_hat times each window's node states, for d x (B N) feature-major states.

    Dense A_hat multiplies the states from the right, as one matmul; CSR
    A_hat goes through `_mix`, over the states' node-major transpose.
    """
    rows = states.reshape(-1, n)
    if isinstance(a_hat, np.ndarray):
        return (rows @ a_hat.T).reshape(states.shape)
    return _mix(a_hat, rows.T).T.reshape(states.shape)


def _recurrence(steps, a_hat, config: ModelConfig, w_gates, w_cand, n) -> list:
    """The recurrent states of a block of windows, one d x (B N) array per step.

    `steps` yields each step's snapshot stage for every window of the block,
    side by side as 3d x (B N), and is only read, so a cached stage can be
    yielded as is; the state-side half of every pre-activation is computed
    here, per window and step. The gates take the logistic
    function as 1 / (1 + exp(-x)), which is exact where the per-window
    step's overflow-free form takes the same branch and within an ulp
    elsewhere; exp overflows to inf for x < -709, giving 0 as it should.
    """
    d = config.embed_dim
    graph_state = config.cell_kind == "gconv_gru"
    states = []
    h = None
    for snap in steps:
        if h is None:
            h = np.zeros((d, snap.shape[1]))
        gates = w_gates @ (_propagate(a_hat, h, n) if graph_state else h)
        gates += snap[:2 * d]
        np.negative(gates, out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.reciprocal(gates, out=gates)
        u, r = gates[:d], gates[d:]
        gated = r * h
        if graph_state:
            gated = _propagate(a_hat, gated, n)
        candidate = w_cand @ gated
        candidate += snap[2 * d:]
        np.tanh(candidate, out=candidate)
        h = u * h  # u * h + (1 - u) * c, in the per-window step's order
        np.subtract(1.0, u, out=u)
        u *= candidate
        h += u
        states.append(h)
    return states


def _stacked_attention(states, params: ModelParams) -> np.ndarray:
    """`temporal_attention` over feature-major d x rows states, returned d x rows.

    Per row, the softmax over steps of tanh(H_t W_a + b_a) v_a weights the
    states, summed in step order.
    """
    w_a, b_a, v_a = (params[name].value.T for name in ("w_a", "b_a", "v_a"))
    energies = []
    for h in states:
        hidden = w_a @ h
        hidden += b_a
        energies.append(v_a @ np.tanh(hidden, out=hidden))
    energies = np.concatenate(energies)
    weights = np.exp(energies - energies.max(axis=0))
    weights /= weights.sum(axis=0)
    context = weights[0] * states[0]
    for t in range(1, len(states)):
        context += weights[t] * states[t]
    return context


def score_windows(signal, checkpoint: Checkpoint, starts, length: int,
                  candidates=None) -> np.ndarray:
    """Scores of many windows of one signal, computed in one call without a tape.

    Window i covers snapshots [starts[i], starts[i] + length) of `signal`.
    `candidates`, when given, holds one raw N x F snapshot per window that
    replaces the window's last snapshot (a labeled bucket's candidate).
    Features are normalized with the checkpoint's stored bounds, as
    `forward` does.  Returns one score per window, in the order of `starts`.

    Windows are taken in start order, a block at a time; a block holds as
    many windows as fit their recurrent states in a fixed float budget. The
    snapshot stage of a signal snapshot runs once per part and is kept while
    a later window still holds that snapshot; a candidate's runs once for
    its window. A call of at least `_POOL_FLOOR` windows x nodes cuts the
    start-sorted windows into one contiguous part per worker of the fork
    pool (`_pool`, one BLAS thread per worker); a cut may fall inside a
    block, and the scores are still bitwise those of one serial call under
    one BLAS thread, which tests/test_pool.py checks. Call it outside any
    tape.
    """
    bounds = _checked_bounds(signal, checkpoint)
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise ContractError(f"window length must be a positive integer, got {length!r}")
    starts = np.asarray(starts, dtype=np.intp).reshape(-1)
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
        partial(_score_sorted, signal, checkpoint, bounds, starts[part], length,
                None if candidates is None else candidates[part])
        for part in parts
    )
    for part, result in zip(parts, results):
        scores[part] = result
    return scores


def _score_sorted(signal, checkpoint: Checkpoint, bounds, starts, length: int,
                  candidates) -> np.ndarray:
    """score_windows' scores of windows whose `starts` are in order, checked, in this process."""
    config = checkpoint.config
    n, d = signal.num_nodes, config.embed_dim
    first = int(starts[0])
    features = signal.features[first:int(starts[-1]) + length]
    if bounds is not None:
        features = normalize_features(features, bounds)
        if candidates is not None:
            candidates = normalize_features(candidates, bounds)
    a_hat = adjacency_operator(signal)
    params = checkpoint.params
    w_snap, bias, w_gates, w_cand = _split_cell(params, config)
    layers = _head_layers(params)

    def stage(x):
        return _snapshot_stage(x, a_hat, params, config, w_snap, bias)

    shared = length if candidates is None else length - 1
    block = max(1, _BLOCK_FLOATS // (n * d * length))
    scores = np.empty(len(starts))
    cache: dict[int, np.ndarray] = {}
    for at in range(0, len(starts), block):
        part = slice(at, at + block)
        block_starts = starts[part].tolist()
        # keep what this block holds; with starts in order, nothing dropped
        # here is held by a later block
        needed = {s + k for s in block_starts for k in range(shared)}
        cache = {j: cache[j] if j in cache else stage(features[j - first]) for j in needed}

        def steps():
            for k in range(shared):
                yield _side_by_side([cache[s + k] for s in block_starts])
            if shared < length:
                yield _side_by_side([stage(c) for c in candidates[part]])

        with np.errstate(over="ignore"):
            states = _recurrence(steps(), a_hat, config, w_gates, w_cand, n)
        final = states[-1]
        if config.cell_kind == "a3tgcn":
            final = _stacked_attention(states, params)
        pooled = final.reshape(d, len(block_starts), n).mean(axis=2).T
        scores[part] = _head_activations(pooled, layers)[0][-1][:, 0]
    return scores


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Self-describing JSON: config, flat row-major parameters, provenance."""
    doc = {
        "config": {
            "cell_kind": checkpoint.config.cell_kind,
            "input_channels": checkpoint.config.input_channels,
            "embed_dim": checkpoint.config.embed_dim,
            "attention_dim": checkpoint.config.attention_dim,
        },
        "params": {
            name: {"shape": list(t.shape), "data": t.value.reshape(-1).tolist()}
            for name, t in checkpoint.params.items()
        },
        "feature_bounds": None
        if checkpoint.feature_bounds is None
        else {
            "mins": checkpoint.feature_bounds.mins.tolist(),
            "maxs": checkpoint.feature_bounds.maxs.tolist(),
        },
        "provenance": {
            "dataset": checkpoint.provenance.dataset,
            "seed": checkpoint.provenance.seed,
            "epochs": checkpoint.provenance.epochs,
            "final_loss": checkpoint.provenance.final_loss,
        },
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def load_checkpoint(path) -> Checkpoint:
    doc = read_json(path)
    try:
        raw_config = doc["config"]
        config = ModelConfig(
            cell_kind=raw_config["cell_kind"],
            input_channels=raw_config["input_channels"],
            embed_dim=raw_config["embed_dim"],
            attention_dim=raw_config["attention_dim"],
        )
        values = {}
        for name, entry in doc["params"].items():
            shape = tuple(entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
            if data.shape != (shape[0] * shape[1],):
                raise ParseError(
                    f"{path}: parameter {name!r} carries {data.shape[0]} values "
                    f"for shape {shape}"
                )
            values[name] = data.reshape(shape)
        params = ModelParams(config, values, grads=False)
        bounds = None
        if doc.get("feature_bounds") is not None:
            bounds = NodeBounds(
                mins=np.asarray(doc["feature_bounds"]["mins"], dtype=np.float64),
                maxs=np.asarray(doc["feature_bounds"]["maxs"], dtype=np.float64),
            )
        raw_prov = doc.get("provenance", {})
        provenance = Provenance(
            dataset=raw_prov.get("dataset", ""),
            seed=raw_prov.get("seed", 0),
            epochs=raw_prov.get("epochs", 0),
            final_loss=raw_prov.get("final_loss"),
        )
    # AttributeError: a section that is not an object, such as a list of params
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError, ContractError) as exc:
        raise ParseError(f"{path}: malformed checkpoint: {exc}") from exc
    return Checkpoint(config=config, params=params, feature_bounds=bounds, provenance=provenance)
