"""Similarity model over snapshot windows.

The forward pass embeds every snapshot of a window through one graph
convolution, runs a recurrent cell across the sequence (with optional
temporal attention over the per-step states), mean-pools the final node
states, and maps the pooled vector through a fixed three-layer dense head
to a logistic similarity score in (0, 1).

Two code paths compute it. `forward_pass` scores one window and is the one
training uses. Each layer (embedding, cell step, attention, head) is a
plain numpy function that returns its output with a hand-written
pullback, and the window records a single `autodiff` entry whose rule
runs the pullbacks from the head back to the first snapshot
(backpropagation through time). A training step records three entries:
the window, the label's subtraction and the square. The forwards use the
same numpy operations in the same order as a composition of the
elementary autodiff operations would, and the pullbacks add every
gradient's terms in the order that composition's backward would, so
scores and gradients are bit-for-bit those of the composed form.
Training is sensitive enough to round-off that this matters: a 1e-13
relative difference in the gradients is enough to send a fold of a 30-epoch
run to a different optimum.

`score_windows` scores many windows of one signal without a tape; it
serves evaluation and stream scoring. Every part of a cell step that
depends on its snapshot alone (the embedding, the step's own graph
convolution and the snapshot's half of each gate pre-activation) runs once
per distinct snapshot instead of once per window holding it; the state's
half of each gate, the attention and the head then run over a block of
windows at once. Splitting each gate's product in two reassociates its
sums, so its scores agree with `forward_pass` to a few 1e-16, not bit for
bit.

Cell formulas: T-GCN (Zhao et al., arXiv:1811.05320), A3T-GCN (Bai et al.,
arXiv:2006.11583) and GConvGRU (Seo et al., arXiv:1612.07659).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import NodeBounds, normalize_features, normalized_adjacency, read_json
from .errors import ConfigError, ContractError, ParseError

CELL_KINDS = ("gconv_gru", "tgcn", "a3tgcn")

# dense head is fixed: d -> 32 -> 64 -> 1, relu between, logistic output
HEAD_WIDTHS = (32, 64, 1)

# floats held by the recurrent states of one block of windows in
# score_windows: bounds its memory whatever the number of windows, and small
# enough that scoring never needs more than a training step (at N = 20 a
# step holds about 1 MB); larger blocks were no faster at N = 207
_BLOCK_FLOATS = 1 << 14


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
    """Named parameter tensors, all tracked for gradients.

    `initialize` draws each weight matrix uniform in
    +-sqrt(6 / (fan_in + fan_out)) and zeros the biases, so two runs with
    the same config and seed start from identical parameters.
    """

    def __init__(self, config: ModelConfig, values: dict[str, np.ndarray]):
        expected = parameter_shapes(config)
        if set(values) != set(expected):
            missing = sorted(set(expected) - set(values))
            extra = sorted(set(values) - set(expected))
            raise ConfigError(
                f"parameter set mismatch for {config.cell_kind}: missing {missing}, extra {extra}"
            )
        self.config = config
        self._tensors = {}
        for name, shape in expected.items():
            value = np.asarray(values[name], dtype=np.float64)
            if value.shape != shape:
                raise ConfigError(f"parameter {name!r} has shape {value.shape}, expected {shape}")
            self._tensors[name] = Tensor(value, requires_grad=True)

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


# Each layer below runs its forward in plain numpy and returns the output
# with its pullback: a function of the output's gradient that adds the
# layer's parameter gradients in place and returns the gradients of its
# inputs. forward_pass chains the pullbacks of a window into one tape entry.


def gcn_embed(x, a_hat, params: ModelParams):
    """One graph-convolution stage, relu(A_hat x W_in + b_in): N x d, and its pullback.

    The pullback adds the gradients of W_in and b_in; the snapshot needs none.
    """
    w_in, b_in = params["w_in"], params["b_in"]
    mixed = a_hat @ x
    pre = mixed @ w_in.value + b_in.value

    def pull(g):
        g_pre = g * (pre > 0)
        w_in.grad += mixed.T @ g_pre
        b_in.grad += g_pre.sum(axis=0, keepdims=True)

    return np.maximum(pre, 0.0), pull


def _sigmoid_grad(g, y):
    return g * y * (1.0 - y)


def _gconv_gru_step(h0, h_prev, a_hat, params):
    names = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = (params[name] for name in names)
    h = np.zeros_like(h0) if h_prev is None else h_prev
    mixed_in = a_hat @ h0
    mixed_prev = a_hat @ h
    z = ad.stable_sigmoid(mixed_in @ w_z.value + mixed_prev @ u_z.value + b_z.value)
    r = ad.stable_sigmoid(mixed_in @ w_r.value + mixed_prev @ u_r.value + b_r.value)
    gated_prev = a_hat @ (r * h)
    candidate = np.tanh(mixed_in @ w_h.value + gated_prev @ u_h.value + b_h.value)

    def pull(g, carry):
        g_z = _sigmoid_grad(g * h - g * candidate, z)
        g_c = g * (1.0 - z) * (1.0 - candidate * candidate)
        w_h.grad += mixed_in.T @ g_c
        u_h.grad += gated_prev.T @ g_c
        b_h.grad += g_c.sum(axis=0, keepdims=True)
        g_gated = a_hat.T @ (g_c @ u_h.value.T)
        g_r = _sigmoid_grad(g_gated * h, r)
        for w, u, b, g_pre in ((w_z, u_z, b_z, g_z), (w_r, u_r, b_r, g_r)):
            w.grad += mixed_in.T @ g_pre
            u.grad += mixed_prev.T @ g_pre
            b.grad += g_pre.sum(axis=0, keepdims=True)
        g_h0 = a_hat.T @ (g_c @ w_h.value.T + g_r @ w_r.value.T + g_z @ w_z.value.T)
        if h_prev is None:
            return g_h0, None
        g_prev = g * z
        if carry is not None:
            g_prev += carry
        g_prev += g_gated * r
        g_prev += a_hat.T @ (g_r @ u_r.value.T + g_z @ u_z.value.T)
        return g_h0, g_prev

    return z * h + (1.0 - z) * candidate, pull


def _tgcn_step(h0, h_prev, a_hat, params):
    names = ("w_g", "w_u", "b_u", "w_r", "b_r", "w_c", "b_c")
    w_g, w_u, b_u, w_r, b_r, w_c, b_c = (params[name] for name in names)
    h = np.zeros_like(h0) if h_prev is None else h_prev
    mixed = a_hat @ h0
    conv_pre = mixed @ w_g.value
    conv = np.maximum(conv_pre, 0.0)
    joint = np.concatenate((conv, h), axis=1)
    u = ad.stable_sigmoid(joint @ w_u.value + b_u.value)
    r = ad.stable_sigmoid(joint @ w_r.value + b_r.value)
    gated = np.concatenate((conv, r * h), axis=1)
    candidate = np.tanh(gated @ w_c.value + b_c.value)
    d = h.shape[1]

    def pull(g, carry):
        g_u = _sigmoid_grad(g * h - g * candidate, u)
        g_c = g * (1.0 - u) * (1.0 - candidate * candidate)
        w_c.grad += gated.T @ g_c
        b_c.grad += g_c.sum(axis=0, keepdims=True)
        g_gated = g_c @ w_c.value.T
        g_r = _sigmoid_grad(g_gated[:, d:] * h, r)
        for w, b, g_pre in ((w_u, b_u, g_u), (w_r, b_r, g_r)):
            w.grad += joint.T @ g_pre
            b.grad += g_pre.sum(axis=0, keepdims=True)
        g_joint = g_u @ w_u.value.T + g_r @ w_r.value.T
        g_conv = (g_gated[:, :d] + g_joint[:, :d]) * (conv_pre > 0)
        w_g.grad += mixed.T @ g_conv
        g_h0 = a_hat.T @ (g_conv @ w_g.value.T)
        if h_prev is None:
            return g_h0, None
        g_prev = g * u
        if carry is not None:
            g_prev += carry
        g_prev += g_gated[:, d:] * r
        g_prev += g_joint[:, d:]
        return g_h0, g_prev

    return u * h + (1.0 - u) * candidate, pull


def cell_step(kind: str, h0, h_prev, a_hat, params: ModelParams):
    """One recurrent update from state H_{t-1} to H_t, both N x d, and its pullback.

    `h_prev` None stands for the zero start state. The pullback takes the
    gradient of H_t and `carry`, the gradient H_{t-1} has from outside the
    recurrence (the attention's, or None), and returns the gradients of
    `h0` and of H_{t-1}; the latter is None for the zero start.
    """
    kind = _canonical_kind(kind)
    step = _gconv_gru_step if kind == "gconv_gru" else _tgcn_step
    # the attention variant runs the same per-step recurrence as tgcn
    return step(h0, h_prev, a_hat, params)


def _attention(values, params: ModelParams):
    """Per-step hidden scores tanh(H_t W_a + b_a) and the N x L softmax weights."""
    if not values:
        raise ContractError("temporal attention needs at least one state")
    w_a, b_a, v_a = params["w_a"].value, params["b_a"].value, params["v_a"].value
    hidden = [np.tanh(value @ w_a + b_a) for value in values]
    scores = np.concatenate([h @ v_a for h in hidden], axis=1)
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return hidden, shifted / shifted.sum(axis=1, keepdims=True)


def temporal_attention(states, params: ModelParams):
    """Blend the per-step N x d states into one N x d context, and its pullback.

    Per node, each step gets a scalar score tanh(H_t W_a + b_a) v_a; the
    scores are softmax-normalized over steps and the states combined as a
    weighted sum with those per-node weights. The pullback returns one
    gradient per state.
    """
    hidden, alpha = _attention(states, params)
    context = alpha[:, [0]] * states[0]
    for t in range(1, len(states)):
        context = context + alpha[:, [t]] * states[t]
    w_a, b_a, v_a = params["w_a"], params["b_a"], params["v_a"]

    def pull(g):
        # row sums as a product with a ones column, and one step at a time
        # from the last back: the composed form's order (module docstring)
        ones = np.ones((1, g.shape[1]))
        g_alpha = np.concatenate([(g * value) @ ones.T for value in states], axis=1)
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=1, keepdims=True))
        g_states = [None] * len(states)
        for t in reversed(range(len(states))):
            g_score = g_scores[:, [t]]
            v_a.grad += hidden[t].T @ g_score
            g_pre = (g_score @ v_a.value.T) * (1.0 - hidden[t] * hidden[t])
            b_a.grad += g_pre.sum(axis=0, keepdims=True)
            w_a.grad += states[t].T @ g_pre
            g_states[t] = g * alpha[:, [t]] + g_pre @ w_a.value.T
        return g_states

    return context, pull


def attention_weights(states, params: ModelParams) -> np.ndarray:
    """The N x L softmax weights the attention blend uses, as plain values.

    Diagnostic twin of `temporal_attention` that also takes tensors.
    """
    values = [s.value if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64) for s in states]
    return _attention(values, params)[1]


def _head_layers(params: ModelParams):
    return [(params[f"w_head{i}"], params[f"b_head{i}"]) for i in range(1, len(HEAD_WIDTHS) + 1)]


def _head_activations(pooled: np.ndarray, layers):
    """Activations (input first) and pre-activations of the head, one row per pooled vector."""
    acts, pres = [pooled], []
    for i, (w, b) in enumerate(layers):
        pres.append(acts[-1] @ w.value + b.value)
        last = i == len(layers) - 1
        acts.append(ad.stable_sigmoid(pres[-1]) if last else np.maximum(pres[-1], 0.0))
    return acts, pres


def dense_head(final, params: ModelParams):
    """Mean-pool the N x d node states and map them through the dense head, with its pullback.

    Layers of HEAD_WIDTHS with relu between them and a logistic output:
    a 1 x 1 similarity in (0, 1). The pullback returns the gradient of the
    N x d states.
    """
    layers = _head_layers(params)
    acts, pres = _head_activations(final.mean(axis=0, keepdims=True), layers)

    def pull(g):
        g = _sigmoid_grad(g, acts[-1])
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            if i < len(layers) - 1:
                g = g * (pres[i] > 0)
            w.grad += acts[i].T @ g
            b.grad += g
            g = g @ w.value.T
        # every node gets the pooled mean's gradient over N
        return np.repeat(g / final.shape[0], final.shape[0], axis=0)

    return acts[-1], pull


def forward_pass(snapshots, a_hat, params: ModelParams, config: ModelConfig) -> Tensor:
    """Score a window of snapshots; returns a 1x1 tensor in (0, 1).

    `snapshots` is an L x N x F array (or list of N x F arrays) and `a_hat`
    the N x N normalized adjacency. Under an active tape the window is one
    entry, whose rule runs the layers' pullbacks from the head back to the
    first snapshot and adds every parameter's gradient.
    """
    snapshots = np.asarray(snapshots, dtype=np.float64)
    if snapshots.ndim != 3 or snapshots.shape[2] != config.input_channels:
        raise ConfigError(
            f"snapshots must be L x N x {config.input_channels}, got shape {snapshots.shape}"
        )
    n = snapshots.shape[1]
    a_hat = np.asarray(a_hat, dtype=np.float64)
    if a_hat.shape != (n, n):
        raise ConfigError(f"adjacency is {a_hat.shape}, snapshots have {n} nodes")

    steps, states, state = [], [], None
    for x in snapshots:
        embedded, embed_pull = gcn_embed(x, a_hat, params)
        state, step_pull = cell_step(config.cell_kind, embedded, state, a_hat, params)
        steps.append((embed_pull, step_pull))
        states.append(state)
    attention_pull = None
    if config.cell_kind == "a3tgcn":
        state, attention_pull = temporal_attention(states, params)
    score, head_pull = dense_head(state, params)

    def rule(g):
        g = head_pull(g)
        carries = None
        if attention_pull is not None:
            carries = attention_pull(g)
            g = carries[-1]
        for t in reversed(range(len(steps))):
            embed_pull, step_pull = steps[t]
            g_embedded, g = step_pull(g, carries[t - 1] if carries and t else None)
            embed_pull(g_embedded)

    return ad.record("window", tuple(params.tensors()), score, rule)


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
    a_hat = normalized_adjacency(signal)
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
    w_snap, w_state, bias = (np.ascontiguousarray(np.hstack(cols).T) for cols in zip(*parts))
    return w_snap, bias, w_state[:2 * d], w_state[2 * d:]


def _snapshot_stage(x, a_hat, params: ModelParams, config: ModelConfig, w_snap, bias):
    """Every part of a cell step that depends on its snapshot alone: 3d x N.

    The embedding E = gcn_embed(x), then the step's graph input (A_hat E for
    gconv_gru, G = relu(A_hat E W_g) for the T-GCN step) times the
    snapshot-side weights of the three pre-activations, plus their biases.
    """
    mixed = a_hat @ gcn_embed(x, a_hat, params)[0]
    if config.cell_kind != "gconv_gru":
        mixed = np.maximum(mixed @ params["w_g"].value, 0.0)
    out = w_snap @ mixed.T
    out += bias
    return out


def _side_by_side(stages):
    """A block's snapshot stages side by side as 3d x (B N); a lone stage is not copied."""
    return stages[0] if len(stages) == 1 else np.concatenate(stages, axis=1)


def _propagate(a_hat, states, n):
    """A_hat times each window's node states, for d x (B N) feature-major states."""
    return (states.reshape(-1, n) @ a_hat.T).reshape(states.shape)


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
    snapshot stage of a signal snapshot runs once per call and is kept while
    a later window still holds that snapshot; a candidate's runs once for
    its window. Call it outside any tape.
    """
    bounds = _checked_bounds(signal, checkpoint)
    config = checkpoint.config
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise ContractError(f"window length must be a positive integer, got {length!r}")
    starts = np.asarray(starts, dtype=np.intp).reshape(-1)
    last_start = signal.num_snapshots - length
    if starts.size and (starts.min() < 0 or starts.max() > last_start):
        raise ContractError(
            f"window starts must lie in [0, {last_start}] for {signal.num_snapshots} "
            f"snapshots and length {length}, got {starts.min()}..{starts.max()}"
        )
    n, d = signal.num_nodes, config.embed_dim
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

    first = int(starts.min())
    features = signal.features[first:int(starts.max()) + length]
    if bounds is not None:
        features = normalize_features(features, bounds)
        if candidates is not None:
            candidates = normalize_features(candidates, bounds)
    a_hat = normalized_adjacency(signal)
    params = checkpoint.params
    w_snap, bias, w_gates, w_cand = _split_cell(params, config)
    layers = _head_layers(params)

    def stage(x):
        return _snapshot_stage(x, a_hat, params, config, w_snap, bias)

    shared = length if candidates is None else length - 1
    order = np.argsort(starts, kind="stable")
    block = max(1, _BLOCK_FLOATS // (n * d * length))
    cache: dict[int, np.ndarray] = {}
    for at in range(0, len(order), block):
        part = order[at:at + block]
        block_starts = starts[part].tolist()
        # keep what this block holds; with starts in order, nothing dropped
        # here is held by a later block
        needed = {s + k for s in block_starts for k in range(shared)}
        cache = {j: cache[j] if j in cache else stage(features[j - first]) for j in needed}

        def steps():
            for k in range(shared):
                yield _side_by_side([cache[s + k] for s in block_starts])
            if shared < length:
                yield _side_by_side([stage(candidates[i]) for i in part])

        with np.errstate(over="ignore"):
            states = _recurrence(steps(), a_hat, config, w_gates, w_cand, n)
        final = states[-1]
        if config.cell_kind == "a3tgcn":
            final = _stacked_attention(states, params)
        pooled = final.reshape(d, len(part), n).mean(axis=2).T
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
        params = ModelParams(config, values)
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
