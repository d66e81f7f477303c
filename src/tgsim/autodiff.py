"""Dense 2-D tensors with reverse-mode differentiation on an explicit tape.

Every tensor is a (rows, cols) float64 matrix. Operations executed while a
Tape is active are recorded in execution order; `backward` replays the tape
in reverse, accumulating gradients with += semantics so parameters shared
across many operations (recurrent weights applied at every timestep) collect
a contribution from each use. Leaf gradients persist across backward calls
until explicitly zeroed; intermediate gradients are pass-local.

A tape entry is one call of `record`: an output value, the input tensors and
a rule that pulls the output's gradient back into them. The elementwise and
matrix operations below record one entry each; a caller can also compute a
whole layer in numpy and record it as a single fused entry with its own
hand-written rule (the model's layers do), which keeps the tape short.

The tape owns its entries, and an output tensor refers back to its tape only
weakly, so a step's graph is freed by reference counting as soon as the tape
itself is dropped.
"""

from __future__ import annotations

import weakref
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

# the tape recording in this thread (or task); each thread starts with none
_ACTIVE_TAPE: ContextVar[Tape | None] = ContextVar("tgsim_active_tape", default=None)


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"tensor value must be 2-D with positive shape, got {arr.shape}")
    return arr


class Tensor:
    """A (rows, cols) float64 matrix, optionally tracked for gradients."""

    __slots__ = ("value", "grad", "requires_grad", "_tape_ref", "__weakref__")

    def __init__(self, value, requires_grad: bool = False):
        self.value = _as_matrix(value)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.value) if requires_grad else None
        # weak reference to the recording tape, set when this tensor is the
        # output of a recorded op; a strong one would make every step a cycle
        self._tape_ref = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def tape(self):
        """The tape that recorded this tensor, or None for a leaf or a dropped tape."""
        return None if self._tape_ref is None else self._tape_ref()

    @property
    def is_leaf(self) -> bool:
        return self._tape_ref is None

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[:] = 0.0

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ContractError(f"item() requires a 1x1 tensor, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.value.shape}{flag})"


class Tape:
    """Ordered record of executed operations, replayed in reverse by backward().

    Entries are (kind, inputs, out, rule) tuples appended in execution order,
    which is by construction a topological order of the computation. A tape and
    its tensors are a single-owner unit; nesting or sharing tapes is rejected.
    The active tape is a context variable, so each thread records on its own.
    """

    def __init__(self):
        self.entries: list[tuple] = []
        self._token = None

    def __enter__(self) -> "Tape":
        if _ACTIVE_TAPE.get() is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE_TAPE.reset(self._token)
        self._token = None
        return False

    def __len__(self) -> int:
        return len(self.entries)


def record(kind: str, inputs: tuple, out_value: np.ndarray, rule: Callable) -> Tensor:
    """Wrap `out_value` in a tensor and, under an active tape, log one entry.

    The entry is kept only when some input requires a gradient. `rule(g)`
    receives the output's gradient during `backward` and must add the
    matching contribution into the grad of every input that requires one.
    It must not hold the output tensor, or the tape and its entries would
    form a reference cycle.
    """
    out = Tensor(out_value)
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.grad = np.zeros_like(out.value)
        out._tape_ref = weakref.ref(tape)
        tape.entries.append((kind, inputs, out, rule))
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {av.shape} @ {bv.shape}")

    def rule(g):
        if a.requires_grad:
            a.grad += g @ bv.T
        if b.requires_grad:
            b.grad += av.T @ g

    return record("matmul", (a, b), av @ bv, rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; the second operand may be a 1xC bias row-broadcast over a."""
    av, bv = a.value, b.value
    if av.shape == bv.shape:
        def rule(g):
            if a.requires_grad:
                a.grad += g
            if b.requires_grad:
                b.grad += g
    elif bv.shape == (1, av.shape[1]):
        def rule(g):
            if a.requires_grad:
                a.grad += g
            if b.requires_grad:
                b.grad += g.sum(axis=0, keepdims=True)
    else:
        raise DimensionError(
            f"add: shapes {av.shape} and {bv.shape} do not conform "
            "(second operand may be a 1xC bias)")
    return record("add", (a, b), av + bv, rule)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise DimensionError(f"subtract: shapes {av.shape} and {bv.shape} differ")

    def rule(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad -= g

    return record("subtract", (a, b), av - bv, rule)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise DimensionError(f"elementwise-multiply: shapes {av.shape} and {bv.shape} differ")

    def rule(g):
        if a.requires_grad:
            a.grad += g * bv
        if b.requires_grad:
            b.grad += g * av

    return record("elementwise-multiply", (a, b), av * bv, rule)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp is taken of -|x| only.

    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, with e = exp(-|x|).
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = e + 1.0
    np.divide(np.where(x >= 0, 1.0, e), out, out=out)
    return out


def sigmoid(a: Tensor) -> Tensor:
    y = stable_sigmoid(a.value)

    def rule(g):
        if a.requires_grad:
            a.grad += g * y * (1.0 - y)

    return record("sigmoid", (a,), y, rule)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)

    def rule(g):
        if a.requires_grad:
            a.grad += g * (1.0 - y * y)

    return record("tanh", (a,), y, rule)


def relu(a: Tensor) -> Tensor:
    av = a.value

    def rule(g):
        if a.requires_grad:
            a.grad += g * (av > 0)

    return record("relu", (a,), np.maximum(av, 0.0), rule)


def concat_columns(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.value, b.value
    if av.shape[0] != bv.shape[0]:
        raise DimensionError(f"concat-columns: row counts differ, {av.shape} and {bv.shape}")
    split = av.shape[1]

    def rule(g):
        if a.requires_grad:
            a.grad += g[:, :split]
        if b.requires_grad:
            b.grad += g[:, split:]

    return record("concat-columns", (a, b), np.hstack((av, bv)), rule)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the row dimension: (R, C) -> (1, C) of column means."""
    rows = a.value.shape[0]

    def rule(g):
        if a.requires_grad:
            a.grad += g / rows

    return record("mean-rows", (a,), a.value.mean(axis=0, keepdims=True), rule)


def mean_all(a: Tensor) -> Tensor:
    size = a.value.size

    def rule(g):
        if a.requires_grad:
            a.grad += g / size

    return record("mean-all", (a,), a.value.mean().reshape(1, 1), rule)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax: each row of the output is a distribution summing to 1."""
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        if a.requires_grad:
            a.grad += y * (g - (g * y).sum(axis=1, keepdims=True))

    return record("softmax-over-rows", (a,), y, rule)


def scalar_multiply(a: Tensor, scalar: float) -> Tensor:
    s = float(scalar)

    def rule(g):
        if a.requires_grad:
            a.grad += g * s

    return record("scalar-multiply", (a,), a.value * s, rule)


def square(a: Tensor) -> Tensor:
    av = a.value

    def rule(g):
        if a.requires_grad:
            a.grad += g * (2.0 * av)

    return record("square", (a,), av * av, rule)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def backward(output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into the grad of every recorded leaf.

    `output` must be a 1x1 tensor produced on a tape. Repeated calls keep
    accumulating into leaf grads until they are zeroed.
    """
    if output.value.shape != (1, 1):
        raise ContractError(f"backward requires a 1x1 scalar output, got {output.value.shape}")
    tape = output.tape
    if tape is None:
        raise ContractError("output was not recorded on a tape, or its tape is gone")
    # Intermediate grads are pass-local: reset them so a second backward call
    # scales leaf grads by exactly one more unit of output gradient.
    for _, _, out, _ in tape.entries:
        if not out.is_leaf:
            out.grad[:] = 0.0
    output.grad[0, 0] = 1.0
    for _, _, out, rule in reversed(tape.entries):
        rule(out.grad)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()


def grad_check(f: Callable, point: Sequence[Tensor], eps: float) -> float:
    """Max relative error between analytic and central-difference gradients of f.

    f maps the point tensors to a 1x1 tensor. The relative error per entry is
    |analytic - numeric| / max(1, |analytic| + |numeric|); the max over all
    entries of all point tensors is returned.
    """
    if not eps > 0:
        raise ContractError(f"eps must be positive, got {eps}")
    point = list(point)
    for p in point:
        if not p.requires_grad:
            p.requires_grad = True
        p.grad = np.zeros_like(p.value)

    with Tape():
        out = f(*point)
        if out.value.shape != (1, 1):
            raise ContractError(f"grad_check requires a scalar-valued f, got {out.value.shape}")
        backward(out)
    analytic = [p.grad.copy() for p in point]

    worst = 0.0
    for p, an in zip(point, analytic):
        flat = p.value.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = f(*point).value[0, 0]
            flat[idx] = orig - eps
            f_minus = f(*point).value[0, 0]
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = an.ravel()[idx]
            err = abs(a - numeric) / max(1.0, abs(a) + abs(numeric))
            if err > worst:
                worst = err
    return worst
