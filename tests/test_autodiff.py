"""Tensor arithmetic and reverse-mode differentiation checks.

Every operation kind is validated against central finite differences; the
composite checks mirror how the similarity model composes them.
"""

import numpy as np
import pytest

from tgsim import autodiff as ad
from tgsim.autodiff import Tape, Tensor, backward, grad_check
from tgsim.errors import ContractError, DimensionError


def test_matmul_identity_column():
    out = ad.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[1], [0]]))
    assert out.value.tolist() == [[1], [3]]


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor([[0.0]])).value.tolist() == [[0.5]]


def test_mean_rows_is_column_means():
    out = ad.mean_rows(Tensor([[1, 3], [5, 7]]))
    assert out.value.tolist() == [[3, 5]]


def test_mean_all():
    assert ad.mean_all(Tensor([[1, 3], [5, 7]])).value.tolist() == [[4.0]]


def test_shape_mismatch_names_kind_and_shapes():
    with pytest.raises(DimensionError, match=r"matmul.*\(2, 2\).*\(3, 1\)"):
        ad.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 1))))
    with pytest.raises(DimensionError, match="add"):
        ad.add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 1))))
    with pytest.raises(DimensionError, match="concat-columns"):
        ad.concat_columns(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))


def test_no_recording_without_tape():
    w = Tensor([[2.0]], requires_grad=True)
    out = ad.square(w)
    assert out.tape is None and not out.requires_grad


def test_no_recording_without_requires_grad():
    with Tape() as tape:
        ad.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
    assert len(tape) == 0


def test_backward_square_mean():
    w = Tensor([[3.0]], requires_grad=True)
    with Tape():
        out = ad.mean_all(ad.square(w))
        backward(out)
    assert w.grad.tolist() == [[6.0]]


def test_backward_sigmoid_times_input():
    w = Tensor([[0.0]], requires_grad=True)
    x = Tensor([[1.0]])
    with Tape():
        out = ad.multiply(ad.sigmoid(w), x)
        backward(out)
    assert w.grad.tolist() == [[0.25]]


def test_backward_requires_scalar_output():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape():
        out = ad.square(w)
        with pytest.raises(ContractError, match="1x1"):
            backward(out)


def test_backward_requires_tape():
    with pytest.raises(ContractError, match="tape"):
        backward(Tensor([[1.0]], requires_grad=True))


def test_repeated_backward_accumulates():
    w = Tensor([[3.0]], requires_grad=True)
    with Tape():
        out = ad.mean_all(ad.square(w))
        backward(out)
        backward(out)
    assert w.grad.tolist() == [[12.0]]
    w.zero_grad()
    assert w.grad.tolist() == [[0.0]]


def test_shared_parameter_accumulates_per_use():
    # w used twice: f = mean_all(w @ w), df/dw for w=[[2]] is 2w = 4
    w = Tensor([[2.0]], requires_grad=True)
    with Tape():
        out = ad.mean_all(ad.matmul(w, w))
        backward(out)
    assert w.grad.tolist() == [[4.0]]


def test_composite_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

    def f(a, b):
        return ad.mean_all(ad.tanh(ad.matmul(a, b)))

    assert grad_check(f, [a, b], eps=1e-5) < 1e-6


def test_grad_check_constant_gradient():
    # mean is linear, so central differences are exact; the wide step just
    # keeps roundoff cancellation below the tolerance
    x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
    assert grad_check(lambda x: ad.mean_all(x), [x], eps=1e-2) < 1e-12


def test_grad_check_rejects_zero_eps():
    x = Tensor([[1.0]])
    with pytest.raises(ContractError, match="eps"):
        grad_check(lambda x: ad.mean_all(x), [x], eps=0.0)


def test_grad_check_rejects_nonscalar_f():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ContractError, match="scalar"):
        grad_check(lambda x: ad.square(x), [x], eps=1e-5)


# every elementary operation, by the kind name its tape entries carry
OPERATIONS = {
    "sigmoid": ad.sigmoid,
    "tanh": ad.tanh,
    "relu": ad.relu,
    "mean-rows": ad.mean_rows,
    "mean-all": ad.mean_all,
    "softmax-over-rows": ad.softmax_rows,
    "square": ad.square,
    "matmul": ad.matmul,
    "add": ad.add,
    "subtract": ad.subtract,
    "elementwise-multiply": ad.multiply,
    "concat-columns": ad.concat_columns,
}


def _random_inputs(kind, rng):
    shape = (3, 4)
    x = rng.normal(size=shape)
    if kind == "relu":
        # keep entries away from the kink so finite differences are valid
        x += 0.2 * np.sign(x)
    if kind in ("sigmoid", "tanh", "relu", "mean-rows", "mean-all",
                "softmax-over-rows", "square"):
        return [Tensor(x, requires_grad=True)]
    if kind == "matmul":
        return [Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                Tensor(rng.normal(size=(2, 4)), requires_grad=True)]
    return [Tensor(x, requires_grad=True),
            Tensor(rng.normal(size=shape), requires_grad=True)]


@pytest.mark.parametrize("kind", OPERATIONS)
def test_every_kind_matches_finite_differences(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    op = OPERATIONS[kind]
    for _ in range(100):
        inputs = _random_inputs(kind, rng)

        def f(*ts):
            out = op(*ts)
            return ad.mean_all(ad.square(out)) if out.value.shape != (1, 1) else out

        assert grad_check(f, inputs, eps=1e-5) < 1e-4


def test_every_kind_names_its_tape_entry():
    rng = np.random.default_rng(8)
    for kind, op in OPERATIONS.items():
        with Tape() as tape:
            op(*_random_inputs(kind, rng))
        assert [entry[0] for entry in tape.entries] == [kind]


def test_bias_broadcast_add_gradient():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)

    def f(x, b):
        return ad.mean_all(ad.square(ad.add(x, b)))

    assert grad_check(f, [x, b], eps=1e-5) < 1e-6


def test_backward_is_deterministic():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(5, 5))
    grads = []
    for _ in range(2):
        w = Tensor(vals.copy(), requires_grad=True)
        with Tape():
            out = ad.mean_all(ad.tanh(ad.matmul(w, w)))
            backward(out)
        grads.append(w.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_concat_then_split_is_identity():
    rng = np.random.default_rng(5)
    av, bv = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))

    # values: splitting the concatenation recovers both operands bit for bit
    joined = ad.concat_columns(Tensor(av), Tensor(bv))
    assert np.array_equal(joined.value[:, :2], av)
    assert np.array_equal(joined.value[:, 2:], bv)

    # grads: a loss through the concatenation routes exactly the grads that the
    # same loss applied to each part separately would produce
    a1, b1 = Tensor(av.copy(), requires_grad=True), Tensor(bv.copy(), requires_grad=True)
    with Tape():
        loss = ad.mean_all(ad.square(ad.concat_columns(a1, b1)))
        backward(loss)
    a2, b2 = Tensor(av.copy(), requires_grad=True), Tensor(bv.copy(), requires_grad=True)
    with Tape():
        # mean over the joined 3x6 block = weighted sum of per-part means
        la = ad.matmul(ad.mean_all(ad.square(a2)), Tensor([[2 / 6]]))
        lb = ad.matmul(ad.mean_all(ad.square(b2)), Tensor([[4 / 6]]))
        backward(ad.add(la, lb))
    assert np.allclose(a1.grad, a2.grad, atol=1e-15)
    assert np.allclose(b1.grad, b2.grad, atol=1e-15)


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(ContractError, match="already active"):
            with Tape():
                pass


def test_threads_record_on_their_own_tapes():
    import threading

    rng = np.random.default_rng(12)
    values = [rng.normal(size=(4, 4)) for _ in range(2)]
    expected = []
    for v in values:
        w = Tensor(v.copy(), requires_grad=True)
        with Tape():
            backward(ad.mean_all(ad.tanh(ad.matmul(w, w))))
        expected.append(w.grad.copy())

    inside = threading.Barrier(2)
    results = [None, None]

    def run(i):
        w = Tensor(values[i].copy(), requires_grad=True)
        with Tape() as tape:
            hidden = ad.tanh(ad.matmul(w, w))
            inside.wait(timeout=60)  # both tapes are active and recording at once
            out = ad.mean_all(hidden)
            inside.wait(timeout=60)
            backward(out)
        results[i] = (len(tape), w.grad.copy())

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    with Tape() as outer:  # the main thread's tape sees none of their entries
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    assert len(outer) == 0
    for (entries, grad), want in zip(results, expected):
        assert entries == 3
        assert np.array_equal(grad, want)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    y = ad.softmax_rows(Tensor(rng.normal(size=(6, 4)) * 10)).value
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert (y >= 0).all()


def _masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_is_bitwise_the_masked_formula():
    grid = np.concatenate([
        np.linspace(-800.0, 800.0, 6401),
        [0.0, -0.0, 800.0, -800.0, 709.8, -709.8, 745.2, -745.2, 1e-300, -1e-300],
        np.random.default_rng(4).normal(0.0, 8.0, 3000),
    ]).reshape(1, -1)
    # exp(-800) underflowing to 0 is exact in the limit and shared by both
    # forms; every other floating-point fault raises
    with np.errstate(all="raise", under="ignore"):
        fast = ad.stable_sigmoid(grid)
        masked = _masked_sigmoid(grid)
    assert np.array_equal(fast.view(np.int64), masked.view(np.int64))
    assert fast[grid == 800.0].tolist() == [1.0, 1.0] and (fast[grid == -800.0] == 0.0).all()


def test_graph_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    w = Tensor(np.random.default_rng(2).normal(size=(3, 3)), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            hidden = ad.tanh(ad.matmul(w, w))
            loss = ad.mean_all(ad.square(hidden))
            backward(loss)
        probe, tape_ref = weakref.ref(hidden), weakref.ref(tape)
        del tape, hidden
        assert probe() is None and tape_ref() is None
        assert loss.tape is None and not loss.is_leaf
        with pytest.raises(ContractError, match="tape is gone"):
            backward(loss)
    finally:
        gc.enable()
