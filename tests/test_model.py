import numpy as np
import pytest

from synth import published_signal
from tgsim import autodiff as ad
from tgsim import data as data_module
from tgsim import model as model_module
from tgsim import training
from tgsim.autodiff import Tensor, Tape, backward, grad_check
from tgsim.data import (
    NodeBounds,
    TemporalGraphSignal,
    adjacency_operator,
    node_bounds,
    normalize_features,
    normalized_adjacency,
)
from tgsim.errors import ConfigError, ContractError, ParseError
from tgsim.model import (
    CELL_KINDS,
    HEAD_WIDTHS,
    Checkpoint,
    ModelConfig,
    ModelParams,
    Provenance,
    attention_weights,
    cell_step,
    dense_head,
    forward,
    forward_pass,
    gcn_embed,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
    score_windows,
    temporal_attention,
)
from tgsim.noise import Bucket, LabeledBucket, NoiseSpec, bucketize, inject_noise
from tgsim.training import TrainConfig, train


def ref_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scalar_matmul(a, b):
    # deliberately naive triple loop, independent of the library's ops
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(a.shape[1]))
    return out


def ref_forward(snapshots, a_hat, values, config):
    n = snapshots.shape[1]
    h = np.zeros((n, config.embed_dim))
    states = []
    for x in snapshots:
        h0 = np.maximum(a_hat @ x @ values["w_in"] + values["b_in"], 0.0)
        if config.cell_kind == "gconv_gru":
            z = ref_sigmoid(a_hat @ h0 @ values["w_z"] + a_hat @ h @ values["u_z"] + values["b_z"])
            r = ref_sigmoid(a_hat @ h0 @ values["w_r"] + a_hat @ h @ values["u_r"] + values["b_r"])
            c = np.tanh(a_hat @ h0 @ values["w_h"] + a_hat @ (r * h) @ values["u_h"] + values["b_h"])
            h = z * h + (1.0 - z) * c
        else:
            g = np.maximum(a_hat @ h0 @ values["w_g"], 0.0)
            joint = np.concatenate([g, h], axis=1)
            u = ref_sigmoid(joint @ values["w_u"] + values["b_u"])
            r = ref_sigmoid(joint @ values["w_r"] + values["b_r"])
            c = np.tanh(np.concatenate([g, r * h], axis=1) @ values["w_c"] + values["b_c"])
            h = u * h + (1.0 - u) * c
        states.append(h)
    if config.cell_kind == "a3tgcn":
        scores = np.concatenate(
            [np.tanh(s @ values["w_a"] + values["b_a"]) @ values["v_a"] for s in states], axis=1
        )
        shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha = shifted / shifted.sum(axis=1, keepdims=True)
        final = np.zeros_like(states[0])
        for t, state in enumerate(states):
            final = final + alpha[:, [t]] * state
    else:
        final = states[-1]
    pooled = final.mean(axis=0, keepdims=True)
    mid = np.maximum(pooled @ values["w_head1"] + values["b_head1"], 0.0)
    mid = np.maximum(mid @ values["w_head2"] + values["b_head2"], 0.0)
    logit = mid @ values["w_head3"] + values["b_head3"]
    return float(ref_sigmoid(logit)[0, 0])


def small_config(kind, f=2, d=4, a=3):
    return ModelConfig(cell_kind=kind, input_channels=f, embed_dim=d, attention_dim=a)


def path_a_hat(n):
    # a path graph keeps the normalized adjacency's rows distinct, so node
    # embeddings cannot degenerate into one shared vector
    edges = tuple((i, i + 1) for i in range(n - 1))
    signal = TemporalGraphSignal("path", n, edges, None, np.zeros((1, n, 1)))
    return normalized_adjacency(signal)


class TestModelConfig:
    def test_kind_spellings_normalize(self):
        assert ModelConfig("GConvGRU", 1).cell_kind == "gconv_gru"
        assert ModelConfig("TGCN", 1).cell_kind == "tgcn"
        assert ModelConfig("A3TGCN", 1).cell_kind == "a3tgcn"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="nosuch"):
            ModelConfig("nosuch", 1)

    @pytest.mark.parametrize("field", ["input_channels", "embed_dim", "attention_dim"])
    def test_positive_dims_required(self, field):
        kwargs = {"cell_kind": "tgcn", "input_channels": 1, field: 0}
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**kwargs)

    def test_head_widths_are_fixed(self):
        assert HEAD_WIDTHS == (32, 64, 1)


class TestParameterShapes:
    def test_gconv_gru_names(self):
        shapes = parameter_shapes(small_config("gconv_gru"))
        assert set(shapes) == {
            "w_in", "b_in",
            "w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h",
            "w_head1", "b_head1", "w_head2", "b_head2", "w_head3", "b_head3",
        }
        assert shapes["w_z"] == (4, 4)
        assert shapes["w_in"] == (2, 4)
        assert shapes["w_head2"] == (32, 64)

    def test_tgcn_names(self):
        shapes = parameter_shapes(small_config("tgcn"))
        assert set(shapes) == {
            "w_in", "b_in",
            "w_g", "w_u", "b_u", "w_r", "b_r", "w_c", "b_c",
            "w_head1", "b_head1", "w_head2", "b_head2", "w_head3", "b_head3",
        }
        assert shapes["w_u"] == (8, 4)
        assert shapes["w_g"] == (4, 4)

    def test_a3tgcn_adds_attention(self):
        shapes = parameter_shapes(small_config("a3tgcn"))
        assert shapes["w_a"] == (4, 3)
        assert shapes["b_a"] == (1, 3)
        assert shapes["v_a"] == (3, 1)

    def test_head_shapes_follow_embed_dim(self):
        shapes = parameter_shapes(ModelConfig("tgcn", 1, embed_dim=7))
        assert shapes["w_head1"] == (7, 32)
        assert shapes["w_head3"] == (64, 1)


class TestModelParams:
    def test_same_seed_same_values(self):
        config = small_config("a3tgcn")
        first = ModelParams.initialize(config, 5)
        second = ModelParams.initialize(config, 5)
        for name in first:
            assert np.array_equal(first[name].value, second[name].value)

    def test_different_seed_differs(self):
        config = small_config("tgcn")
        first = ModelParams.initialize(config, 5)
        second = ModelParams.initialize(config, 6)
        assert any(not np.array_equal(first[name].value, second[name].value) for name in first)

    def test_biases_zero_weights_bounded(self):
        config = small_config("gconv_gru")
        params = ModelParams.initialize(config, 0)
        for name, shape in parameter_shapes(config).items():
            value = params[name].value
            if name.startswith("b_"):
                assert np.array_equal(value, np.zeros(shape))
            else:
                limit = np.sqrt(6.0 / (shape[0] + shape[1]))
                assert np.abs(value).max() <= limit
                assert np.abs(value).max() > 0

    def test_all_tensors_track_gradients(self):
        params = ModelParams.zeros(small_config("tgcn"))
        assert all(t.requires_grad for t in params.tensors())

    @pytest.mark.parametrize("copied", [False, True])
    def test_tensors_are_views_of_the_flat_vectors(self, copied):
        import pickle

        params = ModelParams.initialize(small_config("a3tgcn"), 5)
        if copied:  # as a pool worker returns a checkpoint: values only
            params = pickle.loads(pickle.dumps(params))
            assert params.grads is None
            assert all(t.grad is None and not t.requires_grad for t in params.tensors())
        params.values[:] = np.arange(params.values.size)
        if not copied:
            params.grads[:] = -np.arange(params.grads.size)
        start = 0
        for name, t in params.items():
            span = np.arange(start, start + t.value.size)
            assert np.array_equal(t.value.reshape(-1), span), name
            if not copied:
                assert np.array_equal(t.grad.reshape(-1), -span), name
            start += t.value.size
        assert start == params.values.size

    def test_wrong_shape_rejected(self):
        config = small_config("tgcn")
        values = {name: np.zeros(shape) for name, shape in parameter_shapes(config).items()}
        values["w_g"] = np.zeros((2, 2))
        with pytest.raises(ConfigError, match="w_g"):
            ModelParams(config, values)

    def test_missing_parameter_rejected(self):
        config = small_config("tgcn")
        values = {name: np.zeros(shape) for name, shape in parameter_shapes(config).items()}
        del values["w_u"]
        with pytest.raises(ConfigError, match="w_u"):
            ModelParams(config, values)


class TestGcnEmbed:
    def test_zero_parameters_give_zero(self):
        params = ModelParams.zeros(small_config("tgcn"))
        out, _ = gcn_embed(np.ones((3, 2)), path_a_hat(3), params)
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_scalar_chain(self):
        config = ModelConfig("tgcn", 1, embed_dim=1)
        values = {name: np.zeros(shape) for name, shape in parameter_shapes(config).items()}
        values["w_in"] = np.array([[3.0]])
        params = ModelParams(config, values)
        out, _ = gcn_embed(np.array([[2.0]]), np.array([[1.0]]), params)
        assert out[0, 0] == 6.0

    def test_matches_three_matrix_product(self):
        rng = np.random.default_rng(4)
        config = small_config("tgcn", f=3, d=5)
        params = ModelParams.initialize(config, 1)
        x = rng.normal(size=(5, 3))
        a_hat = path_a_hat(5)
        out, _ = gcn_embed(x, a_hat, params)
        oracle = np.maximum(
            scalar_matmul(scalar_matmul(a_hat, x), params["w_in"].value) + params["b_in"].value,
            0.0,
        )
        assert np.allclose(out, oracle, atol=1e-12)


def one_step(kind, h0, h_prev, a_hat, params):
    """The window cell of `kind` run for one step from embedding h0 and state h_prev.

    Step 1 of a two-step cell whose step 0 is not run: its state slot holds
    h_prev. Returns the cell and H_1.
    """
    cell = model_module._window_cell(kind, params, a_hat, 2, h0.shape[0])
    cell.states[0] = h_prev
    cell.inputs(slice(1, 2), h0[None])
    cell_step(cell, 1)
    return cell, cell.states[1]


class TestCellStep:
    def test_gconv_gru_zeros_fixed_point(self):
        params = ModelParams.zeros(small_config("gconv_gru"))
        _, out = one_step("gconv_gru", np.zeros((3, 4)), np.zeros((3, 4)), path_a_hat(3), params)
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_tgcn_zeros_fixed_point(self):
        params = ModelParams.zeros(small_config("tgcn"))
        _, out = one_step("tgcn", np.zeros((3, 4)), np.zeros((3, 4)), path_a_hat(3), params)
        assert np.array_equal(out, np.zeros((3, 4)))

    @pytest.mark.parametrize("kind,bias", [("gconv_gru", "b_z"), ("tgcn", "b_u")])
    def test_saturated_update_gate_carries_state(self, kind, bias):
        rng = np.random.default_rng(9)
        params = ModelParams.initialize(small_config(kind), 3)
        params[bias].value[:] = 50.0  # update gate pinned at 1
        h_prev = rng.normal(size=(3, 4))
        _, out = one_step(kind, rng.normal(size=(3, 4)), h_prev, path_a_hat(3), params)
        assert np.allclose(out, h_prev, atol=1e-12)

    @pytest.mark.parametrize("kind", ["gconv_gru", "tgcn"])
    def test_matches_scalar_recomputation(self, kind):
        rng = np.random.default_rng(12)
        params = ModelParams.initialize(small_config(kind), 7)
        a_hat = path_a_hat(3)
        h0 = rng.normal(size=(3, 4))
        h_prev = rng.normal(size=(3, 4))
        _, out = one_step(kind, h0, h_prev, a_hat, params)

        v = {name: t.value for name, t in params.items()}
        if kind == "gconv_gru":
            z = ref_sigmoid(
                scalar_matmul(scalar_matmul(a_hat, h0), v["w_z"])
                + scalar_matmul(scalar_matmul(a_hat, h_prev), v["u_z"]) + v["b_z"]
            )
            r = ref_sigmoid(
                scalar_matmul(scalar_matmul(a_hat, h0), v["w_r"])
                + scalar_matmul(scalar_matmul(a_hat, h_prev), v["u_r"]) + v["b_r"]
            )
            c = np.tanh(
                scalar_matmul(scalar_matmul(a_hat, h0), v["w_h"])
                + scalar_matmul(scalar_matmul(a_hat, r * h_prev), v["u_h"]) + v["b_h"]
            )
            oracle = z * h_prev + (1.0 - z) * c
        else:
            g = np.maximum(scalar_matmul(scalar_matmul(a_hat, h0), v["w_g"]), 0.0)
            joint = np.concatenate([g, h_prev], axis=1)
            u = ref_sigmoid(scalar_matmul(joint, v["w_u"]) + v["b_u"])
            r = ref_sigmoid(scalar_matmul(joint, v["w_r"]) + v["b_r"])
            c = np.tanh(
                scalar_matmul(np.concatenate([g, r * h_prev], axis=1), v["w_c"]) + v["b_c"]
            )
            oracle = u * h_prev + (1.0 - u) * c
        assert np.allclose(out, oracle, atol=1e-12)

    def test_unknown_kind_rejected(self):
        params = ModelParams.zeros(small_config("tgcn"))
        with pytest.raises(ConfigError, match="wrong"):
            model_module._window_cell("wrong", params, path_a_hat(3), 2, 3)


class TestTemporalAttention:
    def make_params(self, seed=2):
        return ModelParams.initialize(small_config("a3tgcn"), seed)

    def test_single_state_passes_through(self):
        rng = np.random.default_rng(1)
        state = rng.normal(size=(3, 4))
        out, _ = temporal_attention([state], self.make_params())
        assert np.allclose(out, state, atol=1e-12)

    def test_identical_states_average_to_themselves(self):
        rng = np.random.default_rng(2)
        state = rng.normal(size=(3, 4))
        params = self.make_params()
        out, _ = temporal_attention([state, state, state], params)
        assert np.allclose(out, state, atol=1e-12)
        alpha = attention_weights([state, state, state], params)
        assert np.allclose(alpha, np.full((3, 3), 1.0 / 3.0), atol=1e-12)

    def test_weights_form_distribution_and_blend_matches(self):
        rng = np.random.default_rng(3)
        states = [rng.normal(size=(5, 4)) for _ in range(4)]
        params = self.make_params()
        out, _ = temporal_attention(states, params)

        alpha = attention_weights(states, params)
        assert (alpha >= 0).all()
        assert np.abs(alpha.sum(axis=1) - 1.0).max() < 1e-12
        oracle = np.zeros((5, 4))
        for t, state in enumerate(states):
            oracle += alpha[:, [t]] * state
        assert np.allclose(out, oracle, atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractError, match="at least one"):
            temporal_attention([], self.make_params())


class TestForwardPass:
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_zero_parameters_score_half(self, kind):
        config = small_config(kind)
        params = ModelParams.zeros(config)
        snapshots = np.random.default_rng(0).normal(size=(4, 3, 2))
        out = forward_pass(snapshots, path_a_hat(3), params, config)
        assert out.item() == 0.5

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_output_strictly_inside_unit_interval(self, kind):
        rng = np.random.default_rng(5)
        config = small_config(kind)
        params = ModelParams.initialize(config, 11)
        for _ in range(5):
            out = forward_pass(rng.normal(size=(4, 3, 2)) * 10.0, path_a_hat(3), params, config)
            assert 0.0 < out.item() < 1.0

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_node_permutation_invariance(self, kind):
        rng = np.random.default_rng(6)
        config = small_config(kind)
        params = ModelParams.initialize(config, 13)
        snapshots = rng.normal(size=(4, 5, 2))
        a_hat = path_a_hat(5)
        base = forward_pass(snapshots, a_hat, params, config).item()

        perm = rng.permutation(5)
        permuted = forward_pass(
            snapshots[:, perm, :], a_hat[np.ix_(perm, perm)], params, config
        ).item()
        assert abs(base - permuted) < 1e-12

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_matches_composed_oracle(self, kind):
        rng = np.random.default_rng(7)
        config = small_config(kind)
        params = ModelParams.initialize(config, 17)
        snapshots = rng.normal(size=(4, 3, 2))
        a_hat = path_a_hat(3)
        out = forward_pass(snapshots, a_hat, params, config).item()
        oracle = ref_forward(snapshots, a_hat, {n: t.value for n, t in params.items()}, config)
        assert abs(out - oracle) < 1e-12

    @pytest.mark.parametrize("kind,bias", [("gconv_gru", "b_z"), ("tgcn", "b_u"), ("a3tgcn", "b_u")])
    def test_saturated_gates_ignore_later_snapshots(self, kind, bias):
        rng = np.random.default_rng(8)
        config = small_config(kind)
        params = ModelParams.initialize(config, 19)
        params[bias].value[:] = 50.0
        a_hat = path_a_hat(3)
        first = rng.normal(size=(1, 3, 2))
        tail_a = rng.normal(size=(3, 3, 2))
        tail_b = rng.normal(size=(3, 3, 2))
        out_a = forward_pass(np.concatenate([first, tail_a]), a_hat, params, config).item()
        out_b = forward_pass(np.concatenate([first, tail_b]), a_hat, params, config).item()
        assert abs(out_a - out_b) < 1e-12

    def test_channel_mismatch_rejected(self):
        config = small_config("tgcn")
        params = ModelParams.zeros(config)
        with pytest.raises(ConfigError, match="snapshots"):
            forward_pass(np.zeros((4, 3, 5)), path_a_hat(3), params, config)

    def test_adjacency_mismatch_rejected(self):
        config = small_config("tgcn")
        params = ModelParams.zeros(config)
        with pytest.raises(ConfigError, match="adjacency"):
            forward_pass(np.zeros((4, 3, 2)), path_a_hat(4), params, config)


class TestGradients:
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_forward_with_squared_error_passes_grad_check(self, kind):
        rng = np.random.default_rng(21)
        config = small_config(kind)
        params = ModelParams.initialize(config, 23)
        params["b_in"].value[:] = 0.5  # keep the embedding relu alive at this tiny width
        snapshots = rng.normal(size=(3, 3, 2))
        a_hat = path_a_hat(3)
        label = Tensor([[0.3]])

        def loss(*_):
            out = forward_pass(snapshots, a_hat, params, config)
            return ad.square(ad.subtract(out, label))

        assert forward_pass(snapshots, a_hat, params, config).item() != 0.5
        err = grad_check(loss, params.tensors(), eps=1e-5)
        assert err < 1e-6

    def test_backward_accumulates_into_every_parameter(self):
        config = small_config("a3tgcn")
        params = ModelParams.initialize(config, 29)
        # at this tiny embed_dim a zero input bias can leave every relu dead
        # for an unlucky draw; lift it so the embedding stage is alive
        params["b_in"].value[:] = 0.5
        snapshots = np.random.default_rng(30).normal(size=(3, 3, 2))
        with Tape():
            out = forward_pass(snapshots, path_a_hat(3), params, config)
            loss = ad.square(ad.subtract(out, Tensor([[0.9]])))
            backward(loss)
        dead = [name for name, t in params.items() if np.abs(t.grad).max() == 0]
        assert dead == []


class TestFusedOpGradients:
    """Each layer's hand-written pullback against central differences.

    A layer returns its output and a pullback that adds its parameters'
    gradients and returns its inputs' gradients; `recorded` puts the pair
    on the tape as one entry, so grad_check can reach both.
    """

    def check(self, op, point, out_shape, seed):
        mixer = Tensor(np.random.default_rng(seed).normal(size=out_shape))

        def f(*args):
            return ad.mean_all(ad.multiply(op(*args), mixer))

        assert grad_check(f, point, eps=1e-5) < 1e-6

    @staticmethod
    def recorded(out, pull, inputs, point):
        """`out` as one tape entry over `point`; pull(g) holds one gradient per input."""
        def rule(g):
            for t, grad in zip(inputs, pull(g)):
                t.grad += grad

        return ad.record("layer", tuple(point), out, rule)

    def leaf(self, rng, shape, offset=0.0):
        return Tensor(rng.normal(size=shape) + offset, requires_grad=True)

    def test_embed(self):
        rng = np.random.default_rng(41)
        params = ModelParams.initialize(small_config("tgcn", f=2, d=4), 1)
        params["b_in"].value[:] = 0.5
        x, a_hat = rng.normal(size=(4, 2)), path_a_hat(4)

        def op(*point):
            out, pull = gcn_embed(x, a_hat, params)
            return self.recorded(out, lambda g: pull(g) or (), (), point)

        self.check(op, [params["w_in"], params["b_in"]], (4, 4), 1)

    @pytest.mark.parametrize("kind", ["tgcn", "gconv_gru"])
    def test_cell_step(self, kind):
        rng = np.random.default_rng(42)
        params = ModelParams.initialize(small_config(kind), 2)
        names = [n for n in parameter_shapes(small_config(kind))
                 if n not in ("w_in", "b_in") and "head" not in n]
        # h0 leans positive so the tgcn graph-conv relu stays off its kink
        point = [self.leaf(rng, (4, 4), 0.8), self.leaf(rng, (4, 4))]
        point += [params[n] for n in names]
        a_hat = path_a_hat(4)

        def op(h0, h_prev, *_):
            cell, out = one_step(kind, h0.value, h_prev.value, a_hat, params)

            def pull(g):
                g_prev, g_embedded = cell.back(slice(1, 2), g, None)
                return g_embedded[0], g_prev

            return self.recorded(out, pull, (h0, h_prev), point)

        self.check(op, point, (4, 4), 2)

    def test_temporal_attention(self):
        rng = np.random.default_rng(43)
        params = ModelParams.initialize(small_config("a3tgcn"), 3)
        params["b_a"].value[:] = rng.normal(size=(1, 3))
        states = [self.leaf(rng, (4, 4)) for _ in range(4)]
        point = states + [params["w_a"], params["b_a"], params["v_a"]]

        def op(*args):
            out, pull = temporal_attention([s.value for s in args[:4]], params)
            return self.recorded(out, pull, args[:4], args)

        self.check(op, point, (4, 4), 3)

    def test_dense_head(self):
        rng = np.random.default_rng(44)
        params = ModelParams.initialize(small_config("tgcn"), 4)
        for i in (1, 2, 3):
            params[f"b_head{i}"].value[:] = rng.normal(0.0, 0.3, size=params[f"b_head{i}"].shape)
        heads = [params[f"{p}_head{i}"] for i in (1, 2, 3) for p in ("w", "b")]

        def op(final, *rest):
            out, pull = dense_head(final.value, params)
            return self.recorded(out, lambda g: (pull(g),), (final,), (final, *rest))

        self.check(op, [self.leaf(rng, (5, 4))] + heads, (1, 1), 4)


def composed_forward(snapshots, a_hat, params, config):
    """The forward pass built from elementary autodiff ops, one entry per op.

    Reference for the fused layers: the same scores and gradients, to
    round-off. A batch, B x L x N x F, scores each window by itself and
    places its score in row b of a B x 1 column.
    """
    snapshots = np.asarray(snapshots)
    if snapshots.ndim == 4:
        column = None
        for b, window in enumerate(snapshots):
            unit = np.zeros((len(snapshots), 1))
            unit[b, 0] = 1.0
            placed = ad.matmul(Tensor(unit), composed_forward(window, a_hat, params, config))
            column = placed if column is None else ad.add(column, placed)
        return column
    p = params
    a = Tensor(a_hat)
    h = Tensor(np.zeros((snapshots.shape[1], config.embed_dim)))
    states = []
    for x in snapshots:
        h0 = ad.relu(ad.add(ad.matmul(ad.matmul(a, Tensor(x)), p["w_in"]), p["b_in"]))
        ones = Tensor(np.ones(h.shape))
        if config.cell_kind == "gconv_gru":
            mi, mp = ad.matmul(a, h0), ad.matmul(a, h)

            def gate(n, prev):
                return ad.add(ad.add(ad.matmul(mi, p[f"w_{n}"]), ad.matmul(prev, p[f"u_{n}"])),
                              p[f"b_{n}"])

            z, r = ad.sigmoid(gate("z", mp)), ad.sigmoid(gate("r", mp))
            c = ad.tanh(gate("h", ad.matmul(a, ad.multiply(r, h))))
            gate_open = z
        else:
            g = ad.relu(ad.matmul(ad.matmul(a, h0), p["w_g"]))
            joint = ad.concat_columns(g, h)
            u = ad.sigmoid(ad.add(ad.matmul(joint, p["w_u"]), p["b_u"]))
            r = ad.sigmoid(ad.add(ad.matmul(joint, p["w_r"]), p["b_r"]))
            gated = ad.concat_columns(g, ad.multiply(r, h))
            c = ad.tanh(ad.add(ad.matmul(gated, p["w_c"]), p["b_c"]))
            gate_open = u
        h = ad.add(ad.multiply(gate_open, h), ad.multiply(ad.subtract(ones, gate_open), c))
        states.append(h)
    final = h
    if config.cell_kind == "a3tgcn":
        scores = None
        for state in states:
            score = ad.matmul(ad.tanh(ad.add(ad.matmul(state, p["w_a"]), p["b_a"])), p["v_a"])
            scores = score if scores is None else ad.concat_columns(scores, score)
        alpha = ad.softmax_rows(scores)
        tile = Tensor(np.ones((1, config.embed_dim)))
        final = None
        for t, state in enumerate(states):
            unit = np.zeros((len(states), 1))
            unit[t, 0] = 1.0
            weighted = ad.multiply(ad.matmul(ad.matmul(alpha, Tensor(unit)), tile), state)
            final = weighted if final is None else ad.add(final, weighted)
    hidden = ad.mean_rows(final)
    for i in (1, 2):
        hidden = ad.relu(ad.add(ad.matmul(hidden, p[f"w_head{i}"]), p[f"b_head{i}"]))
    return ad.sigmoid(ad.add(ad.matmul(hidden, p["w_head3"]), p["b_head3"]))


DEFAULT_BLOCK_FLOATS = model_module._BLOCK_FLOATS


def window_layouts(snapshots):
    """(layout, signal, float budget, block lengths of one window, windows a chunk).

    For 10-step windows. The window op stacks the whole window on a 12-node
    path (a training batch of 8 is one chunk), takes blocks of 9 and 1 under
    the default budget on the metrala shape (207 nodes: a chunk is one
    window), runs one step at a time on the chickenpox shape (20 nodes)
    under a budget of one step's N x 2d arrays, and takes blocks of 3, 3, 3
    and 1 there under a budget of three steps'.
    """
    rng = np.random.default_rng(53)
    path = TemporalGraphSignal("path", 12, tuple((i, i + 1) for i in range(11)) + ((0, 6),),
                               None, rng.uniform(size=(snapshots, 12, 1)))
    chickenpox = published_signal("chickenpox", snapshots)
    yield "whole window", path, DEFAULT_BLOCK_FLOATS, [10], 8
    yield "blocks of 9", published_signal("metrala", snapshots), DEFAULT_BLOCK_FLOATS, [9, 1], 1
    yield "step by step", chickenpox, 2 * 20 * 32, [1] * 10, 1
    yield "blocks of 3", chickenpox, 3 * 2 * 20 * 32, [3, 3, 3, 1], 1


def use_layout(monkeypatch, budget):
    """Set the window op's float budget; returns the list the block lengths are logged to."""
    monkeypatch.setattr(model_module, "_BLOCK_FLOATS", budget)
    blocks, embed = [], gcn_embed
    monkeypatch.setattr(model_module, "gcn_embed",
                        lambda x, *rest: blocks.append(len(x)) or embed(x, *rest))
    return blocks


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_fused_layers_match_composed_ops_within_roundoff(monkeypatch, kind):
    """Score and gradients agree with the composed ops' to 1e-12 of the largest gradient entry."""
    config = ModelConfig(kind, 1)
    for layout, signal, budget, expected_blocks, _ in window_layouts(10):
        rng = np.random.default_rng(51)
        params = ModelParams.initialize(config, 52)
        for name, t in params.items():
            t.value *= 3.0  # push gates towards saturation too
            if name.startswith("b_"):
                t.value += rng.normal(0.0, 0.5, t.value.shape)
        window = rng.uniform(size=(10, signal.num_nodes, 1))
        a_hat = normalized_adjacency(signal)
        blocks = use_layout(monkeypatch, budget)
        results = []
        for forward_fn in (forward_pass, composed_forward):
            ad.zero_grads(params.tensors())
            with Tape():
                out = forward_fn(window, a_hat, params, config)
                backward(ad.square(ad.subtract(out, Tensor([[0.3]]))))
            results.append((out.item(), params.grads.copy()))
        assert blocks == expected_blocks, layout
        (fused, fused_grads), (composed, composed_grads) = results
        tolerance = 1e-12 * np.abs(composed_grads).max()
        assert abs(fused - composed) <= tolerance, layout
        assert np.abs(fused_grads - composed_grads).max() <= tolerance, layout


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_training_matches_composed_ops_within_roundoff(monkeypatch, kind):
    """Two epochs of Adam over the window op end within 1e-10 of the largest parameter
    of the composed ops' run."""
    config = TrainConfig(epochs=2, bucket_length=10, seed=4)
    for layout, signal, budget, window_blocks, chunk in window_layouts(20):
        labeled = inject_noise(bucketize(signal, 10), node_bounds(signal), NoiseSpec(0.5, 3))
        assert len(labeled) == 11  # batches of 8 and 3
        blocks = use_layout(monkeypatch, budget)
        results = []
        for forward_fn in (forward_pass, composed_forward):
            monkeypatch.setattr(training, "forward_pass", forward_fn)
            checkpoint, _ = train(labeled, config, ModelConfig(kind, 1))
            results.append(checkpoint.params.values)
        chunks = 2 if chunk == 8 else len(labeled)  # per epoch
        assert blocks == window_blocks * chunks * 2, layout
        fused, composed = results
        assert np.abs(fused - composed).max() <= 1e-10 * np.abs(composed).max(), layout


def batch_inputs(kind, name, windows=8):
    """A checkpoint-free setup at a published shape: config, params, A_hat, windows and labels."""
    signal = published_signal(name, 10)
    config = ModelConfig(kind, 1)
    params = ModelParams.initialize(config, 61)
    rng = np.random.default_rng(62)
    for key, t in params.items():
        if key.startswith("b_"):  # keep every bias, and so every relu, off its zero start
            t.value += rng.normal(0.0, 0.3, t.value.shape)
    batch = rng.uniform(size=(windows, 10, signal.num_nodes, 1))
    return config, params, normalized_adjacency(signal), batch, rng.uniform(size=(windows, 1))


def window_gradients(params, config, a_hat, windows, labels):
    """Each window's scores by itself, and the mean over the windows of their loss gradients."""
    scores, total = [], np.zeros_like(params.grads)
    for window, label in zip(windows, labels):
        params.grads.fill(0.0)
        with Tape():
            out = forward_pass(window, a_hat, params, config)
            backward(ad.square(ad.subtract(out, Tensor(label[None]))))
        scores.append(out.item())
        total += params.grads
    return np.array(scores), total / len(windows)


@pytest.mark.parametrize("name", ["chickenpox", "metrala"])
@pytest.mark.parametrize("kind", CELL_KINDS)
def test_batch_is_its_windows_one_at_a_time(kind, name):
    """A batch's scores are byte-identical to its windows' alone, its gradients within 1e-12."""
    config, params, a_hat, batch, labels = batch_inputs(kind, name)
    with Tape():
        out = forward_pass(batch, a_hat, params, config)
        squared = ad.square(ad.subtract(out, Tensor(labels)))
        backward(ad.matmul(Tensor(np.full((1, len(batch)), 1.0 / len(batch))), squared))
    batched = params.grads.copy()
    scores, expected = window_gradients(params, config, a_hat, batch, labels)
    assert out.value.shape == (8, 1)
    assert out.value[:, 0].tobytes() == scores.tobytes()
    assert np.abs(batched - expected).max() <= 1e-12 * np.abs(expected).max()


SPARSE_SHAPES = ["montevideobus", "wikimath"]


@pytest.mark.parametrize("name", SPARSE_SHAPES)
@pytest.mark.parametrize("kind", CELL_KINDS)
def test_csr_window_op_matches_dense(kind, name):
    """On CSR A_hat a batch's scores and gradients are the dense ones', to 1e-12 of the
    largest gradient entry."""
    config, params, dense, batch, labels = batch_inputs(kind, name, windows=2)
    operator = adjacency_operator(published_signal(name, 10))
    assert not isinstance(operator, np.ndarray)
    results = []
    for a_hat in (dense, operator):
        params.grads.fill(0.0)
        with Tape():
            out = forward_pass(batch, a_hat, params, config)
            squared = ad.square(ad.subtract(out, Tensor(labels)))
            backward(ad.matmul(Tensor(np.full((1, 2), 0.5)), squared))
        results.append((out.value.copy(), params.grads.copy()))
    (want, want_grads), (got, got_grads) = results
    tolerance = 1e-12 * np.abs(want_grads).max()
    assert np.abs(got - want).max() <= tolerance
    assert np.abs(got_grads - want_grads).max() <= tolerance


@pytest.mark.parametrize("name", SPARSE_SHAPES)
@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.usefixtures("pool_in_process")  # the batches cross training._BATCH_POOL_FLOOR
def test_csr_training_matches_dense(monkeypatch, kind, name):
    """Two batches of Adam on CSR A_hat end within 1e-10 of the largest parameter of the
    dense run."""
    signal = published_signal(name, 25)
    labeled = inject_noise(bucketize(signal, 10), node_bounds(signal), NoiseSpec(0.5, 7))
    assert len(labeled) == 2 * training.BATCH_SIZE
    config = TrainConfig(epochs=1, bucket_length=10, seed=8)
    kinds, results = [], []
    monkeypatch.setattr(training, "forward_pass",
                        lambda windows, a_hat, *rest: kinds.append(type(a_hat))
                        or forward_pass(windows, a_hat, *rest))
    for cutoff in (data_module._SPARSE_NODES, signal.num_nodes + 1):
        monkeypatch.setattr(data_module, "_SPARSE_NODES", cutoff)
        checkpoint, _ = train(labeled, config, ModelConfig(kind, 1))
        results.append(checkpoint.params.values)
    assert kinds[0] is not np.ndarray and kinds[-1] is np.ndarray
    got, want = results
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_training_step_at_wikimath_shape_holds_only_what_its_backward_reads(kind):
    """A second training step on one 10-step window at N = 1068 peaks under 26 MiB of traced
    memory beyond its scratch buffers: 18.7-24.2 MiB over the cells, against 28.6-33.8 MiB
    when the window op kept T-GCN's gate operands twice, GConvGRU's input-side products for
    every step and the embedding's output."""
    import tracemalloc

    signal = published_signal("wikimath", 10)
    config = ModelConfig(kind, 1)
    params = ModelParams.initialize(config, 0)
    a_hat = adjacency_operator(signal)

    def step():
        with Tape():
            out = forward_pass(signal.features, a_hat, params, config)
            backward(ad.square(ad.subtract(out, Tensor([[0.5]]))))

    step()  # allocates the backward's scratch buffers, as a train's first step does
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 26 << 20


class RecordingOptimizer:
    """Keeps each step's gradient and leaves the parameters where they started."""

    def __init__(self, params):
        self.params, self.steps = params, []

    def step(self):
        self.steps.append(self.params.grads.copy())


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("name,budget,chunks", [
    ("chickenpox", DEFAULT_BLOCK_FLOATS, [8, 3]),  # one chunk a batch
    ("chickenpox", 3 * 2 * 10 * 20 * 32, [3, 3, 2, 3]),  # three windows' steps a chunk
    ("metrala", DEFAULT_BLOCK_FLOATS, [1] * 11),  # one window a chunk
])
def test_train_steps_on_the_mean_gradient_of_each_batch(monkeypatch, kind, name, budget, chunks):
    """Each step's gradient is the mean over its batch's windows, whatever the chunks;
    11 windows give a full batch and a partial one."""
    signal = published_signal(name, 20)
    labeled = inject_noise(bucketize(signal, 10), node_bounds(signal), NoiseSpec(0.5, 5))
    config, model_config = TrainConfig(epochs=1, bucket_length=10, seed=6), ModelConfig(kind, 1)
    optimizers, sizes = [], []
    monkeypatch.setattr(training, "make_optimizer",
                        lambda params, _: optimizers.append(RecordingOptimizer(params))
                        or optimizers[-1])
    monkeypatch.setattr(training, "forward_pass",
                        lambda windows, *rest: sizes.append(len(windows))
                        or forward_pass(windows, *rest))
    monkeypatch.setattr(model_module, "_BLOCK_FLOATS", budget)
    _, history = train(labeled, config, model_config)
    assert sizes == chunks

    params = ModelParams.initialize(model_config, config.seed)
    bounds = training.bounds_from_buckets(labeled)
    order = np.random.default_rng([config.seed, 1, 0]).permutation(len(labeled))
    windows = np.stack([normalize_features(labeled[i].snapshots, bounds) for i in order])
    labels = np.array([[labeled[i].label] for i in order])
    steps, losses = optimizers[0].steps, []
    assert len(steps) == 2
    for step, batch in zip(steps, (slice(0, 8), slice(8, 11))):
        scores, expected = window_gradients(params, model_config, normalized_adjacency(signal),
                                            windows[batch], labels[batch])
        assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()
        losses += ((scores - labels[batch, 0]) ** 2).tolist()
    assert history == [float(np.mean(losses))]


class TestTape:
    def test_training_step_is_short_and_freed(self):
        import gc
        import weakref

        config = ModelConfig("a3tgcn", 1)
        params = ModelParams.initialize(config, 7)
        batch = np.random.default_rng(8).uniform(size=(8, 10, 6, 1))
        gc.disable()
        try:
            # a training batch of one chunk: its windows, their errors, and their mean
            with Tape() as tape:
                out = forward_pass(batch, path_a_hat(6), params, config)
                squared = ad.square(ad.subtract(out, Tensor(np.full((8, 1), 0.4))))
                loss = ad.matmul(Tensor(np.full((1, 8), 1.0 / 8)), squared)
                backward(loss)
            assert len(tape) == 4
            assert [entry[0] for entry in tape.entries] == ["window", "subtract", "square",
                                                            "matmul"]
            # the window's rule holds every intermediate of the window; the
            # output and the loss outlive the tape and must not keep it
            window_rule = weakref.ref(tape.entries[0][3])
            del tape
            assert window_rule() is None
            assert out.tape is None
        finally:
            gc.enable()


class TestCheckpoint:
    def make_checkpoint(self, kind="a3tgcn"):
        config = small_config(kind)
        params = ModelParams.initialize(config, 31)
        bounds = NodeBounds(mins=np.zeros((3, 2)), maxs=np.ones((3, 2)))
        provenance = Provenance(dataset="demo", seed=31, epochs=5, final_loss=0.0125)
        return Checkpoint(config, params, bounds, provenance)

    def test_round_trip_is_lossless(self, tmp_path):
        checkpoint = self.make_checkpoint()
        path = tmp_path / "model.json"
        save_checkpoint(checkpoint, path)
        again = load_checkpoint(path)
        assert again.config == checkpoint.config
        assert again.params.grads is None
        for name in checkpoint.params:
            assert np.array_equal(again.params[name].value, checkpoint.params[name].value)
        assert np.array_equal(again.feature_bounds.mins, checkpoint.feature_bounds.mins)
        assert again.provenance == checkpoint.provenance

    def test_round_trip_without_bounds(self, tmp_path):
        config = small_config("tgcn")
        checkpoint = Checkpoint(config, ModelParams.zeros(config))
        path = tmp_path / "model.json"
        save_checkpoint(checkpoint, path)
        again = load_checkpoint(path)
        assert again.feature_bounds is None
        assert again.provenance == Provenance()

    def test_tampered_shape_rejected(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(self.make_checkpoint(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["params"]["w_g"]["shape"] = [2, 2]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match="w_g"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section", ["config", "params", "feature_bounds", "provenance"])
    def test_section_that_is_not_an_object_rejected(self, tmp_path, section):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(self.make_checkpoint(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[section] = []
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match="malformed checkpoint"):
            load_checkpoint(path)

    def test_forward_on_buckets(self):
        rng = np.random.default_rng(33)
        signal = TemporalGraphSignal(
            "demo", 3, ((0, 1), (1, 2)), None, rng.uniform(size=(6, 3, 2))
        )
        config = small_config("tgcn")
        checkpoint = Checkpoint(config, ModelParams.zeros(config))
        bucket = Bucket(signal, 0, 4)
        assert forward(bucket, checkpoint) == 0.5
        labeled = LabeledBucket(bucket, bucket.candidate.copy(), frozenset({1}))
        assert forward(labeled, checkpoint) == 0.5

    def test_forward_applies_stored_bounds(self):
        rng = np.random.default_rng(34)
        features = rng.uniform(1000.0, 2000.0, size=(5, 3, 2))
        signal = TemporalGraphSignal("demo", 3, ((0, 1),), None, features)
        config = small_config("tgcn")
        params = ModelParams.initialize(config, 3)
        from tgsim.data import node_bounds, normalize_features

        bounds = node_bounds(signal)
        bucket = Bucket(signal, 0, 4)
        scored = forward(bucket, Checkpoint(config, params, bounds))
        by_hand = forward_pass(
            normalize_features(bucket.snapshots, bounds),
            normalized_adjacency(signal),
            params,
            config,
        ).item()
        assert scored == by_hand

    def test_channel_mismatch_names_both(self):
        signal = TemporalGraphSignal("demo", 3, (), None, np.zeros((5, 3, 1)))
        config = small_config("tgcn", f=2)
        checkpoint = Checkpoint(config, ModelParams.zeros(config))
        with pytest.raises(ConfigError, match="1.*2|2.*1"):
            forward(Bucket(signal, 0, 4), checkpoint)


def scored_signal(kind, n=5, s=40, f=2, seed=41):
    """A signal on a path-plus-chord graph and a checkpoint whose bounds it fits."""
    rng = np.random.default_rng(seed)
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    signal = TemporalGraphSignal("scored", n, edges, None, rng.uniform(10.0, 20.0, (s, n, f)))
    return signal, scoring_checkpoint(signal, small_config(kind, f=f, d=6, a=4), seed)


def scoring_checkpoint(signal, config, seed):
    """A checkpoint with `signal`'s bounds and strong cell weights."""
    # cell weights three times the initial draw move every gate well off 0.5
    drawn = ModelParams.initialize(config, seed)
    params = ModelParams(config, {
        name: t.value if "head" in name else 3.0 * t.value for name, t in drawn.items()
    })
    return Checkpoint(config, params, node_bounds(signal))


def per_window_scores(signal, checkpoint, starts, length, candidates=None):
    """The score of each window through `forward_pass`, one window at a time."""
    bounds = checkpoint.feature_bounds
    a_hat = adjacency_operator(signal)
    out = []
    for i, start in enumerate(starts):
        window = signal.features[start:start + length].copy()
        if candidates is not None:
            window[-1] = candidates[i]
        window = normalize_features(window, bounds)
        out.append(forward_pass(window, a_hat, checkpoint.params, checkpoint.config).item())
    return np.array(out)


def blocks_of(monkeypatch, windows, signal, checkpoint, length):
    """Make score_windows take `windows` windows per block."""
    n, d = signal.num_nodes, checkpoint.config.embed_dim
    monkeypatch.setattr(model_module, "_BLOCK_FLOATS", windows * n * d * length)


class TestScoreWindows:
    @pytest.mark.parametrize("length", [2, 6])
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_stream_matches_forward_pass_across_blocks(self, monkeypatch, kind, length):
        signal, checkpoint = scored_signal(kind)
        starts = list(range(signal.num_snapshots - length + 1))
        # 4 windows a block: several blocks, the last one partial
        blocks_of(monkeypatch, 4, signal, checkpoint, length)
        assert len(starts) % 4 != 0
        got = score_windows(signal, checkpoint, starts, length)
        want = per_window_scores(signal, checkpoint, starts, length)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_candidates_in_any_order_match_forward_pass(self, monkeypatch, kind):
        signal, checkpoint = scored_signal(kind)
        rng = np.random.default_rng(43)
        # shuffled, with repeated starts and sparse gaps between them
        starts = rng.choice(30, size=17, replace=True).tolist()
        candidates = rng.uniform(8.0, 22.0, (len(starts), signal.num_nodes, 2))
        blocks_of(monkeypatch, 3, signal, checkpoint, 6)
        got = score_windows(signal, checkpoint, starts, 6, candidates)
        want = per_window_scores(signal, checkpoint, starts, 6, candidates)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_two_calls_are_bitwise_equal(self, kind):
        signal, checkpoint = scored_signal(kind)
        starts = list(range(0, 35, 2))[::-1]
        first = score_windows(signal, checkpoint, starts, 6)
        again = score_windows(signal, checkpoint, starts, 6)
        assert first.tobytes() == again.tobytes()

    @pytest.mark.parametrize("windows", [1, 4, 1000])
    def test_each_snapshot_is_embedded_once(self, monkeypatch, windows):
        signal, checkpoint = scored_signal("a3tgcn")
        calls = []
        embed = model_module.gcn_embed
        monkeypatch.setattr(model_module, "gcn_embed",
                            lambda *args: calls.append(1) or embed(*args))
        blocks_of(monkeypatch, windows, signal, checkpoint, 6)
        score_windows(signal, checkpoint, range(35), 6)
        assert len(calls) == signal.num_snapshots
        calls.clear()
        # candidates replace the last snapshot: the history snapshots 0..33
        # once each, plus one candidate per window
        score_windows(signal, checkpoint, range(30), 6, np.zeros((30, 5, 2)))
        assert len(calls) == 34 + 30

    @pytest.mark.parametrize("name", SPARSE_SHAPES)
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_csr_stream_matches_forward_pass(self, kind, name):
        signal = published_signal(name, 16)
        checkpoint = scoring_checkpoint(signal, ModelConfig(kind, 1), 45)
        assert not isinstance(adjacency_operator(signal), np.ndarray)
        starts = [6, 0, 3, 4]
        got = score_windows(signal, checkpoint, starts, 10)
        want = per_window_scores(signal, checkpoint, starts, 10)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_no_windows_gives_no_scores(self):
        signal, checkpoint = scored_signal("tgcn")
        assert score_windows(signal, checkpoint, [], 6).shape == (0,)

    @pytest.mark.parametrize("starts", [[-1, 0], [0, 35], [40]])
    def test_starts_outside_the_signal_rejected(self, starts):
        signal, checkpoint = scored_signal("tgcn")
        with pytest.raises(ContractError, match="window starts"):
            score_windows(signal, checkpoint, starts, 6)

    def test_candidate_shape_checked(self):
        signal, checkpoint = scored_signal("tgcn")
        with pytest.raises(ContractError, match="candidates"):
            score_windows(signal, checkpoint, [0, 1], 6, np.zeros((2, 5, 3)))

    @pytest.mark.parametrize("length", [0, True, 2.0])
    def test_bad_length_rejected(self, length):
        signal, checkpoint = scored_signal("tgcn")
        with pytest.raises(ContractError, match="window length"):
            score_windows(signal, checkpoint, [0], length)
