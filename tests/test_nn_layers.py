"""Tests for neural network layers (repro.nn.layers)."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Embedding, LayerNorm, MLP, ResidualMLP
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, compute_dtype, concatenate, no_grad


class TestDense:
    def test_output_shape(self, rng):
        layer = Dense(4, 3, rng)
        output = layer(Tensor(np.ones((5, 4))))
        assert output.shape == (5, 3)

    def test_linear_no_activation(self, rng):
        layer = Dense(2, 2, rng, activation=None, use_bias=False)
        identity = np.eye(2)
        np.testing.assert_allclose(layer(Tensor(identity)).data, layer.weight.data)

    def test_relu_activation_nonnegative(self, rng):
        layer = Dense(4, 8, rng, activation="relu")
        output = layer(Tensor(rng.normal(size=(10, 4))))
        assert np.all(output.data >= 0.0)

    @pytest.mark.parametrize("activation", [None, "relu"])
    def test_forward_is_the_numpy_definition(self, rng, activation):
        """Both accepted activations, on the tape and off it, compute
        ``activation(x @ W + b)`` exactly."""
        layer = Dense(4, 3, rng, activation=activation)
        inputs = rng.normal(size=(6, 4))
        expected = inputs @ layer.weight.data + layer.bias.data
        if activation == "relu":
            expected = np.maximum(expected, 0.0)
        np.testing.assert_array_equal(layer(Tensor(inputs)).data, expected)
        with no_grad():
            np.testing.assert_array_equal(layer(Tensor(inputs)).data, expected)

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_tanh_and_sigmoid_rejected(self, rng, activation):
        with pytest.raises(ValueError):
            Dense(4, 4, rng, activation=activation)

    def test_invalid_activation_rejected(self, rng):
        with pytest.raises(ValueError):
            Dense(4, 4, rng, activation="swish")

    def test_invalid_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 4, rng)

    def test_gradients_reach_parameters(self, rng):
        layer = Dense(3, 2, rng)
        loss = layer(Tensor(np.ones((4, 3)))).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_no_bias_option(self, rng):
        layer = Dense(3, 2, rng, use_bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1


class TestMLP:
    def test_output_shape_and_depth(self, rng):
        mlp = MLP(4, [8, 8], 2, rng)
        assert len(mlp.layers) == 3
        assert mlp(Tensor(np.ones((5, 4)))).shape == (5, 2)

    def test_no_hidden_layers(self, rng):
        mlp = MLP(4, [], 2, rng)
        assert len(mlp.layers) == 1

    def test_hidden_layers_relu_output_layer_linear(self, rng):
        mlp = MLP(4, [8, 8], 3, rng)
        assert [layer.activation for layer in mlp.layers] == ["relu", "relu", None]
        assert np.any(mlp(Tensor(rng.normal(size=(5, 4)))).data < 0.0)

    def test_parameter_count(self, rng):
        mlp = MLP(4, [8], 2, rng)
        expected = 4 * 8 + 8 + 8 * 2 + 2
        assert mlp.num_parameters() == expected


class TestLayerNorm:
    def test_output_is_normalised_at_init(self, rng):
        layer = LayerNorm(16)
        output = layer(Tensor(rng.normal(3.0, 5.0, size=(8, 16)))).data
        np.testing.assert_allclose(output.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(output.std(axis=-1), 1.0, atol=1e-2)

    def test_gain_and_offset_applied(self, rng):
        layer = LayerNorm(4)
        layer.gain.data[...] = 2.0
        layer.offset.data[...] = 1.0
        output = layer(Tensor(rng.normal(size=(3, 4)))).data
        np.testing.assert_allclose(output.mean(axis=-1), 1.0, atol=1e-6)

    def test_gradient_flows(self, rng):
        layer = LayerNorm(8)
        inputs = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        layer(inputs).sum().backward()
        assert inputs.grad is not None
        assert layer.gain.grad is not None

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            LayerNorm(0)


class TestEmbedding:
    def test_lookup_shape(self, rng):
        embedding = Embedding(10, 4, rng)
        output = embedding(np.array([0, 3, 3, 9]))
        assert output.shape == (4, 4)
        np.testing.assert_allclose(output.data[1], output.data[2])

    def test_out_of_range_index_rejected(self, rng):
        embedding = Embedding(10, 4, rng)
        with pytest.raises(IndexError):
            embedding(np.array([10]))
        with pytest.raises(IndexError):
            embedding(np.array([-1]))

    def test_gradient_accumulates_per_row(self, rng):
        embedding = Embedding(5, 3, rng)
        output = embedding(np.array([1, 1, 2]))
        output.sum().backward()
        np.testing.assert_allclose(embedding.table.grad[1], 2.0)
        np.testing.assert_allclose(embedding.table.grad[2], 1.0)
        np.testing.assert_allclose(embedding.table.grad[0], 0.0)


class TestResidualMLP:
    def test_same_size_residual_is_identity_plus_mlp(self, rng):
        block = ResidualMLP(4, [8], 4, rng)
        assert block.projection is None
        inputs = Tensor(rng.normal(size=(3, 4)))
        assert block(inputs).shape == (3, 4)

    def test_projection_created_when_sizes_differ(self, rng):
        block = ResidualMLP(4, [8], 2, rng)
        assert block.projection is not None
        assert block(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_disable_layer_norm(self, rng):
        block = ResidualMLP(4, [8], 4, rng, use_layer_norm=False)
        assert block.layer_norm is None

    def test_disable_residual(self, rng):
        block = ResidualMLP(4, [8], 4, rng, use_residual=False)
        zeroed = Tensor(np.zeros((2, 4)))
        # Without residual the output for zero input is just the MLP output.
        assert block(zeroed).shape == (2, 4)

    def test_residual_dominates_for_large_inputs(self, rng):
        block = ResidualMLP(4, [4], 4, rng)
        large = Tensor(np.full((1, 4), 1000.0))
        output = block(large).data
        # Layer norm bounds the MLP branch, so the output stays near the input.
        np.testing.assert_allclose(output, 1000.0, rtol=0.05)


class TestFoldedWeightCache:
    """``ResidualMLP.forward_pieces`` caches LayerNorm-folded weights per dtype;
    every tracked mutation of the weights must invalidate them."""

    @staticmethod
    def setup(rng):
        block = ResidualMLP(10, [8], 3, rng)
        block.layer_norm.gain.data[...] = rng.normal(size=10)
        block.layer_norm.offset.data[...] = rng.normal(size=10)
        nodes, edges = rng.normal(size=(4, 4)), rng.normal(size=(5, 2))
        senders, receivers = np.array([0, 1, 3, 3, 2]), np.array([1, 0, 0, 2, 3])
        pieces = [(edges, None), (nodes, senders), (nodes, receivers)]
        return block, pieces

    @staticmethod
    def tape(block, pieces):
        inputs = [Tensor(f if i is None else f[i]) for f, i in pieces]
        return block(concatenate(inputs, axis=-1))

    @classmethod
    def assert_fresh(cls, block, pieces, dtype="float64"):
        with no_grad(), compute_dtype(dtype):
            fast = block.forward_pieces(pieces)
        assert fast.dtype == np.dtype(dtype)
        tape = cls.tape(block, pieces).data
        if dtype == "float64":
            np.testing.assert_allclose(fast, tape, rtol=1e-9, atol=1e-12)
        else:
            np.testing.assert_allclose(fast, tape, rtol=1e-4, atol=1e-4)

    def test_adam_step_invalidates(self, rng):
        block, pieces = self.setup(rng)
        self.assert_fresh(block, pieces)
        optimizer = Adam(block.parameters(), learning_rate=0.1)
        update = self.tape(block, pieces)
        (update * update).sum().backward()
        optimizer.step()
        self.assert_fresh(block, pieces)

    def test_load_state_dict_invalidates(self, rng):
        block, pieces = self.setup(rng)
        self.assert_fresh(block, pieces)
        other = ResidualMLP(10, [8], 3, np.random.default_rng(99))
        other.layer_norm.gain.data[...] = 3.0
        block.load_state_dict(other.state_dict())
        self.assert_fresh(block, pieces)

    @pytest.mark.parametrize(
        "name",
        [
            "mlp.layers.0.weight",
            "mlp.layers.0.bias",
            "layer_norm.gain",
            "layer_norm.offset",
            "projection.weight",
        ],
    )
    def test_in_place_edit_with_bump_version_invalidates(self, name, rng):
        block, pieces = self.setup(rng)
        self.assert_fresh(block, pieces, "float32")
        self.assert_fresh(block, pieces)
        parameter = dict(block.named_parameters())[name]
        parameter.data += rng.normal(size=parameter.shape)
        parameter.bump_version()
        self.assert_fresh(block, pieces, "float32")
        self.assert_fresh(block, pieces)

    def test_alternating_dtypes_each_match_their_reference(self, rng):
        block, pieces = self.setup(rng)
        for dtype in ("float32", "float64", "float32", "float64"):
            self.assert_fresh(block, pieces, dtype)
