"""Tests for Module, Parameter and checkpoint serialization."""

import numpy as np
import pytest

from repro.nn.layers import Dense, MLP
from repro.nn.module import Module, Parameter
from repro.nn.serialization import (
    checkpoint_file,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn.tensor import Tensor, no_grad


class _Composite(Module):
    """A module with nested children, lists and dicts of sub-modules."""

    def __init__(self, rng):
        self.encoder = Dense(4, 8, rng)
        self.heads = {"a": Dense(8, 1, rng), "b": Dense(8, 1, rng)}
        self.stack = [Dense(8, 8, rng), Dense(8, 8, rng)]
        self.scale = Parameter(np.array([1.0]), name="scale")

    def forward(self, inputs):
        hidden = self.encoder(inputs)
        return self.heads["a"](hidden) + self.heads["b"](hidden) * self.scale


class TestParameterDiscovery:
    def test_parameters_found_in_nested_structures(self, rng):
        module = _Composite(rng)
        # encoder (2) + 2 heads (2 each) + 2 stacked (2 each) + scale = 11
        assert len(module.parameters()) == 11

    def test_named_parameters_have_unique_paths(self, rng):
        module = _Composite(rng)
        names = [name for name, _ in module.named_parameters()]
        assert len(names) == len(set(names))
        assert any(name.startswith("heads.a") for name in names)
        assert any(name.startswith("stack.1") for name in names)

    def test_shared_parameter_listed_once(self, rng):
        module = _Composite(rng)
        module.alias = module.scale  # same Parameter reachable twice
        assert sum(1 for _, p in module.named_parameters() if p is module.scale) == 1

    def test_num_parameters(self, rng):
        dense = Dense(3, 2, rng)
        assert dense.num_parameters() == 3 * 2 + 2

    def test_zero_grad_clears_all(self, rng):
        module = _Composite(rng)
        module(Tensor(np.ones((2, 4)))).sum().backward()
        assert any(parameter.grad is not None for parameter in module.parameters())
        module.zero_grad()
        assert all(parameter.grad is None for parameter in module.parameters())

    def test_parameter_requires_grad_even_inside_no_grad(self):
        with no_grad():
            parameter = Parameter(np.zeros(3))
        assert parameter.requires_grad


class TestStateDict:
    def test_round_trip(self, rng):
        module = MLP(4, [8], 2, rng)
        state = module.state_dict()
        clone = MLP(4, [8], 2, np.random.default_rng(99))
        clone.load_state_dict(state)
        inputs = Tensor(np.ones((3, 4)))
        np.testing.assert_allclose(module(inputs).data, clone(inputs).data)

    def test_state_dict_is_a_copy(self, rng):
        module = Dense(2, 2, rng)
        state = module.state_dict()
        state["weight"][...] = 0.0
        assert not np.allclose(module.weight.data, 0.0)

    def test_missing_key_raises(self, rng):
        module = Dense(2, 2, rng)
        state = module.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            module.load_state_dict(state)

    def test_shape_mismatch_raises(self, rng):
        module = Dense(2, 2, rng)
        state = module.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            module.load_state_dict(state)


class TestCheckpointFiles:
    def test_save_and_load(self, rng, tmp_path):
        module = MLP(4, [8], 2, rng)
        path = str(tmp_path / "checkpoints" / "model.npz")
        save_checkpoint(module, path)
        clone = MLP(4, [8], 2, np.random.default_rng(123))
        load_checkpoint(clone, path)
        inputs = Tensor(np.ones((2, 4)))
        np.testing.assert_allclose(module(inputs).data, clone(inputs).data)

    def test_checkpoint_to_dict_keys(self, rng, tmp_path):
        module = Dense(2, 3, rng)
        path = str(tmp_path / "dense.npz")
        save_checkpoint(module, path)
        state = checkpoint_to_dict(path)
        assert set(state) == {"weight", "bias"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            checkpoint_to_dict(str(tmp_path / "missing.npz"))

    def test_a_fifo_raises_instead_of_blocking(self, fifo_checkpoint):
        path, call = fifo_checkpoint
        raised = call(checkpoint_to_dict, path)
        assert isinstance(raised, FileNotFoundError)
        assert "not a regular file" in str(raised)

    def test_a_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a regular file"):
            checkpoint_to_dict(str(tmp_path))

    def test_the_npz_spelling_is_found(self, rng, tmp_path):
        save_checkpoint(Dense(2, 3, rng), str(tmp_path / "dense"))
        assert checkpoint_file(str(tmp_path / "dense")) == str(tmp_path / "dense.npz")
