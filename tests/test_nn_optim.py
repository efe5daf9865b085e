"""Tests for optimizers and gradient utilities (repro.nn.optim)."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.module import Parameter
from repro.nn.optim import (
    Adam,
    clip_gradients_by_global_norm,
    global_gradient_norm,
)
from repro.nn.tensor import Tensor


def quadratic_loss(parameter: Parameter) -> Tensor:
    """Simple convex objective with minimum at 3.0."""
    difference = parameter - 3.0
    return (difference * difference).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        parameter = Parameter(np.array([10.0]))
        optimizer = Adam([parameter], learning_rate=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            quadratic_loss(parameter).backward()
            optimizer.step()
        assert parameter.data[0] == pytest.approx(3.0, abs=1e-2)

    def test_step_without_gradient_is_noop(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = Adam([parameter])
        optimizer.step()
        assert parameter.data[0] == pytest.approx(1.0)

    def test_first_step_size_bounded_by_learning_rate(self):
        parameter = Parameter(np.array([0.0]))
        optimizer = Adam([parameter], learning_rate=0.001)
        parameter.grad = np.array([1000.0])
        optimizer.step()
        assert abs(parameter.data[0]) <= 0.0011

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], learning_rate=-1.0)
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], beta1=1.5)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], learning_rate=0.1)

    def test_zero_grad_clears_every_gradient(self, rng):
        layer = Dense(2, 1, rng)
        optimizer = Adam(layer.parameters())
        layer(Tensor(rng.normal(size=(3, 2)))).sum().backward()
        assert all(parameter.grad is not None for parameter in layer.parameters())
        optimizer.zero_grad()
        assert all(parameter.grad is None for parameter in layer.parameters())

    def test_trains_a_dense_layer_to_fit_data(self, rng):
        layer = Dense(2, 1, rng)
        optimizer = Adam(layer.parameters(), learning_rate=0.05)
        inputs = rng.normal(size=(64, 2))
        targets = inputs @ np.array([[2.0], [-1.0]]) + 0.5
        for _ in range(300):
            optimizer.zero_grad()
            predicted = layer(Tensor(inputs))
            difference = predicted - Tensor(targets)
            (difference * difference).mean().backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, [[2.0], [-1.0]], atol=0.05)
        np.testing.assert_allclose(layer.bias.data, [0.5], atol=0.05)


class TestGradientClipping:
    def test_global_norm_computation(self):
        first = Parameter(np.zeros(2))
        second = Parameter(np.zeros(2))
        first.grad = np.array([3.0, 0.0])
        second.grad = np.array([0.0, 4.0])
        assert global_gradient_norm([first, second]) == pytest.approx(5.0)

    def test_clipping_scales_down(self):
        parameter = Parameter(np.zeros(2))
        parameter.grad = np.array([30.0, 40.0])
        returned_norm = clip_gradients_by_global_norm([parameter], max_norm=5.0)
        assert returned_norm == pytest.approx(50.0)
        assert global_gradient_norm([parameter]) == pytest.approx(5.0)

    def test_no_clipping_below_threshold(self):
        parameter = Parameter(np.zeros(2))
        parameter.grad = np.array([1.0, 1.0])
        clip_gradients_by_global_norm([parameter], max_norm=10.0)
        np.testing.assert_allclose(parameter.grad, [1.0, 1.0])

    def test_parameters_without_gradients_ignored(self):
        with_grad = Parameter(np.zeros(1))
        with_grad.grad = np.array([2.0])
        without_grad = Parameter(np.zeros(1))
        assert global_gradient_norm([with_grad, without_grad]) == pytest.approx(2.0)
