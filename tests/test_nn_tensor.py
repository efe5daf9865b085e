"""Tests for the autodiff engine (repro.nn.tensor).

Every differentiable operation is checked against numerical (finite
difference) gradients, which is the strongest correctness guarantee we can
give for the substrate that all models are built on.
"""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, as_tensor, concatenate, no_grad, where


def numerical_gradient(function, array, epsilon=1e-6):
    """Central-difference gradient of ``function`` (returning a scalar)."""
    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gradient_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function(array)
        flat[index] = original - epsilon
        minus = function(array)
        flat[index] = original
        gradient_flat[index] = (plus - minus) / (2 * epsilon)
    return gradient


def squared(tensor):
    """Elementwise square as ``tensor * tensor`` (the tape has no power op)."""
    return tensor * tensor


def check_gradient(build_loss, shape, seed=0, tolerance=1e-5):
    """Compares autodiff gradients to numerical gradients.

    Args:
        build_loss: Callable taking a Tensor and returning a scalar Tensor.
        shape: Shape of the random input array.
        seed: RNG seed for the input.
        tolerance: Maximum allowed absolute difference.
    """
    rng = np.random.default_rng(seed)
    array = rng.normal(0.0, 1.0, size=shape)
    tensor = Tensor(array.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()
    analytic = tensor.grad

    numeric = numerical_gradient(lambda a: float(build_loss(Tensor(a)).data), array.copy())
    np.testing.assert_allclose(analytic, numeric, atol=tolerance, rtol=1e-4)


class TestBasicProperties:
    def test_construction_and_shape(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.ndim == 2
        assert tensor.size == 4

    def test_item_and_numpy(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)
        assert isinstance(Tensor([1.0]).numpy(), np.ndarray)

    def test_as_tensor_passthrough(self):
        tensor = Tensor([1.0])
        assert as_tensor(tensor) is tensor
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_no_grad_context(self):
        with no_grad():
            tensor = Tensor([1.0], requires_grad=True)
            result = tensor * 2.0
        assert not tensor.requires_grad
        assert not result.requires_grad

    def test_gradient_accumulates_across_uses(self):
        tensor = Tensor([2.0], requires_grad=True)
        loss = (tensor * 3.0 + tensor * 4.0).sum()
        loss.backward()
        assert tensor.grad[0] == pytest.approx(7.0)


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda t: (t + 2.0).sum(), (3, 4))

    def test_add_broadcasting(self):
        other = Tensor(np.ones((1, 4)))
        check_gradient(lambda t: (t + other).sum(), (3, 4))

    def test_sub_and_neg(self):
        check_gradient(lambda t: (-t - t + 5.0).sum(), (2, 3))

    def test_mul(self):
        check_gradient(lambda t: (t * t).sum(), (4,))

    def test_div(self):
        check_gradient(lambda t: (t / 3.0 + Tensor(np.array(2.0)) / (t + 10.0)).sum(), (5,))

    def test_scalar_on_the_left_of_add(self):
        check_gradient(lambda t: (2.0 + t).sum(), (3, 4))

    def test_scalar_on_the_left_of_mul(self):
        check_gradient(lambda t: (3.0 * t * t).sum(), (4,))

    @pytest.mark.parametrize(
        "operation", [lambda t: 5.0 - t, lambda t: 2.0 / t], ids=["sub", "truediv"]
    )
    def test_scalar_on_the_left_of_sub_and_div_is_rejected(self, operation):
        """The tape has no reflected subtract or divide: a scalar minuend
        or dividend fails loudly instead of recording an unchecked node."""
        with pytest.raises(TypeError):
            operation(Tensor(np.ones(3), requires_grad=True))

    def test_abs(self):
        check_gradient(lambda t: (t.abs() * 2.0).sum(), (7,), seed=5)

    def test_matmul(self):
        weight = Tensor(np.random.default_rng(1).normal(size=(4, 2)))
        check_gradient(lambda t: (t @ weight).sum(), (3, 4))

    def test_matmul_gradient_wrt_weight(self):
        inputs = np.random.default_rng(2).normal(size=(3, 4))
        check_gradient(lambda w: (Tensor(inputs) @ w).sum(), (4, 2))


class TestShapeGradients:
    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) * np.arange(6.0)).sum(), (2, 3))

    def test_getitem_slice(self):
        check_gradient(lambda t: squared(t[:, 1:3]).sum(), (3, 4))

    def test_gather_rows(self):
        indices = np.array([0, 2, 2, 1])
        check_gradient(lambda t: squared(t.gather_rows(indices)).sum(), (3, 4))

    def test_concatenate(self):
        other = Tensor(np.ones((2, 2)))
        check_gradient(lambda t: concatenate([t, other], axis=1).sum(), (2, 3))

class TestReductionGradients:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum(), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda t: squared(t.sum(axis=0)).sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda t: squared(t.mean(axis=1)).sum(), (3, 4))

class TestSegmentOperations:
    def test_segment_sum_values(self):
        tensor = Tensor(np.arange(8.0).reshape(4, 2))
        result = tensor.segment_sum(np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(result.data, [[2.0, 4.0], [10.0, 12.0]])

    def test_segment_sum_gradient(self):
        segment_ids = np.array([0, 1, 0, 2, 1])
        weights = np.arange(6.0).reshape(3, 2)
        check_gradient(
            lambda t: (t.segment_sum(segment_ids, 3) * weights).sum(), (5, 2)
        )

    def test_segment_mean_values(self):
        tensor = Tensor(np.array([[2.0], [4.0], [6.0]]))
        result = tensor.segment_mean(np.array([0, 0, 1]), 3)
        np.testing.assert_allclose(result.data, [[3.0], [6.0], [0.0]])

    def test_segment_mean_gradient(self):
        segment_ids = np.array([0, 0, 1, 1, 1])
        check_gradient(
            lambda t: squared(t.segment_mean(segment_ids, 2)).sum(), (5, 3)
        )

    def test_empty_segment_produces_zero(self):
        tensor = Tensor(np.ones((2, 2)))
        result = tensor.segment_sum(np.array([0, 0]), 3)
        np.testing.assert_allclose(result.data[1:], 0.0)


class TestWhere:
    def test_where_values_and_gradient(self):
        condition = np.array([True, False, True])
        left = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        right = Tensor(np.array([10.0, 20.0, 30.0]), requires_grad=True)
        where(condition, left, right).sum().backward()
        np.testing.assert_allclose(left.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(right.grad, [0.0, 1.0, 0.0])


class TestBackwardGraph:
    def test_deep_chain(self):
        tensor = Tensor(np.array([1.0]), requires_grad=True)
        value = tensor
        for _ in range(50):
            value = value * 1.01 + 0.001
        value.sum().backward()
        assert tensor.grad is not None
        assert np.isfinite(tensor.grad).all()

    def test_diamond_graph(self):
        tensor = Tensor(np.array([2.0]), requires_grad=True)
        left = tensor * 3.0
        right = tensor * 4.0
        (left * right).sum().backward()
        # d/dx (3x * 4x) = 24x = 48
        assert tensor.grad[0] == pytest.approx(48.0)
