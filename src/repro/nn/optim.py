"""Optimizers and gradient utilities.

The paper trains every model with Adam at a learning rate of 1e-3 and the
default moment decay rates (Section 4, Table 4).  The layer-normalisation
ablation additionally requires global-norm gradient clipping to keep the
un-normalised models from diverging, so that is provided here too.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.nn.module import Parameter, bump_parameter_version

__all__ = ["Optimizer", "SGD", "Adam", "clip_gradients_by_global_norm", "global_gradient_norm"]


class Optimizer:
    """Base class for optimizers over a fixed list of parameters."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")

    def zero_grad(self) -> None:
        """Clears the gradient of every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        learning_rate: float = 1e-2,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(parameter.data) for parameter in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.learning_rate * parameter.grad
            parameter.data += velocity
            parameter.bump_version()
        bump_parameter_version()


class Adam(Optimizer):
    """Adam (Kingma & Ba 2014) with the paper's default hyper-parameters.

    The moment state lives in two flat slabs over the concatenation of all
    parameters; the per-parameter moment arrays are reshaped views into
    them.  When every parameter has a gradient, the update runs as a handful
    of vectorized operations over the slabs.  A step where some parameter
    has no gradient runs a per-parameter loop instead, because that
    parameter's moments must not decay; it is element-for-element the same
    arithmetic, so both produce bit-identical updates.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta coefficients must be in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._step_count = 0
        total_size = sum(parameter.size for parameter in self.parameters)
        self._flat_first = np.zeros(total_size, dtype=np.float64)
        self._flat_second = np.zeros(total_size, dtype=np.float64)
        self._flat_gradient = np.empty(total_size, dtype=np.float64)
        self._scratch = np.empty(total_size, dtype=np.float64)
        self._spans: List[Tuple[int, int]] = []
        self._first_moment: List[np.ndarray] = []
        self._second_moment: List[np.ndarray] = []
        offset = 0
        for parameter in self.parameters:
            span = (offset, offset + parameter.size)
            self._spans.append(span)
            self._first_moment.append(
                self._flat_first[span[0] : span[1]].reshape(parameter.data.shape)
            )
            self._second_moment.append(
                self._flat_second[span[0] : span[1]].reshape(parameter.data.shape)
            )
            offset = span[1]

    def step(self) -> None:
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        if all(parameter.grad is not None for parameter in self.parameters):
            self._step_flat(bias_correction1, bias_correction2)
            return
        for parameter, first, second in zip(
            self.parameters, self._first_moment, self._second_moment
        ):
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            first *= self.beta1
            first += (1.0 - self.beta1) * gradient
            second *= self.beta2
            second += (1.0 - self.beta2) * gradient * gradient
            corrected_first = first / bias_correction1
            corrected_second = second / bias_correction2
            parameter.data -= (
                self.learning_rate * corrected_first / (np.sqrt(corrected_second) + self.epsilon)
            )
            parameter.bump_version()
        bump_parameter_version()

    def _step_flat(self, bias_correction1: float, bias_correction2: float) -> None:
        """One update over the flat moment slabs (every gradient present)."""
        gradient = self._flat_gradient
        for parameter, (start, stop) in zip(self.parameters, self._spans):
            gradient[start:stop] = parameter.grad.ravel()
        first, second = self._flat_first, self._flat_second
        first *= self.beta1
        first += (1.0 - self.beta1) * gradient
        second *= self.beta2
        # Same association as the loop: ((1 - beta2) * g) * g.
        scratch = self._scratch
        np.multiply(1.0 - self.beta2, gradient, out=scratch)
        scratch *= gradient
        second += scratch
        corrected_first = first / bias_correction1
        corrected_second = second / bias_correction2
        update = self.learning_rate * corrected_first
        np.sqrt(corrected_second, out=corrected_second)
        corrected_second += self.epsilon
        update /= corrected_second
        for parameter, (start, stop) in zip(self.parameters, self._spans):
            parameter.data -= update[start:stop].reshape(parameter.data.shape)
            parameter.bump_version()
        bump_parameter_version()


def global_gradient_norm(parameters: Iterable[Parameter]) -> float:
    """Returns the L2 norm of all parameter gradients concatenated."""
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            total += float(np.sum(parameter.grad ** 2))
    return float(np.sqrt(total))


def clip_gradients_by_global_norm(
    parameters: Iterable[Parameter], max_norm: float
) -> float:
    """Scales gradients so their global norm does not exceed ``max_norm``.

    Returns the norm before clipping, which the trainer logs to detect
    instability (the layer-norm ablation in Section 5.2 relies on this).
    """
    parameters = list(parameters)
    norm = global_gradient_norm(parameters)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for parameter in parameters:
            if parameter.grad is not None:
                parameter.grad *= scale
    return norm
