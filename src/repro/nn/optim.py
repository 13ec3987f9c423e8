"""Gradient-based optimizers for the neural-network substrate."""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter
from repro.utils.validation import check_positive


class Optimizer:
    """Base optimizer over a fixed list of parameters."""

    def __init__(self, parameters: Iterable[Parameter], learning_rate: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer requires at least one parameter")
        self.learning_rate = check_positive(learning_rate, "learning_rate")

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def clip_gradients(self, max_norm: float) -> float:
        """Scale gradients so their global L2 norm does not exceed ``max_norm``.

        Returns the pre-clipping norm, which is useful for monitoring.
        """
        check_positive(max_norm, "max_norm")
        squared = 0.0
        for parameter in self.parameters:
            if parameter.grad is not None:
                squared += float(np.sum(parameter.grad**2))
        total_norm = float(np.sqrt(squared))
        if total_norm > max_norm and total_norm > 0:
            scale = max_norm / total_norm
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.grad = parameter.grad * scale
        return total_norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            if self.weight_decay:
                gradient = gradient + self.weight_decay * parameter.data
            if self.momentum:
                if self._velocity[index] is None:
                    self._velocity[index] = np.zeros_like(parameter.data)
                self._velocity[index] = self.momentum * self._velocity[index] + gradient
                gradient = self._velocity[index]
            parameter.data = parameter.data - self.learning_rate * gradient


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._first_moment = [np.zeros_like(parameter.data) for parameter in self.parameters]
        self._second_moment = [np.zeros_like(parameter.data) for parameter in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            if self.weight_decay:
                gradient = gradient + self.weight_decay * parameter.data
            # Moments update in place, in the operation order of
            # `beta * moment + (1 - beta) * update`.
            first_moment = self._first_moment[index]
            first_moment *= self.beta1
            first_moment += (1.0 - self.beta1) * gradient
            second_moment = self._second_moment[index]
            second_moment *= self.beta2
            second_moment += (1.0 - self.beta2) * gradient**2
            corrected_first = first_moment / bias1
            corrected_second = second_moment / bias2
            parameter.data = parameter.data - self.learning_rate * corrected_first / (
                np.sqrt(corrected_second) + self.epsilon
            )
