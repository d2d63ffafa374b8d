"""Activation functions as stateless :class:`~repro.nn.module.Module` wrappers."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()
