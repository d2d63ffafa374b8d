"""Weight initialisation schemes (Glorot/Xavier uniform, uniform, constant).

Every initialiser returns an array in the engine's policy dtype
(:func:`repro.tensor.get_default_dtype`) unless an explicit ``dtype`` is
given, so models built under ``set_default_dtype("float32")`` come out
float32 end-to-end without a second cast at :class:`Parameter` creation.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.dtype import get_default_dtype


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out


def _cast(array: np.ndarray, dtype) -> np.ndarray:
    return array.astype(dtype if dtype is not None else get_default_dtype(), copy=False)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0,
                   dtype=None) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return _cast(rng.uniform(-bound, bound, size=shape), dtype)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, low: float = -0.1,
            high: float = 0.1, dtype=None) -> np.ndarray:
    """Plain uniform initialisation in ``[low, high)``."""
    return _cast(rng.uniform(low, high, size=shape), dtype)


def zeros(shape: tuple[int, ...], dtype=None) -> np.ndarray:
    return np.zeros(shape, dtype=dtype if dtype is not None else get_default_dtype())


def ones(shape: tuple[int, ...], dtype=None) -> np.ndarray:
    return np.ones(shape, dtype=dtype if dtype is not None else get_default_dtype())
