"""Forecasting losses: MAE, MSE, pinball, and masked variants.

The traffic-forecasting literature (DCRNN, Graph WaveNet, SAGDFN) treats
zero readings as missing values and excludes them from both the training
loss and evaluation metrics; the ``masked_*`` functions implement that
convention and are used by the trainer and the evaluation harness.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error — the training loss of Eq. 11."""
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    return (prediction - target).abs().mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def _quantile_array(quantiles) -> np.ndarray:
    quantiles = np.asarray(quantiles, dtype=np.float64).reshape(-1)
    if quantiles.size == 0:
        raise ValueError("quantiles must be non-empty")
    if np.any(quantiles <= 0.0) or np.any(quantiles >= 1.0):
        raise ValueError(f"quantiles must lie strictly inside (0, 1): {quantiles.tolist()}")
    return quantiles


def pinball_loss(prediction: Tensor, target: Tensor, quantiles) -> Tensor:
    """Mean pinball (quantile) loss over a trailing quantile axis.

    ``prediction`` carries one channel per quantile in its last axis;
    ``target`` has a single trailing channel and broadcasts against it.  The
    per-entry loss is ``max(q·(t − p), (q − 1)·(t − p))`` — at ``q = 0.5``
    this is exactly ``0.5·|t − p|``, so a lone median head reduces to half
    the MAE.
    """
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    quantiles = _quantile_array(quantiles)
    if prediction.shape[-1] != quantiles.size:
        raise ValueError(
            f"prediction has {prediction.shape[-1]} quantile channels, "
            f"expected {quantiles.size}"
        )
    diff = target - prediction  # broadcasts (…, 1) against (…, Q)
    from repro.tensor import where

    q = Tensor(quantiles)
    return where(diff.data >= 0.0, q * diff, (q - 1.0) * diff).mean()


def masked_pinball(
    prediction: Tensor, target: Tensor, quantiles, null_value: float | None = 0.0
) -> Tensor:
    """Pinball loss over entries whose target differs from ``null_value``.

    The mask is derived from the single-channel target and broadcast over
    the quantile axis; masked entries contribute neither loss nor gradient.
    The result averages over the observed entries *and* the quantile axis,
    so ``masked_pinball(p, t, (0.5,)) == 0.5 · masked_mae(p, t)``.
    """
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    quantiles = _quantile_array(quantiles)
    if prediction.shape[-1] != quantiles.size:
        raise ValueError(
            f"prediction has {prediction.shape[-1]} quantile channels, "
            f"expected {quantiles.size}"
        )
    cleaned, mask = _masked_target(target, null_value, prediction.dtype)
    diff = cleaned - prediction
    from repro.tensor import where

    q = Tensor(quantiles, dtype=prediction.dtype)
    per_entry = where(diff.data >= 0.0, q * diff, (q - 1.0) * diff)
    return (per_entry * mask).mean()


def _masked_target(target: Tensor, null_value: float | None, dtype) -> tuple[Tensor, Tensor]:
    """Return the target with NaNs removed and the normalised inclusion mask.

    The mask is scaled so that multiplying element-wise and taking ``mean()``
    averages only over the observed entries (the DCRNN convention).  Both
    come back in ``dtype`` — the prediction's — so a float32 model's loss
    stays float32 whatever the dtype policy.
    """
    if null_value is None:
        mask = np.ones_like(target.data)
    elif np.isnan(null_value):
        mask = (~np.isnan(target.data)).astype(float)
    else:
        mask = (~np.isclose(target.data, null_value)).astype(float)
    total = mask.mean()
    mask = np.zeros_like(mask) if total <= 0 else mask / total
    cleaned = Tensor(np.nan_to_num(target.data, nan=0.0), dtype=dtype)
    return cleaned, Tensor(mask, dtype=dtype)


def masked_mae(prediction: Tensor, target: Tensor, null_value: float | None = 0.0) -> Tensor:
    """MAE over entries whose target differs from ``null_value``."""
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    cleaned, mask = _masked_target(target, null_value, prediction.dtype)
    return ((prediction - cleaned).abs() * mask).mean()


def masked_mse(prediction: Tensor, target: Tensor, null_value: float | None = 0.0) -> Tensor:
    """MSE over entries whose target differs from ``null_value``."""
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    cleaned, mask = _masked_target(target, null_value, prediction.dtype)
    diff = prediction - cleaned
    return (diff * diff * mask).mean()


def masked_rmse(prediction: Tensor, target: Tensor, null_value: float | None = 0.0) -> Tensor:
    """RMSE over entries whose target differs from ``null_value``."""
    return masked_mse(prediction, target, null_value=null_value).sqrt()


def masked_mape(prediction: Tensor, target: Tensor, null_value: float | None = 0.0,
                epsilon: float = 1e-5) -> Tensor:
    """MAPE over entries whose target differs from ``null_value``."""
    prediction, target = _as_tensor(prediction), _as_tensor(target)
    cleaned, mask = _masked_target(target, null_value, prediction.dtype)
    denominator = Tensor(np.maximum(np.abs(cleaned.data), epsilon), dtype=prediction.dtype)
    return ((prediction - cleaned).abs() / denominator * mask).mean()


class L1Loss(Module):
    """Module wrapper around :func:`l1_loss`."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return l1_loss(prediction, target)


class MSELoss(Module):
    """Module wrapper around :func:`mse_loss`."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return mse_loss(prediction, target)
