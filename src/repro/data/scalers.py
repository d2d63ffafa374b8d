"""Feature scalers fit on the training split and applied everywhere.

:class:`StandardScaler` keeps its statistics in streaming form — the
observation count ``count_`` and the raw sum of squared deviations — so
``partial_fit`` can extend a fitted (or bundle-rehydrated) scaler exactly.

Transformed arrays follow the engine's precision policy
(:func:`repro.tensor.get_default_dtype`): statistics are accumulated in
float64 for numerical robustness, but ``transform`` / ``inverse_transform``
emit policy-dtype arrays so a float32 model sees float32 inputs end-to-end.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import get_default_dtype


class StandardScaler:
    """Z-score scaler ``(x - mean) / std`` fit on channel 0 of the training data.

    The traffic-forecasting convention (followed by the paper's code base) is
    to normalise only the target channel; time-of-day covariates are already
    in ``[0, 1)``.
    """

    def __init__(self) -> None:
        self.mean_: float | None = None
        self.std_: float | None = None
        # Streaming provenance: how many observations the statistics summarise
        # and their raw (unfloored) sum of squared deviations.
        self.count_: int = 0
        self._m2: float = 0.0

    @staticmethod
    def _observed(values: np.ndarray, sample_mask: np.ndarray | None) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if sample_mask is not None:
            sample_mask = np.asarray(sample_mask)
            if sample_mask.shape != values.shape:
                raise ValueError(
                    f"sample_mask shape {sample_mask.shape} must match values {values.shape}"
                )
            values = values[sample_mask != 0]
        return values

    def _refresh_moments(self) -> None:
        self.mean_ = float(self.mean_)
        std = float(np.sqrt(self._m2 / self.count_)) if self.count_ else 0.0
        self.std_ = std if std > 1e-12 else 1.0

    def fit(self, values: np.ndarray, sample_mask: np.ndarray | None = None) -> "StandardScaler":
        """Fit on ``values``, optionally restricted to observed entries.

        ``sample_mask`` (same shape as ``values``, nonzero = observed) keeps
        missing-data sentinels out of the statistics, so a sparsely observed
        series is normalised by the moments of what was actually measured.
        An all-missing mask falls back to ``mean 0 / std 1``.
        """
        values = self._observed(values, sample_mask)
        if values.size == 0:
            self.mean_, self.std_ = 0.0, 1.0
            self.count_, self._m2 = 0, 0.0
            return self
        self.mean_ = float(values.mean())
        self.count_ = int(values.size)
        self._m2 = float(np.square(values - self.mean_).sum())
        self._refresh_moments()
        return self

    def partial_fit(
        self, values: np.ndarray, sample_mask: np.ndarray | None = None
    ) -> "StandardScaler":
        """Fold a new batch into the running statistics (Welford/Chan update).

        Accumulates mean and variance in float64 via Chan's parallel-variance
        merge, so chunked ``partial_fit`` over a dataset reproduces a single
        ``fit`` to ~1e-15 relative.  ``sample_mask`` works as in :meth:`fit`;
        an all-missing batch is a no-op.
        """
        values = self._observed(values, sample_mask)
        if values.size == 0:
            return self
        batch_count = int(values.size)
        batch_mean = float(values.mean())
        batch_m2 = float(np.square(values - batch_mean).sum())
        if self.count_ == 0:
            self.mean_, self.count_, self._m2 = batch_mean, batch_count, batch_m2
        else:
            total = self.count_ + batch_count
            delta = batch_mean - self.mean_
            self.mean_ = self.mean_ + delta * batch_count / total
            self._m2 += batch_m2 + delta * delta * self.count_ * batch_count / total
            self.count_ = total
        self._refresh_moments()
        return self

    def _check(self) -> None:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler must be fit before use")

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._check()
        dtype = get_default_dtype()
        return (np.asarray(values, dtype=dtype) - dtype.type(self.mean_)) / dtype.type(self.std_)

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        self._check()
        dtype = get_default_dtype()
        return np.asarray(values, dtype=dtype) * dtype.type(self.std_) + dtype.type(self.mean_)

    def fit_transform(self, values: np.ndarray) -> np.ndarray:
        return self.fit(values).transform(values)


class MinMaxScaler:
    """Scale values into ``[0, 1]`` using the training minimum and maximum."""

    def __init__(self) -> None:
        self.min_: float | None = None
        self.max_: float | None = None

    def fit(self, values: np.ndarray) -> "MinMaxScaler":
        values = np.asarray(values, dtype=np.float64)
        self.min_ = float(values.min())
        self.max_ = float(values.max())
        if self.max_ - self.min_ < 1e-12:
            self.max_ = self.min_ + 1.0
        return self

    def _check(self) -> None:
        if self.min_ is None or self.max_ is None:
            raise RuntimeError("scaler must be fit before use")

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._check()
        dtype = get_default_dtype()
        scale = dtype.type(self.max_ - self.min_)
        return (np.asarray(values, dtype=dtype) - dtype.type(self.min_)) / scale

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        self._check()
        dtype = get_default_dtype()
        scale = dtype.type(self.max_ - self.min_)
        return np.asarray(values, dtype=dtype) * scale + dtype.type(self.min_)

    def fit_transform(self, values: np.ndarray) -> np.ndarray:
        return self.fit(values).transform(values)
