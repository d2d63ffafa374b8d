"""The :class:`MultivariateTimeSeries` container (Definition 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MultivariateTimeSeries:
    """Observations of ``N`` instances over ``T`` steps with ``C`` channels.

    Attributes
    ----------
    values:
        Array of shape ``(T, N, C)``; channel 0 is the quantity being
        forecast (traffic speed, available parking lots, …).
    step_minutes:
        Sampling interval in minutes (5 for METR-LA/CARPARK1918, 60 for the
        London2000/NewYork2000 stand-ins).
    start_minute:
        Minute-of-week of the first observation; used to derive the
        time-of-day / day-of-week covariates mentioned in Definition 3.
    node_ids:
        Optional identifiers of the ``N`` instances.
    name:
        Human-readable dataset name.
    adjacency:
        Optional ground-truth ``(N, N)`` adjacency of the generating process;
        available for the synthetic datasets and consumed only by the
        predefined-graph baselines (DCRNN, STGCN) and the
        "w/o SNS & SSMA" ablation — never by SAGDFN itself.  Series derived
        by :meth:`slice_steps` and :meth:`with_time_covariates` share it as
        one read-only array; :meth:`select_nodes` copies its sub-matrix.
    """

    values: np.ndarray
    step_minutes: int = 5
    start_minute: int = 0
    node_ids: list[str] = field(default_factory=list)
    name: str = "unnamed"
    adjacency: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 2:
            self.values = self.values[:, :, None]
        if self.values.ndim != 3:
            raise ValueError(f"values must have shape (T, N, C), got {self.values.shape}")
        if not self.node_ids:
            self.node_ids = [f"node_{i}" for i in range(self.num_nodes)]
        if len(self.node_ids) != self.num_nodes:
            raise ValueError("node_ids length must match the number of nodes")

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.values.shape[1]

    @property
    def num_channels(self) -> int:
        return self.values.shape[2]

    def __len__(self) -> int:
        return self.num_steps

    def _shared_adjacency(self) -> np.ndarray | None:
        """A read-only view of ``adjacency`` for a derived series.

        The splits and loaders of one series then hold one ``(N, N)`` array
        between them, and an in-place write through any of them raises.
        """
        if self.adjacency is None:
            return None
        shared = self.adjacency.view()
        shared.setflags(write=False)
        return shared

    # ------------------------------------------------------------------ #
    # Covariates
    # ------------------------------------------------------------------ #
    def minute_of_day(self) -> np.ndarray:
        """Minute-of-day (0–1439) of every time step."""
        minutes = self.start_minute + np.arange(self.num_steps) * self.step_minutes
        return minutes % (24 * 60)

    def day_of_week(self) -> np.ndarray:
        """Day-of-week index (0–6) of every time step."""
        minutes = self.start_minute + np.arange(self.num_steps) * self.step_minutes
        return (minutes // (24 * 60)) % 7

    def observation_mask(self, null_value: float | None = 0.0) -> np.ndarray:
        """``(T, N)`` float64 mask of observed target entries (1 = observed).

        ``null_value`` marks missing observations in channel 0 — the masked
        loss/metric convention of the traffic datasets, where a reading of 0
        means a sensor outage rather than an empty road.  ``NaN`` null values
        are matched with ``np.isnan``; ``None`` declares the series dense and
        returns all ones.
        """
        target = self.values[:, :, 0]
        if null_value is None:
            return np.ones(target.shape, dtype=np.float64)
        if np.isnan(null_value):
            return (~np.isnan(target)).astype(np.float64)
        return (target != null_value).astype(np.float64)

    def with_time_covariates(self, include_day_of_week: bool = False) -> "MultivariateTimeSeries":
        """Return a copy with time-of-day (and optionally day-of-week) channels appended.

        Time-of-day is encoded as a fraction of the day in ``[0, 1)`` and
        broadcast over all nodes, following the DCRNN/Graph WaveNet
        preprocessing the paper inherits.
        """
        time_of_day = (self.minute_of_day() / (24.0 * 60.0))[:, None, None]
        channels = [self.values, np.broadcast_to(time_of_day, (self.num_steps, self.num_nodes, 1))]
        if include_day_of_week:
            day = (self.day_of_week() / 7.0)[:, None, None]
            channels.append(np.broadcast_to(day, (self.num_steps, self.num_nodes, 1)))
        stacked = np.concatenate(channels, axis=2)
        return MultivariateTimeSeries(
            values=stacked,
            step_minutes=self.step_minutes,
            start_minute=self.start_minute,
            node_ids=list(self.node_ids),
            name=self.name,
            adjacency=self._shared_adjacency(),
        )

    # ------------------------------------------------------------------ #
    # Slicing
    # ------------------------------------------------------------------ #
    def slice_steps(self, start: int, stop: int) -> "MultivariateTimeSeries":
        """Return the sub-series covering time steps ``[start, stop)``."""
        return MultivariateTimeSeries(
            values=self.values[start:stop].copy(),
            step_minutes=self.step_minutes,
            start_minute=self.start_minute + start * self.step_minutes,
            node_ids=list(self.node_ids),
            name=self.name,
            adjacency=self._shared_adjacency(),
        )

    def select_nodes(self, indices: np.ndarray | list[int]) -> "MultivariateTimeSeries":
        """Return the sub-series restricted to the given node indices.

        Used by the Table IV experiment, which trains on growing subsets of
        the London2000 graph while always evaluating the same 200 sensors.
        """
        indices = np.asarray(indices, dtype=np.int64)
        adjacency = None
        if self.adjacency is not None:
            adjacency = self.adjacency[np.ix_(indices, indices)].copy()
        return MultivariateTimeSeries(
            values=self.values[:, indices, :].copy(),
            step_minutes=self.step_minutes,
            start_minute=self.start_minute,
            node_ids=[self.node_ids[i] for i in indices],
            name=self.name,
            adjacency=adjacency,
        )
