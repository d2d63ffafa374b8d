"""Encoder–decoder forecaster built from OneStepFastGConv cells (Section IV-C)."""

from __future__ import annotations

import numpy as np

from repro.core.gconv import OneStepFastGConvCell, _Graph, _step_graph
from repro.nn.module import Module
from repro.tensor import Tensor, stack
from repro.utils.seed import spawn_rng


class SAGDFNEncoderDecoder(Module):
    """Sequence-to-sequence forecaster of Algorithm 2 (lines 8–12).

    The encoder consumes the ``h`` historical observations and compresses
    them into the hidden state ``H_{t0-1}``; the decoder is seeded with the
    last observation ``X_{t0}`` and rolls forward ``f`` steps, feeding each
    prediction back as the next input.

    Parameters
    ----------
    input_dim:
        Endogenous channels of the encoder input (target + any covariates
        counted in the legacy layout).
    hidden_dim:
        ``D`` — GRU hidden width.
    output_dim:
        Channels being forecast (1 in the paper).
    horizon:
        ``f`` — number of decoding steps.
    diffusion_steps:
        ``J`` of the fast graph convolution.
    num_layers:
        Number of stacked recurrent layers (the paper uses 1).
    teacher_forcing:
        Probability of feeding the ground truth instead of the prediction to
        the decoder during training (scheduled-sampling style curriculum).
    exog_dim:
        Declared exogenous covariate channels appended after the
        ``input_dim`` endogenous ones.  They widen the first encoder layer
        only — the decoder consumes predictions (``output_dim`` channels),
        never covariates.
    mask_input:
        When ``True`` the encoder input additionally carries a trailing
        observation-mask channel; it is diffused and gated like every other
        channel.
    quantiles:
        Probabilistic head: the decoder cells project every step to
        ``output_dim · len(quantiles)`` columns (ordered by quantile level),
        and the head closest to 0.5 is fed back as the next decoder input.
        ``None`` keeps the single point head.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        output_dim: int = 1,
        horizon: int = 12,
        diffusion_steps: int = 2,
        num_layers: int = 1,
        teacher_forcing: float = 0.0,
        seed: int | None = 0,
        exog_dim: int = 0,
        mask_input: bool = False,
        quantiles: tuple[float, ...] | None = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if exog_dim < 0:
            raise ValueError("exog_dim must be >= 0")
        base = 0 if seed is None else seed
        self.input_dim = input_dim
        self.exog_dim = exog_dim
        self.mask_input = bool(mask_input)
        self.encoder_input_dim = input_dim + exog_dim + (1 if mask_input else 0)
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        self.quantiles = None if quantiles is None else tuple(float(q) for q in quantiles)
        self.horizon = horizon
        self.num_layers = num_layers
        self.teacher_forcing = teacher_forcing
        self._rng = spawn_rng(base + 123)

        self.encoder_cells = [
            OneStepFastGConvCell(
                self.encoder_input_dim if layer == 0 else hidden_dim,
                hidden_dim,
                output_dim,
                diffusion_steps,
                seed=base + layer,
            )
            for layer in range(num_layers)
        ]
        self.decoder_cells = [
            OneStepFastGConvCell(
                output_dim if layer == 0 else hidden_dim,
                hidden_dim,
                self.prediction_dim,
                diffusion_steps,
                seed=base + 100 + layer,
            )
            for layer in range(num_layers)
        ]

    @property
    def num_quantiles(self) -> int:
        """Number of decoder heads (1 for a point forecaster)."""
        return len(self.quantiles) if self.quantiles else 1

    @property
    def prediction_dim(self) -> int:
        """Channels of every decoder-step prediction (``output_dim · Q``)."""
        return self.output_dim * self.num_quantiles

    @property
    def feedback_index(self) -> int:
        """Quantile head fed back as the next decoder input (closest to 0.5)."""
        if not self.quantiles:
            return 0
        return int(np.argmin(np.abs(np.asarray(self.quantiles) - 0.5)))

    def _feedback(self, prediction: Tensor) -> Tensor:
        """Slice the decoder-input channels out of a full-width prediction."""
        if self.num_quantiles == 1:
            return prediction
        start = self.feedback_index * self.output_dim
        return prediction[..., start : start + self.output_dim]

    def _run_stack(
        self,
        cells: list[OneStepFastGConvCell],
        x: Tensor,
        hiddens: list[Tensor],
        adjacency: Tensor,
        graph: _Graph,
        degree_scale: Tensor | None,
    ) -> tuple[list[Tensor], Tensor]:
        """Push one time step through the stacked cells."""
        new_hiddens: list[Tensor] = []
        current = x
        for cell, hidden in zip(cells, hiddens):
            current, prediction = cell._step(current, hidden, adjacency, graph, degree_scale)
            new_hiddens.append(current)
        return new_hiddens, prediction

    def forward(
        self,
        history: Tensor,
        adjacency: Tensor,
        index_set: np.ndarray | None = None,
        targets: Tensor | None = None,
        degree_scale: Tensor | None = None,
    ) -> Tensor:
        """Forecast ``horizon`` steps from ``history`` of shape ``(B, h, N, C)``.

        ``targets`` (shape ``(B, f, N, output_dim)``) enables teacher forcing
        during training; evaluation never passes targets.  ``degree_scale``
        optionally supplies the precomputed ``(D + I)^{-1}`` column used by
        every graph convolution (frozen-graph inference).
        """
        if history.ndim != 4:
            raise ValueError(f"history must be (batch, steps, nodes, channels), got {history.shape}")
        batch, steps, num_nodes, _ = history.shape
        graph = _step_graph(adjacency, index_set, degree_scale)

        encoder_hiddens = [cell.initial_state(batch, num_nodes) for cell in self.encoder_cells]
        for t in range(steps):
            encoder_hiddens, _ = self._run_stack(
                self.encoder_cells, history[:, t], encoder_hiddens, adjacency, graph,
                degree_scale,
            )

        decoder_hiddens = encoder_hiddens
        decoder_input = history[:, -1, :, : self.output_dim]
        predictions: list[Tensor] = []
        for step in range(self.horizon):
            decoder_hiddens, prediction = self._run_stack(
                self.decoder_cells, decoder_input, decoder_hiddens, adjacency, graph,
                degree_scale,
            )
            predictions.append(prediction)
            use_truth = (
                targets is not None
                and self.training
                and self.teacher_forcing > 0.0
                and self._rng.random() < self.teacher_forcing
            )
            decoder_input = targets[:, step] if use_truth else self._feedback(prediction)
        return stack(predictions, axis=1)
