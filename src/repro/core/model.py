"""The end-to-end SAGDFN model (Figure 1 of the paper)."""

from __future__ import annotations

import numpy as np

from repro.core.attention import SparseSpatialMultiHeadAttention
from repro.core.config import SAGDFNConfig
from repro.core.encoder_decoder import SAGDFNEncoderDecoder
from repro.core.sampling import SignificantNeighborsSampling
from repro.graph import row_normalize, threshold_sparsify
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.utils.seed import spawn_rng


class SAGDFN(Module):
    """Scalable Adaptive Graph Diffusion Forecasting Network.

    Combines the three modules of Figure 1 — Significant Neighbors Sampling,
    Sparse Spatial Multi-Head Attention and the encoder–decoder of
    OneStepFastGConv cells — and exposes the ablation switches of Table VIII
    via :class:`~repro.core.config.SAGDFNConfig`.

    Typical usage::

        config = SAGDFNConfig(num_nodes=207, history=12, horizon=12)
        model = SAGDFN(config)
        model.refresh_graph(iteration=0)          # Algorithm 2, lines 5–7
        predictions = model(Tensor(batch_x))      # (B, f, N, 1)

    The :class:`~repro.core.trainer.Trainer` calls :meth:`refresh_graph`
    automatically at every iteration.
    """

    def __init__(self, config: SAGDFNConfig, predefined_adjacency: np.ndarray | None = None):
        super().__init__()
        self.config = config
        rng = spawn_rng(config.seed)

        # Node embedding matrix E (N, d), learned end-to-end.
        self.node_embeddings = Parameter(
            rng.normal(0.0, 1.0 / np.sqrt(config.embedding_dim),
                       size=(config.num_nodes, config.embedding_dim)),
            name="node_embeddings",
        )

        self.sampler = SignificantNeighborsSampling(
            num_nodes=config.num_nodes,
            num_significant=config.num_significant,
            top_k=config.top_k,
            seed=config.seed,
            chunk_size=config.chunk_size,
            memory_budget_mb=config.memory_budget_mb,
        )
        self.attention = SparseSpatialMultiHeadAttention(
            embedding_dim=config.embedding_dim,
            num_heads=config.num_heads,
            ffn_hidden=config.ffn_hidden,
            alpha=config.alpha,
            normalizer=config.normalizer,
            use_pairwise_attention=config.use_pairwise_attention,
            seed=config.seed,
            chunk_size=config.chunk_size,
            memory_budget_mb=config.memory_budget_mb,
        )
        self.forecaster = SAGDFNEncoderDecoder(
            input_dim=config.input_dim,
            hidden_dim=config.hidden_size,
            output_dim=config.output_dim,
            horizon=config.horizon,
            diffusion_steps=config.diffusion_steps,
            num_layers=config.num_layers,
            teacher_forcing=config.teacher_forcing,
            seed=config.seed,
            exog_dim=config.exog_dim,
            mask_input=config.mask_input,
            quantiles=config.quantiles,
        )

        # "w/o SNS & SSMA" ablation: a fixed, distance-derived dense support.
        self._predefined_support: np.ndarray | None = None
        if config.use_predefined_graph:
            if predefined_adjacency is None:
                raise ValueError(
                    "use_predefined_graph=True requires a predefined adjacency matrix"
                )
            sparsified = threshold_sparsify(
                np.asarray(predefined_adjacency, dtype=np.float64), keep_top=config.num_significant
            )
            self._predefined_support = row_normalize(sparsified)

        self._index_set: np.ndarray | None = None
        self._iteration = 0

    # ------------------------------------------------------------------ #
    # Graph refresh (Algorithm 2, lines 5–7)
    # ------------------------------------------------------------------ #
    def refresh_graph(self, iteration: int | None = None) -> None:
        """Re-sample the significant-neighbour index set ``I``.

        Before ``convergence_iteration`` the sampler explores (its last
        ``M − K`` slots are random); afterwards the index set is frozen, as
        prescribed by the paper.  The slim adjacency itself is *always*
        recomputed from the current embeddings inside :meth:`forward` so that
        gradients keep flowing into ``E``.
        """
        if self.config.use_predefined_graph:
            return
        if iteration is not None:
            self._iteration = iteration
        exploring = self._iteration < self.config.convergence_iteration
        if not exploring and self._index_set is not None:
            return
        if self.config.use_sns:
            self._index_set = self.sampler.sample(self.node_embeddings.data, explore=exploring)
        else:
            if self._index_set is None or exploring:
                self._index_set = self.sampler.random_index_set()
        self._iteration += 1

    @property
    def index_set(self) -> np.ndarray | None:
        """Currently selected significant-neighbour indices ``I``."""
        return self._index_set

    def slim_adjacency(self) -> Tensor:
        """Compute the current slim adjacency ``A_s`` (differentiable)."""
        if self.config.use_predefined_graph:
            return Tensor(self._predefined_support)
        if self._index_set is None:
            self.refresh_graph()
        return self.attention(self.node_embeddings, self._index_set)

    # ------------------------------------------------------------------ #
    # Forecasting
    # ------------------------------------------------------------------ #
    def forward(self, history: Tensor, targets: Tensor | None = None) -> Tensor:
        """Forecast ``horizon`` steps from ``history`` of shape ``(B, h, N, C_in)``."""
        if not isinstance(history, Tensor):
            history = Tensor(history)
        adjacency = self.slim_adjacency()
        index_set = None if self.config.use_predefined_graph else self._index_set
        return self.forecaster(history, adjacency, index_set, targets=targets)
